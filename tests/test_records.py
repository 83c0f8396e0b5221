"""The record types (read-only fields), the reports' key order, the Klyshko
levels the reports share, and the per-d weights that the block kernels keep."""

import math

import numpy as np
import pytest

from quditnc import (
    SweepSpec,
    build_state,
    klyshko_bars,
    report,
)
from quditnc import fock, measures
from quditnc.states import he_roots, state_block
from quditnc.sweep import QUANTITIES
from quditnc.witnesses import klyshko_levels

SWEEP = SweepSpec("linear", (3,), 0.5, 2.0, 4, (("hoa", 1),))


@pytest.mark.parametrize(
    "record,field",
    [
        (he_roots(3), "roots"),
        (QUANTITIES["hoa"], "fn"),
        (SWEEP, "steps"),
        (SWEEP, "quantities"),
    ],
)
def test_a_field_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize(
    "state", [build_state("nonlinear", 5, 1.2), build_state("linear", 3, 0.7)]
)
def test_report_keys_keep_their_order(state):
    battery = report(state)
    assert list(battery) == ["witnesses", "measures"]
    assert list(battery["measures"]) == [
        "negativity_closed_form",
        "negativity_exact",
        "concurrence_closed_form",
        "concurrence_exact",
        "anticlassicality",
        "anticlassicality_excl_vacuum",
        "argmax_n",
    ]
    entries = battery["witnesses"]
    assert entries
    for entry in entries:
        assert list(entry) == ["name", "order", "value", "nonclassical"]


@pytest.mark.parametrize("d", range(2, 10))
def test_report_and_klyshko_verb_show_the_same_levels(d):
    levels = list(klyshko_levels(d))
    assert levels == list(range(max(d - 2, 1)))
    entries = report(build_state("nonlinear", d, 0.8))["witnesses"]
    assert [e["order"] for e in entries if e["name"] == "klyshko"] == levels
    bars = klyshko_bars("nonlinear", d, [0.8])["entries"][0]["bars"]
    assert [bar["n"] for bar in bars] == levels


def test_factorial_moment_weights_are_built_on_a_miss_only(monkeypatch):
    block = state_block("linear", 6, [0.5, 1.5])
    first = block.factorial_moment(3)
    monkeypatch.setattr(fock.math, "perm", None)  # a rebuild would fail
    assert block.factorial_moment(3) is first


def test_purity_weights_are_exact_up_to_50000_and_at_their_tie(monkeypatch):
    # The fixed-point steps give the correctly rounded double away from rounding
    # boundaries; n = 31 is an exact tie between two doubles (C(62, 31) has 54
    # significant bits), so math.comb gives that entry.
    calls = []
    comb = math.comb
    monkeypatch.setattr(measures.math, "comb", lambda n, k: calls.append(k) or comb(n, k))
    measures._purity_weights.cache_clear()
    weights = measures._purity_weights(50_001)
    assert 31 in calls and len(calls) < 5
    monkeypatch.undo()
    measures._purity_weights.cache_clear()
    for n in (31, 2999, 4096, 10_007, 33_333, 50_000):
        assert weights[n] == math.comb(2 * n, n) / 4**n, n


@pytest.mark.parametrize("d", [2, 7, 40, 1000, 5000])
def test_purity_weights_are_kept_per_d_and_keep_their_bits(d):
    # C(2n, n) as exact integers, each from the last (math.comb at every n takes seconds
    # at d = 5000), and divided exactly rounded by 4^n.
    central = [1]
    for n in range(1, d):
        central.append(central[-1] * 2 * (2 * n - 1) // n)
    assert central[-1] == math.comb(2 * d - 2, d - 1)
    truth = [c / 4**n for n, c in enumerate(central)]
    weights = measures._purity_weights(d)
    assert weights.tolist() == truth
    assert not weights.flags.writeable
    assert measures._purity_weights(d) is weights
    # The nonlinear build's dense eigh would take tens of seconds at d = 5000.
    block = state_block("nonlinear" if d <= 1000 else "linear", d, [0.3, 2.0])
    moduli = np.float_power(np.hypot(block.rows.real, block.rows.imag), 4)
    want = np.zeros(len(block))
    for n in range(d):
        want = want + moduli[:, n] * truth[n]
    assert measures._purity_proxy(block).tolist() == want.tolist()
