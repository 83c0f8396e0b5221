"""The record types (read-only fields, value equality, key order), the Klyshko
levels the reports share, and the per-d weights that the block kernels keep."""

import math

import numpy as np
import pytest

from quditnc import (
    QcsSpec,
    StateKind,
    SweepSpec,
    klyshko_bars,
    linear_qcs,
    measure_report,
    nonlinear_qcs,
    witness_report,
)
from quditnc import fock, measures
from quditnc.states import state_block
from quditnc.witnesses import klyshko_levels

SWEEP = SweepSpec(StateKind.LINEAR, (3,), 0.5, 2.0, 4, (("hoa", 1),))


@pytest.mark.parametrize(
    "record,field",
    [
        (QcsSpec("linear", 3, 1.0), "kind"),
        (QcsSpec("linear", 3, 1.0), "amplitude"),
        (SWEEP, "steps"),
        (SWEEP, "output_format"),
        (measure_report(nonlinear_qcs(4, 1.0)), "negativity_exact"),
        (witness_report(nonlinear_qcs(4, 1.0)).entries[0], "value"),
    ],
)
def test_a_field_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_qcs_spec_compares_and_hashes_by_value():
    spec = QcsSpec("linear", 3, 1.0)
    same = QcsSpec(StateKind.LINEAR, 3, 1.0 + 0j)
    assert spec == same
    assert hash(spec) == hash(same)
    assert spec != QcsSpec("nonlinear", 3, 1.0)
    assert len({spec, same, QcsSpec("linear", 4, 1.0)}) == 2
    assert (spec.kind, spec.dim, spec.amplitude) == (StateKind.LINEAR, 3, 1 + 0j)
    assert QcsSpec(kind="nonlinear", dim=2, amplitude=0) == QcsSpec("nonlinear", 2, 0j)


def test_replace_checks_the_fields_as_the_constructor_does():
    spec = QcsSpec("linear", 3, 1.0)
    assert spec._replace(kind="nonlinear", amplitude=2) == QcsSpec("nonlinear", 3, 2.0)
    with pytest.raises(ValueError, match="dim must be at least 2"):
        spec._replace(dim=1)


@pytest.mark.parametrize("state", [nonlinear_qcs(5, 1.2), linear_qcs(3, 0.7)])
def test_report_keys_keep_their_order(state):
    assert list(measure_report(state).as_dict()) == [
        "negativity_closed_form",
        "negativity_exact",
        "concurrence_closed_form",
        "concurrence_exact",
        "anticlassicality",
        "anticlassicality_excl_vacuum",
        "argmax_n",
    ]
    entries = witness_report(state).as_dicts()
    assert entries
    for entry in entries:
        assert list(entry) == ["name", "order", "value", "nonclassical"]


@pytest.mark.parametrize("d", range(2, 10))
def test_report_and_klyshko_verb_show_the_same_levels(d):
    levels = list(klyshko_levels(d))
    assert levels == list(range(max(d - 2, 1)))
    report = witness_report(nonlinear_qcs(d, 0.8))
    assert [e.order for e in report.entries if e.name == "klyshko"] == levels
    bars = klyshko_bars(StateKind.NONLINEAR, d, [0.8])["entries"][0]["bars"]
    assert [bar["n"] for bar in bars] == levels


def test_factorial_moment_weights_are_built_on_a_miss_only(monkeypatch):
    block = state_block("linear", 6, [0.5, 1.5])
    first = block.factorial_moment(3)
    monkeypatch.setattr(fock.math, "perm", None)  # a rebuild would fail
    assert block.factorial_moment(3) is first


@pytest.mark.parametrize("d", [2, 7, 40, 1000])
def test_purity_weights_are_kept_per_d_and_keep_their_bits(d):
    weights = measures._purity_weights(d)
    assert weights == tuple(math.comb(2 * n, n) / 4**n for n in range(d))
    assert measures._purity_weights(d) is weights
    block = state_block("nonlinear", d, [0.3, 2.0])
    moduli = np.float_power(np.hypot(block.amps.real, block.amps.imag), 4)
    want = np.zeros(len(block))
    for n in range(d):
        want = want + moduli[:, n] * (math.comb(2 * n, n) / 4**n)
    assert measures._purity_proxy(block).tolist() == want.tolist()
