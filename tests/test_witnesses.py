"""Moment-based witness functions.

Frozen numbers in this file were produced by the dense-matrix routines in
quditnc.oracle and are pinned here as regression anchors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditnc import (
    FockVector,
    agarwal_tara,
    build_state,
    fock_state,
    hm_quadrature_moment,
    hoa,
    hos_witness,
    hosps,
    klyshko,
    period,
    report,
)
from quditnc.oracle import central_quadrature_moment
from quditnc.states import state_block
from truth import poisson_central_moments

NL_D3 = build_state("nonlinear", 3, 0.7)


def _a3(state):
    # One state's a3, where its moment-matrix ratio must be defined (not masked).
    (value,), (singular,) = agarwal_tara(state)
    assert not singular
    return value


def test_hoa_single_photon_is_minus_one():
    assert hoa(fock_state(1), 1)[0] == pytest.approx(-1.0, abs=1e-14)


def test_hoa_vacuum_is_zero():
    assert hoa(fock_state(0, dim=3), 1)[0] == 0.0


def test_hoa_order_domain():
    with pytest.raises(ValueError):
        hoa(fock_state(1), 0)


def test_hoa_frozen_values():
    assert hoa(NL_D3, 1)[0] == pytest.approx(-0.04274022990835247, abs=1e-12)
    assert hoa(NL_D3, 2)[0] == pytest.approx(-0.11036954056236412, abs=1e-12)
    assert hoa(build_state("linear", 4, 1.3), 1)[0] == pytest.approx(
        -0.43809016009141755, abs=1e-12
    )


def test_hoa_near_zero_for_wide_truncation():
    # With the cutoff far above the occupied levels the state is Poissonian.
    s = build_state("linear", 40, 0.5)
    assert abs(hoa(s, 1)[0]) < 1e-8
    assert abs(hoa(s, 3)[0]) < 1e-8


def test_second_order_hoa_equals_variance_minus_mean():
    for s in (NL_D3, build_state("linear", 5, 1.4)):
        var = s.number_moment(2)[0] - s.mean[0] ** 2
        assert hoa(s, 1)[0] == pytest.approx(var - s.mean[0], abs=1e-12)
        assert hosps(s, 2)[0] == pytest.approx(hoa(s, 1)[0], abs=1e-12)


def test_quadrature_moment_against_direct_second_moment():
    for s in (NL_D3, build_state("linear", 5, 0.8), fock_state(2)):
        c = s.amps
        # <X^2> = <N> + 1/2 + Re <a^2> with X = (a + a+)/sqrt 2.
        a2 = sum(
            np.conj(c[j]) * c[j + 2] * math.sqrt((j + 1) * (j + 2))
            for j in range(s.dim - 2)
        )
        x2 = s.mean[0] + 0.5 + float(a2.real)
        a1 = sum(np.conj(c[j]) * c[j + 1] * math.sqrt(j + 1.0) for j in range(s.dim - 1))
        x1 = math.sqrt(2.0) * float(a1.real)
        assert hm_quadrature_moment(s, 2)[0] == pytest.approx(x2 - x1**2, abs=1e-10)


def test_quadrature_moments_on_vacuum():
    vac = fock_state(0, dim=2)
    assert hm_quadrature_moment(vac, 2)[0] == pytest.approx(0.5, abs=1e-12)
    assert hm_quadrature_moment(vac, 4)[0] == pytest.approx(0.75, abs=1e-12)
    assert hm_quadrature_moment(vac, 6)[0] == pytest.approx(1.875, abs=1e-12)


def test_quadrature_moment_single_photon():
    s = fock_state(1)
    assert hm_quadrature_moment(s, 2)[0] == pytest.approx(1.5, abs=1e-12)
    assert hos_witness(s, 2)[0] == pytest.approx(1.0, abs=1e-12)


def test_quadrature_moment_order_domain():
    with pytest.raises(ValueError):
        hm_quadrature_moment(NL_D3, 3)
    with pytest.raises(ValueError):
        hm_quadrature_moment(NL_D3, 10)


def test_quadrature_moment_matches_oracle_up_to_d60():
    # Criterion 1's tolerance, relative with a unit floor, at the largest d.
    for d in (20, 40, 60):
        amps = set(np.linspace(0.0, period(d) / 2.0, 7).tolist()) | {1.0, 3.0, 6.0}
        for amp in sorted(amps):
            for state in (build_state("linear", d, amp), build_state("nonlinear", d, amp)):
                for n in range(2, 9, 2):
                    dense = central_quadrature_moment(state, n)
                    ours = hm_quadrature_moment(state, n)[0]
                    assert abs(ours - dense) <= 1e-8 * max(1.0, abs(dense)), (d, amp, n)


def test_hos_witness_frozen_value():
    assert hos_witness(NL_D3, 2)[0] == pytest.approx(-0.046257490686595515, abs=1e-12)
    assert hm_quadrature_moment(NL_D3, 4)[0] == pytest.approx(1.0503668801931092, abs=1e-12)


def test_hos_witness_vanishes_in_classical_limit():
    s = build_state("linear", 40, 0.5)
    assert abs(hos_witness(s, 2)[0]) < 1e-8


def test_hosps_first_order_vanishes_identically():
    for s in (NL_D3, build_state("linear", 6, 2.0), fock_state(3)):
        assert hosps(s, 1)[0] == 0.0


def test_hosps_single_photon():
    # Variance 0, mean 1, so the second-order value is -1.
    assert hosps(fock_state(1), 2)[0] == pytest.approx(-1.0, abs=1e-14)


def test_hosps_frozen_values():
    assert hosps(NL_D3, 2)[0] == pytest.approx(-0.04274022990835247, abs=1e-12)
    assert hosps(NL_D3, 3)[0] == pytest.approx(0.17708559414057468, abs=1e-12)


def test_hosps_order_domain():
    with pytest.raises(ValueError):
        hosps(NL_D3, 0)


def test_hosps_overflows_first_at_order_220():
    # S(220, k) is the first Stirling number past the double range: order 219 returns a
    # value per state, and order 220 raises the OverflowError of its float conversion.
    block = state_block("linear", 4, [0.5, 1.5])
    assert hosps(block, 219).shape == (2,)
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        hosps(block, 220)


def test_hosps_equals_signed_central_moment_deficit():
    # The combination reduces to (-1)^l (<(N - <N>)^l> - same for Poisson).
    for s in (NL_D3, build_state("linear", 6, 1.3), build_state("nonlinear", 5, 2.2)):
        p = np.abs(s.amps) ** 2
        levels = np.arange(s.dim, dtype=float)
        lam = float(np.dot(levels, p))
        poisson = poisson_central_moments(lam, 6)
        for l in range(2, 6):
            central = float(np.dot((levels - lam) ** l, p))
            expected = (-1.0) ** l * (central - poisson[l])
            assert hosps(s, l)[0] == pytest.approx(expected, abs=1e-10)


def test_hosps_alternates_sign_for_three_levels():
    # For d = 3 the even orders never go positive and the odd order never
    # goes negative, over the full period of the nonlinear family.
    for alpha in np.linspace(0.0, period(3), 40):
        s = build_state("nonlinear", 3, alpha)
        assert hosps(s, 2)[0] <= 1e-12
        assert hosps(s, 3)[0] >= -1e-12
        assert hosps(s, 4)[0] <= 1e-12


def test_agarwal_tara_fock_two():
    assert _a3(fock_state(2)) == pytest.approx(-1.0, abs=1e-10)


def test_agarwal_tara_singular_cases():
    assert agarwal_tara(fock_state(1))[1][0]
    assert agarwal_tara(fock_state(0, dim=4))[1][0]


def test_agarwal_tara_frozen_values():
    assert _a3(NL_D3) == pytest.approx(-0.0890696906052556, abs=1e-12)
    assert _a3(build_state("linear", 4, 1.3)) == pytest.approx(
        -0.3256242032618231, abs=1e-12
    )


def test_agarwal_tara_small_in_classical_limit():
    assert abs(_a3(build_state("linear", 60, 0.5))) < 1e-3


def test_klyshko_single_photon():
    assert klyshko(fock_state(1), [0])[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_klyshko_exact_cancellation():
    # p = (0.4, 0.4, 0.2) gives 2 p0 p2 = p1^2.
    assert klyshko(build_state("linear", 3, 1.0), [0])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_klyshko_beyond_support_is_zero():
    s = fock_state(1)
    assert klyshko(s, [5])[0, 0] == 0.0
    assert klyshko(s, [1])[0, 0] == 0.0


@pytest.mark.parametrize("n", [3, 4, 2**31, 2**63 - 2, 2**63, 2**64, 10**40])
def test_klyshko_from_the_level_count_on_is_exactly_zero_at_any_level(n):
    # Levels past int64 (and those that wrapped in n + 2) read 0, as every
    # level from d = 3 on does: its three probabilities are 0.
    value = klyshko(NL_D3, [n])[0, 0]
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_klyshko_frozen_value():
    assert klyshko(NL_D3, [0])[0, 0] == pytest.approx(0.02957762381822031, abs=1e-12)


def test_klyshko_order_domain():
    with pytest.raises(ValueError):
        klyshko(NL_D3, [-1])


def test_klyshko_refuses_a_level_that_is_not_an_integer():
    # A float level was cast to int: level 1.5 read level 1.
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            klyshko(NL_D3, [bad])
    assert klyshko(NL_D3, [np.int64(0)])[0, 0] == klyshko(NL_D3, [0])[0, 0]
    for huge in (2**63, 2**64):
        value = klyshko(NL_D3, [huge])[0, 0]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_klyshko_two_level_states_never_positive(p1):
    amps = np.array([math.sqrt(1.0 - p1), math.sqrt(p1)], dtype=complex)
    value = klyshko(FockVector(amps), [0])[0, 0]
    assert value == pytest.approx(-(p1**2), abs=1e-12)
    assert value <= 1e-12


def test_witness_report_structure():
    entries = report(NL_D3)["witnesses"]
    names = [(e["name"], e["order"]) for e in entries]
    assert ("hoa", 1) in names
    assert ("hos", 4) in names
    assert ("hosps", 3) in names
    assert ("a3", None) in names
    assert ("klyshko", 0) in names
    assert set(entries[0]) == {"name", "order", "value", "nonclassical"}


def test_witness_report_omits_singular_ratio():
    entries = report(fock_state(1))["witnesses"]
    assert all(e["name"] != "a3" for e in entries)
    # Default Klyshko levels stop inside the support (one level for d = 2).
    klyshko_entries = [e for e in entries if e["name"] == "klyshko"]
    assert [e["order"] for e in klyshko_entries] == [0]


def test_witness_report_zero_is_not_flagged():
    entries = report(fock_state(0, dim=3))["witnesses"]
    for entry in entries:
        if entry["value"] == 0.0:
            assert not entry["nonclassical"]


def test_witness_report_flags_negative_values():
    entries = report(fock_state(1))["witnesses"]
    flagged = {(e["name"], e["order"]) for e in entries if e["nonclassical"]}
    assert ("hoa", 1) in flagged
    assert ("klyshko", 0) in flagged
