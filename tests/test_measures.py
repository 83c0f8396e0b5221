"""Beam-splitter measures and the population-based degree."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from quditnc import (
    FockVector,
    anticlassicality,
    build_state,
    concurrence_closed_form,
    concurrence_exact,
    fock_state,
    log_negativity_exact,
    negativity_potential_closed_form,
    period,
    report,
)
from quditnc import measures
from quditnc.fock import StateBlock

PLUS = FockVector([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def _split(state):
    # The two-mode amplitude matrix after the splitter, as the exact measures build it: the
    # Hankel windows of the scaled amplitudes, zero-padded to 2d - 1, times sqrt(C).
    d, table = state.dim, measures._split_table(state.dim)
    padded = np.zeros(2 * d - 1, complex)
    padded[:d] = state.amps * table.scale
    return sliding_window_view(padded, d) * table.sqrt_binomial


def test_beamsplit_single_photon():
    two = _split(fock_state(1))
    r = 1.0 / math.sqrt(2.0)
    assert two[0, 1] == pytest.approx(r, abs=1e-14)
    assert two[1, 0] == pytest.approx(r, abs=1e-14)
    assert two[0, 0] == 0.0
    assert two[1, 1] == 0.0


def test_beamsplit_two_photons():
    two = _split(fock_state(2))
    assert two[0, 2] == pytest.approx(0.5, abs=1e-14)
    assert two[1, 1] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-14)
    assert two[2, 0] == pytest.approx(0.5, abs=1e-14)


def test_beamsplit_conserves_norm_and_total_number():
    s = build_state("nonlinear", 5, 1.3)
    two = _split(s)
    assert np.linalg.norm(two) == pytest.approx(1.0, abs=1e-12)
    for j in range(5):
        for i in range(5):
            if j + i > 4:
                assert two[j, i] == 0.0


def test_negativity_single_photon_both_routes():
    s = fock_state(1)
    closed = negativity_potential_closed_form(s)[0]
    exact = log_negativity_exact(s)[0]
    assert closed == pytest.approx(1.0, abs=1e-9)
    assert exact == pytest.approx(1.0, abs=1e-9)


def test_negativity_vacuum_is_zero():
    s = fock_state(0, dim=2)
    assert negativity_potential_closed_form(s)[0] == pytest.approx(0.0, abs=1e-12)
    assert log_negativity_exact(s)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", range(11))
def test_number_states_agree_on_both_negativity_routes(n):
    s = fock_state(n)
    closed = negativity_potential_closed_form(s)[0]
    exact = log_negativity_exact(s)[0]
    assert abs(closed - exact) < 1e-9


@pytest.mark.parametrize("n", range(11))
def test_number_states_agree_on_both_concurrence_routes(n):
    s = fock_state(n)
    assert abs(concurrence_closed_form(s)[0] - concurrence_exact(s)[0]) < 1e-9


def test_closed_form_dominates_exact_negativity():
    states = [PLUS, build_state("linear", 4, 1.3), build_state("nonlinear", 6, 2.0),
              build_state("nonlinear", 3, 0.7)]
    for alpha in np.linspace(0.1, period(4), 7):
        states.append(build_state("nonlinear", 4, alpha))
    for s in states:
        closed = negativity_potential_closed_form(s)[0]
        exact = log_negativity_exact(s)[0]
        assert exact <= closed + 1e-9


def test_superposition_routes_diverge():
    # The two routes agree on number states only; on an even superposition
    # they give visibly different numbers, and both are kept.
    assert negativity_potential_closed_form(PLUS)[0] == pytest.approx(1.5431, abs=1e-4)
    assert log_negativity_exact(PLUS)[0] == pytest.approx(math.log2(1.5), abs=1e-4)
    assert concurrence_closed_form(PLUS)[0] == pytest.approx(1.1180, abs=1e-4)
    assert concurrence_exact(PLUS)[0] == pytest.approx(0.5, abs=1e-4)


def test_concurrence_single_photon():
    s = fock_state(1)
    assert concurrence_closed_form(s)[0] == pytest.approx(1.0, abs=1e-9)
    assert concurrence_exact(s)[0] == pytest.approx(1.0, abs=1e-9)


def test_concurrence_vacuum_is_zero():
    s = fock_state(0, dim=3)
    assert concurrence_closed_form(s)[0] == pytest.approx(0.0, abs=1e-9)
    assert concurrence_exact(s)[0] == pytest.approx(0.0, abs=1e-9)


def test_anticlassicality_vacuum():
    vac = fock_state(0, dim=3)
    (value,), (level,) = anticlassicality(vac, exclude_vacuum=False)
    assert (value, level) == (1.0, 0)
    (value,), (level,) = anticlassicality(vac, exclude_vacuum=True)
    assert value == 0.0
    assert level == 1


def test_anticlassicality_tie_takes_smaller_level():
    (value,), (level,) = anticlassicality(PLUS, exclude_vacuum=False)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert level == 0
    uniform = FockVector(np.full(4, 0.5, dtype=complex))
    (value,), (level,) = anticlassicality(uniform, exclude_vacuum=True)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert level == 1


def test_anticlassicality_exclusion_needs_two_levels():
    with pytest.raises(ValueError):
        anticlassicality(FockVector([1.0]), exclude_vacuum=True)


def test_excluded_variant_never_exceeds_full_maximum():
    for d in (2, 4, 6):
        for alpha in np.linspace(0.0, period(d), 15):
            s = build_state("nonlinear", d, alpha)
            (full,), _ = anticlassicality(s, exclude_vacuum=False)
            (partial,), _ = anticlassicality(s, exclude_vacuum=True)
            assert 0.0 <= partial <= full <= 1.0


def test_measure_report_fields_and_vacuum_values():
    payload = report(fock_state(0, dim=3))["measures"]
    assert set(payload) == {
        "negativity_closed_form",
        "negativity_exact",
        "concurrence_closed_form",
        "concurrence_exact",
        "anticlassicality",
        "anticlassicality_excl_vacuum",
        "argmax_n",
    }
    assert payload["anticlassicality"] == 1.0
    assert payload["anticlassicality_excl_vacuum"] == 0.0
    assert payload["argmax_n"] == 1
    assert payload["negativity_exact"] == pytest.approx(0.0, abs=1e-12)


def test_measure_report_argmax_tracks_excluded_variant():
    s = build_state("nonlinear", 4, 1.5)
    payload = report(s)["measures"]
    _, (level,) = anticlassicality(s, exclude_vacuum=True)
    assert payload["argmax_n"] == level


def test_negativity_grows_with_level_count():
    values = [
        negativity_potential_closed_form(build_state("nonlinear", d, 1.0))[0] for d in range(2, 7)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _split_by_loop(state):
    out = np.zeros((state.dim, state.dim), dtype=complex)
    for n in range(state.dim):
        scale = state.amps[n] * 2.0 ** (-0.5 * n)
        for j in range(n + 1):
            out[j, n - j] = scale * math.sqrt(math.comb(n, j))
    return out


def _closed_form_by_loop(state):
    total = 0.0
    for n in range(state.dim):
        row = sum(math.sqrt(math.comb(n, j)) for j in range(n + 1))
        total += abs(state.amps[n]) * 2.0 ** (-0.5 * n) * row
    return 2.0 * math.log2(total)


@pytest.mark.parametrize("d", [2, 3, 7, 20, 41, 60, 200])
def test_cached_split_table_reproduces_the_per_entry_loop(d):
    amplitudes = [0.0, 0.9, 3.3, 6.0, 1.7 * np.exp(2.1j)]
    states = [fock_state(d - 1)]
    states += [build_state(kind, d, a) for kind in ("linear", "nonlinear") for a in amplitudes]
    for state in states:
        assert _split(state).tobytes() == _split_by_loop(state).tobytes()
        assert negativity_potential_closed_form(state)[0] == _closed_form_by_loop(state)


@pytest.mark.parametrize("d", [2, 5, 20, 60])
def test_exact_measures_are_the_definitional_route_bit_for_bit(d):
    # Per state: the matrix built entry by entry, its eigvalsh (real) or SVD
    # (complex), A @ A^H, and the closing formulas.  The sweep's chunks and
    # the per-state functions must give exactly these bits.
    amplitudes = [0.0, 0.4, 1.7, 6.0, -0.9, -3.2, 1.3 * np.exp(0.7j), -2.5j, 4.0 * np.exp(2.4j)]
    states = [build_state(kind, d, a) for kind in ("linear", "nonlinear") for a in amplitudes]
    want = {"negativity_exact": [], "concurrence_exact": []}
    for state in states:
        two = _split_by_loop(state)
        if two.imag.any():
            sigma = np.linalg.svd(two, compute_uv=False)
        else:
            two = two.real
            sigma = np.abs(np.linalg.eigvalsh(two))
        rho = two @ two.conj().T
        purity = float(np.sum(np.abs(rho) ** 2))
        want["negativity_exact"].append(2.0 * math.log2(float(sigma.sum())))
        want["concurrence_exact"].append(math.sqrt(max(2.0 * (1.0 - purity), 0.0)))
    assert 0 < sum(state.amps.imag.any() for state in states) < len(states)
    assert any((state.amps.real < 0).any() for state in states)
    block = StateBlock(np.array([state.amps for state in states]))
    got = {
        "negativity_exact": log_negativity_exact(block),
        "concurrence_exact": concurrence_exact(block),
    }
    for name, values in want.items():
        assert got[name].tolist() == values, name
    assert [log_negativity_exact(s)[0] for s in states] == want["negativity_exact"]
    assert [concurrence_exact(s)[0] for s in states] == want["concurrence_exact"]


def test_each_exact_measure_runs_only_its_own_kernel(monkeypatch):
    # One pass per measure: the concurrence takes no eigenvalues or SVD, and the
    # negativity no purity product, on a real and a complex row alike.
    block = StateBlock(np.array([build_state("linear", 20, 1.5).amps,
                                 build_state("nonlinear", 20, 1.3j).amps]))
    negativity, concurrence = log_negativity_exact(block), concurrence_exact(block)

    def refuse(stack):
        raise AssertionError("the other measure's kernel ran")

    monkeypatch.setattr(measures, "_trace_norms", refuse)
    assert concurrence_exact(block).tobytes() == concurrence.tobytes()
    monkeypatch.undo()
    monkeypatch.setattr(measures, "_purities", refuse)
    assert log_negativity_exact(block).tobytes() == negativity.tobytes()


@pytest.mark.parametrize("d", [2, 5, 20, 60, 120])
def test_negativity_exact_real_route_matches_the_complex_svd(d):
    # Real rows go through eigvalsh on the float64 split matrix; the value
    # must be the complex SVD's, whichever route a state takes.  Both
    # families are exactly real at a real amplitude >= 0.
    states = {
        "linear real": [build_state("linear", d, a) for a in (0.0, 0.4, 1.7, 3.0, 6.0, 9.5)],
        "linear complex": [build_state("linear", d, a * np.exp(0.7j)) for a in (0.4, 1.7, 6.0)],
        "nonlinear real": [build_state("nonlinear", d, a) for a in (0.4, 1.7, period(d) / 2)],
        "nonlinear complex": [build_state("nonlinear", d, a * np.exp(0.7j))
                              for a in (0.4, 1.7, period(d) / 2)],
    }
    for label, family in states.items():
        for state in family:
            two = _split(state)
            assert two.imag.any() == label.endswith("complex")
            sigma = np.linalg.svd(two, compute_uv=False)
            want = 2.0 * math.log2(float(sigma.sum()))
            assert abs(log_negativity_exact(state)[0] - want) <= 1e-13, label


def test_purity_proxy_past_515_levels_matches_the_exact_sum():
    # C(2n, n) leaves the double range at n = 515; the weight C(2n, n)/4^n
    # does not.  Mean photon number 538: most of the mass sits above 515.
    state = build_state("linear", 600, math.sqrt(538.0))
    assert float(np.sum(np.abs(state.amps[516:]) ** 2)) > 0.4
    exact = sum(
        Fraction(abs(c)) ** 4 * Fraction(math.comb(2 * n, n), 4**n)
        for n, c in enumerate(state.amps.tolist())
    )
    got = float(measures._purity_proxy(state)[0])
    assert abs(got - float(exact)) <= 1e-13 * float(exact)
    assert 0.0 < concurrence_closed_form(state)[0] < math.sqrt(2.0)
