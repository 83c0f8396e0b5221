"""Coherent-state constructions: the Hermite eigenbasis, both families, periods."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import gammaln

from quditnc import (
    FockVector,
    build_state,
    concurrence_exact,
    he_roots,
    log_negativity_exact,
    period,
)
from quditnc.oracle import displacement_exponential
from quditnc import states
from quditnc.states import _log_factorials, _nonlinear_coefficients, block_rows, state_block
from truth import exponential_column, linear_column


def test_he_roots_small_degrees():
    r2, _ = he_roots(2)
    assert r2 == pytest.approx([-1.0, 1.0], abs=1e-12)
    r3, _ = he_roots(3)
    assert r3 == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 20, 60, 100, 150])
def test_he_roots_are_the_gauss_hermite_rule(d):
    # Golub-Welsch: the eigenvalues are the Gauss nodes, and the squared first
    # components of the unit eigenvectors are the weights of the unit-mass rule.
    nodes, weights = hermegauss(d)
    basis = he_roots(d)
    roots, vectors = basis
    assert len(roots) == d
    assert np.max(np.abs(roots - nodes)) < 1e-13
    assert np.max(np.abs(vectors[0] ** 2 - weights / math.sqrt(2.0 * math.pi))) < 1e-14
    assert not roots.flags.writeable and not vectors.flags.writeable
    assert he_roots(d) is basis


@pytest.mark.parametrize(
    "d,rows", [(2, 7680), (60, 256), (61, 251), (15360, 1), (15361, 1), (10**6, 1)]
)
def test_a_block_holds_at_most_block_entries_amplitude_entries(d, rows):
    # Past 60 levels a block shrinks with d, down to one amplitude from 15,361 levels.
    assert states.BLOCK_ENTRIES == 15360
    assert block_rows(d) == rows == max(1, states.BLOCK_ENTRIES // d)


def test_he_roots_degree_domain():
    with pytest.raises(ValueError):
        he_roots(0)


@pytest.mark.parametrize("d", [61, 100, 200, 400])
def test_nonlinear_matches_the_dense_oracle_past_sixty_levels(d):
    for alpha in (0.7, period(d) / 4.0, period(d) / 2.0, 1.3 - 2.2j, -4.0 + 0.5j):
        dense = displacement_exponential(d, alpha).amps
        assert np.max(np.abs(build_state("nonlinear", d, alpha).amps - dense)) < 1e-13, alpha


@pytest.mark.parametrize("d", [2, 3, 5, 60, 61, 400])
def test_nonlinear_state_is_exactly_real_at_a_real_nonnegative_amplitude(d):
    amplitudes = [0.0, 0.3, period(d) / 4.0, period(d) / 2.0, 11.7, complex(1.5, -0.0)]
    for alpha in amplitudes:
        assert not build_state("nonlinear", d, alpha).amps.imag.any(), alpha
    block = state_block("nonlinear", d, amplitudes + [1.3 - 2.2j, -0.6j])
    assert not block.rows[: len(amplitudes)].imag.any()
    assert block.rows[len(amplitudes) :].imag.any(axis=1).all()


def _exact_measures(block):
    return {
        "negativity_exact": log_negativity_exact(block),
        "concurrence_exact": concurrence_exact(block),
    }


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 8, 60])
def test_a_real_negative_amplitude_gives_the_exactly_real_mirror_state(kind, d):
    # c_n(-a) = (-1)^n c_n(a) in both families: the real parts of the odd levels negated, bit
    # for bit, and the measures of the split state unchanged, each on its real route.
    amplitudes = [0.3, 1.0, period(d) / 4.0, period(d) / 2.0, 3.0, 11.7]
    for a in amplitudes:
        plus, minus = build_state(kind, d, a).amps, build_state(kind, d, -a).amps
        assert not minus.imag.any(), a
        mirror = plus.copy()
        mirror.real[1::2] *= -1
        assert minus.tobytes() == mirror.tobytes(), a
    block = states.state_block(kind, d, [*amplitudes, *(-a for a in amplitudes)])
    assert not block.rows.imag.any()
    exact = _exact_measures(block)
    half = len(amplitudes)
    for name in exact:
        assert np.max(np.abs(exact[name][:half] - exact[name][half:])) <= 1e-12, name


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 40, 60])
def test_a_zero_amplitude_is_exactly_the_vacuum(kind, d):
    # The nonlinear build at 0 carried (V V^T)[n, 0] roundoff of about 1e-16 on levels n >= 1.
    vacuum = [1.0] + [0.0] * (d - 1)
    for a in (0.0, -0.0, 0j):
        assert build_state(kind, d, a).amps.tolist() == vacuum, a
    block = states.state_block(kind, d, [0.0, 1.3, -0.0, 0j])
    for row in block.rows[[0, 2, 3]]:
        assert row.tolist() == vacuum


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 20, 60])
def test_a_complex_amplitude_is_the_row_at_its_modulus_turned_by_its_phase(kind, d):
    # Both families are phase covariant: c_n(r e^{i phi}) = e^{i n phi} c_n(r), bit for
    # bit, and the exact measures, which a local phase leaves alone, agree with the row at r.
    rng = np.random.default_rng(d)
    amplitudes = [1.3 - 2.2j, 2.1j, -0.6j, -3.0 + 1e-3j, complex(-2.5, -0.0) + 0.5j]
    amplitudes += list(rng.uniform(0.0, 8.0, 6) * np.exp(1j * rng.uniform(-math.pi, math.pi, 6)))
    moduli = [abs(a) for a in amplitudes]
    turned = states.state_block(kind, d, amplitudes)
    at_r = states.state_block(kind, d, moduli)
    levels = np.arange(d)
    for a, row, plain in zip(amplitudes, turned.rows, at_r.rows):
        want = plain * np.exp(1j * levels * np.arctan2(a.imag, a.real))
        assert row.tobytes() == want.tobytes(), a
    names = ["negativity_exact", "concurrence_exact"]
    exact, plain = _exact_measures(turned), _exact_measures(at_r)
    assert np.max(np.abs(exact[names[0]] - plain[names[0]])) <= 1e-12
    # concurrence_exact is sqrt(2 (1 - purity)): near 0 it keeps half the purity's digits
    # (up to 2.6e-8 apart here), so the two routes are held to 1e-12 on its square.
    assert np.max(np.abs(exact[names[1]] ** 2 - plain[names[1]] ** 2)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 20, 60])
def test_nonlinear_matches_the_dense_oracle_at_negative_and_complex_amplitudes(d):
    for alpha in (-0.7, -period(d) / 4.0, -period(d) / 2.0, 1.3 - 2.2j, 2.1j, -3.0 * np.exp(0.4j)):
        dense = displacement_exponential(d, alpha).amps
        assert np.max(np.abs(build_state("nonlinear", d, alpha).amps - dense)) < 1e-13, alpha


def test_the_exponential_series_reference_matches_mpmath_expm():
    d, alpha = 5, 2.3 - 1.1j
    series = exponential_column(d, alpha)
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        gen = mpmath.zeros(d, d)
        for n in range(1, d):
            gen[n, n - 1] = a * mpmath.sqrt(n)
            gen[n - 1, n] = -mpmath.conj(a) * mpmath.sqrt(n)
        column = mpmath.expm(gen)[:, 0]
        assert max(abs(series[n] - column[n]) for n in range(d)) < mpmath.mpf(10) ** -35


@pytest.mark.parametrize("d", [5, 20, 60])
def test_nonlinear_is_within_2e_15_of_a_40_digit_exponential(d):
    for alpha in (0.9, period(d) / 4.0, period(d) / 2.0, -1.7, 2.3 - 1.1j):
        truth = np.array([complex(x) for x in exponential_column(d, alpha)])
        assert np.max(np.abs(build_state("nonlinear", d, alpha).amps - truth)) <= 2e-15, alpha


def test_nonlinear_two_level_closed_form():
    for alpha in (0.3, 1.1, 2.5, 0.4 + 0.9j):
        s = build_state("nonlinear", 2, alpha)
        mod = abs(alpha)
        phase = math.atan2(alpha.imag, alpha.real) if isinstance(alpha, complex) else 0.0
        assert s.amps[0] == pytest.approx(math.cos(mod), abs=1e-12)
        expected1 = math.sin(mod) * np.exp(1j * phase)
        assert s.amps[1] == pytest.approx(expected1, abs=1e-12)


def test_nonlinear_zero_amplitude_is_vacuum():
    for d in (2, 3, 5, 9):
        s = build_state("nonlinear", d, 0.0)
        assert abs(s.amps[0] - 1.0) < 1e-10
        assert np.max(np.abs(s.amps[1:])) < 1e-10


def test_nonlinear_frozen_moduli_d3():
    s = build_state("nonlinear", 3, 0.7)
    expected = [0.7835798675184041, 0.5406729545049738, 0.30606428652605494]
    assert np.abs(s.amps) == pytest.approx(expected, abs=1e-12)


def test_nonlinear_half_period_d3_populations():
    # At half the period the middle level empties out exactly.
    s = build_state("nonlinear", 3, period(3) / 2.0)
    p = s.probabilities[0]
    assert p[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert p[1] == pytest.approx(0.0, abs=1e-12)
    assert p[2] == pytest.approx(8.0 / 9.0, abs=1e-12)


@given(st.integers(min_value=2, max_value=20), st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_nonlinear_raw_coefficients_have_unit_norm(d, mod):
    raw = _nonlinear_coefficients(d, np.array([mod]))
    assert np.linalg.norm(raw) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "d,shift",
    [(2, math.pi), (3, 2.0 * math.pi / math.sqrt(3.0))],
)
def test_nonlinear_periodicity_in_modulus(d, shift):
    for alpha in np.linspace(0.0, 2.0 * shift, 10):
        a = np.abs(build_state("nonlinear", d, alpha).amps)
        b = np.abs(build_state("nonlinear", d, alpha + shift).amps)
        assert np.max(np.abs(a - b)) < 1e-10


def test_period_values():
    assert period(2) == pytest.approx(math.pi)
    assert period(3) == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
    assert period(7) == pytest.approx(math.sqrt(30.0))
    assert period(12) == pytest.approx(math.sqrt(50.0))
    with pytest.raises(ValueError):
        period(1)


def test_linear_zero_amplitude_is_vacuum():
    s = build_state("linear", 5, 0.0)
    assert s.amps[0] == 1.0
    assert np.all(s.amps[1:] == 0.0)


def test_linear_phases_follow_level_index():
    beta = 1.2 * np.exp(0.7j)
    s = build_state("linear", 5, beta)
    for n in range(5):
        assert np.angle(s.amps[n]) == pytest.approx(
            ((0.7 * n + math.pi) % (2.0 * math.pi)) - math.pi, abs=1e-12
        )


def test_linear_large_amplitude_is_top_heavy():
    # For |beta|^2 far above the top level the last amplitude dominates.
    s = build_state("linear", 12, 40.0)
    p = s.probabilities[0]
    assert np.argmax(p) == 11
    assert np.isfinite(p).all()


def test_linear_ratios_match_poisson_recurrence():
    s = build_state("linear", 8, 1.9)
    for n in range(7):
        ratio = abs(s.amps[n + 1]) / abs(s.amps[n])
        assert ratio == pytest.approx(1.9 / math.sqrt(n + 1.0), rel=1e-10)


@pytest.mark.parametrize("d", [5, 20, 60, 256])
def test_linear_is_within_1e_13_of_its_definition(d):
    for beta in (0.05, 0.5, 1.3, 4.2, 10.0, 30.0):
        truth = np.array([float(x) for x in linear_column(d, beta)])
        amps = build_state("linear", d, beta).amps
        assert not amps.imag.any(), beta
        assert np.max(np.abs(amps.real - truth)) <= 1e-13, beta


def test_dim_domain():
    with pytest.raises(ValueError):
        build_state("nonlinear", 1, 0.5)
    with pytest.raises(ValueError):
        build_state("linear", 1, 0.5)


def test_spec_coerces_kind_and_validates():
    state = build_state("linear", 3, 1.0)
    assert state.amps.tolist() == build_state("linear", 3, 1.0 + 0j).amps.tolist()
    assert state.amps.dtype == complex
    with pytest.raises(ValueError, match="dim must be at least 2"):
        build_state("nonlinear", 1, 1.0)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        build_state("linear", 3, float("nan"))
    with pytest.raises(ValueError, match="amplitude must be finite"):
        build_state("linear", 3, complex(0.0, math.inf))
    with pytest.raises(ValueError, match="kind must be 'linear' or 'nonlinear'"):
        build_state("squeezed", 3, 1.0)


def test_build_state_dispatch():
    a = build_state("nonlinear", 3, 0.7)
    b = state_block("nonlinear", 3, [0.7]).rows[0]
    assert np.allclose(a.amps, b)
    c = build_state("linear", 3, 0.7)
    d = state_block("linear", 3, [0.7]).rows[0]
    assert np.allclose(c.amps, d)
    assert not np.allclose(a.amps, c.amps)


def test_mean_photon_stays_below_top_level():
    for d in (2, 3, 4, 6):
        top = 0.0
        for alpha in np.linspace(0.0, 2.0 * period(d), 121):
            value = build_state("nonlinear", d, alpha).mean[0]
            assert value <= d - 1 + 1e-12
            top = max(top, value)
        # The sweep should come close to filling the top level.
        assert top >= 0.75 * (d - 1)


def _per_state_coefficients(d, r):
    # The cos/sin split of the eigenbasis sum evaluated at one modulus r, the
    # eigenbasis recomputed: the arithmetic the batched build must reproduce.
    # Level n reads the cosine sum for even n and the sine sum for odd n,
    # signed +, +, -, - by n mod 4.
    x, v = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, d)), k=-1))
    sums = (v[0] * np.array([np.cos(x * r), np.sin(x * r)])) @ v.T
    return np.array([(1, 1, -1, -1)[n % 4] * sums[n % 2, n] for n in range(d)])


def _per_state(d, alpha):
    # The normalized state at r = |alpha|, the vacuum at r = 0, then turned: a
    # complex alpha multiplies level n by e^{i n phi}, and a real alpha < 0
    # negates the real parts of the odd levels.
    alpha = complex(alpha)
    r = abs(alpha)
    amps = FockVector(_per_state_coefficients(d, r) if r else np.eye(d)[0]).amps.copy()
    if alpha.imag != 0:
        amps *= np.exp(1j * np.arange(d) * np.arctan2(alpha.imag, alpha.real))
    elif alpha.real < 0:
        amps.real[1::2] *= -1
    return amps


def test_log_factorials_equal_gammaln_bit_for_bit():
    # n = 0..1999 covers the exact products below 13, the Stirling series, and
    # the range from n = 999 where cephes switches to a shorter polynomial.
    table = _log_factorials(2000)
    assert _same_bits(table, gammaln(np.arange(2000) + 1.0))
    assert not table.flags.writeable
    assert _same_bits(_log_factorials(7), table[:7])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _block_rows(kind, d, amplitudes):
    # The rows of the blocks a sweep builds: state_block on block_rows(d) amplitudes at a time.
    amps, step = list(amplitudes), block_rows(d)
    blocks = (state_block(kind, d, amps[i : i + step]) for i in range(0, len(amps), step))
    return [row for block in blocks for row in block.rows]


@pytest.mark.parametrize("d", range(2, 61))
def test_batched_nonlinear_build_matches_per_state_sum_bit_for_bit(d):
    rng = np.random.default_rng(d)
    real = [0.0, 0.3, period(d) / 4.0, period(d) / 2.0, 11.7, -2.5]
    cplx = list(rng.uniform(0.0, 8.0, 6) * np.exp(1j * rng.uniform(-math.pi, math.pi, 6)))
    amplitudes = real + cplx
    expected = [_per_state(d, a) for a in amplitudes]
    built = _block_rows("nonlinear", d, amplitudes)
    assert len(built) == len(amplitudes)
    for amp, want, got in zip(amplitudes, expected, built):
        assert _same_bits(got, want), (d, amp)
        assert _same_bits(build_state("nonlinear", d, amp).amps, want), (d, amp)
    # Float and complex arrays, as run_sweep passes them, and blocks with no vacuum row.
    for amps in (np.array(real[1:]), np.array(real[1:] + cplx)):
        rows = state_block("nonlinear", d, amps).rows
        assert len(rows) == len(amps)
        for amp, want, got in zip(amps.tolist(), expected[1:], rows):
            assert _same_bits(got, want), (d, amp)


def test_batched_nonlinear_build_is_exact_across_a_block_boundary():
    d = 9
    amplitudes = np.linspace(-0.4, 2.0 * period(d), block_rows(d) + 5)
    assert block_rows(d) < len(amplitudes) <= 2 * block_rows(d)  # two blocks
    built = _block_rows("nonlinear", d, amplitudes)
    assert len(built) == len(amplitudes)
    for amp, row in zip(amplitudes, built):
        assert _same_bits(row, _per_state(d, amp)), amp


def test_state_blocks_linear_family_matches_build_state():
    amplitudes = [0.0, 0.7, 2.5 * np.exp(0.4j), 9.0]
    built = _block_rows("linear", 12, amplitudes)
    for amp, row in zip(amplitudes, built):
        assert _same_bits(row, build_state("linear", 12, amp).amps)


def test_state_blocks_validates_like_a_spec():
    with pytest.raises(ValueError):
        _block_rows("nonlinear", 1, [0.5])
    with pytest.raises(ValueError):
        _block_rows("nonlinear", 4, [0.5, float("inf")])
    with pytest.raises(ValueError):
        _block_rows("squeezed", 4, [0.5])
    assert _block_rows("linear", 4, []) == []


class _Built(Exception):
    """The state build was reached: the budget let the size through."""


def test_the_state_build_budget_refuses_only_what_is_over_it(monkeypatch):
    def build(*args):
        raise _Built

    monkeypatch.setattr(states, "he_roots", build)
    monkeypatch.setattr(states, "_linear_coefficients", build)
    block = [1.0] * 256
    # The nonlinear family's d x d eigenproblem: 11585**2 <= 2**27 < 11586**2.
    with pytest.raises(_Built):
        states.state_block("nonlinear", 11585, block)
    message = "^the state build holds {} entries, more than 134217728$"
    with pytest.raises(ValueError, match=message.format(11586**2)):
        states.state_block("nonlinear", 11586, [1.0])
    # A linear block of 256 states runs up to 2**19 levels.
    with pytest.raises(_Built):
        states.state_block("linear", 2**19, block)
    with pytest.raises(ValueError, match=message.format(256 * (2**19 + 1))):
        states.state_block("linear", 2**19 + 1, block)
    with pytest.raises(_Built):
        states.state_block("linear", 2**27, [1.0])
