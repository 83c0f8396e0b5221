"""Block evaluation: each quantity computed on an (S, d) block of states at once.

A row's value must not depend on the block it sits in, every per-state
function must be the block kernel on a block of one, and the sweep's
columns must agree with the dense oracle at large d.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from quditnc import StateKind, SweepSpec, linear_qcs, nonlinear_qcs, period, run_sweep
from quditnc import measures
from quditnc.fock import FockVector, StateBlock, libm_pow, normalized_rows, row_dots
from quditnc.oracle import ladder_matrix, normal_ordered_expectation
from quditnc.states import state_block
from quditnc.sweep import QUANTITIES, SINGULAR_SENTINEL, column_name
from quditnc.witnesses import _s2, klyshko_block

ALL_QUANTITIES = (
    ("hoa", 1),
    ("hoa", 3),
    ("hos", 2),
    ("hos", 6),
    ("hosps", 2),
    ("hosps", 4),
    ("a3", None),
    ("klyshko", 0),
    ("klyshko", 3),
    ("negativity_closed_form", None),
    ("negativity_exact", None),
    ("concurrence_closed_form", None),
    ("concurrence_exact", None),
    ("anticlassicality", None),
    ("anticlassicality_excl_vacuum", None),
)


def _bits(cells):
    return [c if c == SINGULAR_SENTINEL else float(c).hex() for c in cells]


def _columns(kind, d, amplitudes):
    block = state_block(kind, d, amplitudes)
    return {
        column_name(ident, order): _bits(QUANTITIES[ident].fn(block, order))
        for ident, order in ALL_QUANTITIES
    }


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 12])
def test_a_rows_values_do_not_depend_on_its_block(kind, d):
    amplitudes = list(np.linspace(0.0, period(d), 23)) + [1.3 * np.exp(0.8j), -0.6]
    whole = _columns(kind, d, amplitudes)
    reversed_ = _columns(kind, d, amplitudes[::-1])
    cuts = [0, 1, 8, 9, 20, len(amplitudes)]
    parts = [_columns(kind, d, amplitudes[a:b]) for a, b in zip(cuts, cuts[1:])]
    for col, cells in whole.items():
        assert reversed_[col][::-1] == cells, col
        assert [c for part in parts for c in part[col]] == cells, col
    assert SINGULAR_SENTINEL in whole["a3"]  # the vacuum row


def _per_state_cells(state):
    # Every quantity evaluated on one state with Python-level reductions: the
    # arithmetic the block kernels must reproduce bit for bit.
    d, amps = state.dim, state.amps
    p = np.abs(amps) ** 2
    mean = float(np.dot(np.arange(d), p))

    def factorial(k):
        return float(sum(math.perm(j, k) * p[j] for j in range(d)))

    def hosps(l):
        excess = [factorial(k) - mean**k for k in range(1, l + 1)]
        total = 0.0
        for r in range(l + 1):
            shell = math.comb(l, r) * (-1.0 if r % 2 else 1.0) * mean ** (l - r)
            for k in range(1, r + 1):
                total += shell * _s2(r, k) * excess[k - 1]
        return total

    def hm(n):
        v = np.zeros(d + n // 2, dtype=complex)
        v[:d] = amps
        hop = np.sqrt(np.arange(1.0, v.size) / 2.0)

        def apply_x(u):
            out = np.zeros_like(u)
            out[:-1] = hop * u[1:]
            out[1:] += hop * u[:-1]
            return out

        centre = np.vdot(v, apply_x(v)).real
        for _ in range(n // 2):
            v = apply_x(v) - centre * v
        return float(np.vdot(v, v).real) - math.prod(range(n - 1, 0, -2)) / 2.0 ** (0.5 * n)

    def a3():
        m = [factorial(n) for n in range(1, 5)]
        mu = [float(np.dot(np.arange(d, dtype=float) ** n, p)) for n in range(1, 5)]
        det_m, det_mu = (
            float(np.linalg.det([[1.0, x[0], x[1]], [x[0], x[1], x[2]], [x[1], x[2], x[3]]]))
            for x in (m, mu)
        )
        denom = det_mu - det_m
        return SINGULAR_SENTINEL if abs(denom) <= 1e-12 else det_m / denom

    def at(i):
        return float(p[i]) if i < d else 0.0

    def closed_forms():
        table = measures._split_table(d)
        neg = proxy = 0.0
        for n, amp in enumerate(amps):
            neg += abs(amp) * table.scale[n] * table.row_sums[n]
            proxy += abs(amp) ** 4 * 4.0 ** (-n) * math.comb(2 * n, n)
        return 2.0 * math.log2(neg), math.sqrt(max(2.0 * (1.0 - proxy), 0.0))

    two = measures.beamsplit(state).amps
    rho = two @ two.conj().T
    neg_closed, conc_closed = closed_forms()
    cells = {
        "hoa_1": factorial(2) - mean**2,
        "hoa_3": factorial(4) - mean**4,
        "hos_2": hm(2),
        "hos_6": hm(6),
        "hosps_2": hosps(2),
        "hosps_4": hosps(4),
        "a3": a3(),
        "klyshko_0": 2 * at(0) * at(2) - 1 * at(1) ** 2,
        "klyshko_3": 5 * at(3) * at(5) - 4 * at(4) ** 2,
        "negativity_closed_form": neg_closed,
        "negativity_exact": 2.0 * math.log2(float(np.linalg.svd(two, compute_uv=False).sum())),
        "concurrence_closed_form": conc_closed,
        "concurrence_exact": math.sqrt(max(2.0 * (1.0 - float(np.sum(np.abs(rho) ** 2))), 0.0)),
        "anticlassicality": float(p.max()),
        "anticlassicality_excl_vacuum": float(p[1:].max()),
    }
    return {col: _bits([value])[0] for col, value in cells.items()}


def _assert_block_reproduces_per_state(states):
    block = StateBlock(np.array([state.amps for state in states]))
    cells = {
        column_name(ident, order): _bits(QUANTITIES[ident].fn(block, order))
        for ident, order in ALL_QUANTITIES
    }
    for i, state in enumerate(states):
        for col, want in _per_state_cells(state).items():
            assert cells[col][i] == want, (col, i)


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 12, 60])
def test_block_kernels_reproduce_the_per_state_arithmetic(kind, d):
    amplitudes = list(np.linspace(0.0, period(d), 9)) + [1.3 * np.exp(0.8j)]
    family = nonlinear_qcs if kind == "nonlinear" else linear_qcs
    _assert_block_reproduces_per_state([family(d, amp) for amp in amplitudes])


def test_block_kernels_reproduce_the_per_state_arithmetic_on_random_states():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((400, 7)) + 1j * rng.standard_normal((400, 7))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    _assert_block_reproduces_per_state([FockVector(row) for row in raw])


def test_klyshko_block_reproduces_the_per_state_formula_at_every_level():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((2000, 8)) + 1j * rng.standard_normal((2000, 8))
    block = StateBlock(normalized_rows(raw / np.linalg.norm(raw, axis=1)[:, None]))
    got = klyshko_block(block, range(10)).tolist()
    for row, p in zip(got, (np.abs(block.amps) ** 2).tolist()):
        at = p + [0.0, 0.0, 0.0, 0.0]
        assert row == [(n + 2) * at[n] * at[n + 2] - (n + 1) * at[n + 1] ** 2 for n in range(10)]


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
def test_exact_measures_are_exact_across_two_mode_chunks(kind, monkeypatch):
    d = 60
    amplitudes = np.linspace(0.2, 7.0, 7)
    assert measures.TWO_MODE_CHUNK // d**2 not in (0, 1, len(amplitudes))
    names = ["negativity_exact", "concurrence_exact"]
    chunked = measures.exact_measures(state_block(kind, d, amplitudes), names)
    monkeypatch.setattr(measures, "TWO_MODE_CHUNK", 1)
    one_row = measures.exact_measures(state_block(kind, d, amplitudes), names)
    for name in names:
        assert chunked[name].tobytes() == one_row[name].tobytes(), name
    states = [(nonlinear_qcs if kind == "nonlinear" else linear_qcs)(d, a) for a in amplitudes]
    assert [measures.log_negativity_exact(measures.beamsplit(s)) for s in states] == list(
        chunked["negativity_exact"]
    )
    assert [measures.concurrence_exact(measures.beamsplit(s)) for s in states] == list(
        chunked["concurrence_exact"]
    )


def test_row_dots_reduce_each_row_as_np_dot_does():
    rng = np.random.default_rng(3)
    for d in (2, 5, 17, 60):
        x = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
        y = rng.standard_normal((40, d))
        levels = np.arange(d)
        assert row_dots(y, y).tolist() == [np.dot(r, r) for r in y]
        assert row_dots(y, levels.astype(float)).tolist() == [np.dot(levels, r) for r in y]
        assert row_dots(x.real, x.real).tolist() == [r.real.dot(r.real) for r in x]
        assert row_dots(x.conj(), x).tolist() == [np.vdot(r, r) for r in x]


def test_libm_pow_is_python_float_power():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 60.0, 2000)])
    for k in (0, 1, 2, 3, 4, 7):
        assert libm_pow(x, k).tolist() == [v**k for v in x.tolist()]
    assert libm_pow(np.array([[10.0, 0.5]]), 400).tolist() == [[math.inf, 0.5**400]]


def _linear_per_state(d, beta):
    # The truncated Poisson expansion one amplitude at a time: the arithmetic
    # the block build must reproduce.
    beta = complex(beta)
    levels = np.arange(d)
    if beta == 0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps).amps
    log_mag = levels * math.log(abs(beta)) - 0.5 * gammaln(levels + 1.0)
    log_mag -= log_mag.max()
    mag = np.exp(log_mag)
    mag /= np.linalg.norm(mag)
    phase = math.atan2(beta.imag, beta.real)
    return FockVector(mag * np.exp(1j * levels * phase)).amps


@pytest.mark.parametrize("d", [2, 3, 7, 20, 60, 90])
def test_linear_block_matches_the_per_state_expansion_bit_for_bit(d):
    amplitudes = [0.0, 0.3, 1.0, 2.5 * np.exp(0.4j), -4.0, 9.0, 30.0]
    block = state_block(StateKind.LINEAR, d, amplitudes)
    for amp, row in zip(amplitudes, block.amps):
        want = _linear_per_state(d, amp)
        assert row.tobytes() == want.tobytes(), amp
        assert linear_qcs(d, amp).amps.tobytes() == want.tobytes(), amp


def _rel(x, y):
    # Criterion 1's error measure: relative, with a unit floor.
    return abs(x - y) / max(abs(y), 1.0)


def _dense_columns(state, hoa_orders, hosps_orders, klyshko_levels):
    f = [1.0] + [
        float(normal_ordered_expectation(state, k, k).real) for k in range(1, 9)
    ]
    mean = f[1]
    out = {f"hoa_{l}": f[l + 1] - mean ** (l + 1) for l in hoa_orders}
    for l in hosps_orders:
        out[f"hosps_{l}"] = sum(
            math.comb(l, r) * (-1.0) ** r * mean ** (l - r) * _s2(r, k) * (f[k] - mean**k)
            for r in range(l + 1)
            for k in range(1, r + 1)
        )
    p = np.abs(state.amps) ** 2
    at = [float(p[i]) if i < state.dim else 0.0 for i in range(state.dim + 2)]
    for n in klyshko_levels:
        out[f"klyshko_{n}"] = (n + 2) * at[n] * at[n + 2] - (n + 1) * at[n + 1] ** 2
    return f[1:5], out


@pytest.mark.parametrize("kind,stop", [("nonlinear", "Td/2"), ("linear", 6.0)])
@pytest.mark.parametrize("d", [20, 40, 60])
def test_sweep_columns_match_the_dense_oracle_up_to_d60(kind, stop, d):
    tol = 1e-8
    hoa_orders, hosps_orders, klyshko_levels = (1, 2, 3), (2, 3, 4), (0, 1, d - 3, d - 2)
    quantities = (
        *(("hoa", l) for l in hoa_orders),
        *(("hosps", l) for l in hosps_orders),
        *(("klyshko", n) for n in klyshko_levels),
        ("a3", None),
    )
    spec = SweepSpec(StateKind(kind), (d,), 0.25, stop, 7, quantities)
    rows = run_sweep(spec)
    block = state_block(kind, d, [row.amplitude for row in rows])
    number = ladder_matrix(d).conj().T @ ladder_matrix(d)
    for i, row in enumerate(rows):
        state = (nonlinear_qcs if kind == "nonlinear" else linear_qcs)(d, row.amplitude)
        m, dense = _dense_columns(state, hoa_orders, hosps_orders, klyshko_levels)
        for col, want in dense.items():
            assert _rel(row.values[col], want) < tol, (col, row.amplitude)
        # The moments behind a3: the block's factorial moments against the
        # dense <a+^n a^n>, and the ratio where its denominator is regular.
        for n in range(1, 5):
            assert _rel(float(block.factorial_moment(n)[i]), m[n - 1]) < tol, (n, row.amplitude)
        mu = [
            float(np.vdot(state.amps, np.linalg.matrix_power(number, n) @ state.amps).real)
            for n in range(1, 5)
        ]
        for n in range(1, 5):
            assert _rel(float(block.number_moment(n)[i]), mu[n - 1]) < tol, (n, row.amplitude)
        det_m, det_mu = (
            float(np.linalg.det([[1.0, x[0], x[1]], [x[0], x[1], x[2]], [x[1], x[2], x[3]]]))
            for x in (m, mu)
        )
        if abs(det_mu - det_m) >= 1e-6:
            assert _rel(row.values["a3"], det_m / (det_mu - det_m)) < tol, row.amplitude
