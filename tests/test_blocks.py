"""Block evaluation: each quantity computed on an (S, d) block of states at once.

A row's value must not depend on the block it sits in, every quantity
function must give one state (a block of one) the bits of its row in a
block, and the sweep's columns must agree with the dense oracle at large d.
"""

import math
from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from quditnc import (
    SweepSpec, agarwal_tara, anticlassicality, build_state, concurrence_closed_form,
    concurrence_exact, hoa, hos_witness, hosps, klyshko, log_negativity_exact,
    negativity_potential_closed_form, period, run_sweep,
)
from quditnc import measures
from quditnc.fock import FockVector, StateBlock, normalized_rows, row_dots
from quditnc.oracle import ladder_matrix, normal_ordered_expectation
from quditnc.states import block_rows, state_block
from quditnc.sweep import QUANTITIES, SINGULAR_SENTINEL, column_name
from sweep_rows import sweep_rows
from truth import stirling2

ALL_QUANTITIES = (
    ("hoa", 1),
    ("hoa", 3),
    ("hos", 2),
    ("hos", 6),
    ("hosps", 2),
    ("hosps", 4),
    ("hosps", 12),
    ("hosps", 40),
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


def _cells(block, ident, order):
    # A column as the sweep serializes it: floats, and the sentinel where masked.
    values, singular = QUANTITIES[ident].fn(block, order)
    singular = np.broadcast_to(singular, len(block)).tolist()
    return [SINGULAR_SENTINEL if s else v for v, s in zip(values.tolist(), singular)]


def _columns(kind, d, amplitudes):
    block = state_block(kind, d, amplitudes)
    return {
        column_name(ident, order): _bits(_cells(block, ident, order))
        for ident, order in ALL_QUANTITIES
    }


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 12, 100])
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


@pytest.mark.parametrize("d", [5, 7, 12, 20, 60])
def test_a_fortran_ordered_block_gives_the_c_ordered_bits(d):
    # row_dots would run its BLAS dot on strided rows: StateBlock makes them contiguous.
    amplitudes = list(np.linspace(0.0, period(d), 23)) + [1.3 * np.exp(0.8j), -0.6]
    for kind in ("nonlinear", "linear"):
        c_block = state_block(kind, d, amplitudes)
        f_block = StateBlock(np.asfortranarray(c_block.rows))
        assert f_block.mean.tobytes() == c_block.mean.tobytes()
        assert f_block.number_moment(3).tobytes() == c_block.number_moment(3).tobytes()
        for ident, order in ALL_QUANTITIES:
            assert _bits(_cells(f_block, ident, order)) == _bits(_cells(c_block, ident, order))


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
                total += shell * stirling2(r, k) * excess[k - 1]
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

    table = measures._split_table(d)
    padded = np.zeros(2 * d - 1, amps.dtype)
    padded[:d] = amps * table.scale
    two = sliding_window_view(padded, d) * table.sqrt_binomial
    rho = two @ two.conj().T
    # A real two-mode matrix is symmetric: its singular values are |eigenvalues|.
    if two.imag.any():
        sigma = np.linalg.svd(two, compute_uv=False)
    else:
        sigma = np.abs(np.linalg.eigvalsh(two.real))
    neg_closed, conc_closed = closed_forms()
    cells = {
        "hoa_1": factorial(2) - mean**2,
        "hoa_3": factorial(4) - mean**4,
        "hos_2": hm(2),
        "hos_6": hm(6),
        "hosps_2": hosps(2),
        "hosps_4": hosps(4),
        "hosps_12": hosps(12),
        "hosps_40": hosps(40),
        "a3": a3(),
        "klyshko_0": 2 * at(0) * at(2) - 1 * at(1) ** 2,
        "klyshko_3": 5 * at(3) * at(5) - 4 * at(4) ** 2,
        "negativity_closed_form": neg_closed,
        "negativity_exact": 2.0 * math.log2(float(sigma.sum())),
        "concurrence_closed_form": conc_closed,
        "concurrence_exact": math.sqrt(max(2.0 * (1.0 - float(np.sum(np.abs(rho) ** 2))), 0.0)),
        "anticlassicality": float(p.max()),
        "anticlassicality_excl_vacuum": float(p[1:].max()),
    }
    return {col: _bits([value])[0] for col, value in cells.items()}


def _assert_block_reproduces_per_state(states):
    block = StateBlock(np.array([state.amps for state in states]))
    cells = {
        column_name(ident, order): _bits(_cells(block, ident, order))
        for ident, order in ALL_QUANTITIES
    }
    for i, state in enumerate(states):
        for col, want in _per_state_cells(state).items():
            assert cells[col][i] == want, (col, i)


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [2, 5, 12, 60])
def test_block_kernels_reproduce_the_per_state_arithmetic(kind, d):
    amplitudes = list(np.linspace(0.0, period(d), 9)) + [1.3 * np.exp(0.8j)]
    _assert_block_reproduces_per_state([build_state(kind, d, amp) for amp in amplitudes])


def test_block_kernels_reproduce_the_per_state_arithmetic_on_random_states():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((400, 7)) + 1j * rng.standard_normal((400, 7))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    _assert_block_reproduces_per_state([FockVector(row) for row in raw])


def _per_state_value(call, state):
    # Row 0 of each array the call returns (a3's value and mask, anticlassicality's value
    # and level), as a repr: a float's repr gives back its bits.
    out = call(state)
    return repr([a[0].tolist() for a in out] if isinstance(out, tuple) else out[0].tolist())


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("d", [5, 60])
def test_per_state_calls_on_one_state_give_the_bits_of_fresh_states(kind, d):
    # A state keeps its probabilities and moments: whatever was asked of it first, each
    # function returns on it the bits it returns on a fresh state.
    calls = [partial(hoa, l=l) for l in (1, 2, 3)] + [partial(hos_witness, n=n) for n in (2, 4)]
    calls += [partial(hosps, l=l) for l in (2, 3, 4)] + [agarwal_tara]
    calls += [partial(klyshko, n=n) for n in range(d - 2)]
    calls += [negativity_potential_closed_form, log_negativity_exact, concurrence_closed_form,
              concurrence_exact, partial(anticlassicality, exclude_vacuum=False),
              partial(anticlassicality, exclude_vacuum=True)]
    for amp in (1.0, 1.3 * np.exp(0.8j)):
        fresh = [_per_state_value(call, build_state(kind, d, amp)) for call in calls]
        state = build_state(kind, d, amp)
        assert [_per_state_value(call, state) for call in calls] == fresh, amp
        state = build_state(kind, d, amp)
        assert [_per_state_value(call, state) for call in reversed(calls)] == fresh[::-1], amp


def test_klyshko_block_reproduces_the_per_state_formula_at_every_level():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((2000, 8)) + 1j * rng.standard_normal((2000, 8))
    block = StateBlock(normalized_rows(raw / np.linalg.norm(raw, axis=1)[:, None]))
    got = np.column_stack([klyshko(block, n) for n in range(10)]).tolist()
    for row, p in zip(got, (np.abs(block.rows) ** 2).tolist()):
        at = p + [0.0, 0.0, 0.0, 0.0]
        assert row == [(n + 2) * at[n] * at[n + 2] - (n + 1) * at[n + 1] ** 2 for n in range(10)]


EXACT_MEASURES = {"negativity_exact": log_negativity_exact, "concurrence_exact": concurrence_exact}


def _exact_measures(block):
    return {name: measure(block) for name, measure in EXACT_MEASURES.items()}


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
def test_exact_measures_are_exact_across_two_mode_chunks(kind, monkeypatch):
    d = 60
    amplitudes = np.linspace(0.2, 7.0, 7)
    assert block_rows(d * d) not in (0, 1, len(amplitudes))
    chunked = _exact_measures(state_block(kind, d, amplitudes))
    monkeypatch.setattr("quditnc.states.BLOCK_ENTRIES", 1)  # one two-mode matrix per chunk
    one_row = _exact_measures(state_block(kind, d, amplitudes))
    for name in EXACT_MEASURES:
        assert chunked[name].tobytes() == one_row[name].tobytes(), name
    states = [build_state(kind, d, a) for a in amplitudes]
    negativity = [measures.log_negativity_exact(s)[0] for s in states]
    concurrence = [measures.concurrence_exact(s)[0] for s in states]
    assert negativity == list(chunked["negativity_exact"])
    assert concurrence == list(chunked["concurrence_exact"])


def test_a_block_mixing_real_and_complex_rows_gives_each_row_its_alone_value(monkeypatch):
    # Real and complex rows take different routes; interleaved in one block,
    # and with chunks that cut across both groups, each row keeps its value.
    d = 12
    states = [
        build_state(kind, d, amp)
        for amp in (0.0, 0.5, 1.1 * np.exp(0.3j), 2.0, -0.7j, 3.5, 4.4 * np.exp(2.0j))
        for kind in ("linear", "nonlinear")
    ]
    block = StateBlock(np.array([state.amps for state in states]))
    assert 0 < block.rows.imag.any(axis=1).sum() < len(states)
    monkeypatch.setattr("quditnc.states.BLOCK_ENTRIES", 3 * d * d)  # three matrices per chunk
    mixed = _exact_measures(block)
    for i, state in enumerate(states):
        alone = _exact_measures(state)
        for name in EXACT_MEASURES:
            assert mixed[name][i].tobytes() == alone[name].tobytes(), (name, i)


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
    # The kernels take powers with np.float_power, which runs the C pow that
    # Python floats use; np.power differs from it in the last bit.
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 60.0, 2000)])
    for k in (0, 1, 2, 3, 4, 7):
        assert np.float_power(x, k).tolist() == [v**k for v in x.tolist()]
    with np.errstate(over="ignore"):
        overflow = np.float_power(np.array([[10.0, 0.5]]), 400)
    assert overflow.tolist() == [[math.inf, 0.5**400]]


def _linear_per_state(d, beta):
    # The truncated Poisson expansion one amplitude at a time: the arithmetic
    # the block build must reproduce.  It is built at r = |beta|, the vacuum at
    # r = 0, and normalized; then a complex beta multiplies level n by
    # e^{i n phi}, and a real beta < 0 negates the real parts of the odd levels.
    beta = complex(beta)
    levels = np.arange(d)
    mag = np.eye(d)[0]
    if beta != 0:
        log_mag = levels * math.log(abs(beta)) - 0.5 * gammaln(levels + 1.0)
        log_mag -= log_mag.max()
        mag = np.exp(log_mag)
        mag /= np.linalg.norm(mag)
    amps = FockVector(mag).amps.copy()
    if beta.imag != 0:
        amps *= np.exp(1j * levels * math.atan2(beta.imag, beta.real))
    elif beta.real < 0:
        amps.real[1::2] *= -1
    return amps


@pytest.mark.parametrize("d", [2, 3, 7, 20, 60, 90])
def test_linear_block_matches_the_per_state_expansion_bit_for_bit(d):
    amplitudes = [0.0, 0.3, 1.0, 2.5 * np.exp(0.4j), -4.0, 9.0, 30.0]
    block = state_block("linear", d, amplitudes)
    for amp, row in zip(amplitudes, block.rows):
        want = _linear_per_state(d, amp)
        assert row.tobytes() == want.tobytes(), amp
        assert build_state("linear", d, amp).amps.tobytes() == want.tobytes(), amp


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
            math.comb(l, r) * (-1.0) ** r * mean ** (l - r) * stirling2(r, k) * (f[k] - mean**k)
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
    spec = SweepSpec(kind, (d,), 0.25, stop, 7, quantities)
    rows = list(sweep_rows(run_sweep(spec)))
    block = state_block(kind, d, [amp for _, amp, _ in rows])
    number = ladder_matrix(d).conj().T @ ladder_matrix(d)
    for i, (_, amp, values) in enumerate(rows):
        state = build_state(kind, d, amp)
        m, dense = _dense_columns(state, hoa_orders, hosps_orders, klyshko_levels)
        for col, want in dense.items():
            assert _rel(values[col], want) < tol, (col, amp)
        # The moments behind a3: the block's factorial moments against the
        # dense <a+^n a^n>, and the ratio where its denominator is regular.
        for n in range(1, 5):
            assert _rel(float(block.factorial_moment(n)[i]), m[n - 1]) < tol, (n, amp)
        mu = [
            float(np.vdot(state.amps, np.linalg.matrix_power(number, n) @ state.amps).real)
            for n in range(1, 5)
        ]
        for n in range(1, 5):
            assert _rel(float(block.number_moment(n)[i]), mu[n - 1]) < tol, (n, amp)
        det_m, det_mu = (
            float(np.linalg.det([[1.0, x[0], x[1]], [x[0], x[1], x[2]], [x[1], x[2], x[3]]]))
            for x in (m, mu)
        )
        if abs(det_mu - det_m) >= 1e-6:
            assert _rel(values["a3"], det_m / (det_mu - det_m)) < tol, amp
