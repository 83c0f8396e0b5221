"""The FockVector state container and its photon-number moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditnc import (
    FockVector,
    NumericalError,
    build_state,
    fock_state,
    hoa,
)
from quditnc import fock
from quditnc.fock import StateBlock, level_sum
from quditnc.states import KINDS, state_block


def test_fockvector_accepts_tiny_norm_drift():
    amps = np.array([1.0, 0.0], dtype=complex) * (1.0 + 1e-9)
    v = FockVector(amps)
    assert abs(np.linalg.norm(v.amps) - 1.0) < 1e-12


def test_fockvector_rejects_bad_norm():
    with pytest.raises(ValueError):
        FockVector([1.0, 1.0])
    with pytest.raises(ValueError):
        FockVector([0.5])


def test_a_user_vector_off_its_norm_is_a_value_error_not_a_numerical_failure():
    with pytest.raises(ValueError, match=r"^amplitude norm 1\.414\d* deviates from 1 by") as info:
        FockVector([1.0, 1.0])
    assert not isinstance(info.value, NumericalError)


def test_fockvector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FockVector(np.ones((2, 2)) / 2.0)
    with pytest.raises(ValueError):
        FockVector([])
    with pytest.raises(ValueError):
        FockVector([np.nan, 0.0])


def test_fockvector_amps_are_read_only():
    v = fock_state(1)
    with pytest.raises(ValueError):
        v.amps[0] = 1.0


def test_normalizing_in_place_never_writes_the_callers_array():
    # A drift within NORM_TOL is divided out, so a division in the caller's array would show;
    # a vector of norm 2 is refused before any division.
    drifted = np.array([0.6, 0.8j, 0.0]) * (1.0 + 1e-9)
    before = drifted.tobytes()
    state = FockVector(drifted)
    assert drifted.tobytes() == before and drifted.flags.writeable
    assert not np.shares_memory(state.rows, drifted)
    off = np.array([1.2, 1.6j, 0.0])
    before = off.tobytes()
    with pytest.raises(ValueError):
        FockVector(off)
    assert off.tobytes() == before
    for kind in KINDS:
        for arr in (np.array([0.0, 0.7, -1.3]), np.array([0.0, 0.7 - 0.2j, -1.3, 2j])):
            before = arr.tobytes()
            block = state_block(kind, 6, arr)
            assert arr.tobytes() == before
            assert not block.rows.flags.writeable
            with pytest.raises(ValueError):
                block.rows[0, 0] = 0.0


def test_an_overflowing_vector_is_a_value_error_not_a_warning():
    # Its squared norm overflows to inf: that is the NormError, with no RuntimeWarning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^amplitude norm inf deviates"):
            FockVector([1e200, 1e200])


@pytest.mark.parametrize("state", [
    FockVector([0.6, 0.8j]), fock_state(2, 5), build_state("linear", 5, 1.0),
    build_state("nonlinear", 5, 1.0),
    build_state("nonlinear", 60, 1.3 - 0.4j),
], ids=["user", "number", "linear", "nonlinear", "nonlinear-complex-60"])
def test_a_fockvector_is_a_state_block_of_one_row(state):
    assert isinstance(state, StateBlock)
    assert repr(state) == f"FockVector(dim={state.dim})"
    assert len(state) == 1 and state.rows.shape == (1, state.dim)
    assert state.amps.ndim == 1 and not state.amps.flags.writeable
    assert state.amps.tobytes() == state.rows[0].tobytes()
    assert np.shares_memory(state.amps, state.rows)


def test_kept_probabilities_are_read_only():
    state = build_state("nonlinear", 5, 1.0)
    before = hoa(state, 1)[0]
    p = state.probabilities[0]
    with pytest.raises(ValueError):
        p[0] = 1.0
    assert np.shares_memory(state.probabilities[0], p)  # kept, not computed again
    assert hoa(state, 1)[0] == before


@given(
    st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_fockvector_normalized_inputs_round_trip(raw):
    arr = np.asarray(raw, dtype=complex)
    norm = np.linalg.norm(arr)
    if norm < 1e-6:
        arr[0] += 1.0
        norm = np.linalg.norm(arr)
    v = FockVector(arr / norm)
    p = v.probabilities[0]
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= v.mean[0] <= v.dim - 1 + 1e-12


def test_fock_state_is_one_hot():
    v = fock_state(2)
    assert v.dim == 3
    assert v.probabilities[0].tolist() == [0.0, 0.0, 1.0]
    w = fock_state(1, dim=5)
    assert w.dim == 5
    assert w.probabilities[0][1] == 1.0


def test_fock_state_domain():
    with pytest.raises(ValueError):
        fock_state(-1)
    with pytest.raises(ValueError):
        fock_state(3, dim=3)


def test_linear_d3_unit_amplitude_probabilities():
    # Coefficients proportional to (1, 1, 1/sqrt 2), so p = (0.4, 0.4, 0.2).
    s = build_state("linear", 3, 1.0)
    p = s.probabilities[0]
    assert p == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)
    assert s.mean[0] == pytest.approx(0.8, abs=1e-12)
    assert s.number_moment(2)[0] == pytest.approx(1.2, abs=1e-12)


def test_number_state_moment_table():
    state = fock_state(2)
    m = tuple(state.factorial_moment(n)[0] for n in range(1, 5))
    mu = tuple(state.number_moment(n)[0] for n in range(1, 5))
    assert m == pytest.approx((2.0, 2.0, 0.0, 0.0), abs=1e-12)
    assert mu == pytest.approx((2.0, 4.0, 8.0, 16.0), abs=1e-12)


def test_number_moment_matches_probability_sum():
    s = build_state("linear", 6, 1.7)
    p = s.probabilities[0]
    levels = np.arange(s.dim)
    for n in range(1, 5):
        direct = float(np.dot(levels**n, p))
        assert s.number_moment(n)[0] == pytest.approx(direct, abs=1e-12)


def test_number_moment_refuses_an_order_that_is_not_an_integer():
    # A float order reached j**1.5: s.number_moment(1.5) returned <N^1.5>, and an order
    # of -1 warned "divide by zero" on level 0.  Each state is fresh: nothing is kept yet,
    # but for `kept`: 2.0 == 2 and hash(2.0) == hash(2), so a lookup keyed by the order
    # would hand back its order-2 value, or the cached order-2 weights to a fresh state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for moment in ("number_moment", "factorial_moment"):
            kept = build_state("linear", 6, 1.7)
            getattr(kept, moment)(2)
            for bad in (1.5, 2.0):
                for state in (kept, build_state("linear", 6, 1.7)):
                    with pytest.raises(TypeError):
                        getattr(state, moment)(bad)
            with pytest.raises(ValueError):
                getattr(build_state("linear", 6, 1.7), moment)(-1)
        want = build_state("linear", 6, 1.7).number_moment(2)
        assert build_state("linear", 6, 1.7).number_moment(np.int64(2)).tobytes() == want.tobytes()


@pytest.mark.parametrize("d,k", [(1, 0), (6, 2), (6, 9), (200, 5), (200, 120)])
def test_falling_factorial_weights_are_kept_read_only_and_exact(d, k):
    table = fock._falling_factorials(d)(k)
    assert table.tobytes() == np.array([float(math.perm(j, k)) for j in range(d)]).tobytes()
    assert not table.flags.writeable
    assert fock._falling_factorials(d)(k) is table


def test_moment_order_bounds():
    # Every order from 0 up is a moment: <N^0> sums the probabilities, and |1> has
    # no factorial moment past its first.
    s = fock_state(1)
    assert s.number_moment(0)[0] == 1.0 and s.factorial_moment(0)[0] == 1.0
    assert s.number_moment(5)[0] == 1.0 and s.factorial_moment(5)[0] == 0.0


def test_normal_moment_first_order_is_mean():
    s = build_state("linear", 4, 0.9)
    assert s.factorial_moment(1)[0] == pytest.approx(s.mean[0], abs=1e-14)


@pytest.mark.parametrize(
    "d, rows",
    [(1, 50), (2, 50), (5, 50), (60, 50), (1000, 50), (12, 5000)],
    ids=["1", "2", "5", "60", "1000", "12-tall"],  # a tall block: many rows, few levels
)
def test_level_sum_adds_left_to_right_as_a_loop_does(d, rows):
    rng = np.random.default_rng(d)
    x = rng.random((rows, d)) * rng.choice([1e-8, 1.0, 1e8], size=(rows, d))
    for k in range(min(d, 4) + 1):  # weights 0.0 below k, as the factorial moments have
        weights = [float(math.perm(j, k)) for j in range(d)]
        want = np.zeros(len(x))
        for n in range(d):
            want = want + x[:, n] * weights[n]
        assert level_sum(x, weights).tobytes() == want.tobytes(), k
