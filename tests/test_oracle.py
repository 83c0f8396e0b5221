"""Dense-matrix reference routines."""

import math

import numpy as np
import pytest

from quditnc import (
    FockVector,
    build_state,
    fock_state,
    hm_quadrature_moment,
)
from quditnc.oracle import (
    central_quadrature_moment,
    displacement_exponential,
    ladder_matrix,
    normal_ordered_expectation,
)


def test_ladder_matrix_entries():
    a = ladder_matrix(4)
    assert a.shape == (4, 4)
    assert a.dtype == complex
    expected = np.zeros((4, 4))
    for n in range(1, 4):
        expected[n - 1, n] = math.sqrt(n)
    assert np.array_equal(a.real, expected)
    with pytest.raises(ValueError):
        ladder_matrix(0)
    with pytest.raises(ValueError):
        displacement_exponential(0, 1.0)


def test_truncated_commutator_shape():
    d = 5
    a = ladder_matrix(d)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(d)
    expected[d - 1, d - 1] = -(d - 1)
    assert np.allclose(comm, expected, atol=1e-14)


def test_displacement_column_is_normalized():
    for d in (2, 3, 5, 10):
        for alpha in (0.3, 1.7, 2.4 + 0.6j):
            v = displacement_exponential(d, alpha)
            assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)


def test_displacement_two_level_closed_form():
    for alpha in (0.2, 1.3, 2.9):
        v = displacement_exponential(2, alpha)
        assert v.amps[0] == pytest.approx(math.cos(alpha), abs=1e-12)
        assert v.amps[1] == pytest.approx(math.sin(alpha), abs=1e-12)


def test_normal_ordered_number_moments():
    s = fock_state(3)
    assert normal_ordered_expectation(s, 1, 1).real == pytest.approx(3.0, abs=1e-12)
    assert normal_ordered_expectation(s, 2, 2).real == pytest.approx(6.0, abs=1e-12)
    assert normal_ordered_expectation(s, 4, 4).real == pytest.approx(0.0, abs=1e-12)


def test_normal_ordered_off_diagonal_matches_index_sum():
    s = build_state("linear", 3, 1.0)
    c = s.amps
    p, q = 1, 2
    direct = sum(
        np.conj(c[j + p])
        * c[j + q]
        * math.sqrt(math.factorial(j + p) * math.factorial(j + q))
        / math.factorial(j)
        for j in range(s.dim - max(p, q))
    )
    assert normal_ordered_expectation(s, p, q) == pytest.approx(direct, abs=1e-12)


def test_normal_ordered_first_moment_is_mean():
    s = build_state("linear", 6, 1.4)
    assert normal_ordered_expectation(s, 1, 1).real == pytest.approx(
        s.mean[0], abs=1e-12
    )


def test_normal_ordered_order_bounds():
    s = fock_state(1)
    with pytest.raises(ValueError):
        normal_ordered_expectation(s, 9, 0)
    with pytest.raises(ValueError):
        normal_ordered_expectation(s, 0, -1)


def test_embedding_padding_does_not_change_values():
    s = build_state("linear", 4, 1.1)
    padded = FockVector(np.concatenate([s.amps, np.zeros(4, dtype=complex)]))
    for p, q in ((1, 1), (2, 2), (1, 2), (3, 0)):
        assert normal_ordered_expectation(s, p, q) == pytest.approx(
            normal_ordered_expectation(padded, p, q), abs=1e-12
        )
    for n in (2, 4):
        assert central_quadrature_moment(s, n) == pytest.approx(
            central_quadrature_moment(padded, n), abs=1e-12
        )


def test_vacuum_central_quadrature_moments():
    vac = fock_state(0)
    assert central_quadrature_moment(vac, 2) == pytest.approx(0.5, abs=1e-12)
    assert central_quadrature_moment(vac, 4) == pytest.approx(0.75, abs=1e-12)
    assert central_quadrature_moment(vac, 6) == pytest.approx(1.875, abs=1e-12)


def test_single_photon_second_central_moment():
    assert central_quadrature_moment(fock_state(1), 2) == pytest.approx(1.5, abs=1e-12)


def test_the_oracle_state_is_what_the_benchmark_gate_reads():
    # The gate reads the oracle state's amps as a vector and passes the state back.
    state = displacement_exponential(5, 1.0)
    assert state.amps.ndim == 1 and state.amps.shape == (5,)
    p = np.abs(state.amps) ** 2
    assert float(np.dot(np.arange(5), p)) == pytest.approx(state.mean[0], abs=1e-12)
    assert central_quadrature_moment(state, 2) == pytest.approx(
        hm_quadrature_moment(state, 2)[0], abs=1e-12
    )


def test_central_quadrature_moment_order_domain():
    vac = fock_state(0)
    for bad in (1, 3, 0, 10):
        with pytest.raises(ValueError):
            central_quadrature_moment(vac, bad)
