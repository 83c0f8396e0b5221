"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are part of the contract and are pinned inline; relative
error uses a unit floor, |x - y| <= tol * max(1, |y|), so tiny reference
values do not inflate the ratio.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from quditnc import (
    FockVector,
    SweepSpec,
    agarwal_tara,
    anticlassicality,
    build_state,
    concurrence_closed_form,
    concurrence_exact,
    fock_state,
    hm_quadrature_moment,
    hoa,
    hosps,
    hos_witness,
    klyshko,
    log_negativity_exact,
    negativity_potential_closed_form,
    period,
    run_sweep,
    table1_search,
)
from quditnc.cli import main as cli_main
from quditnc.oracle import (
    central_quadrature_moment,
    displacement_exponential,
    ladder_matrix,
    normal_ordered_expectation,
)
from quditnc.sweep import write_rows_csv
from truth import poisson_central_moments


@contextmanager
def _criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {name}", flush=True)
        raise
    print(f"[criterion {number}] PASS {name}", flush=True)


def _rel(x, y):
    return abs(x - y) / max(abs(y), 1.0)


def _a3(state):
    # One state's a3, where its moment-matrix ratio must be defined (not masked).
    (value,), (singular,) = agarwal_tara(state)
    assert not singular
    return value


def _grid_states(d):
    for amp in np.linspace(0.0, 2.0 * period(d), 20):
        for kind in ("nonlinear", "linear"):
            yield build_state(kind, d, amp)


def _dense_number_central_moment(state, order):
    a = ladder_matrix(state.dim)
    num = a.conj().T @ a
    lam = float(np.vdot(state.amps, num @ state.amps).real)
    centered = num - lam * np.eye(state.dim)
    powered = np.linalg.matrix_power(centered, order)
    return float(np.vdot(state.amps, powered @ state.amps).real), lam


def _oracle_hosps(state, l):
    # The Stirling resummation of factorial-moment excesses telescopes to a
    # parity-signed gap between the number operator's central moments and
    # those of a Poisson distribution with the same mean; the dense route
    # evaluates that gap directly.
    central, lam = _dense_number_central_moment(state, l)
    poisson = poisson_central_moments(lam, max(l + 1, 2))
    return (-1.0) ** l * (central - poisson[l])


def _oracle_moment_tables(state):
    a = ladder_matrix(state.dim)
    num = a.conj().T @ a
    m = tuple(
        float(normal_ordered_expectation(state, n, n).real) for n in range(1, 5)
    )
    mu = tuple(
        float(np.vdot(state.amps, np.linalg.matrix_power(num, n) @ state.amps).real)
        for n in range(1, 5)
    )
    return m, mu


def _hankel_dets(m, mu):
    def det3(x):
        mat = np.array(
            [[1.0, x[0], x[1]], [x[0], x[1], x[2]], [x[1], x[2], x[3]]]
        )
        return float(np.linalg.det(mat))

    return det3(m), det3(mu)


def test_criterion_1_oracle_equivalence():
    with _criterion(1, "witness closed forms match the dense oracle"):
        started = time.perf_counter()
        tol = 1e-8
        for d in range(2, 9):
            for state in _grid_states(d):
                for l in range(1, 5):
                    dense = float(
                        normal_ordered_expectation(state, l + 1, l + 1).real
                    ) - state.mean[0] ** (l + 1)
                    assert _rel(hoa(state, l)[0], dense) < tol
                for n in (2, 4, 6):
                    assert (
                        _rel(
                            hm_quadrature_moment(state, n)[0],
                            central_quadrature_moment(state, n),
                        )
                        < tol
                    )
                for l in range(1, 5):
                    assert _rel(hosps(state, l)[0], _oracle_hosps(state, l)) < tol
                m, mu = _oracle_moment_tables(state)
                ours_m = tuple(state.factorial_moment(n)[0] for n in range(1, 5))
                ours_mu = tuple(state.number_moment(n)[0] for n in range(1, 5))
                for ours, dense in zip(ours_m + ours_mu, m + mu):
                    assert _rel(ours, dense) < tol
                det_m, det_mu = _hankel_dets(m, mu)
                denominator = det_mu - det_m
                if abs(denominator) >= 1e-6:
                    assert _rel(_a3(state), det_m / denominator) < tol
        assert time.perf_counter() - started < 60.0


def test_criterion_2_construction_equivalence():
    with _criterion(2, "spectral construction matches the matrix exponential"):
        for d in range(2, 9):
            for amp in np.linspace(0.0, 2.0 * period(d), 20):
                ours = build_state("nonlinear", d, amp).amps
                dense = displacement_exponential(d, amp).amps
                assert np.max(np.abs(np.abs(ours) - np.abs(dense))) < 1e-8
                overlap = np.vdot(dense, ours)
                phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
                assert np.max(np.abs(ours - phase * dense)) < 1e-8
        for d in (2, 3, 5, 8):
            vac = build_state("nonlinear", d, 0.0).amps
            assert abs(vac[0] - 1.0) < 1e-10
            assert np.max(np.abs(vac[1:])) < 1e-10


def test_criterion_3_periodicity():
    with _criterion(3, "two- and three-level families are periodic"):
        for d, shift in ((2, math.pi), (3, 2.0 * math.pi / math.sqrt(3.0))):
            for amp in np.linspace(0.0, 2.0 * shift, 50):
                base = np.abs(build_state("nonlinear", d, amp).amps)
                moved = np.abs(build_state("nonlinear", d, amp + shift).amps)
                assert np.max(np.abs(base - moved)) < 1e-8


def test_criterion_4_classical_limit_zeros():
    with _criterion(4, "wide truncation drives every witness to zero"):
        for beta in (0.3, 0.5, 1.0):
            state = build_state("linear", 60, beta)
            for l in (1, 2, 3):
                assert abs(hoa(state, l)[0]) < 1e-6
            for l in (1, 2, 3, 4, 5):
                assert abs(hosps(state, l)[0]) < 1e-6
            assert abs(_a3(state)) < 1e-3
            for n in range(6):
                assert abs(klyshko(state, [n])[0, 0]) < 1e-6


def test_criterion_5_number_state_landmarks():
    with _criterion(5, "number-state landmark values"):
        assert hoa(fock_state(1), 1)[0] == pytest.approx(-1.0, abs=1e-12)
        assert _a3(fock_state(2)) == pytest.approx(-1.0, abs=1e-10)
        assert agarwal_tara(fock_state(1))[1][0]
        one = fock_state(1)
        closed = negativity_potential_closed_form(one)[0]
        exact = log_negativity_exact(one)[0]
        assert abs(closed - 1.0) < 1e-9
        assert abs(exact - 1.0) < 1e-9
        assert abs(closed - exact) < 1e-9
        assert concurrence_closed_form(one)[0] == pytest.approx(1.0, abs=1e-9)
        assert concurrence_exact(one)[0] == pytest.approx(1.0, abs=1e-9)
        for n in (0, 1, 4):
            (value,), (level,) = anticlassicality(fock_state(n, dim=n + 3), False)
            assert value == 1.0
            assert level == n


def test_criterion_6_closed_form_divergence_is_visible():
    with _criterion(6, "closed form and exact routes diverge on superpositions"):
        plus = FockVector([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
        assert negativity_potential_closed_form(plus)[0] == pytest.approx(
            1.5431, abs=1e-4
        )
        assert log_negativity_exact(plus)[0] == pytest.approx(0.58496, abs=1e-4)
        assert concurrence_closed_form(plus)[0] == pytest.approx(1.1180, abs=1e-4)
        assert concurrence_exact(plus)[0] == pytest.approx(0.5, abs=1e-4)


def test_criterion_7_target_population_search():
    with _criterion(7, "population target search over level counts"):
        report = table1_search(0.005)
        cells = {(c["kind"], c["amplitude_token"]): c for c in report["cells"]}
        assert len(cells) == 6
        # The wide-truncation cell has a Poisson limit near 0.160 and must hit.
        assert cells[("linear", "2.5")]["matched"]
        expected_flags = {
            ("nonlinear", "Td/2"): True,
            ("nonlinear", "Td/4"): True,
            ("nonlinear", "2.5"): True,
            ("linear", "Td/2"): False,
            ("linear", "Td/4"): True,
            ("linear", "2.5"): True,
        }
        for key, flag in expected_flags.items():
            assert cells[key]["matched"] is flag, key
        for cell in cells.values():
            assert len(cell["grid"]) == 11
            nearest = cell["nearest"]
            assert 2 <= nearest["d"] <= 12
            assert math.isfinite(nearest["value"])
            if not cell["matched"]:
                # A documented miss: the nearest value is reported instead.
                assert nearest["abs_error"] > 0.005


def test_criterion_8_sign_structure():
    with _criterion(8, "three-level sign structure and negativity growth"):
        grid = np.linspace(0.0, period(3), 161)
        states = [build_state("nonlinear", 3, amp) for amp in grid]
        for l in (1, 2, 3):
            assert min(hoa(s, l)[0] for s in states) < -1e-3
        for n in (2, 4):
            assert min(hos_witness(s, n)[0] for s in states) < -1e-3
        # The order-l deficit against Poisson central moments carries the
        # parity sign (-1)^l; negativity of that deficit is what marks the
        # sub-Poissonian regions at every order.
        for l in (2, 3, 4):
            deficits = [(-1.0) ** l * hosps(s, l)[0] for s in states]
            assert min(deficits) < -1e-3
        defined = 0
        for s in states:
            (value,), (singular,) = agarwal_tara(s)
            if singular:
                continue
            defined += 1
            assert -1.0 - 1e-9 <= value <= 1e-9
        assert defined >= 150
        growth = [
            negativity_potential_closed_form(build_state("nonlinear", d, 1.0))[0]
            for d in range(2, 7)
        ]
        steps = np.diff(growth)
        assert np.all(steps >= -1e-12)
        assert steps[-1] < steps[0]


def test_criterion_9_determinism_and_speed(tmp_path):
    with _criterion(9, "deterministic output and sweep runtime budget"):
        quantities = (
            ("hoa", 1),
            ("hoa", 2),
            ("hoa", 3),
            ("hos", 2),
            ("hos", 4),
            ("hosps", 2),
            ("hosps", 3),
            ("hosps", 4),
            ("a3", None),
            ("klyshko", 0),
            ("klyshko", 1),
            ("klyshko", 2),
            ("negativity_closed_form", None),
            ("negativity_exact", None),
            ("concurrence_closed_form", None),
            ("concurrence_exact", None),
            ("anticlassicality", None),
            ("anticlassicality_excl_vacuum", None),
        )
        spec = SweepSpec(
            state_kind="nonlinear",
            d_list=(5,),
            amp_start=0.0,
            amp_stop="Td/2",
            steps=400,
            quantities=quantities,
        )
        started = time.perf_counter()
        rows = run_sweep(spec)
        elapsed = time.perf_counter() - started
        assert len(rows) == 400
        assert elapsed < 5.0

        first = io.StringIO()
        second = io.StringIO()
        write_rows_csv(rows, first)
        write_rows_csv(run_sweep(spec), second)
        assert first.getvalue() == second.getvalue()

        args = [
            "sweep",
            "--kind",
            "nonlinear",
            "--d",
            "3,4",
            "--range",
            "0:Td/2",
            "--steps",
            "25",
            "--quantities",
            "hoa:1,hosps:2,a3,negativity_exact",
        ]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(path_a)]) == 0
        assert cli_main(args + ["--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()
