"""The accuracy frontier: cells known to be wrong today, each asserting its truth.

Each test is a strict xfail naming the ROADMAP item that fixes its cell.  The change
that fixes a cell removes its mark (an unexpected pass fails), and a fixed cell that
regresses fails again.  Every truth is a recorded constant: no test reruns the
high-precision computation that gave it.
"""

import json
import math

import pytest

from quditnc import NumericalError, build_state, concurrence_exact, hosps
from quditnc.cli import main


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17")
def test_the_exact_concurrence_of_a_nearly_coherent_linear_state():
    # 80-digit mpmath: sqrt(2 (1 - Tr((A A^T)^2))), A[j, i] = c_{j+i} 2^{-(j+i)/2}
    # sqrt(C(j+i, j)) for j + i < d, with c the normalized r^n / sqrt(n!) at r = 1.085.
    # The purity rounds to 1 in double, so it reads 0.0 today.
    truth = 3.74443881959e-9
    value = float(concurrence_exact(build_state("linear", 20, 1.085))[0])
    assert value == pytest.approx(truth, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_hosps_4_at_sixty_linear_levels():
    # 60-digit mpmath of the direct central-moment form mu_4 - lam - 3 lam^2 (lam the mean,
    # mu_4 the fourth central moment) on the normalized r^n / sqrt(n!), which agrees with
    # the Stirling resummation to every printed digit.  The amplitude is the wide_d row at
    # seed 2.  It reads -0.002559851978175716 today.
    truth = -0.00255985323750336
    value = float(hosps(build_state("linear", 60, 4.978291457286432), 4)[0])
    assert abs(value - truth) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_a_hosps_600_sweep_gives_finite_cells(capsys):
    # Today a shell coefficient leaves the double range and the sweep exits 3.
    args = ["sweep", "--kind", "linear", "--d", "10", "--range", "0.5:3", "--steps", "11",
            "--quantities", "hosps:600"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert all(math.isfinite(float(line.split(",")[-1])) for line in lines[1:])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 6 and 11")
def test_a_linear_report_at_1031_levels_runs(capsys):
    # Today the splitter's sqrt(C(n, j)) leaves the double range and the report exits 3.
    assert main(["report", "--kind", "linear", "--d", "1031", "--amplitude", "1"]) == 0
    measures = json.loads(capsys.readouterr().out)["measures"]
    assert all(math.isfinite(value) for value in measures.values())


@pytest.mark.xfail(strict=True, raises=NumericalError, reason="ROADMAP item 5")
def test_a_nonlinear_state_at_a_huge_amplitude_builds():
    # The exact state is unit-norm at any amplitude; today the build's norm reads 0.99989
    # and it raises NumericalError.
    state = build_state("nonlinear", 60, 1e14)
    assert abs(float((abs(state.amps) ** 2).sum()) - 1.0) < 1e-12
