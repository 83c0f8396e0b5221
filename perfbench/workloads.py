"""The benchmark's workloads: one `quditnc sweep` invocation each.

A seed shifts only the numeric start of the amplitude window, to one of
START_CHOICES values in [0, 0.2); the level counts, the window's end, the
step count and the quantities stay fixed, so every seed does the same work.
Seed 0 starts the window at 0, which is the canonical spec.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Distinct window starts a seed can pick: 0.00, 0.01, ..., 0.19.
START_CHOICES = 20
START_STEP = 0.01

CRIT9_QUANTITIES = (
    "hoa:1,hoa:2,hoa:3,hos:2,hos:4,hosps:2,hosps:3,hosps:4,a3,"
    "klyshko:0,klyshko:1,klyshko:2,"
    "negativity_closed_form,negativity_exact,concurrence_closed_form,concurrence_exact,"
    "anticlassicality,anticlassicality_excl_vacuum"
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    d_list: tuple[int, ...]
    stop: str
    steps: int
    quantities: str
    output_format: str

    @property
    def rows(self) -> int:
        return len(set(self.d_list)) * self.steps

    @property
    def columns(self) -> list[str]:
        """Output column names, in the order the CLI writes them."""
        out = []
        for token in self.quantities.split(","):
            ident, _, order = token.partition(":")
            out.append(f"{ident}_{order}" if order else ident)
        return out

    def argv(self, seed: int, out_path: str | Path) -> list[str]:
        return [
            "sweep",
            "--kind", self.kind,
            "--d", ",".join(str(d) for d in self.d_list),
            "--range", f"{window_start(seed)}:{self.stop}",
            "--steps", str(self.steps),
            "--quantities", self.quantities,
            "--format", self.output_format,
            "--out", str(out_path),
        ]

    def grid(self, seed: int) -> list[tuple[int, float]]:
        """The (d, amplitude) of every output row, in output order."""
        import numpy as np

        start = float(window_start(seed))
        out = []
        for d in sorted(set(self.d_list)):
            stop = _resolve_stop(self.stop, d)
            out.extend((d, float(a)) for a in np.linspace(start, stop, self.steps))
        return out


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def start_index(seed: int) -> int:
    return seed % START_CHOICES


def window_start(seed: int) -> str:
    """The window's start as the CLI receives it, e.g. "0.07"."""
    return f"{start_index(seed) * START_STEP:.2f}"


def _period(d: int) -> float:
    # The nonlinear family's period as the paper defines it (see states.period).
    if d == 2:
        return math.pi
    if d == 3:
        return 2.0 * math.pi / math.sqrt(3.0)
    return math.sqrt(4.0 * d + 2.0)


def _resolve_stop(token: str, d: int) -> float:
    if token == "Td/2":
        return _period(d) / 2.0
    return float(token)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Criterion 9 at d = 5: per-call dispatch into the witnesses dominates.
        Workload(
            name="crit9",
            kind="nonlinear",
            d_list=(5,),
            stop="Td/2",
            steps=400,
            quantities=CRIT9_QUANTITIES,
            output_format="csv",
        ),
        # Large d on the linear family: the beam-splitter measures dominate.
        Workload(
            name="wide_d",
            kind="linear",
            d_list=(20, 40, 60),
            stop="6",
            steps=200,
            quantities=(
                "negativity_exact,concurrence_exact,negativity_closed_form,"
                "concurrence_closed_form,a3,hosps:4"
            ),
            output_format="json",
        ),
        # Many nonlinear states and cheap quantities: state construction dominates.
        Workload(
            name="populations",
            kind="nonlinear",
            d_list=(10, 20, 30, 40, 50, 60),
            stop="Td/2",
            steps=400,
            quantities="anticlassicality,anticlassicality_excl_vacuum,klyshko:0,klyshko:1,klyshko:2",
            output_format="csv",
        ),
    )
}
