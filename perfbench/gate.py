"""Correctness gate for sweep outputs, run outside the timed region.

A row fails when the CLI exited non-zero, when the output's rows do not
match the workload's grid, when a cell is missing or non-finite (the
``singular`` sentinel is a valid result), or when a seeded sample row
disagrees with an independent route by more than ATOL + RTOL * |expected|:

- the dense oracle (``quditnc.oracle``) for the columns it covers on the
  nonlinear family: ``displacement_exponential`` gives the state and its
  probabilities, hence hoa, klyshko and anticlassicality, and
  ``central_quadrature_moment`` gives hos;
- for every other column, reference.json, recorded from this program with

      python3 perfbench/gate.py --record

  Re-record only when a workload changes, never to make a changed program
  pass.

The absolute part keeps values that are zero up to roundoff (1e-18 and
the like) from failing.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from workloads import SRC, START_CHOICES, WORKLOADS, Workload, git_sha, start_index

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SINGULAR = "singular"
ATOL = 1e-9
RTOL = 1e-8
SAMPLE_ROWS = 16
ORACLE_IDENTS = ("hoa", "klyshko", "anticlassicality", "anticlassicality_excl_vacuum", "hos")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def close(value: float | str, expected: float | str) -> bool:
    if isinstance(value, str) or isinstance(expected, str):
        return value == expected
    return abs(value - expected) <= ATOL + RTOL * abs(expected)


def oracle_covers(workload: Workload, column: str) -> bool:
    ident = column.rpartition("_")[0] if column[-1].isdigit() else column
    return workload.kind == "nonlinear" and ident in ORACLE_IDENTS


def sample_rows(workload: Workload, seed: int) -> list[int]:
    rng = random.Random(f"{workload.name}:{start_index(seed)}")
    return sorted(rng.sample(range(workload.rows), SAMPLE_ROWS))


def read_rows(path: Path, output_format: str) -> list[dict]:
    text = path.read_text()
    if output_format == "json":
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise ValueError("JSON output is not a list of objects")
        return rows
    return list(csv.DictReader(text.splitlines()))


def _cell(raw) -> float | str:
    """A cell as a finite float or the sentinel; ValueError otherwise."""
    if raw == SINGULAR:
        return SINGULAR
    if raw is None or isinstance(raw, bool):
        raise ValueError(f"bad cell {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {raw!r}")
    return value


@lru_cache(maxsize=64)
def _oracle_state(d: int, amplitude: float):
    from quditnc.oracle import displacement_exponential

    return displacement_exponential(d, complex(amplitude))


def _oracle(d: int, amplitude: float, column: str) -> float:
    import numpy as np
    from quditnc.oracle import central_quadrature_moment

    state = _oracle_state(d, amplitude)
    p = np.abs(state.amps) ** 2
    ident, _, order = column.rpartition("_")
    if column == "anticlassicality":
        return float(p.max())
    if column == "anticlassicality_excl_vacuum":
        return float(p[1:].max())
    n = int(order)
    if ident == "hoa":
        mean = float(np.dot(np.arange(d), p))
        return sum(math.perm(j, n + 1) * p[j] for j in range(d)) - mean ** (n + 1)
    if ident == "klyshko":
        at = [float(p[i]) if i < d else 0.0 for i in (n, n + 1, n + 2)]
        return (n + 2) * at[0] * at[2] - (n + 1) * at[1] ** 2
    if ident == "hos":
        return central_quadrature_moment(state, n) - math.prod(range(n - 1, 0, -2)) / 2.0 ** (n / 2)
    raise KeyError(column)


def check(
    workload: Workload, seed: int, returncode: int, path: Path, reference: dict
) -> Verdict:
    """Count the failed rows of one sweep output."""
    attempted = workload.rows
    if returncode != 0:
        return Verdict(attempted, attempted, [f"exit code {returncode}"])
    try:
        rows = read_rows(path, workload.output_format)
    except (OSError, ValueError) as exc:
        return Verdict(attempted, attempted, [f"unreadable output: {exc}"])
    if len(rows) != attempted:
        return Verdict(attempted, attempted, [f"{len(rows)} rows, expected {attempted}"])

    failed: set[int] = set()
    problems: list[str] = []

    def fail(i: int, why: str) -> None:
        failed.add(i)
        if len(problems) < 10:
            problems.append(f"row {i}: {why}")

    grid = workload.grid(seed)
    parsed: list[dict] = []
    for i, ((d, amplitude), row) in enumerate(zip(grid, rows)):
        cells = {}
        try:
            if row.get("kind") != workload.kind or int(row.get("d")) != d:
                raise ValueError(f"kind/d {row.get('kind')}/{row.get('d')}")
            if not close(_cell(row.get("amplitude")), amplitude):
                raise ValueError(f"amplitude {row.get('amplitude')} != {amplitude!r}")
            for col in workload.columns:
                cells[col] = _cell(row.get(col))
        except (TypeError, ValueError) as exc:
            fail(i, str(exc))
        parsed.append(cells)

    expected_ref = reference["workloads"].get(workload.name, {}).get(str(start_index(seed)), {})
    for i in sample_rows(workload, seed):
        if i in failed:
            continue
        d, amplitude = grid[i]
        for col in workload.columns:
            if oracle_covers(workload, col):
                expected, route = _oracle(d, amplitude, col), "oracle"
            else:
                expected, route = expected_ref[str(i)][col], "reference"
            if not close(parsed[i][col], expected):
                fail(i, f"{col}={parsed[i][col]!r}, {route} {expected!r}")
    return Verdict(attempted, len(failed), problems)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def record() -> dict:
    """Reference values of the sample rows, for every window start, from this program."""
    sys.path.insert(0, str(SRC))
    from quditnc.cli import main

    out: dict = {"commit": git_sha(), "workloads": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for workload in WORKLOADS.values():
            columns = [c for c in workload.columns if not oracle_covers(workload, c)]
            if not columns:
                continue
            per_start = out["workloads"].setdefault(workload.name, {})
            for seed in range(START_CHOICES):
                path = Path(tmp) / f"out.{workload.output_format}"
                if main(workload.argv(seed, path)) != 0:
                    raise RuntimeError(f"{workload.name} failed at seed {seed}")
                rows = read_rows(path, workload.output_format)
                per_start[str(seed)] = {
                    str(i): {c: _cell(rows[i][c]) for c in columns}
                    for i in sample_rows(workload, seed)
                }
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/gate.py --record")
    REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
