"""Parameter sweeps over amplitude grids, and the anticlassicality search."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, IO, Sequence

import numpy as np

from .fock import StateBlock
from .measures import (
    anticlassicality_block,
    concurrence_closed_form_block,
    exact_measures,
    negativity_closed_form_block,
)
from .states import StateKind, period, state_block, state_blocks
from .witnesses import (
    A3_SINGULAR_TOL,
    agarwal_tara_block,
    hoa_block,
    hos_block,
    hosps_block,
    klyshko_block,
)

#: Emitted in place of a number when the moment-matrix ratio is undefined.
SINGULAR_SENTINEL = "singular"


class NumericalError(RuntimeError):
    """A sweep produced a non-finite value outside the singular-ratio path."""


def resolve_amplitude(value: float | str, d: int) -> float:
    """Turn an amplitude token into a number for the given level count.

    Accepts plain reals, numeric strings, and the literals ``Td/2`` and
    ``Td/4`` (case-insensitive), which resolve through ``period(d)``.
    """
    if isinstance(value, (int, float)):
        return float(value)
    token = str(value).strip()
    try:
        return float(token)
    except ValueError:
        pass
    lowered = token.lower().replace(" ", "")
    if lowered == "td/2":
        return period(d) / 2.0
    if lowered == "td/4":
        return period(d) / 4.0
    raise ValueError(f"unrecognized amplitude token {value!r}")


@dataclass(frozen=True)
class Quantity:
    """A sweep column: ``fn(block, order)`` gives one cell per state of the
    block, a float or the singular sentinel."""

    ident: str
    needs_order: bool
    check_order: Callable[[int], bool]
    fn: Callable[[StateBlock, int | None], Sequence[float | str]]


def _any_order(_: int) -> bool:
    return True


def _ordered(ident: str, check_order: Callable[[int], bool], kernel) -> Quantity:
    return Quantity(ident, True, check_order, lambda b, o: kernel(b, o).tolist())


def _plain(ident: str, kernel) -> Quantity:
    return Quantity(ident, False, _any_order, lambda b, _: kernel(b).tolist())


def _a3_cells(block: StateBlock, _: None) -> list[float | str]:
    value, denom = agarwal_tara_block(block)
    singular = np.abs(denom) <= A3_SINGULAR_TOL
    return [SINGULAR_SENTINEL if s else v for v, s in zip(value.tolist(), singular.tolist())]


def _exact(ident: str) -> Quantity:
    return _plain(ident, lambda b: exact_measures(b, [ident])[ident])


QUANTITIES: dict[str, Quantity] = {
    q.ident: q
    for q in (
        _ordered("hoa", lambda o: o >= 1, hoa_block),
        _ordered("hos", lambda o: o % 2 == 0 and 2 <= o <= 8, hos_block),
        _ordered("hosps", lambda o: o >= 1, hosps_block),
        Quantity("a3", False, _any_order, _a3_cells),
        _ordered("klyshko", lambda o: o >= 0, lambda b, o: klyshko_block(b, [o])[:, 0]),
        _plain("negativity_closed_form", negativity_closed_form_block),
        _exact("negativity_exact"),
        _plain("concurrence_closed_form", concurrence_closed_form_block),
        _exact("concurrence_exact"),
        _plain("anticlassicality", lambda b: anticlassicality_block(b, False)[0]),
        _plain("anticlassicality_excl_vacuum", lambda b: anticlassicality_block(b, True)[0]),
    )
}


def column_name(ident: str, order: int | None) -> str:
    return ident if order is None else f"{ident}_{order}"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a state family evaluated on a (d, amplitude) grid."""

    state_kind: StateKind
    d_list: tuple[int, ...]
    amp_start: float | str
    amp_stop: float | str
    steps: int
    quantities: tuple[tuple[str, int | None], ...]
    output_format: str = "csv"

    def validate(self) -> None:
        if not self.d_list:
            raise ValueError("at least one level count is required")
        for d in self.d_list:
            if d < 2:
                raise ValueError("every level count must be at least 2")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.quantities:
            raise ValueError("at least one quantity is required")
        for ident, order in self.quantities:
            q = QUANTITIES.get(ident)
            if q is None:
                raise ValueError(f"unknown quantity {ident!r}")
            if q.needs_order:
                if order is None:
                    raise ValueError(f"quantity {ident!r} requires an order")
                if not q.check_order(order):
                    raise ValueError(f"order {order} is out of range for {ident!r}")
            elif order is not None:
                raise ValueError(f"quantity {ident!r} does not take an order")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")


@dataclass(frozen=True)
class SweepRow:
    kind: str
    d: int
    amplitude: float
    values: dict[str, float | str] = field(default_factory=dict)


def _cells(ident: str, order: int | None, block: StateBlock) -> Sequence[float | str]:
    try:
        return QUANTITIES[ident].fn(block, order)
    except OverflowError:
        # A coefficient left the double range, whatever the state: every row
        # of the column is non-finite.
        return [math.inf] * len(block)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the requested quantities over the grid, d then amplitude.

    Each column is computed once per block of states of one d (see
    ``states.state_blocks``).  The singular moment-matrix ratio becomes the
    string sentinel; any other non-finite value, or an overflow inside a
    quantity, aborts with NumericalError naming the first such cell, row by
    row and in column order within a row.
    """
    spec.validate()
    kind = spec.state_kind.value
    names = [column_name(ident, order) for ident, order in spec.quantities]
    idents = [ident for ident, _ in spec.quantities]
    rows: list[SweepRow] = []
    for d in sorted(set(spec.d_list)):
        start = resolve_amplitude(spec.amp_start, d)
        stop = resolve_amplitude(spec.amp_stop, d)
        if start > stop:
            raise ValueError("amplitude range must be non-decreasing")
        amps = np.linspace(start, stop, spec.steps).tolist()
        first = 0
        for block in state_blocks(spec.state_kind, d, amps):
            # The exact measures share each chunk of two-mode amplitudes.
            exact_measures(block, idents)
            columns = [_cells(ident, order, block) for ident, order in spec.quantities]
            for amp, cells in zip(amps[first : first + len(block)], zip(*columns)):
                for col, val in zip(names, cells):
                    if val != SINGULAR_SENTINEL and not math.isfinite(val):
                        raise NumericalError(
                            f"{col} is non-finite at kind={kind} d={d} amplitude={amp!r}"
                        )
                rows.append(SweepRow(kind, d, amp, dict(zip(names, cells))))
            first += len(block)
    return rows


def _format_number(x: float) -> str:
    return "%.17g" % x


def write_rows_csv(rows: Sequence[SweepRow], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    columns = list(rows[0].values.keys()) if rows else []
    writer.writerow(["kind", "d", "amplitude", *columns])
    for row in rows:
        cells = [row.kind, str(row.d), _format_number(row.amplitude)]
        for col in columns:
            v = row.values[col]
            cells.append(v if isinstance(v, str) else _format_number(v))
        writer.writerow(cells)


def rows_as_dicts(rows: Sequence[SweepRow]) -> list[dict]:
    return [
        {"kind": r.kind, "d": r.d, "amplitude": r.amplitude, **r.values} for r in rows
    ]


def write_rows_json(rows: Sequence[SweepRow], stream: IO[str]) -> None:
    json.dump(rows_as_dicts(rows), stream, indent=2)
    stream.write("\n")


#: Anticlassicality targets searched by table1_search: amplitude token ->
#: {family: target value}.
TABLE1_TARGETS: tuple[tuple[str, dict[str, float]], ...] = (
    ("Td/2", {"nonlinear": 0.473, "linear": 0.217}),
    ("Td/4", {"nonlinear": 0.233, "linear": 0.247}),
    ("2.5", {"nonlinear": 0.171, "linear": 0.164}),
)

TABLE1_D_RANGE = range(2, 13)


def table1_search(tolerance: float) -> dict:
    """Scan level counts for vacuum-excluded anticlassicality targets.

    For each (amplitude token, family) cell the full (d, value) grid is
    reported, together with every d whose value lands within the tolerance
    and the nearest d when none does.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    tokens = [token for token, _ in TABLE1_TARGETS]
    points: dict[tuple[str, str], list[dict]] = {}
    for kind in (StateKind.NONLINEAR, StateKind.LINEAR):
        for d in TABLE1_D_RANGE:
            amps = [resolve_amplitude(token, d) for token in tokens]
            values, levels = anticlassicality_block(state_block(kind, d, amps), True)
            for token, amp, value, argmax_n in zip(tokens, amps, values.tolist(), levels.tolist()):
                points.setdefault((token, kind.value), []).append(
                    {"d": d, "amplitude": amp, "value": value, "argmax_n": argmax_n}
                )
    cells = []
    for token, targets in TABLE1_TARGETS:
        for kind in (StateKind.NONLINEAR, StateKind.LINEAR):
            target = targets[kind.value]
            grid = [
                {**point, "abs_error": abs(point["value"] - target)}
                for point in points[token, kind.value]
            ]
            matches = [g for g in grid if g["abs_error"] <= tolerance]
            nearest = min(grid, key=lambda g: g["abs_error"])
            cells.append(
                {
                    "kind": kind.value,
                    "amplitude_token": token,
                    "target": target,
                    "matched": bool(matches),
                    "matches": matches,
                    "nearest": nearest,
                    "grid": grid,
                }
            )
    return {
        "tolerance": tolerance,
        "d_range": [TABLE1_D_RANGE.start, TABLE1_D_RANGE.stop - 1],
        "cells": cells,
    }


def klyshko_bars(
    state_kind: StateKind, d: int, amplitudes: Sequence[float | str]
) -> dict:
    """Klyshko values per level for each requested amplitude.

    Levels run from 0 through d-3 (so the three probabilities involved all
    sit inside the support), except that level 0 is always included so the
    two-level family still produces a bar.
    """
    state_kind = StateKind(state_kind)
    amps = [resolve_amplitude(raw, d) for raw in amplitudes]
    levels = range(max(d - 2, 1))
    values = [
        row
        for block in state_blocks(state_kind, d, amps)
        for row in klyshko_block(block, levels).tolist()
    ]
    entries = [
        {
            "amplitude_token": str(raw),
            "amplitude": amp,
            "bars": [{"n": n, "value": v} for n, v in zip(levels, row)],
        }
        for raw, amp, row in zip(amplitudes, amps, values)
    ]
    return {"kind": state_kind.value, "d": d, "entries": entries}
