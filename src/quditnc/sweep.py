"""Parameter sweeps over amplitude grids, and the anticlassicality search."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, IO, Sequence

import numpy as np

from .fock import FockVector
from .measures import (
    anticlassicality,
    beamsplit,
    concurrence_closed_form,
    concurrence_exact,
    log_negativity_exact,
    negativity_potential_closed_form,
)
from .states import QcsSpec, StateKind, build_state, build_states, period
from .witnesses import (
    SingularMomentMatrix,
    agarwal_tara,
    hoa,
    hos_witness,
    hosps,
    klyshko,
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
    ident: str
    needs_order: bool
    check_order: Callable[[int], bool]
    fn: Callable[[FockVector, int | None], float]


def _any_order(_: int) -> bool:
    return True


QUANTITIES: dict[str, Quantity] = {
    "hoa": Quantity("hoa", True, lambda o: o >= 1, lambda s, o: hoa(s, o)),
    "hos": Quantity(
        "hos", True, lambda o: o % 2 == 0 and 2 <= o <= 8, lambda s, o: hos_witness(s, o)
    ),
    "hosps": Quantity("hosps", True, lambda o: o >= 1, lambda s, o: hosps(s, o)),
    "a3": Quantity("a3", False, _any_order, lambda s, _: agarwal_tara(s)),
    "klyshko": Quantity("klyshko", True, lambda o: o >= 0, lambda s, o: klyshko(s, o)),
    "negativity_closed_form": Quantity(
        "negativity_closed_form",
        False,
        _any_order,
        lambda s, _: negativity_potential_closed_form(s),
    ),
    "negativity_exact": Quantity(
        "negativity_exact", False, _any_order, lambda s, _: log_negativity_exact(beamsplit(s))
    ),
    "concurrence_closed_form": Quantity(
        "concurrence_closed_form", False, _any_order, lambda s, _: concurrence_closed_form(s)
    ),
    "concurrence_exact": Quantity(
        "concurrence_exact", False, _any_order, lambda s, _: concurrence_exact(beamsplit(s))
    ),
    "anticlassicality": Quantity(
        "anticlassicality", False, _any_order, lambda s, _: anticlassicality(s, False)[0]
    ),
    "anticlassicality_excl_vacuum": Quantity(
        "anticlassicality_excl_vacuum",
        False,
        _any_order,
        lambda s, _: anticlassicality(s, True)[0],
    ),
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


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the requested quantities over the grid, d then amplitude.

    The singular moment-matrix ratio becomes the string sentinel; any other
    non-finite value, or an overflow inside a quantity, aborts with
    NumericalError.
    """
    spec.validate()
    rows: list[SweepRow] = []
    for d in sorted(set(spec.d_list)):
        start = resolve_amplitude(spec.amp_start, d)
        stop = resolve_amplitude(spec.amp_stop, d)
        if start > stop:
            raise ValueError("amplitude range must be non-decreasing")
        amps = np.linspace(start, stop, spec.steps).tolist()
        for amp, state in zip(amps, build_states(spec.state_kind, d, amps)):
            values: dict[str, float | str] = {}
            for ident, order in spec.quantities:
                col = column_name(ident, order)
                try:
                    val = float(QUANTITIES[ident].fn(state, order))
                except SingularMomentMatrix:
                    values[col] = SINGULAR_SENTINEL
                    continue
                except OverflowError:
                    # The value left the double range: report it as non-finite.
                    val = math.inf
                if not math.isfinite(val):
                    raise NumericalError(
                        f"{col} is non-finite at kind={spec.state_kind.value} "
                        f"d={d} amplitude={amp!r}"
                    )
                values[col] = val
            rows.append(
                SweepRow(kind=spec.state_kind.value, d=d, amplitude=amp, values=values)
            )
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
    cells = []
    for token, targets in TABLE1_TARGETS:
        for kind in (StateKind.NONLINEAR, StateKind.LINEAR):
            target = targets[kind.value]
            grid = []
            for d in TABLE1_D_RANGE:
                amp = resolve_amplitude(token, d)
                state = build_state(QcsSpec(kind, d, amp))
                value, argmax_n = anticlassicality(state, exclude_vacuum=True)
                grid.append(
                    {
                        "d": d,
                        "amplitude": amp,
                        "value": value,
                        "argmax_n": argmax_n,
                        "abs_error": abs(value - target),
                    }
                )
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
    entries = []
    amps = [resolve_amplitude(raw, d) for raw in amplitudes]
    for raw, amp, state in zip(amplitudes, amps, build_states(state_kind, d, amps)):
        bars = [
            {"n": n, "value": klyshko(state, n)} for n in range(max(d - 2, 1))
        ]
        entries.append({"amplitude_token": str(raw), "amplitude": amp, "bars": bars})
    return {"kind": state_kind.value, "d": d, "entries": entries}
