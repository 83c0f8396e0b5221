"""Parameter sweeps over amplitude grids, and the anticlassicality search."""

from __future__ import annotations

import math
import reprlib
from collections import Counter
from typing import Callable, IO, NamedTuple, Sequence

import numpy as np

from .digits import g17, shortest
from .fock import FockVector, StateBlock
from .measures import (
    anticlassicality,
    concurrence_closed_form,
    concurrence_exact,
    log_negativity_exact,
    negativity_potential_closed_form,
)
from .states import KINDS, MAX_ENTRIES, NumericalError, block_rows, period, state_block
from .witnesses import agarwal_tara, hoa, hos_witness, hosps, klyshko, klyshko_levels

__all__ = [
    "SweepResult", "SweepSpec", "klyshko_bars", "report", "run_sweep", "table1_search",
]

#: Emitted in place of a number when the moment-matrix ratio is undefined.
SINGULAR_SENTINEL = "singular"


def echo(value) -> str:
    """A user value as a message shows it: its repr (a list or dict six levels deep at
    most, by reprlib), cut by ``cut``."""
    return cut(reprlib.repr(value) if isinstance(value, (list, dict)) else repr(value))


def cut(text: str) -> str:
    """A shown value cut to 40 characters, the last three of them "..."."""
    return text if len(text) <= 40 else text[:37] + "..."


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
    raise ValueError(f"unrecognized amplitude token {echo(value)}")


class Quantity(NamedTuple):
    """A family of sweep columns: ``check_order`` accepts its orders (``None``: it takes none),
    and ``fn(block, orders)`` gives one column per order asked for, each the values of the
    block's states as an array or a scalar that broadcasts over the block, and the mask of the
    states whose cells in every one of these columns get the singular sentinel (an array or a
    bool)."""

    check_order: Callable[[int], bool] | None
    fn: Callable[[StateBlock, list], tuple[Sequence[np.ndarray | float], np.ndarray | bool]]


def _each_order(kernel) -> Callable:
    """``fn(block, orders)`` from ``kernel(block, order)``, one call per order."""

    def fn(block: StateBlock, orders: list) -> tuple[list, bool]:
        columns = []
        for order in orders:
            try:
                columns.append(kernel(block, order))
            except OverflowError:  # a coefficient left the double range, whatever the state
                columns.append(math.inf)
        return columns, False

    return fn


def _plain(kernel) -> Quantity:
    return Quantity(None, _each_order(lambda b, _: kernel(b)))


def _a3(block: StateBlock, _) -> tuple:
    value, singular = agarwal_tara(block)
    return (value,), singular


def _klyshko(block: StateBlock, levels: list) -> tuple:
    return klyshko(block, levels).T, False


QUANTITIES: dict[str, Quantity] = {
    "hoa": Quantity(lambda o: o >= 1, _each_order(hoa)),
    "hos": Quantity(lambda o: o % 2 == 0 and 2 <= o <= 8, _each_order(hos_witness)),
    "hosps": Quantity(lambda o: o >= 1, _each_order(hosps)),
    "a3": Quantity(None, _a3),
    "klyshko": Quantity(lambda o: o >= 0, _klyshko),
    "negativity_closed_form": _plain(negativity_potential_closed_form),
    "negativity_exact": _plain(log_negativity_exact),
    "concurrence_closed_form": _plain(concurrence_closed_form),
    "concurrence_exact": _plain(concurrence_exact),
    "anticlassicality": _plain(lambda b: anticlassicality(b, False)[0]),
    "anticlassicality_excl_vacuum": _plain(lambda b: anticlassicality(b, True)[0]),
}


def evaluate(block: StateBlock, quantities) -> tuple[np.ndarray, np.ndarray]:
    """The (id, order) columns of ``quantities`` on every state of the block: the (Q, S)
    values and the (Q, S) mask of the sentinel cells.  The columns of one id are one call of
    its ``fn`` with their orders; an overflow inside a quantity reads inf in its columns."""
    groups: dict[str, list[int]] = {}  # an id -> its columns
    for j, (ident, _) in enumerate(quantities):
        groups.setdefault(ident, []).append(j)
    values = np.empty((len(quantities), len(block)))
    singular = np.zeros((len(quantities), len(block)), dtype=bool)
    for ident, columns in groups.items():
        cells, singular[columns] = QUANTITIES[ident].fn(block, [quantities[j][1] for j in columns])
        for j, column in zip(columns, cells):
            values[j] = column
    return values, singular


def column_name(ident: str, order: int | None) -> str:
    return ident if order is None else f"{ident}_{order}"


class SweepSpec(NamedTuple):
    """One sweep: a state family evaluated on a (d, amplitude) grid."""

    state_kind: str
    d_list: tuple[int, ...]
    amp_start: float | str
    amp_stop: float | str
    steps: int
    quantities: tuple[tuple[str, int | None], ...]
    output_format: str = "csv"

    def validate(self) -> None:
        if not self.d_list:
            raise ValueError("at least one level count is required")
        if min(self.d_list) < 2:
            raise ValueError("every level count must be at least 2")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.quantities:
            raise ValueError("at least one quantity is required")
        for ident, order in self.quantities:
            q = QUANTITIES.get(ident)
            if q is None:
                raise ValueError(f"unknown quantity {echo(ident)}")
            if q.check_order is None:
                if order is not None:
                    raise ValueError(f"quantity {ident!r} does not take an order")
            elif order is None:
                raise ValueError(f"quantity {ident!r} requires an order")
            elif not q.check_order(order):
                raise ValueError(f"order {echo(order)} is out of range for {ident!r}")
        names = [column_name(ident, order) for ident, order in self.quantities]
        for name, count in Counter(names).items():  # keyed in request order
            if count > 1:
                raise ValueError(f"quantity {echo(name)} is requested twice")
        if self.output_format not in WRITERS:
            raise ValueError(f"unknown format {echo(self.output_format)}")
        cells = len(set(self.d_list)) * self.steps * (len(self.quantities) + 1)
        if cells > MAX_ENTRIES:  # the state build's budget, checked before any allocation
            raise ValueError(f"the grid holds {cells} cells, more than the {MAX_ENTRIES} allowed")


class SweepResult:
    """A sweep's cells as the table it prints: ``levels`` holds, per level count in grid
    order, (d, cells, singular), where ``cells`` is a (1 + Q, S) float64 array, the
    amplitudes in row 0 and column j's cells in row j + 1, and ``singular`` masks those
    that hold the sentinel."""

    __slots__ = ("kind", "names", "levels")

    def __init__(self, kind: str, names: tuple[str, ...], levels: tuple) -> None:
        self.kind, self.names, self.levels = kind, names, levels

    def __len__(self) -> int:
        return sum(cells.shape[1] for _, cells, _ in self.levels)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested quantities over the grid, d then amplitude.

    Each d's amplitudes are cut into blocks of ``block_rows(d)``; each block is one
    ``state_block`` that ``evaluate`` writes into that d's rows of cells.  A singular
    moment-matrix ratio is masked as the sentinel; any other non-finite value, or an
    overflow inside a quantity, aborts with NumericalError naming the first such cell,
    row by row and in column order within a row.
    """
    spec.validate()
    kind = spec.state_kind
    names = tuple(column_name(ident, order) for ident, order in spec.quantities)
    levels = []
    for d in sorted(set(spec.d_list)):
        start = resolve_amplitude(spec.amp_start, d)
        stop = resolve_amplitude(spec.amp_stop, d)
        if not math.isfinite(stop - start):  # so is each end, and linspace's step
            raise ValueError("amplitude range must be finite")
        if start > stop:
            raise ValueError("amplitude range must be non-decreasing")
        cells = np.empty((1 + len(names), spec.steps))
        cells[0] = np.linspace(start, stop, spec.steps)
        singular = np.zeros(cells.shape, dtype=bool)
        step = block_rows(d)
        for first in range(0, spec.steps, step):
            rows = slice(first, first + step)
            block = state_block(kind, d, cells[0, rows])
            cells[1:, rows], singular[1:, rows] = evaluate(block, spec.quantities)
            bad = ~(np.isfinite(cells[1:, rows]) | singular[1:, rows])
            if bad.any():
                # Flattened row by row, then in column order.
                i, j = divmod(int(np.argmax(bad.T)), len(names))
                raise NumericalError(
                    f"{names[j]} is non-finite at kind={kind} d={d} "
                    f"amplitude={float(cells[0, first + i])!r}"
                )
        levels.append((d, cells, singular))
    return SweepResult(kind, names, tuple(levels))


_CHUNK_CELLS = 2048  #: cells per numpy pass of either writer: it bounds the temporaries


def _write_rows(result: SweepResult, stream: IO[str], digits: Callable, sentinel: str,
                heads: list[bytes], keys: list[bytes], tail: bytes, skip: int) -> None:
    """Write every row, a chunk of about ``_CHUNK_CELLS`` cells per numpy pass and per
    write: its level count's head, then per column its key and its cell as ``digits``
    writes it (``sentinel`` where masked), a comma after each cell but the last, then
    ``tail``.  The output's first row leaves out its first ``skip`` bytes.  Each part is
    padded with NULs to whole words, which one ``translate`` deletes."""
    cols = len(keys)
    lead, width, end = (-(-max(map(len, texts)) // 8) for texts in (heads, keys, [tail]))
    step = max(1, _CHUNK_CELLS // cols)
    most = max(cells.shape[1] for _, cells, _ in result.levels)
    rows = np.zeros((min(step, most), lead + cols * (width + 6) + end), "<u8")
    fields = rows[:, lead:-end].reshape(len(rows), cols, width + 6)
    fields[:, :, :width] = np.frombuffer(
        b"".join(key.ljust(8 * width, b"\0") for key in keys), "<u8"
    ).reshape(cols, width)
    rows[:, -end:] = np.frombuffer(tail.ljust(8 * end, b"\0"), "<u8")
    blank = np.frombuffer(sentinel.encode().ljust(48, b"\0"), "<u8")[:, None]  # its slot
    commas = np.zeros((cols, 6), "<u8")
    commas[:-1, -1] = 44 << 56  # in the last byte of every slot but the row's last
    for head, (_, cells, singular) in zip(heads, result.levels):
        rows[:, :lead] = np.frombuffer(head.ljust(8 * lead, b"\0"), "<u8")
        for i in range(0, cells.shape[1], step):
            slots = digits(cells[:, i:i + step].ravel())
            slots[:, singular[:, i:i + step].ravel()] = blank
            count = slots.shape[1] // cols
            np.bitwise_or(slots.reshape(6, cols, count).T, commas, out=fields[:count, :, width:])
            stream.write(rows[:count].tobytes().translate(None, b"\0")[skip:].decode())
            skip = 0


def write_rows_csv(result: SweepResult, stream: IO[str]) -> None:
    """Write the header and every row, each number as ``'%.17g'`` writes it (``digits.g17``)."""
    stream.write(",".join(("kind", "d", "amplitude", *result.names)) + "\n")
    heads = [f"{result.kind},{d},".encode() for d, *_ in result.levels]
    _write_rows(result, stream, g17, SINGULAR_SENTINEL, heads, [b""] * (len(result.names) + 1),
                b"\n", 0)


def write_rows_json(result: SweepResult, stream: IO[str]) -> None:
    """Write the rows as ``json.dump(rows, indent=2)`` and a newline, each number as
    ``repr`` writes it, as json does (``digits.shortest``).  The keys, the family and the
    sentinel go in as they are: a column name is a quantity id and an order, which json
    quotes unchanged.  Every row opens with the comma that follows the row before, which
    the first row leaves out."""
    heads = [f',\n  {{\n    "kind": "{result.kind}",\n    "d": {d},'.encode()
             for d, *_ in result.levels]
    keys = [f'\n    "{name}": '.encode() for name in ("amplitude", *result.names)]
    stream.write("[")
    _write_rows(result, stream, shortest, f'"{SINGULAR_SENTINEL}"', heads, keys, b"\n  }", 1)
    stream.write("\n]\n")


#: The output formats, each with its writer.
WRITERS = {"csv": write_rows_csv, "json": write_rows_json}


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
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    tokens = [token for token, _ in TABLE1_TARGETS]
    points: dict[tuple[str, str], list[dict]] = {}
    for kind in KINDS:
        for d in TABLE1_D_RANGE:
            amps = [resolve_amplitude(token, d) for token in tokens]
            values, levels = anticlassicality(state_block(kind, d, amps), True)
            for token, amp, value, argmax_n in zip(tokens, amps, values.tolist(), levels.tolist()):
                points.setdefault((token, kind), []).append(
                    {"d": d, "amplitude": amp, "value": value, "argmax_n": argmax_n}
                )
    cells = []
    for token, targets in TABLE1_TARGETS:
        for kind, target in targets.items():
            grid = [
                {**point, "abs_error": abs(point["value"] - target)}
                for point in points[token, kind]
            ]
            matches = [g for g in grid if g["abs_error"] <= tolerance]
            nearest = min(grid, key=lambda g: g["abs_error"])
            cells.append(
                {
                    "kind": kind,
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


def klyshko_bars(state_kind: str, d: int, amplitudes: Sequence[float | str]) -> dict:
    """Klyshko values per level for each requested amplitude.

    The levels are ``klyshko_levels(d)``, as in ``report``.  The amplitudes are one
    ``state_block``, under its budget.
    """
    amps = [resolve_amplitude(raw, d) for raw in amplitudes]
    levels = klyshko_levels(d)
    values = klyshko(state_block(state_kind, d, amps), levels).tolist()
    entries = [
        {
            "amplitude_token": str(raw),
            "amplitude": amp,
            "bars": [{"n": n, "value": v} for n, v in zip(levels, row)],
        }
        for raw, amp, row in zip(amplitudes, amps, values)
    ]
    return {"kind": state_kind, "d": d, "entries": entries}


#: The witnesses ``report`` evaluates, before Klyshko's levels.
REPORT_WITNESSES = (
    ("hoa", 1), ("hoa", 2), ("hoa", 3), ("hos", 2), ("hos", 4),
    ("hosps", 2), ("hosps", 3), ("hosps", 4), ("a3", None),
)

#: The measures ``report`` evaluates, in its key order.
REPORT_MEASURES = (
    "negativity_closed_form", "negativity_exact", "concurrence_closed_form", "concurrence_exact",
    "anticlassicality", "anticlassicality_excl_vacuum",
)


def report(state: FockVector) -> dict:
    """The standard battery of one state, as one ``evaluate`` call on the state, a block of one.

    ``witnesses``: hoa at orders 1-3, hos at 2 and 4, hosps at 2-4, a3, and klyshko at
    ``klyshko_levels(d)``, one dict (name, order, value, nonclassical) each.  a3 is left
    out where its denominator is singular (on |0>, |1> and every two-level state).  Flags
    are strict: zero does not count as nonclassical.  ``measures``: each measure (inf
    where it leaves the double range, as the splitter's sqrt(C(n, j)) does from d = 1031
    on), then ``argmax_n``, the level of the vacuum-excluded anticlassicality.
    """
    witnesses = REPORT_WITNESSES + tuple(("klyshko", n) for n in klyshko_levels(state.dim))
    values, singular = evaluate(state, witnesses + tuple((m, None) for m in REPORT_MEASURES))
    values, singular = values[:, 0].tolist(), singular[:, 0].tolist()
    measures = dict(zip(REPORT_MEASURES, values[len(witnesses):]))
    measures["argmax_n"] = int(anticlassicality(state, True)[1][0])
    entries = [
        {"name": ident, "order": order, "value": value, "nonclassical": value < 0.0}
        for (ident, order), value, masked in zip(witnesses, values, singular)
        if not masked
    ]
    return {"witnesses": entries, "measures": measures}
