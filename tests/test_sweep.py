"""Grid sweeps, serialization, the target search, and the bar table."""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditnc import (
    NumericalError,
    SweepSpec,
    anticlassicality,
    build_state,
    hoa,
    klyshko,
    klyshko_bars,
    period,
    run_sweep,
    table1_search,
)
from quditnc import fock, measures, states, sweep
from quditnc.digits import g17, shortest
from quditnc.states import block_rows
from quditnc.sweep import (
    SINGULAR_SENTINEL,
    Quantity,
    QUANTITIES,
    SweepResult,
    column_name,
    resolve_amplitude,
    write_rows_csv,
    write_rows_json,
)
from sweep_rows import sweep_rows

FULL_QUANTITIES = (
    ("hoa", 1),
    ("hos", 2),
    ("hosps", 2),
    ("a3", None),
    ("klyshko", 0),
    ("negativity_closed_form", None),
    ("negativity_exact", None),
    ("concurrence_closed_form", None),
    ("concurrence_exact", None),
    ("anticlassicality", None),
    ("anticlassicality_excl_vacuum", None),
)

CRIT9_QUANTITIES = (
    *(("hoa", l) for l in (1, 2, 3)),
    ("hos", 2),
    ("hos", 4),
    *(("hosps", l) for l in (2, 3, 4)),
    ("a3", None),
    *(("klyshko", n) for n in (0, 1, 2)),
    *((ident, None) for ident, _ in FULL_QUANTITIES[5:]),
)


def reference_csv(kind, names, rows):
    """The row-by-row writer the sweep had before its columnar one.

    ``rows`` yields (d, amplitude, {column name: float or sentinel}); every
    number is written as ``"%.17g"`` through ``csv.writer``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "d", "amplitude", *names])
    for d, amp, values in rows:
        cells = [v if isinstance(v, str) else "%.17g" % v for v in values.values()]
        writer.writerow([kind, str(d), "%.17g" % amp, *cells])
    return buf.getvalue()


def reference_json(result):
    """The writer the sweep had before its one-pass one: the row dicts
    through ``json.dump(indent=2)`` and a newline."""
    buf = io.StringIO()
    rows = [{"kind": result.kind, "d": d, "amplitude": a, **c} for d, a, c in sweep_rows(result)]
    json.dump(rows, buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


def _csv(result):
    buf = io.StringIO()
    write_rows_csv(result, buf)
    return buf.getvalue()


def test_resolve_amplitude_accepts_numbers_and_tokens():
    assert resolve_amplitude(2.5, 3) == 2.5
    assert resolve_amplitude("2.5", 3) == 2.5
    assert resolve_amplitude("Td/2", 3) == pytest.approx(period(3) / 2.0)
    assert resolve_amplitude("td/4", 7) == pytest.approx(math.sqrt(30.0) / 4.0)
    assert resolve_amplitude(" TD/2 ", 2) == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        resolve_amplitude("half", 3)


def test_column_name():
    assert column_name("hoa", 2) == "hoa_2"
    assert column_name("a3", None) == "a3"


def _spec(**overrides):
    base = dict(
        state_kind="linear",
        d_list=(3,),
        amp_start=0.0,
        amp_stop=3.0,
        steps=4,
        quantities=(("hoa", 1),),
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_validate_rejects_bad_specs():
    with pytest.raises(ValueError):
        _spec(d_list=()).validate()
    with pytest.raises(ValueError):
        _spec(d_list=(1,)).validate()
    with pytest.raises(ValueError):
        _spec(steps=1).validate()
    with pytest.raises(ValueError):
        _spec(quantities=()).validate()
    with pytest.raises(ValueError):
        _spec(quantities=(("mandel", 1),)).validate()
    with pytest.raises(ValueError):
        _spec(quantities=(("hoa", None),)).validate()
    with pytest.raises(ValueError):
        _spec(quantities=(("hos", 3),)).validate()
    with pytest.raises(ValueError):
        _spec(quantities=(("a3", 2),)).validate()
    with pytest.raises(ValueError):
        _spec(output_format="yaml").validate()


def test_validate_rejects_a_quantity_requested_twice():
    with pytest.raises(ValueError, match="'hoa_1' is requested twice"):
        _spec(quantities=(("hoa", 1), ("a3", None), ("hoa", 1))).validate()
    _spec(quantities=(("hoa", 1), ("hoa", 2))).validate()
    # The first name in request order that occurs twice, not the first repeat.
    with pytest.raises(ValueError, match="^quantity 'hoa_1' is requested twice$"):
        _spec(quantities=(("hoa", 1), ("hoa", 2), ("hoa", 2), ("hoa", 1))).validate()


def test_validate_finds_a_repeated_column_in_one_pass():
    # One count per name: names.count for every name took 17 s at 32,000 columns.
    spec = _spec(quantities=tuple(("klyshko", n) for n in range(50_000)))
    started = time.perf_counter()
    spec.validate()
    assert time.perf_counter() - started < 2.0


def test_validate_caps_the_cells_of_the_grid():
    # Amplitudes and one column per quantity, per distinct level count.
    assert states.MAX_ENTRIES == 2**27
    quantities = (("hoa", 1), ("a3", None), ("klyshko", 0))
    at_budget = _spec(d_list=(3, 4, 3), steps=2**24, quantities=quantities)
    at_budget.validate()
    with pytest.raises(ValueError, match=f"holds {2**27 + 8} cells, more than the {2**27}"):
        at_budget._replace(steps=2**24 + 1).validate()


def test_run_sweep_rejects_a_non_finite_range():
    for start, stop in ((0.0, 1e400), (math.inf, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="amplitude range must be finite"):
            run_sweep(_spec(amp_start=start, amp_stop=stop))


def test_run_sweep_shape_and_order():
    result = run_sweep(_spec(d_list=(4, 3), steps=3))
    rows = list(sweep_rows(result))
    assert len(result) == 6
    assert [d for d, _, _ in rows] == [3, 3, 3, 4, 4, 4]
    amps = [amp for _, amp, _ in rows[:3]]
    assert amps == sorted(amps)
    for _, _, values in rows:
        assert set(values) == {"hoa_1"}
        assert isinstance(values["hoa_1"], float)


def test_run_sweep_resolves_tokens_per_level_count():
    spec = _spec(state_kind="nonlinear", d_list=(2, 3), amp_stop="Td/2", steps=2)
    amps = [amp for _, amp, _ in sweep_rows(run_sweep(spec))]
    assert amps[1] == pytest.approx(period(2) / 2.0)
    assert amps[3] == pytest.approx(period(3) / 2.0)


def test_run_sweep_emits_singular_sentinel():
    spec = _spec(
        state_kind="nonlinear",
        d_list=(4,),
        amp_start=0.0,
        amp_stop=1.0,
        steps=3,
        quantities=(("a3", None), ("hoa", 1)),
    )
    rows = [values for _, _, values in sweep_rows(run_sweep(spec))]
    assert rows[0]["a3"] == SINGULAR_SENTINEL
    assert isinstance(rows[0]["hoa_1"], float)
    assert isinstance(rows[2]["a3"], float)


def test_run_sweep_raises_on_non_finite_values(monkeypatch):
    bad = Quantity(lambda o: True, lambda block, order: (math.inf, False))
    monkeypatch.setitem(QUANTITIES, "hoa", bad)
    with pytest.raises(NumericalError):
        run_sweep(_spec())


def test_evaluate_calls_fn_once_per_column_and_an_overflow_stays_in_its_column(monkeypatch):
    orders = []

    def fn(block, order):
        orders.append(order)
        if order == 2:
            raise OverflowError
        return np.full(len(block), float(order)), False

    monkeypatch.setitem(QUANTITIES, "hoa", Quantity(lambda o: True, fn))
    block = states.state_block("linear", 4, [0.5, 1.0])
    values, singular = sweep.evaluate(block, (("hoa", 1), ("hoa", 2), ("hoa", 3)))
    assert orders == [1, 2, 3]
    assert values.tolist() == [[1.0, 1.0], [math.inf, math.inf], [3.0, 3.0]]
    assert not singular.any()


def _bad_from(row, value):
    # Non-finite from the given row of the d=4 block on, finite elsewhere.
    def fn(block, order):
        rows = np.arange(len(block))
        return np.where((block.dim == 4) & (rows >= row), value, 0.0), False

    return fn


@pytest.mark.parametrize(
    "hoa_row,klyshko_row,column,row",
    [(4, 2, "klyshko_0", 2), (2, 4, "hoa_1", 2), (3, 3, "hoa_1", 3)],
)
def test_run_sweep_names_the_first_non_finite_cell(monkeypatch, hoa_row, klyshko_row, column, row):
    # Row by row first, then in column order within the row.
    for ident, first_bad, value in (("hoa", hoa_row, np.inf), ("klyshko", klyshko_row, np.nan)):
        bad = Quantity(lambda o: True, _bad_from(first_bad, value))
        monkeypatch.setitem(QUANTITIES, ident, bad)
    spec = _spec(d_list=(4, 3), steps=6, quantities=(("hoa", 1), ("klyshko", 0)))
    amplitude = np.linspace(0.0, 3.0, 6).tolist()[row]
    message = f"{column} is non-finite at kind=linear d=4 amplitude={amplitude!r}"
    with pytest.raises(NumericalError) as info:
        run_sweep(spec)
    assert str(info.value) == message


def test_run_sweep_csv_equals_a_loop_over_build_state():
    # Crosses a block boundary of the batched nonlinear build.
    quantities = (("anticlassicality", None), ("klyshko", 1), ("hoa", 2))
    per_state = {
        "anticlassicality": lambda state, _: anticlassicality(state, False)[0][0],
        "klyshko": lambda state, n: klyshko(state, n)[0],
        "hoa": lambda state, l: hoa(state, l)[0],
    }
    spec = _spec(
        state_kind="nonlinear",
        d_list=(12, 3),
        amp_start=0.05,
        amp_stop="Td/2",
        steps=block_rows(12) + 3,
        quantities=quantities,
    )
    expected = []
    for d in (3, 12):
        for amp in np.linspace(0.05, period(d) / 2.0, spec.steps):
            state = build_state("nonlinear", d, complex(amp))
            values = {
                column_name(ident, order): float(per_state[ident](state, order))
                for ident, order in quantities
            }
            expected.append((d, float(amp), values))
    names = [column_name(ident, order) for ident, order in quantities]
    assert _csv(run_sweep(spec)) == reference_csv("nonlinear", names, expected)


WRITER_SPECS = pytest.mark.parametrize(
    "spec",
    [
        # Criterion 9's eighteen columns over more amplitudes than one block
        # holds, and a3 is singular at amplitude 0.
        _spec(
            state_kind="nonlinear",
            d_list=(5,),
            amp_stop="Td/2",
            steps=block_rows(5) + 400,
            quantities=CRIT9_QUANTITIES,
        ),
        # Three level counts, each split across two blocks or more; the sentinel
        # column changes its line format from one level count to the next.
        _spec(
            state_kind="nonlinear",
            d_list=(7, 2, 12),
            amp_start=0.05,
            amp_stop="Td/2",
            steps=block_rows(2) + 5,
            quantities=FULL_QUANTITIES,
        ),
    ],
    ids=["crit9", "multi-d"],
)


@WRITER_SPECS
def test_csv_equals_the_row_by_row_writer(spec):
    result = run_sweep(spec)
    assert len(result) == len(set(spec.d_list)) * spec.steps
    want = reference_csv(result.kind, result.names, sweep_rows(result))
    assert SINGULAR_SENTINEL in want
    assert _csv(result) == want


@WRITER_SPECS
def test_json_equals_json_dump_of_the_rows(spec):
    result = run_sweep(spec)
    assert any(cells.shape[1] > block_rows(d) for d, cells, _ in result.levels)
    want = reference_json(result)
    assert '"singular"' in want
    buf = io.StringIO()
    write_rows_json(result, buf)
    assert buf.getvalue() == want


@pytest.mark.parametrize("writer", [write_rows_csv, write_rows_json], ids=["csv", "json"])
def test_output_bytes_do_not_depend_on_the_chunk_bound(monkeypatch, writer):
    # Three level counts, the d = 2 rows with the a3 sentinel; a bound of 1 or 7 cells
    # gives one-row chunks, one of 100 cells chunks of 25 rows and a last one of 12.
    quantities = (("hoa", 1), ("a3", None), ("klyshko", 0))
    result = run_sweep(_spec(state_kind="nonlinear", d_list=(2, 5, 9), steps=37,
                             quantities=quantities))
    texts = []
    for bound in (1, 7, 100, 2048):
        monkeypatch.setattr(sweep, "_CHUNK_CELLS", bound)
        buf = io.StringIO()
        writer(result, buf)
        texts.append(buf.getvalue())
    assert SINGULAR_SENTINEL in texts[0]
    assert texts == [texts[-1]] * len(texts)


#: Every quantity id, several of them at more than one order and interleaved.
LAYOUT_QUANTITIES = (*FULL_QUANTITIES, ("hoa", 3), ("hos", 4), ("klyshko", 2), ("hosps", 4))
LAYOUT_STEPS = 257  # a grid step of 1/64 from -2 to 2 puts amplitude 0 on it

#: Block rules other than the default: one row, seven rows, the whole grid.
BLOCK_RULES = pytest.mark.parametrize(
    "rule", [lambda d: 1, lambda d: 7, lambda d: 10**9], ids=["1", "7", "all"]
)


@BLOCK_RULES
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_output_bytes_do_not_depend_on_the_block_layout(monkeypatch, kind, rule):
    # d = 60 spans two default blocks; every a3 cell is singular at d = 2, and so
    # is the vacuum's at amplitude 0; a negative amplitude is the mirror of a positive one.
    spec = _spec(
        state_kind=kind,
        d_list=(60, 2, 5),
        amp_start=-2.0,
        amp_stop=2.0,
        steps=LAYOUT_STEPS,
        quantities=LAYOUT_QUANTITIES,
    )

    def outputs():
        result = run_sweep(spec)
        buf = io.StringIO()
        write_rows_json(result, buf)
        return _csv(result), buf.getvalue()

    want = outputs()
    assert block_rows(60) < spec.steps
    assert not states.state_block(kind, 5, [-1.0]).rows.imag.any()
    assert ",singular," in want[0] and '"singular"' in want[1]
    monkeypatch.setattr(sweep, "block_rows", rule)
    assert outputs() == want


@BLOCK_RULES
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_complex_amplitude_columns_do_not_depend_on_the_block_layout(monkeypatch, kind, rule):
    amplitudes = [*(1.7 * np.exp(1j * np.linspace(-3.0, 3.0, 23))), 0.0, -0.8, 2.5]

    def columns():
        out = {}
        step = sweep.block_rows(7)
        for first in range(0, len(amplitudes), step):
            block = sweep.state_block(kind, 7, amplitudes[first : first + step])
            for ident, order in LAYOUT_QUANTITIES:
                values, singular = QUANTITIES[ident].fn(block, order)
                masked = np.broadcast_to(singular, len(block)).tolist()
                cells = np.broadcast_to(values, len(block)).tolist()
                out.setdefault(column_name(ident, order), []).extend(
                    SINGULAR_SENTINEL if s else float(v).hex() for v, s in zip(cells, masked)
                )
        return out

    want = columns()
    assert SINGULAR_SENTINEL in want["a3"]  # the vacuum row
    monkeypatch.setattr(sweep, "block_rows", rule)
    assert columns() == want


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("d", [5, 60])
def test_an_ids_columns_do_not_depend_on_the_columns_beside_it(kind, d):
    # Each id's columns, evaluated alone on a fresh block, keep the bits and the sentinel
    # mask they have among all the others: no two ids share a pass or a Quantity.
    assert len(set(QUANTITIES.values())) == len(QUANTITIES)
    amplitudes = [0.0, 0.7, 2.5, -0.8, -3.1, 1.7 * np.exp(0.9j), -2.2j]
    values, singular = sweep.evaluate(states.state_block(kind, d, amplitudes), LAYOUT_QUANTITIES)
    assert singular.any()  # a3 on the vacuum row
    for ident in dict.fromkeys(ident for ident, _ in LAYOUT_QUANTITIES):
        rows = [j for j, (other, _) in enumerate(LAYOUT_QUANTITIES) if other == ident]
        block = states.state_block(kind, d, amplitudes)
        alone = sweep.evaluate(block, [LAYOUT_QUANTITIES[j] for j in rows])
        assert alone[0].tobytes() == values[rows].tobytes(), ident
        assert alone[1].tolist() == singular[rows].tolist(), ident


@pytest.mark.parametrize("d,blocks", [(5, 1), (60, 2), (200, 6)])
def test_a_sweep_builds_a_block_per_block_rule_and_calls_klyshko_once_per_block(
    monkeypatch, d, blocks
):
    # The criterion-9 spec at d = 5 is one block; at d = 60 its 400 rows are two, and at
    # d = 200 six blocks of at most 15360 // 200 = 76 rows.  Each of its three klyshko
    # columns is one call per block, in column order.
    built, calls = [], []
    state_block = sweep.state_block
    klyshko = sweep.klyshko
    monkeypatch.setattr(sweep, "state_block", lambda *a: built.append(a) or state_block(*a))
    monkeypatch.setattr(sweep, "klyshko", lambda b, n: calls.append(n) or klyshko(b, n))
    spec = _spec(
        state_kind="nonlinear",
        d_list=(d,),
        amp_stop="Td/2",
        steps=400,
        quantities=CRIT9_QUANTITIES,
    )
    assert len(run_sweep(spec)) == 400
    assert len(built) == blocks
    assert calls == [0, 1, 2] * blocks


def test_a_sweep_keeps_the_d_by_d_tables_of_one_level_count():
    # Each level count's first block builds its per-level tables and every later block
    # finds them, as an unbounded cache would; only the last level count's stay.  The
    # nonlinear spec reads the eigenbasis, the splitter table and the factorial moments'
    # weights, the linear one the log factorials, the purity weights and the splitter table.
    specs = {
        (states.he_roots, measures._split_table, fock._falling_factorials): _spec(
            state_kind="nonlinear",
            d_list=(61, 5, 200, 130),
            amp_stop="Td/2",
            steps=120,
            quantities=(("hoa", 1), ("negativity_closed_form", None)),
        ),
        (states._log_factorials, measures._purity_weights, measures._split_table): _spec(
            d_list=(61, 5, 200, 130),
            amp_stop=3.0,
            steps=120,
            quantities=(("concurrence_closed_form", None), ("negativity_closed_form", None)),
        ),
    }
    for tables, spec in specs.items():
        blocks = [-(-spec.steps // block_rows(d)) for d in spec.d_list]
        assert blocks == [1, 1, 2, 2]
        for cached in tables:
            cached.cache_clear()
        assert len(run_sweep(spec)) == 4 * 120
        for cached in tables:
            info = cached.cache_info()
            assert (info.hits, info.misses, info.currsize) == (sum(blocks) - 4, 4, 1), cached
            # The grid runs in ascending d: the last level count's table stays, the others
            # are gone and build afresh.
            cached(200)
            cached(61)
            assert cached.cache_info()[:3] == (sum(blocks) - 3, 5, 1), cached


def test_a_sweep_keeps_every_order_of_weights_at_one_level_count():
    # hosps:65 asks for the falling-factorial weights of 65 orders at each level count,
    # more than a cache of a fixed number of (d, k) tables would hold. Each order misses
    # once per level count and every later block finds it; only the last d's tables stay.
    spec = _spec(d_list=(150, 200), amp_stop=1.0, steps=120, quantities=(("hosps", 65),))
    blocks = [-(-spec.steps // block_rows(d)) for d in spec.d_list]
    assert blocks == [2, 2]
    fock._falling_factorials.cache_clear()
    assert len(run_sweep(spec)) == 2 * 120
    info = fock._falling_factorials.cache_info()
    assert (info.hits, info.misses, info.currsize) == (65 * sum(blocks) - 2, 2, 1)
    orders = fock._falling_factorials(200).cache_info()
    assert (orders.hits, orders.misses, orders.currsize) == (65 * (blocks[-1] - 1), 65, 65)
    # d = 200's weights were the ones kept; d = 150's are gone and build afresh.
    fock._falling_factorials(150)
    assert fock._falling_factorials.cache_info()[:2] == (info.hits + 1, 3)


def _csv_of_cells(cells, singular=None):
    """write_rows_csv of a one-level result whose rows are the rows of ``cells``:
    the amplitude, then one column per further entry."""
    cells = np.asarray(cells, dtype=float)
    mask = np.zeros(cells.shape, bool) if singular is None else np.asarray(singular)
    names = tuple(f"q{j}" for j in range(1, cells.shape[1]))
    level = (3, cells.T, mask.T)
    return _csv(SweepResult("linear", names, (level,))), names


def test_csv_writes_what_percent_17g_writes_for_a_million_doubles():
    rng = np.random.default_rng(14)
    bits = rng.integers(-(2**63), 2**63, size=1_000_000, dtype=np.int64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [tens]
    for _ in range(3):  # 10^k and its neighbours up to 3 ulps away
        near += [np.nextafter(near[-1], 0.0), np.nextafter(near[-1], np.inf)]
    grid = rng.integers(1, 2**53, size=50_000) / 2.0 ** rng.integers(0, 60, size=50_000)
    ties = []  # x = m / 2^(k+1), m odd: x 10^k = m 5^k / 2 is a tie at the 17th digit
    for k in range(1, 25):
        odd = range(2 * 10**16 // 5**k | 1, min(2 * 10**17 // 5**k, 2**53), 2)
        ties += [m / 2.0 ** (k + 1) for m in odd[:: max(1, len(odd) // 300)]]
    edges = [0.0, 5e-324, 1.7976931348623157e308, 1234567890123456.75, 1e16, 1e17, 1e-5]
    structured = np.concatenate([*near, grid, ties, edges])
    x = np.concatenate([bits[np.isfinite(bits)], structured, -structured])
    x = x[: len(x) // 5 * 5].reshape(-1, 5)
    assert x.size >= 1_000_000
    got, _ = _csv_of_cells(x)
    row = "linear,3," + ",".join(["%.17g"] * 5) + "\n"
    want = "kind,d,amplitude,q1,q2,q3,q4\n" + "".join(map(row.__mod__, map(tuple, x.tolist())))
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        pytest.fail("first differing row: %r != %r" % next((g, w) for g, w in pairs if g != w))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
@settings(max_examples=200, deadline=None)
def test_csv_writes_what_percent_17g_writes_for_any_double(values):
    cells = np.array(values[: len(values) // 2 * 2]).reshape(-1, 2)
    got, names = _csv_of_cells(cells)
    rows = [(3, float(a), {names[0]: float(v)}) for a, v in cells.tolist()]
    assert got == reference_csv("linear", names, rows)


def test_csv_escape_cells_sit_beside_a_singular_cell():
    # A rounding tie at the 17th digit and a value below the kernel's range
    # take %, next to the sentinel, in one row of one level.
    cells = [[0.5, 1234567890123456.75, 1e-300, -0.0, 5e-324, 0.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
    singular = [[False, False, False, False, False, True], [False] * 6]
    got, names = _csv_of_cells(cells, singular)
    rows = [
        (3, a, {n: SINGULAR_SENTINEL if s else v for n, v, s in zip(names, vs, ss[1:])})
        for (a, *vs), ss in zip(cells, singular)
    ]
    assert got == reference_csv("linear", names, rows)
    first = "linear,3,0.5,1234567890123456.8,1e-300,-0,4.9406564584124654e-324,singular"
    assert got.split("\n")[1] == first


def _json_of_cells(cells, singular=None):
    """write_rows_json of a one-level result whose rows are the rows of ``cells``, and
    ``json.dumps(rows, indent=2)`` of the same rows with a newline."""
    cells = np.asarray(cells, dtype=float)
    mask = np.zeros(cells.shape, bool) if singular is None else np.asarray(singular)
    names = tuple(f"q{j}" for j in range(1, cells.shape[1]))
    level = (3, cells.T, mask.T)
    buf = io.StringIO()
    write_rows_json(SweepResult("linear", names, (level,)), buf)
    rows = [
        {"kind": "linear", "d": 3, "amplitude": a, **dict(zip(names, vs))}
        for a, *vs in np.where(mask, SINGULAR_SENTINEL, cells.astype(object)).tolist()
    ]
    return buf.getvalue(), json.dumps(rows, indent=2) + "\n"


@pytest.mark.filterwarnings("error")
def test_digits_slots_hold_each_number_alone():
    # A slot is the value's text and NULs, its last byte NUL: the writer adds every comma.
    edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 2.0**-1074, 0.5, 1e16,
             9999999999999998.0, 1234567890123456.75]
    bits = np.random.default_rng(31).integers(-(2**63), 2**63, size=4000, dtype=np.int64)
    x = np.concatenate([edges, bits.view(np.float64)])
    for digits, fmt in ((g17, "%.17g".__mod__), (shortest, repr)):
        raw = np.ascontiguousarray(digits(x).T).tobytes()
        slots = [raw[i:i + 48] for i in range(0, len(raw), 48)]
        assert [slot.replace(b"\0", b"").decode() for slot in slots] == list(map(fmt, x.tolist()))
        assert all(slot[47] == 0 for slot in slots)
        assert b"," not in raw


def test_non_finite_cells_under_the_mask_become_the_sentinel():
    # a3 reads nan on the vacuum: the digits format such a cell, then the writer covers it.
    cells = [[0.5, math.nan, 2.0], [1.0, math.inf, 3.0], [1.5, -math.inf, 4.0]]
    singular = [[False, True, False]] * 3
    csv_text, _ = _csv_of_cells(cells, singular)
    json_text, want = _json_of_cells(cells, singular)
    assert csv_text.split("\n")[1:4] == [
        "linear,3,0.5,singular,2", "linear,3,1,singular,3", "linear,3,1.5,singular,4",
    ]
    assert json_text == want
    for text in (csv_text, json_text):
        assert "nan" not in text and "inf" not in text


def test_json_writes_what_repr_writes_for_a_million_doubles():
    rng = np.random.default_rng(29)
    bits = rng.integers(-(2**63), 2**63, size=1_000_000, dtype=np.int64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [tens]
    for _ in range(3):  # 10^k and its neighbours up to 3 ulps away
        near += [np.nextafter(near[-1], 0.0), np.nextafter(near[-1], np.inf)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))  # repr's search has an uneven interval there
    big = (2**53 + rng.integers(0, 2**62, size=20_000)).astype(float)  # integers >= 2^53
    short = [float(f"{m}e{k}") for m, k in zip(rng.integers(1, 10**6, 20_000), rng.integers(-30, 30, 20_000))]
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-4, 1e-5,
             9999999999999998.0, 0.00009999999999999999, 123456789012345680.0]
    structured = np.concatenate([*near, twos, big, short, edges, np.nextafter(edges, 1.0)])
    x = np.concatenate([bits[np.isfinite(bits)], structured, -structured])
    x = x[: len(x) // 5 * 5].reshape(-1, 5)
    assert x.size >= 1_000_000
    got, want = _json_of_cells(x)
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        pytest.fail("first differing line: %r != %r" % next((g, w) for g, w in pairs if g != w))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
@settings(max_examples=200, deadline=None)
def test_json_writes_what_repr_writes_for_any_double(values):
    got, want = _json_of_cells(np.array(values[: len(values) // 2 * 2]).reshape(-1, 2))
    assert got == want


def test_json_escape_cells_sit_beside_a_singular_cell():
    # A power of two, a value below the kernel's range, a 17th-digit tie and an exact tie
    # with the round-trip interval's end take repr, next to the sentinel and both zeros.
    cells = [[0.5, 1234567890123456.75, 1e-300, -0.0, 5.47117e20, 0.0, 7.0],
             [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]]
    singular = [[False, False, False, False, False, False, True], [False] * 7]
    got, want = _json_of_cells(cells, singular)
    assert got == want
    assert '    "q3": -0.0,\n    "q4": 5.47117e+20,\n    "q5": 0.0,\n    "q6": "singular"\n' in got


def test_csv_round_trips_doubles():
    result = run_sweep(_spec(quantities=FULL_QUANTITIES, steps=5, amp_start=0.2))
    lines = _csv(result).strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["kind", "d", "amplitude"]
    assert len(lines) == 6
    for line, (d, amp, values) in zip(lines[1:], sweep_rows(result)):
        cells = line.split(",")
        assert cells[0] == "linear"
        assert int(cells[1]) == d
        assert float(cells[2]) == amp
        for name, cell in zip(header[3:], cells[3:]):
            assert float(cell) == values[name]


def test_csv_writes_sentinel_verbatim():
    result = run_sweep(
        _spec(
            state_kind="nonlinear",
            d_list=(4,),
            amp_stop=1.0,
            steps=2,
            quantities=(("a3", None),),
        )
    )
    assert "singular" in _csv(result).split("\n")[1]


def test_json_rows_match_csv_content():
    result = run_sweep(_spec(steps=3))
    payload = [{"kind": "linear", "d": d, "amplitude": a, **v} for d, a, v in sweep_rows(result)]
    assert [p["d"] for p in payload] == [3, 3, 3]
    assert set(payload[0]) == {"kind", "d", "amplitude", "hoa_1"}
    buf = io.StringIO()
    write_rows_json(result, buf)
    assert json.loads(buf.getvalue()) == payload


def test_sweep_is_deterministic():
    spec = _spec(quantities=FULL_QUANTITIES, d_list=(3, 5), steps=7)
    assert _csv(run_sweep(spec)) == _csv(run_sweep(spec))


def test_klyshko_bars_two_levels():
    table = klyshko_bars("nonlinear", 2, ["Td/2"])
    assert table["d"] == 2
    bars = table["entries"][0]["bars"]
    assert len(bars) == 1
    assert bars[0]["n"] == 0
    assert bars[0]["value"] == pytest.approx(-1.0, abs=1e-12)


def test_klyshko_bars_exact_cancellation():
    table = klyshko_bars("linear", 3, [1.0])
    assert table["entries"][0]["bars"][0]["value"] == pytest.approx(0.0, abs=1e-12)


def test_klyshko_bars_six_levels_have_negative_entries():
    table = klyshko_bars("nonlinear", 6, ["Td/4", "Td/2"])
    for entry in table["entries"]:
        values = [bar["value"] for bar in entry["bars"]]
        assert len(values) == 4
        assert all(math.isfinite(v) for v in values)
    merged = [
        bar["value"] for entry in table["entries"] for bar in entry["bars"]
    ]
    assert min(merged) < 0.0


def test_table1_search_degenerate_tolerance():
    report = table1_search(1.0)
    assert len(report["cells"]) == 6
    for cell in report["cells"]:
        assert cell["matched"]
        assert len(cell["matches"]) == 11
        assert len(cell["grid"]) == 11


def test_table1_search_reports_matches_and_misses():
    report = table1_search(0.005)
    assert report["d_range"] == [2, 12]
    by_key = {(c["kind"], c["amplitude_token"]): c for c in report["cells"]}
    assert by_key[("linear", "2.5")]["matched"]
    for cell in report["cells"]:
        assert cell["nearest"]["d"] in range(2, 13)
        assert 0.0 <= cell["nearest"]["value"] <= 1.0
        for point in cell["grid"]:
            assert 0.0 <= point["value"] <= 1.0


def test_table1_search_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        table1_search(0.0)


def test_report_makes_one_evaluate_call(monkeypatch):
    calls = []
    evaluate = sweep.evaluate
    monkeypatch.setattr(sweep, "evaluate", lambda b, q: calls.append(q) or evaluate(b, q))
    battery = sweep.report(build_state("nonlinear", 6, 1.1))
    klyshko_levels = tuple(("klyshko", n) for n in range(4))
    measures = tuple((ident, None) for ident in sweep.REPORT_MEASURES)
    assert calls == [sweep.REPORT_WITNESSES + klyshko_levels + measures]
    assert len(battery["witnesses"]) == len(sweep.REPORT_WITNESSES) + 4
    assert list(battery["measures"]) == [*sweep.REPORT_MEASURES, "argmax_n"]


def test_a_report_past_1030_levels_reads_inf_where_a_measure_overflows():
    battery = sweep.report(build_state("linear", 1031, 1.0))
    values = [entry["value"] for entry in battery["witnesses"]]
    assert len(values) == 1038 and all(map(math.isfinite, values))
    measures = battery["measures"]
    for name in ("negativity_closed_form", "negativity_exact", "concurrence_exact"):
        assert measures[name] == math.inf, name
    for name in ("concurrence_closed_form", "anticlassicality", "anticlassicality_excl_vacuum"):
        assert math.isfinite(measures[name]), name
