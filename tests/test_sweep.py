"""Grid sweeps, serialization, the target search, and the bar table."""

import io
import json
import math

import numpy as np
import pytest

from quditnc import (
    NumericalError,
    QcsSpec,
    StateKind,
    SweepSpec,
    build_state,
    klyshko_bars,
    period,
    run_sweep,
    table1_search,
)
from quditnc.states import STATE_BLOCK
from quditnc.sweep import (
    SINGULAR_SENTINEL,
    Quantity,
    QUANTITIES,
    SweepRow,
    column_name,
    resolve_amplitude,
    rows_as_dicts,
    write_rows_csv,
    write_rows_json,
)

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
        state_kind=StateKind.LINEAR,
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


def test_run_sweep_shape_and_order():
    rows = run_sweep(_spec(d_list=(4, 3), steps=3))
    assert len(rows) == 6
    assert [r.d for r in rows] == [3, 3, 3, 4, 4, 4]
    amps = [r.amplitude for r in rows[:3]]
    assert amps == sorted(amps)
    for row in rows:
        assert set(row.values) == {"hoa_1"}
        assert isinstance(row.values["hoa_1"], float)


def test_run_sweep_resolves_tokens_per_level_count():
    rows = run_sweep(_spec(state_kind=StateKind.NONLINEAR, d_list=(2, 3), amp_stop="Td/2", steps=2))
    assert rows[1].amplitude == pytest.approx(period(2) / 2.0)
    assert rows[3].amplitude == pytest.approx(period(3) / 2.0)


def test_run_sweep_emits_singular_sentinel():
    spec = _spec(
        state_kind=StateKind.NONLINEAR,
        d_list=(4,),
        amp_start=0.0,
        amp_stop=1.0,
        steps=3,
        quantities=(("a3", None), ("hoa", 1)),
    )
    rows = run_sweep(spec)
    assert rows[0].values["a3"] == SINGULAR_SENTINEL
    assert isinstance(rows[0].values["hoa_1"], float)
    assert isinstance(rows[2].values["a3"], float)


def test_run_sweep_raises_on_non_finite_values(monkeypatch):
    bad = Quantity("hoa", True, lambda o: True, lambda s, o: float("inf"))
    monkeypatch.setitem(QUANTITIES, "hoa", bad)
    with pytest.raises(NumericalError):
        run_sweep(_spec())


def test_run_sweep_csv_equals_a_loop_over_build_state():
    # Crosses a block boundary of the batched nonlinear build.
    quantities = (("anticlassicality", None), ("klyshko", 1), ("hoa", 2))
    spec = _spec(
        state_kind=StateKind.NONLINEAR,
        d_list=(12, 3),
        amp_start=0.05,
        amp_stop="Td/2",
        steps=STATE_BLOCK + 3,
        quantities=quantities,
    )
    expected = []
    for d in (3, 12):
        for amp in np.linspace(0.05, period(d) / 2.0, spec.steps):
            state = build_state(QcsSpec(StateKind.NONLINEAR, d, complex(amp)))
            values = {
                column_name(ident, order): float(QUANTITIES[ident].fn(state, order))
                for ident, order in quantities
            }
            expected.append(SweepRow("nonlinear", d, float(amp), values))
    got, want = io.StringIO(), io.StringIO()
    write_rows_csv(run_sweep(spec), got)
    write_rows_csv(expected, want)
    assert got.getvalue() == want.getvalue()


def test_csv_round_trips_doubles():
    rows = run_sweep(_spec(quantities=FULL_QUANTITIES, steps=5, amp_start=0.2))
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["kind", "d", "amplitude"]
    assert len(lines) == 6
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == "linear"
        assert int(cells[1]) == row.d
        assert float(cells[2]) == row.amplitude
        for name, cell in zip(header[3:], cells[3:]):
            assert float(cell) == row.values[name]


def test_csv_writes_sentinel_verbatim():
    rows = run_sweep(
        _spec(
            state_kind=StateKind.NONLINEAR,
            d_list=(4,),
            amp_stop=1.0,
            steps=2,
            quantities=(("a3", None),),
        )
    )
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    assert "singular" in buf.getvalue().split("\n")[1]


def test_json_rows_match_csv_content():
    rows = run_sweep(_spec(steps=3))
    payload = rows_as_dicts(rows)
    assert [p["d"] for p in payload] == [3, 3, 3]
    assert set(payload[0]) == {"kind", "d", "amplitude", "hoa_1"}
    buf = io.StringIO()
    write_rows_json(rows, buf)
    assert json.loads(buf.getvalue()) == payload


def test_sweep_is_deterministic():
    spec = _spec(quantities=FULL_QUANTITIES, d_list=(3, 5), steps=7)
    first = io.StringIO()
    second = io.StringIO()
    write_rows_csv(run_sweep(spec), first)
    write_rows_csv(run_sweep(spec), second)
    assert first.getvalue() == second.getvalue()


def test_klyshko_bars_two_levels():
    table = klyshko_bars(StateKind.NONLINEAR, 2, ["Td/2"])
    assert table["d"] == 2
    bars = table["entries"][0]["bars"]
    assert len(bars) == 1
    assert bars[0]["n"] == 0
    assert bars[0]["value"] == pytest.approx(-1.0, abs=1e-12)


def test_klyshko_bars_exact_cancellation():
    table = klyshko_bars(StateKind.LINEAR, 3, [1.0])
    assert table["entries"][0]["bars"][0]["value"] == pytest.approx(0.0, abs=1e-12)


def test_klyshko_bars_six_levels_have_negative_entries():
    table = klyshko_bars(StateKind.NONLINEAR, 6, ["Td/4", "Td/2"])
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
