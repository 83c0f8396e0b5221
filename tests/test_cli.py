"""Command-line behavior: verbs, exit codes, config handling."""

import errno
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quditnc
from quditnc import cli, fock, measures, states, sweep
from quditnc.cli import main
from quditnc.sweep import QUANTITIES, Quantity

SWEEP_ARGS = [
    "sweep",
    "--kind",
    "linear",
    "--d",
    "3",
    "--range",
    "0.5:2.0",
    "--steps",
    "4",
    "--quantities",
    "hoa:1,a3",
]


def test_sweep_writes_csv_to_stdout(capsys):
    assert main(SWEEP_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "kind,d,amplitude,hoa_1,a3"
    assert len(lines) == 5
    assert lines[1].startswith("linear,3,")


def test_sweep_json_format(capsys):
    assert main(SWEEP_ARGS + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4
    assert payload[0]["kind"] == "linear"
    assert "hoa_1" in payload[0]


def test_sweep_writes_output_file(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("kind,d,amplitude")


def test_sweep_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(SWEEP_ARGS + ["--out", str(first)]) == 0
    assert main(SWEEP_ARGS + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_unknown_quantity_is_usage_error(capsys):
    args = list(SWEEP_ARGS)
    args[args.index("hoa:1,a3")] = "mandel:1"
    assert main(args) == 2
    assert "mandel" in capsys.readouterr().err


def test_an_empty_quantity_token_is_skipped(capsys):
    args = list(SWEEP_ARGS)
    args[args.index("hoa:1,a3")] = "hoa:1,,a3"
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("kind,d,amplitude,hoa_1,a3\n")


def test_a_quantity_list_of_empty_tokens_is_usage_error(capsys):
    args = list(SWEEP_ARGS)
    args[args.index("hoa:1,a3")] = ","
    assert main(args) == 2
    assert capsys.readouterr().err == "error: no quantities given\n"


@pytest.mark.parametrize(
    "raised,message",
    [
        (MemoryError("Unable to allocate 1.00 GiB for an array with shape (11585, 11585) and "
                     "data type float64"),
         "Unable to allocate 1.00 GiB for an array with shape (11585, 11585) and data type "
         "float64"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_running_out_of_memory_exits_two_in_one_line(monkeypatch, capsys, raised, message):
    # A build within the entry budget can still be more than the host gives: a usage error.
    def handler(args):
        raise raised

    monkeypatch.setattr(cli, "_cmd_report", handler)
    assert main(["report", "--kind", "nonlinear", "--d", "11585", "--amplitude", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_order_is_usage_error():
    args = list(SWEEP_ARGS)
    args[args.index("hoa:1,a3")] = "hoa"
    assert main(args) == 2


def test_bad_range_is_usage_error():
    args = list(SWEEP_ARGS)
    args[args.index("0.5:2.0")] = "0.5"
    assert main(args) == 2


def test_missing_pieces_are_usage_errors():
    assert main(["sweep", "--kind", "linear"]) == 2


def test_bad_config_json_is_usage_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "field",
    [
        {"d_list": 5},
        {"quantities": [5]},
        {"steps": [3]},
        # int() would truncate these to d=3, steps=2 and order 1.
        {"d_list": [3.9]},
        {"d_list": [True]},
        {"steps": 2.7},
        {"steps": True},
        {"quantities": [["hoa", 1.5]]},
        # float() would sweep from 1.0 to 2.0 and from 0.5 to 0.0.
        {"amp_start": True},
        {"amp_stop": False},
        # A misspelt or unknown key would otherwise be ignored: CSV, exit 0.
        {"fromat": "json"},
        {"output_format": "json"},
        # A list or an object where a name belongs: no TypeError from the name lookup.
        {"format": ["csv"]},
        {"format": {"csv": 1}},
        {"state_kind": ["linear"]},
        {"state_kind": {"linear": 1}},
    ],
    ids=["d_list", "quantities", "steps", "d-float", "d-bool"]
    + ["steps-float", "steps-bool", "order-float", "amp_start-bool", "amp_stop-bool"]
    + ["unknown-key", "output_format-key"]
    + ["format-list", "format-object", "state_kind-list", "state_kind-object"],
)
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, field):
    spec = {
        "state_kind": "linear",
        "d_list": [3],
        "amp_start": 0.5,
        "amp_stop": 2.0,
        "steps": 3,
        "quantities": "hoa:1",
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**spec, **field}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed config")


def test_duplicate_quantity_is_usage_error(tmp_path, capsys):
    args = list(SWEEP_ARGS)
    args[args.index("hoa:1,a3")] = "hoa:1,a3,hoa:1"
    assert main(args) == 2
    assert capsys.readouterr().err == "error: quantity 'hoa_1' is requested twice\n"
    cfg = tmp_path / "sweep.json"
    spec = {"state_kind": "linear", "d_list": [3], "amp_start": 0.5, "amp_stop": 2.0, "steps": 3}
    cfg.write_text(json.dumps({**spec, "quantities": ["a3", ["a3", None]]}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: quantity 'a3' is requested twice\n"


#: A user token of 5,000 characters, and an order of 4,000 digits (int() takes up to 4,300).
LONG = "x" * 5000
DIGITS = "3" * 4000
SWEEP_TO = ["sweep", "--kind", "linear", "--steps", "2"]
QUANTITIES_AT = [*SWEEP_TO, "--d", "5", "--range", "0:1", "--quantities"]
NAME_TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "
LONG_TOKENS = {  # argv, the message's prefix, the echoed value, and the message's suffix
    "range-amplitude": ([*SWEEP_TO, "--d", "5", f"--range=0:{LONG}", "--quantities", "hoa:1"],
                        "unrecognized amplitude token ", LONG, ""),
    "report-amplitude": (["report", "--kind", "linear", "--d", "5", f"--amplitude={LONG}"],
                         "unrecognized amplitude token ", LONG, ""),
    "klyshko-amplitudes": (["klyshko", "--kind", "linear", "--d", "5", f"--amplitudes=1,{LONG}"],
                           "unrecognized amplitude token ", LONG, ""),
    "unknown-quantity": ([*QUANTITIES_AT, LONG], "unknown quantity ", LONG, ""),
    "bad-order": ([*QUANTITIES_AT, f"hoa:{LONG}"],
                  "bad order in quantity token ", f"hoa:{LONG}", ""),
    "level-count-list": ([*SWEEP_TO, "--d", f"5,{LONG}", "--range", "0:1", "--quantities", "hoa:1"],
                         "bad level-count list ", f"5,{LONG}", ""),
    "range-shape": ([*SWEEP_TO, "--d", "5", f"--range={LONG}", "--quantities", "hoa:1"],
                    "range must look like start:stop, got ", LONG, ""),
    "order-out-of-range": ([*QUANTITIES_AT, f"hos:{DIGITS}"],
                           "order ", int(DIGITS), " is out of range for 'hos'"),
    "requested-twice": ([*QUANTITIES_AT, f"klyshko:{DIGITS},klyshko:{DIGITS}"],
                        "quantity ", f"klyshko_{DIGITS}", " is requested twice"),
    # argparse's own messages, after its usage lines.
    "steps": ([*SWEEP_TO[:-2], f"--steps={LONG}"], "argument --steps: invalid int value: ", LONG, ""),
    "kind": (["sweep", f"--kind={LONG}"],
             "argument --kind: invalid choice: ", LONG, " (choose from 'linear', 'nonlinear')"),
    "format": ([*SWEEP_TO, f"--format={LONG}"],
               "argument --format: invalid choice: ", LONG, " (choose from 'csv', 'json')"),
    "report-d": (["report", "--kind", "linear", "--amplitude", "1", f"--d={LONG}"],
                 "argument --d: invalid int value: ", LONG, ""),
    "tolerance": (["table1", f"--tolerance={LONG}"],
                  "argument --tolerance: invalid float value: ", LONG, ""),
    "unrecognized": ([*QUANTITIES_AT, "hoa:1", LONG], "unrecognized arguments: ", LONG, ""),
    "verb": ([LONG], "argument command: invalid choice: ", LONG,
             " (choose from 'sweep', 'table1', 'klyshko', 'report')"),
    "help": (["sweep", f"--help={LONG}"], "argument -h/--help: ignored explicit argument ", LONG, ""),
    "quoted": (["sweep", f"--kind={LONG}'"],  # its repr is in double quotes
               "argument --kind: invalid choice: ", f"{LONG}'", " (choose from 'linear', 'nonlinear')"),
    # The OSError of a path with a 5,000-character name.
    "out": ([*QUANTITIES_AT, "hoa:1", f"--out={LONG}"], NAME_TOO_LONG, LONG, ""),
    "config": (["sweep", f"--config={LONG}"], NAME_TOO_LONG, LONG, ""),
    "report-out": (["report", "--kind", "linear", "--d", "5", "--amplitude", "1", f"--out={LONG}"],
                   NAME_TOO_LONG, LONG, ""),
}


@pytest.mark.parametrize("args,prefix,value,suffix", LONG_TOKENS.values(), ids=LONG_TOKENS)
def test_a_long_user_token_is_echoed_cut_to_40_characters(capsys, args, prefix, value, suffix):
    # Each message echoed the whole token: 5,027-5,308 bytes of stderr.
    try:
        code = main(args)
        err = capsys.readouterr().err
    except SystemExit as exc:  # argparse: its usage lines, then "quditnc[ VERB]: error: ..."
        code, err = exc.code, capsys.readouterr().err
        assert err.startswith("usage: quditnc ")
        assert len(err.encode()) < 700
        prog, _, err = err.splitlines(keepends=True)[-1].partition(": ")
        assert prog in ("quditnc", f"quditnc {args[0]}")
    assert code == 2
    assert err == f"error: {prefix}{repr(value)[:37]}...{suffix}\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("key", ["amp_start", "amp_stop"])
def test_a_long_config_amplitude_token_is_echoed_cut_to_40_characters(tmp_path, capsys, key):
    err = _malformed_config_error(tmp_path, capsys, **{key: LONG})
    assert err == f"error: unrecognized amplitude token {repr(LONG)[:37]}...\n"
    assert len(err.encode()) < 300


def test_a_user_token_whose_repr_fits_in_40_characters_is_echoed_whole(capsys):
    assert main([*QUANTITIES_AT, "negativity_potential_closed_form"]) == 2
    assert capsys.readouterr().err == "error: unknown quantity 'negativity_potential_closed_form'\n"


@pytest.mark.parametrize(
    "kind,window",
    [("linear", "0:1e400"), ("linear", "inf:inf"), ("nonlinear", "0:inf")],
)
def test_non_finite_range_fails_without_a_warning(kind, window):
    # A fresh interpreter, so that numpy's warnings would reach stderr as they do for a user.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = ["sweep", "--kind", kind, "--d", "3", "--range", window, "--steps", "2"]
    out = subprocess.run(
        [sys.executable, "-m", "quditnc.cli", *args, "--quantities", "hoa:1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: amplitude range must be finite\n"


def test_argparse_rejects_unknown_verb():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


def test_config_file_supplies_the_spec(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "state_kind": "nonlinear",
                "d_list": [3],
                "amp_start": 0.0,
                "amp_stop": "Td/2",
                "steps": 3,
                "quantities": "hoa:1",
            }
        )
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "kind,d,amplitude,hoa_1"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "state_kind": "linear",
                "d_list": [3],
                "amp_start": 0.5,
                "amp_stop": 2.0,
                "steps": 3,
                "quantities": [["hoa", 1]],
            }
        )
    )
    assert main(["sweep", "--config", str(cfg), "--steps", "6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 7


def test_non_finite_value_exits_three(monkeypatch, capsys):
    bad = Quantity(lambda o: True, lambda block, orders: ([math.nan] * len(orders), False))
    monkeypatch.setitem(QUANTITIES, "hoa", bad)
    assert main(SWEEP_ARGS) == 3
    assert "non-finite" in capsys.readouterr().err


def test_a_sweep_that_exits_three_leaves_no_output_file(monkeypatch, tmp_path):
    bad = Quantity(lambda o: True, lambda block, orders: ([math.nan] * len(orders), False))
    monkeypatch.setitem(QUANTITIES, "hoa", bad)
    out = tmp_path / "rows.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 3
    assert not out.exists()


def test_main_probes_the_terminal_once(monkeypatch, tmp_path):
    # argparse's formatter would probe it for every parser and argument.
    calls = []
    probe = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or probe(*a))
    assert main([*SWEEP_ARGS, "--out", str(tmp_path / "rows.csv")]) == 0
    assert len(calls) == 1


def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys):
    sweep = ["sweep", "--kind", "nonlinear", "--d", "2,5", "--range", "0:1", "--steps", "3"]
    sweep += ["--quantities", "hoa:1,a3"]
    calls = {
        "csv": sweep + ["--format", "csv"],
        "json": sweep + ["--format", "json"],
        "report": ["report", "--kind", "linear", "--d", "8", "--amplitude", "1.3"],
        "klyshko": ["klyshko", "--kind", "nonlinear", "--d", "6", "--amplitudes", "0.5,Td/4"],
        "table1": ["table1"],
    }
    for name, args in calls.items():
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / name).read_text() == printed
        assert "singular" in printed or name not in ("csv", "json")


@pytest.mark.parametrize(
    "d,window,quantity,column,steps,amplitude",
    [
        pytest.param(
            "5", "0:1", "hosps:1100", "hosps_1100", 2, 0.0, id="5-0:1-hosps:1100-hosps_1100"
        ),
        pytest.param(
            "10", "3:3.5", "hoa:1000", "hoa_1000", 2, 3.0, id="10-3:3.5-hoa:1000-hoa_1000"
        ),
        # The mean photon number to the power 401 leaves the double range from
        # amplitude 2.75 on, to the powers 501 and 511 from 2.25 on: the first
        # non-finite cell, row by row and then in column order, is hoa_500.
        pytest.param("10", "0.5:3", "hoa:400", "hoa_400", 11, 2.75, id="mid-grid"),
        pytest.param(
            "10", "0.5:3", "hoa:400,hoa:500,hoa:510", "hoa_500", 11, 2.25, id="mid-grid-row-order"
        ),
    ],
)
def test_overflow_inside_a_quantity_exits_three(
    capsys, d, window, quantity, column, steps, amplitude
):
    args = ["sweep", "--kind", "linear", "--d", d, "--range", window, "--steps", str(steps)]
    assert main([*args, "--quantities", quantity]) == 3
    err = capsys.readouterr().err
    assert f"{column} is non-finite at kind=linear d={d} amplitude={amplitude!r}" in err
    assert "Traceback" not in err
    assert "Warning" not in err


def test_klyshko_levels_past_int64_read_zero(capsys):
    args = ["sweep", "--kind", "linear", "--d", "5", "--range", "0.5:1", "--steps", "2"]
    assert main([*args, "--quantities", "klyshko:1"]) == 0
    alone = capsys.readouterr().out.strip().split("\n")
    huge = "klyshko:1,klyshko:9223372036854775806,klyshko:18446744073709551616"
    assert main([*args, "--quantities", huge]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().split("\n")
    assert lines[0] == (
        "kind,d,amplitude,klyshko_1,klyshko_9223372036854775806,klyshko_18446744073709551616"
    )
    assert alone[1:] == ["linear,5,0.5,-2.1684043449710089e-19", "linear,5,1,0"]
    assert [line.rsplit(",", 2) for line in lines[1:]] == [[row, "0", "0"] for row in alone[1:]]
    assert err == ""


def test_a_grid_over_the_cell_budget_exits_two_before_any_allocation(monkeypatch, capsys):
    def allocation(*args, **kwargs):
        pytest.fail("the sweep allocated its grid")

    monkeypatch.setattr(sweep.np, "linspace", allocation)
    monkeypatch.setattr(sweep.np, "empty", allocation)
    args = ["sweep", "--kind", "linear", "--d", "5", "--range", "0.5:1", "--steps"]
    assert main([*args, "1000000000000", "--quantities", "hoa:1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the grid holds 2000000000000 cells, more than the 134217728 allowed\n"


def test_concurrence_closed_form_runs_past_515_levels(capsys):
    args = ["sweep", "--kind", "linear", "--d", "600", "--range", "0.1:1", "--steps", "2"]
    assert main([*args, "--quantities", "concurrence_closed_form"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "kind,d,amplitude,concurrence_closed_form"
    assert [math.isfinite(float(line.split(",")[-1])) for line in lines[1:]] == [True, True]


def test_an_overflow_in_the_exact_measures_exits_three(monkeypatch, capsys):
    # From d = 1031 on, sqrt(C(n, j)) leaves the double range while the
    # splitter's table is built, which takes seconds; here it fails at once.
    def overflow(d):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(measures, "_split_table", overflow)
    args = ["sweep", "--kind", "linear", "--d", "3", "--range", "0.5:2", "--steps", "2"]
    assert main([*args, "--quantities", "hoa:1,negativity_exact,concurrence_exact"]) == 3
    err = capsys.readouterr().err
    assert "negativity_exact is non-finite at kind=linear d=3 amplitude=0.5" in err
    assert "Traceback" not in err


def test_the_exact_measures_exit_three_at_once_from_1031_levels(capsys):
    # C(1030, 515) leaves the double range: the splitter's table refuses to be
    # built before it computes any of its half a million binomials.
    args = ["sweep", "--kind", "linear", "--d", "1031", "--range", "0.1:1", "--steps", "2"]
    started = time.perf_counter()
    assert main([*args, "--quantities", "negativity_exact,concurrence_exact"]) == 3
    assert time.perf_counter() - started < 5.0
    err = capsys.readouterr().err
    assert "negativity_exact is non-finite at kind=linear d=1031 amplitude=0.1" in err
    assert "Traceback" not in err


def test_a_linear_report_at_1000_levels_runs_in_seconds(capsys):
    # The splitter's table at d = 1000 comes from exact integer Pascal rows,
    # half a million entries, before one O(d^3) eigvalsh.
    started = time.perf_counter()
    assert main(["report", "--kind", "linear", "--d", "1000", "--amplitude", "3"]) == 0
    assert time.perf_counter() - started < 5.0
    out, err = capsys.readouterr()
    assert err == ""
    assert all(math.isfinite(value) for value in json.loads(out)["measures"].values())


def test_config_names_the_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"state_kind": "linear", "fromat": "json", "stpes": 3}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: malformed config: unknown key 'fromat'\n"


def test_a_deeply_nested_config_is_malformed(tmp_path, capsys):
    # json.loads raises RecursionError long before it reaches the innermost array.
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed config: ")
    assert "Traceback" not in err


def test_a_quantity_pair_of_one_item_is_malformed(tmp_path, capsys):
    spec = {"state_kind": "linear", "d_list": [3], "amp_start": 0.5, "amp_stop": 2.0, "steps": 3}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**spec, "quantities": [["hoa"]]}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: malformed config: a quantity must be a token or an [id, order] pair, "
        "got ['hoa']\n"
    )


def _malformed_config_error(tmp_path, capsys, **fields):
    spec = {"state_kind": "linear", "d_list": [3], "amp_start": 0.5, "amp_stop": 2.0, "steps": 3,
            "quantities": "hoa:1"}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**spec, **fields}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    return capsys.readouterr().err


def test_a_config_state_kind_that_names_no_kind_is_malformed(tmp_path, capsys):
    assert _malformed_config_error(tmp_path, capsys, state_kind=3.9) == (
        "error: malformed config: state_kind must be 'linear' or 'nonlinear', got 3.9\n"
    )


@pytest.mark.parametrize("key", ["format", "steps", "state_kind", "d_list"])
def test_a_deeply_nested_config_value_is_malformed_and_echoed_short(tmp_path, capsys, key):
    # The whole 900-deep value was echoed, about 1.8 KB of stderr.
    err = _malformed_config_error(tmp_path, capsys, **{key: json.loads("[" * 900 + "]" * 900)})
    assert err.startswith(f"error: malformed config: {key} must be ")
    assert len(err.encode()) < 300


def test_a_config_quantities_object_is_malformed(tmp_path, capsys):
    # Iterating an object read its keys: {"hoa": 1} became the token "hoa", with no order.
    assert _malformed_config_error(tmp_path, capsys, quantities={"hoa": 1}) == (
        "error: malformed config: quantities must be a string or a list, got {'hoa': 1}\n"
    )


def test_a_config_quantity_pair_whose_id_is_not_a_string_is_malformed(tmp_path, capsys):
    # str() made the id 3 into the quantity '3'.
    assert _malformed_config_error(tmp_path, capsys, quantities=[[3, 1]]) == (
        "error: malformed config: a quantity must be a token or an [id, order] pair, got [3, 1]\n"
    )


@pytest.mark.parametrize("d", [5, 40])
def test_the_nonlinear_vacuum_report_flags_nothing(capsys, d):
    # Built by the eigenbasis sum, the vacuum carried 1e-16 roundoff that flagged 2 witnesses
    # at d = 5 and 20 at d = 40.
    assert main(["report", "--kind", "nonlinear", "--d", str(d), "--amplitude", "0"]) == 0
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    assert witnesses and not [w for w in witnesses if w["nonclassical"]]


@pytest.mark.parametrize("kind,d", [("linear", 1031), ("linear", 2000), ("nonlinear", 1031)])
def test_a_report_past_1030_levels_exits_three(capsys, kind, d):
    # The splitter's sqrt(C(n, j)) leaves the double range from d = 1031.
    assert main(["report", "--kind", kind, "--d", str(d), "--amplitude", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "numerical failure: the report overflows the double range "
        f"at kind={kind} d={d} amplitude=1.0\n"
    )


def test_a_sweep_names_the_first_amplitude_whose_build_loses_its_norm(monkeypatch, capsys):
    build = states._linear_coefficients

    def off(d, moduli):
        rows = build(d, moduli)
        return rows * np.where(moduli >= 1.0, 1.01, 1.0)[:, None]

    monkeypatch.setattr(states, "_linear_coefficients", off)
    args = ["sweep", "--kind", "linear", "--d", "4", "--range=-2:2", "--steps", "5"]
    assert main([*args, "--quantities", "hoa:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the built state's amplitude norm 1.0")
    assert err.endswith(" deviates from 1 by more than 1e-06 at kind=linear d=4 amplitude=-2.0\n")


def test_a_build_that_loses_its_norm_exits_three_and_names_the_state(capsys):
    # The input is valid: at |alpha| = 1e14 he_roots' root pairing (7.1e-15 at d = 60) puts
    # the raw norm off by 1.1e-4.  The exactly paired half-basis build (ROADMAP item 5) keeps
    # it within 6e-16, and this test then needs another trigger.
    assert main(["report", "--kind", "nonlinear", "--d", "60", "--amplitude", "1e14"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: the built state's amplitude norm 0.9")
    assert err.endswith(
        " deviates from 1 by more than 1e-06 at kind=nonlinear d=60 amplitude=100000000000000.0\n"
    )


def test_report_verb_emits_full_payload(capsys):
    args = ["report", "--kind", "nonlinear", "--d", "3", "--amplitude", "Td/4"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "nonlinear"
    assert payload["d"] == 3
    names = {entry["name"] for entry in payload["witnesses"]}
    assert {"hoa", "hos", "hosps", "klyshko"} <= names
    assert "negativity_exact" in payload["measures"]


def test_table1_verb(capsys):
    assert main(["table1", "--tolerance", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cells"]) == 6
    assert all(cell["matched"] for cell in payload["cells"])


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_table1_tolerance_must_be_finite_and_positive(capsys, tolerance):
    # nan matched no cell and wrote a bare NaN into the JSON; inf matched every cell.
    assert main(["table1", f"--tolerance={tolerance}"]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--kind", "nonlinear", "--d", "61", "--range", "0:Td/2", "--steps", "3"]
        + ["--quantities", "hoa:1,anticlassicality"],
        ["report", "--kind", "nonlinear", "--d", "61", "--amplitude", "Td/4"],
        ["klyshko", "--kind", "nonlinear", "--d", "61", "--amplitudes", "Td/2,Td/4"],
    ],
    ids=["sweep", "report", "klyshko"],
)
def test_nonlinear_verbs_run_past_sixty_levels(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr().out


def test_klyshko_verb(capsys):
    args = ["klyshko", "--kind", "nonlinear", "--d", "2", "--amplitudes", "Td/2"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    bars = payload["entries"][0]["bars"]
    assert bars[0]["value"] == pytest.approx(-1.0, abs=1e-12)


def test_klyshko_verb_requires_amplitudes():
    assert main(["klyshko", "--kind", "linear", "--d", "3", "--amplitudes", " "]) == 2


@pytest.mark.parametrize("prefix", ["scipy.linalg", "scipy"])
def test_cli_import_leaves_scipy_linalg_unloaded(prefix):
    # scipy serves the tests and the dense oracle only; the CLI runs on numpy alone.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, quditnc.cli; "
        f"print([m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"



def test_a_csv_sweep_loads_no_dataclasses_json_or_scipy(tmp_path):
    # Every CLI call is a fresh interpreter, so what the import and a CSV sweep
    # load is paid on each call; JSON output and --config load json themselves.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = tmp_path / "sweep.json"
    spec = {"state_kind": "nonlinear", "d_list": [2, 5], "amp_start": 0, "amp_stop": "Td/2"}
    cfg.write_text(json.dumps({**spec, "steps": 3, "quantities": "a3", "format": "json"}))
    csv_args = SWEEP_ARGS + ["--out", str(tmp_path / "rows.csv")]
    json_args = SWEEP_ARGS + ["--format", "json", "--out", str(tmp_path / "flags.json")]
    config_args = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "config.json")]
    code = f"""
import sys
import quditnc.cli
assert quditnc.cli.main({csv_args!r}) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("dataclasses", "json", "scipy")))
assert quditnc.cli.main({json_args!r}) == 0
assert quditnc.cli.main({config_args!r}) == 0
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "rows.csv").read_text().startswith("kind,d,amplitude,hoa_1,a3\n")
    assert len(json.loads((tmp_path / "flags.json").read_text())) == 4
    rows = json.loads((tmp_path / "config.json").read_text())
    assert [(row["d"], row["a3"]) for row in rows][:2] == [(2, "singular"), (2, "singular")]


def test_a_json_sweep_loads_no_json(tmp_path):
    # The JSON writer formats every number and quotes every key itself: json is only
    # for reading a --config and for the other verbs' output.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = SWEEP_ARGS + ["--format", "json", "--out", str(tmp_path / "rows.json")]
    code = f"""
import sys
import quditnc.cli
assert quditnc.cli.main({args!r}) == 0
print("json" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    text = (tmp_path / "rows.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("order", [1000000, 10000000, 10**20])
def test_a_huge_hosps_order_exits_three_before_its_moments_are_built(monkeypatch, capsys, order):
    # C(order, r) leaves the double range within a few dozen shells: no more
    # factorial moments than that may be built first.
    built = []
    moment = fock.StateBlock.factorial_moment

    def counted(self, k):
        built.append(k)
        if len(built) > 300:
            pytest.fail("hosps built more than 300 factorial moments")
        return moment(self, k)

    monkeypatch.setattr(fock.StateBlock, "factorial_moment", counted)
    args = ["sweep", "--kind", "linear", "--d", "5", "--range", "0.5:1", "--steps", "2"]
    assert main([*args, "--quantities", f"hosps:{order}"]) == 3
    where = "kind=linear d=5 amplitude=0.5"
    assert capsys.readouterr().err == f"numerical failure: hosps_{order} is non-finite at {where}\n"


@pytest.mark.parametrize("d", ["0", "1", "-3"])
def test_the_klyshko_verb_refuses_fewer_than_two_levels(capsys, d):
    assert main(["klyshko", "--kind", "linear", f"--d={d}", "--amplitudes", "1"]) == 2
    assert capsys.readouterr().err == "error: dim must be at least 2\n"


HUGE_LEVEL_COUNTS = {
    "report": (["report", "--kind", "nonlinear", "--d", "100000", "--amplitude", "1"], 10**10),
    "sweep-nonlinear": (
        ["sweep", "--kind", "nonlinear", "--d", "100000", "--range", "0:1", "--steps", "2"]
        + ["--quantities", "hoa:1"],
        10**10,
    ),
    "klyshko": (
        ["klyshko", "--kind", "linear", "--d", "300000000", "--amplitudes", "1"], 3 * 10**8
    ),
    "sweep-linear": (
        ["sweep", "--kind", "linear", "--d", "300000000", "--range", "0:1", "--steps", "2"]
        + ["--quantities", "hoa:1"],
        3 * 10**8,  # the first block: one amplitude, as block_rows gives from 15,361 levels
    ),
}


@pytest.mark.parametrize("args,entries", HUGE_LEVEL_COUNTS.values(), ids=HUGE_LEVEL_COUNTS)
def test_a_huge_level_count_exits_two_before_the_state_build(monkeypatch, capsys, args, entries):
    def build(*args, **kwargs):
        pytest.fail("the state build was reached")

    for name in ("he_roots", "_linear_coefficients", "_nonlinear_coefficients", "_log_factorials"):
        monkeypatch.setattr(states, name, build)
    monkeypatch.setattr(states.np.linalg, "eigh", build)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: the state build holds {entries} entries, more than 134217728\n"


def test_a_klyshko_list_over_the_state_build_budget_exits_two(monkeypatch, capsys):
    # The amplitudes are one block: 257 of them at 2**19 levels are over 2**27 entries.  In
    # blocks of 256 amplitudes, each block was within the budget and the list was built.
    def build(*args, **kwargs):
        pytest.fail("the state build was reached")

    for name in ("_linear_coefficients", "_log_factorials"):
        monkeypatch.setattr(states, name, build)
    amplitudes = ",".join(["1"] * 257)
    assert main(["klyshko", "--kind", "linear", f"--d={2**19}", f"--amplitudes={amplitudes}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: the state build holds {257 * 2**19} entries, more than 134217728\n"


@pytest.mark.parametrize("d", [5, 60])
def test_a_nonlinear_report_near_the_double_limit_exits_three_without_a_warning(capsys, d):
    # x_k r overflows and the build's rows are nan: the input is valid, the build failed.
    # pytest turns a RuntimeWarning into an error: a warning fails this test.
    assert main(["report", "--kind", "nonlinear", "--d", str(d), "--amplitude", "1e308"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the built state's amplitude norm nan deviates from 1 by more than "
        f"1e-06 at kind=nonlinear d={d} amplitude=1e+308\n"
    )


def test_a_range_whose_width_overflows_exits_two_without_a_warning(capsys):
    args = ["sweep", "--kind", "nonlinear", "--d", "3", "--range=-1e308:1e308", "--steps", "3"]
    assert main([*args, "--quantities", "hoa:1"]) == 2
    assert capsys.readouterr().err == "error: amplitude range must be finite\n"
