"""Command-line behavior: verbs, exit codes, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditnc
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
    bad = Quantity("hoa", True, lambda o: True, lambda block, o: [float("nan")] * len(block))
    monkeypatch.setitem(QUANTITIES, "hoa", bad)
    assert main(SWEEP_ARGS) == 3
    assert "non-finite" in capsys.readouterr().err


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


def test_klyshko_verb(capsys):
    args = ["klyshko", "--kind", "nonlinear", "--d", "2", "--amplitudes", "Td/2"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    bars = payload["entries"][0]["bars"]
    assert bars[0]["value"] == pytest.approx(-1.0, abs=1e-12)


def test_klyshko_verb_requires_amplitudes():
    assert main(["klyshko", "--kind", "linear", "--d", "3", "--amplitudes", " "]) == 2


def test_cli_import_leaves_scipy_linalg_unloaded():
    # The dense oracle is the only user of scipy.linalg; the CLI must not pay for it.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, quditnc.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
