"""Self-tests of the benchmark: inputs from seeds, the gate, span summaries.

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

from workloads import SRC, START_CHOICES, WORKLOADS

sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import spans  # noqa: E402
from quditnc.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_argv_and_grid(name):
    w = WORKLOADS[name]
    assert w.argv(7, "out") == w.argv(7, "out")
    assert w.grid(7) == w.grid(7)
    assert w.grid(0)[0][1] == 0.0
    assert w.grid(7) != w.grid(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_does_the_same_work(name):
    w = WORKLOADS[name]
    canonical = w.argv(0, "out")
    for seed in range(2 * START_CHOICES):
        argv = w.argv(seed, "out")
        assert len(w.grid(seed)) == w.rows
        differ = [i for i, (a, b) in enumerate(zip(argv, canonical)) if a != b]
        assert all(argv[i - 1] == "--range" for i in differ)
        start = float(argv[argv.index("--range") + 1].partition(":")[0])
        assert 0.0 <= start < 0.2


@pytest.fixture(scope="module")
def wide_d_output(tmp_path_factory):
    w = WORKLOADS["wide_d"]
    path = tmp_path_factory.mktemp("out") / "wide_d.json"
    assert cli_main(w.argv(5, path)) == 0
    return w, path


def _verdict(w, path, seed=5, returncode=0):
    return gate.check(w, seed, returncode, path, gate.load_reference())


def test_untouched_output_passes(wide_d_output):
    w, path = wide_d_output
    verdict = _verdict(w, path)
    assert (verdict.attempted, verdict.failed) == (w.rows, 0), verdict.problems


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows, i, col: rows[i].__setitem__(col, rows[i][col] * (1 + 1e-6) + 1e-6),
        lambda rows, i, col: rows[i].__setitem__(col, float("nan")),
        lambda rows, i, col: rows[i].pop(col),
        lambda rows, i, col: rows.pop(),
        lambda rows, i, col: rows[i].__setitem__("amplitude", rows[i]["amplitude"] + 0.5),
    ],
    ids=["perturbed", "nan", "missing", "truncated", "off-grid"],
)
def test_corrupted_output_fails_rows(wide_d_output, tmp_path, corrupt):
    w, path = wide_d_output
    rows = gate.read_rows(path, "json")
    i = gate.sample_rows(w, 5)[3]
    corrupt(rows, i, "hosps_4")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rows))
    verdict = _verdict(w, bad)
    assert verdict.failed > 0


def test_nonzero_exit_fails_every_row(wide_d_output):
    w, path = wide_d_output
    verdict = _verdict(w, path, returncode=2)
    assert verdict.failed == verdict.attempted == w.rows


def test_oracle_route_catches_a_wrong_witness(tmp_path):
    w = WORKLOADS["crit9"]
    path = tmp_path / "crit9.csv"
    assert cli_main(w.argv(0, path)) == 0
    assert _verdict(w, path, seed=0).failed == 0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = gate.sample_rows(w, 0)[0] + 1
    cells = lines[row].split(",")
    col = header.index("hos_4")
    cells[col] = repr(float(cells[col]) + 1e-3)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert _verdict(w, path, seed=0).failed == 1


def test_summarize_self_time_and_errors():
    recorded = [
        ["sweep.run_sweep", 0.0, 10.0, -1, None],
        ["states.build_state", 1.0, 3.0, 0, None],
        ["witnesses.agarwal_tara", 4.0, 5.0, 0, "SingularMomentMatrix"],
        ["fock.build_moment_table", 4.0, 4.5, 2, None],
        ["witnesses.hoa", 6.0, 7.0, 0, None],
    ]
    out = spans.summarize(recorded)
    assert out["sweep.run_sweep.self_s"] == pytest.approx(6.0)
    assert out["states.build_state.calls"] == 1
    assert out["witnesses.agarwal_tara.singular"] == 1
    assert out["fock.build_moment_table.busy_s"] == pytest.approx(0.5)
    assert out["witnesses.share_pct"] == pytest.approx(20.0)
    assert out["states.share_pct"] == pytest.approx(20.0)


def test_tracer_records_parents_and_reraises():
    tracer = spans.Tracer()

    def inner():
        raise ZeroDivisionError

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(ZeroDivisionError):
        outer()
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, "ZeroDivisionError"),
        ("inner", 0, "ZeroDivisionError"),
    ]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_benchmark_json_matches_the_code():
    import run
    from workloads import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
