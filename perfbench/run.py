"""Benchmark of `quditnc sweep`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; quditnc is imported from its
``src`` directory. For S seconds the benchmark runs the workload's sweep
again and again, each time in a fresh interpreter and one at a time, with
BLAS at its default thread count. Every output then goes through the
correctness gate (gate.py), outside the timed region.

The machine this runs on may be shared, and its speed then drifts by up
to 2x within minutes. So right after its sweep each child times a fixed
calibration task that does not touch quditnc (child.calibrate), and every
time metric is scaled by CALIBRATION_REF_S over that timing: it reads as
seconds on a machine that runs the calibration in CALIBRATION_REF_S.
rows_per_s is scaled the other way; memory is not.

--trace 0 reports the end-to-end metrics, each the median over the sweeps.
--trace 1 alternates untraced sweeps with traced ones (spans.py) and reports
the per-layer metrics, medians over the traced sweeps, plus the tracing
overhead. ``--workload all`` does both for every workload and prints every
metric. The last line of stdout is one JSON object: correct, attempted and
failed rows, and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
from workloads import ROOT, SRC, WORKLOADS, Workload, git_sha

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_SWEEPS = 3
CHILD_TIMEOUT_S = 120
#: The calibration task's duration that metrics are scaled to (2-vCPU VM, quiet).
CALIBRATION_REF_S = 0.2

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sweep:
    returncode: int
    report: dict
    t_spawn: float
    output_digest: str | None
    output_bytes: int


def run_child(mode: str, argv: list[str], spans_path: Path | str = "-") -> tuple[int, dict, float]:
    cmd = [sys.executable, str(CHILD), mode, str(SRC), str(spans_path), "--", *argv]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, {}, t_spawn
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode, {}, t_spawn
    return 0, json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def run_sweep(workload: Workload, seed: int, work: Path, index: int, traced: bool) -> Sweep:
    out = work / f"out{index}.{workload.output_format}"
    spans_path = work / "spans.json"
    code, report, t_spawn = run_child(
        "traced" if traced else "plain", workload.argv(seed, out), spans_path
    )
    digest, size = None, 0
    if out.exists():
        data = out.read_bytes()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        keep = work / f"{digest}.{workload.output_format}"
        if keep.exists():
            out.unlink()
        else:
            out.rename(keep)
    if traced and code == 0:
        report["layers"] = spans.summarize(json.loads(spans_path.read_text()))
        spans_path.unlink()
    return Sweep(code, report, t_spawn, digest, size)


def end_to_end(workload: Workload, sweep: Sweep) -> dict[str, float]:
    r = sweep.report
    k = CALIBRATION_REF_S / r["calibration_s"]
    return {
        "wall_s": k * (r["t_main1"] - sweep.t_spawn),
        "setup_s": k * (r["t_import"] - sweep.t_spawn),
        "rows_per_s": workload.rows / (k * (r["t_main1"] - r["t_main0"])),
        "cpu_s": k * r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(workload: Workload, traced: list[Sweep], plain: list[Sweep]) -> dict[str, float]:
    samples = []
    for sweep in traced:
        hits, misses = sweep.report["he_roots"]
        imports = sweep.report["imports"]
        samples.append(
            {
                **sweep.report["layers"],
                "cli.import_numpy_s": imports["numpy"],
                "cli.import_scipy_s": imports["scipy"],
                "cli.import_quditnc_s": imports["quditnc"],
                "states.he_roots.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "sweep.output_bytes": sweep.output_bytes,
            }
        )
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    def wall(sweeps: list[Sweep]) -> float:
        return statistics.median(end_to_end(workload, s)["wall_s"] for s in sweeps)

    out["trace.overhead_s"] = wall(traced) - wall(plain)
    return {name: out[name] for name in spans.PER_LAYER}


def measure(workload: Workload, seed: int, seconds: int, trace: bool, work: Path):
    """Sweep for `seconds`, gate the outputs, return (verdict, metrics)."""
    sweeps: list[tuple[bool, Sweep]] = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(sweeps) % 2 == 1
        sweeps.append((traced, run_sweep(workload, seed, work, len(sweeps), traced)))
        n_traced = sum(t for t, _ in sweeps)
        enough = len(sweeps) - n_traced >= MIN_SWEEPS and (not trace or n_traced >= MIN_SWEEPS)
        if enough and time.monotonic() >= deadline:
            break

    reference = gate.load_reference()
    verdicts: dict[tuple, gate.Verdict] = {}
    total = gate.Verdict(0, 0)
    for _, sweep in sweeps:
        key = (sweep.returncode, sweep.output_digest)
        if key not in verdicts:
            path = work / f"{sweep.output_digest}.{workload.output_format}"
            verdicts[key] = gate.check(workload, seed, sweep.returncode, path, reference)
            for problem in verdicts[key].problems:
                print(f"gate {workload.name}: {problem}", file=sys.stderr)
        total.attempted += verdicts[key].attempted
        total.failed += verdicts[key].failed

    ok = [(t, s) for t, s in sweeps if s.returncode == 0]
    plain = [s for t, s in ok if not t]
    traced = [s for t, s in ok if t]
    if not plain or (trace and not traced):
        return total, None
    if trace:
        metrics = per_layer(workload, traced, plain)
        units = spans.PER_LAYER
    else:
        samples = [end_to_end(workload, s) for s in plain]
        metrics = {k: statistics.median(s[k] for s in samples) for k in END_TO_END}
        units = END_TO_END
    return total, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def environment(seed: int) -> dict:
    """Versions and machine facts; the probe child also warms the file cache."""
    code, probe, _ = run_child("probe", [])
    if code != 0:
        raise RuntimeError("quditnc could not be imported from the checkout")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "nproc": os.cpu_count(),
        "blas_threads": probe["blas_threads"],
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "quditnc" / "cli.py").is_file():
        print(f"no quditnc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not gate.REFERENCE.is_file():
        print(f"missing {gate.REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        runs = [(w, trace) for w in WORKLOADS.values() for trace in (False, True)]
    else:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(args.seed)))
        attempted = failed = 0
        metrics: dict[str, dict] = {}
        for workload, trace in runs:
            verdict, found = measure(workload, args.seed, args.seconds, trace, work)
            attempted += verdict.attempted
            failed += verdict.failed
            print(f"{workload.name} trace={int(trace)} error_rate={verdict.failed / verdict.attempted:.6g}")
            if found is None:
                print(f"{workload.name}: no sweep succeeded", file=sys.stderr)
                return 1
            for name, m in found.items():
                print(f"  {workload.name:12s} {name:44s} {m['value']:14.6g} {m['unit']}")
                metrics[f"{workload.name}.{name}" if args.workload == "all" else name] = m
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
