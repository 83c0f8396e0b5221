"""Two process-level defaults, each left alone when the environment sets its own.

OpenBLAS's thread count: one by default, unless the user or numpy came first.  glibc's
malloc thresholds: the CLI keeps the heap one block frees mapped for the next, unless a
malloc setting is in the environment; importing quditnc leaves the allocator alone.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import quditnc

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
MALLOC_VARS = (
    "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_",
    "GLIBC_TUNABLES",
)
SHOW = f"import os; print([(k, os.environ[k]) for k in {THREAD_VARS!r} if k in os.environ])"
CRIT9 = [
    "sweep", "--kind", "nonlinear", "--d", "5", "--range", "0:Td/2", "--steps", "400",
    "--quantities",
    "hoa:1,hoa:2,hoa:3,hos:2,hos:4,hosps:2,hosps:3,hosps:4,a3,klyshko:0,klyshko:1,klyshko:2,"
    "negativity_closed_form,negativity_exact,concurrence_closed_form,concurrence_exact,"
    "anticlassicality,anticlassicality_excl_vacuum",
]
POPULATIONS = [
    "sweep", "--kind", "nonlinear", "--d", "10,20,30,40,50,60", "--range", "0:Td/2",
    "--steps", "400",
    "--quantities", "anticlassicality,anticlassicality_excl_vacuum,klyshko:0,klyshko:1,klyshko:2",
]
on_glibc = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap policy acts on glibc's malloc alone"
)


def _run(args, **settings) -> str:
    # A fresh interpreter whose environment holds no thread count or malloc setting but the
    # ones given: this process may have set the thread default itself when it imported quditnc.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + MALLOC_VARS}
    env.update(settings, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_importing_quditnc_first_sets_one_openblas_thread():
    assert _run(["-c", f"import quditnc; {SHOW}"]) == "[('OPENBLAS_NUM_THREADS', '1')]\n"


@pytest.mark.parametrize("name", THREAD_VARS)
def test_a_thread_count_the_user_set_is_left_alone(name):
    assert _run(["-c", f"import quditnc.cli; {SHOW}"], **{name: "2"}) == f"[({name!r}, '2')]\n"


def test_numpy_loaded_first_gets_no_thread_count():
    # OpenBLAS read the environment when numpy loaded: a count set later would not act.
    assert _run(["-c", f"import numpy, quditnc; {SHOW}"]) == "[]\n"


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="counts the threads in /proc/self/task, which a pool needs two CPUs to add to",
)
def test_the_default_starts_no_openblas_pool():
    threads = "import os, quditnc.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run(["-c", threads]) == "1\n"
    assert _run(["-c", threads], OPENBLAS_NUM_THREADS="2") == "2\n"


def test_the_criterion_9_sweep_writes_the_same_bytes_at_any_thread_count():
    one = _run(["-m", "quditnc.cli", *CRIT9])
    assert len(one.splitlines()) == 401
    assert _run(["-m", "quditnc.cli", *CRIT9], OPENBLAS_NUM_THREADS="1") == one
    pool = str(max(2, os.cpu_count() or 1))
    assert _run(["-m", "quditnc.cli", *CRIT9], OPENBLAS_NUM_THREADS=pool) == one


@on_glibc
@pytest.mark.parametrize(
    "setting",
    [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    ],
)
def test_a_malloc_setting_in_the_environment_wins_over_the_heap_policy(setting):
    check = "import quditnc.cli; print(quditnc.cli._keep_freed_heap())"
    assert _run(["-c", check], **setting) == "False\n"


# Records what the policy returned (as-is) or skips it (no-op), then prints the minor faults
# taken inside main.  The no-op keeps glibc's dynamic thresholds, which a MALLOC_* setting
# in the environment would switch off.
FAULTS = """
import resource, sys, quditnc.cli as cli
policy, kept = cli._keep_freed_heap, []
cli._keep_freed_heap = lambda: kept.append(policy()) if sys.argv[1] == "as-is" else None
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(sys.argv[2:]) == 0
print(kept, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@on_glibc
def test_the_cli_keeps_the_heap_one_block_frees(tmp_path):
    # One fresh interpreter a run: the policy is process-wide and cannot be undone, and a
    # second run in one process would find the nonlinear eigenbases cached.
    kept, faults = {}, {}
    for mode in ("as-is", "no-op"):
        printed = _run(["-c", FAULTS, mode, *POPULATIONS, "--out", str(tmp_path / mode)])
        kept[mode], count = printed.rsplit(" ", 1)
        faults[mode] = int(count)
    assert kept == {"as-is": "[True]", "no-op": "[]"}
    assert faults["as-is"] <= 0.6 * faults["no-op"], faults
    rows = (tmp_path / "as-is").read_bytes()
    assert len(rows.splitlines()) == 2401
    assert rows == (tmp_path / "no-op").read_bytes()
