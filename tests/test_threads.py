"""OpenBLAS's thread count: one by default, unless the user or numpy came first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditnc

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SHOW = f"import os; print([(k, os.environ[k]) for k in {THREAD_VARS!r} if k in os.environ])"
CRIT9 = [
    "sweep", "--kind", "nonlinear", "--d", "5", "--range", "0:Td/2", "--steps", "400",
    "--quantities",
    "hoa:1,hoa:2,hoa:3,hos:2,hos:4,hosps:2,hosps:3,hosps:4,a3,klyshko:0,klyshko:1,klyshko:2,"
    "negativity_closed_form,negativity_exact,concurrence_closed_form,concurrence_exact,"
    "anticlassicality,anticlassicality_excl_vacuum",
]


def _run(args, **threads) -> str:
    # A fresh interpreter whose environment holds no thread count but the ones given:
    # this process may have set the default itself when it imported quditnc.
    src = str(Path(quditnc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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
