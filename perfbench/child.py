"""One `quditnc sweep` in a fresh interpreter, as a CLI user would run it.

    python3 child.py MODE SRC SPANS -- QUDITNC_ARGV...

MODE is ``plain`` (no instrumentation), ``traced`` (staged imports, then
spans around every module call, written to SPANS) or ``probe`` (import
only, and report the environment). SRC is the ``src`` directory quditnc
must be imported from. The last line of stdout is a JSON object with
CLOCK_MONOTONIC stamps, which the parent compares with its own spawn time,
CPU time and peak memory of the sweep, and the duration of a calibration
task run after the sweep in the same process, so that it sees the same
share of a contended CPU.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    # OpenBLAS as bundled with numpy wheels; None when another BLAS is loaded.
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> float:
    """Seconds taken by fixed work that quditnc does not touch: Python calls
    into small numpy operations, then 60x60 SVDs at the default BLAS thread
    count, the mix of the sweeps' hot paths."""
    import math

    import numpy as np

    x = np.arange(60.0)
    a = np.random.default_rng(0).standard_normal((60, 60))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80_000):
        acc += float(np.dot(x, x)) + math.sqrt(i)
    for _ in range(500):
        np.linalg.svd(a, compute_uv=False)
    return time.perf_counter() - t0


def _peak_rss_kb() -> int:
    # VmHWM covers this address space only; ru_maxrss would also count the
    # parent's resident set at the time it spawned this process.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, src, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced", "probe"):
        print("usage: child.py plain|traced|probe SRC SPANS -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    report: dict = {}

    if mode == "traced":
        stamps = [time.monotonic()]
        import numpy  # noqa: F401

        stamps.append(time.monotonic())
        import scipy.linalg  # noqa: F401
        import scipy.special  # noqa: F401

        stamps.append(time.monotonic())
    import quditnc.cli

    report["t_import"] = time.monotonic()
    if mode == "traced":
        stamps.append(report["t_import"])
        report["imports"] = {
            name: b - a for name, a, b in zip(("numpy", "scipy", "quditnc"), stamps, stamps[1:])
        }

    module_path = Path(quditnc.cli.__file__).resolve()
    if Path(src).resolve() not in module_path.parents:
        print(f"quditnc was imported from {module_path}, not from {src}", file=sys.stderr)
        return 4

    if mode == "probe":
        import numpy
        import scipy

        report.update(
            python=sys.version.split()[0],
            numpy=numpy.__version__,
            scipy=scipy.__version__,
            blas_threads=_blas_threads(),
        )
        print(json.dumps(report))
        return 0

    main_fn = quditnc.cli.main
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", main_fn)

    report["t_main0"] = time.monotonic()
    code = main_fn(argv)
    report["t_main1"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=_peak_rss_kb() / 1024.0)
    report["calibration_s"] = calibrate()
    if tracer is not None:
        tracer.dump(spans_path)
        he_roots = getattr(quditnc.states.he_roots, "cache_info", None)
        report["he_roots"] = list(he_roots()[:2]) if he_roots else [0, 0]
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
