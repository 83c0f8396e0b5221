"""Spans around calls into quditnc's modules, recorded from outside the program.

Each public function is wrapped by rebinding the name its calling module
looks up (for example ``quditnc.sweep.build_state``), so the program itself
is unchanged. Spans are kept in memory as [name, start, end, parent, error]
and written out once the sweep is done; ``summarize`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

#: (module that looks the name up, attribute, span name). A binding whose
#: attribute no longer exists is skipped, so its metrics read 0.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("quditnc.cli", "run_sweep", "sweep.run_sweep"),
    ("quditnc.cli", "write_rows_csv", "sweep.write_rows_csv"),
    ("quditnc.cli", "write_rows_json", "sweep.write_rows_json"),
    ("quditnc.sweep", "build_state", "states.build_state"),
    ("quditnc.states", "nonlinear_qcs", "states.nonlinear_qcs"),
    ("quditnc.states", "linear_qcs", "states.linear_qcs"),
    ("quditnc.sweep", "hoa", "witnesses.hoa"),
    ("quditnc.sweep", "hos_witness", "witnesses.hos_witness"),
    ("quditnc.witnesses", "hm_quadrature_moment", "witnesses.hm_quadrature_moment"),
    ("quditnc.sweep", "hosps", "witnesses.hosps"),
    ("quditnc.sweep", "agarwal_tara", "witnesses.agarwal_tara"),
    ("quditnc.sweep", "klyshko", "witnesses.klyshko"),
    ("quditnc.witnesses", "build_moment_table", "fock.build_moment_table"),
    ("quditnc.fock", "photon_probabilities", "fock.photon_probabilities"),
    ("quditnc.witnesses", "photon_probabilities", "fock.photon_probabilities"),
    ("quditnc.measures", "photon_probabilities", "fock.photon_probabilities"),
    ("quditnc.sweep", "beamsplit", "measures.beamsplit"),
    ("quditnc.sweep", "log_negativity_exact", "measures.log_negativity_exact"),
    ("quditnc.sweep", "concurrence_exact", "measures.concurrence_exact"),
    (
        "quditnc.sweep",
        "negativity_potential_closed_form",
        "measures.negativity_potential_closed_form",
    ),
    ("quditnc.sweep", "concurrence_closed_form", "measures.concurrence_closed_form"),
    ("quditnc.sweep", "anticlassicality", "measures.anticlassicality"),
)

#: Modules whose share of run_sweep is reported (spans directly under run_sweep).
SHARE_MODULES = ("states", "witnesses", "measures")

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_quditnc_s": "s",
    "states.build_state.calls": "count",
    "states.build_state.busy_s": "s",
    "states.nonlinear_qcs.busy_s": "s",
    "states.linear_qcs.busy_s": "s",
    "states.he_roots.hit_ratio": "ratio",
    **{
        f"witnesses.{fn}.{stat}": unit
        for fn in (
            "hoa",
            "hos_witness",
            "hm_quadrature_moment",
            "hosps",
            "agarwal_tara",
            "klyshko",
        )
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "witnesses.agarwal_tara.singular": "count",
    "fock.build_moment_table.busy_s": "s",
    "fock.photon_probabilities.calls": "count",
    **{
        f"measures.{fn}.{stat}": unit
        for fn in (
            "beamsplit",
            "log_negativity_exact",
            "concurrence_exact",
            "negativity_potential_closed_form",
            "concurrence_closed_form",
            "anticlassicality",
        )
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "sweep.run_sweep.self_s": "s",
    "sweep.write_rows_csv.busy_s": "s",
    "sweep.write_rows_json.busy_s": "s",
    "sweep.output_bytes": "bytes",
    **{f"{module}.share_pct": "%" for module in SHARE_MODULES},
    "trace.overhead_s": "s",
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, bindings=BINDINGS) -> None:
        for module_name, attr, span_name in bindings:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(span_name, fn))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep: calls, busy and self time, errors."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    under_sweep: dict[str, float] = defaultdict(float)
    for name, start, end, parent, error in spans:
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        self_time[name] += dur
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] -= dur
            if parent_name == "sweep.run_sweep":
                under_sweep[name.split(".")[0]] += dur
        if error is not None:
            errors[(name, error)] += 1

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[base]
        elif stat == "busy_s":
            out[metric] = busy[base]
    out["witnesses.agarwal_tara.singular"] = errors[
        ("witnesses.agarwal_tara", "SingularMomentMatrix")
    ]
    out["sweep.run_sweep.self_s"] = self_time["sweep.run_sweep"]
    sweep_s = busy["sweep.run_sweep"]
    for module in SHARE_MODULES:
        out[f"{module}.share_pct"] = 100.0 * under_sweep[module] / sweep_s if sweep_s else 0.0
    return out
