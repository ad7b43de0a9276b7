"""Per-layer instrumentation of ``repro`` for the traced run.

:func:`install` wraps the public functions of each measured module (see
the table in ``README.md``); :func:`per_layer_metrics` turns the spans
and the engine's own counters into the ``per_layer`` metrics named in
``BENCHMARK.json``; :func:`wrapper_violations` fails the run when a
wrapper stayed silent on the workload meant to exercise it.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List, Tuple

from tracing import GROUPS, STEP_GROUPS, Patches, Spans

#: The sections of ``repro report`` (the seventh has two parts): metric
#: name, module, function.
PHASES = (
    ("table1", "repro.report", "loc_table"),
    ("table3", "repro.perf", "run_table3"),
    ("figure8", "repro.perf", "run_figure8"),
    ("figure9", "repro.perf", "run_figure9"),
    ("litmus", "repro.litmus", "run_corpus"),
    ("sekvm", "repro.sekvm", "verify_sekvm"),
    ("sync", "repro.sync", "verify_all"),
    ("contention", "repro.perf.contention", "run_contention_study"),
)

#: Wrapped functions: span name, defining module, function.
FUNCTIONS = (
    ("explore", "repro.memory.exploration", "explore"),
    ("step", "repro.memory.semantics", "execute_instruction"),
    ("promise", "repro.memory.semantics", "promise_steps"),
    ("tso_flush", "repro.memory.semantics", "tso_flush_steps"),
    ("certify", "repro.memory.semantics", "certify"),
    ("candidates", "repro.memory.semantics", "collect_promise_candidates"),
    ("cache.cached_explore", "repro.memory.cache", "cached_explore"),
    ("cache.key", "repro.memory.cache", "exploration_key"),
    ("cache.monitored_key", "repro.memory.cache",
     "monitored_exploration_key"),
    ("vrm.verify_wdrf", "repro.vrm.verifier", "verify_wdrf"),
    ("vrm.drf_kernel", "repro.vrm.drf_kernel", "check_drf_kernel"),
    ("vrm.barrier_misuse", "repro.vrm.barrier_misuse",
     "check_no_barrier_misuse"),
    ("vrm.theorem2", "repro.vrm.theorem", "check_theorem2"),
    ("perf.simulate_operation", "repro.perf.hypersim", "simulate_operation"),
    ("perf.simulate_scaling", "repro.perf.scaling", "simulate_scaling"),
)

#: Modules that must hold a wrapper: a binding missed there would let
#: calls through unrecorded.
REQUIRED_SITES = {
    "step": ("repro.memory.exploration", "repro.memory.semantics"),
    "promise": ("repro.memory.exploration",),
    "tso_flush": ("repro.memory.exploration",),
    "explore": ("repro.memory.cache", "repro.memory"),
    "vrm.drf_kernel": ("repro.sync.verify",),
    "vrm.barrier_misuse": ("repro.sync.verify",),
    "vrm.theorem2": ("repro.sync.verify",),
}

ENGINE = ("report_cold", "promise_heavy")
REPORT = ("report_cold", "report_warm")
#: Workloads on which each wrapper must record at least one call.
#: ``tso_flush`` runs only under the TSO model, which no workload uses.
EXPECTED_CALLS = {
    **{f"phase.{name}": REPORT for name, _, _ in PHASES},
    "explore": ENGINE, "step": ENGINE, "promise": ENGINE,
    "certify": ENGINE, "candidates": ENGINE, "por.ample": ENGINE,
    "intern.key": ENGINE, "tso_flush": (),
    "cache.cached_explore": REPORT, "cache.key": REPORT,
    "cache.monitored_key": REPORT, "vrm.verify_wdrf": REPORT,
    "vrm.drf_kernel": REPORT, "vrm.barrier_misuse": REPORT,
    "vrm.theorem2": REPORT, "perf.simulate_operation": REPORT,
    "perf.simulate_scaling": REPORT,
}


class EngineTotals:
    """Sums of the engine's own counters over every wrapped
    ``explore`` result."""

    def __init__(self) -> None:
        self.states = 0
        self.stats: Dict[str, int] = {}

    def add(self, result) -> None:
        self.states += result.states_explored
        if result.stats is not None:
            for name, value in result.stats.as_dict().items():
                self.stats[name] = self.stats.get(name, 0) + value

    def get(self, name: str) -> int:
        return self.stats.get(name, 0)


def _step_namer():
    labels = {cls: f"step.{group}" for cls, group in STEP_GROUPS.items()}

    def name_of(cache, state, tidx, cfg):
        pc = state.threads[tidx].pc
        if pc >= cache.thread_len(tidx):
            return "step.Control"
        return labels[type(cache.instr_at(tidx, pc)).__name__]

    return name_of


def install(spans: Spans, patches: Patches, totals: EngineTotals) -> List[str]:
    """Wrap every measured function; returns missing required sites."""
    for _, module, _ in PHASES + FUNCTIONS:
        importlib.import_module(module)
    for name, module, attr in PHASES:
        patches.function(module, attr,
                         lambda fn, n=f"phase.{name}": spans.wrap(fn, n),
                         f"phase.{name}")
    special = {
        "explore": dict(aux=lambda r: r.states_explored,
                        on_result=totals.add),
        "step": dict(aux=len, name_of=_step_namer()),
    }
    for name, module, attr in FUNCTIONS:
        opts = special.get(name, {})
        patches.function(module, attr,
                         lambda fn, n=name, o=opts: spans.wrap(fn, n, **o),
                         name)
    from repro.memory.por import PORPlan
    from repro.memory.state import StateInterner

    patches.method(PORPlan, "ample_thread",
                   lambda fn: spans.wrap(fn, "por.ample"), "por.ample")
    patches.method(StateInterner, "key",
                   lambda fn: spans.wrap(fn, "intern.key"), "intern.key")
    missing = []
    for label, modules in REQUIRED_SITES.items():
        for module in modules:
            if module not in patches.sites.get(label, ()):
                missing.append(f"no {label} wrapper in {module}")
    return missing


def wrapper_violations(workload: str, calls: Dict[str, int]) -> List[str]:
    """Silent wrappers on the workload meant to exercise them, plus
    any exploration on the warm report."""
    out = [
        f"{label} recorded 0 calls on {workload}"
        for label, workloads in EXPECTED_CALLS.items()
        if workload in workloads and calls.get(label, 0) == 0
    ]
    if workload == "report_warm" and calls.get("explore", 0):
        out.append(f"explore ran {calls['explore']} times on report_warm")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: Spans,
    totals: EngineTotals,
    lookups: Dict[str, Dict[str, int]],
    disk: Dict[str, int],
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, int]]:
    """The in-process per-layer metrics and each wrapper's call count."""
    summary = spans.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "aux": 0}

    def span(name):
        return summary.get(name, empty)

    m: Dict[str, Tuple[float, str]] = {}
    for name, _, _ in PHASES:
        m[f"phase.{name}_s"] = (span(f"phase.{name}")["s"], "s")
    ex = span("explore")
    m["explore.calls"] = (ex["calls"], "count")
    m["explore.s"] = (ex["s"], "s")
    m["explore.self_s"] = (ex["self_s"], "s")
    m["explore.states"] = (totals.states, "count")
    m["explore.successors"] = (totals.get("successors_generated"), "count")
    m["explore.states_per_s"] = (_ratio(totals.states, ex["s"]), "1/s")
    for group in GROUPS:
        st = span(f"step.{group}")
        m[f"step.{group}.calls"] = (st["calls"], "count")
        m[f"step.{group}.s"] = (st["s"], "s")
        m[f"step.{group}.successors"] = (st["aux"], "count")
    m["promise.calls"] = (span("promise")["calls"], "count")
    m["promise.s"] = (span("promise")["s"], "s")
    for name, field in (("certify", "certify"), ("candidates", "candidate")):
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.s"] = (span(name)["s"], "s")
        m[f"{name}.memo_hit_ratio"] = (
            _ratio(totals.get(f"{field}_memo_hits"),
                   totals.get(f"{field}_calls")), "ratio")
    m["cert_budget_hits"] = (totals.get("cert_budget_hits"), "count")
    amp = span("por.ample")
    m["por.ample.calls"] = (amp["calls"], "count")
    m["por.ample.s"] = (amp["s"], "s")
    m["por.ample.hits"] = (totals.get("por_ample_hits"), "count")
    m["por.ample.hit_ratio"] = (
        _ratio(totals.get("por_ample_hits"), amp["calls"]), "ratio")
    m["por.gate_skips"] = (totals.get("por_gate_skips"), "count")
    m["intern.key.calls"] = (span("intern.key")["calls"], "count")
    m["intern.key.s"] = (span("intern.key")["s"], "s")
    m["intern.timelines"] = (totals.get("interner_timelines"), "count")
    key_calls, key_s = spans.outermost(("cache.key", "cache.monitored_key"))
    m["cache.key.calls"] = (key_calls, "count")
    m["cache.key.s"] = (key_s, "s")
    m["cache.self_s"] = (
        span("cache.cached_explore")["s"]
        - spans.child_seconds("cache.cached_explore", "explore"), "s")
    for layer in ("memo", "disk"):
        m[f"cache.lookup.{layer}.hits"] = (
            lookups["hits"].get(layer, 0), "count")
    for layer in ("explore", "monitored"):
        m[f"cache.lookup.{layer}.misses"] = (
            lookups["misses"].get(layer, 0), "count")
    m["cache.disk.entries"] = (disk["entries"], "count")
    m["cache.disk.bytes"] = (disk["bytes"], "B")
    m["vrm.verify_wdrf.calls"] = (span("vrm.verify_wdrf")["calls"], "count")
    m["vrm.verify_wdrf.s"] = (span("vrm.verify_wdrf")["s"], "s")
    for name in ("drf_kernel", "barrier_misuse", "theorem2"):
        m[f"vrm.{name}.s"] = (span(f"vrm.{name}")["s"], "s")
    m["vrm.monitor_stops"] = (totals.get("monitor_stops"), "count")
    m["vrm.fused_conditions"] = (totals.get("fused_conditions"), "count")
    for name in ("simulate_operation", "simulate_scaling"):
        m[f"perf.{name}.calls"] = (span(f"perf.{name}")["calls"], "count")
        m[f"perf.{name}.s"] = (span(f"perf.{name}")["s"], "s")

    calls = {name: s["calls"] for name, s in summary.items()}
    calls["step"] = sum(span(f"step.{g}")["calls"] for g in GROUPS)
    return m, calls


SERVE_COUNTERS = ("hot_hits", "disk_hits", "coalesced", "computed", "shed",
                  "rejected")


def serve_metrics(
    counters: Dict[str, int],
    by_source: Dict[str, List[float]],
) -> Dict[str, Tuple[float, str]]:
    """Serve-layer metrics from one fresh server's ``/v1/stats``
    counters and the latency of its responses grouped by ``source``."""
    m: Dict[str, Tuple[float, str]] = {
        f"serve.{k}": (counters.get(k, 0), "count") for k in SERVE_COUNTERS
    }
    warm = sum(counters.get(k, 0) for k in ("hot_hits", "disk_hits",
                                             "coalesced"))
    m["serve.cache_hit_rate"] = (_ratio(warm, counters.get("submitted", 0)),
                                 "ratio")
    for source in ("hot", "coalesced", "computed"):
        samples = by_source.get(source)
        p50 = statistics.median(samples) * 1e3 if samples else 0.0
        m[f"serve.latency.{source}_p50_ms"] = (p50, "ms")
    return m
