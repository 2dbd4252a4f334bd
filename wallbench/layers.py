"""Per-layer tracing from outside the program.

:meth:`Tracer.install` replaces each layer's entry points with wrappers
that record wall time and calls.  A function is replaced everywhere the
program holds it by name: on its own module and on every ``repro``
module that imported it.  Self time is a call's duration minus the time
of wrapped calls nested inside it, so the self times of all layers add
up to at most the traced wall time; the remainder is ``untraced_s``.
Every figure is reported per timed round, so runs of different length
compare.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: (layer metric prefix, module, attribute) — "Class.method" for methods
ENTRY_POINTS = [
    ("sched.schedule", "repro.sched.scheduler", "Scheduler.schedule"),
    ("api.stage", "repro.api.cluster", "Cluster.stage_resident"),
    ("api.host", "repro.api.cluster", "Cluster.host"),
    ("api.online.handle", "repro.api.online.daemon", "ServeDaemon.handle"),
    ("api.online.flush", "repro.api.online.daemon", "ServeDaemon.flush"),
    ("dist.to_global", "repro.dist.distmatrix", "DistMatrix.to_global"),
    ("backend.execute_plan", "repro.backend.sim", "SimBackend.execute_plan"),
    ("machine.charge", "repro.machine.machine", "Machine.charge"),
    ("machine.charge", "repro.machine.machine", "Machine.charge_local"),
    ("machine.charge", "repro.machine.machine", "Machine.charge_uniform_flops"),
    ("trsm.it_inv_trsm", "repro.trsm.iterative", "it_inv_trsm"),
    ("trsm.rec_trsm", "repro.trsm.recursive", "rec_trsm"),
    ("trsm.diagonal_inverter", "repro.trsm.diagonal_inverter", "diagonal_inverter"),
    ("inversion.rec_tri_inv", "repro.inversion.rec_tri_inv", "rec_tri_inv"),
    ("mm.mm3d", "repro.mm.mm3d", "mm3d"),
    ("util.residual", "repro.util.checking", "relative_residual"),
    ("util.randmat", "repro.util.randmat", "random_dense"),
    ("util.randmat", "repro.util.randmat", "random_lower_triangular"),
] + [
    ("machine.collectives", "repro.machine.collectives", name)
    for name in (
        "allgather",
        "allgather_blocks",
        "scatter",
        "gather",
        "reduce_scatter",
        "bcast",
        "reduce",
        "allreduce",
        "alltoall",
        "sendrecv",
        "send",
        "grid_transpose",
    )
]

#: layers whose call count is reported (as <layer>_calls, or the name given)
COUNTED = {
    "sched.schedule": "sched.schedule_calls",
    "api.host": "api.host_calls",
    "api.online.flush": "api.online.flushes",
    "dist.to_global": "dist.to_global_calls",
    "backend.execute_plan": "backend.execute_plan_calls",
    "machine.charge": "machine.charge_calls",
    "machine.collectives": "machine.collectives_calls",
}


class Tracer:
    """Self time and call counts per layer, kept in memory until the end."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    def wrap(self, layer: str, fn, on_result=None):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                nested = stack.pop()
                self_s[layer] += dt - nested
                calls[layer] += 1
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_schedule(self, schedule) -> None:
        self.counts["sched.pricing_hits"] += schedule.pricing_hits
        self.counts["sched.pricing_misses"] += schedule.pricing_misses

    def _on_lookup(self, copy) -> None:
        self.counts["api.opcache_misses" if copy is None else "api.opcache_hits"] += 1

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS, wherever it is bound."""
        hooks = {"Scheduler.schedule": self._on_schedule}
        targets = list(ENTRY_POINTS)
        # operand-cache lookups are counted, not timed (they nest in staging)
        targets.append(("", "repro.api.opcache", "OperandCache.lookup"))
        hooks["OperandCache.lookup"] = self._on_lookup
        for layer, module, attr in targets:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if layer:
                    wrapped = self.wrap(layer, fn, hooks.get(attr))
                else:
                    wrapped = self._counting(fn, hooks[attr])
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(layer, fn)
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)

    @staticmethod
    def _counting(fn, on_result):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return counted

    def metrics(self, wl) -> dict:
        """Per-round layer metrics of a traced run of workload ``wl``."""
        rounds = max(wl.rounds, 1)
        traced = sum(wl.round_s)

        def m(value: float, unit: str) -> dict:
            return {"value": value / rounds, "unit": unit}

        layers = sorted({layer for layer, _, _ in ENTRY_POINTS})
        out = {f"{layer}_s": m(self.self_s.get(layer, 0.0), "s") for layer in layers}
        for layer, name in COUNTED.items():
            out[name] = m(self.calls.get(layer, 0), "count")
        for name in (
            "sched.pricing_hits",
            "sched.pricing_misses",
            "api.opcache_hits",
            "api.opcache_misses",
        ):
            out[name] = m(self.counts.get(name, 0), "count")
        out["dist.plan_hits"] = m(wl.plans_after["hits"] - wl.plans_before["hits"], "count")
        out["dist.plan_misses"] = m(
            wl.plans_after["misses"] - wl.plans_before["misses"], "count"
        )
        S, W, F, _ = wl.sim[0]
        out["machine.sim_msgs"] = {"value": S, "unit": "count"}
        out["machine.sim_words"] = {"value": W, "unit": "count"}
        out["machine.sim_flops"] = {"value": F, "unit": "count"}
        out["untraced_s"] = m(traced - sum(self.self_s.values()), "s")
        out["trace.round_s"] = {"value": statistics.median(wl.round_s), "unit": "s"}
        return out
