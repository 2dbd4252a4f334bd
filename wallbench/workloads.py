"""The four workloads: inputs from the seed, warm-up, timed rounds, checks.

Every workload runs whole *rounds* of the same operations until the run
length has passed, so the share of failed operations is the same in every
run.  Timed windows cover only calls into the program; the paired scipy
solves and the bookkeeping between calls sit outside them.  A window is
kept as its start and end, and reported at the reference speed of
``hostspeed.py``.  Why each workload is here, and what it stresses, is in
README.md.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time

import numpy as np
import scipy.linalg

import repro
from repro.api.online.daemon import ServeDaemon
from repro.api.serve import StreamRequest, poisson_stream, replay, schedule_stream
from repro.dist.routing import plan_cache_stats
from repro.util.randmat import random_dense, random_lower_triangular

from checks import Reference, Report, check_schedule, projector
from hostspeed import REF_UNIT_S, HostSpeed

perf = time.perf_counter

#: the least time the scipy side of an overhead_x pair is timed for
SCIPY_MIN_S = 0.05


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    s = sorted(samples)
    rank = max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))
    return s[rank]


def lower_triangular(n: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned lower-triangular matrix made by the benchmark."""
    L = np.tril(rng.uniform(-1.0, 1.0, size=(n, n)), k=-1) / n
    L[np.arange(n), np.arange(n)] = 2.0 * rng.choice([-1.0, 1.0], size=n)
    return L


def balanced_stream(
    count: int,
    ns: tuple[int, ...],
    ks: tuple[int, ...],
    rate: float,
    seed: int,
    layout_seed: int | None = None,
    blocked: bool = False,
) -> list[StreamRequest]:
    """``count`` solves cycling through every (n, k) shape, shuffled.

    Every seed gets the same multiset of shapes.  The order and the
    Poisson arrival times (``rate`` per simulated second) come from
    ``layout_seed`` (by default ``seed``), the operands from ``seed``.
    ``blocked`` shuffles only within consecutive blocks of one of each
    shape, so every block holds the same work.
    """
    rng = np.random.default_rng([seed if layout_seed is None else layout_seed, 2])
    shapes = [(n, k) for n in ns for k in ks]
    picked = [shapes[i % len(shapes)] for i in range(count)]
    if blocked:
        m = len(shapes)
        order = np.concatenate([b + rng.permutation(m) for b in range(0, count, m)])
    else:
        order = rng.permutation(count)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return [
        StreamRequest(n=picked[j][0], k=picked[j][1], arrival=float(t), seed=1000 * seed + 17 * i)
        for i, (j, t) in enumerate(zip(order, arrivals))
    ]


class Workload:
    """One workload: subclasses fill in the hooks below."""

    #: operation whose wall time latency_p50_ms / latency_tail_ms report
    op = "round"
    #: how many times set-up runs; setup_s takes the median
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rounds = 0
        self.host = HostSpeed()
        # timed windows, as (start, end) on the perf_counter clock
        self.latency: list[tuple[float, float]] = []  # one per operation
        self.timed: list[tuple[float, float]] = []  # every call into the program
        self.done: list[int] = []  # operations completed, one per round
        # per round: its windows, and scipy's window and passes over its systems
        self.paired: list[tuple[list[tuple[float, float]], tuple[float, float], int]] = []
        self.round_s: list[float] = []  # own time of each round (hostspeed.py)
        self.sim: list[tuple[float, float, float, float]] = []  # per round
        self.report = Report()
        self.plans_before = self.plans_after = plan_cache_stats()

    # -- hooks -----------------------------------------------------------

    def prepare(self) -> None:
        """Make the program's inputs (counted in set-up)."""

    def warm_up(self) -> None:
        """One untimed round, so caches fill and lazy set-up finishes."""

    def reference_inputs(self) -> None:
        """The benchmark's own copies of the operands (not set-up)."""

    def round(self) -> None:
        """One timed round: records samples and counts attempted ops."""
        raise NotImplementedError

    def verify(self) -> None:
        """The after-run checks."""
        raise NotImplementedError

    # -- the run ---------------------------------------------------------

    def set_up(self) -> list[tuple[float, float]]:
        """Set up ``setup_repeats`` times, sampling the host; return the windows."""
        reps = 1 if self.smoke else self.setup_repeats
        windows = []
        with self.host:
            for _ in range(reps):
                t0 = perf()
                self.prepare()
                self.warm_up()
                windows.append((t0, perf()))
        self.reference_inputs()
        return windows

    def run(self, seconds: float, sample_host: bool = True) -> None:
        self.plans_before = plan_cache_stats()
        end = perf() + seconds
        with self.host if sample_host else contextlib.nullcontext():
            while True:
                self.round()
                self.rounds += 1
                if self.smoke or perf() >= end:
                    break
        self.plans_after = plan_cache_stats()

    def time_op(self, t0: float, t1: float) -> None:
        """Record one round-long operation timed from ``t0`` to ``t1``."""
        self.latency.append((t0, t1))
        self.timed.append((t0, t1))
        self.round_s.append(self.host.own(t0, t1))

    def pair(self, ours: list[tuple[float, float]], systems: list) -> None:
        """Solve the round's systems with scipy, back to back after it.

        Passes repeat until ``SCIPY_MIN_S`` has passed: one pass over the
        daemon's 56 small systems takes about 5 ms, too short to time
        steadily.
        """
        passes = 0
        t0 = perf()
        while True:
            for L, B in systems:
                scipy.linalg.solve_triangular(L, B, lower=True)
            passes += 1
            t1 = perf()
            if t1 - t0 >= SCIPY_MIN_S:
                break
        self.paired.append((ours, (t0, t1), passes))

    def seconds(self, window: tuple[float, float], as_timed: bool = False) -> float:
        """A window's time at the reference speed, or its own time as timed."""
        return self.host.own(*window) if as_timed else self.host.at_ref(*window)

    def latencies(self, as_timed: bool = False) -> list[float]:
        return [self.seconds(w, as_timed) for w in self.latency]

    def check(self) -> Report:
        self.verify()
        # Identical rounds must cost the same on the simulated machine: the
        # (S, W, F) counts exactly, the makespan up to the rounding of the
        # daemon's per-batch rebasing of arrival times.
        first = self.sim[0]
        for i, sim in enumerate(self.sim[1:], 1):
            if sim[:3] != first[:3] or not math.isclose(sim[3], first[3], rel_tol=1e-9):
                self.report.errors.append(
                    f"round {i} simulated cost {sim} differs from round 0's {first}"
                )
                break
        return self.report

    def tail_s(self, as_timed: bool = False) -> float:
        """The slowest tenth: p90 over the run's operations."""
        return nearest_rank(self.latencies(as_timed), 90.0)

    def end_to_end(self, as_timed: bool = False) -> dict:
        """The end-to-end figures at the reference speed, or as timed."""

        def m(value: float, unit: str) -> dict:
            return {"value": value, "unit": unit}

        timed = sum(self.seconds(w, as_timed) for w in self.timed)
        return {
            "throughput_rps": m(sum(self.done) / timed, "1/s"),
            "latency_p50_ms": m(1e3 * statistics.median(self.latencies(as_timed)), "ms"),
            "latency_tail_ms": m(1e3 * self.tail_s(as_timed), "ms"),
            "overhead_x": m(
                statistics.median(
                    sum(self.seconds(w, as_timed) for w in ours)
                    / (self.seconds(ref, as_timed) / passes)
                    for ours, ref, passes in self.paired
                ),
                "x",
            ),
        }

    def info(self) -> dict:
        sim = self.sim[0] if self.sim else (0.0, 0.0, 0.0, 0.0)
        as_timed = self.end_to_end(as_timed=True)
        units = self.host.unit
        return {
            "op": self.op,
            "latency_samples": len(self.latency),
            "round_s": [round(t, 4) for t in self.round_s],
            "as_timed": {k: v["value"] for k, v in as_timed.items()},
            "host_slowdown": {
                "samples": len(units),
                "median": statistics.median(units) / REF_UNIT_S,
                "q1_q3": [q / REF_UNIT_S for q in statistics.quantiles(units, n=4)[::2]],
            },
            "latency_percentiles_ms": {
                q: round(1e3 * nearest_rank(self.latencies(), q), 3) for q in (90, 95, 98, 99)
            },
            "model_makespan_us": 1e6 * sim[3],
            "plan_cache": {
                "hits": self.plans_after["hits"] - self.plans_before["hits"],
                "misses": self.plans_after["misses"] - self.plans_before["misses"],
                "capacity": self.plans_after["capacity"],
            },
        }


class SolveLarge(Workload):
    """Repeated one-call trsm(L, B, p=64) in the 3D regime."""

    op = "trsm() call"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n, self.k, self.p = (256, 32, 16) if smoke else (2048, 256, 64)
        self.W = projector(self.k, seed)
        self.ys: list[np.ndarray] = []
        self.algorithms: set[str] = set()

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.L = lower_triangular(self.n, rng)
        self.B = rng.uniform(-1.0, 1.0, size=(self.n, self.k))

    def warm_up(self) -> None:
        repro.trsm(self.L, self.B, p=self.p)

    def round(self) -> None:
        self.report.attempted += 1
        t0 = perf()
        r = repro.trsm(self.L, self.B, p=self.p)
        t1 = perf()
        self.time_op(t0, t1)
        self.done.append(1)
        self.pair([(t0, t1)], [(self.L, self.B)])
        self.ys.append(r.X @ self.W)
        self.algorithms.add(r.algorithm)
        c = r.measured
        self.sim.append((c.S, c.W, c.F, r.time))

    def verify(self) -> None:
        ref = Reference(self.L, self.B, self.W)
        for i, y in enumerate(self.ys):
            ref.judge(y, self.report, f"trsm call {i}")
        if self.algorithms != {"iterative"}:
            self.report.errors.append(f"expected It-Inv-TRSM, ran {self.algorithms}")

    def info(self) -> dict:
        return {**super().info(), "n": self.n, "k": self.k, "p": self.p}


def stream_operands(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (L, B) the program generates for a stream entry with this seed."""
    return random_lower_triangular(n, seed=seed), random_dense(n, k, seed=seed + 1)


class ReplayShared(Workload):
    """A Poisson stream replayed on p=16, operands hosted once per shape."""

    op = "replay() of the stream"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.count, self.p = (24, 16) if smoke else (192, 16)
        self.ys: list[tuple[int, np.ndarray]] = []

    def prepare(self) -> None:
        ns = (64, 128) if self.smoke else (64, 128, 256)
        # the layout decides the schedule, and the schedule the host work
        # of a round: drawn from the seed, it moved that work by +-7%
        self.stream = balanced_stream(
            self.count, ns, (8, 16, 32, 64), 1e5, self.seed, layout_seed=0
        )

    def warm_up(self) -> None:
        replay(self.stream, p=self.p, shared_operands=True, verify=True)

    def reference_inputs(self) -> None:
        # replay(shared_operands=True) hosts the first stream entry's
        # operands for each (n, k) shape; every same-shape request uses them
        self.shape_seed: dict[tuple[int, int], int] = {}
        for s in self.stream:
            self.shape_seed.setdefault((s.n, s.k), s.seed)
        self.ops = {sh: stream_operands(*sh, sd) for sh, sd in self.shape_seed.items()}
        self.W = {k: projector(k, self.seed) for (_, k) in self.ops}

    def round(self) -> None:
        self.report.attempted += self.count
        t0 = perf()
        out = replay(self.stream, p=self.p, shared_operands=True, verify=True)
        t1 = perf()
        self.time_op(t0, t1)
        self.pair([(t0, t1)], [self.ops[(s.n, s.k)] for s in self.stream])
        got = 0
        S = Wd = F = 0.0
        for rec in out.records:
            s = self.stream[rec.rid]
            self.ys.append((rec.rid, np.asarray(rec.value) @ self.W[s.k]))
            got += 1
            S, Wd, F = S + rec.measured.S, Wd + rec.measured.W, F + rec.measured.F
        self.report.reasons["no_result"] += self.count - got
        self.done.append(got)
        self.sim.append((S, Wd, F, out.modeled_makespan))
        self.staging = (out.staging_hits, out.staging_misses)

    def verify(self) -> None:
        refs = {
            sh: Reference(L, B, self.W[sh[1]]) for sh, (L, B) in self.ops.items()
        }
        for rid, y in self.ys:
            s = self.stream[rid]
            refs[(s.n, s.k)].judge(y, self.report, f"replay request {rid}")

    def info(self) -> dict:
        return {
            **super().info(),
            "requests": self.count,
            "p": self.p,
            "shapes": len(self.shape_seed),
            "staging_hits_misses": list(self.staging),
        }


class Schedule10k(Workload):
    """10^4 requests packed by schedule_stream on p=64, never executed."""

    op = "schedule_stream() of the stream"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.count, self.p = (300, 16) if smoke else (10_000, 64)
        self.schedules: list[tuple[dict, float]] = []

    def prepare(self) -> None:
        self.stream = poisson_stream(
            self.count, rate=2e5, n_range=(32, 128), k_range=(4, 16), seed=self.seed
        )

    def warm_up(self) -> None:
        # a tenth of the stream: a whole one would make set-up, which runs
        # three times, longer than the timed phase
        schedule_stream(self.stream[: self.count // 10], p=self.p)

    def reference_inputs(self) -> None:
        seeds: dict[tuple[int, int], int] = {}
        for s in self.stream:
            seeds.setdefault((s.n, s.k), s.seed)
        self.ops = {sh: stream_operands(*sh, sd) for sh, sd in seeds.items()}
        self.arrivals = np.array([s.arrival for s in self.stream])

    def round(self) -> None:
        self.report.attempted += self.count
        t0 = perf()
        sched = schedule_stream(self.stream, p=self.p)
        t1 = perf()
        self.time_op(t0, t1)
        self.pair([(t0, t1)], [self.ops[(s.n, s.k)] for s in self.stream])
        self.done.append(self.count)
        asg = sched.assignments
        arrays = {
            "index": np.array([a.index for a in asg], dtype=np.int64),
            "start": np.array([a.start for a in asg]),
            "finish": np.array([a.finish for a in asg]),
            "size": np.array([a.size for a in asg], dtype=np.int64),
            "mask": np.array(
                [sum(1 << r for r in a.grid.ranks()) for a in asg], dtype=np.uint64
            ),
        }
        self.schedules.append((arrays, sched.makespan))
        S = sum(a.modeled.S + a.staging.S for a in asg)
        Wd = sum(a.modeled.W + a.staging.W for a in asg)
        F = sum(a.modeled.F + a.staging.F for a in asg)
        self.sim.append((S, Wd, F, sched.makespan))
        self.pricing = (sched.pricing_hits, sched.pricing_misses)

    def verify(self) -> None:
        for i, (arrays, makespan) in enumerate(self.schedules):
            for problem in check_schedule(arrays, self.arrivals, self.p, makespan):
                self.report.check_failed(f"schedule of round {i}: {problem}")

    def info(self) -> dict:
        return {
            **super().info(),
            "requests": self.count,
            "p": self.p,
            "pricing_hits_misses": list(self.pricing),
        }


class DaemonLoad(Workload):
    """One client offering a Poisson stream as JSON lines to ServeDaemon.handle.

    Each round offers the same ``round_size`` requests, at arrival times
    shifted by one round span so the virtual clock only moves forward.
    One request per round, at a seeded position, is malformed (``n`` of
    0, then -4 on the next round): the daemon admits it and the flush of
    its batch raises, so the whole batch of 8 gets no result.
    """

    op = "request (offer to result)"
    time_scale = 1e-6  # DaemonConfig's default: simulated s per clock s

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.round_size = 16 if smoke else 64
        self.ys: list[tuple[int, np.ndarray]] = []
        self.round_latency: list[list[tuple[float, float]]] = []
        self.flushes = 0

    def prepare(self) -> None:
        # one of each of the 8 shapes in every batch of 8, so every flush
        # does the same work whatever the seed
        ns = (16, 32) if self.smoke else (64, 128)
        self.template = balanced_stream(
            self.round_size, ns, (8, 16, 32, 64), 1e5, self.seed, blocked=True
        )
        rng = np.random.default_rng([self.seed, 64])
        self.bad = int(rng.integers(self.round_size))
        self.span = self.template[-1].arrival + 1e-4
        self.lines = [
            json.dumps({"op": "trsm", "n": s.n, "k": s.k, "seed": s.seed})
            for s in self.template
        ]
        self.clock = [0.0]
        self.daemon = ServeDaemon(clock=lambda: self.clock[0])
        self.offered_rounds = 0

    def warm_up(self) -> None:
        self._offer_round(record=False)

    def reference_inputs(self) -> None:
        self.ops = {
            i: stream_operands(s.n, s.k, s.seed)
            for i, s in enumerate(self.template)
            if i != self.bad
        }
        self.W = {s.k: projector(s.k, self.seed) for s in self.template}

    def _offer_round(self, record: bool) -> list[tuple[float, float]]:
        """Offer one round; returns the windows of its handle() calls."""
        d = self.daemon
        base = self.offered_rounds * self.span
        bad_n = 0 if self.offered_rounds % 2 == 0 else -4
        self.offered_rounds += 1
        offered = [0.0] * self.round_size
        index_of: dict[int, int] = {}
        done: set[int] = set()
        refused = 0
        latencies = []
        windows = []
        self.cost = [0.0, 0.0, 0.0]
        lines = list(self.lines) + ['{"op": "flush"}']
        lines[self.bad] = json.dumps(
            {"op": "trsm", "n": bad_n, "k": self.template[self.bad].k, "seed": 0}
        )
        for i, line in enumerate(lines):
            if i < self.round_size:
                self.clock[0] = (base + self.template[i].arrival) / self.time_scale
            t0 = perf()
            resp = d.handle(line)
            t1 = perf()
            windows.append((t0, t1))
            if i < self.round_size:
                offered[i] = t0
                if resp.get("decision") in ("rejected", "deferred"):
                    refused += 1
                elif "rid" in resp:
                    index_of[resp["rid"]] = i
            batch = resp.get("flushed") if i < self.round_size else resp
            if batch and batch.get("results"):
                self.flushes += record
                for res, rec in zip(batch["results"], d.last_outcome.records):
                    j = index_of[res["rid"]]
                    done.add(j)
                    c = rec.measured
                    self.cost = [self.cost[0] + c.S, self.cost[1] + c.W, self.cost[2] + c.F]
                    if record:
                        latencies.append((offered[j], t1))
                        k = self.template[j].k
                        self.ys.append((j, np.asarray(rec.value) @ self.W[k]))
        if record:
            self.timed += windows
            self.report.reasons["refused"] += refused
            self.report.reasons["no_result"] += self.round_size - len(done) - refused
            self.completed = len(done)
            self.latency += latencies
            self.round_latency.append(latencies)
        return windows

    def tail_s(self, as_timed: bool = False) -> float:
        """The median over rounds of each round's p90 request latency.

        Bursts of host interference last whole rounds, so a p90 pooled
        over the run moves with how many rounds they hit (see README).
        """
        return statistics.median(
            nearest_rank([self.seconds(w, as_timed) for w in windows], 90.0)
            for windows in self.round_latency
        )

    def round(self) -> None:
        self.report.attempted += self.round_size
        before = self.daemon.totals.sim_busy_seconds
        windows = self._offer_round(record=True)
        self.round_s.append(sum(self.host.own(*w) for w in windows))
        self.done.append(self.completed)
        self.pair(windows, list(self.ops.values()))
        self.sim.append((*self.cost, self.daemon.totals.sim_busy_seconds - before))

    def verify(self) -> None:
        W = self.W
        refs = {
            i: Reference(L, B, W[self.template[i].k]) for i, (L, B) in self.ops.items()
        }
        for i, y in self.ys:
            refs[i].judge(y, self.report, f"daemon request {i}")

    def info(self) -> dict:
        return {
            **super().info(),
            "round_size": self.round_size,
            "malformed_index": self.bad,
            "flushes": self.flushes,
        }


WORKLOADS = {
    "solve-large": SolveLarge,
    "replay-shared": ReplayShared,
    "schedule-10k": Schedule10k,
    "daemon-load": DaemonLoad,
}
