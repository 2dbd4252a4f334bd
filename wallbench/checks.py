"""Checks made outside the program, run after the timed phase.

Solutions are checked through a random projection: every timed operation
keeps ``y = X @ W`` for a fixed seeded ``W`` with two columns, and the
check compares ``y`` against ``scipy.linalg.solve_triangular(L, B) @ W``
(forward agreement) and measures ``||L y - B W|| / (||L|| ||y||)``
(backward error of the projected system).  A wrong ``X`` survives a
projection onto two random directions with probability zero, and the
projection keeps the memory of a run flat however many operations it
makes.  See README.md for the tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

EPS = float(np.finfo(np.float64).eps)
#: forward tolerance factor: |y - y_ref| <= FWD * n * eps * kappa * |y_ref|
FWD = 2.0
#: backward tolerance factor: |L y - B W| <= BWD * n * eps * |L| |y|
BWD = 1.0


@dataclass
class Report:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    reasons: dict[str, int] = field(
        default_factory=lambda: {"no_result": 0, "refused": 0, "check_failed": 0}
    )
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def check_failed(self, what: str) -> None:
        self.reasons["check_failed"] += 1
        self.errors.append(what)


def projector(k: int, seed: int) -> np.ndarray:
    """The fixed ``k x 2`` projection every solution of width ``k`` is kept as."""
    return np.random.default_rng([seed, k, 0xB]).uniform(-1.0, 1.0, size=(k, 2))


class Reference:
    """scipy's solution of one system, and the tolerances to judge others by."""

    def __init__(self, L: np.ndarray, B: np.ndarray, W: np.ndarray):
        n = L.shape[0]
        self.L = L
        self.BW = B @ W
        self.y = scipy.linalg.solve_triangular(L, B, lower=True) @ W
        Linv = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
        self.norm_L = float(np.linalg.norm(L, np.inf))
        kappa = self.norm_L * float(np.linalg.norm(Linv, np.inf))
        self.fwd_tol = FWD * n * EPS * kappa
        self.bwd_tol = BWD * n * EPS

    def errors(self, y: np.ndarray) -> tuple[float, float]:
        """(forward, backward) error of one projected solution."""
        fwd = float(np.linalg.norm(y - self.y, np.inf) / np.linalg.norm(self.y, np.inf))
        bwd = float(
            np.linalg.norm(self.L @ y - self.BW, np.inf)
            / (self.norm_L * np.linalg.norm(y, np.inf))
        )
        return fwd, bwd

    def judge(self, y: np.ndarray, report: Report, what: str) -> None:
        """Check one projected solution, recording a failure in ``report``."""
        if y.shape != self.y.shape or not np.all(np.isfinite(y)):
            report.check_failed(f"{what}: shape {y.shape} or non-finite entries")
            return
        fwd, bwd = self.errors(y)
        if fwd > self.fwd_tol or bwd > self.bwd_tol:
            report.check_failed(
                f"{what}: forward {fwd:.3e} (tol {self.fwd_tol:.3e}), "
                f"backward {bwd:.3e} (tol {self.bwd_tol:.3e})"
            )


def is_pow2(v: int) -> bool:
    return v >= 1 and v & (v - 1) == 0


def check_schedule(
    arrays: dict[str, np.ndarray], arrivals: np.ndarray, p: int, makespan: float
) -> list[str]:
    """Properties every valid schedule has; returns the violations found.

    ``arrays`` holds one row per assignment: ``index``, ``start``,
    ``finish``, ``size`` and ``mask`` (bit ``r`` set when rank ``r`` is in
    the assignment's subgrid).
    """
    bad: list[str] = []
    idx, start, finish = arrays["index"], arrays["start"], arrays["finish"]
    size, mask = arrays["size"], arrays["mask"]
    count = len(arrivals)
    placed = np.bincount(idx, minlength=count)
    if len(idx) != count or placed.max(initial=0) != 1 or placed.min(initial=1) != 1:
        bad.append(f"{len(idx)} assignments for {count} requests, not one each")
        return bad
    early = np.flatnonzero(start < arrivals[idx])
    if early.size:
        bad.append(f"{early.size} requests start before they arrive")
    if np.any(finish < start):
        bad.append("an assignment finishes before it starts")
    for s in np.unique(size):
        if not is_pow2(int(s)) or s > p:
            bad.append(f"subgrid size {s} is not a power of two <= {p}")
    ranks_in = np.array([bin(int(m)).count("1") for m in mask])
    if np.any(ranks_in != size):
        bad.append("a subgrid's rank set does not match its size")
    slack = 1e-12 * max(makespan, 1e-300)
    for r in range(p):
        on = np.flatnonzero((mask >> np.uint64(r)) & np.uint64(1))
        order = on[np.argsort(start[on], kind="stable")]
        if np.any(start[order[1:]] < finish[order[:-1]] - slack):
            bad.append(f"two assignments overlap in time on rank {r}")
            break
    if finish.max(initial=0.0) != makespan:
        bad.append(f"makespan {makespan!r} != latest finish {finish.max()!r}")
    return bad
