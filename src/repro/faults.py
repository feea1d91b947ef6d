"""Deterministic, seedable fault injection for resilience testing.

The service layer and batch runner are sprinkled with
named *fault points* — ``faults.should_fire("worker.crash")`` — that are
inert unless a fault *plan* is installed.  A plan maps point names to
trigger rules and is fully deterministic given its seed, so CI can
replay the exact same failure schedule on every run.

Plan strings (the ``REPRO_FAULTS`` environment variable or
:func:`install`)::

    seed=7;worker.crash@nth=2;client.request@p=0.25,times=3

* segments are ``;``-separated; a bare ``seed=N`` segment sets the
  plan-wide seed (default 0);
* every other segment is ``point@trigger[,trigger...]``;
* a point name may end in ``.*`` to prefix-match a family of points.

Trigger rules (combined with AND inside one segment):

``nth=N``
    fire on exactly the Nth hit of the point (1-based).
``after=N``
    fire on every hit strictly after the Nth.
``every=N``
    fire on every Nth hit (N, 2N, 3N, ...).
``p=X``
    fire with probability X per hit, from a per-point RNG derived
    deterministically from the plan seed and the point name.
``times=K``
    stop firing after K fires of this rule.
``seed=N``
    per-rule seed override (defaults to the plan seed).

What a fired point *means* is decided at the call site (the worker pool
crashes a worker, the client raises a simulated connection reset, the
cache raises :class:`~repro.errors.FaultInjected`), so the plan only
controls *when* faults happen — every failure mode stays a real code
path, not a mock.

Zero overhead when disabled: :func:`should_fire` returns immediately
when no plan is installed (one global read), and no fault point lives
inside the per-node network kernels — only at job/request granularity.

Thread safety: hit counters are guarded by one lock; concurrent
dispatcher threads observe a single global hit order.  Worker
*processes* never evaluate plans themselves — the dispatcher decides
worker-directed faults parent-side and ships them with the job, so
nth-hit schedules stay deterministic across respawns.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import FaultInjected, FaultPlanError

#: environment variable holding the process-wide default plan
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``point@...`` plan segment."""

    point: str
    nth: Optional[int] = None
    after: Optional[int] = None
    every: Optional[int] = None
    p: Optional[float] = None
    times: Optional[int] = None
    seed: Optional[int] = None

    def matches(self, point: str) -> bool:
        if self.point.endswith(".*"):
            return point.startswith(self.point[:-1]) or point == self.point[:-2]
        return point == self.point


def _parse_int(key: str, value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise FaultPlanError(f"fault trigger {key}={value!r}: not an integer")
    if n < 0:
        raise FaultPlanError(f"fault trigger {key}={value!r}: must be >= 0")
    return n


def parse_plan(text: str) -> "FaultPlan":
    """Parse a plan string (see the module docstring for the grammar)."""
    rules: List[FaultRule] = []
    seed = 0
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if "@" not in segment:
            if segment.startswith("seed="):
                seed = _parse_int("seed", segment[5:])
                continue
            raise FaultPlanError(
                f"bad fault-plan segment {segment!r}: expected "
                "'point@trigger,...' or 'seed=N'"
            )
        point, _, spec = segment.partition("@")
        point = point.strip()
        if not point:
            raise FaultPlanError(f"bad fault-plan segment {segment!r}: empty point")
        kwargs: Dict[str, Union[int, float]] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("nth", "after", "every", "times", "seed"):
                kwargs[key] = _parse_int(key, value)
            elif key == "p":
                try:
                    prob = float(value)
                except ValueError:
                    raise FaultPlanError(f"fault trigger p={value!r}: not a number")
                if not 0.0 <= prob <= 1.0:
                    raise FaultPlanError(f"fault trigger p={value!r}: not in [0, 1]")
                kwargs["p"] = prob
            else:
                raise FaultPlanError(
                    f"unknown fault trigger {key!r} "
                    "(use nth, after, every, p, times, seed)"
                )
        if not kwargs:
            raise FaultPlanError(
                f"fault point {point!r} has no trigger — add nth=/after=/"
                "every=/p="
            )
        rules.append(FaultRule(point=point, **kwargs))  # type: ignore[arg-type]
    return FaultPlan(rules=rules, seed=seed)


def _rule_rng(plan_seed: int, rule: FaultRule, index: int) -> random.Random:
    base = rule.seed if rule.seed is not None else plan_seed
    digest = hashlib.sha256(f"{base}:{index}:{rule.point}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class FaultPlan:
    """An installed set of fault rules plus their live counters."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._hits: List[int] = [0] * len(self.rules)
        self._fires: List[int] = [0] * len(self.rules)
        self._point_hits: Dict[str, int] = {}
        self._point_fires: Dict[str, int] = {}
        self._rngs = [
            _rule_rng(self.seed, rule, i) for i, rule in enumerate(self.rules)
        ]

    # -- evaluation ----------------------------------------------------------

    def should_fire(self, point: str) -> bool:
        """Record one hit of *point*; ``True`` if any matching rule fires."""
        fired = False
        with self._lock:
            self._point_hits[point] = self._point_hits.get(point, 0) + 1
            for i, rule in enumerate(self.rules):
                if not rule.matches(point):
                    continue
                self._hits[i] += 1
                hit = self._hits[i]
                if rule.times is not None and self._fires[i] >= rule.times:
                    continue
                fire = True
                if rule.nth is not None and hit != rule.nth:
                    fire = False
                if rule.after is not None and hit <= rule.after:
                    fire = False
                if rule.every is not None and hit % rule.every != 0:
                    fire = False
                if fire and rule.p is not None:
                    # always consume one variate per evaluated hit so the
                    # stream stays aligned with the hit counter
                    fire = self._rngs[i].random() < rule.p
                elif rule.p is not None:
                    self._rngs[i].random()
                if fire:
                    self._fires[i] += 1
                    fired = True
            if fired:
                self._point_fires[point] = self._point_fires.get(point, 0) + 1
        return fired

    # -- introspection -------------------------------------------------------

    def hit_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._point_hits)

    def fire_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._point_fires)

    def total_fires(self) -> int:
        with self._lock:
            return sum(self._fires)


# -- module-level state -------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_LOADED = False
_STATE_LOCK = threading.Lock()


def install(plan: Union[str, FaultPlan, None]) -> Optional[FaultPlan]:
    """Install *plan* process-wide (a plan string, a plan, or ``None``)."""
    global _ACTIVE, _ENV_LOADED
    if isinstance(plan, str):
        plan = parse_plan(plan)
    with _STATE_LOCK:
        _ACTIVE = plan
        _ENV_LOADED = True  # an explicit install overrides the env plan
    return plan


def clear() -> None:
    """Remove the installed plan (fault points become no-ops again)."""
    install(None)


def active() -> Optional[FaultPlan]:
    """The installed plan, loading ``REPRO_FAULTS`` on first use."""
    global _ACTIVE, _ENV_LOADED
    if not _ENV_LOADED:
        with _STATE_LOCK:
            if not _ENV_LOADED:
                text = os.environ.get(ENV_VAR)
                if text:
                    _ACTIVE = parse_plan(text)
                _ENV_LOADED = True
    return _ACTIVE


def should_fire(point: str) -> bool:
    """``True`` when the installed plan fires *point* on this hit.

    The disabled path is one global read and a ``None`` check.
    """
    plan = _ACTIVE
    if plan is None:
        if _ENV_LOADED:
            return False
        plan = active()
        if plan is None:
            return False
    return plan.should_fire(point)


def fire(point: str, detail: str = "") -> None:
    """Raise :class:`FaultInjected` if the plan fires *point*."""
    if should_fire(point):
        raise FaultInjected(point, detail)


def fire_counts() -> Dict[str, int]:
    """Fire counters of the installed plan (empty when none installed)."""
    plan = active()
    return plan.fire_counts() if plan is not None else {}


@contextlib.contextmanager
def injected(plan: Union[str, FaultPlan]):
    """Context manager: install *plan*, restore the previous plan on exit."""
    previous = active()
    installed = install(plan)
    try:
        yield installed
    finally:
        install(previous)
