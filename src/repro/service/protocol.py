"""The flow-service wire format: job specs, circuits, configs, reports.

Everything that crosses the HTTP boundary is strict JSON (the
:mod:`repro.io.json_report` dialect — no ``Infinity``/``NaN`` tokens),
and everything that feeds the content-addressed cache is canonicalised
here, so the client CLI, the daemon and the in-process test harness all
speak one schema.

Job submission payload::

    {
      "circuit": {"kind": "registry", "name": "adder", "preset": "ci"}
                 | {"kind": "blif",  "text": "<blif source>"}
                 | {"kind": "bench", "text": "<bench source>"},
      "config":  {"n_phases": 4, "use_t1": true, ...},   # partial; defaulted
      "timeout_s": 120,                                  # optional per-job cap
      "debug": {"sleep_s": 0.5, "crash": false}          # test hooks only
    }

The cache key of a job is ``sha256(structural_hash(circuit) + ":" +
canonical_dumps(normalized config))`` — the circuit contributes through
its canonical content hash (:meth:`LogicNetwork.structural_hash`), so
id-renumbered or renamed resubmissions of the same live structure hit
the same entry, and the config contributes through its canonical JSON
encoding, so key order and omitted-vs-explicit defaults cannot split
the cache.  ``debug`` and ``timeout_s`` are operational, not semantic:
they never reach the key (debug jobs bypass the cache entirely).

Flow reports (``schema: repro-flow-report/v1``) are emitted identically
by ``repro-flow run --json``, the service result endpoint and
:func:`flow_report` — one schema, three producers.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro.errors import ServiceError
from repro.io.json_report import canonical_dumps
from repro.network.logic_network import LogicNetwork
from repro.pipeline.context import FlowContext
from repro.pipeline.pipeline import Pipeline

#: schema tag stamped on every flow report
REPORT_SCHEMA = "repro-flow-report/v1"

#: the Pipeline.standard knobs that cross the wire, with their defaults.
#: (``library`` is deliberately absent: cost models are process-local
#: objects; the service always runs the default library.)
PIPELINE_DEFAULTS: Dict[str, Any] = {
    "n_phases": 4,
    "use_t1": True,
    "share_chains": True,
    "balance_network": False,
    "sweeps": 4,
    "cuts_per_node": 8,
    "verify": "cec",
}

_CONFIG_TYPES: Dict[str, type] = {
    key: type(value) for key, value in PIPELINE_DEFAULTS.items()
}

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: terminal poisoned-job state: the job crashed its worker on every
#: allowed attempt and will never be retried again
QUARANTINED = "quarantined"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, QUARANTINED)
#: states a job can never leave
TERMINAL_STATES = (DONE, FAILED, QUARANTINED)


def normalize_config(config: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a partial config and fill in the defaults.

    Unknown keys and mistyped values are rejected (:class:`ServiceError`)
    rather than ignored: a typo'd knob silently falling back to its
    default would poison the cache key space with configs that *look*
    distinct but ran identically.
    """
    out = dict(PIPELINE_DEFAULTS)
    if config is None:
        return out
    if not isinstance(config, dict):
        raise ServiceError(f"config must be an object, got {type(config).__name__}")
    for key, value in config.items():
        expected = _CONFIG_TYPES.get(key)
        if expected is None:
            raise ServiceError(
                f"unknown config key {key!r} "
                f"(known: {', '.join(sorted(PIPELINE_DEFAULTS))})"
            )
        # bool is an int subclass: require exact-type matches so that
        # e.g. sweeps=true cannot masquerade as sweeps=1
        if type(value) is not expected:
            raise ServiceError(
                f"config key {key!r} expects {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        out[key] = value
    return out


def build_pipeline(config: Dict[str, Any]) -> Pipeline:
    """Instantiate the pipeline a normalized config describes.

    Raises :class:`ServiceError` on semantically invalid combinations
    (e.g. T1 staggering with fewer than 3 phases), so submission can be
    rejected with a 400 before any work is queued.
    """
    from repro.errors import ReproError

    cfg = dict(config)
    n_phases = cfg.pop("n_phases")
    use_t1 = cfg.pop("use_t1")
    try:
        return Pipeline.standard(n_phases=n_phases, use_t1=use_t1, **cfg)
    except ReproError as exc:
        raise ServiceError(f"invalid pipeline config: {exc}") from exc


# -- circuits ----------------------------------------------------------------

def registry_circuit(name: str, preset: str = "paper") -> Dict[str, Any]:
    """Payload for a registered benchmark (built server-side)."""
    return {"kind": "registry", "name": name, "preset": preset}


def blif_circuit(text: str) -> Dict[str, Any]:
    """Payload carrying an inline BLIF netlist."""
    return {"kind": "blif", "text": text}


def bench_circuit(text: str) -> Dict[str, Any]:
    """Payload carrying an inline ISCAS ``.bench`` netlist."""
    return {"kind": "bench", "text": text}


def circuit_payload_from_source(source: str, preset: str = "paper") -> Dict[str, Any]:
    """Map a CLI-style source (registry name or netlist path) to a payload.

    Registry names travel by reference (the daemon builds them); files
    travel by value (their text is inlined), so the daemon never needs
    filesystem access to the client's machine.
    """
    from repro.circuits import benchmark_registry, names

    if source in benchmark_registry:
        return registry_circuit(source, preset)
    if source.endswith(".blif") or source.endswith(".bench"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ServiceError(f"cannot read {source!r}: {exc}") from exc
        kind = "blif" if source.endswith(".blif") else "bench"
        return {"kind": kind, "text": text}
    raise ServiceError(
        f"unknown benchmark or file {source!r} "
        f"(known benchmarks: {', '.join(names())})"
    )


def load_circuit(payload: Any) -> LogicNetwork:
    """Materialise the network a circuit payload describes (daemon side)."""
    from repro.errors import ReproError

    if not isinstance(payload, dict) or "kind" not in payload:
        raise ServiceError("circuit payload must be an object with a 'kind'")
    kind = payload["kind"]
    try:
        if kind == "registry":
            from repro.circuits import build

            return build(payload["name"], payload.get("preset", "paper"))
        if kind in ("blif", "bench"):
            text = payload["text"]
            if not isinstance(text, str):
                raise ServiceError(
                    f"{kind!r} circuit text must be a string, "
                    f"got {type(text).__name__}"
                )
            from repro.io import loads_bench, loads_blif

            return (loads_blif if kind == "blif" else loads_bench)(text)
    except ServiceError:
        raise
    except (ReproError, KeyError, TypeError) as exc:
        raise ServiceError(f"bad {kind!r} circuit payload: {exc}") from exc
    raise ServiceError(
        f"unknown circuit kind {kind!r} (use registry | blif | bench)"
    )


# -- cache keys --------------------------------------------------------------

def cache_key(net: LogicNetwork, config: Dict[str, Any]) -> str:
    """Content address of one (circuit, normalized config) job."""
    payload = net.structural_hash() + ":" + canonical_dumps(config)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- reports -----------------------------------------------------------------

def flow_report(
    ctx: FlowContext,
    *,
    config: Optional[Dict[str, Any]] = None,
    cached: bool = False,
) -> Dict[str, Any]:
    """Package a finished :class:`FlowContext` as the v1 report schema.

    The dict is strict-JSON-safe (ints, floats, strings, bools, null)
    and is what ``repro-flow run --json`` prints and the service stores
    in (and serves from) its result cache.
    """
    metrics = None
    if ctx.metrics is not None:
        metrics = dict(ctx.metrics.as_dict())
        metrics["n_phases"] = ctx.metrics.n_phases
    return {
        "schema": REPORT_SCHEMA,
        "benchmark": ctx.name,
        "config": dict(config) if config is not None else None,
        "metrics": metrics,
        "t1": {"found": ctx.t1_found, "used": ctx.t1_used},
        "verified": ctx.verified,
        "runtime_s": ctx.runtime_s,
        "timings": dict(ctx.timings),
        "events": list(ctx.events),
        "cached": cached,
    }
