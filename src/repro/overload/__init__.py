"""Overload and admission control: keeping the mesh useful past 1× capacity.

The paper's cross-layer prioritization (§4.2) protects latency-sensitive
traffic while the system has headroom; this package is the posture for
when it does not.  Meshes at saturation are notorious for two failure
shapes — retry storms (each timeout re-offers the request, multiplying
load exactly when capacity is gone) and metastable failure (the backlog
built during a transient fault keeps latencies above the timeout long
after the fault clears, so the storm sustains itself).  The defense is
layered, and every layer honors :mod:`repro.core.priorities` — drop
latency-insensitive work first, always:

* :class:`AdmissionGate` (:mod:`admission`) — adaptive admission at the
  ingress gateway: a CoDel-style gate on the windowed p99 of completed
  requests (the obs plane's :class:`~repro.obs.windows.WindowedHistogram`).
  Sustained violation of the delay target sheds the unprotected classes;
  only heavy escalation thins the protected (LS) class, by deterministic
  strides.
* :class:`LevelingQueue` (:mod:`limiter`) — the sidecar's queue-based
  load-leveling buffer: bounded depth, priority-ordered, deterministic
  overflow policy (a newcomer that outranks the worst queued entry
  displaces it; otherwise the newcomer is rejected).  The sidecar's
  legacy inbound queue is the same buffer, reject-only and optionally
  unbounded.
* :class:`RetryBudget` (:mod:`budget`) — Envoy-style retry budgeting:
  retries may be in flight only up to ``max(min_retries, ratio × active
  requests)``, so shed/failed requests cannot re-enter as a storm.
  Coupled with the shed status code (429, deliberately absent from
  :data:`repro.http.message.HttpStatus.RETRYABLE`), shed load leaves the
  system instead of orbiting it.
* :class:`OverloadConfig`/:class:`GateConfig` (:mod:`config`) — the
  frozen, content-hashable description that rides in
  :class:`~repro.mesh.config.MeshConfig` through the sweep engine's
  result cache.

Everything is deterministic by construction (no RNG anywhere in the
admission path), so serial and parallel sweeps of the overload harness
(X-9, ``python -m repro overload``) are byte-identical.
"""

from .admission import AdmissionGate, admission_class
from .budget import RetryBudget
from .config import GateConfig, OverloadConfig
from .limiter import QUEUED, REJECTED, LevelingQueue

__all__ = [
    "AdmissionGate",
    "GateConfig",
    "LevelingQueue",
    "OverloadConfig",
    "QUEUED",
    "REJECTED",
    "RetryBudget",
    "admission_class",
]
