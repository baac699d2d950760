"""Mesh-wide configuration."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace

from ..overload import OverloadConfig
from ..transport import TransportSpec
from ..util.deprecation import warn_once
from .mtls import MtlsContext
from .resilience import HedgePolicy, RetryPolicy

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..dataplane import ProxyCostModel

#: The port every sidecar listens on for mesh traffic (Envoy's 15006).
MESH_PORT = 15006


@dataclass
class MeshConfig:
    """Knobs shared by all sidecars in a mesh.

    The proxy cost defaults are calibrated so that a request+response
    through *two* interposed sidecars (four proxy traversals) costs about
    3 ms at the 99th percentile — the Istio figure the paper cites
    (§3.6). Each traversal is one lognormal sample, decomposed into
    interception/parse/crypto/filter components by
    :class:`repro.dataplane.ProxyCostModel`.
    """

    # Data-plane architecture (repro.dataplane): "sidecar" (per-pod
    # proxy, the paper's model and the default), "ambient" (one shared
    # per-node proxy; node-local hops skip the network), or "none"
    # (direct pod-to-pod baseline, zero proxy cost).
    data_plane: str = "sidecar"
    # Decomposed per-traversal proxy cost. None = the default model
    # (byte-identical to the legacy proxy_delay_* lognormal).
    proxy_cost: "ProxyCostModel | None" = None
    # Concurrency of each ambient node proxy (worker slots shared by
    # every pod on the node; excess traversals queue FIFO).
    node_proxy_concurrency: int = 8
    # Deprecated: the single-lognormal proxy knobs moved into
    # ProxyCostModel. None = unset; concrete values are folded into
    # ``proxy_cost`` with a warn-once DeprecationWarning.
    proxy_delay_median: float | None = None
    proxy_delay_p99: float | None = None
    connect_extra_delay: float | None = None
    default_timeout: float = 15.0
    lb_name: str = "round-robin"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgePolicy | None = None
    # Success-rate outlier ejection (None = disabled).
    outlier: object = None   # OutlierConfig | None
    mtls: MtlsContext = field(default_factory=MtlsContext)
    tracing_sample_rate: float = 1.0
    # Tail-based trace sampling (None = keep every sampled trace, the
    # historical behavior). With a value N, the tracer retains only the
    # N slowest completed traces per workload class plus every
    # errored/retried trace, bounding tracer memory for long sweeps
    # (the trace-side analogue of ``telemetry_max_records``).
    tracing_tail_keep: int | None = None
    # Optional sidecar-local request scheduling (§5 "prioritized request
    # queuing"): when set, at most this many inbound requests execute
    # concurrently per sidecar; excess waits in a priority queue.
    inbound_concurrency: int | None = None
    # Backpressure (§3.6): with inbound queueing on, shed load with 503s
    # once the queue holds this many requests (None = unbounded).
    max_inbound_queue: int | None = None
    # Overload posture (repro.overload): adaptive admission at the
    # gateway, bounded load-leveling queues + retry budgets at every
    # sidecar. None (or enabled=False) keeps legacy behavior; supersedes
    # inbound_concurrency/max_inbound_queue when its concurrency is set.
    overload: OverloadConfig | None = None
    # Custom load-balancer construction, e.g. the congestion-aware
    # policy that needs an SDN controller handle (§3.5). Receives the
    # sidecar, returns a LoadBalancer; None = build by ``lb_name``.
    lb_factory: object = None
    # Transport description (fidelity mode, cc, segment sizes, SST-style
    # multiplexing). None means the default packet-level TransportSpec.
    transport: TransportSpec | None = None
    # Deprecated: the mux knobs moved into TransportSpec. None = unset;
    # a concrete value is folded into ``transport`` with a warn-once
    # DeprecationWarning.
    use_mux: bool | None = None
    mux_chunk_bytes: int | None = None
    # Control plane push latency (config distribution, Fig. 1).
    config_push_delay: float = 0.050
    # Cap on the telemetry per-request record list (None = unbounded,
    # the historical behavior). With a cap, Telemetry.records becomes a
    # ring buffer and distribution queries fall back to the streaming
    # histograms once truncation starts — the bounded-memory posture
    # long "millions of users" sweeps need.
    telemetry_max_records: int | None = None

    def __post_init__(self):
        if self.data_plane not in ("sidecar", "ambient", "none"):
            raise ValueError(
                "data_plane must be one of 'sidecar', 'ambient', 'none'"
            )
        if self.node_proxy_concurrency < 1:
            raise ValueError("node_proxy_concurrency must be >= 1")
        if (
            self.proxy_delay_median is not None
            or self.proxy_delay_p99 is not None
            or self.connect_extra_delay is not None
        ):
            warn_once(
                "meshconfig-proxy-cost",
                "MeshConfig(proxy_delay_median=..., proxy_delay_p99=..., "
                "connect_extra_delay=...) is deprecated; pass "
                "MeshConfig(proxy_cost=ProxyCostModel(traversal_median=..., "
                "traversal_p99=..., connect_extra=...)) instead",
            )
            from ..dataplane import ProxyCostModel

            base = (
                self.proxy_cost
                if self.proxy_cost is not None
                else ProxyCostModel()
            )
            overrides = {}
            if self.proxy_delay_median is not None:
                overrides["traversal_median"] = self.proxy_delay_median
            if self.proxy_delay_p99 is not None:
                overrides["traversal_p99"] = self.proxy_delay_p99
            if self.connect_extra_delay is not None:
                overrides["connect_extra"] = self.connect_extra_delay
            self.proxy_cost = replace(base, **overrides)
            # Folded: clear the legacy fields so dataclasses.replace()
            # round-trips without re-warning or double-applying.
            self.proxy_delay_median = None
            self.proxy_delay_p99 = None
            self.connect_extra_delay = None
        if self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if self.inbound_concurrency is not None and self.inbound_concurrency < 1:
            raise ValueError("inbound_concurrency must be >= 1 (or None)")
        if self.max_inbound_queue is not None and self.max_inbound_queue < 1:
            raise ValueError(
                "max_inbound_queue must be >= 1 (or None for unbounded)"
            )
        if self.tracing_tail_keep is not None and self.tracing_tail_keep < 1:
            raise ValueError(
                "tracing_tail_keep must be >= 1 (or None to disable)"
            )
        if self.use_mux is not None or self.mux_chunk_bytes is not None:
            warn_once(
                "meshconfig-mux",
                "MeshConfig(use_mux=..., mux_chunk_bytes=...) is deprecated; "
                "pass MeshConfig(transport=TransportSpec(mux=..., "
                "mux_chunk_bytes=...)) instead",
            )
            base = self.transport if self.transport is not None else TransportSpec()
            overrides = {}
            if self.use_mux is not None:
                overrides["mux"] = bool(self.use_mux)
            if self.mux_chunk_bytes is not None:
                overrides["mux_chunk_bytes"] = self.mux_chunk_bytes
            self.transport = replace(base, **overrides)
            # Folded: clear the legacy fields so dataclasses.replace()
            # round-trips without re-warning or double-applying.
            self.use_mux = None
            self.mux_chunk_bytes = None

    def transport_spec(self) -> TransportSpec:
        """The effective transport description (default spec when unset)."""
        return self.transport if self.transport is not None else TransportSpec()

    def proxy_cost_model(self) -> "ProxyCostModel":
        """The effective proxy cost model (default model when unset)."""
        from ..dataplane import ProxyCostModel

        return self.proxy_cost if self.proxy_cost is not None else ProxyCostModel()
