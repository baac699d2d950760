"""Design ablation: multiplexed sidecar channels vs connection pools in
the full Fig. 4 scenario.

One priority-scheduled connection per sidecar pair (§3.6's SST
direction) should match the pool's latency for the LS workload while
using far fewer transport connections.
"""

from conftest import bench_scenario_config

from repro.experiments import run_scenario
from repro.mesh import MeshConfig
from repro.transport import TransportSpec


def total_connections(result):
    return sum(s.pool_connections_created for s in result.mesh.sidecars)


def run_pair():
    base = bench_scenario_config(rps=30.0)
    pool = run_scenario(base, cross_layer=True)
    mux = run_scenario(
        base, cross_layer=True, mesh=MeshConfig(transport=TransportSpec(mux=True))
    )
    return pool, mux


def test_mux_channels_in_the_mesh(once):
    pool, mux = once(run_pair)
    pool_ls, mux_ls = pool.ls_summary(), mux.ls_summary()
    pool_conns, mux_conns = total_connections(pool), total_connections(mux)
    print(f"\npool: LS p50={pool_ls.p50 * 1e3:.1f} ms p99={pool_ls.p99 * 1e3:.1f} ms, "
          f"connections={pool_conns}")
    print(f"mux:  LS p50={mux_ls.p50 * 1e3:.1f} ms p99={mux_ls.p99 * 1e3:.1f} ms, "
          f"connections={mux_conns}")
    # Far fewer connections...
    assert mux_conns < pool_conns / 2, (mux_conns, pool_conns)
    # ...without giving up the latency-sensitive workload's latency
    # (priority-scheduled streams prevent HOL blocking on the shared
    # connection).
    assert mux_ls.p50 < pool_ls.p50 * 1.25
    assert mux_ls.p99 < pool_ls.p99 * 1.6
    # Everything still completes.
    assert mux.recorder.error_rate() == 0.0
