"""Methodology bench: server rotation vs direct equilibrium (§7.1).

The paper measured its 128-server numbers by rotating two physical servers
through all partitions and summing.  This bench runs that exact procedure
on the packet-level simulator (scaled to 8 partitions) and compares the
aggregate against the direct equilibrium computation — showing the
measurement methodology and the model agree, which is what licenses using
the model for the full-scale figures.
"""

from repro.analysis.validation import predict
from repro.sim.experiments import format_table
from repro.sim.rotation import RotationConfig, ServerRotation


def run():
    rows = []
    for cache in (False, True):
        rot = ServerRotation(RotationConfig(enable_cache=cache, seed=1))
        result = rot.run()
        cached_keys = None
        if cache:
            cached_keys = rot._fresh_cluster().switch.dataplane.cached_keys()
        model = predict(rot.config.num_partitions, rot.config.server_rate,
                        rot.workload, cached_keys)
        rows.append([
            "NetCache" if cache else "NoCache",
            result.total_throughput, model.throughput,
            result.total_throughput / model.throughput,
            result.bottleneck,
        ])
    return rows


def test_rotation_methodology(report):
    rows = run()
    report("§7.1 - server rotation vs direct equilibrium (8 partitions)",
           format_table(
               ["system", "rotation_qps", "model_qps", "ratio",
                "bottleneck"], rows))
    for row in rows:
        assert 0.85 < row[3] < 1.15  # within 15%
