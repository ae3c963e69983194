"""Tests for cluster assembly and measurement plumbing."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.runner import ChaosConfig
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.simcore import SimCoreConfig


class TestAssembly:
    def test_all_nodes_wired(self, small_cluster):
        # 1 tor + 8 servers + 1 client
        assert len(small_cluster.sim.nodes) == 10
        for sid in small_cluster.plan.server_ids:
            assert small_cluster.switch.port_of(sid) is not None

    def test_nocache_has_plain_switch(self, nocache_cluster):
        from repro.core.switch import NetCacheSwitch

        assert not isinstance(nocache_cluster.switch, NetCacheSwitch)
        assert nocache_cluster.controller is None

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_servers=0)

    @pytest.mark.parametrize("config_class, field, value", [
        (ChaosConfig, "max_update_retries", -1),
        (SimCoreConfig, "duration", float("nan")),
        (SimCoreConfig, "rate", float("nan")),
        (SimCoreConfig, "client_rates", (float("nan"),)),
        (ClusterConfig, "link_latency", float("nan")),
        (ClusterConfig, "server_rate", float("nan")),
        (ClusterConfig, "stats_interval", float("nan")),
        (ClusterConfig, "controller_update_interval", float("nan")),
    ])
    def test_invalid_field_rejected_at_construction(self, config_class,
                                                    field, value):
        # Otherwise: an update-retry budget that acts as zero; a NaN
        # duration that never ends a run, and a NaN rate that fails late
        # converting the packet count to an integer.  A NaN link latency
        # delivers nothing, a NaN server rate leaves every queue's clock
        # NaN, and a NaN statistics or controller interval fails mid-run.
        with pytest.raises(ConfigurationError, match=field):
            config_class(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("timeout", float("nan")), ("timeout", 0.0),
        ("backoff", float("nan")), ("backoff", 0.5),
    ])
    def test_retry_policy_rejects_nan_and_out_of_range(self, field, value):
        # A NaN timeout puts a NaN deadline on the event heap.
        with pytest.raises(ConfigurationError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("field", ["controller_update_interval",
                                       "stats_interval"])
    @pytest.mark.parametrize("interval", [0.0, -0.1])
    def test_non_positive_controller_interval_rejected(self, field,
                                                       interval):
        # A zero interval would reschedule its tick at delay 0 forever.
        with pytest.raises(ConfigurationError, match="interval"):
            Cluster(ClusterConfig(num_servers=2, **{field: interval}))


class TestDataLoading:
    def test_items_land_on_owning_server(self, small_cluster, small_workload):
        for item in range(0, 400, 37):
            key = small_workload.keyspace.key(item)
            owner = small_cluster.partitioner.server_for(key)
            assert small_cluster.servers[owner].store.get(key) is not None
            others = [s for s in small_cluster.servers.values()
                      if s.node_id != owner]
            assert all(s.store.get(key) is None for s in others)

    def test_warm_cache_installs_hottest(self, small_cluster, small_workload):
        dp = small_cluster.switch.dataplane
        assert dp.cache_size() == 32
        for key in small_workload.hottest_keys(5):
            assert dp.is_cached(key)


class TestWorkloadClient:
    def test_generates_and_measures(self, small_cluster, small_workload):
        client = small_cluster.add_workload_client(small_workload,
                                                   rate=20_000.0)
        small_cluster.run(0.05)
        assert client.sent >= 900
        assert client.received > 0.9 * client.sent
        assert small_cluster.total_received() == client.received
        assert small_cluster.total_cache_hits() > 0
        assert len(small_cluster.all_latencies()) == client.received

    def test_aimd_client_traces_rate(self, small_cluster, small_workload):
        client = small_cluster.add_workload_client(
            small_workload, rate=10_000.0, aimd=True, control_interval=0.01)
        small_cluster.run(0.05)
        assert len(client.rate_trace) >= 3


class TestHelpers:
    def test_default_workload_shape(self):
        wl = default_workload(num_keys=100, skew=0.9, write_ratio=0.1)
        assert wl.spec.num_keys == 100
        assert wl.spec.write_ratio == 0.1

    def test_sync_client_timeout_guard(self, small_cluster):
        client = small_cluster.sync_client(timeout=1e-9)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            client.get(b"k" + b"0" * 15)
