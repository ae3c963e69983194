"""End-to-end tests for the client retry layer on a real simulated rack."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.reliability.retry import TIMED_OUT, RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig, default_workload


POLICY = RetryPolicy(timeout=400e-6, backoff=2.0, max_retries=3, jitter=0.0)


def small_cluster(**overrides):
    cfg = ClusterConfig(num_servers=2, cache_items=8, lookup_entries=64,
                        value_slots=64, **overrides)
    return Cluster(cfg)


def make_client(cluster, policy=POLICY):
    client = cluster.clients[0]
    client.retry_policy = policy
    return client


class TestRetransmission:
    def test_lossless_run_never_retries(self):
        cluster = small_cluster()
        client = make_client(cluster)
        replies = []
        client.get(b"k" * 16, lambda value, lat: replies.append(value))
        cluster.run(0.01)
        assert len(replies) == 1
        assert client.retransmissions == 0 and client.timeouts == 0

    def test_retry_recovers_from_packet_loss(self):
        cluster = small_cluster()
        client = make_client(cluster)
        key = b"k" * 16
        owner = cluster.partitioner.server_for(key)
        cluster.servers[owner].store.put(key, b"hello")
        # Cut the server link for one RTO, then heal: the first attempt is
        # lost deterministically and the retry must succeed.
        link = cluster.link_to(owner)
        link.take_down()
        cluster.sim.schedule(300e-6, link.bring_up)
        replies = []
        client.get(key, lambda value, lat: replies.append(value))
        cluster.run(0.05)
        assert replies == [b"hello"]
        assert client.retransmissions >= 1
        assert client.timeouts == 0

    def test_budget_exhaustion_delivers_timed_out(self):
        cluster = small_cluster()
        client = make_client(cluster)
        key = b"k" * 16
        owner = cluster.partitioner.server_for(key)
        cluster.partition_node(owner)  # nothing will ever answer
        replies = []
        client.get(key, lambda value, lat: replies.append(value))
        cluster.run(0.1)
        assert replies == [TIMED_OUT]
        assert not replies[0]  # falsy sentinel
        assert client.timeouts == 1
        assert client.retransmissions == POLICY.max_retries
        assert client.outstanding == 0

    def test_retried_write_applies_exactly_once(self):
        cluster = small_cluster()
        client = make_client(cluster)
        key = b"k" * 16
        owner = cluster.servers[cluster.partitioner.server_for(key)]
        owner.shim.track_applies = True
        link = cluster.link_to(owner.node_id)
        # The first attempt's reply path is lossy: the write applies but
        # the client retries, and the server must dedup the retry.
        link.start_loss_burst(0.7, until=900e-6)
        acks = []
        client.put(key, b"value-1", lambda value, lat: acks.append(value))
        cluster.run(0.05)
        assert len(acks) == 1
        assert owner.store.get(key) == b"value-1"
        assert all(n == 1 for n in owner.shim.token_applies.values())

    def test_late_duplicate_reply_ignored(self):
        cluster = small_cluster()
        client = make_client(cluster)
        key = b"k" * 16
        owner = cluster.partitioner.server_for(key)
        cluster.servers[owner].store.put(key, b"v")
        link = cluster.link_to(owner)
        link.set_duplication(0.99)  # virtually every delivery duplicated
        replies = []
        client.get(key, lambda value, lat: replies.append(value))
        cluster.run(0.05)
        assert len(replies) == 1
        assert client.received == 1


class TestDropStale:
    def test_drop_stale_invokes_callbacks(self):
        cluster = small_cluster()
        client = make_client(cluster)
        key = b"k" * 16
        owner = cluster.partitioner.server_for(key)
        cluster.partition_node(owner)
        replies = []
        client.get(key, lambda value, lat: replies.append(value))
        cluster.run(0.0005)
        dropped = client.drop_stale(cluster.sim.now + 1.0)
        assert dropped == 1
        assert replies == [TIMED_OUT]
        assert client.stale_drops == 1
        assert client.outstanding == 0
        # The cancelled retry timer must not fire afterwards.
        before = client.retransmissions
        cluster.run(0.05)
        assert client.retransmissions == before

    def test_drop_stale_spares_recent_requests(self):
        cluster = small_cluster()
        client = make_client(cluster, policy=None)
        key = b"k" * 16
        cluster.partition_node(cluster.partitioner.server_for(key))
        client.get(key)
        assert client.drop_stale(cluster.sim.now - 1.0) == 0
        assert client.outstanding == 1


class TestSyncClientTimeout:
    def test_sync_client_raises_on_exhausted_budget(self):
        cluster = small_cluster()
        make_client(cluster, policy=RetryPolicy(
            timeout=200e-6, max_retries=1, jitter=0.0))
        key = b"k" * 16
        cluster.partition_node(cluster.partitioner.server_for(key))
        sync = cluster.sync_client(timeout=0.5)
        with pytest.raises(SimulationError, match="retry budget"):
            sync.get(key)


class TestVersionedWrites:
    def test_stamps_are_unique_and_length_preserving(self):
        cluster = small_cluster()
        workload = default_workload(num_keys=50, skew=0.9, write_ratio=1.0)
        cluster.load_workload_data(workload)
        client = cluster.add_workload_client(workload, rate=50_000.0,
                                             versioned_writes=True)
        cluster.run(0.005)
        client.stop()
        sample = workload.value_for(workload.keyspace.key(0))
        values = {s.store.get(workload.keyspace.key(item))
                  for s in cluster.servers.values()
                  for item in range(50)}
        values.discard(None)
        stamped = [v for v in values if b"#" in v]
        assert stamped, "expected at least one stamped write"
        assert all(len(v) == len(sample) for v in stamped)
        counters = [v[v.rindex(b"#"):] for v in stamped]
        assert len(counters) == len(set(counters))


class _Draw(random.Random):
    """A jitter source pinned to one ``random()`` value in [0, 1)."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def random(self):
        return self.u


#: the ends of ``random()``'s range, where ``uniform(-j, j)`` rounds to
#: its extremes, and one draw between them.
EXTREME_DRAWS = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]

policies = st.builds(
    RetryPolicy,
    timeout=st.floats(1e-9, 10.0),
    backoff=st.floats(1.0, 16.0),
    max_retries=st.integers(0, 5),
    # jitter at the ends of its range too
    jitter=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.sampled_from(EXTREME_DRAWS)),
    seed=st.integers(0, 2 ** 31))


class TestMinDelay:
    """The lanes engine lets a request go without a retry timer while
    its reply is bounded below ``min_delay()``: no attempt-0 timeout may
    be shorter, float rounding included."""

    @given(policy=policies, seq=st.integers(0, 2 ** 40))
    @settings(max_examples=300, deadline=None)
    def test_seeded_first_delay_never_undercuts_min_delay(self, policy, seq):
        assert policy.delay(0, policy.make_rng(seq)) >= policy.min_delay()

    @given(policy=policies,
           u=st.one_of(st.sampled_from(EXTREME_DRAWS),
                       st.floats(0.0, 1.0, exclude_max=True)))
    @settings(max_examples=300, deadline=None)
    def test_extreme_draws_never_undercut_min_delay(self, policy, u):
        assert policy.delay(0, _Draw(u)) >= policy.min_delay()
