"""Tests for the server coherence shim, with a hand-driven fake transport."""

import pytest

from repro.kvstore.shim import ServerShim
from repro.kvstore.store import KVStore
from repro.net.packet import make_delete, make_get, make_put
from repro.net.protocol import Op

KEY = b"0123456789abcdef"


class FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeServer:
    """Implements the StorageServerLike duck type with manual timers."""

    node_id = 5
    gateway = 1

    def __init__(self):
        self.replies = []
        self.to_gateway = []
        self.timers = []

    def send_reply(self, pkt):
        self.replies.append(pkt)

    def send_to_gateway(self, pkt):
        self.to_gateway.append(pkt)

    def schedule(self, delay, callback, *args):
        timer = FakeTimer()
        self.timers.append((timer, callback, args))
        return timer

    def fire_timer(self, index=-1):
        timer, callback, args = self.timers[index]
        if not timer.cancelled:
            callback(*args)


@pytest.fixture()
def rig():
    server = FakeServer()
    store = KVStore(num_cores=2)
    shim = ServerShim(server, store)
    return server, store, shim


def cached_put(value, seq=1):
    pkt = make_put(2, 5, KEY, value, seq=seq)
    pkt.op = Op.PUT_CACHED  # the switch's rewrite
    return pkt


def tokened_put(value, seq=1):
    """An uncached PUT carrying an idempotency token (a retried write)."""
    pkt = make_put(2, 5, KEY, value, seq=seq)
    pkt.token = seq
    return pkt


def exhaust_update_retries(server, shim, budget=3):
    """Fire the update timer past the retry budget, entering degraded mode."""
    shim.max_update_retries = budget
    for _ in range(budget + 1):
        server.fire_timer(-1)


class TestReads:
    def test_get_found(self, rig):
        server, store, shim = rig
        store.put(KEY, b"v")
        shim.process(make_get(2, 5, KEY))
        reply = server.replies[0]
        assert reply.op == Op.GET_REPLY and reply.value == b"v"
        assert (reply.src, reply.dst) == (5, 2)

    def test_get_missing_returns_none_value(self, rig):
        server, _, shim = rig
        shim.process(make_get(2, 5, KEY))
        assert server.replies[0].value is None


class TestUncachedWrites:
    def test_put_applies_and_replies(self, rig):
        server, store, shim = rig
        shim.process(make_put(2, 5, KEY, b"v"))
        assert store.get(KEY) == b"v"
        assert server.replies[0].op == Op.PUT_REPLY
        assert not server.to_gateway  # no cache update for uncached keys

    def test_delete_applies(self, rig):
        server, store, shim = rig
        store.put(KEY, b"v")
        shim.process(make_delete(2, 5, KEY))
        assert store.get(KEY) is None
        assert server.replies[0].op == Op.DELETE_REPLY


class TestCachedWrites:
    def test_put_cached_triggers_update(self, rig):
        server, store, shim = rig
        shim.process(cached_put(b"new"))
        assert store.get(KEY) == b"new"
        # Client got its reply immediately (before the switch is updated).
        assert server.replies[0].op == Op.PUT_REPLY
        update = server.to_gateway[0]
        assert update.op == Op.CACHE_UPDATE and update.value == b"new"
        assert shim.pending_updates == 1

    def test_ack_completes_update(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"new"))
        update = server.to_gateway[0]
        shim.process(update.make_reply(Op.CACHE_UPDATE_ACK))
        assert shim.pending_updates == 0
        assert shim.updates_acked == 1
        assert server.timers[0][0].cancelled

    def test_stale_ack_ignored(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"new"))
        ack = server.to_gateway[0].make_reply(Op.CACHE_UPDATE_ACK)
        ack.seq = 999
        shim.process(ack)
        assert shim.pending_updates == 1

    def test_retransmit_on_timeout(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"new"))
        server.fire_timer(0)
        assert len(server.to_gateway) == 2
        assert shim.retransmissions == 1

    def test_gives_up_after_max_retries(self, rig):
        # Exhausting the retry budget no longer raises out of a timer
        # callback: the key degrades to write-around mode instead.
        server, _, shim = rig
        notified = []
        shim.degraded_handler = lambda sid, key: notified.append((sid, key))
        shim.process(cached_put(b"new"))
        exhaust_update_retries(server, shim)
        assert shim.pending_updates == 0
        assert KEY in shim.degraded_keys
        assert shim.degraded_entries == 1
        assert shim.retransmissions == shim.max_update_retries
        assert notified == [(server.node_id, KEY)]

    def test_delete_cached_no_value_update(self, rig):
        server, store, shim = rig
        store.put(KEY, b"v")
        pkt = make_delete(2, 5, KEY)
        pkt.op = Op.DELETE_CACHED
        shim.process(pkt)
        assert store.get(KEY) is None
        assert not server.to_gateway  # no value to push


class TestWriteBlocking:
    def test_second_write_blocked_until_ack(self, rig):
        server, store, shim = rig
        shim.process(cached_put(b"v1", seq=1))
        shim.process(cached_put(b"v2", seq=2))
        # v2 blocked: store still v1, only one client reply so far.
        assert store.get(KEY) == b"v1"
        assert len(server.replies) == 1
        assert shim.writes_blocked == 1
        # Ack v1 -> v2 drains, starting its own update.
        shim.process(server.to_gateway[0].make_reply(Op.CACHE_UPDATE_ACK))
        assert store.get(KEY) == b"v2"
        assert len(server.replies) == 2
        assert shim.pending_updates == 1

    def test_version_increases_across_updates(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"v1"))
        shim.process(server.to_gateway[0].make_reply(Op.CACHE_UPDATE_ACK))
        shim.process(cached_put(b"v2"))
        assert server.to_gateway[1].seq > server.to_gateway[0].seq

    def test_writes_to_other_keys_not_blocked(self, rig):
        server, store, shim = rig
        other = b"fedcba9876543210"
        shim.process(cached_put(b"v1"))
        shim.process(make_put(2, 5, other, b"w"))
        assert store.get(other) == b"w"


class TestDegradedMode:
    def test_blocked_writes_drain_on_degrade(self, rig):
        server, store, shim = rig
        shim.process(cached_put(b"v1", seq=1))
        shim.process(cached_put(b"v2", seq=2))
        assert shim.writes_blocked == 1
        exhaust_update_retries(server, shim)
        # The blocked v2 drained as write-around: applied, answered, and no
        # fresh update pushed for it.
        assert store.get(KEY) == b"v2"
        assert len(server.replies) == 2
        assert shim.pending_updates == 0
        assert shim.blocked_writes == 0

    def test_degraded_writes_skip_update_push(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"v1"))
        exhaust_update_retries(server, shim)
        sent_before = len(server.to_gateway)
        shim.process(cached_put(b"v2", seq=2))
        assert server.replies[-1].op == Op.PUT_REPLY
        assert len(server.to_gateway) == sent_before

    def test_clear_degraded_recovers(self, rig):
        server, _, shim = rig
        shim.process(cached_put(b"v1"))
        exhaust_update_retries(server, shim)
        shim.clear_degraded(KEY)
        assert KEY not in shim.degraded_keys
        assert shim.degraded_recovered == 1
        # Updates flow again once the controller has evicted the key.
        shim.process(cached_put(b"v2", seq=2))
        assert shim.pending_updates == 1

    def test_clear_degraded_idempotent(self, rig):
        _, _, shim = rig
        shim.clear_degraded(KEY)
        assert shim.degraded_recovered == 0


class TestWriteDedup:
    def test_retry_applies_once_and_replays_reply(self, rig):
        server, store, shim = rig
        shim.track_applies = True
        shim.process(tokened_put(b"v1"))
        assert store.get(KEY) == b"v1"
        shim.process(tokened_put(b"v1"))  # the client's retransmission
        assert shim.token_applies[(2, 1)] == 1
        assert len(server.replies) == 2  # reply re-sent, store untouched
        assert shim.dedup.hits == 1

    def test_retry_of_queued_write_is_dropped(self, rig):
        server, store, shim = rig
        shim.begin_insertion(KEY)
        shim.process(tokened_put(b"v1"))  # blocked behind the insertion
        shim.process(tokened_put(b"v1"))  # retry: QUEUED token, dropped
        assert len(server.replies) == 0
        shim.end_insertion(KEY)
        assert store.get(KEY) == b"v1"
        assert len(server.replies) == 1  # answered exactly once

    def test_untokened_writes_bypass_dedup(self, rig):
        server, store, shim = rig
        shim.process(make_put(2, 5, KEY, b"v1"))
        shim.process(make_put(2, 5, KEY, b"v1"))
        assert len(server.replies) == 2
        assert shim.dedup.hits == 0


class TestDrainReblocking:
    def test_drained_cached_write_reblocks_remainder(self, rig):
        server, store, shim = rig
        store.put(KEY, b"orig")
        shim.begin_insertion(KEY)
        shim.process(cached_put(b"v1", seq=1))
        shim.process(cached_put(b"v2", seq=2))
        assert shim.blocked_writes == 2
        shim.end_insertion(KEY)
        # v1 drained and started its own switch update; v2 re-blocked
        # behind that update rather than racing it.
        assert store.get(KEY) == b"v1"
        assert shim.pending_updates == 1
        assert shim.blocked_writes == 1
        shim.process(server.to_gateway[-1].make_reply(Op.CACHE_UPDATE_ACK))
        assert store.get(KEY) == b"v2"


class TestInsertionBlocking:
    def test_insertion_blocks_writes(self, rig):
        server, store, shim = rig
        store.put(KEY, b"orig")
        value = shim.begin_insertion(KEY)
        assert value == b"orig"
        shim.process(make_put(2, 5, KEY, b"racy"))
        assert store.get(KEY) == b"orig"  # blocked
        shim.end_insertion(KEY)
        assert store.get(KEY) == b"racy"  # drained

    def test_insertion_of_missing_key(self, rig):
        _, _, shim = rig
        assert shim.begin_insertion(KEY) is None
        shim.end_insertion(KEY)

    def test_reads_never_blocked(self, rig):
        server, store, shim = rig
        store.put(KEY, b"v")
        shim.begin_insertion(KEY)
        shim.process(make_get(2, 5, KEY))
        assert server.replies[0].op == Op.GET_REPLY
        shim.end_insertion(KEY)
