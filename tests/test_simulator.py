"""Tests for the discrete-event network simulator."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.packet import make_get
from repro.net.simulator import Node, Simulator

KEY = b"0123456789abcdef"


class Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.got = []
        self.started = False

    def start(self):
        self.started = True

    def handle_packet(self, pkt):
        self.got.append((self.sim.now, pkt))


def two_node_sim(latency=1e-6, **link_kwargs):
    sim = Simulator()
    a, b = Sink(1), Sink(2)
    sim.add_node(a)
    sim.add_node(b)
    sim.connect(1, 2, latency=latency, **link_kwargs)
    return sim, a, b


class TestWiring:
    def test_duplicate_node_rejected(self):
        sim = Simulator()
        sim.add_node(Sink(1))
        with pytest.raises(ConfigurationError):
            sim.add_node(Sink(1))

    def test_link_needs_existing_nodes(self):
        sim = Simulator()
        sim.add_node(Sink(1))
        with pytest.raises(ConfigurationError):
            sim.connect(1, 99)

    def test_duplicate_link_rejected(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(ConfigurationError):
            sim.connect(2, 1)


class TestDelivery:
    def test_packet_delivered_with_latency(self):
        sim, a, b = two_node_sim(latency=3e-6)
        pkt = make_get(1, 2, KEY)
        sim.transmit(1, 2, pkt)
        sim.run()
        assert len(b.got) == 1
        t, got = b.got[0]
        assert t == pytest.approx(3e-6)
        assert got.last_hop == 1

    def test_transmit_without_link_fails(self):
        sim = Simulator()
        sim.add_node(Sink(1))
        sim.add_node(Sink(3))
        with pytest.raises(SimulationError):
            sim.transmit(1, 3, make_get(1, 3, KEY))

    def test_loss_counted(self):
        sim, a, b = two_node_sim(loss_prob=0.5, seed=4)
        sent = 100
        ok = sum(sim.transmit(1, 2, make_get(1, 2, KEY)) for _ in range(sent))
        sim.run()
        assert len(b.got) == ok
        assert sim.lost == sent - ok
        assert 20 < ok < 80

    def test_delivered_counter(self):
        sim, a, b = two_node_sim()
        sim.transmit(1, 2, make_get(1, 2, KEY))
        sim.run()
        assert sim.delivered == 1


class TestNodeDrops:
    def test_down_destination_counts_node_drop(self):
        sim, a, b = two_node_sim()
        sim.set_node_down(2)
        assert not sim.transmit(1, 2, make_get(1, 2, KEY))
        assert (sim.lost, sim.node_drops) == (1, 1)

    def test_both_endpoints_down_counts_once(self):
        # The transmit-time check fires before the link is touched: one
        # loss, one node drop, no link accounting.
        sim, a, b = two_node_sim()
        sim.set_node_down(1)
        sim.set_node_down(2)
        link = sim.link_between(1, 2)
        assert not sim.transmit(1, 2, make_get(1, 2, KEY))
        assert (sim.lost, sim.node_drops) == (1, 1)
        assert link.transmitted == 0 and link.dropped == 0

    def test_crash_between_transmit_and_delivery(self):
        # In flight when the destination dies: the delivery-time check
        # drops it, after the link already counted the transmission.
        sim, a, b = two_node_sim(latency=1e-3)
        sim.transmit(1, 2, make_get(1, 2, KEY))
        sim.set_node_down(2)
        sim.run()
        assert b.got == []
        assert (sim.lost, sim.node_drops) == (1, 1)
        assert sim.link_between(1, 2).transmitted == 1


class TestHooks:
    def test_delivery_hooks_fire_in_registration_order_before_handler(self):
        sim, a, b = two_node_sim(latency=2e-6)
        calls = []
        sim.delivery_hooks.append(lambda t, s, d, p: calls.append(("h1", t)))
        sim.delivery_hooks.append(lambda t, s, d, p: calls.append(("h2", t)))
        b.handle_packet = lambda pkt: calls.append(("node", sim.now))
        sim.transmit(1, 2, make_get(1, 2, KEY))
        sim.run()
        assert [c[0] for c in calls] == ["h1", "h2", "node"]
        assert all(t == pytest.approx(2e-6) for _, t in calls)

    def test_drop_hooks_see_the_link(self):
        # seed 0's first loss draw falls under 0.5, so the transmit drops.
        sim, a, b = two_node_sim(loss_prob=0.5, seed=0)
        drops = []
        sim.drop_hooks.append(lambda t, link: drops.append(link))
        assert not sim.transmit(1, 2, make_get(1, 2, KEY))
        assert drops == [sim.link_between(1, 2)]

    def test_delivery_to_unknown_node_raises(self):
        sim, a, b = two_node_sim()
        sim.events.schedule(0.0, sim._deliver, 1, 99, make_get(1, 99, KEY))
        with pytest.raises(SimulationError):
            sim.run()


class TestRunSemantics:
    def test_run_max_events_stops_exactly(self):
        sim, a, b = two_node_sim()
        for _ in range(5):
            sim.transmit(1, 2, make_get(1, 2, KEY))
        assert sim.run(max_events=3) == 3
        assert len(b.got) == 3
        assert sim.run() == 2

    def test_same_timestamp_orders_by_priority_then_schedule(self):
        sim = Simulator()
        order = []
        sim.events.schedule(1.0, order.append, "first-scheduled")
        sim.events.schedule(1.0, order.append, "second-scheduled")
        sim.events.schedule(1.0, order.append, "high-priority", priority=-1)
        sim.run()
        assert order == ["high-priority", "first-scheduled",
                         "second-scheduled"]

    def test_next_event_time_peeks_without_popping(self):
        sim, a, b = two_node_sim(latency=4e-6)
        assert sim.events.peek_time() is None
        sim.transmit(1, 2, make_get(1, 2, KEY))
        assert sim.events.peek_time() == pytest.approx(4e-6)
        assert len(sim.events) == 1  # still pending

    def test_deliver_at_lands_at_exact_time(self):
        # Adversarial pair: now + (when - now) is one ulp off when, so a
        # relative reschedule would misplace the delivery.
        now, when = 9.173988086863538e-06, 1.8628264379002524
        assert now + (when - now) != when
        sim, a, b = two_node_sim()
        sim.run_until(now)
        sim.deliver_at(when, 1, 2, make_get(1, 2, KEY))
        sim.run()
        assert b.got[0][0] == when  # bit-exact, not approx


class TestLifecycle:
    def test_start_hooks_called_once(self):
        sim, a, b = two_node_sim()
        sim.run_until(1.0)
        sim.run_until(2.0)
        assert a.started and b.started

    def test_now_tracks_run_until(self):
        sim, _, _ = two_node_sim()
        sim.run_until(0.5)
        assert sim.now == 0.5
