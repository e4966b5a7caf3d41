"""Tests for message transport semantics."""

from __future__ import annotations

from itertools import count

import numpy as np

from repro.routing.messages import RoutedMessage
from repro.sim.network import Network

from .hops import file_hops


class StubHook:
    """Scripted fault hook: maps (src, dst) to a fates tuple, default clean."""

    def __init__(self, fates=None, active=True):
        self.fates = fates or {}
        self.message_faults_active = active

    def message_fates_batch(self, t, srcs, dsts):
        pairs = zip(srcs.tolist(), dsts.tolist())
        fates = [self.fates.get(pair, (1,)) for pair in pairs]
        copy = [i for i, lats in enumerate(fates) for _ in lats]
        latency = [lat for lats in fates for lat in lats]
        return np.array(copy, dtype=np.int64), np.array(latency, dtype=np.int64)


class TestSendDeliver:
    def test_basic_delivery(self):
        net = Network()
        net.send(1, 2, "hello")
        edges, sent = net.close_send_phase()
        assert edges == [(1, 2)]
        assert sent == {1: 1}
        inboxes, received = net.deliver({1, 2})
        assert inboxes == {2: [(1, "hello")]}
        assert received == {2: 1}

    def test_churned_receiver_gets_nothing(self):
        """A node churned out before delivery receives nothing (immediacy)."""
        net = Network()
        net.send(1, 2, "hello")
        net.close_send_phase()
        inboxes, _ = net.deliver({1})  # 2 is gone
        assert inboxes == {}

    def test_churned_sender_messages_still_delivered(self):
        """Messages sent in t-1 by a node that leaves at t are delivered."""
        net = Network()
        net.send(1, 2, "bye")
        net.close_send_phase()
        inboxes, _ = net.deliver({2})  # 1 is gone
        assert inboxes == {2: [(1, "bye")]}

    def test_edges_recorded_even_for_dead_receivers(self):
        """The edge exists at send time; the adversary sees it regardless."""
        net = Network()
        net.send(1, 2, "x")
        edges, _ = net.close_send_phase()
        assert (1, 2) in edges

    def test_no_same_round_delivery(self):
        """A message sent this round is not in this round's delivery."""
        net = Network()
        inboxes, _ = net.deliver(set())
        assert inboxes == {}
        net.send(1, 2, "x")
        # Not yet closed: nothing pending for delivery.
        assert net.has_pending


class TestMulticast:
    def test_one_payload_to_several_receivers(self):
        net = Network()
        net.send_singles_batch(1, [(2, "m"), (3, "m"), (4, "m")])
        edges, sent = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        assert sent == {1: 3}
        inboxes, received = net.deliver({2, 3, 4})
        assert all(inboxes[d] == [(1, "m")] for d in (2, 3, 4))
        assert received == {2: 1, 3: 1, 4: 1}

    def test_payload_shared_not_copied(self):
        net = Network()
        payload = {"k": 1}
        net.send_singles_batch(1, [(2, payload), (3, payload)])
        net.close_send_phase()
        inboxes, _ = net.deliver({2, 3})
        assert inboxes[2][0][1] is inboxes[3][0][1]

    def test_empty_multicast_noop(self):
        net = Network()
        net.send_singles_batch(1, [])
        edges, sent = net.close_send_phase()
        assert edges == [] and sent == {}

    def test_partial_survivors(self):
        net = Network()
        net.send_singles_batch(1, [(2, "m"), (3, "m")])
        net.close_send_phase()
        inboxes, _ = net.deliver({3})
        assert inboxes == {3: [(1, "m")]}


class TestObjectLaneOrder:
    """One object lane: both send calls append to the same columns."""

    @staticmethod
    def interleave(net: Network, payload: object) -> list[tuple[int, int, object]]:
        """Two senders alternate between the two send calls (and file hops);
        returns the ``(src, dst, msg)`` copies in the order they were issued."""
        net.send(1, 9, "a")
        net.send_singles_batch(2, [(9, payload), (8, payload), (7, payload)])
        file_hops(net.plane, [(2, Msg(), 0, [9, 5]), (1, Msg(), 0, [6])], net.file_hops)
        net.send_singles_batch(1, [(8, "b"), (9, "c")])
        net.send(2, 9, "d")
        net.send_singles_batch(1, [(9, "e"), (8, "e")])
        net.send_singles_batch(2, [(9, "f")])
        return [
            (1, 9, "a"),
            (2, 9, payload), (2, 8, payload), (2, 7, payload),
            (1, 8, "b"), (1, 9, "c"),
            (2, 9, "d"),
            (1, 9, "e"), (1, 8, "e"),
            (2, 9, "f"),
        ]  # fmt: skip

    def test_inbox_and_edge_order_is_global_issue_order(self):
        net = Network()
        issued = self.interleave(net, {"k": 1})
        edges, sent = net.close_send_phase()
        # Object lane in issue order, then the hop copies in send order.
        assert edges == [(s, d) for s, d, _ in issued] + [(2, 9), (2, 5), (1, 6)]
        assert sent == {1: 6, 2: 7}
        inboxes, received = net.deliver({5, 6, 7, 8, 9})
        for dst in (7, 8, 9):
            assert inboxes[dst] == [(s, m) for s, d, m in issued if d == dst]
        assert received == {9: 7, 8: 3, 7: 1, 5: 1, 6: 1}  # hop copies counted too
        assert not net.has_pending

    def test_fated_copies_keep_issue_order_and_share_the_multicast_payload(self):
        net = Network()
        # The multicast is split over two latencies, one copy dropped; a
        # single is late as well and must queue *behind* the multicast copy
        # issued before it.
        net.fault_hook = StubHook({(2, 8): (2,), (2, 7): (), (1, 8): (2, 2)})
        payload = {"k": 1}
        issued = self.interleave(net, payload)
        net.close_send_phase()
        first, _ = net.deliver({7, 8, 9})
        assert first == {9: [(s, m) for s, d, m in issued if d == 9]}
        second, _ = net.deliver({7, 8, 9})
        assert second == {
            8: [(2, payload), (1, "b"), (1, "b"), (1, "e"), (1, "e")]
        }
        assert second[8][0][1] is first[9][1][1] is payload
        assert not net.has_pending


class TestIdCoercion:
    def test_send_coerces_numpy_ids(self):
        """NumPy ids must not leak into trace edges or inbox keys."""
        net = Network()
        for dst in np.array([2, 3, 4], dtype=np.int64):
            net.send(1, dst, "m")
        edges, _ = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        assert all(type(dst) is int for _, dst in edges)
        inboxes, _ = net.deliver({2, 3, 4})
        assert all(type(dst) is int for dst in inboxes)


class TestFaultHook:
    def test_dropped_message_keeps_its_edge(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): ()})
        net.send(1, 2, "x")
        edges, _ = net.close_send_phase()
        assert edges == [(1, 2)]  # the adversary still observes the attempt
        inboxes, _ = net.deliver({1, 2})
        assert inboxes == {}
        assert not net.has_pending

    def test_delayed_message_arrives_later(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (3,)})
        net.send(1, 2, "slow")
        net.close_send_phase()
        for _ in range(2):
            inboxes, _ = net.deliver({1, 2})
            assert inboxes == {}
            assert net.has_pending
        inboxes, _ = net.deliver({1, 2})
        assert inboxes == {2: [(1, "slow")]}
        assert not net.has_pending

    def test_delayed_message_respects_churn_at_delivery(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (2,)})
        net.send(1, 2, "slow")
        net.close_send_phase()
        net.deliver({1, 2})
        inboxes, _ = net.deliver({1})  # 2 left while the message was in flight
        assert inboxes == {}

    def test_duplicate_delivers_two_copies(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (1, 1)})
        net.send(1, 2, "x")
        net.close_send_phase()
        inboxes, received = net.deliver({2})
        assert inboxes == {2: [(1, "x"), (1, "x")]}
        assert received == {2: 2}

    def test_multicast_split_by_latency_shares_payload(self):
        net = Network()
        net.fault_hook = StubHook({(1, 3): (2,), (1, 4): ()})
        payload = {"k": 1}
        net.send_singles_batch(1, [(2, payload), (3, payload), (4, payload)])
        edges, _ = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        first, _ = net.deliver({2, 3, 4})
        assert first == {2: [(1, payload)]}
        second, _ = net.deliver({2, 3, 4})
        assert second == {3: [(1, payload)]}
        assert second[3][0][1] is first[2][0][1]
        assert not net.has_pending

    def test_has_pending_drains_only_after_all_buckets(self):
        """Both queues (singles and multicasts), all latency buckets."""
        net = Network()
        net.fault_hook = StubHook({(1, 2): (3,), (5, 6): (2,)})
        net.send(1, 2, "late-single")
        net.send_singles_batch(5, [(6, "multi"), (7, "multi")])
        net.close_send_phase()
        alive = {1, 2, 5, 6, 7}
        assert net.has_pending
        net.deliver(alive)  # round 1: only (5, 7) due
        assert net.has_pending
        net.deliver(alive)  # round 2: (5, 6) due
        assert net.has_pending
        inboxes, _ = net.deliver(alive)  # round 3: (1, 2) due
        assert inboxes == {2: [(1, "late-single")]}
        assert not net.has_pending

    def test_inactive_hook_uses_fast_path(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): ()}, active=False)
        net.send(1, 2, "x")
        net.close_send_phase()
        inboxes, _ = net.deliver({2})
        assert inboxes == {2: [(1, "x")]}


_launches = count()


def Msg() -> RoutedMessage:
    """A stand-in routed message with a launch key of its own (the key is
    what the plane interns on)."""
    return RoutedMessage(("m",), 1, 0.0, (0.0, 0.0), 0, ordinal=next(_launches))


def plane_network(fates=None) -> Network:
    net = Network()
    net.fault_hook = StubHook(fates)
    return net


def arrived(net: Network) -> dict[int, list[tuple[object, int]]]:
    """The latest hop delivery as ``receiver -> [(msg, step), ...]``."""
    delivery = net.hop_delivery
    if delivery is None:
        return {}
    steps = delivery.steps.tolist()
    return {
        dst: [(delivery.msgs[r], steps[r]) for r in rows.tolist()]
        for dst, rows in delivery.rows.items()
    }


class TestHopPlaneFaults:
    """What fates add to the columnar transport."""

    def test_delayed_copy_arrives_k_rounds_late_and_dedups_with_a_fresh_one(self):
        net = plane_network({(1, 9): (3,)})  # k = 2 extra rounds
        m = Msg()
        file_hops(net.plane, [(1, m, 4, [8, 9])], net.file_hops)
        net.close_send_phase()
        alive = {1, 2, 8, 9}
        _, received = net.deliver(alive)  # t+1: only the undisturbed copy
        assert arrived(net) == {8: [(m, 4)]} and received == {8: 1}
        net.close_send_phase()
        net.deliver(alive)  # t+2: nothing due
        assert net.hop_delivery is None and net.has_pending
        # The same logical hop is sent again a round before the late copy lands.
        other = Msg()
        file_hops(net.plane, [(2, m, 4, [9]), (2, other, 0, [9])], net.file_hops)
        net.close_send_phase()
        _, received = net.deliver(alive)  # t+1+k
        assert received == {9: 3}  # every copy is counted ...
        assert arrived(net) == {9: [(m, 4), (other, 0)]}  # ... the hop is seen once
        assert not net.has_pending

    def test_duplicated_copy_counts_twice_and_is_seen_once(self):
        net = plane_network({(1, 9): (1, 1)})
        m = Msg()
        file_hops(net.plane, [(1, m, 0, [8, 9])], net.file_hops)
        _, sent = net.close_send_phase()
        assert sent == {1: 2}  # duplication happens in the environment
        _, received = net.deliver({8, 9})
        assert net.hop_delivery.counts == {8: 1, 9: 2}
        assert net.hop_delivery.total == 3
        assert received == {8: 1, 9: 2}
        assert arrived(net) == {8: [(m, 0)], 9: [(m, 0)]}

    def test_dropped_copy_keeps_its_edge(self):
        net = plane_network({(1, 9): ()})
        file_hops(net.plane, [(1, Msg(), 0, [8, 9])], net.file_hops)
        edges, _ = net.close_send_phase()
        assert list(edges) == [(1, 8), (1, 9)]
        net.deliver({8, 9})
        assert set(net.hop_delivery.rows) == {8}
        assert not net.has_pending

    def test_receiver_absent_at_the_late_delivery_gets_nothing(self):
        """Churned out — or not admitted yet: the engine withholds a joining
        id from the round's receivers — while the copy was in flight."""
        net = plane_network({(1, 9): (2,)})
        file_hops(net.plane, [(1, Msg(), 0, [9])], net.file_hops)
        net.close_send_phase()
        net.deliver({1, 9})
        _, received = net.deliver({1})
        assert received == {} and net.hop_delivery.rows == {}
        assert not net.has_pending  # the copy is spent, not requeued

    def test_copies_are_conserved_across_a_delay_window(self):
        """sent = delivered + dropped + in flight, for every transport."""
        net = plane_network(
            {(1, 5): (), (1, 6): (3,), (1, 7): (1, 2), (2, 5): (2,), (3, 6): ()}
        )
        # 1 dropped, 1 late, 1 duplicated
        file_hops(net.plane, [(1, Msg(), 0, [4, 5, 6, 7])], net.file_hops)
        net.send(2, 5, "single")
        net.send_singles_batch(3, [(5, "multi"), (6, "multi")])
        assert net._pending_count == 7
        net.close_send_phase()
        sent, dropped, duplicated = 7, 2, 1
        in_flight = sent - dropped + duplicated
        assert net._pending_count == in_flight
        delivered = 0
        for _ in range(3):
            assert net.has_pending
            _, received = net.deliver({4, 5, 6, 7})
            delivered += sum(received.values())
            assert net._pending_count == in_flight - delivered
        assert delivered == in_flight and not net.has_pending


class TestRoundIsolation:
    def test_counts_reset_between_rounds(self):
        net = Network()
        net.send(1, 2, "a")
        net.close_send_phase()
        _, sent = net.close_send_phase()
        assert sent == {}

    def test_pending_cleared_after_delivery(self):
        net = Network()
        net.send(1, 2, "a")
        net.close_send_phase()
        net.deliver({2})
        inboxes, _ = net.deliver({2})
        assert inboxes == {}
