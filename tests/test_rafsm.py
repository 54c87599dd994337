"""Random-access state machines: happy path, retries, contention."""
import copy
import itertools

import numpy as np

from prachjam.rafsm import (
    GnbRaContext,
    Msg3,
    Msg4Event,
    PreambleTx,
    RAR_WINDOW_MS,
    RETRY_PERIOD_MS,
    RarEvent,
    UeState,
    gnb_step,
    make_ue,
    ue_step,
)

from helpers import detections_for, run_exchange

SIGNATURE = (1, 3)


class TestUeHappyPath:
    def test_connects_after_four_messages(self):
        ue = make_ue(unique_id=7, first_attempt_ms=0.0)
        key = (1, 19, 0)
        action = ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, key))
        assert action == PreambleTx(SIGNATURE, key)
        assert ue.state is UeState.WAIT_RAR
        assert ue.preambles_sent == 1
        rar = RarEvent(preamble=action, tid=42)
        action = ue_step(ue, 0.5, [rar])
        assert isinstance(action, Msg3)
        assert action.unique_id == 7
        assert ue.state is UeState.WAIT_MSG4
        action = ue_step(ue, 1.0, [Msg4Event(tid=42, winner_id=7)])
        assert ue.state is UeState.CONNECTED
        assert action is None

    def test_connected_never_transmits_again(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        key = (1, 19, 0)
        tx = ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, key))
        rar = RarEvent(tx, 5)
        ue_step(ue, 0.1, [rar])
        ue_step(ue, 0.2, [Msg4Event(5, 1)])
        assert ue.state is UeState.CONNECTED
        sent = ue.preambles_sent
        for t in range(1, 2000, 100):
            action = ue_step(ue, float(t), [], PreambleTx(SIGNATURE, (t, 19, 0)))
            assert action is None
        assert ue.preambles_sent == sent


class TestUeRetries:
    def test_retry_cadence_exact_100ms(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        tx_times = []
        t = 0.0
        while t < 60_000.0:
            key = (int(t // 10), 19, 0)
            action = ue_step(ue, t, [], PreambleTx(SIGNATURE, key))
            if isinstance(action, PreambleTx):
                tx_times.append(t)
            t += 20.0  # one PRACH period, never any RAR
        assert len(tx_times) == 600
        gaps = np.diff(tx_times)
        assert np.all(gaps == RETRY_PERIOD_MS)
        assert ue.preambles_sent == 600
        assert ue.state is not UeState.CONNECTED

    def test_rar_timeout_returns_to_idle(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, (0, 19, 0)))
        assert ue.state is UeState.WAIT_RAR
        ue_step(ue, RAR_WINDOW_MS - 1, [])
        assert ue.state is UeState.WAIT_RAR
        ue_step(ue, RAR_WINDOW_MS, [])
        assert ue.state is UeState.IDLE
        assert ue.attempt is None

    def test_rar_for_other_signature_ignored(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        key = (0, 19, 0)
        tx = ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, key))
        other = (tx.signature[0], (tx.signature[1] + 1) % 10)
        action = ue_step(ue, 1.0, [RarEvent(PreambleTx(other, key), 9)])
        assert action is None
        assert ue.state is UeState.WAIT_RAR

    def test_rar_for_other_occasion_ignored(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        tx = ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, (0, 19, 0)))
        action = ue_step(ue, 1.0, [RarEvent(PreambleTx(tx.signature, (0, 19, 1)), 9)])
        assert action is None
        assert ue.state is UeState.WAIT_RAR

    def test_malformed_events_leave_ue_unchanged(self):
        ue = make_ue(unique_id=1, first_attempt_ms=0.0)
        ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, (0, 19, 0)))
        before = copy.copy(ue)
        action = ue_step(ue, 1.0, ["garbage", object()])
        assert ue == before
        assert action is None

    def test_contention_loser_restarts(self):
        ue = make_ue(unique_id=2, first_attempt_ms=0.0)
        key = (0, 19, 0)
        tx = ue_step(ue, 0.0, [], PreambleTx(SIGNATURE, key))
        ue_step(ue, 0.1, [RarEvent(tx, 1)])
        assert ue.state is UeState.WAIT_MSG4
        ue_step(ue, 0.2, [Msg4Event(tid=1, winner_id=999)])
        assert ue.state is UeState.IDLE
        assert ue.attempt is None


class TestGnb:
    def test_no_detections_no_rars(self):
        events = gnb_step(GnbRaContext(), detections_for(set()), [])
        assert events == []

    def test_one_detection_one_fresh_tid(self):
        ctx = GnbRaContext()
        events = gnb_step(ctx, detections_for({(1, 3)}), [])
        assert len(events) == 1
        first_tid = events[0].tid
        events = gnb_step(ctx, detections_for({(1, 4)}), [])
        assert events[0].tid != first_tid

    def test_msg3_collision_single_winner(self):
        ctx = GnbRaContext()
        rars = gnb_step(ctx, detections_for({(1, 3)}), [])
        tid = rars[0].tid
        msg4s = gnb_step(
            ctx, None, [Msg3(tid=tid, unique_id=12), Msg3(tid=tid, unique_id=4)]
        )
        assert len(msg4s) == 1
        assert msg4s[0].winner_id == 4  # lowest id on simultaneous arrival

    def test_first_received_wins_across_calls(self):
        ctx = GnbRaContext()
        rars = gnb_step(ctx, detections_for({(1, 3)}), [])
        tid = rars[0].tid
        first = gnb_step(ctx, None, [Msg3(tid=tid, unique_id=12)])
        second = gnb_step(ctx, None, [Msg3(tid=tid, unique_id=4)])
        assert first[0].winner_id == 12
        assert second == []  # already resolved


class TestContentionExhaustive:
    def test_exactly_one_winner_per_tid(self):
        for sig_a, sig_b in itertools.product(range(10), repeat=2):
            ues = {"a": make_ue(1, 0.0), "b": make_ue(2, 0.0)}
            run_exchange(ues, (0, 19, 0), 0.0, {"a": (1, sig_a), "b": (1, sig_b)})
            connected = [n for n, u in ues.items() if u.state is UeState.CONNECTED]
            if sig_a == sig_b:
                assert len(connected) == 1, f"signatures {sig_a},{sig_b}"
                loser = ({"a", "b"} - set(connected)).pop()
                assert ues[loser].state is UeState.IDLE
            else:
                assert len(connected) == 2, f"signatures {sig_a},{sig_b}"
