"""Random-access state machines: happy path, retries, contention."""
import itertools

import numpy as np

from prachjam.detector import Detection, DetectionResult
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
    next_transmit_ms,
    ue_step,
)

SIGNATURES = tuple((1, s) for s in range(10))


def detections_for(signatures, occasion=None):
    return DetectionResult(
        detected=[Detection(root=r, signature=s, metric=100.0) for r, s in signatures],
        noise_floor=1.0,
        occasion=occasion,
    )


def run_exchange(ues, occasion_key, now, rng, detected_signatures=None):
    """One occasion: transmissions, detection stub, RAR/Msg3/Msg4."""
    ctx = GnbRaContext()
    txs = {}
    for name, ue in list(ues.items()):
        ue, action = ue_step(ue, now, [], rng, occasion_key=occasion_key)
        ues[name] = ue
        if isinstance(action, PreambleTx):
            txs[name] = action
    if detected_signatures is None:
        detected_signatures = {tx.signature for tx in txs.values()}
    ctx, rars = gnb_step(ctx, detections_for(detected_signatures), [])
    # Patch occasion keys since the stub result has no occasion attached.
    rars = [RarEvent(r.signature, r.tid, occasion_key) for r in rars]
    msg3s = []
    for name, ue in list(ues.items()):
        ue, action = ue_step(ue, now, rars, rng)
        ues[name] = ue
        if isinstance(action, Msg3):
            msg3s.append(action)
    ctx, msg4s = gnb_step(ctx, None, msg3s)
    for name, ue in list(ues.items()):
        ue, _ = ue_step(ue, now, msg4s, rng)
        ues[name] = ue
    return ctx


class TestUeHappyPath:
    def test_connects_after_four_messages(self):
        rng = np.random.default_rng(0)
        ue = make_ue(unique_id=7, signatures=SIGNATURES, first_attempt_ms=0.0)
        key = (1, 19, 0)
        ue, action = ue_step(ue, 0.0, [], rng, occasion_key=key)
        assert isinstance(action, PreambleTx)
        assert ue.state is UeState.WAIT_RAR
        assert ue.preambles_sent == 1
        rar = RarEvent(signature=action.signature, tid=42, occasion_key=key)
        ue, action = ue_step(ue, 0.5, [rar], rng)
        assert isinstance(action, Msg3)
        assert action.unique_id == 7
        assert ue.state is UeState.WAIT_MSG4
        ue, action = ue_step(ue, 1.0, [Msg4Event(tid=42, winner_id=7)], rng)
        assert ue.state is UeState.CONNECTED
        assert action is None

    def test_connected_never_transmits_again(self):
        rng = np.random.default_rng(1)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        key = (1, 19, 0)
        ue, tx = ue_step(ue, 0.0, [], rng, occasion_key=key)
        rar = RarEvent(tx.signature, 5, key)
        ue, _ = ue_step(ue, 0.1, [rar], rng)
        ue, _ = ue_step(ue, 0.2, [Msg4Event(5, 1)], rng)
        assert ue.state is UeState.CONNECTED
        sent = ue.preambles_sent
        for t in range(1, 2000, 100):
            ue, action = ue_step(ue, float(t), [], rng, occasion_key=(t, 19, 0))
            assert action is None
        assert ue.preambles_sent == sent


class TestUeRetries:
    def test_retry_cadence_exact_100ms(self):
        rng = np.random.default_rng(2)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        tx_times = []
        t = 0.0
        while t < 60_000.0:
            key = (int(t // 10), 19, 0)
            ue, action = ue_step(ue, t, [], rng, occasion_key=key)
            if isinstance(action, PreambleTx):
                tx_times.append(t)
            t += 20.0  # one PRACH period, never any RAR
        assert len(tx_times) == 600
        gaps = np.diff(tx_times)
        assert np.all(gaps == RETRY_PERIOD_MS)
        assert ue.preambles_sent == 600
        assert ue.state is not UeState.CONNECTED

    def test_rar_timeout_returns_to_idle(self):
        rng = np.random.default_rng(3)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        ue, _ = ue_step(ue, 0.0, [], rng, occasion_key=(0, 19, 0))
        assert ue.state is UeState.WAIT_RAR
        ue, _ = ue_step(ue, RAR_WINDOW_MS - 1, [], rng)
        assert ue.state is UeState.WAIT_RAR
        ue, _ = ue_step(ue, RAR_WINDOW_MS, [], rng)
        assert ue.state is UeState.IDLE
        assert ue.chosen_signature is None

    def test_rar_for_other_signature_ignored(self):
        rng = np.random.default_rng(4)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        key = (0, 19, 0)
        ue, tx = ue_step(ue, 0.0, [], rng, occasion_key=key)
        other = (tx.signature[0], (tx.signature[1] + 1) % 10)
        ue, action = ue_step(ue, 1.0, [RarEvent(other, 9, key)], rng)
        assert action is None
        assert ue.state is UeState.WAIT_RAR

    def test_rar_for_other_occasion_ignored(self):
        rng = np.random.default_rng(5)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        ue, tx = ue_step(ue, 0.0, [], rng, occasion_key=(0, 19, 0))
        ue, action = ue_step(ue, 1.0, [RarEvent(tx.signature, 9, (0, 19, 1))], rng)
        assert action is None
        assert ue.state is UeState.WAIT_RAR

    def test_malformed_events_leave_ue_unchanged(self):
        rng = np.random.default_rng(6)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        ue, _ = ue_step(ue, 0.0, [], rng, occasion_key=(0, 19, 0))
        after, action = ue_step(ue, 1.0, ["garbage", object()], rng)
        assert after == ue
        assert action is None

    def test_contention_loser_restarts(self):
        rng = np.random.default_rng(7)
        ue = make_ue(unique_id=2, signatures=SIGNATURES, first_attempt_ms=0.0)
        key = (0, 19, 0)
        ue, tx = ue_step(ue, 0.0, [], rng, occasion_key=key)
        ue, _ = ue_step(ue, 0.1, [RarEvent(tx.signature, 1, key)], rng)
        assert ue.state is UeState.WAIT_MSG4
        ue, _ = ue_step(ue, 0.2, [Msg4Event(tid=1, winner_id=999)], rng)
        assert ue.state is UeState.IDLE
        assert ue.chosen_signature is None


class TestNextTransmit:
    def sends_at(self, ue, now):
        rng = np.random.default_rng(8)
        _, action = ue_step(ue, now, [], rng, occasion_key=(0, 19, 0))
        return isinstance(action, PreambleTx)

    def test_idle_waits_for_its_retry_timer(self):
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=37.5)
        assert next_transmit_ms(ue) == 37.5
        assert not self.sends_at(ue, np.nextafter(37.5, 0.0))
        assert self.sends_at(ue, 37.5)

    def test_waiting_for_rar_also_waits_for_its_window(self):
        rng = np.random.default_rng(9)
        # A window that outlasts the retry period (the timer is already
        # due) and one that ends before it.
        for first, now in ((-90.0, 0.0), (0.0, 0.0)):
            ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=first)
            ue, _ = ue_step(ue, now, [], rng, occasion_key=(0, 19, 0))
            assert ue.state is UeState.WAIT_RAR
            expected = max(ue.retry_timer_ms, ue.tx_deadline_ms)
            assert next_transmit_ms(ue) == expected
            assert not self.sends_at(ue, np.nextafter(expected, 0.0))
            assert self.sends_at(ue, expected)

    def test_connected_and_waiting_for_msg4_never_send(self):
        rng = np.random.default_rng(10)
        ue = make_ue(unique_id=1, signatures=SIGNATURES, first_attempt_ms=0.0)
        key = (0, 19, 0)
        ue, tx = ue_step(ue, 0.0, [], rng, occasion_key=key)
        ue, _ = ue_step(ue, 0.1, [RarEvent(tx.signature, 1, key)], rng)
        assert ue.state is UeState.WAIT_MSG4
        assert next_transmit_ms(ue) == float("inf")
        ue, _ = ue_step(ue, 0.2, [Msg4Event(tid=1, winner_id=1)], rng)
        assert ue.state is UeState.CONNECTED
        assert next_transmit_ms(ue) == float("inf")
        assert not self.sends_at(ue, 1e9)


class TestGnb:
    def test_no_detections_no_rars(self):
        ctx, events = gnb_step(GnbRaContext(), detections_for(set()), [])
        assert events == []

    def test_one_detection_one_fresh_tid(self):
        ctx = GnbRaContext()
        ctx, events = gnb_step(ctx, detections_for({(1, 3)}), [])
        assert len(events) == 1
        first_tid = events[0].tid
        ctx, events = gnb_step(ctx, detections_for({(1, 4)}), [])
        assert events[0].tid != first_tid

    def test_msg3_collision_single_winner(self):
        ctx = GnbRaContext()
        ctx, rars = gnb_step(ctx, detections_for({(1, 3)}), [])
        tid = rars[0].tid
        ctx, msg4s = gnb_step(
            ctx, None, [Msg3(tid=tid, unique_id=12), Msg3(tid=tid, unique_id=4)]
        )
        assert len(msg4s) == 1
        assert msg4s[0].winner_id == 4  # lowest id on simultaneous arrival

    def test_first_received_wins_across_calls(self):
        ctx = GnbRaContext()
        ctx, rars = gnb_step(ctx, detections_for({(1, 3)}), [])
        tid = rars[0].tid
        ctx, first = gnb_step(ctx, None, [Msg3(tid=tid, unique_id=12)])
        ctx, second = gnb_step(ctx, None, [Msg3(tid=tid, unique_id=4)])
        assert first[0].winner_id == 12
        assert second == []  # already resolved


class TestContentionExhaustive:
    def test_exactly_one_winner_per_tid(self):
        for sig_a, sig_b in itertools.product(range(10), repeat=2):
            rng = np.random.default_rng(sig_a * 10 + sig_b)
            ues = {
                "a": make_ue(1, SIGNATURES, 0.0),
                "b": make_ue(2, SIGNATURES, 0.0),
            }
            # Force the chosen signatures by shrinking the signature space.
            ues["a"] = make_ue(1, ((1, sig_a),), 0.0)
            ues["b"] = make_ue(2, ((1, sig_b),), 0.0)
            run_exchange(ues, (0, 19, 0), 0.0, rng)
            connected = [n for n, u in ues.items() if u.state is UeState.CONNECTED]
            if sig_a == sig_b:
                assert len(connected) == 1, f"signatures {sig_a},{sig_b}"
                loser = ({"a", "b"} - set(connected)).pop()
                assert ues[loser].state is UeState.IDLE
            else:
                assert len(connected) == 2, f"signatures {sig_a},{sig_b}"
