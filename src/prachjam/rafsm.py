"""4-step contention-based random-access state machines.

One UE machine and one gNB context. The campaign drives them on a virtual
clock: ``ue_step`` must be invoked at every PRACH occasion instant the UE
is active, plus whenever downlink events are delivered. Msg2..Msg4 are
delivered reliably; only the preamble (Msg1) crosses the jammed channel.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace, field as dc_field
from typing import Any

import numpy as np

from .detector import DetectionResult

__all__ = [
    "UeState",
    "UeRaState",
    "GnbRaContext",
    "RarEvent",
    "Msg4Event",
    "PreambleTx",
    "Msg3",
    "make_ue",
    "next_transmit_ms",
    "ue_step",
    "gnb_step",
    "RETRY_PERIOD_MS",
    "RAR_WINDOW_MS",
]

RETRY_PERIOD_MS = 100.0  # retransmit cadence while unconnected
RAR_WINDOW_MS = 20.0  # one PRACH period; anything < 100 ms keeps the cadence


class UeState(enum.Enum):
    IDLE = "IDLE"
    WAIT_RAR = "WAIT_RAR"
    WAIT_MSG4 = "WAIT_MSG4"
    CONNECTED = "CONNECTED"


Signature = tuple[int, int]  # (root, shift index)
OccasionKey = tuple[int, int, int]  # (sfn, slot, occasion index)


@dataclass(frozen=True)
class RarEvent:
    signature: Signature
    tid: int
    occasion_key: OccasionKey


@dataclass(frozen=True)
class Msg4Event:
    tid: int
    winner_id: int


@dataclass(frozen=True)
class PreambleTx:
    signature: Signature
    occasion_key: OccasionKey


@dataclass(frozen=True)
class Msg3:
    tid: int
    unique_id: int


@dataclass(frozen=True)
class UeRaState:
    state: UeState
    unique_id: int
    signatures: tuple[Signature, ...]
    retry_timer_ms: float  # next scheduled transmit instant
    preambles_sent: int = 0
    chosen_signature: Signature | None = None
    tx_occasion: OccasionKey | None = None
    tx_deadline_ms: float | None = None  # RAR window end
    pending_tid: int | None = None


def make_ue(
    unique_id: int,
    signatures: tuple[Signature, ...],
    first_attempt_ms: float,
) -> UeRaState:
    if not signatures:
        raise ValueError("signature space must be nonempty")
    return UeRaState(
        state=UeState.IDLE,
        unique_id=unique_id,
        signatures=signatures,
        retry_timer_ms=first_attempt_ms,
    )


def _clear_attempt(ue: UeRaState) -> UeRaState:
    return replace(
        ue,
        state=UeState.IDLE,
        chosen_signature=None,
        tx_occasion=None,
        tx_deadline_ms=None,
        pending_tid=None,
    )


def ue_step(
    ue: UeRaState,
    now: float,
    events: list[Any],
    rng: np.random.Generator,
    occasion_key: OccasionKey | None = None,
) -> tuple[UeRaState, PreambleTx | Msg3 | None]:
    """Advance one UE by one instant; returns the new state and any uplink.

    ``occasion_key`` identifies a PRACH occasion starting at ``now``; when
    present and the retry timer has elapsed, an idle UE transmits a
    preamble with a uniformly random signature. A connected UE never
    transmits again. Events other than RARs and Msg4s are ignored.
    """
    action: PreambleTx | Msg3 | None = None

    for ev in events:
        if isinstance(ev, RarEvent):
            if (
                ue.state is UeState.WAIT_RAR
                and ev.signature == ue.chosen_signature
                and ev.occasion_key == ue.tx_occasion
            ):
                ue = replace(ue, state=UeState.WAIT_MSG4, pending_tid=ev.tid)
                action = Msg3(tid=ev.tid, unique_id=ue.unique_id)
            # RARs for other signatures/occasions are normal traffic.
        elif isinstance(ev, Msg4Event):
            if ue.state is UeState.WAIT_MSG4 and ev.tid == ue.pending_tid:
                if ev.winner_id == ue.unique_id:
                    ue = replace(
                        ue,
                        state=UeState.CONNECTED,
                        chosen_signature=None,
                        tx_occasion=None,
                        tx_deadline_ms=None,
                        pending_tid=None,
                    )
                else:
                    # Contention lost: repeat the whole procedure.
                    ue = _clear_attempt(ue)

    if (
        ue.state is UeState.WAIT_RAR
        and ue.tx_deadline_ms is not None
        and now >= ue.tx_deadline_ms
    ):
        ue = _clear_attempt(ue)

    if (
        ue.state is UeState.IDLE
        and occasion_key is not None
        and now >= ue.retry_timer_ms
        and action is None
    ):
        signature = ue.signatures[int(rng.integers(len(ue.signatures)))]
        ue = replace(
            ue,
            state=UeState.WAIT_RAR,
            chosen_signature=signature,
            tx_occasion=occasion_key,
            tx_deadline_ms=now + RAR_WINDOW_MS,
            preambles_sent=ue.preambles_sent + 1,
            retry_timer_ms=ue.retry_timer_ms + RETRY_PERIOD_MS,
        )
        action = PreambleTx(signature=signature, occasion_key=occasion_key)

    return ue, action


def next_transmit_ms(ue: UeRaState) -> float:
    """Earliest instant at which ``ue_step`` without events sends a preamble.

    An idle UE sends once its retry timer has elapsed; a UE waiting for a
    RAR also waits for the end of its RAR window. Any other state sends
    nothing until an event moves it (``inf``).
    """
    if ue.state is UeState.IDLE:
        return ue.retry_timer_ms
    if ue.state is UeState.WAIT_RAR:
        return max(ue.retry_timer_ms, ue.tx_deadline_ms)
    return float("inf")


@dataclass
class GnbRaContext:
    resolved_tids: set[int] = dc_field(default_factory=set)
    next_tid: int = 0


def gnb_step(
    ctx: GnbRaContext,
    detections: DetectionResult | None,
    msg3s: list[Msg3],
) -> tuple[GnbRaContext, list[Any]]:
    """Advance the gNB: answer detections with RARs, resolve Msg3 contention.

    One temporary identifier is allocated per detected signature per
    occasion. When several Msg3s arrive under one identifier the winner is
    the first received; simultaneous arrivals are resolved toward the
    lowest unique id.
    """
    events: list[Any] = []
    if detections is not None:
        key = _occasion_key(detections)
        for det in detections.detected:
            signature = (det.root, det.signature)
            tid = ctx.next_tid
            ctx.next_tid += 1
            events.append(RarEvent(signature=signature, tid=tid, occasion_key=key))
    if msg3s:
        by_tid: dict[int, list[int]] = {}
        for msg in sorted(msg3s, key=lambda m: m.unique_id):
            by_tid.setdefault(msg.tid, []).append(msg.unique_id)
        for tid, ids in by_tid.items():
            if tid not in ctx.resolved_tids:
                # First-received wins; ties within one call go to the lowest id.
                ctx.resolved_tids.add(tid)
                events.append(Msg4Event(tid=tid, winner_id=ids[0]))
    return ctx, events


def _occasion_key(detections: DetectionResult) -> OccasionKey:
    occ = detections.occasion
    if occ is None:
        return (-1, -1, -1)
    return (occ.sfn, occ.slot, occ.occasion_index)
