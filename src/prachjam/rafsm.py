"""4-step contention-based random-access state machines.

One UE machine and one gNB context, both stepped in place. The campaign
drives them on a virtual clock: ``ue_step`` must be invoked at every PRACH
occasion instant the UE is active, with the preamble it would send there,
plus whenever downlink events are delivered; it updates the UE and returns
only the uplink. The caller draws the preamble's signature, so the machine
itself holds no random state. The UE keeps the preamble of its current
attempt, and a RAR answers it when it names that same preamble. Msg2..Msg4
are delivered reliably; only the preamble (Msg1) crosses the jammed
channel.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Any

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
class PreambleTx:
    signature: Signature
    occasion_key: OccasionKey


@dataclass(frozen=True)
class RarEvent:
    preamble: PreambleTx  # the detected signature in its occasion
    tid: int


@dataclass(frozen=True)
class Msg4Event:
    tid: int
    winner_id: int


@dataclass(frozen=True)
class Msg3:
    tid: int
    unique_id: int


@dataclass(slots=True)
class UeRaState:
    state: UeState
    unique_id: int
    retry_timer_ms: float  # next scheduled transmit instant
    preambles_sent: int = 0
    attempt: PreambleTx | None = None  # the preamble awaiting its RAR or Msg4
    tx_deadline_ms: float | None = None  # RAR window end
    pending_tid: int | None = None


def make_ue(unique_id: int, first_attempt_ms: float) -> UeRaState:
    return UeRaState(state=UeState.IDLE, unique_id=unique_id, retry_timer_ms=first_attempt_ms)


def _end_attempt(ue: UeRaState, state: UeState) -> None:
    ue.state = state
    ue.attempt = ue.tx_deadline_ms = ue.pending_tid = None


def ue_step(
    ue: UeRaState,
    now: float,
    events: list[Any],
    offer: PreambleTx | None = None,
) -> PreambleTx | Msg3 | None:
    """Advance one UE by one instant, in place; returns any uplink.

    ``offer`` is the preamble the UE would send in a PRACH occasion
    starting at ``now``: the caller draws its signature (uniformly, for a
    contention-based UE) and names the occasion. An idle UE whose retry
    timer has elapsed sends it. A connected UE never transmits again.
    Events other than RARs and Msg4s are ignored.
    """
    action: PreambleTx | Msg3 | None = None

    for ev in events:
        if isinstance(ev, RarEvent):
            # RARs for other signatures/occasions are normal traffic.
            if ue.state is UeState.WAIT_RAR and ev.preamble == ue.attempt:
                ue.state, ue.pending_tid = UeState.WAIT_MSG4, ev.tid
                action = Msg3(tid=ev.tid, unique_id=ue.unique_id)
        elif isinstance(ev, Msg4Event):
            if ue.state is UeState.WAIT_MSG4 and ev.tid == ue.pending_tid:
                # A lost contention repeats the whole procedure.
                won = ev.winner_id == ue.unique_id
                _end_attempt(ue, UeState.CONNECTED if won else UeState.IDLE)

    if ue.state is UeState.WAIT_RAR and now >= ue.tx_deadline_ms:
        _end_attempt(ue, UeState.IDLE)

    if (
        ue.state is UeState.IDLE
        and offer is not None
        and now >= ue.retry_timer_ms
        and action is None
    ):
        ue.state, ue.attempt = UeState.WAIT_RAR, offer
        ue.tx_deadline_ms = now + RAR_WINDOW_MS
        ue.preambles_sent += 1
        ue.retry_timer_ms += RETRY_PERIOD_MS
        action = offer

    return action


@dataclass
class GnbRaContext:
    resolved_tids: set[int] = dc_field(default_factory=set)
    next_tid: int = 0


def gnb_step(
    ctx: GnbRaContext,
    detections: DetectionResult | None,
    msg3s: list[Msg3],
) -> list[Any]:
    """Advance the gNB in place: answer detections with RARs, resolve Msg3
    contention; returns the downlink events.

    One temporary identifier is allocated per detected signature per
    occasion. When several Msg3s arrive under one identifier the winner is
    the first received; simultaneous arrivals are resolved toward the
    lowest unique id.
    """
    events: list[Any] = []
    if detections is not None:
        occ = detections.occasion
        key = (-1, -1, -1) if occ is None else (occ.sfn, occ.slot, occ.occasion_index)
        for det in detections.detected:
            events.append(RarEvent(PreambleTx((det.root, det.signature), key), ctx.next_tid))
            ctx.next_tid += 1
    if msg3s:
        by_tid: dict[int, list[int]] = {}
        for msg in sorted(msg3s, key=lambda m: m.unique_id):
            by_tid.setdefault(msg.tid, []).append(msg.unique_id)
        for tid, ids in by_tid.items():
            if tid not in ctx.resolved_tids:
                # First-received wins; ties within one call go to the lowest id.
                ctx.resolved_tids.add(tid)
                events.append(Msg4Event(tid=tid, winner_id=ids[0]))
    return events
