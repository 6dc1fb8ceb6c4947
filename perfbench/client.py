"""The benchmark's wire client: one process, at most ``slots``
connections, speaking ``repro.serving.protocol`` to a live server.

Closed loop: each slot runs sessions back to back and streams every
frame as soon as the socket accepts it; a frame is due when it is sent.
Open loop: sessions start on a fixed schedule and frame ``i`` is due
``(i + 1) / FPS`` after the session's scheduled start, whether or not
the server kept up; the generator's own lateness is recorded per frame.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.serving.protocol import (
    Bye,
    Encoded,
    ErrorMsg,
    Hello,
    HelloAck,
    Stats,
    encode_frame_into,
    read_message,
    write_message,
)

from workloads import FPS, GOP, Session, Video

now = time.perf_counter


@dataclass
class SessionResult:
    seq: int
    video: Video
    ladder: Tuple[Tuple[int, int], ...]
    server_sid: int = -1
    decision: str = ""
    journaled: bool = False
    t_hello: float = 0.0
    t_bye: float = 0.0
    due: List[float] = field(default_factory=list)
    #: Generator lateness per frame (open loop only).
    lag: List[float] = field(default_factory=list)
    #: ``(rung, frame index) -> (drop reason or "", luma crc, receipt
    #: time, bits, psnr)``
    received: Dict[Tuple[int, int], Tuple[str, int, float, int, float]] = \
        field(default_factory=dict)
    error: str = ""
    complete: bool = False


async def run_session(host: str, port: int, session: Session,
                      start: Optional[float] = None) -> SessionResult:
    """One connection: HELLO, every frame, BYE; collect until the
    server's BYE.  ``start`` (open loop) anchors the frame schedule."""
    video = session.video
    height, width = video.planes[0].shape
    res = SessionResult(session.seq, video, session.ladder)
    reader, writer = await asyncio.open_connection(host, port)
    recv_max = width * height + 4096
    try:
        res.t_hello = now()
        await write_message(writer, Hello(
            width=width, height=height, fps=FPS,
            num_frames=len(video.planes), gop=GOP,
            content_class=video.content.value,
            client_id=f"perfbench-{session.seq}",
            ladder=session.ladder or None,
        ))
        ack = await read_message(reader, max_payload=recv_max)
        while isinstance(ack, HelloAck) and ack.decision == "park":
            ack = await read_message(reader, max_payload=recv_max)
        if not isinstance(ack, HelloAck):
            raise ConnectionError(f"expected HELLO_ACK, got {ack.type.name}")
        res.decision = ack.decision
        res.server_sid = ack.session_id
        res.journaled = bool(ack.resume_token)
        if ack.decision != "accept":
            res.error = f"{ack.decision}: {ack.reason}"
            return res

        async def send() -> None:
            arena = bytearray()
            for i, plane in enumerate(video.planes):
                if start is not None:
                    due = start + (i + 1) / FPS
                    ready = now()
                    if due > ready:
                        await asyncio.sleep(due - ready)
                    res.lag.append(now() - max(due, ready))
                else:
                    due = now()
                res.due.append(due)
                del arena[:]
                encode_frame_into(arena, i, width, height, plane)
                writer.write(arena)
                if start is None:
                    await writer.drain()
            await write_message(writer, Bye("done"))

        async def receive() -> None:
            while True:
                msg = await read_message(reader, max_payload=recv_max)
                if isinstance(msg, Encoded):
                    key = (msg.rung, msg.frame_index)
                    if key in res.received:
                        raise ConnectionError(f"duplicate ENCODED {key}")
                    res.received[key] = (
                        msg.dropped or "",
                        zlib.crc32(msg.luma) if msg.dropped is None else 0,
                        now(), msg.bits, msg.psnr,
                    )
                elif isinstance(msg, Stats):
                    pass  # per-frame values arrive in ENCODED
                elif isinstance(msg, Bye):
                    res.t_bye = now()
                    return
                elif isinstance(msg, ErrorMsg):
                    raise ConnectionError(
                        f"server error [{msg.code}]: {msg.detail}")
                else:
                    raise ConnectionError(f"unexpected {msg.type.name}")

        await asyncio.gather(send(), receive())
        res.complete = True
    except (ConnectionError, OSError, asyncio.IncompleteReadError,
            ValueError) as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return res


async def closed_loop(host: str, port: int, order: Iterator[Video],
                      slots: int, seconds: float,
                      ) -> Tuple[float, List[SessionResult]]:
    """Rounds until ``seconds`` have passed: each round streams the
    next library video on all ``slots`` connections at once, and the
    next round starts when every session of this one has closed (the
    round in flight at the end finishes).  A session's latency then
    depends on its video alone, not on which other video it happened
    to overlap.  Returns the window start and every session's result."""
    results: List[SessionResult] = []
    t0 = now()
    while now() < t0 + seconds:
        video = next(order)
        first = len(results)
        results += await asyncio.gather(*(
            run_session(host, port, Session(first + k, video))
            for k in range(slots)))
    return t0, results


async def open_loop(host: str, port: int, lanes: List[List[Session]],
                    ) -> Tuple[float, List[SessionResult]]:
    """Each lane starts its sessions at their scheduled offsets (or as
    soon as the lane's previous session closed, if that is later — at
    most one connection per lane); frame due times never move."""
    results: List[SessionResult] = []
    t0 = now() + 0.05

    async def lane(sessions: List[Session]) -> None:
        for session in sessions:
            start = t0 + session.start_s
            delay = start - now()
            if delay > 0:
                await asyncio.sleep(delay)
            results.append(await run_session(host, port, session, start))

    await asyncio.gather(*(lane(s) for s in lanes))
    return t0, results


async def probe(host: str, port: int, width: int, height: int) -> float:
    """First HELLO on a fresh server: returns when the accept arrives
    (the session is then closed with zero frames)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_message(writer, Hello(width=width, height=height,
                                          fps=FPS, gop=GOP,
                                          content_class="brain",
                                          client_id="perfbench-probe"))
        ack = await read_message(reader)
        t_ack = now()
        if not isinstance(ack, HelloAck) or ack.decision != "accept":
            raise ConnectionError(f"probe HELLO not accepted: {ack}")
        await write_message(writer, Bye("probe"))
        while not isinstance(await read_message(reader), Bye):
            pass
        return t_ack
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
