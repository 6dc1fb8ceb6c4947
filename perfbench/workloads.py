"""Workload definitions, seeded inputs and the offline reference digests.

Everything here runs before the measured window: videos are
synthesised once per invocation and the reference digests come from an
offline :class:`ProposedStreamSession` per distinct video (and per
ladder rung), at the settings the server uses for a plain HELLO.
"""

from __future__ import annotations

import multiprocessing as mp
import random
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.codec.config import EncoderConfig, GopConfig
from repro.resilience.degradation import ResilienceConfig
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.frame import Frame
from repro.video.generator import ContentClass, generate_video
from repro.video.scale import downscale_frame

FPS = 24.0
GOP = 8


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    #: Frames streamed per session.
    frames: int
    #: Distinct synthetic videos per content class in the input pool.
    videos_per_class: int
    #: ``"closed"``: each of ``slots`` connections runs sessions back to
    #: back, unpaced.  ``"open"``: sessions follow a fixed seeded
    #: schedule on ``slots`` lanes, frames due every 1/FPS.
    loop: str
    #: Server journals sessions (fsync'd, leased).
    journal: bool
    slots: int = 2
    #: Open loop: idle time between one lane's sessions, in GOP periods
    #: (8/24 s), drawn by a seeded shuffle of this multiset (so every
    #: seed offers the same load).
    gap_gops: Tuple[int, ...] = ()
    #: Open loop: every ``ladder_every``-th scheduled session asks for
    #: ``ladder`` instead of a plain session (0 = never).
    ladder_every: int = 0
    ladder: Tuple[Tuple[int, int], ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # 24 frames per session: one second at 24 fps, three GOPs.  It
        # is longer than the 16-frame clips of the repo's Table II,
        # Fig. 3 and Fig. 4 runs, so most GOPs are not a session's
        # first.  An odd number of GOPs keeps the median frame out of
        # the gap between two GOPs' completion times.
        Workload("vga_batch", 640, 480, frames=24, videos_per_class=1,
                 loop="closed", journal=False),
        # 192x144, not 320x240: at 320x240 the 90th percentile of GOP
        # service time for ladder GOPs, and for GOPs encoded while the
        # other lane was busy, was ~320 ms of the 333 ms GOP period on a
        # 2-core VM, so latency measured backlog.  At 192x144 every GOP
        # took 50-70 ms.  32 frames and 6-10 GOP gaps: each lane is busy
        # a third of the time, so the lanes seldom encode at once; a
        # 39 s window schedules exactly 10 sessions per lane.
        Workload("live_192x144", 192, 144, frames=32, videos_per_class=1,
                 loop="open", journal=True,
                 gap_gops=(6, 7, 8, 9, 10),
                 ladder_every=4, ladder=((192, 144), (96, 72))),
    )
}


@dataclass
class Video:
    """One input of the pool: its class and its raw luma planes."""

    index: int
    content: ContentClass
    planes: List[np.ndarray]


@dataclass
class Session:
    """One planned session: which video, whether it asks for a ladder,
    and (open loop) when it is due to start."""

    seq: int
    video: Video
    ladder: Tuple[Tuple[int, int], ...] = ()
    start_s: float = 0.0


def closed_sequence(pool: Sequence[Video], seed: int) -> Iterator[Video]:
    """Endless seeded order of the pool in balanced cycles: every video
    appears once per cycle, so the class mix of a run does not depend on
    the seed beyond the last, partial cycle."""
    rng = random.Random(seed ^ 0x5E55)
    while True:
        for i in rng.sample(range(len(pool)), len(pool)):
            yield pool[i]


def open_schedule(w: Workload, pool: Sequence[Video], seed: int,
                  seconds: float) -> List[List[Session]]:
    """Per-lane session starts (seconds from the run's t0) for every
    session that starts inside the window.

    Starts fall on a GOP grid, lane ``k`` offset by ``k / slots`` of a
    GOP period, so overlapping sessions complete their GOPs at
    interleaved instants: at this load a GOP encode rarely waits for
    another lane's, and latency measures service time.  (Aligned
    phases make both lanes' GOP encodes contend every time; that
    concurrency cost is what ``vga_batch`` measures.)"""
    rng = random.Random(seed ^ 0x0A11)
    order = closed_sequence(pool, seed)
    gop_s = GOP / FPS
    session_gops = -(-w.frames // GOP)
    starts = []
    for lane in range(w.slots):
        t = rng.randrange(3)
        gaps: List[int] = []
        while t * gop_s < seconds:
            if not gaps:
                gaps = rng.sample(list(w.gap_gops), len(w.gap_gops))
            starts.append((t + lane / w.slots, lane))
            t += session_gops + gaps.pop()
    starts.sort()
    lanes: List[List[Session]] = [[] for _ in range(w.slots)]
    for seq, (t, lane) in enumerate(starts):
        ladder = w.ladder if (w.ladder_every
                              and seq % w.ladder_every
                              == w.ladder_every - 1) else ()
        lanes[lane].append(Session(seq, next(order), ladder, t * gop_s))
    return lanes


# ----------------------------------------------------------------------
# Library and reference digests
# ----------------------------------------------------------------------
Outcome = Tuple[int, str, int]  # frame index, drop reason ("" = encoded), crc


def fold_digest(outcomes: Sequence[Outcome]) -> int:
    """CRC-32 folded over ``index:reason:crc`` in frame order — the
    fold ``repro.serving.loadgen`` uses for its per-session digest."""
    crc = 0
    for index, reason, luma_crc in sorted(outcomes):
        crc = zlib.crc32(f"{index}:{reason}:{luma_crc}".encode(), crc)
    return crc


def offline_outcomes(video: Video, size: Tuple[int, int]) -> List[Outcome]:
    """Encode ``video`` (box-downscaled to ``size`` when smaller) with
    the server's plain-session settings: QP 32, window 64, hexagon,
    the HELLO's content class, default resilience, serial tiles."""
    config = PipelineConfig(
        fps=FPS, gop=GopConfig(GOP),
        base_config=EncoderConfig(qp=32, search="hexagon",
                                  search_window=64),
        content_class=video.content, resilience=ResilienceConfig(),
    )
    transcoder = StreamTranscoder(config)
    session = transcoder.open_session()
    width, height = size
    outputs = []
    try:
        for i, plane in enumerate(video.planes):
            frame = Frame(plane, index=i)
            if plane.shape != (height, width):
                frame = downscale_frame(frame, width, height)
            outputs += session.push(frame)
        outputs += session.finish()
    finally:
        transcoder.close()
    result = []
    for out in outputs:
        if out.dropped is not None:
            result.append((out.frame_index, out.dropped, 0))
        else:
            recon = np.ascontiguousarray(out.reconstruction)
            result.append((out.frame_index, "", zlib.crc32(recon)))
    return result


def _library_video(w: Workload, index: int,
                   sizes: Tuple[Tuple[int, int], ...],
                   ) -> Tuple[List[np.ndarray], List[List[Outcome]]]:
    """Library video ``index`` (its raw luma planes) and its offline
    outcomes at each of ``sizes``."""
    content = list(ContentClass)[index // w.videos_per_class]
    video = generate_video(
        content_class=content, width=w.width, height=w.height,
        num_frames=w.frames,
        seed=1000 * (index // w.videos_per_class + 1)
        + index % w.videos_per_class,
    )
    planes = [np.ascontiguousarray(f.luma) for f in video.frames]
    entry = Video(index, content, planes)
    return planes, [offline_outcomes(entry, size) for size in sizes]


def library(w: Workload) -> Tuple[List[Video], Dict[Tuple[int, int],
                                                      List[Outcome]]]:
    """The workload's video library and its reference outcomes.

    The library is ``videos_per_class`` synthetic videos of every
    content class, from fixed synthesis seeds.  Like the paper's fixed
    set of clinical videos, it is the same for every run; the run's seed
    draws which of them each session streams, in what order and on what
    schedule.  The references map ``(video index, rung)`` to outcomes
    for every rung a session of this workload can receive (rung 0 is the
    plain session).  Videos are independent, so synthesis and offline
    encodes run in two worker processes (one per core of the 2-core
    target) to keep the untimed part of a run short."""
    rungs = w.ladder or ((w.width, w.height),)
    sizes = tuple(dict.fromkeys(((w.width, w.height),) + rungs))
    count = len(ContentClass) * w.videos_per_class
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=mp.get_context("fork")) as workers:
        done = list(workers.map(_library_video, [w] * count, range(count),
                                [sizes] * count))
    pool = [Video(i, list(ContentClass)[i // w.videos_per_class], planes)
            for i, (planes, _) in enumerate(done)]
    refs = {(i, rung): outcomes[sizes.index(size)]
            for i, (_, outcomes) in enumerate(done)
            for rung, size in enumerate(rungs)}
    return pool, refs
