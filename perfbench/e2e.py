"""Correctness check and end-to-end metrics of one measured run.

Every timing is taken by the client with ``time.perf_counter``; a frame
is *due* when the open-loop schedule says so, or when the closed-loop
client sent it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from workloads import FPS, GOP, fold_digest


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 if empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def check(run, refs, journal: bool, bad: List[str]) -> Tuple[int, int]:
    """Compare every session's per-rung digest with the offline
    reference; returns ``(frames attempted, frames failed)``.  On a
    journaling server every plain session must have been journaled
    (ladder sessions never are)."""
    attempted = failed = 0
    for res in run.warmup + run.results:
        n = len(res.video.planes)
        rungs = max(1, len(res.ladder))
        if res.seq >= 0:
            attempted += n
        delivered = set(range(n))
        for rung in range(rungs):
            expect = refs[(res.video.index, rung)][:n]
            got = [(idx, got[0], got[1]) for (r, idx), got
                   in res.received.items() if r == rung]
            if fold_digest(got) != fold_digest(expect):
                bad.append(f"session {res.seq} rung {rung}: digest mismatch "
                           f"({len(got)}/{len(expect)} frames) {res.error}")
            delivered &= {idx for idx, reason, _ in got if not reason}
        if not res.complete or res.error:
            bad.append(f"session {res.seq}: {res.error or 'incomplete'}")
            delivered = set()
        elif journal and not res.ladder and not res.journaled:
            bad.append(f"session {res.seq}: accepted without a journal")
        if res.seq >= 0:
            failed += n - len(delivered)
    return attempted, failed


def gop_events(results) -> List[Tuple[float, int]]:
    """``(time the client held the GOP's last frame, frames in GOP)``
    for every completely delivered primary-rung GOP."""
    events = []
    for res in results:
        n = len(res.video.planes)
        for g in range(0, n, GOP):
            frames = range(g, min(g + GOP, n))
            times = [res.received.get((0, i)) for i in frames]
            if all(t is not None and not t[0] for t in times):
                events.append((max(t[2] for t in times), len(frames)))
    return events


def rate(events: List[Tuple[float, int]], t0: float, t1: float) -> float:
    """Units per second between the first and last event in [t0, t1],
    excluding the first event's own units (renewal estimator)."""
    inside = sorted(e for e in events if t0 <= e[0] <= t1)
    if len(inside) < 2:
        return 0.0
    span = inside[-1][0] - inside[0][0]
    return sum(n for _, n in inside[1:]) / span if span > 0 else 0.0


def frame_latencies(results) -> List[float]:
    out = []
    for res in results:
        for i, due in enumerate(res.due):
            got = res.received.get((0, i))
            if got is not None and not got[0]:
                out.append(got[2] - due)
    return out


def deadline_met_ratio(results) -> float:
    """Frames encoded no later than one GOP period after the due time
    of their GOP's last frame, over frames due (undelivered = missed)."""
    due_total = met = 0
    for res in results:
        n = len(res.video.planes)
        due_total += n
        for g in range(0, min(n, len(res.due)), GOP):
            last = min(g + GOP, len(res.due)) - 1
            deadline = res.due[last] + GOP / FPS
            for i in range(g, last + 1):
                got = res.received.get((0, i))
                if got is not None and not got[0] and got[2] <= deadline:
                    met += 1
    return met / due_total if due_total else 0.0


def whole_cycles(results, per_cycle: int) -> list:
    """The sessions of complete library cycles (sessions are planned in
    cycles that stream every library video equally often), so the
    latency percentiles weigh every video equally whatever the run's
    length."""
    keep = len(results) - len(results) % per_cycle
    return [r for r in results if r.seq < keep] if keep else results


def end_to_end(run, per_cycle: int, delivered_frames: int,
               attempted: int) -> Dict[str, Tuple[float, str]]:
    results = run.results
    t1 = run.t0 + run.seconds
    sessions = [r for r in results if r.complete]
    cycles = whole_cycles(results, per_cycle)
    lat = frame_latencies(cycles)
    sess_lat = [r.t_bye - r.t_hello for r in cycles if r.complete]
    # Quality of the fixed video library: every video's primary-rung
    # frames as the server reported them in ENCODED (the values STATS
    # sums), averaged per video so it does not depend on how often the
    # schedule streamed each one.
    per_video: Dict[int, List[Tuple[int, float]]] = {}
    for r in sessions:
        frames = [(got[3], got[4]) for (rung, _), got in r.received.items()
                  if rung == 0 and not got[0]]
        if frames:
            per_video.setdefault(r.video.index, frames)
    psnr = [statistics.fmean(p for _, p in v) for v in per_video.values()]
    kbits = [statistics.fmean(b for b, _ in v) / 1000.0
             for v in per_video.values()]
    return {
        "frames_per_s": (rate(gop_events(results), run.t0, t1), "frames/s"),
        "sessions_per_s": (rate([(r.t_bye, 1) for r in sessions],
                                run.t0, t1), "1/s"),
        "frame_latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "frame_latency_p95_ms": (percentile(lat, 95) * 1e3, "ms"),
        "session_latency_p50_ms": (percentile(sess_lat, 50) * 1e3, "ms"),
        "session_latency_p95_ms": (percentile(sess_lat, 95) * 1e3, "ms"),
        "delivered_ratio": (delivered_frames / attempted if attempted
                            else 0.0, "ratio"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "server_cpu_ms_per_frame": (
            run.server_cpu_s * 1e3 / delivered_frames
            if delivered_frames else 0.0, "ms"),
        "server_peak_rss_mb": (run.peak_rss_mb, "MB"),
        "psnr_db": (statistics.fmean(psnr) if psnr else 0.0, "dB"),
        "kbits_per_frame": (statistics.fmean(kbits) if kbits else 0.0,
                            "kbit"),
    }


