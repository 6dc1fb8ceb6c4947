"""Per-layer metrics of a traced run (see README.md for the map from
each metric to the end-to-end metric and workload it should move).

Times named ``*_ms_per_frame`` / ``*_ms_per_gop`` are *self* time — the
layer's wrapped calls minus the wrapped calls they made — so the layers
add up instead of double counting; ``pipeline.gop_encode_ms_*``,
``admission.decide_ms_*``, ``journal.append_ms_*``, ``lease.*`` and
``native.ms_per_frame`` are whole-call durations.  Per-frame
denominators count frames the pipeline encoded (every rung).
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from e2e import deadline_met_ratio, percentile

#: Layers predicted to do work on every workload; a traced run in which
#: one of them recorded no call is refused.
ALWAYS = ("protocol.decode", "protocol.encode", "admission.decide",
          "allocation.allocate", "workload.lookup", "pipeline.push",
          "analysis.evaluate", "tiling.retile", "motion.search",
          "codec.tile", "codec.frame", "native")
JOURNALED = ("journal.create", "journal.append", "lease.acquire")
LADDER = ("ladder.push", "ladder.downscale", "analysis.features")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(w, traced, spans, traced_e2e, base, base_e2e,
              bad: List[str]) -> Dict[str, Tuple[float, str]]:
    agg = defaultdict(lambda: [0, 0.0, 0.0], spans["aggregates"])
    samples = spans["samples"]
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans["spans"]:
        by_name[span[2]].append(span)

    predicted = ALWAYS + (JOURNALED if w.journal else ()) + \
        (LADDER if w.ladder_every else ())
    for name in predicted:
        if not agg[name][0]:
            bad.append(f"traced run: layer {name} recorded no call")

    events = defaultdict(list)
    for ev in spans["events"]:
        events[ev[0]].append(ev[1:])
    content = {sid: cls for sid, _, cls, _ in events["decision"]}
    ladder_sids = {sid for sid, _, _, ladder in events["decision"] if ladder}

    gops = samples.get("pipeline.gop", [])
    frames = sum(n for _, _, n in gops) or 1
    n_gops = len(gops) or 1
    decoded = {(sid, idx): t for sid, idx, t in events["decoded"]}
    consumed = {(sid, idx): t for sid, idx, t in events["consumed"]}
    ingest_wait = [consumed[k] - t for k, t in decoded.items()
                   if k in consumed]
    returned = {(sid, rung, idx): t
                for sid, rung, idx, t in events["returned"]}
    egress_wait = []
    for res in traced.results:
        for (rung, idx), got in res.received.items():
            t_ret = returned.get((res.server_sid, rung, idx))
            if t_ret is not None:
                egress_wait.append(got[2] - t_ret)

    def durations(name: str) -> List[float]:
        return [s[4] - s[3] for s in by_name[name]]

    def per_frame(name: str, field: int = 2) -> float:
        return agg[name][field] * 1e3 / frames

    decisions = events["decision"]
    accepts = sum(1 for _, d, _, _ in decisions if d == "accept")
    creates = agg["journal.create"][0]
    lookups = agg["workload.lookup"][0]
    searches = agg["motion.search"][0]

    ratios = defaultdict(list)
    for rid, est, wall in samples.get("codec.tile_cost", []):
        sid = int(rid.split("/")[0]) if rid and rid[0].isdigit() else None
        if sid in content and wall > 0:
            ratios[content[sid]].append(est / wall)
    class_ratio = {cls: _median(v) for cls, v in ratios.items()}

    ladder_frames = sum(1 for sid, _ in consumed if sid in ladder_sids)
    ladder_sessions = len({sid for sid, _ in consumed if sid in ladder_sids})

    lags = [lag for r in traced.results for lag in r.lag]
    nproc = os.cpu_count() or 1
    m = {
        "protocol.decode_us_per_frame": (
            agg["protocol.decode"][1] * 1e6 / max(1, len(decoded)), "us"),
        "protocol.encode_us_per_frame": (
            agg["protocol.encode"][1] * 1e6
            / max(1, agg["protocol.encode"][0]), "us"),
        "server.ingest_wait_ms_p50": (percentile(ingest_wait, 50) * 1e3,
                                      "ms"),
        "server.ingest_wait_ms_p99": (percentile(ingest_wait, 99) * 1e3,
                                      "ms"),
        "server.egress_wait_ms_p50": (percentile(egress_wait, 50) * 1e3,
                                      "ms"),
        "server.cpu_util": (base.server_cpu_s / base.server_wall_s / nproc,
                            "ratio"),
        "admission.decide_ms_p50": (
            percentile(durations("admission.decide"), 50) * 1e3, "ms"),
        "admission.accept_ratio": (
            accepts / len(decisions) if decisions else 0.0, "ratio"),
        "journal.append_ms_p50": (
            percentile(durations("journal.append"), 50) * 1e3, "ms"),
        "journal.append_ms_p99": (
            percentile(durations("journal.append"), 99) * 1e3, "ms"),
        "journal.appends_per_session": (
            agg["journal.append"][0] / creates if creates else 0.0, "count"),
        "lease.acquire_ms_p50": (
            percentile(durations("lease.acquire"), 50) * 1e3, "ms"),
        "storage.retries": (float(agg["storage.retries"][0]), "count"),
        "pipeline.gop_encode_ms_p50": (
            percentile([d for d, _, _ in gops], 50) * 1e3, "ms"),
        "pipeline.gop_encode_ms_p99": (
            percentile([d for d, _, _ in gops], 99) * 1e3, "ms"),
        "pipeline.gop_encode_cpu_over_wall": (
            _median([c / d for d, c, _ in gops if d > 0]), "ratio"),
        "pipeline.self_ms_per_frame": (per_frame("pipeline.push"), "ms"),
        "analysis.evaluate_ms_per_frame": (
            per_frame("analysis.evaluate") + per_frame("analysis.features"),
            "ms"),
        "tiling.retile_ms_per_gop": (
            agg["tiling.retile"][2] * 1e3 / n_gops, "ms"),
        "motion.search_ms_per_frame": (per_frame("motion.search"), "ms"),
        "motion.search_calls_per_frame": (searches / frames, "count"),
        "motion.sad_evals_per_block": (
            agg["motion.sad_evals"][0] / searches if searches else 0.0,
            "count"),
        "codec.tile_encode_self_ms_per_frame": (per_frame("codec.tile"),
                                                "ms"),
        "native.calls_per_frame": (agg["native"][0] / frames, "count"),
        "native.ms_per_frame": (per_frame("native", 1), "ms"),
        "workload.lut_hit_ratio": (
            agg["workload.lookup_hits"][0] / lookups if lookups else 0.0,
            "ratio"),
        "workload.estimate_over_measured": (
            _median(list(class_ratio.values())), "ratio"),
    }
    for cls in ("brain", "bone", "lung", "cardiac", "ultrasound"):
        m[f"workload.estimate_over_measured.{cls}"] = (
            class_ratio.get(cls, 0.0), "ratio")
    m.update({
        "allocation.allocate_ms_per_gop": (
            agg["allocation.allocate"][1] * 1e3 / n_gops, "ms"),
        "ladder.downscale_ms_per_frame": (
            agg["ladder.downscale"][1] * 1e3 / ladder_frames
            if ladder_frames else 0.0, "ms"),
        "ladder.analysis_passes_per_session": (
            agg["ladder.analysis_passes"][0] / ladder_sessions
            if ladder_sessions else 0.0, "count"),
        "client.send_lag_ms_p99": (percentile(lags, 99) * 1e3, "ms"),
        "client.deadline_met_ratio": (deadline_met_ratio(base.results),
                                      "ratio"),
        "trace.frames_per_s_ratio": (
            traced_e2e["frames_per_s"][0] / base_e2e["frames_per_s"][0]
            if base_e2e["frames_per_s"][0] else 0.0, "ratio"),
        "trace.frame_latency_p50_ratio": (
            traced_e2e["frame_latency_p50_ms"][0]
            / base_e2e["frame_latency_p50_ms"][0]
            if base_e2e["frame_latency_p50_ms"][0] else 0.0, "ratio"),
        "trace.server_cpu_per_frame_ratio": (
            traced_e2e["server_cpu_ms_per_frame"][0]
            / base_e2e["server_cpu_ms_per_frame"][0]
            if base_e2e["server_cpu_ms_per_frame"][0] else 0.0, "ratio"),
    })
    if m["storage.retries"][0]:
        bad.append("storage retries during the run: journal timings "
                   "include injected/real storage faults")
    if w.ladder_every and m["ladder.analysis_passes_per_session"][0] != 1:
        bad.append("ladder sessions did not run exactly one full-resolution"
                   " analysis pass each")
    return m
