"""Serving benchmark: the real ``repro serve-net`` process driven over
the wire protocol by one client process.

    python3 perfbench/run.py --workload vga_batch --seed 1 --seconds 39 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice (untraced, then with the
layer wrappers of ``tracing.py`` in the server) and prints the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = HERE / "_run"
sys.path.insert(0, str(ROOT / "src"))

#: Servers spawned per run for ``setup_s``, before and after the
#: measured window (the measured server is the last one before it);
#: the metric is their median.  Spawning on both sides of the window
#: spreads the samples over the run, so a short burst of load on a
#: shared host moves fewer of them.
SETUP_SPAWNS = (4, 3)
#: Open-loop generator: a run whose 99th-percentile send lateness
#: exceeds half a frame interval is invalid (the client, not the
#: server, fell behind its schedule).
MAX_SEND_LAG_S = 0.5 / 24.0
#: Bound of the server's per-session ingest and egress queues: deep
#: enough that no frame of any workload is dropped or coalesced.
QUEUE_FRAMES = 128
SERVER_TIMEOUT_S = 60.0
#: Client-side limit on any phase beyond its planned length: a server
#: that stops answering fails the run instead of hanging it.
STALL_TIMEOUT_S = 60.0

now = time.perf_counter


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    spawned: float
    log: Path

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}; see {self.log}")


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests (all CPUs), from
    ``/proc/stat``: recorded with each run because it slows every
    timing of a run on a shared host."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def spawn_server(journal: bool, tag: str,
                 trace_out: Optional[Path] = None) -> Server:
    args = ["serve-net", "--port", "0", "--fps", "24", "--gop", "8",
            "--queue-frames", str(QUEUE_FRAMES),
            "--egress-frames", str(QUEUE_FRAMES)]
    if journal:
        # A fresh directory per server: no warm LUT checkpoint or
        # parked journal carries over from an earlier server.
        jdir = RUN_DIR / f"journal-{tag}"
        shutil.rmtree(jdir, ignore_errors=True)
        args += ["--journal-dir", str(jdir)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro.cli"] + args
    else:
        cmd = [sys.executable, str(HERE / "traced_server.py"),
               str(trace_out)] + args
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    log = RUN_DIR / f"server-{tag}.log"
    spawned = now()
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r"serving on [\d.]+:(\d+) ", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {line!r}; see {log}")
    return Server(proc, int(match.group(1)), spawned, log)


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    t0: float
    seconds: float
    results: list
    setup_s: List[float]
    server_cpu_s: float
    server_wall_s: float
    peak_rss_mb: float
    steal_s: float
    warmup: list


def probed_server(w, tag: str, trace_out: Optional[Path] = None,
                  ) -> Tuple[Server, float]:
    """Spawn a server and time it from spawn to the accept of a first
    HELLO (one ``setup_s`` sample)."""
    import client

    server = spawn_server(w.journal, tag, trace_out)
    try:
        t_ack = asyncio.run(asyncio.wait_for(
            client.probe("127.0.0.1", server.port, w.width, w.height),
            STALL_TIMEOUT_S))
    except BaseException:
        server.proc.kill()
        server.proc.wait()
        raise
    return server, t_ack - server.spawned


def run_once(w, pool, seed: int, seconds: float, tag: str,
             setup_spawns: Tuple[int, int],
             trace_out: Optional[Path]) -> RunOutcome:
    import client
    from workloads import Video, Session, closed_sequence, open_schedule

    host = "127.0.0.1"
    before, after = setup_spawns
    setup: List[float] = []
    for i in range(before - 1):
        server, setup_s = probed_server(w, f"{tag}-{i}")
        setup.append(setup_s)
        server.stop()
    server, setup_s = probed_server(w, f"{tag}-measured", trace_out)
    setup.append(setup_s)
    try:
        # Warm-up (untimed): one GOP per slot, so thread pools and lazy
        # imports are settled before the clock starts.
        warm = [Session(-1 - k, Video(v.index, v.content, v.planes[:8]))
                for k, v in enumerate(pool[:w.slots])]

        async def warmup():
            return await asyncio.gather(*(
                client.run_session(host, server.port, s) for s in warm))

        warm_results = asyncio.run(asyncio.wait_for(warmup(),
                                                    STALL_TIMEOUT_S))
        cpu0, wall0, steal0 = server.cpu_s(), now(), host_steal_s()
        if w.loop == "closed":
            measured = client.closed_loop(
                host, server.port, closed_sequence(pool, seed), w.slots,
                seconds)
        else:
            measured = client.open_loop(
                host, server.port, open_schedule(w, pool, seed, seconds))
        t0, results = asyncio.run(asyncio.wait_for(
            measured, seconds + STALL_TIMEOUT_S))
        cpu1, wall1, steal1 = server.cpu_s(), now(), host_steal_s()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for i in range(after):
        extra, setup_s = probed_server(w, f"{tag}-after-{i}")
        setup.append(setup_s)
        extra.stop()
    return RunOutcome(t0, seconds, results, setup, cpu1 - cpu0,
                      wall1 - wall0, rss, steal1 - steal0, warm_results)


def send_lag_p99(run: RunOutcome, bad: List[str]) -> float:
    """The open-loop generator's 99th-percentile lateness; a run whose
    client fell behind its own schedule is invalid."""
    from e2e import percentile

    lag = percentile([x for r in run.results for x in r.lag], 99)
    if lag > MAX_SEND_LAG_S:
        bad.append(f"invalid run: generator send lag p99 {lag * 1e3:.2f} ms"
                   f" > {MAX_SEND_LAG_S * 1e3:.1f} ms")
    return lag


# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    from repro import native

    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "native_simd_level": native.simd_level,
        "native_loaded": native.lib is not None,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import workloads
    from e2e import check, deadline_met_ratio, end_to_end

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=None,
                   help="frames per session (self-test toy size)")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="flip one reference digest (self-test)")
    args = p.parse_args(argv)

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True), flush=True)
    if not env["native_loaded"]:
        print("native kernels did not load (REPRO_NATIVE=0 or no C "
              "compiler): refusing to measure the fallback path",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    if args.frames is not None:
        w = replace(w, frames=args.frames)
    RUN_DIR.mkdir(exist_ok=True)
    t_setup = now()
    pool, refs = workloads.library(w)
    if args.corrupt_reference:
        key = next(iter(refs))
        idx, reason, crc = refs[key][0]
        refs[key] = [(idx, reason, crc ^ 1)] + refs[key][1:]
    print(f"inputs: {len(pool)} videos {w.width}x{w.height}x{w.frames}, "
          f"references in {now() - t_setup:.1f} s", flush=True)
    gc.collect()
    gc.freeze()

    bad: List[str] = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Sessions per library cycle (a closed-loop round streams one video
    # on every slot).
    per_cycle = len(pool) * (w.slots if w.loop == "closed" else 1)
    run = run_once(w, pool, args.seed, seconds, "base",
                   (1, 0) if args.trace else SETUP_SPAWNS, None)
    attempted, failed = check(run, refs, w.journal, bad)
    e2e = end_to_end(run, per_cycle, attempted - failed, attempted)
    lag_p99 = send_lag_p99(run, bad)
    print(f"run: {len(run.results)} sessions, {attempted} frames, "
          f"{failed} failed, deadline_met_ratio "
          f"{deadline_met_ratio(run.results):.4f}, send lag p99 "
          f"{lag_p99 * 1e3:.3f} ms, host steal {run.steal_s:.2f} s",
          flush=True)

    if args.trace:
        import layers

        trace_out = RUN_DIR / "spans.json"
        traced = run_once(w, pool, args.seed, seconds, "traced", (1, 0),
                          trace_out)
        t_att, t_failed = check(traced, refs, w.journal, bad)
        send_lag_p99(traced, bad)
        attempted += t_att
        failed += t_failed
        traced_e2e = end_to_end(traced, per_cycle, t_att - t_failed,
                                t_att)
        with open(trace_out) as fh:
            spans = json.load(fh)
        metrics = layers.per_layer(w, traced, spans, traced_e2e, run, e2e,
                                   bad)
    else:
        metrics = e2e

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    for line in bad:
        print("FAIL:", line, flush=True)
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
