"""Asyncio streaming front-end for the transcoding pipeline.

One TCP connection is one session: HELLO -> admission decision ->
frame ingest -> encoded-bitstream egress -> STATS/BYE.  Per session
the server runs three tasks:

* **ingest** reads FRAME messages off the socket and feeds a *bounded*
  queue; when the client outruns the encoder and the queue is full,
  the incoming frame is dropped (an ENCODED notice with
  ``dropped="backpressure"`` tells the client) instead of growing RAM;
* **encode** pulls frames in order and pushes them through a
  :class:`repro.transcode.pipeline.ProposedStreamSession` on a
  dedicated executor thread, so the event loop never blocks on CPU
  work (with ``parallel_workers`` set, the tile process pool of
  :mod:`repro.parallel.executor` carries the heavy per-tile encode out
  of the GIL entirely);
* **egress** writes ENCODED messages from a second bounded queue; a
  slow reader causes the *oldest* undelivered frame to be coalesced
  away (newest results win — a viewer wants the current frame, not a
  backlog).

Admission (:mod:`repro.serving.admission`) prices each HELLO with the
shared workload-LUT estimator and admits against Algorithm 2's slot
capacity; parked sessions wait bounded time for capacity to free.  All
sessions share one estimator, so the LUT a session warms speeds up
admission pricing and allocation for every later user of the same
content class — the paper's cross-user reuse, now end to end.

Every admission decision, queue depth, drop and end-to-end frame
latency lands in :mod:`repro.observability`.

**Fault tolerance** (DESIGN.md §11).  With ``journal_dir`` set, every
session writes a checksummed journal (:mod:`repro.serving.recovery`)
fsync'd at GOP granularity: admission state, cross-GOP pipeline
snapshots and the encoded outcomes themselves.  A client that loses
its connection reattaches with RESUME and continues *bit-identically* —
the journal restores the encoder to the last GOP boundary and replays
any outcomes the old connection never delivered.  ``watchdog_multiple``
arms an encode watchdog: a push that exceeds the deadline multiple is
abandoned (the executor is replaced), the stream is rebuilt from the
in-memory GOP-boundary snapshot, the wedged frame is dropped as
``"watchdog"``, the degradation ladder climbs one rung, and the
allocator re-packs around the presumed-sick core.  :meth:`drain`
(SIGTERM) stops admissions, finishes or parks in-flight GOPs,
checkpoints the LUT and exits cleanly; parked sessions survive a full
server restart.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codec.config import EncoderConfig, GopConfig
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.power import PowerModel
from repro.policy.compiler import CompiledPolicy
from repro.policy.energy import EnergyBudgetScheduler
from repro.policy.manager import PolicyManager
from repro.resilience.errors import (
    CorruptFrameError,
    JournalCorruptionError,
    LeaseHeldError,
)
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.resilience.degradation import ResilienceConfig
# Submodule imports (not the repro.ladder package) keep the
# ladder <-> serving import cycle unwound: repro.ladder.segments
# imports repro.serving.protocol, which initializes this package.
from repro.ladder.config import LadderConfig, LadderRung
from repro.ladder.session import LadderSession
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    MAX_PAYLOAD,
    Bye,
    Encoded,
    ErrorMsg,
    FrameMsg,
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    Resume,
    ResumeAck,
    Stats,
    encode_encoded_into,
    read_message,
    write_message,
)
from repro.serving.recovery import (
    RestoredSession,
    SessionJournal,
    frame_output_record,
    pack_plane,
    replay_messages,
)
from repro.serving.statestore import SharedDirStateStore
from repro.storage import FileOps, RetryPolicy, StorageError
from repro.storage.brownout import DurabilityMonitor
from repro.transcode.pipeline import (
    FrameOutput,
    PipelineConfig,
    StreamTranscoder,
)
from repro.video.frame import Frame
from repro.video.generator import ContentClass
from repro.workload.estimator import WorkloadEstimator

__all__ = ["NetworkServer", "ServeNetConfig", "SessionStats"]


@dataclass(frozen=True)
class ServeNetConfig:
    """Configuration of the network server."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    fps: float = 24.0
    gop: int = 8
    #: Seed for every stochastic serving component (currently the
    #: optional CPU-time fault injection below).
    seed: int = 0
    #: Bound of the per-session ingest queue (frames awaiting encode).
    queue_frames: int = 16
    #: Bound of the per-session egress queue (encoded frames awaiting
    #: a slow reader).
    egress_frames: int = 32
    #: How long a parked session waits for capacity before rejection.
    park_timeout_s: float = 2.0
    #: Handshake timeout (connection to first HELLO).
    hello_timeout_s: float = 10.0
    max_frame_width: int = 4096
    max_frame_height: int = 4096
    #: Tile pool per session (``None`` = serial encode).
    parallel_workers: Optional[int] = None
    #: Tile pool backend.  Serving defaults to ``"thread"``: session
    #: frames are zero-copy views of socket buffers, which threads can
    #: share directly (a fork/pickle pool would copy them right back),
    #: and the native kernels release the GIL for the hot loops.
    parallel_backend: str = "thread"
    #: Size of the shared encode thread pool (one GOP flush runs per
    #: thread; per-session pushes stay strictly ordered regardless).
    #: ``None`` derives the size from the Algorithm-2 core grant: the
    #: admission controller's core capacity, bounded by the host's
    #: cores — on a single-core host this collapses to the classic
    #: single encode thread.
    encode_workers: Optional[int] = None
    #: Per-stream resilience (degradation ladder, corrupt-frame drops).
    resilience: Optional[ResilienceConfig] = field(
        default_factory=ResilienceConfig
    )
    #: Seeded CPU-time spike injection (0 disables); reproducible from
    #: ``seed``.
    fault_spike_rate: float = 0.0
    fault_spike_factor: float = 8.0
    admission: AdmissionPolicy = AdmissionPolicy()
    platform: MpsocConfig = XEON_E5_2667
    #: Directory of per-session journals (``None`` disables journaled
    #: resume, graceful parking and the warm LUT checkpoint).
    journal_dir: Optional[str] = None
    #: fsync each journal append (off only for benchmarks that want to
    #: isolate the serialization cost from the disk).
    journal_fsync: bool = True
    #: Encode watchdog: a single ``push`` call (at most one GOP encode)
    #: exceeding ``watchdog_multiple`` x GOP x ``1/FPS`` wall seconds is
    #: declared wedged and cancelled (0 disables).
    watchdog_multiple: float = 0.0
    #: Floor of the watchdog timeout, so high-FPS streams on slow CI
    #: machines are not watchdogged spuriously.
    watchdog_min_s: float = 0.25
    #: How long :meth:`NetworkServer.drain` waits for in-flight
    #: sessions to finish or park before closing anyway.
    drain_grace_s: float = 10.0
    #: Fleet worker identity, recorded in lease records and journal
    #: admit/resume records (``""`` = standalone single-server mode).
    worker_id: str = ""
    #: Bind with ``SO_REUSEPORT`` so N workers share one listen port
    #: (the fleet's kernel-balanced accept group).
    reuse_port: bool = False
    #: Single-owner session leases (:mod:`repro.serving.statestore`):
    #: required for multi-worker deployments sharing one journal dir;
    #: harmless (one file create/unlink per session) standalone.  Off
    #: only for the lease-overhead benchmark's baseline arm.
    lease: bool = True
    #: RESUME retry hint sent when a session's lease is held by a
    #: worker not yet confirmed dead (transient reject).
    lease_retry_s: float = 0.5
    #: Wall-clock floor per encoder push, modelling a heavier codec
    #: tier: the encode thread sleeps up to the floor after the real
    #: push.  This is what the fleet scaling bench uses to measure the
    #: architecture's session-concurrency ceiling (one encode thread
    #: per worker process) independently of this machine's core count.
    encode_floor_s: float = 0.0
    #: Tenant policy document (``None`` = pre-policy behaviour: no
    #: tenants, no energy budget, bit-identical to a policy-less build).
    policy_file: Optional[str] = None
    #: Seconds between policy-file mtime polls for hot reload (0
    #: disables reload; the startup load still happens).
    policy_reload_s: float = 0.0
    #: Injectable filesystem seam for every durable write (journals,
    #: leases, LUT checkpoints, policy reads).  ``None`` = the real
    #: filesystem; tests and the torture harness pass a
    #: :class:`repro.storage.faultfs.FaultFS`.
    fileops: Optional[FileOps] = None
    #: Bounded retry for *transient* journal-append faults (total
    #: tries; 1 disables retry) and the backoff base of the schedule.
    journal_retry_attempts: int = 3
    journal_retry_backoff_s: float = 0.005
    #: Consecutive successful durability probes required to leave
    #: brownout (hysteresis: one lucky write must not re-enable
    #: journaling on a flapping volume).
    durability_readmit_successes: int = 3
    #: Seconds between durability probes while browned out.
    durability_probe_s: float = 0.25


@dataclass
class SessionStats:
    """Per-session counters, summarized into the STATS message."""

    session_id: int
    frames_received: int = 0
    frames_encoded: int = 0
    dropped_backpressure: int = 0
    dropped_egress: int = 0
    dropped_corrupt: int = 0
    dropped_deadline: int = 0
    dropped_watchdog: int = 0
    dropped_policy: int = 0
    deadline_misses: int = 0
    total_bits: int = 0
    psnr_sum: float = 0.0
    peak_ingest_depth: int = 0
    peak_egress_depth: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Recovery counters: how many times this session has reattached,
    #: how many journaled outcomes the last resume replayed, and how
    #: often the encode watchdog fired on it.
    resumes: int = 0
    replayed: int = 0
    watchdog_fires: int = 0
    parked: bool = False

    def to_dict(self, queue_frames: int) -> Dict[str, object]:
        dropped = {
            "backpressure": self.dropped_backpressure,
            "egress": self.dropped_egress,
            "corrupt": self.dropped_corrupt,
            "deadline": self.dropped_deadline,
            "watchdog": self.dropped_watchdog,
        }
        if self.dropped_policy:
            # Only present when a policy actually dropped frames, so a
            # no-policy run's STATS payload is byte-identical to the
            # pre-policy wire form.
            dropped["policy"] = self.dropped_policy
        return {
            "session_id": self.session_id,
            "frames_received": self.frames_received,
            "frames_encoded": self.frames_encoded,
            "frames_dropped": dropped,
            "recovery": {
                "resumes": self.resumes,
                "replayed": self.replayed,
                "watchdog_fires": self.watchdog_fires,
                "parked": self.parked,
            },
            "deadline_misses": self.deadline_misses,
            "total_bits": self.total_bits,
            "psnr_avg": (
                self.psnr_sum / self.frames_encoded
                if self.frames_encoded else None
            ),
            "peak_ingest_depth": self.peak_ingest_depth,
            "peak_egress_depth": self.peak_egress_depth,
            "queue_frames": queue_frames,
        }


_BYE_SENTINEL = object()
_DRAIN_SENTINEL = object()


class _EncodedOut:
    """Egress-queue stand-in for a successful ENCODED frame.

    Carries the reconstruction plane *by reference*; the egress loop
    serializes it straight into the session's reusable wire arena
    (:func:`encode_encoded_into`), so the plane's pixels are copied
    exactly once — into the socket — instead of ``tobytes()`` +
    payload concat + header concat.  Drops and control messages keep
    using the regular dataclasses (their payloads are tiny).
    """

    __slots__ = ("frame_index", "frame_type", "width", "height",
                 "bits", "psnr", "recon", "rung")

    def __init__(self, frame_index: int, frame_type: str, width: int,
                 height: int, bits: int, psnr: float, recon: np.ndarray,
                 rung: int = 0):
        self.frame_index = frame_index
        self.frame_type = frame_type
        self.width = width
        self.height = height
        self.bits = bits
        self.psnr = psnr
        self.recon = recon
        self.rung = rung


class _Session:
    """Mutable state of one accepted client session.

    ``restored`` rebuilds the session from its journal: the pipeline is
    restored to the last GOP-boundary snapshot, parked in-flight frames
    are staged in ``prefeed`` for the encode loop to re-push, and the
    encoder configuration (``qp``/``window``) comes from the journaled
    admit record rather than the *current* overload ladder — the same
    config the original admission chose is what bit-identity requires.
    """

    def __init__(self, session_id: int, hello: Hello,
                 server: "NetworkServer", resume_token: str = "",
                 journal: Optional[SessionJournal] = None,
                 restored: Optional[RestoredSession] = None,
                 rungs: Tuple[Tuple[int, int], ...] = ()):
        cfg = server.config
        self.session_id = session_id
        self.hello = hello
        self.stats = SessionStats(session_id=session_id)
        self.ingest: asyncio.Queue = asyncio.Queue(maxsize=cfg.queue_frames)
        self.egress: asyncio.Queue = asyncio.Queue(maxsize=cfg.egress_frames)
        self.arrival_s: Dict[int, float] = {}
        self.next_index = 0
        content = None
        if hello.content_class:
            try:
                content = ContentClass(hello.content_class)
            except ValueError:
                content = None
        #: Resolved policy tenant this session bills to ("" = no policy).
        self.tenant = server.resolve_tenant(hello)
        if restored is not None:
            qp = int(restored.admit["qp"])
            window = int(restored.admit["window"])
        else:
            qp, window = server.admission.lighten(
                32, 64, tenant=hello.tenant
            )
        self.qp = qp
        self.window = window
        pipeline = PipelineConfig(
            fps=hello.fps if hello.fps > 0 else cfg.fps,
            gop=GopConfig(max(1, hello.gop)),
            base_config=EncoderConfig(qp=qp, search="hexagon",
                                      search_window=window),
            content_class=content,
            resilience=server.resilience_for(hello),
            platform=cfg.platform,
            parallel_tiles=cfg.parallel_workers is not None,
            parallel_workers=cfg.parallel_workers or None,
            parallel_backend=cfg.parallel_backend,
        )
        injector = None
        if cfg.fault_spike_rate > 0:
            injector = FaultInjector(FaultConfig(
                seed=cfg.seed + session_id,
                time_spike_rate=cfg.fault_spike_rate,
                time_spike_factor=cfg.fault_spike_factor,
            ))
        #: Rendition-ladder mode (``rungs`` non-empty): one shared
        #: analysis pass feeds per-rung pipeline sessions; outputs are
        #: rung-tagged on the wire.  The rung set is the *admitted*
        #: ladder (a prefix of the HELLO's request), so the planner's
        #: own content pruning is disabled — the client receives
        #: exactly the rungs the HELLO_ACK promised.  Ladder sessions
        #: are not journaled and run without the encode watchdog (no
        #: cross-rung snapshot exists yet); see DESIGN.md §14.
        self.ladder: Optional[LadderSession] = None
        self.transcoder: Optional[StreamTranscoder] = None
        self.stream = None
        if rungs:
            self.ladder = LadderSession(
                base_config=pipeline,
                ladder=LadderConfig(
                    rungs=tuple(LadderRung(w, h) for w, h in rungs),
                    prune=False,
                ),
                estimator=server.estimator,
            )
        else:
            self.transcoder = StreamTranscoder(
                pipeline, estimator=server.estimator,
                fault_injector=injector,
            )
            self.stream = self.transcoder.open_session()
        self.slot_s = 1.0 / pipeline.fps
        self.gop_size = max(1, hello.gop)
        # -- recovery state --------------------------------------------
        self.resume_token = resume_token
        self.journal = journal
        #: Bumped by the watchdog; cooperative cancellation hook for
        #: anything (tests, instrumented encoders) polling it.
        self.epoch = 0
        #: Raw frames pushed since the last GOP boundary — the watchdog
        #: rebuild and the drain park record re-feed from here.
        self.replay_frames: List[Frame] = []
        #: In-memory copy of the last GOP-boundary snapshot.
        self.last_state: Optional[Dict[str, object]] = None
        #: Outcomes egressed outside the GOP flush (watchdog drops),
        #: awaiting durability in the next ``gop``/``park`` record so a
        #: resume replays them with their original classification.
        self.pending_drops: List[Dict[str, object]] = []
        #: Parked frames a resume must re-push before reading the wire.
        self.prefeed: List[Frame] = []
        #: Ordered hand-off from the encode loop to the emit loop:
        #: ``(append_future_or_None, outputs)`` pairs.  Bounded so the
        #: encoder stays at most a few GOPs ahead of durable emission
        #: (deep enough to ride out an occasional slow fsync).
        self.emit_queue: asyncio.Queue = asyncio.Queue(maxsize=4)
        #: Reusable egress serialization buffer (one wire frame at a
        #: time; the selector transport either sends synchronously or
        #: copies the unsent remainder, so reuse after write is safe).
        self.wire_arena = bytearray()
        self.completed = False
        if restored is not None:
            if restored.state is not None:
                self.stream.import_state(restored.state)
                self.last_state = restored.state
            self.next_index = restored.next_frame_index
            self.prefeed = [
                Frame(plane, index=index)
                for index, plane in restored.pending
            ]

    # -- uniform encode surface (plain stream or ladder) ---------------
    def encode_push(self, frame: Frame) -> List[FrameOutput]:
        if self.ladder is not None:
            return self.ladder.push(frame)
        return self.stream.push(frame)

    def encode_finish(self) -> List[FrameOutput]:
        if self.ladder is not None:
            return self.ladder.finish()
        return self.stream.finish()

    def close_encoder(self) -> None:
        if self.ladder is not None:
            self.ladder.close()
        else:
            self.transcoder.close()


class NetworkServer:
    """The asyncio serving front-end."""

    def __init__(
        self,
        config: ServeNetConfig = ServeNetConfig(),
        estimator: Optional[WorkloadEstimator] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.config = config
        self.estimator = estimator or WorkloadEstimator(
            quantile=config.admission.quantile
        )
        self._owner = f"{config.worker_id or 'solo'}:{os.getpid()}"
        self._journal_store: Optional[SharedDirStateStore] = None
        #: Durability health latch (DESIGN.md §16): ``healthy`` gates
        #: journaling for new admits; the probe loop readmits it
        #: hysteretically after a brownout.
        self._durability = DurabilityMonitor(
            readmit_successes=config.durability_readmit_successes
        )
        self._durability_task: Optional[asyncio.Task] = None
        #: Resume tokens invalidated by a durability brownout.  The
        #: in-memory set is authoritative for this process; the
        #: journaled tombstone record is best-effort (the disk was
        #: failing when it was written).
        self._tombstoned: set = set()
        if config.journal_dir is not None:
            self._journal_store = SharedDirStateStore(
                config.journal_dir, fsync=config.journal_fsync,
                owner=self._owner, lease=config.lease,
                fileops=config.fileops,
                retry=RetryPolicy(
                    attempts=max(1, config.journal_retry_attempts),
                    backoff_s=config.journal_retry_backoff_s,
                ),
                on_retry=self._on_journal_retry,
            )
            # Warm-start the shared LUT from the drain checkpoint, if
            # an intact one survived the previous run.
            loaded = self._journal_store.load_lut()
            if loaded.recovered:
                self.estimator.lut = loaded.lut
        self.admission = admission or AdmissionController(
            estimator=self.estimator,
            platform=config.platform,
            policy=config.admission,
        )
        #: Tenant policy plumbing (all ``None`` without --policy; every
        #: policy hook below degrades to a single branch).
        self.policy_manager: Optional[PolicyManager] = None
        self.energy: Optional[EnergyBudgetScheduler] = None
        self._power_model: Optional[PowerModel] = None
        if config.policy_file is not None:
            # A broken policy file refuses to start the server (the
            # manager's initial load is strict); hot-reload failures
            # later keep the active policy and count an error.
            self.policy_manager = PolicyManager(config.policy_file,
                                                fileops=config.fileops)
            self._apply_policy(self.policy_manager.active)
            self.policy_manager.on_apply(
                lambda policy, plan, rev: self._apply_policy(policy)
            )
        self._policy_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        # The encode pool: CPU work leaves the event loop here.  Each
        # session awaits every push before issuing the next, so one
        # session never runs on two threads at once; cross-session
        # parallelism is bounded by the Algorithm-2 core grant (the
        # shared estimator serializes its own LUT updates).
        self._encode_pool = self._new_encode_pool()
        # Journal writes (plane packing, checksumming, fsync) get their
        # own single writer thread so durability work overlaps with the
        # encode thread instead of stealing its time.  Egress for a GOP
        # still *awaits* the append, preserving journal-before-egress;
        # per-journal ordering holds because each session awaits its
        # append before issuing the next.  The watchdog only swaps the
        # encode pool, so pending appends survive a wedged encode.
        self._journal_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-journal"
        )
        self._capacity_freed = asyncio.Event()
        self._next_session_id = 0
        self._active_handlers = 0
        self._draining = False
        self._drain_event = asyncio.Event()
        # resume_token -> the connection-handler task currently serving
        # that journal.  A RESUME for an attached token preempts the
        # old handler (half-open TCP: the client is gone but the server
        # side has not noticed) so two sessions never append to one
        # journal concurrently.
        self._attached: Dict[str, asyncio.Task] = {}
        # Per-message allocation bound for reads: sized to the largest
        # FRAME the configured geometry ceiling permits (plus framing
        # slack), never beyond the wire-format ceiling — a client
        # cannot make the server commit to a 32 MiB buffer by inflating
        # the declared length.
        self._recv_max_payload = min(
            MAX_PAYLOAD,
            max(65536,
                config.max_frame_width * config.max_frame_height + 1024),
        )

    # -- tenant policy -------------------------------------------------
    def _apply_policy(self, policy: CompiledPolicy) -> None:
        """Make a compiled policy live: fresh energy scheduler (the
        ledger restarts — an edited cap judges only post-edit draw) and
        a re-wired admission controller on the clamped platform."""
        self.energy = EnergyBudgetScheduler(policy)
        self._power_model = PowerModel()
        self.admission.set_policy(policy, self.energy)

    @property
    def compiled_policy(self) -> Optional[CompiledPolicy]:
        return self.policy_manager.active if self.policy_manager else None

    def resolve_tenant(self, hello: Hello) -> str:
        policy = self.compiled_policy
        if policy is None:
            return ""
        return policy.resolve_name(hello.tenant)

    def resilience_for(self, hello: Hello) -> Optional[ResilienceConfig]:
        """Per-stream resilience bounded by the tenant's QoS floor."""
        policy = self.compiled_policy
        if policy is None:
            return self.config.resilience
        return policy.resilience_for(hello.tenant, self.config.resilience)

    async def _policy_loop(self) -> None:
        """Housekeeping tick: energy-budget checks plus (optionally)
        policy-file hot reload."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        interval = 0.05
        if self.energy is not None:
            interval = max(
                0.05, min(1.0, self.energy.policy.energy_window_s / 4)
            )
        next_reload = (loop.time() + cfg.policy_reload_s
                       if cfg.policy_reload_s > 0 else None)
        while True:
            await asyncio.sleep(interval)
            if self.energy is not None:
                events = self.energy.check(loop.time())
                if any(e.kind in ("readmit", "unthrottle")
                       for e in events):
                    # Readmission frees admission headroom for tenants
                    # parked behind the brownout gate.
                    self._capacity_freed.set()
            if (next_reload is not None and loop.time() >= next_reload
                    and self.policy_manager is not None):
                next_reload = loop.time() + cfg.policy_reload_s
                self.policy_manager.maybe_reload()

    # -- durability brownout (DESIGN.md §16) ---------------------------
    def _on_journal_retry(self, exc: StorageError) -> None:
        """Metrics hook for transient journal-append retries.  Runs on
        the journal writer thread; the registry lock makes it safe."""
        get_registry().inc(
            "repro_serving_journal_retries_total",
            help="Transient journal-write faults retried",
        )

    def _note_durability_failure(self, error: BaseException) -> None:
        """Record a durable-write failure; on the healthy->browned
        transition, count the episode and start the readmission probe.
        """
        if not self._durability.record_failure(error):
            return
        registry = get_registry()
        registry.inc(
            "repro_serving_durability_brownouts_total",
            help="Durability brownout episodes (journaling disabled)",
        )
        registry.set_gauge(
            "repro_serving_durability",
            0, help="1 while journal storage is healthy, 0 in brownout",
        )
        get_tracer().event(
            "serving.durability_brownout", error=str(error),
            point=getattr(error, "point", ""),
        )
        self._ensure_durability_probe()

    def _ensure_durability_probe(self) -> None:
        if self._durability_task is None or self._durability_task.done():
            self._durability_task = asyncio.ensure_future(
                self._durability_loop()
            )

    async def _durability_loop(self) -> None:
        """Probe the journal volume while browned out; readmit
        journaling after ``durability_readmit_successes`` consecutive
        clean probes (hysteresis against a flapping disk)."""
        registry = get_registry()
        loop = asyncio.get_running_loop()
        store = self._journal_store
        while store is not None and not self._durability.healthy:
            await asyncio.sleep(self.config.durability_probe_s)
            try:
                # The probe shares the journal writer thread, so a
                # stalled volume delays probes instead of piling them.
                await loop.run_in_executor(
                    self._journal_pool, store.probe_durability
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._durability.record_failure(exc)
                continue
            if self._durability.record_success():
                registry.inc(
                    "repro_serving_durability_readmits_total",
                    help="Brownout episodes ended by clean probes",
                )
                registry.set_gauge(
                    "repro_serving_durability",
                    1,
                    help="1 while journal storage is healthy, "
                         "0 in brownout",
                )
                get_tracer().event("serving.durability_readmit")

    async def _durability_brownout(self, session: "_Session",
                                   error: BaseException) -> None:
        """A durable write for ``session`` failed beyond retry: keep
        the session alive but stop journaling it.

        The resume token is invalidated (in memory, authoritatively;
        on disk via a best-effort tombstone record — the disk was
        failing, so the append may not land) and the journal handle is
        closed on the writer thread, *behind* any appends the session
        already queued.  The connection itself never notices: frames
        keep flowing, only crash-resumability is lost.
        """
        token = session.resume_token
        journal, session.journal = session.journal, None
        session.resume_token = ""
        if token:
            self._tombstoned.add(token)
            self._attached.pop(token, None)
        if journal is not None:
            def tombstone() -> None:
                try:
                    journal.append("tombstone", {
                        "token": token, "reason": str(error),
                        "owner": self._owner,
                    })
                except Exception:
                    pass  # best effort by design
                finally:
                    try:
                        journal.close()
                    except Exception:
                        pass
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self._journal_pool, tombstone
                )
            except RuntimeError:
                # The writer pool itself is gone (thread death /
                # shutdown) — the very fault being handled.  Close the
                # handle inline; the tombstone stays memory-only.
                try:
                    journal.close()
                except Exception:
                    pass
        if token and self._journal_store is not None:
            try:
                self._journal_store.release(token)
            except (StorageError, OSError):
                pass
        self._note_durability_failure(error)

    def _encode_pool_size(self) -> int:
        """Encode threads granted to this server.

        Explicit ``encode_workers`` wins; otherwise the grant is the
        admission controller's core capacity (the Algorithm-2 budget
        sessions are packed into) clamped to the physical host.
        """
        if self.config.encode_workers is not None:
            return max(1, int(self.config.encode_workers))
        grant = max(1, int(self.admission.capacity_cores))
        return min(grant, os.cpu_count() or 1)

    def _new_encode_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self._encode_pool_size(),
            thread_name_prefix="repro-encode",
        )

    @property
    def parked_tokens(self) -> List[str]:
        """Resume tokens with a journal on disk (including sessions
        parked by a previous run's drain)."""
        if self._journal_store is None:
            return []
        return self._journal_store.tokens()

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def owner(self) -> str:
        """Lease-owner identity of this server (``worker:pid``)."""
        return self._owner

    def load_snapshot(self) -> Dict[str, float]:
        """Point-in-time load for the fleet's utilization gossip."""
        snapshot = {
            "active_sessions": float(self.admission.active_sessions),
            "occupancy_cores": float(self.admission.occupancy_cores),
            "capacity_cores": float(self.admission.capacity_cores),
            "active_handlers": float(self._active_handlers),
            "draining": 1.0 if self._draining else 0.0,
        }
        if self.compiled_policy is not None:
            for name, cores in self.admission.tenant_occupancies().items():
                snapshot[f"tenant_cores.{name}"] = cores
        return snapshot

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
            reuse_port=self.config.reuse_port or None,
        )
        if self.policy_manager is not None and self._policy_task is None:
            self._policy_task = asyncio.ensure_future(self._policy_loop())
        get_registry().set_gauge(
            "repro_serving_listening", 1, help="1 while the server accepts",
        )
        if self._journal_store is not None:
            get_registry().set_gauge(
                "repro_serving_durability",
                1 if self._durability.healthy else 0,
                help="1 while journal storage is healthy, 0 in brownout",
            )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._policy_task is not None:
            self._policy_task.cancel()
            await asyncio.gather(self._policy_task, return_exceptions=True)
            self._policy_task = None
        if self._durability_task is not None:
            self._durability_task.cancel()
            await asyncio.gather(self._durability_task,
                                 return_exceptions=True)
            self._durability_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._encode_pool.shutdown(wait=True)
        self._journal_pool.shutdown(wait=True)
        get_registry().set_gauge(
            "repro_serving_listening", 0, help="1 while the server accepts",
        )

    async def drain(self) -> None:
        """Graceful shutdown (the SIGTERM path).

        Stops accepting connections and admissions, signals every
        in-flight session to finish (journal-less) or park (journaled —
        the in-flight GOP's raw frames land in the journal so a
        restarted server can resume the session bit-identically), waits
        up to ``drain_grace_s`` for sessions to flush their STATS/BYE,
        checkpoints the shared LUT next to the journals, and closes.
        Idempotent; concurrent callers share one drain.
        """
        if self._draining:
            return
        self._draining = True
        registry = get_registry()
        registry.inc("repro_serving_drains_total",
                     help="Graceful drains initiated")
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        self._drain_event.set()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        while self._active_handlers > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._journal_store is not None:
            try:
                self._journal_store.save_lut(self.estimator.lut)
            except (StorageError, OSError) as exc:
                # The LUT is an accuracy warm-start, never correctness:
                # a failed checkpoint must not block the drain.
                get_tracer().event("serving.lut_checkpoint_failed",
                                   error=str(exc))
        await self.aclose()

    # -- connection handling -------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        self._active_handlers += 1
        registry.set_gauge(
            "repro_serving_active_connections", self._active_handlers,
            help="Open client connections",
        )
        try:
            await self._run_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            registry.inc("repro_serving_connection_resets_total",
                         help="Connections lost mid-session")
        except ProtocolError as exc:
            registry.inc("repro_serving_protocol_errors_total",
                         help="Wire-protocol violations")
            await self._try_send(writer, ErrorMsg("protocol", str(exc)))
        finally:
            self._active_handlers -= 1
            registry.set_gauge(
                "repro_serving_active_connections", self._active_handlers,
                help="Open client connections",
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _try_send(self, writer: asyncio.StreamWriter,
                        msg: Message) -> None:
        try:
            await write_message(writer, msg)
        except (ConnectionError, OSError):
            pass

    async def _run_connection(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        cfg = self.config
        registry = get_registry()
        msg = await asyncio.wait_for(
            read_message(reader, max_payload=self._recv_max_payload),
            timeout=cfg.hello_timeout_s,
        )
        if isinstance(msg, Resume):
            await self._resume_connection(msg, reader, writer)
            return
        if not isinstance(msg, Hello):
            raise ProtocolError(
                f"expected HELLO or RESUME, got {msg.type.name}"
            )
        hello = msg
        if not (0 < hello.width <= cfg.max_frame_width
                and 0 < hello.height <= cfg.max_frame_height):
            await write_message(writer, HelloAck(
                decision="reject", reason=(
                    f"geometry {hello.width}x{hello.height} outside "
                    f"1..{cfg.max_frame_width} x 1..{cfg.max_frame_height}"
                ),
            ))
            return
        session_id = self._next_session_id
        self._next_session_id += 1
        # Admission prices every rung the HELLO asks for (one for a
        # plain session) and may drop low rungs before it parks or
        # rejects the session.
        decide = (self.admission.decide if hello.ladder is None
                  else self.admission.decide_ladder)
        decision, reason, kept = decide(session_id, hello)
        if decision is AdmissionDecision.PARK:
            await write_message(writer, HelloAck(
                decision="park", session_id=session_id, reason=reason,
            ))
            decision, reason, kept = await self._wait_parked(
                session_id, hello
            )
        if decision is not AdmissionDecision.ACCEPT:
            await write_message(writer, HelloAck(
                decision="reject", session_id=session_id, reason=reason,
            ))
            return
        # The HELLO_ACK's ``rungs`` list is the ladder contract: exactly
        # those rungs arrive on the wire, each ENCODED tagged with its
        # rung id.  Ladder sessions are not journaled (no resume token)
        # because the encode layer has no cross-rung snapshot yet; see
        # DESIGN.md §14.
        ladder = kept if hello.ladder is not None else ()
        resume_token = ""
        journal: Optional[SessionJournal] = None
        # Brownout gate: while the journal volume is failing, new
        # sessions are admitted journal-less (degrade, never crash);
        # the probe loop re-enables journaling hysteretically.
        if (not ladder and self._journal_store is not None
                and self._durability.healthy):
            try:
                resume_token = self._journal_store.new_token(
                    session_id, hello.client_id
                )
                # A fresh token is uncontended, but taking its lease
                # here makes the invariant uniform: a journal with an
                # appender always has a lease naming that appender.
                self._journal_store.acquire(resume_token)
                journal = self._journal_store.create(resume_token)
            except StorageError as exc:
                if resume_token:
                    try:
                        self._journal_store.release(resume_token)
                    except (StorageError, OSError):
                        pass
                resume_token, journal = "", None
                self._note_durability_failure(exc)
        session = _Session(session_id, hello, self,
                           resume_token=resume_token, journal=journal,
                           rungs=ladder)
        if ladder:
            get_registry().inc(
                "repro_serving_ladder_sessions_total",
                help="Rendition-ladder sessions admitted by the server",
            )
        if journal is not None:
            admit_payload = {
                "token": resume_token, "session_id": session_id,
                "width": hello.width, "height": hello.height,
                "fps": hello.fps, "num_frames": hello.num_frames,
                "gop": hello.gop, "content_class": hello.content_class,
                "client_id": hello.client_id,
                "qp": session.qp, "window": session.window,
                "owner": self._owner,
            }
            if hello.tenant:
                admit_payload["tenant"] = hello.tenant
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self._journal_pool, journal.append, "admit",
                    admit_payload,
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Journal dead on arrival (ENOSPC, writer-thread death,
                # ...): the session continues journal-less.
                await self._durability_brownout(session, exc)
        await write_message(writer, HelloAck(
            decision="accept", session_id=session_id, reason=reason,
            queue_frames=cfg.queue_frames,
            # A brownout above clears the session's token; the ACK
            # must advertise what the session actually has.
            resume_token=session.resume_token,
            rungs=tuple((i, w, h) for i, (w, h) in enumerate(ladder)),
        ))
        await self._serve_admitted(session, reader, writer)

    async def _resume_connection(self, msg: Resume,
                                 reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """RESUME handshake: restore the journaled session, replay the
        outcomes the client lacks, and hand over to the normal loops."""
        cfg = self.config
        registry = get_registry()
        started = time.perf_counter()
        store = self._journal_store
        if store is None or not store.exists(msg.resume_token):
            await write_message(writer, ResumeAck(
                decision="reject", reason="unknown resume token",
            ))
            return
        if msg.resume_token in self._tombstoned:
            # Invalidated by a durability brownout: the journal on disk
            # (if any survived) is not trusted to be complete, so the
            # token is refused cleanly instead of resuming a session
            # that would silently miss its tail.
            registry.inc(
                "repro_serving_tombstone_rejects_total",
                help="RESUMEs refused: token tombstoned by a brownout",
            )
            await write_message(writer, ResumeAck(
                decision="reject",
                reason="resume token invalidated by durability brownout",
            ))
            return
        # Half-open TCP: the client timed out and reconnected while the
        # old handler is still alive (e.g. a chaos-proxy stall).  The
        # journal admits one writer, so preempt the old handler —
        # cancel it and wait for its teardown (which closes its journal
        # handle) before reading the journal.
        old = self._attached.get(msg.resume_token)
        if old is not None and not old.done():
            registry.inc("repro_serving_resume_preemptions_total",
                         help="Attached sessions preempted by a RESUME")
            old.cancel()
            await asyncio.wait({old}, timeout=cfg.hello_timeout_s)
            if not old.done():
                await write_message(writer, ResumeAck(
                    decision="reject",
                    reason="session still attached; preemption timed out",
                ))
                return
        # Cross-process exclusion: take the token's single-owner lease.
        # In-process preemption (above) already cleared our own path,
        # so a held lease here names *another worker* — alive means
        # its session is still appending (transient reject: the client
        # should retry after the fleet confirms the worker's fate);
        # dead means we adopt, which is the crash-failover headline.
        try:
            lease = store.acquire(msg.resume_token)
        except LeaseHeldError as exc:
            registry.inc("repro_serving_lease_conflicts_total",
                         help="RESUMEs rejected: lease held by a live peer")
            await write_message(writer, ResumeAck(
                decision="reject",
                reason=f"session lease held by {exc.owner}",
                retry_after_s=cfg.lease_retry_s,
            ))
            return
        except StorageError as exc:
            # The lease write itself failed: storage trouble, not
            # contention.  Transient reject (the client may retry) and
            # note the failure against the durability latch.
            self._note_durability_failure(exc)
            await write_message(writer, ResumeAck(
                decision="reject", reason=f"session store fault: {exc}",
                retry_after_s=cfg.lease_retry_s,
            ))
            return
        # Claim the token before touching the journal so a concurrent
        # RESUME for the same token preempts *this* handler instead of
        # racing it to the reopen.
        self._attached[msg.resume_token] = asyncio.current_task()
        # Barrier through the single journal-writer thread: any append
        # the old session scheduled before teardown has now either
        # landed in the file or failed against the closed handle, so
        # the restore below reads the journal's final state.
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool, lambda: None
            )
        except RuntimeError:
            # Writer pool dead: journaling is gone for this process, so
            # a resume cannot be served safely.  Clean typed refusal.
            self._attached.pop(msg.resume_token, None)
            store.release(msg.resume_token)
            await write_message(writer, ResumeAck(
                decision="reject", reason="journal writer unavailable",
                retry_after_s=cfg.lease_retry_s,
            ))
            return
        try:
            restored = store.restore(msg.resume_token, strict=True)
        except JournalCorruptionError as exc:
            registry.inc("repro_serving_journal_corruptions_total",
                         help="Journals rejected by integrity checks")
            store.release(msg.resume_token)
            await write_message(writer, ResumeAck(
                decision="reject", reason=f"journal corrupt: {exc}",
            ))
            return
        except StorageError as exc:
            # An unreadable journal is a *transient* reject, distinct
            # from corruption: the bytes may be fine, the read failed.
            store.release(msg.resume_token)
            await write_message(writer, ResumeAck(
                decision="reject", reason=f"journal unreadable: {exc}",
                retry_after_s=cfg.lease_retry_s,
            ))
            return
        if restored.tombstoned:
            # A previous run browned this session out and its
            # tombstone record did land: same clean refusal as the
            # in-memory set, surviving restarts.
            registry.inc(
                "repro_serving_tombstone_rejects_total",
                help="RESUMEs refused: token tombstoned by a brownout",
            )
            self._attached.pop(msg.resume_token, None)
            store.release(msg.resume_token)
            await write_message(writer, ResumeAck(
                decision="reject",
                reason="resume token invalidated by durability brownout",
            ))
            return
        adopted = restored.last_owner not in ("", self._owner)
        if adopted:
            registry.inc(
                "repro_serving_sessions_adopted_total",
                help="Journaled sessions adopted from a dead worker",
            )
            get_tracer().event(
                "serving.adopt", token=msg.resume_token,
                previous_owner=restored.last_owner, owner=self._owner,
                reclaimed=lease.reclaimed,
            )
        admit = restored.admit
        hello = Hello(
            width=int(admit["width"]), height=int(admit["height"]),
            fps=float(admit["fps"]),
            num_frames=int(admit.get("num_frames", 0)),
            gop=int(admit["gop"]),
            content_class=admit.get("content_class"),
            client_id=msg.client_id or str(admit.get("client_id", "")),
            tenant=str(admit.get("tenant", "")),
        )
        session_id = self._next_session_id
        self._next_session_id += 1
        # A resumed session re-charges admission capacity like any
        # other: its old ticket died with its old connection.
        decision, reason, _ = self.admission.decide(session_id, hello)
        if decision is AdmissionDecision.PARK:
            decision, reason, _ = await self._wait_parked(session_id, hello)
        if decision is not AdmissionDecision.ACCEPT:
            store.release(msg.resume_token)
            await write_message(writer, ResumeAck(
                decision="reject", session_id=session_id, reason=reason,
            ))
            return
        # A mid-append crash leaves a torn final line; cut the file back
        # to its last intact record before appending, or the next
        # record would merge with the partial line mid-file and poison
        # every later strict restore.
        try:
            journal = store.reopen(msg.resume_token, restored.next_seq,
                                   truncate_to=restored.intact_bytes)
        except StorageError as exc:
            self.admission.release(session_id)
            store.release(msg.resume_token)
            self._note_durability_failure(exc)
            await write_message(writer, ResumeAck(
                decision="reject", reason=f"session store fault: {exc}",
                retry_after_s=cfg.lease_retry_s,
            ))
            return
        session = _Session(session_id, hello, self,
                           resume_token=msg.resume_token, journal=journal,
                           restored=restored)
        session.stats.resumes = restored.resumes + 1
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool, journal.append, "resume", {
                    "have_below": msg.have_below,
                    "next_frame_index": restored.next_frame_index,
                    "session_id": session_id,
                    "owner": self._owner,
                },
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # The restored state is already in memory; serve the
            # session journal-less rather than failing the resume.
            await self._durability_brownout(session, exc)
        replay = replay_messages(restored, msg.have_below)
        session.stats.replayed = len(replay)
        await write_message(writer, ResumeAck(
            decision="accept", session_id=session_id,
            next_frame_index=restored.next_frame_index,
            replayed=len(replay), reason=reason,
            queue_frames=cfg.queue_frames,
            resume_token=session.resume_token,
        ))
        for encoded in replay:
            await write_message(writer, encoded)
            registry.inc("repro_serving_frames_total", direction="out",
                         help="Frames crossing the wire by direction")
            registry.inc("repro_serving_bytes_total", len(encoded.luma),
                         direction="out",
                         help="Payload bytes crossing the wire by direction")
        registry.inc("repro_serving_resumes_total",
                     help="Sessions reattached via RESUME")
        registry.observe(
            "repro_serving_resume_latency_seconds",
            time.perf_counter() - started,
            help="RESUME to RESUME_ACK (journal restore + replay)",
        )
        get_tracer().event(
            "serving.resume", session=session_id,
            token=msg.resume_token, replayed=len(replay),
            next_frame_index=restored.next_frame_index,
        )
        await self._serve_admitted(session, reader, writer)

    async def _serve_admitted(self, session: "_Session",
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        span = get_tracer().span(
            "serving.session", session=session.session_id,
            width=session.hello.width, height=session.hello.height,
        )
        task = asyncio.current_task()
        if session.resume_token:
            self._attached[session.resume_token] = task
        try:
            with span:
                await self._run_session(session, reader, writer)
            registry.inc("repro_serving_sessions_total", outcome="completed",
                         help="Finished sessions by outcome")
        except BaseException:
            registry.inc("repro_serving_sessions_total", outcome="aborted",
                         help="Finished sessions by outcome")
            raise
        finally:
            holds_token = self._attached.get(session.resume_token) is task
            if holds_token:
                del self._attached[session.resume_token]
            session.close_encoder()
            if session.journal is not None:
                session.journal.close()
                try:
                    if (session.completed
                            and self._journal_store is not None):
                        # Clean BYE: the journal has served its purpose
                        # (discard removes the lease with it).
                        self._journal_store.discard(session.resume_token)
                    elif holds_token and self._journal_store is not None:
                        # Interrupted (disconnect, park, preemption
                        # target already re-leased the token — hence
                        # holds_token): free the lease so *any* worker
                        # can resume it.
                        self._journal_store.release(session.resume_token)
                except StorageError as exc:
                    # Teardown is best-effort: an undeletable journal
                    # or lease is garbage a later sweep reclaims, not
                    # a reason to abort the teardown path.
                    self._note_durability_failure(exc)
            self.admission.release(session.session_id)
            self._capacity_freed.set()

    async def _wait_parked(self, session_id: int, hello: Hello):
        """Hold a parked HELLO or RESUME until capacity frees or the
        park timeout elapses; returns ``(decision, reason, kept)``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.park_timeout_s
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.admission.abandon_park()
                return AdmissionDecision.REJECT, "park timeout", ()
            self._capacity_freed.clear()
            try:
                await asyncio.wait_for(
                    self._capacity_freed.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                self.admission.abandon_park()
                return AdmissionDecision.REJECT, "park timeout", ()
            decision, reason, kept = self.admission.unpark(session_id, hello)
            if decision is not AdmissionDecision.PARK:
                return decision, reason, kept

    # -- session tasks -------------------------------------------------
    async def _run_session(self, session: _Session,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        ingest_task = asyncio.ensure_future(
            self._ingest_loop(session, reader)
        )
        encode_task = asyncio.ensure_future(self._encode_loop(session))
        emit_task = asyncio.ensure_future(self._emit_loop(session))
        egress_task = asyncio.ensure_future(
            self._egress_loop(session, writer)
        )
        tasks = [ingest_task, encode_task, emit_task, egress_task]
        try:
            await asyncio.gather(*tasks)
        finally:
            for t in tasks:
                if not t.done():
                    t.cancel()
            # Reap cancellations and secondary errors so no task dies
            # with an unretrieved exception.
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _ingest_loop(self, session: _Session,
                           reader: asyncio.StreamReader) -> None:
        cfg = self.config
        registry = get_registry()
        hello = session.hello
        drain_wait = asyncio.ensure_future(self._drain_event.wait())
        try:
            while True:
                read_task = asyncio.ensure_future(
                    read_message(reader, max_payload=self._recv_max_payload)
                )
                await asyncio.wait(
                    {read_task, drain_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not read_task.done():
                    # Drain signalled mid-read: stop ingesting; the
                    # encode loop parks or flushes what is in flight.
                    read_task.cancel()
                    await asyncio.gather(read_task, return_exceptions=True)
                    await session.ingest.put(_DRAIN_SENTINEL)
                    return
                msg = read_task.result()
                if isinstance(msg, Bye):
                    await session.ingest.put(_BYE_SENTINEL)
                    return
                if not isinstance(msg, FrameMsg):
                    raise ProtocolError(
                        f"expected FRAME or BYE, got {msg.type.name}"
                    )
                if (msg.width, msg.height) != (hello.width, hello.height):
                    raise ProtocolError(
                        f"FRAME geometry {msg.width}x{msg.height} disagrees "
                        f"with HELLO {hello.width}x{hello.height}"
                    )
                registry.inc("repro_serving_frames_total", direction="in",
                             help="Frames crossing the wire by direction")
                registry.inc(
                    "repro_serving_bytes_total", len(msg.luma),
                    direction="in",
                    help="Payload bytes crossing the wire by direction",
                )
                index = session.next_index
                session.next_index += 1
                session.stats.frames_received += 1
                if session.ingest.full():
                    # Backpressure: the client outruns the encoder.  The
                    # incoming frame is dropped (never buffered), keeping
                    # the queue depth at its configured bound.
                    session.stats.dropped_backpressure += 1
                    registry.inc(
                        "repro_serving_frames_dropped_total",
                        reason="backpressure",
                        help="Frames dropped by the serving layer, by reason",
                    )
                    await self._egress_put(session, Encoded(
                        frame_index=index, frame_type="",
                        dropped="backpressure",
                    ))
                    continue
                # Zero-copy ingest: the wire payload backs the frame
                # directly (read_message hands out an immutable view,
                # so frombuffer yields a read-only plane — the encoder
                # only ever reads the original).  A writable buffer
                # means something mutable backs the view; snapshot it
                # and surface the copy in metrics so hot-path copy
                # regressions are visible.
                luma = np.frombuffer(msg.luma, dtype=np.uint8).reshape(
                    msg.height, msg.width
                )
                if luma.flags.writeable:
                    luma = luma.copy()
                    registry.inc(
                        "repro_serving_frame_copies_total", path="ingest",
                        help="Hot-path pixel copies (0 when zero-copy holds)",
                    )
                session.arrival_s[index] = time.perf_counter()
                session.ingest.put_nowait(Frame(luma, index=index))
                depth = session.ingest.qsize()
                if depth > session.stats.peak_ingest_depth:
                    session.stats.peak_ingest_depth = depth
                    registry.set_gauge(
                        "repro_serving_queue_depth_peak", depth,
                        queue="ingest",
                        help="Highest per-session queue depth observed",
                    )
                if cfg.queue_frames and depth > cfg.queue_frames:
                    raise RuntimeError(
                        "ingest queue exceeded its bound"
                    )  # pragma: no cover - guarded by maxsize
        finally:
            drain_wait.cancel()
            await asyncio.gather(drain_wait, return_exceptions=True)

    def _watchdog_timeout(self, session: _Session) -> Optional[float]:
        """Wall-clock budget for one ``push`` (at most one GOP encode),
        or ``None`` when the watchdog is disarmed."""
        multiple = self.config.watchdog_multiple
        if multiple <= 0 or session.ladder is not None:
            return None
        return max(self.config.watchdog_min_s,
                   multiple * session.slot_s * session.gop_size)

    def _tracks_gop_state(self, session: _Session) -> bool:
        return (session.journal is not None
                or self._watchdog_timeout(session) is not None)

    async def _encode_loop(self, session: _Session) -> None:
        loop = asyncio.get_running_loop()
        # Re-push frames parked by a previous drain before touching the
        # wire queue: they carry their original indices, so the resumed
        # GOP is built from exactly the frames the old run accepted.
        prefeed, session.prefeed = session.prefeed, []
        for frame in prefeed:
            outputs = await self._push_frame(session, frame)
            await self._queue_boundary(session, outputs)
        while True:
            item = await session.ingest.get()
            if item is _BYE_SENTINEL:
                # Let every queued GOP become durable and reach the
                # wire before the tail flush and BYE.
                await session.emit_queue.join()
                outputs = await loop.run_in_executor(
                    self._encode_pool, session.encode_finish
                )
                await self._emit_outputs(session, outputs)
                session.completed = True
                await self._egress_put(
                    session,
                    Stats(session.stats.to_dict(self.config.queue_frames)),
                    coalesce=False,
                )
                await self._egress_put(
                    session, Bye("session complete"), coalesce=False
                )
                await session.egress.put(_BYE_SENTINEL)
                await session.emit_queue.put(_BYE_SENTINEL)
                return
            if item is _DRAIN_SENTINEL:
                await session.emit_queue.join()
                await self._park_session(session)
                await session.emit_queue.put(_BYE_SENTINEL)
                return
            if (self.energy is not None
                    and not self.energy.serves(session.tenant)):
                # Brownout: the tenant is shed — the connection stays up
                # but frames degrade to policy drops until readmission.
                session.stats.dropped_policy += 1
                session.arrival_s.pop(item.index, None)
                get_registry().inc(
                    "repro_serving_frames_dropped_total", reason="policy",
                    help="Frames dropped by the serving layer, by reason",
                )
                await self._egress_put(session, Encoded(
                    frame_index=item.index, frame_type="",
                    dropped="policy",
                ))
                continue
            outputs = await self._push_frame(session, item)
            await self._queue_boundary(session, outputs)

    async def _push_frame(self, session: _Session,
                          frame: Frame) -> List[FrameOutput]:
        """One encoder push, watchdog-guarded when armed."""
        loop = asyncio.get_running_loop()
        if self._tracks_gop_state(session):
            session.replay_frames.append(frame)
        floor = self.config.encode_floor_s
        if (floor <= 0 and session.ladder is None
                and session.stream.pending_frames + 1 < session.gop_size):
            # Mid-GOP push: validate-and-buffer only (no encode), so
            # run it inline instead of paying an executor round-trip —
            # the thread pool is reserved for GOP flushes.  Ladder
            # pushes always take the executor: every push box-downscales
            # the frame once per rung, real work the event loop should
            # not absorb.
            try:
                return session.stream.push(frame)
            except CorruptFrameError as exc:
                raise ProtocolError(f"unencodable frame: {exc}") from exc
        if floor > 0:
            def timed_push() -> List[FrameOutput]:
                t0 = time.perf_counter()
                outs = session.encode_push(frame)
                remaining = floor - (time.perf_counter() - t0)
                if remaining > 0:
                    time.sleep(remaining)
                return outs

            future = loop.run_in_executor(self._encode_pool, timed_push)
        else:
            future = loop.run_in_executor(
                self._encode_pool, session.encode_push, frame
            )
        timeout = self._watchdog_timeout(session)
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except CorruptFrameError as exc:
            raise ProtocolError(f"unencodable frame: {exc}") from exc
        except asyncio.TimeoutError:
            # The executor thread is wedged; Python cannot kill it, so
            # swallow whatever it eventually produces and move on.
            future.add_done_callback(lambda f: f.exception())
            await self._fire_watchdog(session, frame)
            return []

    async def _fire_watchdog(self, session: _Session,
                             frame: Frame) -> None:
        """A push exceeded its deadline multiple: abandon it, rebuild
        the stream at the last GOP boundary, drop the wedged frame,
        degrade, and re-pack the allocator around the sick core."""
        registry = get_registry()
        session.stats.watchdog_fires += 1
        session.stats.dropped_watchdog += 1
        registry.inc("repro_serving_watchdog_fires_total",
                     help="Encode watchdog firings")
        registry.inc("repro_serving_frames_dropped_total", reason="watchdog",
                     help="Frames dropped by the serving layer, by reason")
        session.epoch += 1
        # Replace the shared executor: its single worker thread is
        # stuck inside the wedged push.  Sessions with work queued on
        # the old pool see a cancellation and abort — their journals
        # (when enabled) let them resume; head-of-line blocking behind
        # a wedged thread would stall them forever anyway.
        old_pool = self._encode_pool
        self._encode_pool = self._new_encode_pool()
        old_pool.shutdown(wait=False, cancel_futures=True)
        # Rebuild the stream from the in-memory GOP-boundary snapshot
        # and re-buffer the interrupted GOP minus the wedged frame.
        replay = [f for f in session.replay_frames
                  if f.index != frame.index]
        session.replay_frames = []
        stream = session.transcoder.open_session()
        if session.last_state is not None:
            stream.import_state(session.last_state)
        session.stream = stream
        loop = asyncio.get_running_loop()
        for f in replay:
            session.replay_frames.append(f)
            # Mid-GOP pushes only validate and buffer (encoding happens
            # at the flush), so re-feeding is cheap and cannot wedge.
            await loop.run_in_executor(self._encode_pool, stream.push, f)
        stream.bump_degradation(frame.index)
        self.admission.replan_after_stall(
            session.session_id, 1.0 / session.slot_s
        )
        session.arrival_s.pop(frame.index, None)
        if session.journal is not None:
            # The drop is egressed here, outside any GOP flush, so it
            # rides in the next gop/park record — a resume must replay
            # it as "watchdog", not re-synthesize it as backpressure.
            session.pending_drops.append({
                "frame_index": int(frame.index), "dropped": "watchdog",
                "frame_type": "", "bits": 0, "psnr": 0.0, "recon": None,
            })
        await self._egress_put(session, Encoded(
            frame_index=frame.index, frame_type="", dropped="watchdog",
        ))
        get_tracer().event(
            "serving.watchdog", session=session.session_id,
            frame=frame.index, epoch=session.epoch,
        )

    async def _queue_boundary(self, session: _Session,
                              outputs: List[FrameOutput]) -> None:
        """Hand one push's outputs to the emit loop.

        At a GOP boundary the cross-GOP state is captured *here*,
        synchronously (``export_state`` builds a small dict and borrows
        the previous-original plane without copying), so the watchdog
        and drain paths always see current recovery state.  The
        expensive durability work — plane packing, checksumming, the
        fsync'd append — is scheduled on the journal writer thread and
        the resulting future queued alongside the outputs: the encode
        thread moves straight on to the next frame while
        :meth:`_emit_loop` awaits the append before letting the GOP
        reach egress (journal-before-egress is what makes everything
        the client ever saw replayable)."""
        if not outputs:
            return
        append = None
        if self._tracks_gop_state(session):
            state = session.stream.export_state()
            session.last_state = state
            session.replay_frames = []
            journal = session.journal
            if journal is not None:
                # Claim already-egressed watchdog drops synchronously:
                # they become durable with this GOP record.
                drops, session.pending_drops = session.pending_drops, []

                def persist() -> None:
                    packed_state = dict(state)
                    previous = packed_state.get("previous_original")
                    packed_state["previous_original"] = (
                        pack_plane(previous) if previous is not None
                        else None
                    )
                    journal.append("gop", {
                        "gop_index": int(state["gop_index"]) - 1,
                        "state": packed_state,
                        "outputs": drops + [
                            frame_output_record(o) for o in outputs
                        ],
                        "next_frame_index": max(
                            [o.frame_index for o in outputs]
                            + [int(d["frame_index"]) for d in drops]
                        ) + 1,
                    })

                try:
                    append = asyncio.get_running_loop().run_in_executor(
                        self._journal_pool, persist
                    )
                except RuntimeError as exc:
                    # Writer pool dead (thread death / shutdown): same
                    # contract as a failed append — emit anyway, brown
                    # the session out.
                    append = None
                    await self._durability_brownout(session, exc)
                else:
                    # The emit loop awaits this; retrieve defensively
                    # too, for sessions torn down with an append still
                    # queued.
                    append.add_done_callback(
                        lambda f: f.cancelled() or f.exception()
                    )
        await session.emit_queue.put((append, outputs))

    async def _emit_loop(self, session: _Session) -> None:
        """Per-session emitter: for each queued GOP, await its journal
        append (when journaling) and only then emit the outputs.  Runs
        concurrently with the encode loop so durability work overlaps
        encode work instead of stalling it."""
        while True:
            item = await session.emit_queue.get()
            if item is _BYE_SENTINEL:
                session.emit_queue.task_done()
                return
            append, outputs = item
            try:
                if append is not None:
                    try:
                        await append
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        # The GOP cannot be made durable: emit it
                        # anyway and brown the session out —
                        # availability over resumability.
                        await self._durability_brownout(session, exc)
                    else:
                        get_registry().inc(
                            "repro_serving_journal_gops_total",
                            help="GOP records made durable by session "
                                 "journals",
                        )
                await self._emit_outputs(session, outputs)
            finally:
                session.emit_queue.task_done()

    async def _park_session(self, session: _Session) -> None:
        """Drain-path exit: journal the in-flight GOP's raw frames (a
        ``park`` record) so a restarted server resumes bit-identically,
        or — journal-less — flush the partial GOP the classic way."""
        loop = asyncio.get_running_loop()
        if session.journal is not None:
            journal = session.journal
            frames = list(session.replay_frames)
            next_index = session.next_index
            drops, session.pending_drops = session.pending_drops, []

            def park() -> None:
                journal.append("park", {
                    "next_frame_index": next_index,
                    "frames": [
                        {"frame_index": f.index,
                         "plane": pack_plane(f.luma)}
                        for f in frames
                    ],
                    "outputs": drops,
                })

            try:
                await loop.run_in_executor(self._journal_pool, park)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                await self._durability_brownout(session, exc)
            else:
                session.stats.parked = True
                get_registry().inc(
                    "repro_serving_sessions_parked_total",
                    help="Sessions parked to their journal by a drain",
                )
        if session.stats.parked:
            reason = "server draining; session parked for resume"
        else:
            # Journal-less (or the park record failed to land — the
            # brownout path above): flush the partial GOP the classic
            # way so the client still gets every frame it sent.
            outputs = await loop.run_in_executor(
                self._encode_pool, session.encode_finish
            )
            await self._emit_outputs(session, outputs)
            reason = "server draining"
        await self._egress_put(
            session,
            Stats(session.stats.to_dict(self.config.queue_frames)),
            coalesce=False,
        )
        await self._egress_put(session, Bye(reason), coalesce=False)
        await session.egress.put(_BYE_SENTINEL)

    async def _emit_outputs(self, session: _Session,
                            outputs: List[FrameOutput]) -> None:
        registry = get_registry()
        now = time.perf_counter()
        for out in outputs:
            arrival = session.arrival_s.pop(out.frame_index, None)
            if out.dropped is not None:
                if out.dropped == "corrupt":
                    session.stats.dropped_corrupt += 1
                else:
                    session.stats.dropped_deadline += 1
                await self._egress_put(session, Encoded(
                    frame_index=out.frame_index, frame_type="",
                    dropped=out.dropped, rung=out.rung,
                ))
                continue
            record = out.record
            critical = max(t.cpu_time_fmax for t in record.tiles)
            if self.energy is not None:
                # Model-domain energy: the frame's summed tile CPU
                # seconds at f_max priced by the fig4 busy power —
                # billed to the session's tenant for the budget ledger.
                self.energy.observe(
                    asyncio.get_running_loop().time(),
                    record.cpu_time_fmax
                    * self._power_model.busy_power(
                        self.admission.platform.f_max),
                    session.tenant,
                )
            session.stats.frames_encoded += 1
            session.stats.total_bits += record.bits
            psnr = float(np.mean([t.psnr for t in record.tiles]))
            session.stats.psnr_sum += psnr
            registry.inc("repro_serving_frames_encoded_total",
                         help="Frames encoded by the serving layer")
            if critical > session.slot_s:
                session.stats.deadline_misses += 1
                registry.inc(
                    "repro_serving_deadline_miss_total",
                    help="Encoded frames whose critical tile exceeded "
                         "the 1/FPS slot",
                )
            if arrival is not None:
                latency = now - arrival
                session.stats.latencies_s.append(latency)
                registry.observe(
                    "repro_serving_frame_latency_seconds", latency,
                    help="End-to-end frame latency (arrival to encoded)",
                )
            recon = out.reconstruction
            await self._egress_put(session, _EncodedOut(
                out.frame_index, out.frame_type.value,
                recon.shape[1], recon.shape[0],
                record.bits, psnr, recon, rung=out.rung,
            ))

    async def _egress_put(self, session: _Session, msg: Message,
                          coalesce: bool = True) -> None:
        """Queue an outbound message, coalescing on a slow reader.

        When the egress queue is full and ``coalesce`` is allowed, the
        oldest undelivered ENCODED frame is discarded — the client
        gets the freshest results and the queue never exceeds its
        bound.  Control messages (STATS/BYE) always enqueue.
        """
        registry = get_registry()
        if coalesce:
            while session.egress.full():
                try:
                    stale = session.egress.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - race guard
                    break
                if stale is _BYE_SENTINEL:
                    session.egress.put_nowait(stale)
                    break
                session.stats.dropped_egress += 1
                registry.inc(
                    "repro_serving_frames_dropped_total", reason="egress",
                    help="Frames dropped by the serving layer, by reason",
                )
        await session.egress.put(msg)
        depth = session.egress.qsize()
        if depth > session.stats.peak_egress_depth:
            session.stats.peak_egress_depth = depth
            registry.set_gauge(
                "repro_serving_queue_depth_peak", depth, queue="egress",
                help="Highest per-session queue depth observed",
            )

    async def _egress_loop(self, session: _Session,
                           writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        while True:
            msg = await session.egress.get()
            if msg is _BYE_SENTINEL:
                return
            if type(msg) is _EncodedOut:
                # Arena egress: serialize the reconstruction plane
                # directly into the per-session buffer and hand that
                # to the transport — no tobytes(), no concatenation.
                arena = session.wire_arena
                del arena[:]
                encode_encoded_into(
                    arena, msg.frame_index, frame_type=msg.frame_type,
                    width=msg.width, height=msg.height,
                    bits=msg.bits, psnr=msg.psnr, luma=msg.recon,
                    flags=msg.rung,
                )
                writer.write(arena)
                await writer.drain()
                registry.inc("repro_serving_frames_total", direction="out",
                             help="Frames crossing the wire by direction")
                registry.inc(
                    "repro_serving_bytes_total", msg.recon.nbytes,
                    direction="out",
                    help="Payload bytes crossing the wire by direction",
                )
                continue
            await write_message(writer, msg)
            if isinstance(msg, Encoded):
                registry.inc("repro_serving_frames_total", direction="out",
                             help="Frames crossing the wire by direction")
                registry.inc(
                    "repro_serving_bytes_total", len(msg.luma),
                    direction="out",
                    help="Payload bytes crossing the wire by direction",
                )
