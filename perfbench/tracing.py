"""In-memory span recorder and the layer wrappers of the traced server.

The traced run starts ``repro serve-net`` through ``traced_server.py``,
which calls :func:`install` before the server imports run.  Every
wrapper sits around a public entry point of one layer (a class
attribute, or the name a module imported with ``from ... import``);
nothing under ``src/`` is edited.

Each wrapped call is timed with ``time.perf_counter`` (CLOCK_MONOTONIC
on Linux, so server and client timestamps share one clock).  Calls nest
per thread: a call's *self time* is its duration minus the durations of
the wrapped calls it made.  Coarse layers (one call per frame, GOP,
tile or session) are kept as spans ``(id, parent, name, start, end,
self, request id)``; per-block layers (motion search, native kernels,
LUT lookups) run ~10^3 times per frame, so they only add to per-thread
aggregates and to their parent's child time.  A request id is
``"<session>/f<frame>"`` or ``"<session>/g<gop>"``; nested calls
inherit their parent's.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional

now = time.perf_counter

#: Server session id of the asyncio task (set by the admission wrapper
#: on the connection task; the session's ingest/encode/emit/egress
#: tasks are created after it and inherit a copy).
_SID: contextvars.ContextVar = contextvars.ContextVar("perfbench_sid",
                                                      default=None)


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.agg: Dict[str, list] = {}


class Recorder:
    """Spans, per-layer aggregates, counters and timestamped events."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.events: List[tuple] = []
        self.samples: Dict[str, List[Any]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: Objects owned by a session -> server session id.
        self.owner: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def current_rid(self) -> Optional[str]:
        stack = self._state().stack
        return stack[-1][4] if stack else None

    def in_call(self, name: str) -> bool:
        return any(e[0] == name for e in self._state().stack)

    def count(self, name: str, n: float = 1) -> None:
        agg = self._state().agg
        a = agg.get(name)
        if a is None:
            a = agg[name] = [0, 0.0, 0.0]
        a[0] += n

    def sample(self, name: str, value: Any) -> None:
        # list.append is atomic under the GIL; the dict insert is
        # guarded so two threads never create one series twice.
        series = self.samples.get(name)
        if series is None:
            with self._lock:
                series = self.samples.setdefault(name, [])
        series.append(value)

    def event(self, *fields) -> None:
        self.events.append(fields)

    # -- timed calls -------------------------------------------------------
    def call(self, name: str, fn: Callable, args, kwargs,
             rid: Optional[str] = None, keep: bool = True):
        """Run ``fn`` as one call of layer ``name``; returns
        ``(result, start, end)``."""
        st = self._state()
        stack = st.stack
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        span_id = next(self._ids) if keep else 0
        entry = [name, 0.0, 0.0, span_id, rid]
        stack.append(entry)
        t0 = entry[1] = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = now()
            stack.pop()
            dur = t1 - t0
            self_s = dur - entry[2]
            if parent is not None:
                parent[2] += dur
            a = st.agg.get(name)
            if a is None:
                a = st.agg[name] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += self_s
            if keep:
                self.spans.append((span_id, parent[3] if parent else 0,
                                   name, t0, t1, self_s, rid))
        return result, t0, t1

    def add_span(self, name: str, t0: float, t1: float, self_s: float,
                 rid: Optional[str]) -> None:
        """Record a span measured outside the per-thread stack (the
        coroutine wrappers, whose awaits interleave other tasks)."""
        agg = self._state().agg
        a = agg.get(name)
        if a is None:
            a = agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += t1 - t0
        a[2] += self_s
        self.spans.append((next(self._ids), 0, name, t0, t1, self_s, rid))

    def timed(self, name: str, fn: Callable, keep: bool = True,
              rid_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``; ``rid_of(args, kwargs)`` may name the request."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            return self.call(name, fn, args, kwargs, rid=rid, keep=keep)[0]

        return wrapper

    # -- output ------------------------------------------------------------
    def aggregates(self) -> Dict[str, list]:
        total: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, tot, self_s) in list(st.agg.items()):
                a = total.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += tot
                a[2] += self_s
        return total

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "events": self.events,
                "samples": self.samples,
                "aggregates": self.aggregates(),
            }, fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
#: Modules that call the native kernels through ``from repro import
#: native``; the traced server swaps that name for a counting proxy.
NATIVE_IMPORT_SITES = (
    "repro.codec.encoder",
    "repro.codec.intra",
    "repro.motion.base",
    "repro.motion.proposed",
    "repro.video.scale",
)
#: Pure-Python helpers of ``repro.native`` that are not kernel calls.
_NATIVE_HELPERS = {"scratch", "available"}


class _LibProxy:
    """Stands in for the ``ctypes.CDLL``: each exported function comes
    back wrapped (and cached, so per-tile re-binding stays cheap)."""

    def __init__(self, lib, rec: Recorder):
        self._lib = lib
        self._rec = rec
        self._cache: Dict[str, Callable] = {}

    def __getattr__(self, name: str):
        fn = self._cache.get(name)
        if fn is None:
            fn = self._cache[name] = self._rec.timed(
                "native", getattr(self._lib, name), keep=False)
        return fn


class _NativeProxy:
    """Stands in for the ``repro.native`` module at an import site."""

    def __init__(self, module, rec: Recorder):
        self._module = module
        self._rec = rec
        self._cache: Dict[str, Any] = {}
        self.lib = _LibProxy(module.lib, rec) if module.lib is not None \
            else None

    def __getattr__(self, name: str):
        hit = self._cache.get(name)
        if hit is not None:
            return hit
        attr = getattr(self._module, name)
        if callable(attr) and name not in _NATIVE_HELPERS \
                and not isinstance(attr, type):
            attr = self._rec.timed("native", attr, keep=False)
        self._cache[name] = attr
        return attr


def _wrap_attr(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import importlib

    from repro import analysis, native
    from repro.allocation.proposed import ProposedAllocator
    from repro.analysis import classes
    from repro.analysis.evaluator import ContentEvaluator
    from repro.codec.encoder import FrameEncoder, TileEncoder
    from repro.ladder import planner as ladder_planner
    from repro.ladder import session as ladder_session
    from repro.ladder.session import LadderSession
    from repro.motion.proposed import BioMedicalSearchPolicy
    from repro.platform.cost_model import CostModel
    from repro.platform.mpsoc import XEON_E5_2667
    from repro.serving import recovery, server
    from repro.serving.admission import AdmissionController
    from repro.serving.protocol import FrameMsg
    from repro.serving.recovery import SessionJournal
    from repro.serving.statestore import SharedDirStateStore
    from repro.tiling.content_aware import ContentAwareRetiler
    from repro.transcode.pipeline import (
        ProposedStreamSession,
        StreamTranscoder,
    )
    from repro.workload.lut import WorkloadLut

    # -- native kernels (ctypes entry points, at the import sites) -------
    proxy = _NativeProxy(native, rec)
    for name in NATIVE_IMPORT_SITES:
        importlib.import_module(name).native = proxy

    # -- serving.protocol (server import sites) -----------------------------
    class _TimedReader:
        """Reader proxy: time spent awaiting bytes is not decode time."""

        def __init__(self, reader):
            self._reader = reader
            self.wait_s = 0.0

        async def readexactly(self, n):
            t = now()
            try:
                return await self._reader.readexactly(n)
            finally:
                self.wait_s += now() - t

    orig_read = server.read_message

    @functools.wraps(orig_read)
    async def read_message(reader, *args, **kwargs):
        timed = _TimedReader(reader)
        t0 = now()
        msg = await orig_read(timed, *args, **kwargs)
        t1 = now()
        decode = (t1 - t0) - timed.wait_s
        if isinstance(msg, FrameMsg):
            sid = _SID.get()
            rec.add_span("protocol.decode", t1 - decode, t1, decode,
                         f"{sid}/f{msg.frame_index}")
            rec.event("decoded", sid, msg.frame_index, t1)
        return msg

    server.read_message = read_message

    def rid_encoded(args, kwargs):
        return f"{_SID.get()}/f{args[1]}"

    server.encode_encoded_into = rec.timed(
        "protocol.encode", server.encode_encoded_into, rid_of=rid_encoded)

    # -- serving.admission (+ the session id every later call needs) -------
    def admission(fn, ladder: bool):
        @functools.wraps(fn)
        def decide(self, session_id, hello, *args, **kwargs):
            _SID.set(session_id)
            result = rec.call("admission.decide", fn,
                              (self, session_id, hello) + args, kwargs,
                              rid=f"{session_id}/hello")[0]
            rec.event("decision", session_id, result[0].value,
                      hello.content_class, ladder)
            return result
        return decide

    AdmissionController.decide = admission(AdmissionController.decide, False)
    AdmissionController.decide_ladder = admission(
        AdmissionController.decide_ladder, True)

    # -- allocation ---------------------------------------------------------
    for attr in ("admit", "allocate", "reallocate"):
        _wrap_attr(ProposedAllocator, attr,
                   lambda fn: rec.timed("allocation.allocate", fn))

    # -- workload LUT --------------------------------------------------------
    orig_lookup = WorkloadLut.lookup

    @functools.wraps(orig_lookup)
    def lookup(self, key):
        hist = rec.call("workload.lookup", orig_lookup, (self, key), {},
                        keep=False)[0]
        if hist is not None:
            rec.count("workload.lookup_hits")
        return hist

    WorkloadLut.lookup = lookup

    # -- session ownership (constructors run on the connection task) -------
    def owned(fn):
        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            sid = _SID.get()
            if sid is not None:
                rec.owner[self] = sid
        return init

    StreamTranscoder.__init__ = owned(StreamTranscoder.__init__)
    LadderSession.__init__ = owned(LadderSession.__init__)

    # -- transcode.pipeline / serving.server ingest + egress hand-off -------
    last_index: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def encode_call(fn, name: str, is_push: bool, ladder: bool):
        """``push``/``finish`` of a plain session or of a ladder; a
        plain session running inside a ladder push is one of its rungs."""
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            sid = rec.owner.get(self if ladder else self.transcoder)
            if sid is None:
                sid = _SID.get()
            config = self.base_config if ladder else self.config
            if is_push:
                index = last_index[self] = args[0].index
            else:
                index = last_index.get(self, 0)
            rung = not ladder and rec.in_call("ladder.push")
            rid = None if rung else f"{sid}/g{index // config.gop.size}"
            cpu0 = time.thread_time()
            outputs, t0, t1 = rec.call(name, fn, (self,) + args, kwargs,
                                       rid=rid)
            cpu = time.thread_time() - cpu0
            if outputs and not ladder:
                rec.sample("pipeline.gop", (t1 - t0, cpu, len(outputs)))
            if not rung:
                if is_push:
                    rec.event("consumed", sid, index, t0)
                for out in outputs:
                    rec.event("returned", sid, out.rung, out.frame_index, t1)
            return outputs
        return wrapper

    for cls, name in ((ProposedStreamSession, "pipeline.push"),
                      (LadderSession, "ladder.push")):
        ladder = cls is LadderSession
        cls.push = encode_call(cls.push, name, True, ladder)
        cls.finish = encode_call(cls.finish, name, False, ladder)

    # -- analysis / tiling -----------------------------------------------
    _wrap_attr(ContentEvaluator, "evaluate",
               lambda fn: rec.timed("analysis.evaluate", fn))
    # The classifier's one-off centroid fit extracts features from its
    # training videos: that is not an analysis pass over a session's
    # frames, so it is timed as its own layer and its feature calls are
    # not counted.
    _wrap_attr(classes.ContentClassifier, "fit",
               lambda fn: rec.timed("analysis.fit", fn))
    orig_features = classes.extract_features

    @functools.wraps(orig_features)
    def extract_features(*args, **kwargs):
        if rec.in_call("analysis.fit"):
            return orig_features(*args, **kwargs)
        if rec.in_call("ladder.push"):
            rec.count("ladder.analysis_passes")
        return rec.call("analysis.features", orig_features, args,
                        kwargs)[0]

    # Where it is defined (``classify_frame`` calls it there) and every
    # module that imported the name.
    for module in (classes, analysis, ladder_session, ladder_planner):
        module.extract_features = extract_features
    _wrap_attr(ContentAwareRetiler, "retile",
               lambda fn: rec.timed("tiling.retile", fn))

    # -- ladder ---------------------------------------------------------------
    ladder_session.downscale_frame = rec.timed(
        "ladder.downscale", ladder_session.downscale_frame, keep=False)

    # -- motion -----------------------------------------------------------------
    orig_search = BioMedicalSearchPolicy.search_block

    @functools.wraps(orig_search)
    def search_block(self, *args, **kwargs):
        result = rec.call("motion.search", orig_search, (self,) + args,
                          kwargs, keep=False)[0]
        rec.count("motion.sad_evals", result.sad_evaluations)
        return result

    BioMedicalSearchPolicy.search_block = search_block

    # -- codec (+ the cost model's prediction for each measured tile) ------
    cost_model = CostModel()
    f_max = XEON_E5_2667.f_max
    orig_tile = TileEncoder.encode

    @functools.wraps(orig_tile)
    def tile_encode(self, *args, **kwargs):
        stats, t0, t1 = rec.call("codec.tile", orig_tile, (self,) + args,
                                 kwargs)
        rec.sample("codec.tile_cost", (rec.current_rid(),
                                       cost_model.seconds(stats.ops, f_max),
                                       t1 - t0))
        return stats

    TileEncoder.encode = tile_encode
    _wrap_attr(FrameEncoder, "encode",
               lambda fn: rec.timed("codec.frame", fn))

    # -- serving.recovery / serving.statestore / storage ------------------
    journal_sid: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    orig_append = SessionJournal.append

    @functools.wraps(orig_append)
    def append(self, kind, payload, *args, **kwargs):
        if kind == "admit":
            journal_sid[self] = payload.get("session_id")
        sid = journal_sid.get(self)
        rid = (f"{sid}/g{payload['gop_index']}" if kind == "gop"
               else f"{sid}/{kind}")
        return rec.call("journal.append", orig_append,
                        (self, kind, payload) + args, kwargs, rid=rid)[0]

    SessionJournal.append = append
    _wrap_attr(SharedDirStateStore, "create",
               lambda fn: rec.timed("journal.create", fn))
    _wrap_attr(SharedDirStateStore, "acquire",
               lambda fn: rec.timed("lease.acquire", fn))

    orig_retries = recovery.run_with_retries

    @functools.wraps(orig_retries)
    def run_with_retries(fn, policy=None, on_retry=None, *args, **kwargs):
        def counted(exc):
            rec.count("storage.retries")
            if on_retry is not None:
                on_retry(exc)
        return orig_retries(fn, policy, counted, *args, **kwargs)

    recovery.run_with_retries = run_with_retries
