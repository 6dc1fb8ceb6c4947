"""Serving layer: wire protocol, admission control, streaming
bit-exactness, metrics digest and the bench satellites."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.codec.config import GopConfig
from repro.observability import scoped
from repro.observability.metrics import (
    HistogramValue,
    MetricsRegistry,
    format_metrics,
    serving_summary,
)
from repro.platform.mpsoc import MpsocConfig
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    Bye,
    Encoded,
    ErrorMsg,
    FrameMsg,
    Hello,
    HelloAck,
    MessageDecoder,
    ProtocolError,
    Stats,
    decode_frame,
    encode_encoded_into,
    encode_frame_into,
    encode_message,
)
from repro.resilience.degradation import DegradationLevel
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
_hello = st.builds(
    Hello,
    width=st.integers(1, 4096), height=st.integers(1, 4096),
    fps=st.floats(1.0, 240.0, allow_nan=False),
    num_frames=st.integers(0, 10**6), gop=st.integers(1, 64),
    content_class=st.one_of(st.none(), st.sampled_from(
        [c.value for c in ContentClass])),
    client_id=st.text(max_size=32),
)
_ack = st.builds(
    HelloAck,
    decision=st.sampled_from(["accept", "reject", "park"]),
    session_id=st.integers(0, 2**31 - 1), reason=st.text(max_size=64),
    queue_frames=st.integers(0, 1024),
)


@st.composite
def _frame_msg(draw):
    width = draw(st.integers(1, 48))
    height = draw(st.integers(1, 48))
    luma = draw(st.binary(min_size=width * height, max_size=width * height))
    return FrameMsg(frame_index=draw(st.integers(0, 2**31 - 1)),
                    width=width, height=height, luma=luma)


@st.composite
def _encoded_msg(draw):
    dropped = draw(st.sampled_from(
        [None, "corrupt", "deadline", "backpressure"]))
    if dropped is None:
        width = draw(st.integers(1, 48))
        height = draw(st.integers(1, 48))
        luma = draw(st.binary(min_size=width * height,
                              max_size=width * height))
        ftype = draw(st.sampled_from(["I", "P", "B"]))
    else:
        width = height = 0
        luma = b""
        ftype = ""
    return Encoded(
        frame_index=draw(st.integers(0, 2**31 - 1)), frame_type=ftype,
        dropped=dropped, width=width, height=height,
        bits=draw(st.integers(0, 2**40)),
        psnr=draw(st.floats(0, 120, allow_nan=False)), luma=luma,
    )


_stats = st.builds(Stats, data=st.dictionaries(
    st.text(max_size=16),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=16), st.none()),
    max_size=8,
))
_any_message = st.one_of(
    _hello, _ack, _frame_msg(), _encoded_msg(), _stats,
    st.builds(Bye, reason=st.text(max_size=64)),
    st.builds(ErrorMsg, code=st.text(min_size=1, max_size=16),
              detail=st.text(max_size=64)),
)


class TestProtocolRoundTrip:
    @given(msg=_any_message)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, msg):
        wire = encode_message(msg)
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire)
        assert decoded == msg

    @given(msgs=st.lists(_any_message, min_size=1, max_size=5),
           chunk=st.integers(1, 13))
    @settings(max_examples=50, deadline=None)
    def test_incremental_decoder_reassembles_chunks(self, msgs, chunk):
        wire = b"".join(encode_message(m) for m in msgs)
        decoder = MessageDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            out.extend(decoder.feed(wire[i:i + chunk]))
        assert out == msgs
        assert decoder.pending_bytes == 0


class TestZeroCopyWire:
    """The zero-copy hot path is wire-identical to the object path."""

    @given(msgs=st.lists(_any_message, min_size=1, max_size=4),
           chunk=st.integers(1, 13))
    @settings(max_examples=50, deadline=None)
    def test_memoryview_chunks_match_bytes_feed(self, msgs, chunk):
        """Chunked bytearray/memoryview feeds (the slow path) and one
        whole-``bytes`` feed (the fast path) decode identically."""
        wire = b"".join(encode_message(m) for m in msgs)
        whole = MessageDecoder().feed(wire)
        chunked = MessageDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            out.extend(chunked.feed(memoryview(wire)[i:i + chunk]))
        assert out == whole == msgs
        assert chunked.pending_bytes == 0

    def test_fast_path_luma_is_view_not_copy(self):
        luma = bytes(range(256)) * 4  # 32x32
        wire = encode_message(FrameMsg(frame_index=7, width=32,
                                       height=32, luma=luma))
        (msg,) = MessageDecoder().feed(wire)
        assert isinstance(msg.luma, memoryview)
        assert msg.luma.obj is wire  # slice of the fed buffer
        arr = np.frombuffer(msg.luma, dtype=np.uint8).reshape(32, 32)
        assert not arr.flags.writeable  # immutable backing => zero-copy
        np.testing.assert_array_equal(
            arr, np.frombuffer(luma, dtype=np.uint8).reshape(32, 32))

    @given(frame_index=st.integers(0, 2**31 - 1), width=st.integers(1, 40),
           height=st.integers(1, 40), flags=st.integers(0, 0xFFFF))
    @settings(max_examples=50, deadline=None)
    def test_encode_frame_into_wire_identity(self, frame_index, width,
                                             height, flags):
        rng = np.random.default_rng(frame_index & 0xFFFF)
        plane = rng.integers(0, 256, (height, width), dtype=np.uint8)
        want = encode_message(
            FrameMsg(frame_index=frame_index, width=width, height=height,
                     luma=plane.tobytes()), flags=flags)
        for luma in (plane, plane.tobytes(), memoryview(plane.tobytes())):
            arena = bytearray(b"junk-from-last-message")
            del arena[:]
            n = encode_frame_into(arena, frame_index, width, height,
                                  luma, flags=flags)
            assert n == len(arena) and bytes(arena) == want

    @given(frame_index=st.integers(0, 2**31 - 1),
           frame_type=st.sampled_from(["I", "P", "B"]),
           width=st.integers(1, 40), height=st.integers(1, 40),
           bits=st.integers(0, 2**40),
           psnr=st.floats(0, 120, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_encode_encoded_into_wire_identity(self, frame_index,
                                               frame_type, width, height,
                                               bits, psnr):
        rng = np.random.default_rng(frame_index & 0xFFFF)
        recon = rng.integers(0, 256, (height, width), dtype=np.uint8)
        want = encode_message(Encoded(
            frame_index=frame_index, frame_type=frame_type, dropped=None,
            width=width, height=height, bits=bits, psnr=psnr,
            luma=recon.tobytes()))
        arena = bytearray()
        n = encode_encoded_into(arena, frame_index, frame_type=frame_type,
                                width=width, height=height, bits=bits,
                                psnr=psnr, luma=recon)
        assert n == len(arena) and bytes(arena) == want
        # Arena reuse: a second message in the same buffer is intact.
        del arena[:]
        encode_encoded_into(arena, frame_index, frame_type=frame_type,
                            width=width, height=height, bits=bits,
                            psnr=psnr, luma=recon)
        assert bytes(arena) == want

    def test_encode_into_validates_geometry(self):
        with pytest.raises(ProtocolError):
            encode_frame_into(bytearray(), 0, 4, 4, b"\x00" * 15)
        with pytest.raises(ProtocolError):
            encode_encoded_into(bytearray(), 0, width=4, height=4,
                                bits=0, psnr=0.0, luma=b"\x00" * 15)

    def test_memoryview_fed_session_bitstream_identical(self):
        """Sessions fed read-only socket-buffer views produce the same
        bits, PSNR and reconstructions as sessions fed owned arrays."""
        from repro.video.frame import Frame

        video = generate_video(ContentClass.BONE, width=64, height=64,
                               num_frames=8, seed=9)
        # Round-trip every frame through the wire to get protocol views.
        view_frames = []
        for f in video.frames:
            wire = encode_message(FrameMsg(
                frame_index=f.index, width=64, height=64,
                luma=f.luma.tobytes()))
            (msg,) = MessageDecoder().feed(wire)
            arr = np.frombuffer(msg.luma, dtype=np.uint8).reshape(64, 64)
            assert not arr.flags.writeable
            view_frames.append(Frame(luma=arr, index=f.index))
        config = PipelineConfig(gop=GopConfig(4))
        runs = []
        for frames in (video.frames, view_frames):
            with scoped(), StreamTranscoder(config) as t:
                session = t.open_session()
                outs = []
                for frame in frames:
                    outs.extend(session.push(frame))
                outs.extend(session.finish())
            runs.append(outs)
        owned, viewed = runs
        assert len(owned) == len(viewed) == 8
        for a, b in zip(owned, viewed):
            assert (a.frame_index, a.frame_type, a.dropped) == \
                (b.frame_index, b.frame_type, b.dropped)
            np.testing.assert_array_equal(a.reconstruction,
                                          b.reconstruction)
        assert [t_.bits for o in owned for t_ in o.record.tiles] == \
            [t_.bits for o in viewed for t_ in o.record.tiles]


class TestProtocolRejection:
    def test_truncated_header_is_incomplete_not_error(self):
        wire = encode_message(Bye("x"))
        for cut in range(HEADER_SIZE):
            assert decode_frame(wire[:cut]) == (None, 0)

    def test_truncated_payload_is_incomplete(self):
        wire = encode_message(Bye("x"))
        assert decode_frame(wire[:-1]) == (None, 0)

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(wire))

    def test_unknown_version_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[4] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(wire))

    def test_unknown_type_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[5] = 200
        with pytest.raises(ProtocolError, match="message type"):
            decode_frame(bytes(wire))

    def test_corrupt_payload_fails_checksum(self):
        wire = bytearray(encode_message(Hello(width=64, height=64)))
        wire[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            decode_frame(bytes(wire))

    def test_oversized_length_rejected_before_buffering(self):
        import struct

        header = struct.pack("!4sBBHII", b"RPRV", 1, int(Bye.type), 0,
                             MAX_PAYLOAD + 1, 0)
        with pytest.raises(ProtocolError, match="too large"):
            decode_frame(header)

    def test_frame_luma_length_must_match_geometry(self):
        with pytest.raises(ValueError):
            FrameMsg(frame_index=0, width=4, height=4, luma=b"\0" * 15)

    def test_unknown_decision_rejected(self):
        wire = encode_message(HelloAck(decision="accept"))
        bad = wire[:HEADER_SIZE] + wire[HEADER_SIZE:].replace(
            b"accept", b"maybe!")
        import struct
        import zlib

        payload = bad[HEADER_SIZE:]
        header = struct.pack("!4sBBHII", b"RPRV", 1, int(HelloAck.type), 0,
                             len(payload), zlib.crc32(payload))
        with pytest.raises(ProtocolError, match="decision"):
            decode_frame(header + payload)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _FixedEstimator:
    """Estimator stub pricing every session at a fixed CPU time."""

    def __init__(self, cpu_per_frame: float):
        self.cpu_per_frame = cpu_per_frame

    def estimate(self, key, area):
        return self.cpu_per_frame


def _controller(cpu_per_frame=0.45 / 24.0, **policy_kw):
    # One core; each session needs cpu_per_frame * 24 fps = 0.45 cores,
    # so two sessions fit and the third exceeds the slot cap.
    return AdmissionController(
        estimator=_FixedEstimator(cpu_per_frame),
        platform=MpsocConfig(num_sockets=1, cores_per_socket=1),
        policy=AdmissionPolicy(**policy_kw),
    )


_HELLO = Hello(width=96, height=96, fps=24.0)


class TestAdmission:
    def test_accepts_until_slot_cap_then_parks_then_rejects(self):
        # The reason is sent verbatim in the HELLO_ACK, so the exact
        # text pins plain sessions' wire bytes.
        with scoped():
            ctrl = _controller(park_capacity=1)
            assert ctrl.decide(0, _HELLO) == (
                AdmissionDecision.ACCEPT,
                "estimated 0.45 cores of 1 (0.45 occupied)", ((96, 96),),
            )
            assert ctrl.decide(1, _HELLO)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(2, _HELLO) == (
                AdmissionDecision.PARK,
                "slot cap exceeded: need 0.45 cores, 0.90/1 occupied; "
                "parked", (),
            )
            decision, reason, _ = ctrl.decide(3, _HELLO)
            assert decision is AdmissionDecision.REJECT
            assert "waiting room" in reason
            assert reason == (
                "slot cap exceeded: need 0.45 cores, 0.90/1 occupied; "
                "waiting room full"
            )

    def test_release_frees_capacity_for_unpark(self):
        with scoped():
            ctrl = _controller(park_capacity=1)
            ctrl.decide(0, _HELLO)
            ctrl.decide(1, _HELLO)
            assert ctrl.decide(2, _HELLO)[0] is AdmissionDecision.PARK
            ctrl.release(0)
            assert ctrl.unpark(2, _HELLO)[0] is AdmissionDecision.ACCEPT
            assert ctrl.active_sessions == 2

    def test_rejects_non_positive_fps(self):
        with scoped():
            ctrl = _controller()
            hello = Hello(width=96, height=96, fps=0.0)
            assert ctrl.decide(0, hello)[0] is AdmissionDecision.REJECT

    def test_overload_ladder_escalates_and_lightens(self):
        with scoped():
            ctrl = _controller(park_capacity=0, overload_trip=2)
            ctrl.decide(0, _HELLO)
            ctrl.decide(1, _HELLO)
            assert ctrl.level is DegradationLevel.NONE
            ctrl.decide(2, _HELLO)
            ctrl.decide(3, _HELLO)  # second consecutive reject: trip
            assert ctrl.level is DegradationLevel.QP_BUMP
            assert ctrl.lighten(32, 64) == (34, 64)
            ctrl.decide(4, _HELLO)
            ctrl.decide(5, _HELLO)
            assert ctrl.level is DegradationLevel.WINDOW_SHRINK
            assert ctrl.lighten(32, 64) == (34, 32)
            # Never past the configured ceiling.
            ctrl.decide(6, _HELLO)
            ctrl.decide(7, _HELLO)
            assert ctrl.level is DegradationLevel.WINDOW_SHRINK

    def test_relief_walks_ladder_down(self):
        with scoped():
            ctrl = _controller(park_capacity=0, overload_trip=1)
            ctrl.decide(0, _HELLO)
            ctrl.decide(1, _HELLO)
            ctrl.decide(2, _HELLO)  # reject -> QP_BUMP
            assert ctrl.level is DegradationLevel.QP_BUMP
            ctrl.release(0)
            ctrl.release(1)
            ctrl.decide(3, _HELLO)  # accept at low occupancy -> relief
            assert ctrl.level is DegradationLevel.NONE

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(utilization=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(park_capacity=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(overload_trip=0)


# ----------------------------------------------------------------------
# Online session bit-exactness
# ----------------------------------------------------------------------
class TestStreamingSession:
    def test_pushes_match_offline_run(self):
        video = generate_video(ContentClass.BONE, width=64, height=64,
                               num_frames=12, seed=3)
        config = PipelineConfig(gop=GopConfig(4))
        with scoped():
            with StreamTranscoder(config) as t:
                offline = t.run(video)
        with scoped():
            with StreamTranscoder(config) as t:
                session = t.open_session()
                outputs = []
                for frame in video.frames:
                    outputs.extend(session.push(frame))
                outputs.extend(session.finish())
                online = session.trace
        assert len(online.gops) == len(offline.gops)
        for g_on, g_off in zip(online.gops, offline.gops):
            assert [f.frame_type for f in g_on.frames] == \
                [f.frame_type for f in g_off.frames]
            assert [t_.bits for f in g_on.frames for t_ in f.tiles] == \
                [t_.bits for f in g_off.frames for t_ in f.tiles]
            assert [t_.psnr for f in g_on.frames for t_ in f.tiles] == \
                [t_.psnr for f in g_off.frames for t_ in f.tiles]
        assert online.dropped_frames == offline.dropped_frames
        encoded = [o for o in outputs if o.dropped is None]
        assert len(encoded) == len(video)
        for out in encoded:
            assert out.reconstruction.dtype == np.uint8
            assert out.reconstruction.shape == (64, 64)

    def test_push_returns_outputs_per_gop(self):
        video = generate_video(ContentClass.BRAIN, width=64, height=64,
                               num_frames=6, seed=1)
        with scoped(), StreamTranscoder(
                PipelineConfig(gop=GopConfig(4))) as t:
            session = t.open_session()
            sizes = [len(session.push(f)) for f in video.frames]
            tail = session.finish()
        assert sizes == [0, 0, 0, 4, 0, 0]
        assert len(tail) == 2

    def test_open_session_requires_proposed_mode(self):
        with StreamTranscoder(PipelineConfig.khan()) as t:
            with pytest.raises(ValueError):
                t.open_session()


# ----------------------------------------------------------------------
# Metrics digest
# ----------------------------------------------------------------------
class TestServingMetricsSection:
    def test_histogram_quantile(self):
        hist = HistogramValue(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 4.0
        q50 = hist.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        assert HistogramValue().quantile(0.5) is None
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def _snapshot(self):
        reg = MetricsRegistry()
        reg.inc("repro_serving_admission_total", 3, decision="accept")
        reg.inc("repro_serving_admission_total", 1, decision="reject")
        reg.inc("repro_serving_frames_encoded_total", 40)
        reg.inc("repro_serving_deadline_miss_total", 4)
        reg.inc("repro_serving_frames_dropped_total", 2,
                reason="backpressure")
        for v in (0.01, 0.02, 0.03, 0.2):
            reg.observe("repro_serving_frame_latency_seconds", v)
        return reg.to_dict()

    def test_serving_summary_digest(self):
        summary = serving_summary(self._snapshot())
        assert summary["sessions_accepted"] == 3
        assert summary["sessions_rejected"] == 1
        assert summary["frames_dropped"] == 2
        assert summary["deadline_miss_rate"] == pytest.approx(0.1)
        assert summary["latency_p50_s"] is not None
        assert summary["latency_p95_s"] >= summary["latency_p50_s"]

    def test_serving_summary_absent_without_serving_metrics(self):
        reg = MetricsRegistry()
        reg.inc("repro_frames_total", 5)
        assert serving_summary(reg.to_dict()) is None
        assert "serving" not in format_metrics(reg.to_dict())

    def test_format_metrics_renders_serving_section(self):
        text = format_metrics(self._snapshot())
        assert "serving" in text
        assert "accepted 3" in text
        assert "p95" in text
        assert "deadline miss: 4 (10.0%)" in text


# ----------------------------------------------------------------------
# Bench satellites
# ----------------------------------------------------------------------
class TestBenchOutputs:
    def test_next_bench_path_ignores_non_numeric_suffixes(self, tmp_path):
        for name in ("BENCH_0.json", "BENCH_2.json", "BENCH_x.json",
                     "BENCH_1_old.json", "BENCH_03b.json", "BENCH_.json"):
            (tmp_path / name).write_text("{}")
        assert bench.next_bench_path(tmp_path).name == "BENCH_1.json"

    def test_next_bench_path_empty_dir(self, tmp_path):
        assert bench.next_bench_path(tmp_path).name == "BENCH_0.json"

    def test_git_sha_of_this_repo(self):
        sha = bench.git_sha()
        assert sha is not None and len(sha) == 40
        int(sha, 16)

    def test_git_sha_outside_git(self, tmp_path):
        assert bench.git_sha(tmp_path) is None

    def test_summarize_records_git_sha(self):
        summary = bench.summarize({"benchmarks": []}, ["codec"])
        assert summary["git_sha"] == bench.git_sha()
        assert summary["benchmarks"] == []

    def test_main_refuses_to_overwrite(self, tmp_path, capsys):
        out = tmp_path / "BENCH_7.json"
        out.write_text(json.dumps({"keep": True}))
        with pytest.raises(SystemExit):
            bench.main(["--groups", "codec", "--out", str(out)])
        assert json.loads(out.read_text()) == {"keep": True}
