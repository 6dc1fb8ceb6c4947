"""Unit tests for the multi-worker fleet: restart policy, cluster-level
admission, worker config specialization and the fleet metrics digest.

The process-spawning failover paths are exercised end to end by
``make fleet-chaos`` (:mod:`repro.serving.fleet_smoke`) and the slow
integration test at the bottom.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.observability import scoped
from repro.observability.metrics import serving_summary
from repro.policy import compile_policy, parse_policy
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    FleetAdmission,
)
from repro.serving.fleet import (
    FleetConfig,
    RestartPolicy,
    RestartTracker,
    _worker_config,
)
from repro.serving.protocol import Hello
from repro.serving.server import ServeNetConfig

HELLO = Hello(width=64, height=64, fps=24.0, gop=8)


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RestartPolicy(breaker_window_s=0.0)
        with pytest.raises(ValueError):
            RestartPolicy(breaker_threshold=0)

    def test_backoff_doubles_to_cap(self):
        tracker = RestartTracker(RestartPolicy(
            backoff_base_s=0.25, backoff_max_s=1.0,
            breaker_threshold=10, breaker_window_s=100.0,
        ))
        delays = [tracker.record_death(float(i)) for i in range(5)]
        assert delays == [0.25, 0.5, 1.0, 1.0, 1.0]

    def test_breaker_trips_at_threshold(self):
        tracker = RestartTracker(RestartPolicy(
            breaker_threshold=3, breaker_window_s=100.0,
        ))
        assert tracker.record_death(0.0) is not None
        assert tracker.record_death(1.0) is not None
        assert tracker.record_death(2.0) is None  # third in window: open
        assert tracker.deaths_in_window == 3

    def test_window_pruning_forgives_old_deaths(self):
        tracker = RestartTracker(RestartPolicy(
            backoff_base_s=0.25, breaker_threshold=3,
            breaker_window_s=10.0,
        ))
        tracker.record_death(0.0)
        tracker.record_death(1.0)
        # Both earlier deaths have aged out: backoff restarts from base.
        assert tracker.record_death(50.0) == 0.25
        assert tracker.deaths_in_window == 1


class TestFleetAdmission:
    def _fleet(self, workers: int = 2, capacity: float = 8.0,
               park_capacity: int = 2) -> FleetAdmission:
        fleet = FleetAdmission(
            policy=AdmissionPolicy(park_capacity=park_capacity),
        )
        for i in range(workers):
            fleet.register(f"w{i}", capacity)
            fleet.update(f"w{i}", {"capacity_cores": capacity})
        return fleet

    def test_least_loaded_spreads_sessions(self):
        with scoped():
            fleet = self._fleet(workers=2)
            placements = [fleet.place(HELLO)[1] for _ in range(4)]
        # Pending charges alternate the choice: no worker gets all.
        assert set(placements) == {"w0", "w1"}

    def test_prefer_pins_resume_routing(self):
        with scoped():
            fleet = self._fleet(workers=3)
            decision, worker, _ = fleet.place(HELLO, prefer="w2")
        assert decision is AdmissionDecision.ACCEPT
        assert worker == "w2"

    def test_prefer_falls_through_when_dead(self):
        with scoped():
            fleet = self._fleet(workers=2)
            fleet.mark_dead("w1")
            decision, worker, _ = fleet.place(HELLO, prefer="w1")
        assert decision is AdmissionDecision.ACCEPT
        assert worker == "w0"

    def test_gossip_resets_pending_charge(self):
        with scoped():
            fleet = self._fleet(workers=1)
            fleet.place(HELLO)
            assert fleet.workers["w0"].pending_cores > 0
            fleet.update("w0", {"occupancy_cores": 1.0})
        assert fleet.workers["w0"].pending_cores == 0.0
        assert fleet.workers["w0"].occupancy_cores == 1.0

    def test_ladder_charges_whole_ladder_routes_on_primary(self):
        rungs = ((160, 128), (120, 96), (80, 64))
        ladder = Hello(width=160, height=128, fps=24.0, gop=8,
                       ladder=rungs)
        pricer = AdmissionController()
        whole, _, _ = pricer.estimate_ladder(ladder, rungs)
        primary, _, _ = pricer.estimate_ladder(ladder, rungs[:1])
        assert primary < whole
        with scoped():
            # Room for the primary but not the whole ladder: the worker
            # drops low rungs itself, so the fleet still routes to it.
            fleet = self._fleet(workers=1, capacity=(primary + whole) / 2)
            decision, worker, _ = fleet.place(ladder)
            assert (decision, worker) == (AdmissionDecision.ACCEPT, "w0")
            # The pending charge is the whole ladder's price, so the
            # next HELLO inside this heartbeat sees the real headroom.
            assert fleet.workers["w0"].pending_cores == pytest.approx(whole)
        with scoped():
            # A tenant capped at one rung is charged what its worker
            # will admit: the primary alone.
            fleet = self._fleet(workers=1)
            fleet.set_policy(compile_policy(parse_policy({
                "version": 1, "default_tenant": "archive",
                "tenants": [{"name": "archive", "tier": "archival",
                             "weight": 1.0, "max_rungs": 1}],
            })))
            fleet.place(ladder)
            assert fleet.workers["w0"].pending_cores == pytest.approx(
                primary)

    def test_saturated_fleet_parks_then_rejects(self):
        with scoped():
            fleet = self._fleet(workers=2, capacity=1e-9, park_capacity=1)
            decisions = [fleet.place(HELLO)[0] for _ in range(3)]
        # Park capacity scales with live workers: 1 x 2 = 2 parks.
        assert decisions == [
            AdmissionDecision.PARK, AdmissionDecision.PARK,
            AdmissionDecision.REJECT,
        ]

    def test_abandon_park_frees_a_slot(self):
        with scoped():
            fleet = self._fleet(workers=1, capacity=1e-9, park_capacity=1)
            assert fleet.place(HELLO)[0] is AdmissionDecision.PARK
            assert fleet.place(HELLO)[0] is AdmissionDecision.REJECT
            fleet.abandon_park()
            assert fleet.place(HELLO)[0] is AdmissionDecision.PARK

    def test_no_live_workers_rejects(self):
        with scoped():
            fleet = self._fleet(workers=1)
            fleet.mark_dead("w0")
            decision, worker, reason = fleet.place(HELLO)
        assert decision is AdmissionDecision.REJECT
        assert worker is None
        assert "no live workers" in reason

    def test_draining_worker_leaves_rotation(self):
        with scoped():
            fleet = self._fleet(workers=2)
            fleet.update("w0", {"draining": 1.0})
            placements = {fleet.place(HELLO)[1] for _ in range(3)}
        assert placements == {"w1"}


class TestWorkerConfig:
    def _config(self, **kwargs) -> FleetConfig:
        return FleetConfig(
            server=ServeNetConfig(journal_dir="/tmp/j",
                                  admission=AdmissionPolicy(utilization=0.8)),
            **kwargs,
        )

    def test_capacity_split_across_workers(self):
        config = self._config(workers=4)
        worker = _worker_config(config, "w2")
        assert worker.worker_id == "w2"
        assert worker.admission.utilization == pytest.approx(0.2)
        assert worker.lease is True

    def test_router_mode_gives_private_ports(self):
        worker = _worker_config(self._config(workers=2), "w0")
        assert worker.port == 0 and worker.host == "127.0.0.1"
        assert worker.reuse_port is False

    def test_reuseport_mode_binds_public_port(self):
        config = self._config(workers=2, mode="reuseport", port=9470)
        worker = _worker_config(config, "w0")
        assert worker.port == 9470
        assert worker.reuse_port is True

    def test_fleet_requires_journal_dir(self):
        with pytest.raises(ValueError):
            FleetConfig(server=ServeNetConfig())


class TestFleetMetricsDigest:
    def test_pre_fleet_snapshot_digests_with_zero_defaults(self):
        """A PR-5-era metrics file has no fleet families: the summary
        must still carry every fleet key, all zero, no KeyError."""
        snapshot = {"metrics": [{
            "name": "repro_serving_admission_total", "kind": "counter",
            "help": "", "samples": [
                {"labels": {"decision": "accept"}, "value": 3.0},
            ],
        }]}
        summary = serving_summary(snapshot)
        assert summary is not None
        assert summary["sessions_accepted"] == 3.0
        for key in ("sessions_adopted", "lease_conflicts", "worker_deaths",
                    "worker_restarts", "worker_breaker_trips",
                    "fleet_accepted", "fleet_parked", "fleet_rejected"):
            assert summary[key] == 0.0

    def test_non_serving_snapshot_stays_none(self):
        assert serving_summary({"metrics": []}) is None


@pytest.mark.slow
class TestFleetIntegration:
    def test_kill_mid_stream_adopts_and_restarts(self, tmp_path):
        """2-worker fleet, SIGKILL the busiest mid-stream: every session
        finishes, at least one via cross-worker adoption, and the dead
        slot is restarted (the full bit-identity gate is
        ``make fleet-chaos``)."""
        from repro.serving import fleet_smoke

        with scoped():
            report, counters, restarted = asyncio.run(
                fleet_smoke._run_pass(str(tmp_path), kill=True)
            )
        assert report.accepted == fleet_smoke.SESSIONS
        assert report.errored == 0
        assert report.protocol_errors == 0
        assert report.connect_refusals == 0
        assert counters["adopted"] >= 1
        assert counters["deaths"] >= 1
        assert counters["restarts"] >= 1
        assert restarted
