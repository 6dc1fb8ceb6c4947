"""Tenant policy subsystem: document validation, compilation,
energy-budgeted brownout, hot reload, admission gates and the wire
compatibility of the HELLO ``tenant`` key."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import scoped
from repro.platform.mpsoc import GHZ, MpsocConfig, XEON_E5_2667
from repro.policy import (
    EnergyBudgetScheduler,
    EnergyLedger,
    PolicyError,
    PolicyManager,
    compile_policy,
    load_policy_file,
    parse_policy,
    plan_change,
)
from repro.policy import smoke as policy_smoke
from repro.resilience.degradation import DegradationLevel, ResilienceConfig
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import Hello, MessageDecoder, encode_message


def _doc(**overrides) -> dict:
    doc = {
        "version": 1,
        "power_cap_w": 100.0,
        "energy_window_s": 1.0,
        "default_tenant": "clinic",
        "brownout": {"readmit_fraction": 0.5, "readmit_after_checks": 2},
        "tenants": [
            {"name": "er", "tier": "emergency", "weight": 3.0,
             "min_psnr_db": 37.0, "max_deadline_miss_rate": 0.02},
            {"name": "clinic", "tier": "urgent", "weight": 2.0,
             "min_psnr_db": 31.0},
            {"name": "archive", "tier": "archival", "weight": 1.0,
             "max_rungs": 1, "power_budget_w": 20.0},
        ],
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# Document validation
# ----------------------------------------------------------------------
class TestDocument:
    def test_valid_document_parses(self):
        doc = parse_policy(_doc(), source="<test>")
        assert doc.default_tenant == "clinic"
        assert [t.name for t in doc.tenants] == ["er", "clinic", "archive"]
        assert doc.tenant("archive").power_budget_w == 20.0

    def test_bad_tier_names_path_and_choices(self):
        bad = _doc()
        bad["tenants"][0]["tier"] = "critical"
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad, source="pol.yaml")
        msg = str(exc.value)
        assert "tenants[0].tier" in msg
        assert "'critical'" in msg
        assert "emergency" in msg          # the accepted tiers are listed
        assert msg.startswith("pol.yaml:")

    def test_negative_budget_rejected_with_path(self):
        bad = _doc()
        bad["tenants"][2]["power_budget_w"] = -5
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad)
        assert "tenants[2].power_budget_w" in str(exc.value)
        assert ">= 0" in str(exc.value)

    def test_unknown_default_tenant_reference(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(default_tenant="ghost"))
        msg = str(exc.value)
        assert "default_tenant" in msg
        assert "'ghost'" in msg
        assert "er, clinic, archive" in msg  # declared tenants listed

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(power_cap="100"))
        assert "did you mean 'power_cap_w'" in str(exc.value)

    def test_duplicate_tenant_names_point_at_first(self):
        bad = _doc()
        bad["tenants"].append({"name": "er", "tier": "routine"})
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad)
        assert "tenants[3].name" in str(exc.value)
        assert "tenants[0]" in str(exc.value)

    def test_zero_weight_rejected(self):
        bad = _doc()
        bad["tenants"][1]["weight"] = 0
        with pytest.raises(PolicyError, match="tenants\\[1\\].weight"):
            parse_policy(bad)

    def test_unsupported_version(self):
        with pytest.raises(PolicyError, match="version"):
            parse_policy(_doc(version=2))

    def test_dvfs_inverted_bounds(self):
        with pytest.raises(PolicyError, match="min_ghz"):
            parse_policy(_doc(dvfs={"min_ghz": 3.6, "max_ghz": 2.9}))

    def test_empty_tenants_rejected(self):
        with pytest.raises(PolicyError, match="tenants"):
            parse_policy(_doc(tenants=[]))

    def test_json_file_with_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n  "tenants": [}')
        with pytest.raises(PolicyError) as exc:
            load_policy_file(str(path))
        assert "line 2" in str(exc.value)

    def test_yaml_file_round_trips(self, tmp_path):
        path = tmp_path / "pol.yaml"
        path.write_text(json.dumps(_doc()))  # JSON is a YAML subset
        doc = load_policy_file(str(path))
        assert doc.source == str(path)
        assert len(doc.tenants) == 3


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class TestCompiler:
    def test_capacity_fractions_normalize(self):
        policy = compile_policy(parse_policy(_doc()))
        fractions = {n: rt.capacity_fraction
                     for n, rt in policy.tenants.items()}
        assert fractions == pytest.approx(
            {"er": 0.5, "clinic": 2 / 6, "archive": 1 / 6}
        )
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_shed_order_reverse_priority_excludes_top_tier(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.shed_order == ("archive", "clinic")
        assert policy.tenants["er"].shed_rank is None

    def test_psnr_floor_caps_degradation_ladder(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.tenants["er"].max_level is DegradationLevel.NONE
        assert policy.tenants["clinic"].max_level is (
            DegradationLevel.QP_BUMP
        )
        assert policy.tenants["archive"].max_level is (
            DegradationLevel.FRAME_DROP
        )

    def test_miss_rate_drives_escalation(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.tenants["er"].escalate_after == 1
        assert policy.tenants["clinic"].escalate_after == 2

    def test_resolve_falls_through_to_default(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.resolve_name("") == "clinic"
        assert policy.resolve_name("never-heard-of-it") == "clinic"
        assert policy.resolve_name("er") == "er"

    def test_resilience_for_bounds_base_config(self):
        policy = compile_policy(parse_policy(_doc()))
        base = ResilienceConfig(max_level=DegradationLevel.FRAME_DROP,
                                escalate_after=3)
        bounded = policy.resilience_for("er", base)
        assert bounded.max_level is DegradationLevel.NONE
        assert bounded.escalate_after == 1
        assert policy.resilience_for("er", None) is None

    def test_clamp_platform_filters_frequencies(self):
        policy = compile_policy(parse_policy(_doc(dvfs={"max_ghz": 3.3})))
        clamped = policy.clamp_platform(XEON_E5_2667)
        assert clamped.f_max == 3.2 * GHZ
        assert 3.6 * GHZ not in clamped.frequencies_hz

    def test_clamp_platform_impossible_bounds_raise(self):
        policy = compile_policy(parse_policy(_doc(dvfs={"max_ghz": 1.0})))
        with pytest.raises(PolicyError, match="no platform frequency"):
            policy.clamp_platform(XEON_E5_2667)


# ----------------------------------------------------------------------
# Energy ledger + brownout scheduler
# ----------------------------------------------------------------------
class TestEnergyLedger:
    def test_windowed_power_is_energy_over_window(self):
        ledger = EnergyLedger(window_s=2.0)
        ledger.record(0.0, 10.0)
        ledger.record(1.0, 10.0)
        assert ledger.windowed_power(1.0) == pytest.approx(10.0)

    def test_slot_grid_boundary_expires_exactly(self):
        # Entries land on a 1/FPS grid; float subtraction of the window
        # must not keep an extra slot alive (that inflates power 1.5x).
        fps, window = 10.0, 0.2
        ledger = EnergyLedger(window_s=window)
        for slot in range(5):
            ledger.record((slot + 1) / fps, 1.0)
        # At now=0.5 the window [0.3, 0.5] holds exactly two entries.
        assert ledger.windowed_energy(0.5) == pytest.approx(2.0)

    def test_negative_energy_and_bad_window_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger(window_s=0.0)
        with pytest.raises(ValueError):
            EnergyLedger(window_s=1.0).record(0.0, -1.0)

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 5.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_windowed_energy_never_exceeds_total(self, entries):
        ledger = EnergyLedger(window_s=1.0)
        now = 0.0
        for dt, energy in entries:
            now += dt
            ledger.record(now, energy)
        assert 0.0 <= ledger.windowed_energy(now) <= ledger.total_j + 1e-9


class TestBrownout:
    def _scheduler(self, **overrides) -> EnergyBudgetScheduler:
        return EnergyBudgetScheduler(
            compile_policy(parse_policy(_doc(**overrides)))
        )

    def test_sheds_in_strict_reverse_priority_order(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)     # 500 W >> 100 W cap
            assert [e.kind for e in sched.check(1.0)] == ["shed"]
            assert sched.shed_tenants == ("archive",)
            sched.observe(1.1, 500.0)
            sched.check(1.1)
            assert sched.shed_tenants == ("archive", "clinic")
            assert not sched.serves("archive")
            assert sched.serves("er")

    def test_emergency_never_shed_cap_violation_counted(self):
        with scoped():
            sched = self._scheduler()
            for i in range(5):
                sched.observe(1.0 + i / 10, 500.0)
                sched.check(1.0 + i / 10)
            assert sched.shed_tenants == ("archive", "clinic")
            assert sched.serves("er")
            assert sched.cap_violations >= 1

    def test_hysteretic_readmission_reverse_order(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            sched.observe(1.1, 500.0)
            sched.check(1.1)
            assert sched.shed_tenants == ("archive", "clinic")
            # Window drains; below cap but above the readmit threshold
            # (50 W): nothing comes back.
            sched.observe(3.0, 60.0)
            assert sched.check(3.0) == []
            # Below the threshold: needs 2 consecutive clear checks.
            assert sched.check(5.0) == []
            events = sched.check(5.1)
            assert [(e.kind, e.tenant) for e in events] == [
                ("readmit", "clinic")
            ]
            sched.check(5.2)
            events = sched.check(5.3)
            assert [(e.kind, e.tenant) for e in events] == [
                ("readmit", "archive")
            ]
            assert sched.shed_tenants == ()

    def test_shed_tenant_admission_refused(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            ok, reason = sched.admits("archive")
            assert not ok and "brownout" in reason
            assert sched.admits("er") == (True, "")

    def test_per_tenant_budget_throttles_only_that_tenant(self):
        with scoped():
            sched = self._scheduler(power_cap_w=None)
            # archive's 20 W budget, exceeded by archive's own draw.
            sched.observe(1.0, 100.0, tenant="archive")
            events = sched.check(1.0)
            assert [(e.kind, e.tenant) for e in events] == [
                ("throttle", "archive")
            ]
            ok, reason = sched.admits("archive")
            assert not ok and "20 W" in reason
            assert sched.admits("clinic") == (True, "")
            assert sched.serves("archive")  # throttle gates admission only
            # Drained below 50% of budget for 2 checks: unthrottles.
            sched.check(3.0)
            events = sched.check(3.1)
            assert [(e.kind, e.tenant) for e in events] == [
                ("unthrottle", "archive")
            ]


# ----------------------------------------------------------------------
# Manager: versioned plan/apply + hot reload
# ----------------------------------------------------------------------
class TestManager:
    def test_initial_load_is_strict(self, tmp_path):
        path = tmp_path / "pol.json"
        path.write_text('{"tenants": []}')
        with pytest.raises(PolicyError):
            PolicyManager(str(path))

    def test_plan_apply_bumps_revision(self, tmp_path):
        with scoped():
            path = tmp_path / "pol.json"
            path.write_text(json.dumps(_doc()))
            manager = PolicyManager(str(path))
            assert manager.revision == 1
            seen = []
            manager.on_apply(
                lambda policy, plan, rev: seen.append((rev, plan))
            )
            new = compile_policy(parse_policy(_doc(power_cap_w=50.0)))
            assert "power_cap_w" in manager.plan(new).summary()
            applied = manager.apply(new)
            assert "power_cap_w" in applied.summary()
            assert manager.revision == 2
            assert seen and seen[0][0] == 2

    def test_reload_error_keeps_active_policy(self, tmp_path):
        import os
        with scoped():
            path = tmp_path / "pol.json"
            path.write_text(json.dumps(_doc()))
            manager = PolicyManager(str(path))
            active = manager.active
            path.write_text("{broken")
            os.utime(path, (1e9, 4e9))  # force an mtime change
            assert manager.maybe_reload() is None
            assert manager.reload_errors == 1
            assert manager.last_error is not None
            assert manager.active is active

    def test_reload_applies_changed_file(self, tmp_path):
        import os
        with scoped():
            path = tmp_path / "pol.json"
            path.write_text(json.dumps(_doc()))
            manager = PolicyManager(str(path))
            path.write_text(json.dumps(_doc(power_cap_w=60.0)))
            os.utime(path, (1e9, 4e9))
            plan = manager.maybe_reload()
            assert plan is not None and not plan.empty
            assert manager.active.power_cap_w == 60.0
            assert manager.revision == 2

    def test_plan_change_no_diff_is_empty(self):
        policy = compile_policy(parse_policy(_doc()))
        again = compile_policy(parse_policy(_doc()))
        assert plan_change(policy, again).empty


# ----------------------------------------------------------------------
# Admission integration
# ----------------------------------------------------------------------
class _FixedEstimator:
    def __init__(self, cpu_per_frame: float):
        self.cpu_per_frame = cpu_per_frame

    def estimate(self, key, area):
        return self.cpu_per_frame


def _policy_controller(**policy_overrides):
    # 2-core platform; each session needs 0.45 cores.  clinic holds
    # 2/6 of capacity = 0.67 cores -> exactly one session fits its
    # entitlement; er holds 1.0 core -> two sessions fit.
    ctrl = AdmissionController(
        estimator=_FixedEstimator(0.45 / 24.0),
        platform=MpsocConfig(num_sockets=1, cores_per_socket=2),
        policy=AdmissionPolicy(park_capacity=1),
    )
    ctrl.set_policy(compile_policy(parse_policy(_doc(**policy_overrides))))
    return ctrl


class TestAdmissionGates:
    def test_entitlement_parks_then_rejects_within_tenant(self):
        with scoped():
            ctrl = _policy_controller()
            hello = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            assert ctrl.decide(0, hello)[0] is AdmissionDecision.ACCEPT
            decision, reason, _ = ctrl.decide(1, hello)
            assert decision is AdmissionDecision.PARK
            assert reason == (
                "tenant 'clinic' entitlement exceeded: need 0.45 cores, "
                "0.45/0.67 entitled cores occupied; parked"
            )
            decision, reason, _ = ctrl.decide(2, hello)
            assert decision is AdmissionDecision.REJECT
            assert "entitlement" in reason

    def test_ladder_refused_by_entitlement_is_not_overload(self):
        # A ladder whose primary rung alone exceeds the tenant's
        # entitlement is deferred for the entitlement, like a plain
        # HELLO.  Counting it as slot-cap overload would climb the
        # server-level ladder and lighten every tenant's new sessions.
        with scoped() as (registry, _):
            ctrl = _policy_controller()
            plain = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            ladder = Hello(width=96, height=96, fps=24.0, tenant="clinic",
                           ladder=((96, 96), (48, 48)))
            assert ctrl.decide(0, plain)[0] is AdmissionDecision.ACCEPT
            outcomes = [ctrl.decide_ladder(sid, ladder) for sid in (1, 2, 3)]
            assert [d for d, _, _ in outcomes] == [
                AdmissionDecision.PARK, AdmissionDecision.REJECT,
                AdmissionDecision.REJECT,
            ]
            for _, reason, kept in outcomes:
                assert "entitlement" in reason
                assert kept == ()
            assert registry.value("repro_serving_tenant_entitlement_total",
                                  tenant="clinic") == 3
            assert ctrl.level is DegradationLevel.NONE

    def test_other_tenant_unaffected_by_full_neighbour(self):
        with scoped():
            ctrl = _policy_controller()
            clinic = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            er = Hello(width=96, height=96, fps=24.0, tenant="er")
            assert ctrl.decide(0, clinic)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(1, er)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(2, er)[0] is AdmissionDecision.ACCEPT

    def test_release_frees_entitlement(self):
        with scoped():
            ctrl = _policy_controller()
            hello = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            assert ctrl.decide(0, hello)[0] is AdmissionDecision.ACCEPT
            ctrl.release(0)
            assert ctrl.decide(1, hello)[0] is AdmissionDecision.ACCEPT

    def test_tenant_occupancies_fold_by_resolved_name(self):
        with scoped():
            ctrl = _policy_controller()
            ctrl.decide(0, Hello(width=96, height=96, fps=24.0,
                                 tenant="er"))
            ctrl.decide(1, Hello(width=96, height=96, fps=24.0))
            occ = ctrl.tenant_occupancies()
            assert occ["er"] == pytest.approx(0.45)
            assert occ["clinic"] == pytest.approx(0.45)  # default tenant

    def test_energy_gate_rejects_shed_tenant(self):
        with scoped():
            ctrl = _policy_controller()
            sched = EnergyBudgetScheduler(ctrl.compiled)
            ctrl.set_policy(ctrl.compiled, energy=sched)
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            decision, reason, _ = ctrl.decide(
                0, Hello(width=96, height=96, fps=24.0, tenant="archive")
            )
            assert decision is AdmissionDecision.REJECT
            assert "brownout" in reason

    def test_lighten_respects_tenant_ladder_cap(self):
        with scoped():
            ctrl = _policy_controller()
            # Push the global ladder to FRAME_DROP.
            for _ in range(10):
                ctrl._observe_overload()
            assert ctrl.level is not DegradationLevel.NONE
            qp_er, _ = ctrl.lighten(32, 64, tenant="er")
            assert qp_er == 32  # er is capped at NONE: untouched
            qp_arch, _ = ctrl.lighten(32, 64, tenant="archive")
            assert qp_arch > 32


# ----------------------------------------------------------------------
# Wire compatibility
# ----------------------------------------------------------------------
class TestHelloTenantWire:
    def test_round_trip(self):
        hello = Hello(width=64, height=64, tenant="er")
        msgs = MessageDecoder().feed(bytes(encode_message(hello)))
        assert len(msgs) == 1
        assert isinstance(msgs[0], Hello) and msgs[0].tenant == "er"

    def test_empty_tenant_omitted_from_payload(self):
        # Pre-policy peers never sent the key; we must not start —
        # the no-policy wire bytes stay identical to PR 8's.
        payload = json.loads(Hello(width=64, height=64).payload())
        assert "tenant" not in payload

    def test_old_peer_payload_defaults_to_empty(self):
        old = Hello(width=64, height=64).payload()  # lacks the key
        assert Hello.from_payload(0, old).tenant == ""


# ----------------------------------------------------------------------
# The brownout drill
# ----------------------------------------------------------------------
class TestPolicySmoke:
    def test_drill_passes_against_golden(self, capsys):
        assert policy_smoke.run() == 0
        out = capsys.readouterr().out
        assert "policy-smoke OK" in out

    def test_drill_is_deterministic(self):
        first = policy_smoke._stream_demands()
        second = policy_smoke._stream_demands()
        assert {
            t: [d.total_cpu_time_fmax for d in ds]
            for t, ds in first.items()
        } == {
            t: [d.total_cpu_time_fmax for d in ds]
            for t, ds in second.items()
        }
