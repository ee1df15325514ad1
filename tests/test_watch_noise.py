"""Noise-hardened telemetry: channel model, reconciliation, grading.

Pins the degraded-telemetry acceptance surface:

* the noise-spec grammar parses, validates, and round-trips;
* the channel is a deterministic pure function of (spec, seed, stream)
  and passthrough kinds consume no randomness;
* StreamState survives duplicates and jitter reordering, and reconciles
  phantom flows against the heartbeat's authoritative active count;
* clean runs raise zero anomalies at every benchmark noise level;
* live detection equals offline replay through an identically seeded
  channel, bit for bit;
* fault-set grading scores per-fault precision/recall/latency.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.watch import (
    NoiseSpec,
    NoiseSpecError,
    SMOKE_PARADIGMS,
    StreamState,
    TelemetryChannel,
    WatchConfig,
    WatchLoop,
    build_scenarios,
    grade_fault_sets,
    noise_hardened_config,
    parse_noise_spec,
    run_scenario,
    scenario_seed,
)

#: Mirrors benchmarks/bench_aiops_noise.py NOISE_LEVELS: the clean-run
#: silence guarantee must hold at every level the benchmark sweeps.
NOISE_LEVELS = (
    None,
    "sample=2,drop=0.02",
    "sample=4,drop=0.1",
    "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01",
)


def _scenario(paradigm, kind):
    (match,) = [
        s
        for s in build_scenarios((paradigm,), (kind,))
        if s.name == f"{paradigm}/{kind}"
    ]
    return match


class TestNoiseSpecGrammar:
    def test_full_spec_parses_and_round_trips(self):
        spec = parse_noise_spec(
            "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01,seed=7"
        )
        assert spec == NoiseSpec(
            sample=4, drop=0.1, burst=0.02, burst_len=5,
            delay=0.001, dup=0.01, seed=7,
        )
        assert parse_noise_spec(spec.describe()) == spec

    @pytest.mark.parametrize("text", [None, "", "off"])
    def test_off_is_the_identity_channel(self, text):
        spec = parse_noise_spec(text)
        assert spec.is_noop
        assert spec.describe() == "off"

    def test_seed_argument_overrides_spec_seed(self):
        assert parse_noise_spec("drop=0.1,seed=3", seed=9).seed == 9

    def test_burst_without_length_keeps_default(self):
        spec = parse_noise_spec("burst=0.1")
        assert spec.burst == 0.1 and spec.burst_len == 4

    @pytest.mark.parametrize(
        "text",
        ["jitter=0.1", "drop", "drop=lots", "sample=0", "drop=1.5",
         "delay=-1", "burst=0.1x0"],
    )
    def test_bad_specs_raise(self, text):
        with pytest.raises(NoiseSpecError):
            parse_noise_spec(text)

    def test_spec_error_is_a_value_error(self):
        assert issubclass(NoiseSpecError, ValueError)


def _telemetry(n=200):
    """A synthetic degradable stream: samples, rates, lifecycle."""
    events = []
    for i in range(n):
        t = i * 0.01
        events.append(
            {"ev": "link_sample", "t": t, "links": {"a->b": 0.5},
             "caps": {"a->b": 100.0}}
        )
        if i % 4 == 0:
            events.append({"ev": "flow_rates", "t": t, "rates": {i: 1.0}})
        if i % 10 == 0:
            events.append(
                {"ev": "flow_finished", "t": t, "flow_id": i, "job": "j",
                 "group": "g", "size": 1.0}
            )
    return events


def _deliveries(channel, events):
    out = []
    channel.subscribe(out.append)
    for event in events:
        channel.send(event)
    channel.flush()
    return out


class TestChannelDeterminism:
    SPEC = "sample=2,drop=0.2,burst=0.05x3,dup=0.1"

    def test_same_seed_same_degraded_stream(self):
        events = _telemetry()
        a = _deliveries(TelemetryChannel(self.SPEC, seed=42), events)
        b = _deliveries(TelemetryChannel(self.SPEC, seed=42), events)
        assert a == b

    def test_different_seed_differs(self):
        events = _telemetry()
        a = _deliveries(TelemetryChannel(self.SPEC, seed=0), events)
        b = _deliveries(TelemetryChannel(self.SPEC, seed=1), events)
        assert a != b

    def test_passthrough_spends_no_randomness(self):
        # Interleaving passthrough records (heartbeats, the loop's own
        # anomaly appends, fault markers) must not shift any drop/dup
        # decision -- that is what keeps live and replay RNG-aligned.
        events = _telemetry()
        noisy = []
        for i, event in enumerate(events):
            noisy.append(event)
            if i % 5 == 0:
                noisy.append(
                    {"ev": "watch_heartbeat", "t": event["t"], "beat": i}
                )
            if i % 7 == 0:
                noisy.append({"ev": "anomaly", "t": event["t"]})
        base = _deliveries(TelemetryChannel(self.SPEC, seed=9), events)
        mixed = _deliveries(TelemetryChannel(self.SPEC, seed=9), noisy)
        assert [e for e in mixed if e["ev"] not in
                ("watch_heartbeat", "anomaly")] == base
        # Every passthrough record was delivered, none degraded.
        assert sum(1 for e in mixed if e["ev"] == "watch_heartbeat") == sum(
            1 for e in noisy if e["ev"] == "watch_heartbeat"
        )

    def test_seed_swap_keeps_every_other_field(self):
        fields = dict(
            sample=4, drop=0.1, burst=0.02, burst_len=5,
            delay=0.001, dup=0.01, seed=7,
        )
        # Every field differs from its default, so a field the swap
        # dropped would read back as its default.
        assert sorted(fields) == sorted(
            f.name for f in dataclasses.fields(NoiseSpec)
        )
        assert all(
            fields[f.name] != f.default for f in dataclasses.fields(NoiseSpec)
        )
        spec = NoiseSpec(**fields)
        assert TelemetryChannel(spec, seed=11).spec == NoiseSpec(
            **{**fields, "seed": 11}
        )
        assert TelemetryChannel(spec).spec is spec

    def test_sampler_is_a_deterministic_counter(self):
        channel = TelemetryChannel("sample=3")
        events = [
            {"ev": "link_sample", "t": i * 1.0, "links": {}, "caps": {}, "i": i}
            for i in range(9)
        ]
        # Non-sampled kinds are untouched by the sampler.
        events.append({"ev": "flow_injected", "t": 9.0, "flow_id": 1})
        delivered = _deliveries(channel, events)
        assert [e.get("i") for e in delivered] == [0, 3, 6, None]
        assert channel.stats["sampled_out"] == 6

    def test_jitter_reordering_is_bounded_by_delay(self):
        spec = parse_noise_spec("delay=0.25")
        channel = TelemetryChannel(spec, seed=5)
        delivered = _deliveries(channel, _telemetry(400))
        assert channel.stats["delayed"] > 0
        assert channel.pending == 0
        # Nothing is ever delivered more than `delay` after an event
        # that originated later: the running max never leads by more.
        lead = 0.0
        for event in delivered:
            lead = max(lead, event["t"])
            assert lead - event["t"] <= spec.delay + 1e-12
        # Lossless spec: everything sent is eventually delivered.
        assert channel.stats["delivered"] == channel.stats["seen"]

    def test_stats_account_for_every_event(self):
        channel = TelemetryChannel(self.SPEC, seed=3)
        _deliveries(channel, _telemetry())
        stats = channel.stats
        unique_degraded = (
            stats["delivered"] - stats["passthrough"] - stats["duplicated"]
        )
        assert stats["seen"] == (
            stats["passthrough"] + stats["sampled_out"] + stats["dropped"]
            + stats["dropped_burst"] + unique_degraded
        )
        assert channel.report()["spec"] == channel.spec.describe()


class TestNoiseHardenedConfig:
    def test_clean_channel_keeps_the_defaults(self):
        assert noise_hardened_config(None) == WatchConfig()
        assert noise_hardened_config(parse_noise_spec("off")) == WatchConfig()

    def test_lossy_channel_widens_quiet_stints(self):
        config = noise_hardened_config(parse_noise_spec("sample=4,drop=0.1"))
        assert config.quiet_margin > 1.0
        assert config.quiet_slack > 0.0
        # Sampling alone neither delays nor duplicates.
        assert config.capacity_confirm == WatchConfig().capacity_confirm

    def test_duplicating_channel_requires_confirmation(self):
        for text in ("dup=0.05", "delay=0.01"):
            config = noise_hardened_config(parse_noise_spec(text))
            assert config.capacity_confirm >= 2


class TestStreamStateNoise:
    def test_duplicate_lifecycle_events_fold_once(self):
        state = StreamState()
        inject = {
            "ev": "flow_injected", "t": 0.0, "flow_id": 1, "job": "j",
            "group": "g", "size": 10.0, "path": [["a->b", 100.0]],
        }
        finish = {
            "ev": "flow_finished", "t": 1.0, "flow_id": 1, "job": "j",
            "group": "g", "size": 10.0,
        }
        for event in (inject, dict(inject), finish, dict(finish)):
            state.observe(event)
        assert state.duplicates == 2
        assert state.deliveries == 1
        assert state.groups["g"].injected == 1
        assert state.groups["g"].delivered == 1
        assert state.job_delivered_bytes["j"] == 10.0

    def test_jitter_swapped_injection_never_goes_active(self):
        state = StreamState()
        state.observe(
            {"ev": "flow_finished", "t": 1.0, "flow_id": 1, "job": "j",
             "group": "g", "size": 10.0}
        )
        state.observe(
            {"ev": "flow_injected", "t": 0.5, "flow_id": 1, "job": "j",
             "group": "g", "size": 10.0, "path": [["a->b", 100.0]]}
        )
        assert state.reordered == 1
        assert not state.active_flows
        assert not state.outstanding_on_link.get("a->b")
        # Completion accounting still balances.
        assert state.groups["g"].injected == 1
        assert state.groups["g"].delivered == 1

    def test_late_sample_never_regresses_capacity(self):
        state = StreamState()
        state.observe(
            {"ev": "link_sample", "t": 2.0,
             "links": {"a->b": 0.0}, "caps": {"a->b": 30.0}}
        )
        state.observe(
            {"ev": "link_sample", "t": 1.0,
             "links": {"a->b": 0.9}, "caps": {"a->b": 100.0}}
        )
        health = state.links["a->b"]
        assert health.capacity == 30.0
        assert health.nominal == 100.0
        assert health.last_busy == 1.0


class TestHeartbeatReconciliation:
    @staticmethod
    def _phantom_state():
        state = StreamState()
        state.observe(
            {"ev": "flow_injected", "t": 0.0, "flow_id": 1, "job": "j",
             "group": "g", "size": 10.0, "path": [["a->b", 100.0]]}
        )
        return state

    def test_phantom_flow_expires_against_active_count(self):
        state = self._phantom_state()
        # The hop stayed busy well past the flow's expected completion
        # (size/rate = 0.1s): the dropped flow_finished left a phantom.
        state.observe(
            {"ev": "link_sample", "t": 0.5,
             "links": {"a->b": 0.5}, "caps": {"a->b": 100.0}}
        )
        state.observe({"ev": "watch_heartbeat", "t": 1.0, "active": 0})
        assert state.reconciled == 1
        assert not state.active_flows
        assert not state.outstanding_on_link["a->b"]
        assert state.groups["g"].delivered == 1
        assert state.job_outstanding_bytes["j"] == 0.0
        # Reconciliation is not an observed delivery.
        assert state.deliveries == 0

    def test_stalled_flow_is_never_reconciled(self):
        state = self._phantom_state()
        # Last busy sighting (t=0.05) predates the flow's expected end
        # (t=0.1): the hop froze mid-flight, this flow is stalled.
        state.observe(
            {"ev": "link_sample", "t": 0.05,
             "links": {"a->b": 0.5}, "caps": {"a->b": 100.0}}
        )
        state.observe({"ev": "watch_heartbeat", "t": 1.0, "active": 0})
        assert state.reconciled == 0
        assert 1 in state.active_flows

    def test_only_the_excess_expires_earliest_end_first(self):
        state = self._phantom_state()
        state.observe(
            {"ev": "flow_injected", "t": 0.2, "flow_id": 2, "job": "j",
             "group": "g", "size": 10.0, "path": [["a->b", 100.0]]}
        )
        state.observe(
            {"ev": "link_sample", "t": 0.5,
             "links": {"a->b": 0.5}, "caps": {"a->b": 100.0}}
        )
        state.observe({"ev": "watch_heartbeat", "t": 1.0, "active": 1})
        assert state.reconciled == 1
        assert 1 not in state.active_flows
        assert 2 in state.active_flows

    def test_heartbeat_without_active_is_inert(self):
        state = self._phantom_state()
        state.observe({"ev": "watch_heartbeat", "t": 1.0})
        state.observe({"ev": "watch_heartbeat", "t": 1.5, "active": -3})
        assert state.reconciled == 0
        assert 1 in state.active_flows


class TestCleanRunsSilentUnderNoise:
    @pytest.mark.parametrize("noise", NOISE_LEVELS)
    def test_zero_false_positives_at_every_level(self, noise):
        for paradigm in SMOKE_PARADIGMS:
            result = run_scenario(
                _scenario(paradigm, "clean"),
                noise=noise, seed=0, sanitizer=False,
            )
            assert result["loop"].anomalies == [], (paradigm, noise)

    def test_zero_false_positives_under_a_different_seed(self):
        result = run_scenario(
            _scenario("pp", "clean"),
            noise="sample=4,drop=0.1", seed=1, sanitizer=False,
        )
        assert result["loop"].anomalies == []


class TestLiveEqualsReplayThroughChannel:
    @pytest.mark.parametrize(
        "noise", ["sample=2,drop=0.05", "sample=2,drop=0.05,delay=0.001,dup=0.05"]
    )
    def test_bit_for_bit_with_identically_seeded_channel(
        self, tmp_path, noise
    ):
        scenario = _scenario("pp", "link_down")
        result = run_scenario(scenario, noise=noise, seed=0, sanitizer=False)
        live = result["loop"]
        assert live.anomalies, "fault must be detected through the noise"
        path = tmp_path / "run.jsonl"
        result["log"].write(str(path))
        # The replay side rebuilds the exact live setup: the hardened
        # config for this spec and a fresh channel with the same
        # per-scenario seed. Same (spec, seed, stream) -> same RNG walk.
        spec = parse_noise_spec(noise)
        replayed = WatchLoop(noise_hardened_config(spec)).replay_jsonl(
            str(path),
            channel=TelemetryChannel(spec, seed=scenario_seed(scenario.name, 0)),
        )
        assert replayed.anomalies == live.anomalies
        assert replayed.localizations == live.localizations

    def test_differently_seeded_replay_may_diverge_but_not_crash(
        self, tmp_path
    ):
        scenario = _scenario("pp", "link_down")
        result = run_scenario(
            scenario, noise="drop=0.3", seed=0, sanitizer=False
        )
        path = tmp_path / "run.jsonl"
        result["log"].write(str(path))
        spec = parse_noise_spec("drop=0.3")
        replayed = WatchLoop(noise_hardened_config(spec)).replay_jsonl(
            str(path), channel=TelemetryChannel(spec, seed=12345)
        )
        report = replayed.report()
        assert report["channel"]["seen"] > 0


class TestFaultSetGrading:
    TRUTH = [
        {"kind": "link", "action": "link_down",
         "targets": ["a->b", "b->a"], "time": 1.0},
        {"kind": "scheduler", "action": "crash_scheduler",
         "targets": [], "time": 2.0},
    ]

    def test_precision_recall_and_per_fault_latency(self):
        localizations = [
            {"ev": "localization", "t": 1.5, "fault_set": [
                {"cause": "link:a-b", "kind": "link",
                 "targets": ["a->b", "b->a"]},
            ]},
            {"ev": "localization", "t": 2.5, "fault_set": [
                {"cause": "scheduler", "kind": "scheduler", "targets": []},
                {"cause": "link:x-y", "kind": "link",
                 "targets": ["x->y", "y->x"]},
            ]},
        ]
        row = grade_fault_sets(localizations, self.TRUTH, nominal_jct=10.0)
        assert row["claims"] == 3 and row["matched_claims"] == 2
        assert row["precision"] == pytest.approx(2 / 3)
        assert row["recall"] == 1.0
        link_row, sched_row = row["per_fault"]
        assert link_row["claimed"] and link_row["latency"] == 0.5
        assert link_row["latency_frac"] == pytest.approx(0.05)
        assert sched_row["claimed"] and sched_row["latency"] == 0.5

    def test_unclaimed_truth_costs_recall(self):
        row = grade_fault_sets([], self.TRUTH, nominal_jct=10.0)
        assert row["claims"] == 0 and row["precision"] is None
        assert row["recall"] == 0.0
        assert all(not entry["claimed"] for entry in row["per_fault"])

    def test_latency_runs_from_injection_to_first_naming_set(self):
        localizations = [
            {"ev": "localization", "t": 4.0, "fault_set": [
                {"cause": "link:a-b", "kind": "link", "targets": ["a->b"]},
            ]},
            {"ev": "localization", "t": 9.0, "fault_set": [
                {"cause": "link:a-b", "kind": "link", "targets": ["a->b"]},
            ]},
        ]
        row = grade_fault_sets(localizations, self.TRUTH[:1], nominal_jct=10.0)
        (entry,) = row["per_fault"]
        assert entry["latency"] == 3.0


class TestScenarioSeed:
    def test_stable_and_distinct(self):
        assert scenario_seed("pp/link_down") == scenario_seed("pp/link_down")
        assert scenario_seed("pp/link_down") != scenario_seed("dp/link_down")
        assert scenario_seed("pp/link_down", 1) != scenario_seed(
            "pp/link_down", 0
        )
        assert 0 <= scenario_seed("anything", 2**40) < 2**32
