"""The diagnosis layer: rate recording, artifacts, attribution, diffing.

The centerpiece is the exact-sum property (Eq. 1 decomposition): for
every delivered flow with rate data,

    tardiness == upstream + sum(contention) + residual

with each component computed independently from the recorded rate
segments -- the test sweeps paradigms x schedulers so the identity is
checked against real multi-hop, multi-group runs, not just Fig. 2.
"""

import json

import pytest

from repro.core.flow import Flow
from repro.core.units import gbps, megabytes
from repro.obs import Instrumentation, JsonlEventLog
from repro.obs.diagnosis import (
    RunArtifacts,
    attribute_run,
    blame_matrix,
    bottleneck_of,
    critical_path,
    diagnose,
    diff_runs,
    overlap_integral,
    render_diagnosis,
    render_diff,
)
from repro.obs.diagnosis.diff import _link_busy
from repro.obs.instrumentation import FlowRateRecorder
from repro.scheduling import FairSharingScheduler, make_scheduler
from repro.simulator import Engine
from repro.topology import leaf_spine, linear_chain, two_hosts
from repro.topology.routing import EcmpRouter
from repro.workloads import (
    build_dp_allreduce,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    uniform_model,
)

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)


def _run_fig2(scheduler_name, **obs_kwargs):
    obs = Instrumentation(event_log=JsonlEventLog(), **obs_kwargs)
    engine = Engine(
        two_hosts(1.0), make_scheduler(scheduler_name), instrumentation=obs
    )
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )
    job.submit_to(engine)
    trace = engine.run()
    return trace, obs


def _paradigm_engine(paradigm, scheduler_name, obs):
    hosts = ["h0", "h1", "h2", "h3"]
    if paradigm == "pp":
        engine = Engine(
            linear_chain(4, gbps(10)),
            make_scheduler(scheduler_name),
            instrumentation=obs,
        )
        job = build_pp_gpipe("pp", _MODEL, hosts, num_micro_batches=4)
    else:
        topology = leaf_spine(
            n_leaves=2,
            hosts_per_leaf=2,
            host_bandwidth=gbps(10),
            oversubscription=2.0,
        )
        engine = Engine(
            topology, make_scheduler(scheduler_name), instrumentation=obs
        )
        if paradigm == "dp":
            job = build_dp_allreduce(
                "dp", _MODEL, hosts, bucket_bytes=megabytes(60)
            )
        else:
            job = build_fsdp("fsdp", _MODEL, hosts)
    job.submit_to(engine)
    return engine


# ----------------------------------------------------------------------
# FlowRateRecorder
# ----------------------------------------------------------------------


class TestFlowRateRecorder:
    def test_coalesces_equal_rates_and_skips_zero(self):
        rec = FlowRateRecorder()
        rec.on_admitted(1, (("a->b", 1.0),), 0.0)
        rec.on_rate_change(1, 0.0, 1.0)
        rec.on_rate_change(1, 1.0, 1.0)  # no-op change: must coalesce
        rec.on_rate_change(1, 2.0, 0.0)  # throttled to zero
        rec.on_rate_change(1, 3.0, 0.5)
        segments = rec.on_finished(1, 4.0)
        assert segments == [[0.0, 2.0, 1.0], [3.0, 4.0, 0.5]]
        assert rec.rates_of(1) == segments
        assert rec.paths[1] == (("a->b", 1.0),)

    def test_unknown_flow_rate_change_is_ignored(self):
        rec = FlowRateRecorder()
        rec.on_rate_change(99, 0.0, 1.0)
        assert rec.on_finished(99, 1.0) is None
        assert rec.segments == {}

    def test_evicts_oldest_finished_first(self):
        rec = FlowRateRecorder(capacity=1)
        for flow_id in (1, 2):
            rec.on_admitted(flow_id, (), 0.0)
            rec.on_rate_change(flow_id, 0.0, 1.0)
        rec.on_finished(1, 1.0)
        assert rec.total_segments == 1 and rec.evicted_flows == 0
        # Finishing flow 2 pushes the total over capacity: flow 1 (the
        # oldest finished) is evicted, flow 2 survives.
        rec.on_finished(2, 1.0)
        assert rec.evicted_flows == 1
        assert 1 not in rec.segments and 1 not in rec.paths
        assert rec.rates_of(2) == [[0.0, 1.0, 1.0]]

    def test_in_flight_flows_are_never_evicted(self):
        rec = FlowRateRecorder(capacity=1)
        rec.on_admitted(1, (), 0.0)
        rec.on_rate_change(1, 0.0, 1.0)
        rec.on_rate_change(1, 1.0, 2.0)
        rec.on_rate_change(1, 2.0, 3.0)  # 2 closed segments > capacity
        assert rec.total_segments == 2
        assert 1 in rec.segments  # still open: not evictable
        # on_finished returns the full history even when the flow is
        # immediately evicted to honor the capacity bound.
        segments = rec.on_finished(1, 3.0)
        assert segments == [[0.0, 1.0, 1.0], [1.0, 2.0, 2.0], [2.0, 3.0, 3.0]]
        assert rec.evicted_flows == 1 and rec.total_segments == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlowRateRecorder(capacity=0)


# ----------------------------------------------------------------------
# artifacts: events round-trips the in-memory view
# ----------------------------------------------------------------------


class TestRunArtifacts:
    def test_from_events_matches_from_run(self):
        trace, obs = _run_fig2("fair")
        from_run = RunArtifacts.from_run(trace, obs)
        from_events = RunArtifacts.from_events(obs.event_log.events)
        assert len(from_events.flows) == len(from_run.flows) == 3
        for flow_id, fact in from_run.flows.items():
            other = from_events.flows[flow_id]
            assert other.structural_key == fact.structural_key
            assert other.start == fact.start
            assert other.finish == fact.finish
            assert other.ideal_finish == fact.ideal_finish
            assert other.path == fact.path
            assert other.segments == fact.segments
        assert set(from_events.tasks) == set(from_run.tasks)
        for key, task in from_run.tasks.items():
            other = from_events.tasks[key]
            assert other.deps == task.deps
            assert other.device == task.device
            assert other.duration == pytest.approx(task.duration)
        assert from_events.job_completions == from_run.job_completions
        assert from_events.end_time == from_run.end_time

    def test_from_jsonl(self, tmp_path):
        _, obs = _run_fig2("fair")
        path = tmp_path / "events.jsonl"
        obs.event_log.write(str(path))
        artifacts = RunArtifacts.from_jsonl(str(path))
        assert artifacts.source == str(path)
        assert len(artifacts.delivered_flows()) == 3
        assert artifacts.jobs() == ["fig2"]
        assert artifacts.job_completion("fig2") == pytest.approx(9.5)

    def test_flows_on_link(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        on_link = artifacts.flows_on_link()
        assert set(on_link) == {"h0->h1"}
        assert len(on_link["h0->h1"]) == 3


# ----------------------------------------------------------------------
# attribution: the exact-sum property
# ----------------------------------------------------------------------


class TestAttribution:
    def test_overlap_integral_clips_to_window(self):
        segments = [[0.0, 2.0, 1.0], [2.0, 4.0, 0.5]]
        assert overlap_integral(segments, 0.0, 4.0) == pytest.approx(3.0)
        assert overlap_integral(segments, 1.0, 3.0) == pytest.approx(1.5)
        assert overlap_integral(segments, 5.0, 6.0) == 0.0

    def test_fig2_fair_known_decomposition(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        by_stage = {
            a.stage: a for a in attribute_run(artifacts)["flows"]
        }
        mb0 = by_stage["act mb0"]
        # Fair sharing: mb0 finishes at 3.5 against deadline 0 -> T=3.5,
        # of which 2.0 is the size/C ideal duration past the deadline
        # (upstream) and 1.5 is bandwidth taken by mb1/mb2.
        assert mb0.tardiness == pytest.approx(3.5)
        assert mb0.upstream == pytest.approx(2.0)
        assert mb0.contention == pytest.approx(
            {"act mb1": 1.0, "act mb2": 0.5}
        )
        assert mb0.residual == pytest.approx(0.0)
        assert mb0.bottleneck == "h0->h1"
        assert mb0.bottleneck_capacity == pytest.approx(1.0)

    @pytest.mark.parametrize("scheduler", ["fair", "coflow", "echelon"])
    @pytest.mark.parametrize("paradigm", ["dp", "pp", "fsdp"])
    def test_components_sum_exactly(self, paradigm, scheduler):
        obs = Instrumentation()
        engine = _paradigm_engine(paradigm, scheduler, obs)
        trace = engine.run()
        artifacts = RunArtifacts.from_run(trace, obs)
        attributions = attribute_run(artifacts)["flows"]
        assert attributions
        explained = [a for a in attributions if a.explained is not None]
        assert explained, "rate recording must cover the run"
        for attr in explained:
            assert attr.explained == pytest.approx(
                attr.tardiness, abs=1e-6
            ), f"decomposition not exact for {attr.stage}"

    def test_straggler_defines_group_tardiness(self):
        trace, obs = _run_fig2("coflow")
        artifacts = RunArtifacts.from_run(trace, obs)
        result = attribute_run(artifacts)
        group = result["echelonflows"]["fig2/ef"]
        assert group["members"] == 3
        # Coflow finishes everything together at t=6: the head micro-
        # batch (deadline 0) is the Eq. 2 straggler at tardiness 6.
        assert group["straggler"] == "act mb0"
        assert group["tardiness"] == pytest.approx(6.0)
        worst = max(a.tardiness for a in result["flows"])
        assert group["tardiness"] == pytest.approx(worst)

    def test_degrades_without_rate_recording(self):
        trace, obs = _run_fig2("fair", record_rates=False)
        artifacts = RunArtifacts.from_run(trace, obs)
        result = attribute_run(artifacts)
        assert result["coverage"]["with_rate_data"] == 0
        for attr in result["flows"]:
            assert attr.tardiness is not None  # Eq. 1 still available
            assert attr.residual is None

    def test_eviction_reported_in_coverage(self):
        trace, obs = _run_fig2("fair", rate_capacity=1)
        artifacts = RunArtifacts.from_run(trace, obs)
        result = attribute_run(artifacts)
        assert result["coverage"]["evicted_flows"] > 0
        assert result["coverage"]["with_rate_data"] < 3


class TestRerouteBlame:
    """A fault migrates flow 0 onto flow 1's spine link half a second in.

    Each flow needs 2 s alone on a 2.5 Gb/s spine link. Both run alone
    until the fault, then share leaf0->spine1 for 3 s and finish at 3.5:
    1.5 s of contention each and no idle bottleneck bandwidth. Blaming
    flow 0's whole life on its final path would charge the 0.5 s it
    spent on spine0 too.
    """

    @staticmethod
    def _run():
        topology = leaf_spine(2, 2, gbps(10), oversubscription=4.0)
        obs = Instrumentation(event_log=JsonlEventLog())
        engine = Engine(
            topology,
            FairSharingScheduler(),
            router=EcmpRouter(topology),
            instrumentation=obs,
            faults="link_down:leaf0-spine0@0.5",
        )
        for src, dst in (("h0", "h2"), ("h1", "h3")):
            engine.inject_background_flow(
                Flow(src, dst, 2.0 * gbps(2.5)), at_time=0.0
            )
        trace = engine.run()
        return trace, obs

    def test_both_sources_blame_only_the_shared_epoch(self):
        trace, obs = self._run()
        assert sum(obs.reroutes.values()) == 1
        for artifacts in (
            RunArtifacts.from_run(trace, obs),
            RunArtifacts.from_events(obs.event_log.events),
        ):
            flows = attribute_run(artifacts)["flows"]
            assert len(flows) == 2
            for attr in flows:
                assert attr.finish == pytest.approx(3.5, abs=1e-9)
                assert attr.bottleneck == "leaf0->spine1"
                assert attr.contention_total == pytest.approx(1.5, abs=1e-9)
                assert attr.residual == pytest.approx(0.0, abs=1e-9)

    def test_sources_agree_on_path_epochs(self):
        trace, obs = self._run()
        from_run = RunArtifacts.from_run(trace, obs)
        from_events = RunArtifacts.from_events(obs.event_log.events)
        moved = [f for f in from_run.flows.values() if f.path_epochs]
        assert len(moved) == 1
        (since0, first), (since1, last) = moved[0].path_epochs
        assert since0 == float("-inf") and since1 == pytest.approx(0.5)
        assert "leaf0->spine0" in dict(first)
        assert last == moved[0].path and "leaf0->spine1" in dict(last)
        for flow_id, fact in from_run.flows.items():
            other = from_events.flows[flow_id]
            assert other.path == fact.path
            assert other.path_epochs == fact.path_epochs
        # Run-diff's busy seconds follow the epochs too: flow 0 held
        # leaf0->spine0 for 0.5 s, then shared leaf0->spine1 with flow 1.
        busy = _link_busy(from_events)
        assert busy["leaf0->spine0"] == pytest.approx(0.5, abs=1e-9)
        assert busy["leaf0->spine1"] == pytest.approx(3.5, abs=1e-9)
        assert diff_runs(from_run, from_events)["links"] == {}


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------


class TestCriticalPath:
    def test_fig2_fair_path(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        path = critical_path(artifacts, "fig2")
        assert path["available"]
        assert path["jct"] == pytest.approx(9.5)
        ids = [node["id"] for node in path["nodes"]]
        # The chain that determined the JCT: release, the head transfer,
        # then the serialized consume tasks.
        assert ids == ["rel0", "xfer0", "cons0", "cons1", "cons2"]
        comm = path["nodes"][1]
        assert comm["kind"] == "comm"
        assert comm["straggler_flow"] == "act mb0"
        assert path["total_duration"] + path["total_wait"] == pytest.approx(
            path["jct"]
        )
        for node in path["nodes"]:
            assert node["wait"] >= 0.0

    def test_unavailable_without_task_metadata(self):
        trace, _ = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace)  # no instrumentation
        path = critical_path(artifacts, "fig2")
        assert path["available"] is False
        assert "reason" in path


# ----------------------------------------------------------------------
# blame + diagnose + render
# ----------------------------------------------------------------------


class TestBlameAndReport:
    def test_blame_mass_matches_contention(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        attributions = attribute_run(artifacts)["flows"]
        blame = blame_matrix(attributions)
        total_blame = sum(
            seconds
            for victims in blame["aggregate"].values()
            for seconds in victims.values()
        )
        total_contention = sum(a.contention_total for a in attributions)
        assert total_blame == pytest.approx(total_contention)
        assert blame["links"]["h0->h1"]
        assert blame["worst"][0]["seconds"] > 0

    def test_diagnose_report_is_json_clean(self):
        trace, obs = _run_fig2("coflow")
        artifacts = RunArtifacts.from_run(trace, obs)
        report = json.loads(json.dumps(diagnose(artifacts), default=str))
        assert report["version"] == 1
        assert report["run"]["jobs"] == ["fig2"]
        assert report["critical_paths"]["fig2"]["available"]
        assert report["attribution"]["flows"]
        assert report["attribution"]["coverage"]["with_rate_data"] == 3
        text = render_diagnosis(report)
        assert "critical path [fig2]" in text
        assert "act mb0" in text

    def test_bottleneck_of_prefers_min_capacity(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        flow = artifacts.delivered_flows()[0]
        assert bottleneck_of(flow) == ("h0->h1", 1.0)


# ----------------------------------------------------------------------
# run-diff: the automated Fig. 2 diagnosis
# ----------------------------------------------------------------------


class TestDiff:
    def test_diff_against_self_is_zero(self):
        trace, obs = _run_fig2("fair")
        artifacts = RunArtifacts.from_run(trace, obs)
        report = diff_runs(artifacts, artifacts)
        assert report["jobs"]["fig2"]["delta"] == 0.0
        assert report["jobs"]["fig2"]["winner"] == "tie"
        assert all(row["delta"] == 0.0 for row in report["stages"])
        assert report["links"] == {}
        assert report["flows"] == {"matched": 3, "only_a": 0, "only_b": 0}

    def test_fig2_coflow_vs_fair_attributes_the_loss(self):
        """Acceptance criterion: diffing fair (A) against Coflow (B) must
        report fair sharing winning and attribute Coflow's JCT loss to
        the later micro-batch flows serializing the head transfer."""
        fair_trace, fair_obs = _run_fig2("fair")
        coflow_trace, coflow_obs = _run_fig2("coflow")
        fair = RunArtifacts.from_run(fair_trace, fair_obs)
        coflow = RunArtifacts.from_run(coflow_trace, coflow_obs)
        report = diff_runs(fair, coflow)

        job = report["jobs"]["fig2"]
        assert job["jct_a"] == pytest.approx(9.5)
        assert job["jct_b"] == pytest.approx(12.0)
        assert job["delta"] == pytest.approx(2.5)
        assert job["winner"] == "a"
        assert report["verdict"]["jobs_faster_in_a"] == 1

        head = next(r for r in report["stages"] if r["stage"] == "act mb0")
        assert head["delta"] == pytest.approx(2.5)
        # Not injected later -- the whole loss is in-network stretch ...
        assert head["start_delta"] == pytest.approx(0.0)
        assert head["stretch_delta"] == pytest.approx(2.5)
        assert head["residual_delta"] == pytest.approx(0.0)
        # ... and the stretch is bandwidth handed to the later
        # micro-batches (Coflow lets mb1/mb2 run alongside the head
        # flow instead of letting it out early).
        assert head["contention_delta"]["act mb1"] == pytest.approx(1.0)
        assert head["contention_delta"]["act mb2"] == pytest.approx(1.5)
        assert head["contention_delta_total"] == pytest.approx(2.5)
        assert head["bottleneck"] == "h0->h1"

        # The group's *last* member lands at t=6 either way -- the whole
        # difference is when the head flow gets out, which only the
        # per-stage view (above) can see. That is the Fig. 2 lesson.
        assert report["groups"]["fig2/ef"]["delta"] == pytest.approx(0.0)
        text = render_diff(report)
        assert "act mb0" in text and "winner" in text

    def test_diff_from_saved_logs(self, tmp_path):
        """The CLI path: diagnosis runs purely from recorded artifacts."""
        for name in ("fair", "coflow"):
            _, obs = _run_fig2(name)
            obs.event_log.write(str(tmp_path / f"{name}.jsonl"))
        report = diff_runs(
            RunArtifacts.from_jsonl(str(tmp_path / "fair.jsonl")),
            RunArtifacts.from_jsonl(str(tmp_path / "coflow.jsonl")),
        )
        assert report["jobs"]["fig2"]["delta"] == pytest.approx(2.5)
        head = next(r for r in report["stages"] if r["stage"] == "act mb0")
        assert head["contention_delta"]["act mb2"] == pytest.approx(1.5)
