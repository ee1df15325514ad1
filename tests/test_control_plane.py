"""The fault-tolerant control plane: RPC channel, runtime, chaos suite.

Covers the ISSUE 10 acceptance surface: seeded lossy-RPC determinism,
pinned passive-mode trace digests of the Fig. 7 path, agent
quarantine/re-adoption, coordinator WAL-replay failover, degraded-mode
hysteresis, the control fault grammar's gating, and topology validation
of fault specs.
"""

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps, megabytes
from repro.faults import FaultSchedule, FaultSpecError
from repro.scheduling import make_scheduler
from repro.simulator.engine import Engine
from repro.simulator.trace import trace_digest
from repro.system import run_cluster
from repro.system.runtime import (
    ControlPlaneRuntime,
    RpcChannel,
    RpcSpec,
    RpcSpecError,
    build_chaos_scenarios,
    parse_rpc_spec,
    run_chaos_suite,
)
from repro.system.runtime.chaos import (
    _baseline_jcts,
    _jobs,
    _run_scenario,
    _topology,
)
from repro.topology import big_switch
from repro.workloads import build_dp_allreduce, build_fsdp, uniform_model


# ---------------------------------------------------------------------------
# the RPC channel
# ---------------------------------------------------------------------------


def test_rpc_spec_parsing():
    assert parse_rpc_spec("off").is_noop
    assert parse_rpc_spec(None).is_noop
    assert parse_rpc_spec("").is_noop
    spec = parse_rpc_spec("drop=0.2,delay=0.01,dup=0.05,retries=2,seed=7")
    assert spec.drop == 0.2 and spec.delay == 0.01 and spec.dup == 0.05
    assert spec.retries == 2 and spec.seed == 7
    assert not spec.is_noop
    # describe() round-trips through the parser.
    assert parse_rpc_spec(spec.describe()) == spec
    assert parse_rpc_spec("off").describe() == "off"
    # An explicit seed= parameter overrides the spec's own.
    assert parse_rpc_spec("drop=0.1,seed=3", seed=9).seed == 9
    assert parse_rpc_spec("drop=0.1", seed=9).seed == 9


def test_rpc_spec_rejects_bad_values():
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("drop=1.0")  # would never deliver anything
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("dup=1.5")
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("delay=-0.1")
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("retries=-1")
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("bogus=1")
    with pytest.raises(RpcSpecError):
        parse_rpc_spec("drop")


def test_rpc_channel_is_deterministic_per_seed_and_message():
    spec = parse_rpc_spec("drop=0.3,delay=0.01,dup=0.1")
    a = RpcChannel(spec, seed=1)
    b = RpcChannel(spec, seed=1)
    verdicts_a = [a.transmit(f"msg{i}") for i in range(200)]
    verdicts_b = [b.transmit(f"msg{i}") for i in range(200)]
    assert verdicts_a == verdicts_b
    assert a.stats == b.stats
    # Fate depends only on (seed, msg_id), not on transmission order.
    c = RpcChannel(spec, seed=1)
    assert c.transmit("msg150") == verdicts_a[150]
    # A different seed draws a different trajectory.
    d = RpcChannel(spec, seed=2)
    assert [d.transmit(f"msg{i}") for i in range(200)] != verdicts_a


def test_rpc_identity_channel_delivers_everything():
    channel = RpcChannel(RpcSpec(), seed=0)
    for i in range(50):
        verdict = channel.transmit(f"m{i}")
        assert verdict.delivered and verdict.latency == 0.0
        assert not verdict.duplicated
    assert channel.stats["dropped"] == 0


def test_rpc_retries_accumulate_backoff():
    # drop=0.9: most first attempts fail, so retries (distinct msg ids)
    # must kick in and each failed attempt must cost timeout+backoff.
    spec = parse_rpc_spec("drop=0.9,timeout=0.1,backoff=0.01,retries=4")
    channel = RpcChannel(spec, seed=3)
    delivered = retried = 0
    for i in range(100):
        verdict = channel.send_with_retries(f"req{i}")
        if verdict.delivered:
            delivered += 1
            if verdict.latency >= channel.attempt_cost(0):
                retried += 1
    assert delivered > 30  # 5 attempts at 10% each ~ 41%
    assert retried > 0


# ---------------------------------------------------------------------------
# passive mode: pinned digests of the Fig. 7 path
# ---------------------------------------------------------------------------

#: Mirrors benchmarks/bench_fig7_system.py (E11): FSDP + DP on 8 hosts.
_E11_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(40),
    activation_bytes=megabytes(20),
    forward_time=0.004,
)


def _e11_jobs():
    return [
        (build_fsdp("fsdp-job", _E11_MODEL, ["h0", "h1", "h2", "h3"]), 0.0),
        (
            build_dp_allreduce(
                "dp-job",
                _E11_MODEL,
                ["h4", "h5", "h6", "h7"],
                bucket_bytes=megabytes(80),
            ),
            0.01,
        ),
    ]


#: case -> (jobs, enforce_with_queues, trace digest, coordinator
#: invocations, EchelonFlow requests), each run under a fresh flow-id
#: allocator on big_switch(8, 10 Gbps). The digests were taken while an
#: in-process coordinator adapter still existed beside the runtime and
#: both produced them; a change that moves one changes Fig. 7
#: scheduling.
_PINNED = {
    "chaos": (
        _jobs,
        False,
        "1ccae575f0ef1f718462561047531df7de2dc97bbfb3868ae323c6f3c892bce5",
        116,
        17,
    ),
    "e11": (
        _e11_jobs,
        False,
        "a47a3cd37283bead5b35cca773b1d1f2a7c48b7b6116a72ec58353c5cf619269",
        118,
        13,
    ),
    "e11-queues": (
        _e11_jobs,
        True,
        "ead9020038d6115743cf974fa4ed99de08048ec345a0877f4b461c6f0e87dfcb",
        127,
        13,
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_cluster_run_matches_pinned_digest(case):
    jobs, queues, digest, invocations, requests = _PINNED[case]
    with use_flow_id_allocator(FlowIdAllocator()):
        run = run_cluster(
            big_switch(8, gbps(10)), jobs(), enforce_with_queues=queues
        )
    assert run.runtime.report()["mode"] == "passive"
    assert trace_digest(run.trace) == digest
    assert run.coordinator.invocations == invocations
    assert len(run.coordinator.request_log) == requests


def test_trace_digest_tracks_content():
    with use_flow_id_allocator(FlowIdAllocator()):
        run = run_cluster(_topology(), _jobs())
    digest = trace_digest(run.trace)
    assert digest == trace_digest(run.trace)
    run.trace.end_time += 1.0
    assert trace_digest(run.trace) != digest


# ---------------------------------------------------------------------------
# active mode: faults, quarantine, failover, degradation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline():
    jcts = _baseline_jcts()
    return jcts, max(jcts.values())


def _scenario_run(name, makespan, seed=0):
    scenario = build_chaos_scenarios(makespan, [name])[0]
    return _run_scenario(scenario, seed, makespan)


def test_crash_agent_quarantines_and_readopts(baseline):
    jcts, makespan = baseline
    run = _scenario_run("crash_agent", makespan)
    report = run.runtime.report()
    assert report["mode"] == "active"
    assert report["quarantines"] >= 1
    assert report["readoptions"] >= 1
    assert not report["quarantined"]  # re-adopted by run end
    assert sorted(run.engine.completed_jobs) == sorted(jcts)


def test_crash_coordinator_fails_over_via_wal(baseline):
    jcts, makespan = baseline
    run = _scenario_run("crash_coordinator", makespan)
    report = run.runtime.report()
    assert report["failovers"] == 1
    assert report["epoch"] == 1
    assert report["recovered_groups"] + report["replayed_requests"] > 0
    assert sorted(run.engine.completed_jobs) == sorted(jcts)
    kinds = [record["kind"] for record in run.runtime.control_log]
    assert "failover" in kinds and "checkpoint" in kinds


def test_partition_enters_and_exits_degraded_mode(baseline):
    jcts, makespan = baseline
    run = _scenario_run("partition_control", makespan)
    report = run.runtime.report()
    assert report["degraded_enters"] >= 1
    assert report["degraded_rounds"] >= 1
    assert report["degraded_exits"] >= report["degraded_enters"] - 1
    assert report["state"] == "coordinated"  # healed by run end
    assert sorted(run.engine.completed_jobs) == sorted(jcts)


def test_lossy_channel_run_is_deterministic(baseline):
    _, makespan = baseline
    first = _scenario_run("lossy_channel", makespan, seed=5)
    second = _scenario_run("lossy_channel", makespan, seed=5)
    assert trace_digest(first.trace) == trace_digest(second.trace)
    assert first.runtime.report() == second.runtime.report()
    other_seed = _scenario_run("lossy_channel", makespan, seed=6)
    assert (
        other_seed.runtime.channel.stats != first.runtime.channel.stats
        or trace_digest(other_seed.trace) != trace_digest(first.trace)
    )


def test_chaos_suite_smoke_passes():
    report = run_chaos_suite(names=["baseline", "rpc_noise"], sanitizer=False)
    assert report["ok"]
    rows = {row["scenario"]: row for row in report["scenarios"]}
    assert rows["baseline"]["bit_identical"]
    assert rows["rpc_noise"]["mode"] == "active"
    for row in rows.values():
        assert row["all_jobs_completed"]
        assert row["deterministic"]
        assert row["max_inflation"] <= report["inflation_bound"]


# ---------------------------------------------------------------------------
# the control fault grammar and its gating
# ---------------------------------------------------------------------------


def test_control_grammar_parses_and_gates():
    schedule = FaultSchedule.parse(
        "crash_agent@0.1+0.2,agent=job-a; crash_coordinator@0.3+0.1;"
        " partition_control@0.5+0.1; rpc_noise@0.7+0.1,drop=0.5"
    )
    assert schedule.has_control_faults
    actions = [event.action for event in schedule.events]
    assert actions.count("agent_restore") == 1
    assert actions.count("coordinator_restore") == 1
    assert actions.count("partition_heal") == 1
    assert actions.count("rpc_restore") == 1


def test_control_faults_require_a_control_plane():
    schedule = FaultSchedule.parse("crash_coordinator@0.1+0.05")
    with pytest.raises(ValueError, match="control"):
        Engine(big_switch(2, 1.0), make_scheduler("fair"), faults=schedule)


def test_crash_agent_requires_agent_target():
    with pytest.raises(FaultSpecError):
        FaultSchedule.parse("crash_agent@0.1+0.2")
    with pytest.raises(FaultSpecError):
        FaultSchedule.parse("crash_coordinator@0.1,agent=job-a")
    with pytest.raises(FaultSpecError):
        FaultSchedule.parse("rpc_noise@0.1,drop=2.0")


def test_unknown_agent_target_raises_at_fire_time(baseline):
    _, makespan = baseline
    runtime = ControlPlaneRuntime(lease=0.05 * makespan)
    with use_flow_id_allocator(FlowIdAllocator()):
        with pytest.raises(ValueError, match="job-nope"):
            run_cluster(
                _topology(),
                _jobs(),
                runtime=runtime,
                faults="crash_agent@0.001+0.01,agent=job-nope",
            )


# ---------------------------------------------------------------------------
# fault-spec topology validation
# ---------------------------------------------------------------------------


def test_validate_links_names_the_bad_link():
    schedule = FaultSchedule.parse("link_down:h0-h9@0.1+0.1")
    topology = big_switch(4, 1.0)
    with pytest.raises(FaultSpecError, match="h0->h9"):
        schedule.validate_links(topology)
    FaultSchedule.parse("link_down:h0-core@0.1+0.1").validate_links(topology)
    # Control-plane clauses carry no links, so they always validate.
    FaultSchedule.parse("crash_coordinator@0.1+0.1").validate_links(topology)


def test_run_spec_validates_fault_links(tmp_path):
    from repro.workloads import run_spec_file

    spec = tmp_path / "bad.json"
    spec.write_text(
        '{"topology": {"kind": "big_switch", "hosts": 4},'
        ' "jobs": [{"job_id": "j", "paradigm": "dp", "workers": 2,'
        ' "model": {"layers": 2, "param_mb": 1}}],'
        ' "faults": "link_down:h0-h99@0.1+0.1"}'
    )
    with pytest.raises(FaultSpecError, match="h0->h99"):
        run_spec_file(str(spec))


def test_cli_rejects_bad_fault_link():
    from repro.cli import main

    assert (
        main(
            [
                "run",
                "--workers",
                "2",
                "--faults",
                "link_down:h0-h9@0.01+0.01",
            ]
        )
        == 2
    )


def test_cli_rejects_unknown_chaos_scenario():
    from repro.cli import main

    assert main(["system", "chaos", "--scenario", "nope"]) == 2
