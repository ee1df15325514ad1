"""The runtime sanitizer: config parsing, wiring, and violation paths.

The happy path ("the whole suite stays clean under REPRO_CHECK=strict")
is exercised by CI; these tests pin down the machinery itself -- that
specs parse, that engines pick up the process default, that rigged-bad
schedulers actually trip the invariants, and that violations flow into
logs, global stats, and the obs event log.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import check
from repro.check import (
    CheckConfig,
    CheckViolation,
    INVARIANTS,
    Sanitizer,
    Violation,
    ViolationLog,
    invariant_names,
    parse_spec,
)
from repro.core.flow import Flow
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.scheduling.base import Scheduler
from repro.simulator import Engine
from repro.topology import two_hosts
from repro.workloads import build_pipeline_segment


@pytest.fixture(autouse=True)
def _isolated_check_state(monkeypatch):
    """Each test starts from 'REPRO_CHECK unset, nothing configured'."""
    monkeypatch.delenv(check.ENV_VAR, raising=False)
    check.clear_configuration()
    check.reset_global_stats()
    yield
    check.clear_configuration()
    check.reset_global_stats()


def _fig2_engine(scheduler, **kwargs):
    engine = Engine(two_hosts(1.0), scheduler, **kwargs)
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )
    job.submit_to(engine)
    return engine


# ---------------------------------------------------------------------------
# spec parsing and config
# ---------------------------------------------------------------------------


def test_parse_spec_off_spellings():
    for spec in (None, "", "0", "off", "false", "no", " OFF "):
        assert parse_spec(spec) is None


def test_parse_spec_modes():
    assert parse_spec("strict").mode == "strict"
    assert parse_spec("1").mode == "strict"
    assert parse_spec("on").mode == "strict"
    assert parse_spec("collect").mode == "collect"


def test_parse_spec_options():
    config = parse_spec("collect:twin=1.0,seed=3,twin_tol=1e-9,max=50")
    assert config.mode == "collect"
    assert config.twin_sample == 1.0
    assert config.seed == 3
    assert config.twin_tolerance == 1e-9
    assert config.max_violations == 50


def test_parse_spec_invariant_allowlist():
    config = parse_spec("strict:invariants=capacity+twin")
    assert config.invariants == frozenset({"capacity", "twin"})
    assert config.wants("capacity")
    assert not config.wants("causality")
    # Empty allow-list means everything is in scope.
    assert parse_spec("strict").wants("causality")


def test_parse_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec("verystrict")
    with pytest.raises(ValueError):
        parse_spec("strict:bogus=1")
    with pytest.raises(ValueError):
        parse_spec("strict:twin")  # missing =value


def test_parse_spec_passes_configs_through():
    config = CheckConfig(mode="collect")
    assert parse_spec(config) is config
    assert parse_spec(CheckConfig(mode="off")) is None


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(mode="bogus")
    with pytest.raises(ValueError):
        CheckConfig(twin_sample=1.5)
    with pytest.raises(ValueError):
        CheckConfig(twin_tolerance=-1.0)
    with pytest.raises(ValueError):
        CheckConfig(max_violations=0)


def test_invariant_catalog_is_complete():
    # Every invariant the sanitizer can count is documented, and vice
    # versa: the catalog is the single source of truth for docs/reports.
    engine = _fig2_engine(EchelonMaddScheduler(), sanitizer="strict:twin=1.0")
    engine.run()
    assert set(engine.check.checks) <= set(INVARIANTS)
    assert invariant_names() == sorted(INVARIANTS)
    for summary, anchor in INVARIANTS.values():
        assert summary and anchor
    catalog = (
        Path(__file__).resolve().parent.parent / "docs" / "correctness.md"
    ).read_text()
    for name in INVARIANTS:
        assert f"| `{name}` |" in catalog, f"docs/correctness.md lacks {name!r}"


# ---------------------------------------------------------------------------
# process-default activation
# ---------------------------------------------------------------------------


def test_engine_defaults_to_no_sanitizer():
    engine = _fig2_engine(EchelonMaddScheduler())
    assert engine.check is None


def test_env_var_sanitizes_every_engine(monkeypatch):
    monkeypatch.setenv(check.ENV_VAR, "collect:twin=0")
    check.clear_configuration()  # force a lazy re-read
    engine = _fig2_engine(EchelonMaddScheduler())
    assert engine.check is not None
    assert engine.check.config.mode == "collect"
    engine.run()
    assert engine.check.violation_count == 0
    assert check.global_stats().sanitizers == 1


def test_configure_overrides_env(monkeypatch):
    monkeypatch.setenv(check.ENV_VAR, "strict")
    check.configure("off")
    assert _fig2_engine(EchelonMaddScheduler()).check is None
    check.configure("collect")
    assert _fig2_engine(EchelonMaddScheduler()).check.config.mode == "collect"


def test_sanitizer_false_forces_off(monkeypatch):
    monkeypatch.setenv(check.ENV_VAR, "strict")
    check.clear_configuration()
    engine = _fig2_engine(EchelonMaddScheduler(), sanitizer=False)
    assert engine.check is None


def test_engine_accepts_spec_strings():
    engine = _fig2_engine(EchelonMaddScheduler(), sanitizer="strict:twin=0")
    assert isinstance(engine.check, Sanitizer)
    assert engine.check.twin is None
    assert _fig2_engine(EchelonMaddScheduler(), sanitizer="off").check is None


def test_sanitizer_rejects_off_config():
    with pytest.raises(ValueError):
        Sanitizer(CheckConfig(mode="off"))


# ---------------------------------------------------------------------------
# clean runs stay clean
# ---------------------------------------------------------------------------


def test_clean_run_exercises_every_invariant():
    engine = _fig2_engine(EchelonMaddScheduler(), sanitizer="strict:twin=1.0")
    engine.run()
    report = engine.check.report()
    assert report["total"] == 0
    assert set(report["checks"]) == set(INVARIANTS)
    assert report["twin"]["comparisons"] > 0
    assert report["twin"]["skipped"] == 0


def test_allowlist_filters_evaluations():
    engine = _fig2_engine(
        EchelonMaddScheduler(), sanitizer="strict:twin=0,invariants=capacity"
    )
    engine.run()
    assert set(engine.check.checks) == {"capacity"}


# ---------------------------------------------------------------------------
# rigged schedulers trip the invariants
# ---------------------------------------------------------------------------


class _RiggedScheduler(Scheduler):
    """Fair sharing, with one poisoned entry added to the allocation."""

    name = "rigged"
    work_conserving = False

    def __init__(self, poison):
        self.inner = FairSharingScheduler()
        self.poison = poison

    def allocate(self, view):
        rates = self.inner.allocate(view)
        rates.update(self.poison(view, rates))
        return rates


@pytest.mark.parametrize(
    "poison",
    [
        lambda view, rates: {next(iter(rates)): -1.0} if rates else {},
        lambda view, rates: {next(iter(rates)): math.nan} if rates else {},
        lambda view, rates: {next(iter(rates)): math.inf} if rates else {},
        lambda view, rates: {10**9: 1.0},  # never an active flow id
    ],
)
def test_rate_sanity_raises_in_strict_mode(poison):
    engine = _fig2_engine(
        _RiggedScheduler(poison), sanitizer="strict:twin=0"
    )
    with pytest.raises(CheckViolation) as excinfo:
        engine.run()
    assert excinfo.value.violation.invariant == "rate_sanity"


def test_rate_sanity_collect_mode_accumulates():
    engine = _fig2_engine(
        _RiggedScheduler(lambda view, rates: {10**9: 1.0}),
        sanitizer="collect:twin=0",
    )
    engine.run()
    report = engine.check.report()
    assert report["total"] > 0
    assert set(report["by_invariant"]) == {"rate_sanity"}
    # Collect mode still finished the run and aggregated globally.
    assert check.global_stats().total == report["total"]


def test_violations_land_in_obs_event_log():
    from repro.obs import Instrumentation, JsonlEventLog

    obs = Instrumentation(event_log=JsonlEventLog())
    engine = _fig2_engine(
        _RiggedScheduler(lambda view, rates: {10**9: 1.0}),
        sanitizer="collect:twin=0",
        instrumentation=obs,
    )
    engine.run()
    events = [e for e in obs.event_log.events if e["ev"] == "check_violation"]
    assert events
    assert events[0]["invariant"] == "rate_sanity"
    assert "message" in events[0]


def test_work_conservation_catches_idle_allocation():
    class _Lazy(Scheduler):
        name = "lazy"
        work_conserving = True  # a lie: it halves every rate

        def __init__(self):
            self.inner = FairSharingScheduler()

        def allocate(self, view):
            return {
                fid: 0.5 * rate
                for fid, rate in self.inner.allocate(view).items()
            }

    engine = _fig2_engine(_Lazy(), sanitizer="strict:twin=0")
    with pytest.raises(CheckViolation) as excinfo:
        engine.run()
    assert excinfo.value.violation.invariant == "work_conservation"
    # The same scheduler honestly declaring itself non-work-conserving
    # sails through: the invariant only audits the promise that was made.
    class _HonestLazy(_Lazy):
        work_conserving = False

    _fig2_engine(_HonestLazy(), sanitizer="strict:twin=0").run()


# ---------------------------------------------------------------------------
# direct hook-level checks (fabricated states)
# ---------------------------------------------------------------------------


def _collector(**overrides):
    config = CheckConfig(mode="collect", twin_sample=0.0, **overrides)
    sanitizer = Sanitizer(config)
    sanitizer.attach(SimpleNamespace(obs=None, echelonflows={}))
    return sanitizer


def test_causality_hook_flags_backwards_flow():
    sanitizer = _collector()
    flow = Flow(src="a", dst="b", size=100.0)
    state = SimpleNamespace(flow=flow, remaining=0.0, ideal_finish_time=None)
    record = SimpleNamespace(start=5.0, finish=3.0)
    sanitizer.on_flow_finished(state, record, now=5.0)
    assert sanitizer.log.counts["causality"] == 1


def test_conservation_hook_flags_undrained_flow():
    sanitizer = _collector()
    flow = Flow(src="a", dst="b", size=100.0)
    state = SimpleNamespace(flow=flow, remaining=1.0, ideal_finish_time=None)
    record = SimpleNamespace(start=0.0, finish=1.0)
    sanitizer.on_flow_finished(state, record, now=1.0)
    assert sanitizer.log.counts["conservation"] == 1
    [violation] = sanitizer.log.violations
    assert violation.details["remaining"] == 1.0


def test_finish_index_flags_a_heap_that_lost_the_next_departure():
    engine = _fig2_engine(FairSharingScheduler(), sanitizer="collect:twin=0")
    engine.run(until=0.5)
    network = engine.network
    assert network.active_count
    engine.check.on_fault(engine, engine.now)  # an intact heap is clean
    assert engine.check.log.counts.get("finish_index", 0) == 0
    network._finish_heap.clear()  # every projected finish forgotten
    engine.check.on_fault(engine, engine.now)
    assert engine.check.log.counts["finish_index"] == 1
    [violation] = engine.check.log.violations
    assert violation.details["indexed"] == float("inf")
    assert violation.details["scanned"] < float("inf")


def test_arrangement_flags_undated_member_of_pinned_group():
    class _Undating(FairSharingScheduler):
        """Fair sharing that wipes every cached deadline it sees."""

        def allocate(self, view):
            for state in view.active_states():
                state.ideal_finish_time = None
            return super().allocate(view)

    engine = _fig2_engine(_Undating(), sanitizer="strict:twin=0")
    with pytest.raises(CheckViolation) as excinfo:
        engine.run()
    violation = excinfo.value.violation
    assert violation.invariant == "arrangement"
    assert violation.details["groups"] == ["fig2/ef"]


def test_task_dependency_ordering_hook():
    sanitizer = _collector()
    dag = SimpleNamespace(job_id="job")
    first = SimpleNamespace(task_id="a", deps=(), duration=1.0)
    second = SimpleNamespace(task_id="b", deps=("a",), duration=1.0)
    sanitizer.on_task_complete(dag, first, now=1.0)
    sanitizer.on_task_complete(dag, second, now=2.0)
    assert sanitizer.log.total == 0
    # A task whose start precedes its dependency's completion is flagged.
    third = SimpleNamespace(task_id="c", deps=("b",), duration=5.0)
    sanitizer.on_task_complete(dag, third, now=3.0)
    assert sanitizer.log.counts["causality"] == 1
    # And a completion whose dependency never completed at all.
    orphan = SimpleNamespace(task_id="d", deps=("ghost",), duration=0.0)
    sanitizer.on_task_complete(dag, orphan, now=4.0)
    assert sanitizer.log.counts["causality"] == 2


# ---------------------------------------------------------------------------
# violation records and logs
# ---------------------------------------------------------------------------


def test_violation_render_and_dict():
    violation = Violation(
        invariant="capacity", time=1.5, message="boom", details={"link": "x"}
    )
    text = violation.render()
    assert "[capacity]" in text and "t=1.5" in text and "link='x'" in text
    assert violation.to_dict()["details"] == {"link": "x"}
    wrapped = CheckViolation(violation)
    assert wrapped.violation is violation
    assert "boom" in str(wrapped)


def test_violation_log_bounds_retention_not_counts():
    log = ViolationLog(capacity=3)
    for i in range(10):
        log.add(Violation(invariant="capacity", time=float(i), message=f"v{i}"))
    assert log.total == 10
    assert len(log.violations) == 3
    assert log.counts == {"capacity": 10}
    document = log.to_dict()
    assert document["truncated"] is True
    assert "10 violation(s)" in log.render()
    with pytest.raises(ValueError):
        ViolationLog(capacity=0)


def test_max_violations_spec_bounds_sanitizer_log():
    engine = _fig2_engine(
        _RiggedScheduler(lambda view, rates: {10**9: 1.0}),
        sanitizer="collect:twin=0,max=1",
    )
    engine.run()
    assert engine.check.violation_count >= 1
    assert len(engine.check.log.violations) == 1


# ---------------------------------------------------------------------------
# global stats and reports
# ---------------------------------------------------------------------------


def test_write_global_report(tmp_path, monkeypatch):
    import json

    monkeypatch.setenv(check.ENV_VAR, "collect:twin=0")
    check.clear_configuration()
    engine = _fig2_engine(
        _RiggedScheduler(lambda view, rates: {10**9: 1.0})
    )
    engine.run()
    path = tmp_path / "report.json"
    check.write_global_report(str(path))
    document = json.loads(path.read_text())
    assert document["config"]["mode"] == "collect"
    assert document["stats"]["sanitizers"] == 1
    assert document["stats"]["total"] > 0
    assert document["stats"]["by_invariant"] == {
        "rate_sanity": document["stats"]["total"]
    }


def test_sanitizer_section_in_metrics_report():
    from repro.obs import Instrumentation, build_metrics_report

    obs = Instrumentation()
    engine = _fig2_engine(
        EchelonMaddScheduler(),
        sanitizer="strict:twin=1.0",
        instrumentation=obs,
    )
    trace = engine.run()
    report = build_metrics_report(trace, instrumentation=obs, sanitizer=engine.check)
    assert report["sanitizer"]["total"] == 0
    assert report["sanitizer"]["mode"] == "strict"
    assert report["sanitizer"]["twin"]["comparisons"] > 0


# ---------------------------------------------------------------------------
# pytest plugin fixtures
# ---------------------------------------------------------------------------


def test_repro_check_strict_fixture(repro_check_strict):
    engine = _fig2_engine(EchelonMaddScheduler())
    assert engine.check is not None
    assert engine.check.config.strict
    assert engine.check.config.twin_sample == 1.0
    engine.run()
    assert engine.check.violation_count == 0
