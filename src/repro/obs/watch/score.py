"""Score the watch loop against the chaos layer's ground truth.

For every :class:`~repro.obs.watch.scenarios.Scenario` the grader runs
the instrumented simulation with a live watch loop attached and measures
the four metric families ``repro aiops score`` reports:

* **detection latency** -- sim-time from fault onset to the first
  anomaly (absolute, and as a fraction of the scenario's nominal JCT);
* **localization accuracy** -- whether the *first* post-onset
  localization names the injected cause top-1 / within the top-3
  (either direction of a duplex link counts; ``crash_scheduler``
  expects the ``scheduler`` candidate);
* **false positives** -- anomalies on the grid's fault-free runs
  (the clean sweep must stay at zero);
* **recovered JCT** -- for fault scenarios, a second run with
  mitigation enabled; recovery is the JCT delta between the
  unmitigated and mitigated faulty runs (positive = mitigation helped).

Ground truth enters *only* here, via
:meth:`~repro.faults.FaultSchedule.ground_truth` -- the detectors and
localizer never see fault payloads (see :mod:`repro.obs.watch.stream`).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

from ...analysis import job_completion_time
from .channel import NoiseSpec, TelemetryChannel, parse_noise_spec
from .detectors import WatchConfig, noise_hardened_config
from .scenarios import (
    SMOKE_KINDS,
    SMOKE_PARADIGMS,
    Scenario,
    _JOB_ID,
    build_scenarios,
    make_engine,
)
from .watch import WatchLoop

#: Report schema version, bumped on incompatible layout changes.
AIOPS_SCORE_VERSION = 2


def scenario_seed(name: str, seed: int = 0) -> int:
    """Per-scenario channel seed: stable, but distinct across scenarios.

    Mixing the scenario name in keeps one grid seed from giving every
    scenario the identical loss pattern (which would correlate failures
    across the whole grid), while staying reproducible run-to-run.
    """
    return (zlib.crc32(name.encode("utf-8")) ^ (seed & 0xFFFFFFFF)) & 0xFFFFFFFF


def _noise_spec(noise) -> Optional[NoiseSpec]:
    spec = parse_noise_spec(noise)
    return None if spec.is_noop else spec


def _make_channel(
    noise, scenario: Scenario, seed: int
) -> Optional[TelemetryChannel]:
    spec = _noise_spec(noise)
    if spec is None:
        return None
    return TelemetryChannel(spec, seed=scenario_seed(scenario.name, seed))


def run_scenario(
    scenario: Scenario,
    config: Optional[WatchConfig] = None,
    mitigate: bool = False,
    sanitizer=None,
    noise=None,
    seed: int = 0,
) -> Dict:
    """One instrumented run with a live watch loop attached.

    ``noise`` (a spec string or :class:`NoiseSpec`) interposes a
    :class:`TelemetryChannel` between the event log and the loop; the
    channel is seeded from ``(scenario name, seed)`` so a grid run is
    reproducible end to end. With no explicit ``config`` the detectors
    take :func:`noise_hardened_config` for the channel in play, which is
    the plain default config whenever the channel is clean.
    """
    from ..instrumentation import Instrumentation
    from ..jsonl import JsonlEventLog

    if config is None:
        config = noise_hardened_config(_noise_spec(noise))
    log = JsonlEventLog()
    obs = Instrumentation(event_log=log, log_link_samples=True)
    engine = make_engine(
        scenario.paradigm,
        scenario.scheduler,
        faults=scenario.schedule,
        instrumentation=obs,
        sanitizer=sanitizer,
        neighbor_at=(
            scenario.fault_at if scenario.neighbor is not None else None
        ),
    )
    loop = WatchLoop(config)
    loop.attach(
        log,
        engine=engine,
        mitigate=mitigate,
        heartbeat=scenario.heartbeat,
        channel=_make_channel(noise, scenario, seed),
    )
    trace = engine.run()
    loop.finish()
    return {
        "loop": loop,
        "jct": job_completion_time(trace, _JOB_ID),
        "log": log,
        "engine": engine,
    }


def _candidate_hits(candidates: Sequence[Dict], truth: Sequence[Dict]) -> bool:
    for candidate in candidates:
        for entry in truth:
            if entry["kind"] == "scheduler":
                if candidate["kind"] == "scheduler":
                    return True
            elif (
                candidate["kind"] == entry["kind"]
                and candidate["target"] in entry["targets"]
            ):
                return True
    return False


def _cause_matches(claim: Dict, entry: Dict) -> bool:
    """One fault-set claim vs one ground-truth entry."""
    if entry["kind"] == "scheduler":
        return claim["kind"] == "scheduler"
    if claim["kind"] != entry["kind"]:
        return False
    return any(target in entry["targets"] for target in claim["targets"])


def grade_fault_sets(
    localizations: Sequence[Dict], truth: Sequence[Dict], nominal_jct: float
) -> Dict:
    """Per-fault precision/recall + latency from claimed fault sets.

    The claims are the union of every localization's ``fault_set``
    entries over the run (a cascade's causes surface one at a time), so
    a spurious cause claimed anywhere costs precision, a truth entry
    never claimed costs recall, and each matched entry's latency runs
    from its injection to the first fault set that named it.
    """
    claims: Dict[str, Dict] = {}
    for localization in localizations:
        for entry in localization.get("fault_set") or ():
            claim = claims.setdefault(
                entry["cause"],
                {
                    "kind": entry["kind"],
                    "targets": set(),
                    "first_t": localization["t"],
                },
            )
            claim["targets"].update(entry["targets"])
    matched_truth: Dict[int, float] = {}
    matched_claims = set()
    for index, entry in enumerate(truth):
        for cause, claim in claims.items():
            if _cause_matches(claim, entry):
                matched_claims.add(cause)
                best = matched_truth.get(index)
                latency = max(0.0, claim["first_t"] - entry["time"])
                if best is None or latency < best:
                    matched_truth[index] = latency
    row: Dict = {
        "claimed": sorted(claims),
        "claims": len(claims),
        "matched_claims": len(matched_claims),
        "matched": len(matched_truth),
        "faults": len(truth),
        "precision": (
            len(matched_claims) / len(claims) if claims else None
        ),
        "recall": len(matched_truth) / len(truth) if truth else None,
        "per_fault": [
            {
                "kind": entry["kind"],
                "action": entry["action"],
                "targets": entry["targets"],
                "time": entry["time"],
                "claimed": index in matched_truth,
                "latency": matched_truth.get(index),
                "latency_frac": (
                    matched_truth[index] / nominal_jct
                    if index in matched_truth and nominal_jct > 0
                    else None
                ),
            }
            for index, entry in enumerate(truth)
        ],
    }
    return row


def grade_scenario(
    scenario: Scenario,
    config: Optional[WatchConfig] = None,
    mitigate: bool = True,
    sanitizer=None,
    noise=None,
    seed: int = 0,
) -> Dict:
    """Run and score one scenario; returns a flat JSON-able row."""
    base = run_scenario(
        scenario,
        config,
        mitigate=False,
        sanitizer=sanitizer,
        noise=noise,
        seed=seed,
    )
    loop: WatchLoop = base["loop"]
    row: Dict = {
        "scenario": scenario.name,
        "paradigm": scenario.paradigm,
        "fault_kind": scenario.fault_kind,
        "scheduler": scenario.scheduler,
        "nominal_jct": scenario.nominal_jct,
        "jct": base["jct"],
        "anomalies": len(loop.anomalies),
        "anomaly_detectors": sorted(
            {a["detector"] for a in loop.anomalies}
        ),
    }
    truth = scenario.ground_truth()
    if not truth:
        # Clean run: every anomaly is by definition a false positive.
        row["false_positives"] = len(loop.anomalies)
        return row
    fault_time = min(entry["time"] for entry in truth)
    row["fault_time"] = fault_time
    first_index = next(
        (
            i
            for i, anomaly in enumerate(loop.anomalies)
            if anomaly["t"] >= fault_time
        ),
        None,
    )
    row["premature_anomalies"] = (
        len(loop.anomalies) if first_index is None else first_index
    )
    row["detected"] = first_index is not None
    if first_index is not None:
        anomaly = loop.anomalies[first_index]
        localization = loop.localizations[first_index]
        latency = anomaly["t"] - fault_time
        row["detection_latency"] = latency
        row["detection_latency_frac"] = latency / scenario.nominal_jct
        row["first_detector"] = anomaly["detector"]
        candidates = localization.get("candidates") or ()
        row["top_candidate"] = (
            {k: candidates[0][k] for k in ("kind", "target", "score")}
            if candidates
            else None
        )
        row["top1"] = _candidate_hits(candidates[:1], truth)
        row["top3"] = _candidate_hits(candidates[:3], truth)
    row["fault_sets"] = grade_fault_sets(
        loop.localizations, truth, scenario.nominal_jct
    )
    if mitigate:
        mitigated = run_scenario(
            scenario,
            config,
            mitigate=True,
            sanitizer=sanitizer,
            noise=noise,
            seed=seed,
        )
        actions = mitigated["loop"].mitigator.actions
        row["jct_mitigated"] = mitigated["jct"]
        row["recovered_jct"] = base["jct"] - mitigated["jct"]
        row["mitigations"] = actions
        row["mitigation_applied"] = any(a.get("applied") for a in actions)
    return row


def aiops_score(
    paradigms: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    scheduler: str = "echelon",
    mitigate: bool = True,
    config: Optional[WatchConfig] = None,
    smoke: bool = False,
    sanitizer=None,
    noise=None,
    seed: int = 0,
) -> Dict:
    """Grade the scenario grid; the ``repro aiops score`` report.

    Scenario order is deterministic (paradigm-major, then fault kind)
    and each scenario's telemetry channel is seeded from its name and
    ``seed``, so grids are reproducible and resumable per (noise, seed).
    """
    if smoke:
        paradigms = paradigms if paradigms is not None else SMOKE_PARADIGMS
        kinds = kinds if kinds is not None else SMOKE_KINDS
    scenarios = build_scenarios(paradigms, kinds, scheduler)
    rows = [
        grade_scenario(
            s,
            config,
            mitigate=mitigate,
            sanitizer=sanitizer,
            noise=noise,
            seed=seed,
        )
        for s in scenarios
    ]
    clean = [r for r in rows if "false_positives" in r]
    faulty = [r for r in rows if "detected" in r]
    detected = [r for r in faulty if r["detected"]]
    summary: Dict = {
        "scenarios": len(rows),
        "detection": {
            "faulty_runs": len(faulty),
            "detected": len(detected),
            "rate": len(detected) / len(faulty) if faulty else None,
            "mean_latency": (
                sum(r["detection_latency"] for r in detected) / len(detected)
                if detected
                else None
            ),
            "mean_latency_frac": (
                sum(r["detection_latency_frac"] for r in detected)
                / len(detected)
                if detected
                else None
            ),
        },
        "localization": {
            "scored": len(detected),
            "top1": sum(1 for r in detected if r["top1"]),
            "top3": sum(1 for r in detected if r["top3"]),
            "top1_accuracy": (
                sum(1 for r in detected if r["top1"]) / len(detected)
                if detected
                else None
            ),
            "top3_accuracy": (
                sum(1 for r in detected if r["top3"]) / len(detected)
                if detected
                else None
            ),
        },
        "false_positive": {
            "clean_runs": len(clean),
            "false_positives": sum(r["false_positives"] for r in clean),
            "rate": (
                sum(1 for r in clean if r["false_positives"]) / len(clean)
                if clean
                else None
            ),
        },
    }
    graded_sets = [r["fault_sets"] for r in faulty if r.get("fault_sets")]
    total_claims = sum(g["claims"] for g in graded_sets)
    total_faults = sum(g["faults"] for g in graded_sets)
    summary["fault_sets"] = {
        "faults": total_faults,
        "matched": sum(g["matched"] for g in graded_sets),
        "claims": total_claims,
        "matched_claims": sum(g["matched_claims"] for g in graded_sets),
        "precision": (
            sum(g["matched_claims"] for g in graded_sets) / total_claims
            if total_claims
            else None
        ),
        "recall": (
            sum(g["matched"] for g in graded_sets) / total_faults
            if total_faults
            else None
        ),
    }
    if mitigate:
        summary["mitigation"] = {
            "attempted": len(faulty),
            "applied": sum(1 for r in faulty if r.get("mitigation_applied")),
            "recovered_jct_total": sum(
                r.get("recovered_jct", 0.0) for r in faulty
            ),
        }
    noise_spec = None if noise is None else parse_noise_spec(noise).describe()
    return {
        "version": AIOPS_SCORE_VERSION,
        "scheduler": scheduler,
        "smoke": smoke,
        "noise": noise_spec,
        "seed": seed,
        "summary": summary,
        "rows": rows,
    }


def render_score(report: Dict) -> str:
    """Human-readable table + summary for ``repro aiops score``."""
    lines: List[str] = []
    header = (
        f"{'scenario':<22}{'anoms':>6}{'det':>5}{'latency':>10}"
        f"{'top1':>6}{'top3':>6}{'FP':>4}{'recovered':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["rows"]:
        if "false_positives" in row:
            detected = latency = top1 = top3 = "-"
            fp = str(row["false_positives"])
            recovered = "-"
        else:
            detected = "yes" if row["detected"] else "NO"
            latency = (
                f"{row['detection_latency']:.3f}" if row["detected"] else "-"
            )
            top1 = ("Y" if row["top1"] else "n") if row["detected"] else "-"
            top3 = ("Y" if row["top3"] else "n") if row["detected"] else "-"
            fp = "-"
            recovered = (
                f"{row['recovered_jct']:+.3f}"
                if "recovered_jct" in row
                else "-"
            )
        lines.append(
            f"{row['scenario']:<22}{row['anomalies']:>6}{detected:>5}"
            f"{latency:>10}{top1:>6}{top3:>6}{fp:>4}{recovered:>11}"
        )
    summary = report["summary"]
    det = summary["detection"]
    loc = summary["localization"]
    fp = summary["false_positive"]
    lines.append("")
    if det["faulty_runs"]:
        lines.append(
            f"detection: {det['detected']}/{det['faulty_runs']}"
            + (
                f", mean latency {det['mean_latency']:.3f}s"
                f" ({det['mean_latency_frac']:.1%} of nominal JCT)"
                if det["detected"]
                else ""
            )
        )
        lines.append(
            f"localization: top-1 {loc['top1']}/{loc['scored']}"
            f" ({loc['top1_accuracy']:.0%}), top-3 {loc['top3']}/{loc['scored']}"
            f" ({loc['top3_accuracy']:.0%})"
            if loc["scored"]
            else "localization: no detections to score"
        )
    if fp["clean_runs"]:
        lines.append(
            f"false positives: {fp['false_positives']} across "
            f"{fp['clean_runs']} clean runs"
        )
    sets = summary.get("fault_sets") or {}
    if sets.get("faults"):
        lines.append(
            f"fault sets: precision {sets['precision']:.0%}"
            f" ({sets['matched_claims']}/{sets['claims']} claims),"
            f" recall {sets['recall']:.0%}"
            f" ({sets['matched']}/{sets['faults']} faults)"
        )
    if "mitigation" in summary:
        mit = summary["mitigation"]
        lines.append(
            f"mitigation: applied in {mit['applied']}/{mit['attempted']}"
            f" faulty runs, recovered {mit['recovered_jct_total']:+.3f}s JCT"
        )
    if report.get("noise"):
        lines.append(f"noise: {report['noise']} (seed {report.get('seed', 0)})")
    return "\n".join(lines)
