#!/usr/bin/env python
"""E28 -- control-plane chaos suite: crash, partition, and lossy-RPC runs.

Drives the fault-tolerant runtime (:mod:`repro.system.runtime`) through
every control-plane failure scenario and grades the outcome. The quality
bars enforced on every pass mirror the ISSUE 10 acceptance criteria:

* **completion** -- every job completes in every scenario (quarantine
  and degraded-mode scheduling never stall a flow);
* **bounded inflation** -- per-scenario JCT inflation stays at or below
  ``INFLATION_BOUND`` (1.5x) over the fault-free baseline;
* **bit-identity** -- the identity-channel baseline reproduces the
  pinned trace digest (``chaos.BASELINE_DIGEST``), byte for byte;
* **determinism** -- every scenario digests identically when re-run
  with the same ``(spec, seed)``.

Runs both ways:

* under pytest-benchmark (the ``test_*`` functions; writes
  ``benchmarks/results/E28_control_plane.txt``), and
* standalone::

      PYTHONPATH=src python benchmarks/bench_control_plane.py          # full suite
      PYTHONPATH=src python benchmarks/bench_control_plane.py --smoke  # CI guard

``--smoke`` runs the reduced scenario set and pins per-scenario facts
(mode, completion, inflation) against
``benchmarks/results/bench_control_plane_baseline.json``; exit code 1 on
any regression. Everything is seeded, so the whole suite is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.system.runtime import format_chaos_table, run_chaos_suite

RESULTS_DIR = ROOT / "benchmarks" / "results"
BASELINE_PATH = RESULTS_DIR / "bench_control_plane_baseline.json"

SEED = 0
#: The ISSUE 10 acceptance bound: per-job JCT inflation over the
#: fault-free baseline, per scenario.
INFLATION_BOUND = 1.5
#: Allowed drift of a pinned inflation factor before it counts as a
#: regression (the suite is deterministic; drift means code changed).
INFLATION_TOLERANCE = 0.05


def run_suite(smoke: bool = False) -> dict:
    return run_chaos_suite(
        smoke=smoke, seed=SEED, inflation_bound=INFLATION_BOUND,
        sanitizer=False,
    )


def check_suite(report: dict) -> list:
    """The invariants every pass must satisfy (suite-internal checks
    re-stated here so a bench failure names the broken bar)."""
    problems = []
    for row in report["scenarios"]:
        name = row["scenario"]
        if not row["all_jobs_completed"]:
            problems.append(
                f"{name}: only {row['completed']} jobs completed"
            )
        if not row["inflation_ok"]:
            problems.append(
                f"{name}: JCT inflation {row['max_inflation']:.3f}x "
                f"exceeds the {INFLATION_BOUND:g}x bound"
            )
        if not row["deterministic"]:
            problems.append(f"{name}: two runs of one (spec, seed) diverged")
        if not row.get("bit_identical", True):
            problems.append(
                f"{name}: identity-channel digest differs from the "
                "pinned baseline digest"
            )
    return problems


def _suite_facts(report: dict) -> dict:
    """The per-scenario facts the baseline pins down."""
    return {
        row["scenario"]: {
            "mode": row["mode"],
            "completed": row["completed"],
            "max_inflation": row["max_inflation"],
        }
        for row in report["scenarios"]
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_control_plane_smoke(benchmark):
    report = benchmark.pedantic(
        run_suite, args=(True,), rounds=1, iterations=1
    )
    problems = check_suite(report)
    assert not problems, "\n".join(problems)
    assert report["ok"]


def test_control_plane_full(benchmark, report):
    suite = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report("E28_control_plane", format_chaos_table(suite))
    problems = check_suite(suite)
    assert not problems, "\n".join(problems)
    assert suite["ok"]


# ----------------------------------------------------------------------
# standalone main (--smoke is the CI guard)
# ----------------------------------------------------------------------


def smoke() -> int:
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        print(
            f"[bench_control_plane] missing baseline {BASELINE_PATH}",
            file=sys.stderr,
        )
        return 1
    suite = run_suite(smoke=True)
    problems = check_suite(suite)
    facts = _suite_facts(suite)
    for name, fact in sorted(facts.items()):
        pinned = baseline["scenarios"].get(name)
        if pinned is None:
            problems.append(f"baseline lacks scenario {name}")
            continue
        drift = abs(fact["max_inflation"] - pinned["max_inflation"])
        ok = (
            fact["mode"] == pinned["mode"]
            and fact["completed"] == pinned["completed"]
            and drift <= INFLATION_TOLERANCE
        )
        print(
            f"[bench_control_plane] {name}: mode={fact['mode']} "
            f"jobs={fact['completed']} "
            f"inflation={fact['max_inflation']:.3f}x "
            f"(baseline {pinned['max_inflation']:.3f}x) "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            problems.append(
                f"{name}: mode={fact['mode']}/completed={fact['completed']}/"
                f"inflation={fact['max_inflation']:.3f} vs baseline "
                f"mode={pinned['mode']}/completed={pinned['completed']}/"
                f"inflation={pinned['max_inflation']:.3f}"
            )
    if problems:
        print(
            "[bench_control_plane] FAILED:\n  " + "\n  ".join(problems),
            file=sys.stderr,
        )
        return 1
    print("[bench_control_plane] smoke ok")
    return 0


def regen_baseline(path: Path) -> int:
    suite = run_suite(smoke=True)
    problems = check_suite(suite)
    if problems:
        print(
            "[bench_control_plane] refusing to pin a failing suite:\n  "
            + "\n  ".join(problems),
            file=sys.stderr,
        )
        return 1
    path.write_text(
        json.dumps(
            {
                "benchmark": "bench_control_plane",
                "seed": SEED,
                "inflation_bound": INFLATION_BOUND,
                "scenarios": _suite_facts(suite),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"[bench_control_plane] baseline written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic regression guard against the checked-in baseline",
    )
    parser.add_argument(
        "--regen-baseline",
        action="store_true",
        help=f"rewrite {BASELINE_PATH.name} from the current code",
    )
    args = parser.parse_args(argv)
    if args.regen_baseline:
        return regen_baseline(BASELINE_PATH)
    if args.smoke:
        return smoke()
    suite = run_suite()
    print(format_chaos_table(suite))
    problems = check_suite(suite)
    if problems:
        print(
            "[bench_control_plane] invariants FAILED:\n  "
            + "\n  ".join(problems),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
