"""What-if tardiness reuses the baseline's value for settled groups.

``WhatIfService`` answers each query with every EchelonFlow's Eq. 2
tardiness in the variant. A group whose members all finished before the
query's intervention replays unchanged in the variant, so the service
takes its value from the baseline and evaluates only the other groups.
The oracle below is the full evaluation the service made before: every
group of the variant, over all its members, on the variant's whole
trace. Both must be ``==`` on every query of warm batches covering all
five query kinds, and on a cold replay of each kind.
"""

import pytest

from repro.whatif import WhatIfService


def _oracle(engine):
    finishes = engine.trace.actual_finish_times()
    out = {}
    for ef_id, group in engine.echelonflows.items():
        try:
            out[ef_id] = group.tardiness(finishes)
        except (KeyError, ValueError):
            continue
    return out


_QUERIES = [
    "degrade_link:h1-core@45%+8%,factor=0.5",
    "degrade_link:h1-core@80%+8%,factor=0.25",
    "kill_link:h2-core@55%+5%",
    "kill_link:h2-core@90%+5%",
    "submit_job:dp@60%",
    "submit_job:dp@85%",
    "add_tenant:fsdp@70%,jobs=2",
    "add_tenant:fsdp@95%,jobs=2",
]


@pytest.fixture(scope="module")
def service():
    return WhatIfService.build(hosts=16, jobs=6, iterations=2, sanitizer=False)


@pytest.fixture
def checked(monkeypatch):
    """Compare every variant's tardiness map with the oracle's."""
    original = WhatIfService._tardiness_map
    seen = {"queries": 0, "settled": 0, "evaluated": 0}

    def check(self, engine, when):
        fast = original(self, engine, when)
        oracle = _oracle(engine)
        assert fast == oracle
        assert list(fast) == list(oracle)
        seen["queries"] += 1
        for ef_id in fast:
            last = self._settled.get(ef_id)
            if last is not None and last < when:
                seen["settled"] += 1
            else:
                seen["evaluated"] += 1
        return fast

    monkeypatch.setattr(WhatIfService, "_tardiness_map", check)
    return seen


def _remove_last(service):
    arrivals = service.arrivals
    last = max(arrivals, key=lambda job: (arrivals[job], job))
    return f"remove_job:{last}@{0.5 * arrivals[last]:.6f}"


def test_warm_batches_match_the_oracle(service, checked):
    batch = _QUERIES + [_remove_last(service)]
    service.run_batch(batch, detail="deltas")
    # The same questions again: forks now start from cached handles.
    service.run_batch(batch, detail="deltas")
    assert checked["queries"] == 2 * len(batch)
    assert checked["settled"] > 0
    assert checked["evaluated"] > 0


@pytest.mark.parametrize(
    "spec",
    [
        "degrade_link:h1-core@60%+8%,factor=0.5",
        "kill_link:h2-core@60%+5%",
        "submit_job:dp@60%",
        "add_tenant:fsdp@60%,jobs=2",
        None,
    ],
)
def test_cold_replays_match_the_oracle(service, checked, spec):
    result = service.run_query(
        spec or _remove_last(service), mode="cold", detail="deltas"
    )
    assert checked["queries"] == 1
    if spec is not None:
        assert checked["settled"] > 0
    assert result.tardiness
