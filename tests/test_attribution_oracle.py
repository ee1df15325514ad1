"""The attribution sweep against an all-pairs oracle on random flows.

``attribute_run`` integrates a contender on a victim's bottleneck link
only when the contender's recorded extent overlaps the victim's
lifetime. A skipped contender would have contributed exactly ``0.0``, so
the pruned sweep must reproduce the all-pairs scan bit for bit. The
oracle below is that scan, kept here and nowhere in ``src``: for every
delivered flow, integrate every flow that ever crossed its bottleneck.

Random runs are built directly as :class:`RunArtifacts` on a quarter-
second grid, so segment ends touch other flows' starts exactly; they mix
zero-length segments, multi-hop paths with capacity ties, flows without
segments, paths or deadlines, undelivered flows, and one long-lived
contender that spans every other flow.
"""

import random

import pytest

from repro.obs.diagnosis import RunArtifacts, attribute_run, bottleneck_of
from repro.obs.diagnosis import attribution
from repro.obs.diagnosis.artifacts import FlowFact
from repro.obs.diagnosis.attribution import FlowAttribution, overlap_integral

_LINKS = {f"s{i}->s{i + 1}": float(1 + i % 3) for i in range(6)}


def _oracle_flow(flow, on_link):
    """The all-pairs contender scan, as ``attribute_flow`` was written."""
    out = FlowAttribution(
        flow_id=flow.flow_id,
        stage=flow.stage,
        job=flow.job,
        group=flow.group,
        start=flow.start if flow.start is not None else 0.0,
        finish=flow.finish if flow.finish is not None else 0.0,
        ideal_finish=flow.ideal_finish,
        tardiness=flow.tardiness,
        bottleneck=None,
        bottleneck_capacity=None,
    )
    hop = bottleneck_of(flow)
    if hop is None or flow.finish is None or flow.start is None:
        return out
    key, capacity = hop
    out.bottleneck = key
    out.bottleneck_capacity = capacity
    if capacity <= 0 or flow.size is None:
        return out
    lo, hi = flow.start, flow.finish
    duration = hi - lo
    ideal_duration = flow.size / capacity
    out.stretch = duration - ideal_duration
    if flow.ideal_finish is not None:
        out.upstream = (lo + ideal_duration) - flow.ideal_finish
    used = 0.0
    for other in on_link.get(key, ()):
        if other.flow_id == flow.flow_id:
            used += overlap_integral(other.segments, lo, hi)
            continue
        share = overlap_integral(other.segments, lo, hi)
        if share <= 0.0:
            continue
        used += share
        seconds = share / capacity
        out.contention[other.stage] = out.contention.get(other.stage, 0.0) + seconds
        job = other.job or "?"
        out.contention_by_job[job] = out.contention_by_job.get(job, 0.0) + seconds
    out.residual = duration - used / capacity
    if out.upstream is not None:
        out.explained = out.upstream + out.contention_total + out.residual
    return out


def _grid(rng, lo, hi):
    return rng.randint(int(lo * 4), int(hi * 4)) / 4.0


def _random_run(seed, n=40):
    rng = random.Random(seed)
    keys = sorted(_LINKS)
    artifacts = RunArtifacts()
    for fid in range(n):
        hops = rng.sample(keys, rng.randint(1, 3))
        start = _grid(rng, 0.0, 8.0)
        segments = []
        t = start
        for _ in range(rng.randint(0, 4)):
            begin = t + rng.choice((0.0, 0.0, 0.25, 0.5))
            end = begin + rng.choice((0.0, 0.25, 0.5, 1.0, 1.75))
            segments.append([begin, end, rng.choice((0.5, 1.0, 1.5, 3.0))])
            t = end
        finish = t + rng.choice((0.0, 0.0, 0.25))
        artifacts.flows[fid] = FlowFact(
            flow_id=fid,
            size=rng.choice((0.5, 1.0, 2.0, None)) if fid % 7 else 1.0,
            group=f"g{fid % 5}" if fid % 3 else None,
            index=fid % 4,
            job=rng.choice(("j0", "j1", None)),
            tag=rng.choice(("", "", "stage-a", "stage-b")),
            start=start,
            finish=None if fid % 11 == 10 else finish,
            ideal_finish=rng.choice((None, start, start + 0.5, start + 2.0)),
            path=() if fid % 13 == 12 else tuple((key, _LINKS[key]) for key in hops),
            segments=segments,
        )
    # One long-lived contender on every link, spanning every other flow.
    artifacts.flows[n] = FlowFact(
        flow_id=n,
        size=30.0,
        job="bulk",
        tag="bulk",
        start=0.0,
        finish=30.0,
        ideal_finish=10.0,
        path=tuple(_LINKS.items()),
        segments=[[0.0, 20.0, 0.25], [20.0, 30.0, 1.0]],
    )
    return artifacts


def _oracle_run(artifacts):
    on_link = artifacts.flows_on_link()
    return [_oracle_flow(flow, on_link) for flow in artifacts.delivered_flows()]


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_all_pairs_oracle(seed):
    artifacts = _random_run(seed)
    result = attribute_run(artifacts)
    expected = [attr.to_dict() for attr in _oracle_run(artifacts)]
    got = [attr.to_dict() for attr in result["flows"]]
    # repr keeps dict order (contention ties sort by first appearance)
    # and full float precision.
    assert repr(got) == repr(expected)
    assert any(attr.contention for attr in result["flows"])


def test_group_view_matches_oracle_stragglers():
    artifacts = _random_run(3, n=80)
    result = attribute_run(artifacts)
    oracle = {attr.flow_id: attr.to_dict() for attr in _oracle_run(artifacts)}
    assert result["echelonflows"]
    for entry in result["echelonflows"].values():
        straggler = entry["straggler_attribution"]
        assert straggler == oracle[straggler["flow_id"]]


def _overlapping_pairs(artifacts):
    """Victims plus (victim, contender) pairs whose extents overlap."""
    on_link = artifacts.flows_on_link()
    count = 0
    for flow in artifacts.delivered_flows():
        hop = bottleneck_of(flow)
        if hop is None or hop[1] <= 0 or flow.size is None:
            continue
        count += 1  # the victim's own share
        for other in on_link.get(hop[0], ()):
            if other.flow_id == flow.flow_id or not other.segments:
                continue
            left = max(flow.start, other.segments[0][0])
            right = min(flow.finish, other.segments[-1][1])
            if right > left:
                count += 1
    return count


@pytest.mark.parametrize("seed", range(5))
def test_integrates_only_overlapping_pairs(seed, monkeypatch):
    artifacts = _random_run(seed, n=120)
    calls = []

    def counting(segments, lo, hi):
        calls.append((lo, hi))
        return overlap_integral(segments, lo, hi)

    monkeypatch.setattr(attribution, "overlap_integral", counting)
    attribute_run(artifacts)
    assert len(calls) == _overlapping_pairs(artifacts)
    all_pairs = sum(
        len(artifacts.flows_on_link().get(attr.bottleneck, ()))
        for attr in _oracle_run(artifacts)
        if attr.residual is not None
    )
    assert len(calls) < all_pairs
