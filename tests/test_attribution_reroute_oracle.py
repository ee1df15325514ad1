"""The attribution sweep on rerouted flows, against an all-pairs oracle.

A fault can migrate a flow mid-life (``FlowFact.path_epochs``). A
contender then counts against a victim only while both were pinned to
the victim's bottleneck link, and the victim's own share covers its
whole lifetime. The oracle below integrates, for every delivered flow,
every flow that was ever pinned to its bottleneck, over every pair of
(victim, contender) pinned spans on that link, in the order the sweep
sums them. It is kept here and nowhere in ``src``.

Random runs on a quarter-second grid give most flows one to three path
epochs, switched inside their lifetimes, so victims and contenders move
on and off each other's bottlenecks while still sending; a few flows
never move. ``attribute_run`` must match the oracle bit for bit.
"""

import random

import pytest

from repro.obs.diagnosis import RunArtifacts, attribute_run, bottleneck_of
from repro.obs.diagnosis.artifacts import FlowFact
from repro.obs.diagnosis.attribution import FlowAttribution, overlap_integral

_INF = float("inf")
_LINKS = {f"s{i}->s{i + 1}": float(1 + i % 2) for i in range(5)}


def _spans_on(flow, key):
    """(since, until) of every epoch whose path crosses ``key``."""
    if not flow.path_epochs:
        return [(-_INF, _INF)]
    epochs = flow.path_epochs
    out = []
    for i, (since, path) in enumerate(epochs):
        until = epochs[i + 1][0] if i + 1 < len(epochs) else _INF
        if any(hop == key for hop, _ in path):
            out.append((since, until))
    return out


def _ever_on(flow, key):
    paths = [path for _, path in flow.path_epochs] or [flow.path]
    return any(hop == key for path in paths for hop, _ in path)


def _oracle_flow(flow, delivered):
    out = FlowAttribution(
        flow_id=flow.flow_id,
        stage=flow.stage,
        job=flow.job,
        group=flow.group,
        start=flow.start,
        finish=flow.finish,
        ideal_finish=flow.ideal_finish,
        tardiness=flow.tardiness,
        bottleneck=None,
        bottleneck_capacity=None,
    )
    hop = bottleneck_of(flow)
    if hop is None:
        return out
    key, capacity = hop
    out.bottleneck = key
    out.bottleneck_capacity = capacity
    lo, hi = flow.start, flow.finish
    ideal_duration = flow.size / capacity
    out.stretch = (hi - lo) - ideal_duration
    if flow.ideal_finish is not None:
        out.upstream = (lo + ideal_duration) - flow.ideal_finish
    windows = [(max(a, lo), min(b, hi)) for a, b in _spans_on(flow, key)]
    used = 0.0
    for other in delivered:
        if not _ever_on(other, key):
            continue
        if other.flow_id == flow.flow_id:
            used += overlap_integral(other.segments, lo, hi)
            continue
        share = 0.0
        for a, b in windows:
            for c, d in _spans_on(other, key):
                left, right = max(a, c), min(b, d)
                if right > left:
                    share += overlap_integral(other.segments, left, right)
        if share <= 0.0:
            continue
        used += share
        seconds = share / capacity
        out.contention[other.stage] = out.contention.get(other.stage, 0.0) + seconds
        job = other.job or "?"
        out.contention_by_job[job] = out.contention_by_job.get(job, 0.0) + seconds
    out.residual = (hi - lo) - used / capacity
    if out.upstream is not None:
        out.explained = out.upstream + out.contention_total + out.residual
    return out


def _grid(rng, lo, hi):
    return rng.randint(int(lo * 4), int(hi * 4)) / 4.0


def _path(rng, keys):
    return tuple((key, _LINKS[key]) for key in rng.sample(keys, rng.randint(1, 3)))


def _random_run(seed, n=40):
    rng = random.Random(seed)
    keys = sorted(_LINKS)
    artifacts = RunArtifacts()
    for fid in range(n):
        start = _grid(rng, 0.0, 6.0)
        segments = []
        t = start
        for _ in range(rng.randint(1, 5)):
            begin = t + rng.choice((0.0, 0.0, 0.25))
            end = begin + rng.choice((0.25, 0.5, 1.0))
            segments.append([begin, end, rng.choice((0.5, 1.0, 2.0))])
            t = end
        finish = t
        path = _path(rng, keys)
        epochs = ()
        if fid % 5:
            moves = sorted(
                {_grid(rng, start, finish) for _ in range(rng.randint(1, 2))}
            )
            epochs = ((-_INF, path),)
            for since in moves:
                path = _path(rng, keys)
                epochs += ((since, path),)
        artifacts.flows[fid] = FlowFact(
            flow_id=fid,
            size=rng.choice((0.5, 1.0, 2.0)),
            group=f"g{fid % 4}",
            index=fid % 3,
            job=rng.choice(("j0", "j1", "j2")),
            tag=rng.choice(("", "stage-a", "stage-b")),
            start=start,
            finish=finish,
            ideal_finish=rng.choice((None, start + 0.5, start + 2.0)),
            path=path,
            segments=segments,
            path_epochs=epochs,
        )
    return artifacts


@pytest.mark.parametrize("seed", range(30))
def test_rerouted_sweep_matches_all_pairs_oracle(seed):
    artifacts = _random_run(seed)
    delivered = artifacts.delivered_flows()
    expected = [_oracle_flow(flow, delivered).to_dict() for flow in delivered]
    result = attribute_run(artifacts)
    got = [attr.to_dict() for attr in result["flows"]]
    # repr keeps dict order and full float precision.
    assert repr(got) == repr(expected)
    # The runs exercise what the epochs decide: contention that a flow
    # never pinned to the link for the whole overlap still earns.
    assert any(attr.contention for attr in result["flows"])
    assert sum(1 for flow in delivered if flow.path_epochs) > len(delivered) // 2
