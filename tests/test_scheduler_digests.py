"""Pinned schedules: every scheduler's per-flow records, by SHA-256.

The equivalence suites compare allocation modes with each other, so a
change that shifts every mode the same way passes them. This file pins
absolute results instead: each run below hashes its flow records (flow
id relative to the run's smallest, start, finish and ideal finish, at
full ``repr`` precision) and compares against a digest recorded before
the scheduler kernels were last rewritten. A mismatch means some flow
of some run now starts or finishes at a different float.

Runs cover every scheduler that reaches stage Gamma or greedy fill:

* a ``big_switch`` burst with registered multi-stage EchelonFlows plus
  ungrouped flows, under echelon (six orderings x two anchors x backfill
  on/off), coflow (backfill on/off), sincronia, edf-flow, sjf and fifo;
* four Table-1 jobs on ``fat_tree(4)`` with ECMP routing;
* the burst with one host link downed mid-run (stages whose links have
  no capacity get Gamma = inf) and later restored;
* the burst paused mid-run (after its last arrival), forked and resumed.
"""

import hashlib
import random

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.arrangement import StaggeredArrangement
from repro.core.echelonflow import EchelonFlow
from repro.core.flow import Flow
from repro.core.units import gbps
from repro.scheduling import ORDERINGS, make_scheduler
from repro.simulator import Engine
from repro.topology import big_switch, fat_tree
from repro.topology.routing import EcmpRouter
from repro.whatif.workload import build_paradigm_job


def _digest(trace) -> str:
    records = trace.flow_records
    base = min(record.flow.flow_id for record in records)
    normalized = sorted(
        (record.flow.flow_id - base, record.start, record.finish, record.ideal_finish)
        for record in records
    )
    return hashlib.sha256(repr(normalized).encode()).hexdigest()


def _burst_engine(scheduler, faults=None):
    """Staggered EchelonFlows (two or three flows per stage) plus
    ungrouped background flows, arriving over 0.3 s on 6 hosts."""
    rng = random.Random(13)
    hosts = [f"h{i}" for i in range(6)]
    engine = Engine(big_switch(6, 100.0), scheduler, faults=faults)
    for g in range(4):
        ef = EchelonFlow(
            f"ef{g}",
            StaggeredArrangement(0.05 * (g + 1)),
            job_id=f"job{g % 2}",
            weight=1.0 + g % 2,
        )
        engine.register_echelonflow(ef)
        start = round(rng.uniform(0.0, 0.3), 3)
        for i in range(7):
            src, dst = rng.sample(hosts, 2)
            flow = Flow(
                src,
                dst,
                rng.uniform(5.0, 40.0),
                group_id=ef.ef_id,
                index_in_group=i // 2 + i // 5,
                job_id=ef.job_id,
            )
            ef.add_flow(flow)
            engine.inject_background_flow(flow, at_time=start + 0.01 * (i // 3))
    for i in range(8):
        src, dst = rng.sample(hosts, 2)
        flow = Flow(src, dst, rng.uniform(1.0, 30.0), job_id=f"bg{i % 3}")
        engine.inject_background_flow(flow, at_time=round(rng.uniform(0.0, 0.4), 3))
    return engine


def _burst(scheduler, **kwargs):
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = _burst_engine(make_scheduler(scheduler, **kwargs))
    return _digest(engine.run())


def _fattree(scheduler):
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine = Engine(topology, make_scheduler(scheduler), router=EcmpRouter(topology))
        placements = (
            ("dp", ["h0", "h5", "h10", "h15"], 0.0),
            ("fsdp", ["h1", "h4", "h9", "h12"], 0.002),
            ("pp", ["h2", "h7", "h8", "h13"], 0.004),
            ("tp", ["h3", "h6", "h11", "h14"], 0.006),
        )
        for paradigm, workers, at in placements:
            job = build_paradigm_job(paradigm, f"{paradigm}-job", workers, layers=4)
            job.submit_to(engine, at_time=at)
    return _digest(engine.run())


def _link_down(scheduler, **kwargs):
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = _burst_engine(
            make_scheduler(scheduler, **kwargs),
            faults="link_down:h1-core@0.15+0.2",
        )
    return _digest(engine.run())


def _forked(scheduler, **kwargs):
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = _burst_engine(make_scheduler(scheduler, **kwargs))
    engine.run(until=0.5)  # after the last background arrival
    return _digest(engine.fork().run())


def _echelon_runs():
    for ordering in ORDERINGS:
        for anchor in ("arrangement", "flow_start"):
            for backfill in (True, False):
                kwargs = dict(ordering=ordering, anchor=anchor, backfill=backfill)
                name = f"burst/echelon/{ordering}/{anchor}/backfill={backfill}"
                yield name, (lambda kw=kwargs: _burst("echelon", **kw))


def _runs():
    runs = dict(_echelon_runs())
    for backfill in (True, False):
        runs[f"burst/coflow/backfill={backfill}"] = (
            lambda b=backfill: _burst("coflow", backfill=b)
        )
    for name in ("sincronia", "edf-flow", "sjf", "fifo"):
        runs[f"burst/{name}"] = lambda n=name: _burst(n)
    for name in ("echelon", "coflow"):
        runs[f"fattree/{name}"] = lambda n=name: _fattree(n)
    runs["link_down/echelon"] = lambda: _link_down("echelon")
    runs["link_down/echelon/backfill=False"] = lambda: _link_down(
        "echelon", backfill=False
    )
    runs["link_down/coflow"] = lambda: _link_down("coflow")
    runs["forked/echelon"] = lambda: _forked("echelon")
    runs["forked/coflow"] = lambda: _forked("coflow")
    return runs


RUNS = _runs()

#: Recorded before the column-indexed kernels replaced the Link-keyed ones.
DIGESTS = {
    "burst/coflow/backfill=False": (
        "a5973be6c22cf7ed338602664d2aa85428a236997edb280e8f3080268c832777"
    ),
    "burst/coflow/backfill=True": (
        "ef5b6d6909e6857d25aeb23af64fc6968bee68e9a42d01b0eade349073fea002"
    ),
    "burst/echelon/fifo/arrangement/backfill=False": (
        "ad8cc92220aec0903ac434a7ea383a8d8cd8f346161e90849321d0c92d754cc6"
    ),
    "burst/echelon/fifo/arrangement/backfill=True": (
        "3f06c911c3dafacd876e20bf47f33c9e18309449d7c0f1b5fc68c89703029aaa"
    ),
    "burst/echelon/fifo/flow_start/backfill=False": (
        "acf7f8811c3269677f464a9a9c61f923407eeb7c903f71520037ad0c439a1613"
    ),
    "burst/echelon/fifo/flow_start/backfill=True": (
        "b876a0c7c3c844368f90d96a16f5824839e6a42e9ab20c106d35e6351d6716c5"
    ),
    "burst/echelon/hybrid/arrangement/backfill=False": (
        "f796e3131e358e5ad2ff9de1a506cc8e4be8275a7f3b93432f1388393bc838e2"
    ),
    "burst/echelon/hybrid/arrangement/backfill=True": (
        "c02b5e9b63d0a00ec885f58abd3e2f0b5ae99bae1891da226d525fd50fb0d4dd"
    ),
    "burst/echelon/hybrid/flow_start/backfill=False": (
        "8b2dfcb02f5b2b2c32540a08ed3838c6a1134c12b9e28a0c99873ffd7a499396"
    ),
    "burst/echelon/hybrid/flow_start/backfill=True": (
        "76eaf503c6eddf0d1ac25ee78cda3edc81336eba05e7b3353ad2d3d2a208e627"
    ),
    "burst/echelon/projected/arrangement/backfill=False": (
        "fe7cf7681c0e95a664b5d0c0862f5436f1f35ce14ea80c5d1a054583388856db"
    ),
    "burst/echelon/projected/arrangement/backfill=True": (
        "957a2e4be2e3530894b69c432dcbf6fdd331fd9e0a0f9d232f8e85e86c136ba2"
    ),
    "burst/echelon/projected/flow_start/backfill=False": (
        "ad490f6896fffff213446ec7b5ee7c76cda884c22f3b5a168c917a1f7d07ae7f"
    ),
    "burst/echelon/projected/flow_start/backfill=True": (
        "0313e7237169866a9a9686740c2949509b87ee7114d25abb563b82392ba3efc9"
    ),
    "burst/echelon/sebf/arrangement/backfill=False": (
        "d99bc1019496bfeb807e9cf780110a7cf4d813746a3141b795c04c4a5634874c"
    ),
    "burst/echelon/sebf/arrangement/backfill=True": (
        "7ca29d55c05b713336b0cc085b1d2fcc14d21d3fa893ecb7d97b592273376a75"
    ),
    "burst/echelon/sebf/flow_start/backfill=False": (
        "61a7aa03fca20ba2f660c310546b4071c4e95515fb20c45b49d20e22294c34ec"
    ),
    "burst/echelon/sebf/flow_start/backfill=True": (
        "1d00ca52e8ad3500e8606aeadb015558dbf5707f48bcb876ed293ebdfaf874f5"
    ),
    "burst/echelon/tardiness-asc/arrangement/backfill=False": (
        "beacbbc7d74ad6c87cac7f1f851caf2ea3c478ca156d8f501ab15a9027be1147"
    ),
    "burst/echelon/tardiness-asc/arrangement/backfill=True": (
        "77994a0c8a9221c1d8be3a9f445bb88d50b8305faf6b85519ce7edc5a121bd63"
    ),
    "burst/echelon/tardiness-asc/flow_start/backfill=False": (
        "c8b21b92aef1ea5bb78f131fc2e0abf9b272ed0a27661366ebb7c04a3997a330"
    ),
    "burst/echelon/tardiness-asc/flow_start/backfill=True": (
        "a729ccc96a1f96bc769758f8a2e8225fd40ca866c3477b00d65ff10236e3d2fe"
    ),
    "burst/echelon/tardiness/arrangement/backfill=False": (
        "d1f2b14ebda824dd0dc77bf68598eb2dbb6473b6f0a1bce3aaa03dc87ce50506"
    ),
    "burst/echelon/tardiness/arrangement/backfill=True": (
        "52c389c84432db380bbf672f54541ae831b03408940131299b69ed41633843d1"
    ),
    "burst/echelon/tardiness/flow_start/backfill=False": (
        "60be00ad1a8c40efd5e543278ed82368e42c725277f512491ede48d5b1db0e11"
    ),
    "burst/echelon/tardiness/flow_start/backfill=True": (
        "9f7ecb40aa0c2d98d1acf25751d0d6c769404b9f27ea696e9cad50d870cff97d"
    ),
    "burst/edf-flow": (
        "7e66425a7015b494364e5d6d195ce4162fca2176475c965ecd7de3b34166bb5a"
    ),
    "burst/fifo": (
        "cff11e85745350eeb6650022dffee7396a469dfa664bac836f253969e85469ac"
    ),
    "burst/sincronia": (
        "f783f4f00e24e7cb7db14da36d873ad6929aac45eb65ed3c032a385219c6afc0"
    ),
    "burst/sjf": (
        "03163dc4b105ae50b9983516309d0e6f01c46257d58dc8fc31d8d694530cb3df"
    ),
    "fattree/coflow": (
        "dda20211c4841a3bef3f1d70f74ad72bb9dae23c3c1be25e8a959b6bbfca67f6"
    ),
    "fattree/echelon": (
        "1d43258edc8343e2b2d96e25432e892bdca92c64005ac7df0897d3729f389407"
    ),
    "forked/coflow": (
        "ef5b6d6909e6857d25aeb23af64fc6968bee68e9a42d01b0eade349073fea002"
    ),
    "forked/echelon": (
        "c02b5e9b63d0a00ec885f58abd3e2f0b5ae99bae1891da226d525fd50fb0d4dd"
    ),
    "link_down/coflow": (
        "da9b917e70b8e5987ad274dcf8c63dc8a2bd5350bf6c2888624547b97d77afb6"
    ),
    "link_down/echelon": (
        "ac6b7b69710f5b509b6e808fcbee192b4bba9dfd4be3547c9fc0006695d21c31"
    ),
    "link_down/echelon/backfill=False": (
        "f3a05d42616c28e41013cba980d12176b1d7a7f0490bf870a7047b4421a75d2b"
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_digest(name):
    assert RUNS[name]() == DIGESTS[name]


def test_every_run_is_pinned():
    assert sorted(DIGESTS) == sorted(RUNS)
