"""Oracle for the echelon scheduler's per-bucket stage templates.

A long-lived :class:`EchelonMaddScheduler` keeps each network bucket's
stage template across decisions -- with each stage's link sets and their
least full capacities -- and rebuilds it only when the bucket's revision
token, the network's ``capacity_epoch`` or its EchelonFlow's
``(reference_time, weight, job_id)`` changes. The oracle is a fresh
scheduler built for every decision, which has nothing cached: both must
return equal rate dicts (``==``, so bit for bit) on a seeded run that
churns every input the key has to catch, including a capacity change
that touches no bucket, before and after a fork that shares the
templates.
"""

import random

import pytest

from repro.core.arrangement import StaggeredArrangement
from repro.core.echelonflow import EchelonFlow
from repro.core.flow import Flow
from repro.scheduling import ORDERINGS, EchelonMaddScheduler
from repro.scheduling.base import SchedulerView
from repro.scheduling.echelon_madd import ANCHORS
from repro.simulator.network import NetworkModel
from repro.topology import fat_tree
from repro.topology.routing import EcmpRouter

CAPACITY = 10.0
GROUPS = ("g0", "g1", "g2", "g3")


class _Counting(EchelonMaddScheduler):
    """Counts template builds, to show the run exercises reuse."""

    builds = 0

    def _build_templates(self, *args):
        type(self).builds += 1
        return super()._build_templates(*args)


class _Run:
    """One side of a seeded run: a network, its EchelonFlows and a
    long-lived scheduler, checked against a fresh one per decision."""

    def __init__(self, network, echelonflows, scheduler, config, rng):
        self.network = network
        self.echelonflows = echelonflows
        self.scheduler = scheduler
        self.config = config
        self.rng = rng
        self.now = network._now
        self.decisions = 0
        self.bucket_decisions = 0
        #: The one fabric link currently down, if any.
        self.down = None

    # -- inputs ----------------------------------------------------------

    def inject(self, group_id, index):
        hosts = self.network.topology.hosts
        src, dst = self.rng.sample(hosts, 2)
        job = None if group_id is None else f"j{GROUPS.index(group_id) % 2}"
        flow = Flow(
            src,
            dst,
            self.rng.uniform(0.5, 4.0),
            group_id=group_id,
            index_in_group=index,
            job_id=job,
        )
        state = self.network.inject(flow, self.now)
        group = self.echelonflows.get(group_id)
        if group is not None:
            group.observe_flow_start(flow, self.now)
            if group.reference_time is not None:
                state.ideal_finish_time = group.ideal_finish_time_of(flow)

    def date(self, group_id):
        """Pin an undated EchelonFlow's reference and date its members,
        as the engine does when the head flow starts."""
        group = self.echelonflows[group_id]
        if group.reference_time is None:
            group.set_reference_time(self.now)
            for state in self.network.active_states():
                if state.flow.group_id == group_id:
                    state.ideal_finish_time = group.ideal_finish_time_of(state.flow)

    def register(self, group_id, weight):
        self.echelonflows[group_id] = EchelonFlow(
            group_id,
            StaggeredArrangement(0.05),
            job_id=f"j{GROUPS.index(group_id) % 2}",
            weight=weight,
        )

    def reweight(self, group_id, weight):
        """Replace a registered EchelonFlow by a copy of another weight."""
        group = self.echelonflows[group_id].fork()
        group.weight = weight
        self.echelonflows[group_id] = group

    def degrade(self):
        """Change the capacity of a link under an active flow, without
        rerouting anything: no bucket changes, only the capacities."""
        keys = sorted(
            link.key
            for state in self.network.active_states()
            for link in self.network.path(state.flow.flow_id)
            if link.key != self.down
        )
        if keys:
            key = self.rng.choice(keys)
            self.network.set_link_capacity(key, CAPACITY * self.rng.uniform(0.2, 1.5))

    def link_down(self):
        """Restore the link downed last, if any, then down one fabric link
        under an active flow and reroute the flows crossing it."""
        if self.down is not None:
            self.network.set_link_capacity(self.down, CAPACITY)
            self.network.router.unblock_links([self.down])
            self.down = None
        keys = sorted(
            link.key
            for state in self.network.active_states()
            for link in self.network.path(state.flow.flow_id)
            if not self.network.topology.is_host(link.key[0])
            and not self.network.topology.is_host(link.key[1])
        )
        if not keys:
            return
        key = self.down = self.rng.choice(keys)
        self.network.set_link_capacity(key, 0.0)
        self.network.router.block_links([key])
        self.network.reroute_flows([key])

    # -- one decision ------------------------------------------------------

    def decide(self):
        view = SchedulerView(
            now=self.now, network=self.network, echelonflows=self.echelonflows
        )
        rates = self.scheduler.allocate(view)
        fresh = EchelonMaddScheduler(**self.config).allocate(view)
        assert rates == fresh, (self.decisions, self.config)
        self.decisions += 1
        self.bucket_decisions += len(view.groups())
        self.network.set_rates(rates)
        dt = min(self.network.earliest_finish_interval(), self.rng.uniform(0.01, 0.1))
        self.network.advance(dt, self.now)
        self.now += dt

    def step(self):
        """A random input (or none), then a decision."""
        roll = self.rng.random()
        if roll < 0.35:
            group_id = self.rng.choice(GROUPS + (None,))
            for _ in range(self.rng.randint(1, 3)):
                self.inject(group_id, self.rng.randint(1, 4))
        elif roll < 0.42:
            undated = [
                g
                for g, group in self.echelonflows.items()
                if group.reference_time is None
            ]
            if undated:
                self.date(self.rng.choice(undated))
        elif roll < 0.48 and "g3" not in self.echelonflows:
            self.register("g3", self.rng.choice((1.0, 2.5)))
        elif roll < 0.53:
            self.link_down()
        elif roll < 0.6:
            self.degrade()
        self.decide()


def _start(config, seed):
    rng = random.Random(seed)
    topology = fat_tree(4, CAPACITY)
    network = NetworkModel(topology, EcmpRouter(topology))
    run = _Run(network, {}, _Counting(**config), config, rng)
    # g0 and g1 are registered from the start (g1 undated until a date
    # step); g2 and g3 start unregistered.
    run.register("g0", 1.0)
    run.register("g1", 2.0)
    for index in range(3):
        run.inject("g0", index)
        run.inject("g1", index + 1)
        run.inject("g2", index)
        run.inject(None, 0)
    return run


CONFIGS = [
    {"ordering": ordering, "anchor": anchor, "backfill": backfill}
    for ordering in ORDERINGS
    for anchor in ANCHORS
    for backfill in (True, False)
]


@pytest.mark.parametrize(
    "config", CONFIGS, ids=lambda c: f"{c['ordering']}-{c['anchor']}-{c['backfill']}"
)
def test_long_lived_scheduler_equals_fresh_one(config):
    _Counting.builds = 0
    parent = _start(config, seed=17)
    for _ in range(25):
        parent.step()
    # Members of the unregistered g2, then its registration (undated),
    # then its dating, each followed by a decision.
    parent.inject("g2", 1)
    parent.decide()
    parent.register("g2", 3.0)
    parent.decide()
    parent.date("g2")
    parent.link_down()
    parent.decide()
    parent.reweight("g2", 0.5)
    parent.decide()
    # A capacity change between two decisions and nothing else.
    parent.degrade()
    parent.decide()

    # Fork mid-run; each side then gets its own inputs.
    child = _Run(
        parent.network.fork(),
        {gid: ef.fork() for gid, ef in parent.echelonflows.items()},
        parent.scheduler.fork(),
        config,
        random.Random(99),
    )
    # The fork starts from the parent's templates, then degrades a link
    # of its own: the shared templates' minima no longer hold there.
    child.degrade()
    child.decide()
    for _ in range(25):
        parent.step()
        child.step()

    assert parent.decisions + child.decisions == 81
    bucket_decisions = parent.bucket_decisions + child.bucket_decisions
    # Templates were reused: far fewer builds than bucket-decisions.
    assert _Counting.builds < bucket_decisions / 2


def test_fork_and_parent_draw_distinct_bucket_tokens():
    topology = fat_tree(4, CAPACITY)
    parent = NetworkModel(topology, EcmpRouter(topology))
    hosts = topology.hosts
    parent.inject(Flow(hosts[0], hosts[-1], 1.0, group_id="g"), 0.0)
    child = parent.fork()
    assert child.group_token("g") == parent.group_token("g")

    # The same change on both sides: one more member, same endpoints.
    parent.inject(Flow(hosts[1], hosts[-2], 1.0, group_id="g", flow_id=10**9), 0.0)
    child.inject(Flow(hosts[1], hosts[-2], 1.0, group_id="g", flow_id=10**9), 0.0)
    assert parent.group_token("g") != child.group_token("g")
