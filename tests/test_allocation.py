"""Rate allocation primitives, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.allocation import (
    FlowDemand,
    LinkAccounting,
    feasible,
    greedy_priority_fill,
    link_capacities,
    max_min_fair,
    residual_capacities,
)
from repro.topology.graph import Link


def _demand(flow_id, links, weight=1.0, cap=None):
    return FlowDemand(flow_id=flow_id, path=tuple(links), weight=weight, cap=cap)


def _fill(demands, available=None, base_rates=None):
    """Greedy fill over FlowDemands, in order: a LinkAccounting numbers
    the links; ``available`` (by link key) overrides link capacities."""
    accounting = LinkAccounting()
    for demand in demands:
        accounting.watch(demand.flow_id, demand.path)
    residual = list(accounting.column_capacities)
    for key, capacity in (available or {}).items():
        residual[accounting.columns[key]] = capacity
    ordered = [(d.flow_id, accounting.columns_of(d.path)) for d in demands]
    caps = {d.flow_id: d.cap for d in demands if d.cap is not None}
    return greedy_priority_fill(ordered, residual, dict(base_rates or {}), caps)


L_AB = Link("a", "b", 10.0)
L_BC = Link("b", "c", 10.0)
L_CD = Link("c", "d", 4.0)


class TestMaxMinFair:
    def test_single_flow_gets_bottleneck(self):
        rates = max_min_fair([_demand(1, [L_AB, L_CD])])
        assert rates[1] == pytest.approx(4.0)

    def test_equal_split_on_shared_link(self):
        rates = max_min_fair([_demand(1, [L_AB]), _demand(2, [L_AB])])
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)

    def test_weighted_split(self):
        rates = max_min_fair(
            [_demand(1, [L_AB], weight=3.0), _demand(2, [L_AB], weight=1.0)]
        )
        assert rates[1] == pytest.approx(7.5)
        assert rates[2] == pytest.approx(2.5)

    def test_water_filling_redistributes(self):
        # Flow 1 bottlenecked at 4 on CD; flow 2 takes the rest of AB.
        rates = max_min_fair([_demand(1, [L_AB, L_CD]), _demand(2, [L_AB])])
        assert rates[1] == pytest.approx(4.0)
        assert rates[2] == pytest.approx(6.0)

    def test_flow_cap_honoured(self):
        rates = max_min_fair([_demand(1, [L_AB], cap=2.0), _demand(2, [L_AB])])
        assert rates[1] == pytest.approx(2.0)
        assert rates[2] == pytest.approx(8.0)

    def test_empty(self):
        assert max_min_fair([]) == {}

    def test_respects_available_override(self):
        rates = max_min_fair([_demand(1, [L_AB])], available={("a", "b"): 1.0})
        assert rates[1] == pytest.approx(1.0)


class TestGreedyPriorityFill:
    def test_first_flow_takes_bottleneck(self):
        rates = _fill([_demand(1, [L_AB]), _demand(2, [L_AB])])
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(0.0)

    def test_disjoint_paths_both_full(self):
        rates = _fill([_demand(1, [L_AB]), _demand(2, [L_CD])])
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(4.0)

    def test_base_rates_are_added_to(self):
        rates = _fill(
            [_demand(1, [L_AB])], base_rates={1: 3.0}, available={("a", "b"): 2.0}
        )
        assert rates[1] == pytest.approx(5.0)

    def test_cap_limits_total(self):
        rates = _fill([_demand(1, [L_AB], cap=4.0)])
        assert rates[1] == pytest.approx(4.0)


class TestFeasibility:
    def test_feasible_allocation(self):
        demands = [_demand(1, [L_AB]), _demand(2, [L_AB])]
        assert feasible(demands, {1: 5.0, 2: 5.0})
        assert not feasible(demands, {1: 8.0, 2: 8.0})

    def test_negative_rate_infeasible(self):
        assert not feasible([_demand(1, [L_AB])], {1: -1.0})

    def test_cap_violation_infeasible(self):
        assert not feasible([_demand(1, [L_AB], cap=2.0)], {1: 3.0})

    def test_residual_capacities(self):
        demands = [_demand(1, [L_AB, L_BC])]
        residual = residual_capacities(demands, {1: 4.0})
        assert residual[("a", "b")] == pytest.approx(6.0)
        assert residual[("b", "c")] == pytest.approx(6.0)

    def test_link_capacities_collects_all(self):
        caps = link_capacities([_demand(1, [L_AB, L_CD])])
        assert caps == {("a", "b"): 10.0, ("c", "d"): 4.0}


def test_demand_validation():
    with pytest.raises(ValueError):
        _demand(1, [])
    with pytest.raises(ValueError):
        _demand(1, [L_AB], weight=0.0)
    with pytest.raises(ValueError):
        _demand(1, [L_AB], cap=-1.0)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------

_links = [
    Link("a", "b", 7.0),
    Link("b", "c", 3.0),
    Link("a", "c", 5.0),
    Link("c", "d", 2.0),
    Link("b", "d", 9.0),
]


@st.composite
def demand_sets(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    demands = []
    for flow_id in range(count):
        size = draw(st.integers(min_value=1, max_value=len(_links)))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(_links) - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        weight = draw(st.floats(min_value=0.1, max_value=4.0))
        demands.append(
            FlowDemand(
                flow_id=flow_id,
                path=tuple(_links[i] for i in indices),
                weight=weight,
            )
        )
    return demands


@given(demand_sets())
@settings(max_examples=60, deadline=None)
def test_max_min_is_always_feasible(demands):
    rates = max_min_fair(demands)
    assert feasible(demands, rates, tolerance=1e-6)
    assert all(rate >= 0 for rate in rates.values())


@given(demand_sets())
@settings(max_examples=60, deadline=None)
def test_max_min_is_pareto_no_free_capacity_for_anyone(demands):
    """Every flow is blocked by at least one saturated link on its path."""
    rates = max_min_fair(demands)
    residual = residual_capacities(demands, rates)
    for demand in demands:
        min_residual = min(residual[link.key] for link in demand.path)
        assert min_residual <= 1e-6, (
            f"flow {demand.flow_id} could still grow by {min_residual}"
        )


@given(demand_sets())
@settings(max_examples=60, deadline=None)
def test_greedy_fill_is_feasible_and_work_conserving(demands):
    rates = _fill(demands)
    assert feasible(demands, rates, tolerance=1e-6)
    residual = residual_capacities(demands, rates)
    for demand in demands:
        min_residual = min(residual[link.key] for link in demand.path)
        assert min_residual <= 1e-6
