"""Dense-array (numpy) kernels for the allocation hot path.

The scalar progressive-filling kernel in :mod:`repro.simulator.allocation`
costs O(flows x path length) python bytecode per water-filling round. At
100k+ concurrent flows that loop *is* the simulation. This module interns
flow ids and links into dense index arrays -- flow -> row, link -> column,
with the (flow, link) incidence stored as parallel ``rows``/``cols``
arrays in CSR-entry order -- and re-expresses every round as a handful of
numpy array operations with a saturation loop over links.

Each round touches only the flows still rising, a new revision of a
network's flow set patches the previous incidence instead of interning
every flow again (:class:`DenseIncidence`), and a solve whose inputs did
not change is returned again (:func:`max_min_fair_vector`).

Bit-identity contract
---------------------

The vector kernel is *proven bit-identical* to the scalar one (see
``tests/test_check_allocation_properties.py``), not merely close. The
scalar and vector paths are written against one shared reduction order:

* Per-link weight sums and per-link consumption are accumulated in
  **incidence-entry order** -- demands in first-occurrence order, path
  positions within a demand in path order. ``np.bincount`` accumulates
  its weights sequentially in exactly that entry order (a plain C loop,
  no pairwise splitting), and the scalar kernel accumulates its dicts in
  the same (flow, path position) order, so the partial sums agree float
  for float.
* Frozen flows leave the sums. The vector kernel carries the still
  rising rows and their incidence entries as index arrays, filtered
  every round but never reordered, so each per-link sum still runs over
  the surviving entries in entry order -- exactly the terms the scalar
  kernel's ``active`` dict visits. (Dropping a frozen flow's term is the
  same as adding the exact ``+0.0`` it would contribute, so a kernel
  that zero-weighted frozen flows instead would agree too; it would just
  pay for every entry in every round.)
* The water-level rise is a ``min`` over per-link quotients and per-flow
  cap headrooms; ``min`` is order-independent for non-NaN floats, and
  both kernels form the identical quotients from identical operands.
* Residual capacities are decremented once per round by the round's
  per-link consumption sum, then clamped at zero -- the scalar kernel is
  structured the same way (one subtraction per link per round), so the
  float association matches by construction.

Everything degrades gracefully without numpy: :data:`HAVE_NUMPY` gates
every dispatch site, and the scalar kernels remain the single source of
semantics.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from operator import is_
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via HAVE_NUMPY monkeypatching
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None
    HAVE_NUMPY = False

from ..core.units import EPS

#: Active-flow count at which ``allocation="auto"`` engines switch the
#: max-min kernel from scalar to vector. Below it the interning overhead
#: (array builds, numpy call overhead) outweighs the loop savings; above
#: it the scalar per-flow rounds dominate the run. Measured with
#: ``benchmarks/bench_scale.py`` on a big switch and on a fat tree with
#: ECMP: below 300 flows the winner flips from sweep to sweep, from 300
#: on vector wins every sweep on both (table in docs/performance.md).
#: The two paths are bit-identical, so the crossover only affects
#: speed, never results.
VECTOR_AUTO_THRESHOLD = 300


class DenseIncidence:
    """Flow/link interning of one demand set into dense index arrays.

    Rows are demands in first-occurrence order (duplicate flow ids keep
    the first row, last demand's content -- mirroring the scalar kernel's
    ``{d.flow_id: d for d in demands}`` dedupe). Columns are links in
    first-touch order. The (flow, link) incidence is two parallel int
    arrays ``rows``/``cols`` whose entry order -- demand order, then path
    position -- is the canonical reduction order both kernels share.

    ``Link`` objects are held by reference and their capacities re-read
    per kernel call, so runtime capacity mutation (fault injection) never
    stales an incidence; only structural changes (inject/retire/reroute)
    require a new one, which the network's revision-keyed cache handles.

    Patched build: given ``base``, the incidence of an earlier revision
    of the same network, the new one is derived from it instead of
    interned link by link, when the step between them is retirements
    plus injections of flow ids above every survivor. The dead rows and
    their entries are masked out, the surviving columns renumbered in
    first-touch order, and only the new rows interned in python. The
    result is array for array what a fresh build gives. Anything else --
    a rerouted survivor (its demand object changed), new rows that would
    land between old ones, fids out of order -- builds fresh.
    """

    __slots__ = (
        "demands",
        "fids",
        "_row_of",
        "links",
        "col_of",
        "rows",
        "cols",
        "weights",
        "caps",
        "capped_rows",
        "n_flows",
        "n_links",
        "last_solve",
    )

    def __init__(
        self, demands: Sequence, base: Optional["DenseIncidence"] = None
    ) -> None:
        #: (capacity vector bytes, rates) of the last solve without an
        #: ``available`` override; see :func:`max_min_fair_vector`.
        self.last_solve: Optional[Tuple[bytes, "np.ndarray"]] = None
        if base is None or not self._patch(base, demands):
            self._build(demands)

    def _build(self, demands: Sequence) -> None:
        deduped: List = list(demands)
        row_of: Dict[int, int] = {
            demand.flow_id: row for row, demand in enumerate(deduped)
        }
        if len(row_of) != len(deduped):
            # Rare duplicate-fid path (ad-hoc demand lists only; network
            # demand sets are keyed by live flow): first row, last content.
            row_of = {}
            merged: List = []
            for demand in deduped:
                row = row_of.get(demand.flow_id)
                if row is None:
                    row_of[demand.flow_id] = len(merged)
                    merged.append(demand)
                else:
                    merged[row] = demand
            deduped = merged
        self._row_of = row_of
        self.links = []
        self.col_of = {}
        rows, cols = self._intern(deduped, 0)
        self._finish(
            deduped,
            np.array([d.flow_id for d in deduped], dtype=np.int64),
            np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
            *_weights_caps(deduped),
        )

    def _patch(self, base: "DenseIncidence", demands: Sequence) -> bool:
        """Derive this incidence from ``base``; ``False`` = build fresh."""
        n = len(demands)
        fids = np.fromiter((d.flow_id for d in demands), dtype=np.int64, count=n)
        if n < 2 or not (fids[1:] > fids[:-1]).all():
            return False
        old_fids = base.fids
        pos = np.minimum(np.searchsorted(fids, old_fids), n - 1)
        alive = fids[pos] == old_fids
        kept = np.flatnonzero(alive)
        k = kept.size
        # Survivors must lead the new order, each with the very demand
        # object it had (a reroute replaces it).
        if not k or not np.array_equal(fids[:k], old_fids[kept]):
            return False
        old_demands = base.demands
        if not all(map(is_, demands, map(old_demands.__getitem__, kept.tolist()))):
            return False

        alive_entries = alive[base.rows]
        rows = (np.cumsum(alive, dtype=np.intp) - 1)[base.rows[alive_entries]]
        cols = base.cols[alive_entries]
        first = np.full(base.n_links, cols.size, dtype=np.intp)
        np.minimum.at(first, cols, np.arange(cols.size, dtype=np.intp))
        order = np.argsort(first)[: np.count_nonzero(first < cols.size)]
        renumber = np.empty(base.n_links, dtype=np.intp)
        renumber[order] = np.arange(order.size, dtype=np.intp)
        cols = renumber[cols]
        base_links = base.links
        self.links = [base_links[c] for c in order.tolist()]
        self.col_of = {link.key: col for col, link in enumerate(self.links)}

        demands = list(demands)
        fresh = demands[k:]
        new_rows, new_cols = self._intern(fresh, k)
        weights, caps = _weights_caps(fresh)
        self._row_of = None
        self._finish(
            demands,
            fids,
            np.concatenate((rows, np.asarray(new_rows, dtype=np.intp))),
            np.concatenate((cols, np.asarray(new_cols, dtype=np.intp))),
            np.concatenate((base.weights[kept], weights)),
            np.concatenate((base.caps[kept], caps)),
        )
        return True

    def _intern(self, demands: Sequence, first_row: int):
        """Entries of ``demands`` as rows from ``first_row``; new columns
        are appended to ``links``/``col_of`` in first-touch order."""
        links = self.links
        intern_col = self.col_of.setdefault
        rows: List[int] = []
        cols: List[int] = []
        for row, demand in enumerate(demands, first_row):
            path = demand.path
            rows.extend([row] * len(path))
            for link in path:
                col = intern_col(link.key, len(links))
                if col == len(links):
                    links.append(link)
                cols.append(col)
        return rows, cols

    def _finish(self, demands, fids, rows, cols, weights, caps) -> None:
        self.demands = demands
        self.n_flows = len(demands)
        self.n_links = len(self.links)
        self.fids = fids
        self.rows = rows
        self.cols = cols
        self.weights = weights
        self.caps = caps
        self.capped_rows = np.nonzero(np.isfinite(caps))[0]

    @property
    def row_of(self) -> Dict[int, int]:
        """Flow id -> row; a patched build makes it on first use."""
        if self._row_of is None:
            self._row_of = dict(zip(self.fids.tolist(), range(self.n_flows)))
        return self._row_of

    def link_capacities_array(
        self, available: Optional[Mapping[Tuple[str, str], float]] = None
    ) -> "np.ndarray":
        """Per-column capacities, re-read live from the Link objects.

        ``available`` overrides individual links (the scalar kernel's
        ``available`` mapping); links absent from it fall back to their
        current capacity, exactly like the scalar setdefault pass.
        """
        caps = np.fromiter(
            (link.capacity for link in self.links),
            dtype=np.float64,
            count=self.n_links,
        )
        if available:
            for key, value in available.items():
                col = self.col_of.get(key)
                if col is not None:
                    caps[col] = value
        return caps


def _weights_caps(demands: Sequence):
    """Per-row weight and cap arrays (no cap = ``inf``)."""
    weights = np.array([d.weight for d in demands], dtype=np.float64)
    caps = np.array(
        [float("inf") if d.cap is None else d.cap for d in demands],
        dtype=np.float64,
    )
    return weights, caps


class VectorAllocation(MappingABC):
    """A rate allocation backed by a dense array, aligned to an incidence.

    Quacks like the ``Dict[int, float]`` every scalar consumer expects
    (``get``/``items``/iteration yield python floats), while the network's
    bulk ``set_rates`` path grabs the raw array without any per-flow dict
    traffic when the incidence still matches its live flow set.
    """

    __slots__ = ("incidence", "array", "_floats")

    def __init__(self, incidence: DenseIncidence, array) -> None:
        self.incidence = incidence
        self.array = array
        #: Lazily materialized python-float view (tolist is exact).
        self._floats: Optional[List[float]] = None

    def _values(self) -> List[float]:
        if self._floats is None:
            self._floats = self.array.tolist()
        return self._floats

    def __getitem__(self, flow_id: int) -> float:
        return self._values()[self.incidence.row_of[flow_id]]

    def get(self, flow_id: int, default: float = None) -> float:
        row = self.incidence.row_of.get(flow_id)
        if row is None:
            return default
        return self._values()[row]

    def __iter__(self) -> Iterator[int]:
        return iter(self.incidence.row_of)

    def __len__(self) -> int:
        return self.incidence.n_flows

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self.incidence.row_of

    def items(self):
        return zip(self.incidence.fids.tolist(), self._values())

    def keys(self):
        return self.incidence.row_of.keys()

    def values(self):
        return self._values()

    def copy(self) -> Dict[int, float]:
        """A plain-dict copy (python floats throughout)."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorAllocation({self.incidence.n_flows} flows)"


def max_min_fair_vector(
    incidence: DenseIncidence,
    available: Optional[Mapping[Tuple[str, str], float]] = None,
) -> VectorAllocation:
    """Weighted max-min fair rates, vectorized; bit-identical to scalar.

    The saturation loop runs over *links*: each round computes the
    water-level rise from per-link residuals and weight sums (one
    ``bincount`` each over the still-rising flows' entries), applies it
    to those flows at once, and drops the ones that hit a saturated link
    or their cap. The reduction order matches the scalar kernel's
    exactly (module docstring), so the returned rates agree bit for bit.

    The allocation is a pure function of the incidence and the capacity
    vector. So without an ``available`` override, a call that reads the
    same live capacities, bit for bit, as the incidence's last solve
    returns that solve (as a fresh copy) instead of filling again; any
    capacity change in between forces a new fill.
    """
    capacities = incidence.link_capacities_array(available)
    if available is not None:
        return VectorAllocation(incidence, _water_fill(incidence, capacities))
    key = capacities.tobytes()
    last = incidence.last_solve
    if last is None or last[0] != key:
        last = (key, _water_fill(incidence, capacities))
        incidence.last_solve = last
    return VectorAllocation(incidence, last[1].copy())


def _water_fill(incidence: DenseIncidence, remaining) -> "np.ndarray":
    """Progressive filling over the rising rows only; ``remaining`` is
    the per-column capacity vector, consumed as the level rises."""
    n = incidence.n_flows
    n_links = incidence.n_links
    weights = incidence.weights
    caps = incidence.caps
    rates = np.zeros(n, dtype=np.float64)
    frozen = np.zeros(n, dtype=bool)
    #: The rising rows and their weights, in row order ...
    act_rows = np.arange(n, dtype=np.intp)
    act_w = weights
    #: ... their incidence entries, in entry order ...
    ent_rows = incidence.rows
    ent_cols = incidence.cols
    ent_w = weights[ent_rows]
    #: ... and the capped ones among them.
    act_capped = incidence.capped_rows

    while act_rows.size:
        link_weight = np.bincount(ent_cols, weights=ent_w, minlength=n_links)
        constrained = link_weight > 0.0
        rise = float("inf")
        if constrained.any():
            rise = float(
                np.min(remaining[constrained] / link_weight[constrained])
            )
        if act_capped.size:
            heads = (caps[act_capped] - rates[act_capped]) / weights[act_capped]
            rise = min(rise, float(np.min(heads)))
        if rise == float("inf"):
            raise RuntimeError("unbounded max-min allocation (no constraints)")
        rise = max(0.0, rise)

        rates[act_rows] = rates[act_rows] + rise * act_w
        consumed = np.bincount(ent_cols, weights=rise * ent_w, minlength=n_links)
        residual = remaining - consumed
        remaining = np.where(residual > 0.0, residual, 0.0)

        full_entries = (remaining <= EPS)[ent_cols]
        if full_entries.any():
            frozen[ent_rows[full_entries]] = True
        if act_capped.size:
            frozen[act_capped[rates[act_capped] >= caps[act_capped] - EPS]] = True
        rising = ~frozen[act_rows]
        if rising.all():
            # Numerical corner: force-freeze the lowest active flow id,
            # matching the scalar kernel's ``min(active)``.
            frozen[act_rows[np.argmin(incidence.fids[act_rows])]] = True
            rising = ~frozen[act_rows]
        act_rows = act_rows[rising]
        act_w = act_w[rising]
        rising_entries = ~frozen[ent_rows]
        ent_rows = ent_rows[rising_entries]
        ent_cols = ent_cols[rising_entries]
        ent_w = ent_w[rising_entries]
        if act_capped.size:
            act_capped = act_capped[~frozen[act_capped]]

    return rates


def feasible_vector(
    incidence: DenseIncidence,
    rates: Mapping[int, float],
    tolerance: float = 1e-6,
) -> bool:
    """Array form of :func:`repro.simulator.allocation.feasible`.

    Feasibility is a tolerance-gated boolean, so summation association is
    immaterial here (unlike the max-min kernel); the semantics -- missing
    flows idle at 0, per-flow caps, per-link capacity with relative plus
    absolute slack -- match the scalar check exactly.
    """
    if isinstance(rates, VectorAllocation) and rates.incidence is incidence:
        arr = rates.array
    else:
        arr = np.fromiter(
            (rates.get(d.flow_id, 0.0) for d in incidence.demands),
            dtype=np.float64,
            count=incidence.n_flows,
        )
    if (arr < -tolerance).any():
        return False
    capped = incidence.capped_rows
    if capped.size and (arr[capped] > incidence.caps[capped] + tolerance).any():
        return False
    usage = np.bincount(
        incidence.cols, weights=arr[incidence.rows], minlength=incidence.n_links
    )
    caps = incidence.link_capacities_array()
    return not (usage > caps * (1.0 + tolerance) + tolerance).any()
