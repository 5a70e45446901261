"""Pareto dominance on paths and the reduced-set algebra.

A path is compared through its criteria vector: ``(tau_P(0), tau_P(d))``
plus, when the overlap with the original route matters, the derivative
coefficient of ``tau_{P and Q}``.  Componentwise order of these vectors is
exactly the dominance order on paths, so frontier maintenance is plain
vector Pareto filtering.

Ties (equal vectors) keep the path with the lexicographically smaller
(vertex sequence, edge sequence); this makes every reduction deterministic.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf

from .network import CostFn, Network, NetworkError, add_cost, derivative_coeff, pareto_point


@dataclass(frozen=True)
class LabeledPath:
    """A path together with its accumulated cost functions and criteria.

    ``cost`` is the cost function of the whole path, ``q_cost`` the sum over
    exactly the edges shared with the original route.  ``vector`` caches
    (tau(0), tau(d)) and, with 3 criteria, the derivative coefficient of
    ``q_cost``.
    """

    vertices: tuple
    edge_ids: tuple[int, ...]
    cost: CostFn
    q_cost: CostFn
    vector: tuple

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    def tie_key(self):
        return (self.vertices, self.edge_ids)


def label_path(net: Network, vertices, edge_ids, q_edges, d: float,
               criteria: int) -> LabeledPath:
    """Build a LabeledPath, summing edge cost functions first-to-last.

    ``vertices`` may be a single-vertex tuple with no edges (the empty
    path); its vector is all zeros.
    """
    # the same additions, in the same order, as folding add_cost over the
    # edges, without building a CostFn per edge
    edges = net.edges
    slope = base = q_slope = q_base = 0.0
    for eid in edge_ids:
        c = edges[eid].cost
        slope += c.slope
        base += c.base
        if eid in q_edges:
            q_slope += c.slope
            q_base += c.base
    return relabel(tuple(vertices), tuple(edge_ids), CostFn(net.mode, slope, base),
                   CostFn(net.mode, q_slope, q_base), d, criteria)


def relabel(vertices, edge_ids, cost: CostFn, q_cost: CostFn, d: float,
            criteria: int) -> LabeledPath:
    if edge_ids:
        vec = pareto_point(cost, d)
    else:
        vec = (0.0, 0.0)
    if criteria == 3:
        vec = vec + (derivative_coeff(q_cost),)
    elif criteria != 2:
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
    return LabeledPath(vertices, edge_ids, cost, q_cost, vec)


def vec_dominates(u, v) -> bool:
    """u <= v componentwise.  Reflexive; callers break exact ties."""
    if len(u) != len(v):
        raise NetworkError(f"criteria vector length mismatch: {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def path_dominates(p1: LabeledPath, p2: LabeledPath) -> bool:
    if p1.source != p2.source or p1.target != p2.target:
        raise NetworkError("path dominance requires common endpoints")
    return vec_dominates(p1.vector, p2.vector)


def staircase_covers(stair, y, z) -> bool:
    """Some point of ``stair`` is <= (y, z) componentwise.

    A staircase is a pair of lists (ys ascending, zs strictly descending)
    holding mutually non-dominated points; the covering candidate is the
    last point with ys <= y, which has the smallest z among them.
    """
    ys, zs = stair
    i = bisect_right(ys, y)
    return i > 0 and zs[i - 1] <= z


def staircase_add(stair, y, z) -> None:
    """Insert (y, z), which no point covers, dropping the points it covers."""
    ys, zs = stair
    i = bisect_left(ys, y)
    j = i
    while j < len(zs) and zs[j] >= z:
        j += 1
    ys[i:j] = (y,)
    zs[i:j] = (z,)


def simple_cull(paths) -> list[LabeledPath]:
    """Pareto reduction by sort and sweep, O(n log n) for 2 and 3 criteria.

    Returns exactly the non-eliminated inputs, sorted by (vector, vertex
    sequence, edge sequence) so the result is deterministic.  After the
    sort every path that eliminates another comes before it, so a sweep
    keeping a running minimum of the second criterion (with 3 criteria a
    staircase of the last two) decides each path from the kept ones alone;
    on an exact vector tie the earlier, smaller (vertex, edge) sequence
    wins and exact duplicates collapse to the first.
    """
    items = sorted(paths, key=lambda p: (p.vector, p.tie_key()))
    if not items:
        return items
    first = items[0]
    for p in items:
        if p.source != first.source or p.target != first.target:
            raise NetworkError("simple_cull requires common endpoints")
        if len(p.vector) != len(first.vector):
            raise NetworkError(f"criteria vector length mismatch: "
                               f"{len(first.vector)} vs {len(p.vector)}")
    kept: list[LabeledPath] = []
    if len(first.vector) == 2:
        best = inf
        for p in items:
            if p.vector[1] < best:
                best = p.vector[1]
                kept.append(p)
    else:
        stair: tuple = ([], [])
        for p in items:
            _, y, z = p.vector
            if not staircase_covers(stair, y, z):
                staircase_add(stair, y, z)
                kept.append(p)
    return kept


def reduced_union(a, b) -> list[LabeledPath]:
    a = list(a)
    b = list(b)
    if a and b:
        if a[0].source != b[0].source or a[0].target != b[0].target:
            raise NetworkError("reduced_union requires common endpoints")
    return simple_cull(a + b)


def join_paths(p1: LabeledPath, p2: LabeledPath, d: float,
               criteria: int) -> LabeledPath | None:
    """Concatenate two labeled paths; None if the result repeats a vertex."""
    if p1.target != p2.source:
        raise NetworkError(f"cannot join: {p1.target!r} != {p2.source!r}")
    tail = p2.vertices[1:]
    if set(p1.vertices) & set(tail):
        return None
    return relabel(p1.vertices + tail, p1.edge_ids + p2.edge_ids,
                   add_cost(p1.cost, p2.cost), add_cost(p1.q_cost, p2.q_cost),
                   d, criteria)


def reduced_join(a, b, d: float, criteria: int) -> list[LabeledPath]:
    """All simple concatenations of a-paths with b-paths, Pareto-reduced."""
    a = list(a)
    b = list(b)
    if a and b and a[0].target != b[0].source:
        raise NetworkError("reduced_join requires matching endpoints")
    joined = []
    for p1 in a:
        for p2 in b:
            j = join_paths(p1, p2, d, criteria)
            if j is not None:
                joined.append(j)
    return simple_cull(joined)
