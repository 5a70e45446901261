"""Pareto dominance on paths and the reduced-set algebra.

A path is compared through its criteria vector: ``(tau_P(0), tau_P(d))``
plus, when the overlap with the original route matters, the derivative
coefficient of ``tau_{P and Q}``.  Componentwise order of these vectors is
exactly the dominance order on paths, so frontier maintenance is plain
vector Pareto filtering.

Ties (equal vectors) keep the path with the lexicographically smaller
(vertex sequence, edge sequence); this makes every reduction deterministic.

Every reduction runs on one sort and sweep, ``pareto_sweep``.  The
fewer-criteria recombination (the reduced joins of the ``sap``-fc dynamic
program, the augmented detours of ``1d-sap``-fc) labels each candidate from
summed coefficients first, and builds a path only for a candidate that
survives.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from operator import attrgetter, itemgetter, methodcaller

from .network import (CostFn, Network, NetworkError, add_cost, demand_power,
                      derivative_coeff, pareto_point)


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
    # edges' cost functions
    slopes, bases = net.slopes, net.bases
    slope = base = q_slope = q_base = 0.0
    for eid in edge_ids:
        a, b = slopes[eid], bases[eid]
        slope += a
        base += b
        if eid in q_edges:
            q_slope += a
            q_base += b
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


def pareto_sweep(cands, vector, tie_key, build) -> list[LabeledPath]:
    """The sort and sweep every Pareto reduction here runs on, O(n log n)
    for 2 and 3 criteria.

    ``cands`` is a list of candidates, each given by the parts a path is
    built from; ``vector(cand)`` gives its criteria vector, ``tie_key(cand)``
    its (vertex sequence, edge sequence), ``build(cand)`` the path, or None
    if it is not simple.  The list is sorted in place by vector, and
    only within a group of exactly equal vectors by tie key, so every
    candidate that eliminates another comes before it.  A sweep keeping a
    running minimum of the second criterion (with 3 criteria a staircase of
    the last two) then skips each covered candidate unbuilt.  In a group
    that is not covered the smallest simple candidate is kept and built;
    a non-simple one never enters the sweep.  Equal candidates keep their
    input order.
    """
    cands.sort(key=vector)
    kept: list[LabeledPath] = []
    best = inf
    stair: tuple = ([], [])
    last = len(cands) - 1
    for k, cand in enumerate(cands):
        vec = vector(cand)
        if len(vec) == 2:
            if vec[1] >= best:
                continue
        elif staircase_covers(stair, vec[1], vec[2]):
            continue
        group = (cand,)
        if k < last and vector(cands[k + 1]) == vec:
            m = k + 1
            while m <= last and vector(cands[m]) == vec:
                m += 1
            group = sorted(cands[k:m], key=tie_key)
        for member in group:
            path = build(member)
            if path is not None:
                kept.append(path)
                if len(vec) == 2:
                    best = vec[1]
                else:
                    staircase_add(stair, vec[1], vec[2])
                break
    return kept


_VECTOR = attrgetter("vector")


def _itself(path):
    return path


def simple_cull(paths) -> list[LabeledPath]:
    """Pareto reduction of labeled paths with common endpoints.

    Returns exactly the non-eliminated inputs, sorted by (vector, vertex
    sequence, edge sequence) so the result is deterministic: on an exact
    vector tie the smaller (vertex, edge) sequence wins and exact duplicates
    collapse to the first.
    """
    paths = list(paths)
    if len(paths) < 2:
        return paths
    first = paths[0]
    for p in paths:
        if p.source != first.source or p.target != first.target:
            raise NetworkError("simple_cull requires common endpoints")
        if len(p.vector) != len(first.vector):
            raise NetworkError(f"criteria vector length mismatch: "
                               f"{len(first.vector)} vs {len(p.vector)}")
    return pareto_sweep(paths, _VECTOR, methodcaller("tie_key"), _itself)


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


_FIRST = itemgetter(0)


def _join_tie_key(cand):
    _, p1, p2 = cand
    return (p1.vertices + p2.vertices[1:], p1.edge_ids + p2.edge_ids)


def reduced_join_union(parts, d: float, criteria: int) -> list[LabeledPath]:
    """The reduced union, over every (a, b) in ``parts``, of all simple
    concatenations of an a-path with a b-path.

    Each pair is labelled from the two paths' summed coefficients -- the
    float operations ``join_paths`` performs -- and a path is built only for
    a pair the sweep keeps, so the result equals culling every part's joins
    and then their union.
    """
    if criteria not in (2, 3):
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
    if d <= 0:
        raise NetworkError(f"demand d={d} must be > 0")
    cands = []
    ends = None
    for a, b in parts:
        a = list(a)
        b = list(b)
        if not (a and b):
            continue
        if a[0].target != b[0].source:
            raise NetworkError("reduced_join_union requires matching endpoints")
        if ends is None:
            ends = (a[0].source, b[0].target)
        elif ends != (a[0].source, b[0].target):
            raise NetworkError("reduced_join_union requires common endpoints")
        dk = demand_power(a[0].cost.mode, d)
        b = [(p2.cost.base, p2.cost.slope, p2.q_cost.slope, p2) for p2 in b]
        for p1 in a:
            b1, s1, qs1 = p1.cost.base, p1.cost.slope, p1.q_cost.slope
            if criteria == 3:
                cands += [(((base := b1 + b2), base + (s1 + s2) * dk, qs1 + qs2), p1, p2)
                          for b2, s2, qs2, p2 in b]
            else:
                cands += [(((base := b1 + b2), base + (s1 + s2) * dk), p1, p2)
                          for b2, s2, _, p2 in b]

    def build(cand):
        vec, p1, p2 = cand
        tail = p2.vertices[1:]
        if not set(p1.vertices).isdisjoint(tail):
            return None
        c1, c2, q1, q2 = p1.cost, p2.cost, p1.q_cost, p2.q_cost
        mode = c1.mode
        return LabeledPath(p1.vertices + tail, p1.edge_ids + p2.edge_ids,
                           CostFn(mode, c1.slope + c2.slope, vec[0]),
                           CostFn(mode, q1.slope + q2.slope, q1.base + q2.base),
                           vec)

    return pareto_sweep(cands, _FIRST, _join_tie_key, build)
