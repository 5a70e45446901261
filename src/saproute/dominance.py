"""Pareto dominance on paths and the reduced-set algebra.

A path is compared through its criteria vector: ``(tau_P(0), tau_P(d))``
plus, when the overlap with the original route matters, the derivative
coefficient of ``tau_{P and Q}``.  Componentwise order of these vectors is
exactly the dominance order on paths, so frontier maintenance is plain
vector Pareto filtering.

Ties (equal vectors) keep the path with the lexicographically smaller
(vertex sequence, edge sequence); this makes every reduction deterministic.

Every reduction runs on one sort and sweep, ``pareto_sweep``.  The
fewer-criteria solvers carry their detours and the levels of the ``sap``-fc
dynamic program as plain records, a ``LabeledPath``'s fields flattened:
(vertices, edge ids, slope, base, Q-slope, Q-base, vector).  Their
recombination (the reduced joins of the dynamic program, the augmented
detours of ``1d-sap``-fc) labels each candidate from summed coefficients
first and builds a record only for a candidate that survives;
``LabeledPath.of`` builds a path only for a candidate that reaches scoring.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from operator import attrgetter, itemgetter, methodcaller

from .network import (CostFn, Network, NetworkError, demand_power, derivative_coeff,
                      pareto_point)


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

    @staticmethod
    def of(mode: str, vertices, edge_ids, slope, base, q_slope, q_base,
           vector) -> "LabeledPath":
        """The path of a record's fields, in the record's order."""
        return LabeledPath(vertices, edge_ids, CostFn(mode, slope, base),
                           CostFn(mode, q_slope, q_base), vector)


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


def pareto_sweep(cands, vector, tie_key, build) -> list:
    """The sort and sweep every Pareto reduction here runs on, O(n log n)
    for 2 and 3 criteria.

    ``cands`` is a list of candidates, each given by the parts a path or
    record is built from; ``vector(cand)`` gives its criteria vector,
    ``tie_key(cand)`` its (vertex sequence, edge sequence), ``build(cand)``
    the path or record, or None if it is not simple.  The list is sorted
    in place by vector, and only within a group of exactly equal vectors by
    tie key, so every candidate that eliminates another comes before it.
    A sweep keeping a running minimum of the second criterion (with 3
    criteria a staircase of the last two) then skips each covered candidate
    unbuilt.  In a group that is not covered the smallest simple candidate
    is kept and built; a non-simple one never enters the sweep.  Equal
    candidates keep their input order.
    """
    cands.sort(key=vector)
    kept = []
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


_FIRST = itemgetter(0)


def _join_tie_key(cand):
    _, r1, r2 = cand
    return (r1[0] + r2[0][1:], r1[1] + r2[1])


def reduced_join_union(parts, mode: str, d: float) -> list[tuple]:
    """The reduced union under 3 criteria, over every (a, b) in ``parts``,
    of all simple concatenations of an a-record with a b-record.

    Each pair is labelled from the two records' summed coefficients -- the
    float operations of labelling the concatenation from its two halves --
    and a record is built only for a pair the sweep keeps, so the result
    equals culling every part's joins and then their union.
    """
    if d <= 0:
        raise NetworkError(f"demand d={d} must be > 0")
    dk = demand_power(mode, d)
    cands = []
    ends = None
    for a, b in parts:
        if not (a and b):
            continue
        if a[0][0][-1] != b[0][0][0]:
            raise NetworkError("reduced_join_union requires matching endpoints")
        if ends is None:
            ends = (a[0][0][0], b[0][0][-1])
        elif ends != (a[0][0][0], b[0][0][-1]):
            raise NetworkError("reduced_join_union requires common endpoints")
        b = [(r2[3], r2[2], r2[4], r2) for r2 in b]
        for r1 in a:
            s1, b1, qs1 = r1[2:5]
            cands += [(((base := b1 + b2), base + (s1 + s2) * dk, qs1 + qs2), r1, r2)
                      for b2, s2, qs2, r2 in b]

    def build(cand):
        vec, r1, r2 = cand
        tail = r2[0][1:]
        if not set(r1[0]).isdisjoint(tail):
            return None
        return (r1[0] + tail, r1[1] + r2[1], r1[2] + r2[2], vec[0], vec[2],
                r1[5] + r2[5], vec)

    return pareto_sweep(cands, _FIRST, _join_tie_key, build)
