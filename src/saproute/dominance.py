"""Pareto dominance on paths and the reduced-set algebra.

A path is compared through its criteria vector: ``(tau_P(0), tau_P(d))``
plus, when the overlap with the original route matters, the derivative
coefficient of ``tau_{P and Q}``.  Componentwise order of these vectors is
exactly the dominance order on paths, so frontier maintenance is plain
vector Pareto filtering.

Ties (equal vectors) keep the path with the lexicographically smaller
(vertex sequence, edge sequence); this makes every reduction deterministic.

A path is carried as a plain record from its search to its score:
(vertices, edge ids, slope, base, Q-slope, Q-base, vector), the sums of
its edges' coefficients and of those on Q, as ``label_path`` takes them.
Every reduction runs on one sort and sweep, ``pareto_sweep``.  The
recombinations of the fewer-criteria solvers (the reduced joins of the
``sap``-fc dynamic program, the augmented detours of ``1d-sap``-fc) label
each candidate from summed coefficients first and build a record only for
a candidate that survives.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from operator import itemgetter

from .network import CostFn, Network, NetworkError, demand_power, pareto_point


def label_path(net: Network, vertices, edge_ids, q_edges, d: float,
               criteria: int) -> tuple:
    """The record of a path: (vertices, edge ids, slope, base, Q-slope,
    Q-base, vector), the sums taken first-to-last over its edges and over
    those in ``q_edges``.  The vector is (tau(0), tau(d)) and, with 3
    criteria, the Q-slope.

    ``vertices`` may be a single-vertex tuple with no edges (the empty
    path); its vector is all zeros.
    """
    if criteria not in (2, 3):
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
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
    vec = pareto_point(CostFn(net.mode, slope, base), d) if edge_ids else (0.0, 0.0)
    if criteria == 3:
        vec += (q_slope,)
    return (tuple(vertices), tuple(edge_ids), slope, base, q_slope, q_base, vec)


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

    ``cands`` is a list of candidates, each given by the parts a record is
    built from; ``vector(cand)`` gives its criteria vector,
    ``tie_key(cand)`` its (vertex sequence, edge sequence), ``build(cand)``
    the record, or None if it is not simple.  The list is sorted
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


def _itself(rec):
    return rec


def simple_cull(records) -> list[tuple]:
    """Pareto reduction of path records with common endpoints.

    Returns exactly the non-eliminated inputs, sorted by (vector, vertex
    sequence, edge sequence) so the result is deterministic: on an exact
    vector tie the smaller (vertex, edge) sequence wins and exact duplicates
    collapse to the first.
    """
    records = list(records)
    if len(records) < 2:
        return records
    first = records[0]
    for rec in records:
        if (rec[0][0], rec[0][-1]) != (first[0][0], first[0][-1]):
            raise NetworkError("simple_cull requires common endpoints")
        if len(rec[6]) != len(first[6]):
            raise NetworkError(f"criteria vector length mismatch: "
                               f"{len(first[6])} vs {len(rec[6])}")
    return pareto_sweep(records, itemgetter(6), itemgetter(0, 1), _itself)


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
