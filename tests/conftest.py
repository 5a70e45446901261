"""Shared generators for randomized tests.

All randomness is seeded per test; instances are quadratic-mode digraphs
with the original route set to the single-agent shortest path, matching how
the solvers are exercised end to end.  The tie-heavy networks have small
integer coefficients in either mode, and ``brute_frontier`` is the
enumeration oracle the label searches are compared against.  ``join_paths``
is the reference concatenation the reduced joins are compared against, and
``record`` flattens a labelled path into the record the fewer-criteria
solvers carry, ``dominates`` is the reference Pareto dominance of two
labelled paths, and ``exhaustive_score`` is the scoring loop that splits
every candidate, which the bounded ``score`` is compared against.
"""
import random

import pytest

import saproute as sr
from saproute.dominance import label_path, relabel, simple_cull
from saproute.oracle import enumerate_simple_paths
from saproute.psychmodels import make_parts
from saproute.solvers import _SOLVERS, scalar_shortest

# every solver once: ("d-sap", "fc") runs the same solver as ("d-sap", "direct")
SOLVERS = {form: solve for form, solve in _SOLVERS.items() if form != ("d-sap", "fc")}


def random_network(rng, n_lo=5, n_hi=12, density=0.3, coeff_lo=0.1,
                   coeff_hi=5.0):
    while True:
        n = rng.randint(n_lo, n_hi)
        nodes = list(range(n))
        edges = []
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < density:
                    a = rng.uniform(coeff_lo, coeff_hi)
                    b = rng.uniform(max(coeff_lo, 1e-3), coeff_hi)
                    edges.append((u, v, sr.CostFn.quadratic(a, b)))
        if edges:
            return sr.Network.build(sr.QUADRATIC, nodes, edges)


def random_instance(rng, demand=None, **kwargs):
    """Network plus an original route between node 0 and the last node."""
    while True:
        net = random_network(rng, **kwargs)
        q = scalar_shortest(net, 0, len(net.nodes) - 1, 1.0)
        if q is not None and len(q.vertices) >= 2:
            d = demand if demand is not None else rng.choice([1.0, 2.0, 5.0, 10.0])
            return net, sr.Route(q, d)


def tie_heavy_network(rng, mode, parallel=True):
    """Small digraph with integer coefficients, so that many paths have
    exactly equal criteria vectors; affine networks include zero-base
    (c=0) edges."""
    while True:
        n = rng.randint(4, 7)
        edges = []
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                for _ in range(2 if parallel and rng.random() < 0.15 else 1):
                    if rng.random() >= 0.45:
                        continue
                    if mode == sr.QUADRATIC:
                        cost = sr.CostFn.quadratic(rng.randint(0, 2), rng.randint(1, 3))
                    else:
                        c = rng.choice([0, 0, 1, 2])
                        cost = sr.CostFn.affine(rng.randint(0 if c else 1, 2), c)
                    edges.append((u, v, cost))
        if edges:
            return sr.Network.build(mode, range(n), edges)


def record(lp):
    """(vertices, edge ids, slope, base, Q-slope, Q-base, vector): the fields
    of a ``LabeledPath``, such as ``label_path`` builds, flattened."""
    return (lp.vertices, lp.edge_ids, lp.cost.slope, lp.cost.base,
            lp.q_cost.slope, lp.q_cost.base, lp.vector)


def join_paths(p1, p2, d, criteria):
    """Concatenate two labeled paths; None if the result repeats a vertex."""
    if p1.target != p2.source:
        raise sr.NetworkError(f"cannot join: {p1.target!r} != {p2.source!r}")
    tail = p2.vertices[1:]
    if set(p1.vertices) & set(tail):
        return None
    return relabel(p1.vertices + tail, p1.edge_ids + p2.edge_ids,
                   sr.add_cost(p1.cost, p2.cost), sr.add_cost(p1.q_cost, p2.q_cost),
                   d, criteria)


def dominates(p1, p2):
    """p1's criteria vector is no worse than p2's in every component; the
    paths share their endpoints.  Reflexive: callers break exact ties."""
    assert (p1.source, p1.target) == (p2.source, p2.target)
    return all(a <= b for a, b in zip(p1.vector, p2.vector, strict=True))


def exhaustive_score(candidates, q_cost, d, model):
    """Split every candidate and keep the least (cost, tie key): ``score``
    without its floors."""
    best = None
    for cand in candidates:
        split = model.split(make_parts(cand.cost, cand.q_cost, q_cost), d, cand)
        key = (split.cost, cand.tie_key())
        if best is None or key < best[0]:
            best = (key, cand, split)
    if best is None:
        raise sr.NoAlternativeError("empty candidate set")
    return best[1], best[2]


def brute_frontier(net, s, t, d, criteria, q_edges, banned=frozenset()):
    paths = [p for p in enumerate_simple_paths(net, s, t)
             if banned.isdisjoint(p.edge_ids)]
    labeled = [label_path(net, p.vertices, p.edge_ids, q_edges, d, criteria)
               for p in paths]
    return simple_cull(labeled)


def random_costfn(rng, lo=0.1, hi=5.0):
    return sr.CostFn.quadratic(rng.uniform(lo, hi), rng.uniform(lo, hi))


def dominated_pair(rng, d):
    """Two alternatives P1, P2 to a common original route with P1 dominating
    P2, built at the cost-function level and returned as labeled paths.

    Rejection-samples until the criteria vectors certify dominance.
    """
    q_cost = sr.CostFn.quadratic(rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0))
    while True:
        lam_a2, lam_b2 = rng.uniform(0, 1), rng.uniform(0, 1)
        shared2 = sr.CostFn(sr.QUADRATIC, q_cost.slope * lam_a2, q_cost.base * lam_b2)
        lam_a1 = rng.uniform(0, lam_a2)  # derivative coefficient ordering
        lam_b1 = rng.uniform(0, 1)
        shared1 = sr.CostFn(sr.QUADRATIC, q_cost.slope * lam_a1, q_cost.base * lam_b1)
        alt2 = random_costfn(rng, 0.5, 5.0)
        total2 = sr.add_cost(alt2, shared2)
        # P1's total must stay below P2's at both ends of [0, d]
        base1 = rng.uniform(shared1.base + 1e-3, total2.base) \
            if total2.base > shared1.base + 1e-3 else None
        if base1 is None:
            continue
        slope_hi = (total2.slope * d * d + total2.base - base1) / (d * d)
        if slope_hi <= shared1.slope:
            continue
        slope1 = rng.uniform(shared1.slope, slope_hi)
        total1 = sr.CostFn(sr.QUADRATIC, slope1, base1)
        lab1 = _abstract_label(("s", "a", "t"), (101, 102), total1, shared1, d)
        lab2 = _abstract_label(("s", "b", "t"), (201, 202), total2, shared2, d)
        if dominates(lab1, lab2):
            return lab1, lab2, q_cost


def _abstract_label(verts, edges, total, shared, d):
    return relabel(verts, edges, total, shared, d, 3)


@pytest.fixture
def rng():
    return random.Random(12345)
