"""Shared generators for randomized tests.

All randomness is seeded per test; instances are quadratic-mode digraphs
with the original route set to the single-agent shortest path, matching how
the solvers are exercised end to end.  The tie-heavy networks have small
integer coefficients in either mode, and ``brute_frontier`` is the
enumeration oracle the label searches are compared against.  ``join_paths``
is the reference concatenation the reduced joins are compared against.
Paths are ``label_path``'s records; ``path_record`` builds one from a
path's two cost functions, ``search`` is one search's frontier of them,
``dominates`` is the reference Pareto dominance of two records, and
``exhaustive_score`` is the scoring loop that splits every candidate, which
the bounded ``score`` is compared against.  ``split_parts`` builds a split's
sums from three part cost functions, and ``part_costs`` gives them back.
``reference_frontiers`` is the judge of frontiers too large to enumerate: a
plain label-correcting search, run on ``random_grid``'s networks, whose
frontiers are more than one path, and on the corridor grids.
"""
import random
from collections import deque

import pytest

import saproute as sr
from saproute.dominance import label_path, simple_cull
from saproute.mcsp import _search
from saproute.network import BPR_ALPHA, QUADRATIC, Network, demand_power
from saproute.oracle import enumerate_simple_paths
from saproute.psychmodels import SplitParts, record_parts
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


def path_record(vertices, edge_ids, cost, q_cost, d, criteria):
    """The record ``label_path`` gives a path whose edges sum to ``cost``
    and whose edges on Q sum to ``q_cost``: (vertices, edge ids, slope,
    base, Q-slope, Q-base, vector)."""
    vec = sr.pareto_point(cost, d) if edge_ids else (0.0, 0.0)
    if criteria == 3:
        vec += (sr.derivative_coeff(q_cost),)
    return (tuple(vertices), tuple(edge_ids), cost.slope, cost.base,
            q_cost.slope, q_cost.base, vec)


def costs(rec, mode):
    """A record's two cost functions: of the whole path and of its part on Q."""
    return sr.CostFn(mode, rec[2], rec[3]), sr.CostFn(mode, rec[4], rec[5])


def split_parts(alt, orig, shared):
    """The ``SplitParts`` of three part cost functions: over P minus Q, over
    Q minus P and over P and Q."""
    return SplitParts(alt.mode, alt.slope, alt.base, orig.slope, orig.base,
                      shared.slope, shared.base)


def part_costs(parts):
    """The three part cost functions of ``parts``, in ``split_parts``' order."""
    return tuple(sr.CostFn(parts.mode, *parts[i:i + 2]) for i in (1, 3, 5))


def search(net, s, t, d, criteria=2, q_edges=(), banned=()):
    """The frontier of one search from ``s`` to ``t`` without the ``banned``
    edges, as records."""
    return _search(net, s, (t,), d, criteria, frozenset(q_edges), frozenset(banned))[t]


def join_paths(p1, p2, mode, d, criteria):
    """Concatenate two path records; None if the result repeats a vertex."""
    if p1[0][-1] != p2[0][0]:
        raise sr.NetworkError(f"cannot join: {p1[0][-1]!r} != {p2[0][0]!r}")
    tail = p2[0][1:]
    if set(p1[0]) & set(tail):
        return None
    (cost1, q_cost1), (cost2, q_cost2) = costs(p1, mode), costs(p2, mode)
    return path_record(p1[0] + tail, p1[1] + p2[1], sr.add_cost(cost1, cost2),
                       sr.add_cost(q_cost1, q_cost2), d, criteria)


def dominates(p1, p2):
    """p1's criteria vector is no worse than p2's in every component; the
    paths share their endpoints.  Reflexive: callers break exact ties."""
    assert (p1[0][0], p1[0][-1]) == (p2[0][0], p2[0][-1])
    return all(a <= b for a, b in zip(p1[6], p2[6], strict=True))


def exhaustive_score(candidates, q_cost, d, model):
    """Split every candidate and keep the least (cost, tie key): ``score``
    without its floors."""
    best = None
    for cand in candidates:
        split = model.split(record_parts(cand, q_cost), d, cand)
        key = (split.cost, cand[:2])
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
    P2, built at the cost-function level and returned as records.

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
    return path_record(verts, edges, total, shared, d, 3)


@pytest.fixture
def rng():
    return random.Random(12345)


def random_grid(width, seed):
    """A width x width grid in ``synthetic.grid_network``'s edge order (per
    row, then per column: the right and left edges, then the down and up
    edges) whose edges draw, from ``random.Random(seed)``, a speed from
    U(12, 25) m/s, then a capacity from U(40, 200), then a length of
    100 * U(0.9, 1.1) m: free flow length / speed, slope free flow * 0.15 /
    capacity**2.  Slope and base are independent, so its 2-criteria
    frontiers hold more than one path."""
    uniform = random.Random(seed).uniform
    tails, heads, slopes, bases = [], [], [], []

    def edge(u, v):
        speed, capacity = uniform(12.0, 25.0), uniform(40.0, 200.0)
        free_flow = 100.0 * uniform(0.9, 1.1) / speed
        tails.append(u)
        heads.append(v)
        slopes.append(free_flow * BPR_ALPHA / capacity**2)
        bases.append(free_flow)

    for r in range(width):
        for c in range(width):
            u = r * width + c
            if c + 1 < width:
                edge(u, u + 1)
                edge(u + 1, u)
            if r + 1 < width:
                edge(u, u + width)
                edge(u + width, u)
    return Network.from_arrays(QUADRATIC, range(width * width), tails, heads, slopes, bases)


def random_grid_instance(width, seed, row, first, last, demand):
    """``random_grid`` with the route ``baseline_sp``'s load-1 path from
    column ``first`` to column ``last`` of ``row``."""
    net = random_grid(width, seed)
    q, _ = sr.baseline_sp(net, row * width + first, row * width + last, 1.0, 1.0)
    return net, sr.Route(q, demand)


def reference_frontiers(net, source, d, criteria, q_edges=frozenset(),
                        banned=frozenset()) -> dict:
    """A plain label-correcting search (Martins, EJOR 1984) from ``source``
    over the network without the ``banned`` edges: a FIFO queue and, per
    node, a list of labels under full pairwise dominance, with no bound, no
    staircase and no heap order.  A label's sums are ``label_path``'s, in
    path order; of exactly equal vectors the smaller (vertices, edges) is
    kept.  Returns {node: its frontier as records, in vector order}."""
    dk = demand_power(net.mode, d)
    heads, slopes, bases = net.heads, net.slopes, net.bases
    out: dict = {}
    for eid, tail in enumerate(net.tails):
        out.setdefault(tail, []).append(eid)
    start = ((source,), (), 0.0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0)[:criteria])
    kept = {source: [start]}
    queue = deque([start])
    while queue:
        rec = queue.popleft()
        vertices, edges, slope, base, q_slope, q_base, _ = rec
        if not any(r is rec for r in kept[vertices[-1]]):
            continue    # dominated since it was queued
        for eid in out.get(vertices[-1], ()):
            v = heads[eid]
            if eid in banned or v in vertices:
                continue
            a, b = slopes[eid], bases[eid]
            new = (vertices + (v,), edges + (eid,), slope + a, base + b,
                   q_slope + a if eid in q_edges else q_slope,
                   q_base + b if eid in q_edges else q_base)
            vec = (new[3], new[3] + new[2] * dk, new[4])[:criteria]
            new += (vec,)
            labels = kept.setdefault(v, [])
            if any(_eliminates(old, new) for old in labels):
                continue
            labels[:] = [old for old in labels if not _eliminates(new, old)]
            labels.append(new)
            queue.append(new)
    return {v: sorted(labels, key=lambda r: (r[6], r[:2])) for v, labels in kept.items()}


def pairwise_cull(records) -> list:
    """The records no other record eliminates (``_eliminates``), compared
    pairwise, in vector order; a path given twice is kept once."""
    records = list({rec[:2]: rec for rec in records}.values())
    kept = [r2 for r2 in records
            if not any(r1 is not r2 and _eliminates(r1, r2) for r1 in records)]
    return sorted(kept, key=lambda r: (r[6], r[:2]))


def _eliminates(r1, r2) -> bool:
    """r1 dominates r2, or ties it exactly with a smaller (vertices, edges)."""
    if r1[6] == r2[6]:
        return r1[:2] <= r2[:2]
    return all(a <= b for a, b in zip(r1[6], r2[6]))
