"""Multi-criteria shortest path search with Pareto label sets per node.

Label-setting search over criteria vectors g = (tau(0), tau(d)[, shared
slope]), run on the network's own arrays (``Network.out``, ``rev`` and
``heads``).  Labels are popped in lexicographic order of (f, g), where f = g
plus, for a single target, an admissible componentwise lower bound from
two reverse Dijkstra runs over the slope and base coefficients (A*).  At
one node labels therefore arrive with a non-decreasing first criterion,
so a label is dominated exactly when an earlier one at that node is no
worse in the remaining criteria: with 2 criteria that is the node's
running minimum of g2, with 3 a (g2, g3) staircase (the scheme of BOA*,
Hernandez Ulloa et al. 2020, and its dimensionality reduction, Pulido,
Mandow & Perez-de-la-Cruz 2015).  The same test prunes at generation
time, at pop time, and against the labels settled at the target.  A
2-criteria search without a target bound (the detour searches of the
fewer-criteria solvers) runs its own flat copy of the loop, over an
adjacency that drops the banned edges and carries each edge's tau(d)
increment.

Labels are parent pointers (parent label, edge).  Every edge adds a
strictly positive amount to the second criterion, so a label that
revisits a vertex is dominated by its own earlier visit: paths found are
simple without any vertex scan.  Exact vector ties keep the
lexicographically smaller (vertex, edge) sequence, which makes results
deterministic and independent of scheduling; the sequences are rebuilt
only when such a tie happens.
"""
from __future__ import annotations

import heapq
from math import inf, isfinite

from .dominance import (LabeledPath, label_path, simple_cull, staircase_add,
                        staircase_covers)
from .network import Network, NetworkError, demand_power


def build_heuristic(net: Network, target) -> dict:
    """Per-node componentwise lower bounds toward ``target``.

    Returns {node: (h_a, h_b)} where h_a / h_b are the shortest distances
    to the target under edge weight = slope / base coefficient, computed on
    the reversed graph.  Unreachable nodes get (inf, inf).
    """
    if not net.has_node(target):
        raise NetworkError(f"unknown node {target!r}")
    ha, hb = _heuristic_arrays(net, net.index[target], frozenset())
    return {v: (ha[i], hb[i]) for v, i in net.index.items()}


def _heuristic_arrays(net: Network, t_idx: int, banned) -> tuple[list, list]:
    rev = net.rev
    n = len(rev)

    def dijkstra(weight_pos: int) -> list:
        dist = [inf] * n
        dist[t_idx] = 0.0
        heap = [(0.0, t_idx)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, eid, w_slope, w_base in rev[u]:
                if eid in banned:
                    continue
                dv = du + (w_slope if weight_pos == 0 else w_base)
                if dv < dist[v]:
                    dist[v] = dv
                    heapq.heappush(heap, (dv, v))
        return dist

    return dijkstra(0), dijkstra(1)


def _check_criteria(criteria: int, q_edges) -> frozenset:
    if criteria not in (2, 3):
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
    return frozenset(q_edges or ())


def _search(net: Network, source, targets, d: float, criteria: int,
            q_edges, single_target: bool, banned=frozenset()) -> dict:
    """Shared label-setting core over the network without the ``banned``
    edges.  Returns {target: [(verts, edges), ...]}."""
    q_edges = _check_criteria(criteria, q_edges)
    if not (isfinite(d) and d > 0):
        raise NetworkError(f"demand d={d} must be finite and > 0")
    if not net.has_node(source):
        raise NetworkError(f"unknown node {source!r}")
    for t in targets:
        if not net.has_node(t):
            raise NetworkError(f"unknown node {t!r}")

    idx, out, heads = net.index, net.out, net.heads
    n = len(out)
    dk = demand_power(net.mode, d)
    three = criteria == 3
    s_idx = idx[source]

    target_idx = {idx[t] for t in targets}
    use_astar = single_target and len(target_idx) == 1
    parent = [-1]   # label id -> parent label id; label 0 is the source
    via = [-1]      # label id -> edge id

    def path_of(lid):
        edges = []
        while lid:
            edges.append(via[lid])
            lid = parent[lid]
        edges.reverse()
        return (source,) + tuple(heads[e] for e in edges), tuple(edges)

    if not (three or use_astar):
        settled = _two_criteria_loop(search_adjacency(net, d, banned), s_idx,
                                     target_idx, parent, via, path_of)
        return {t: [path_of(lid) for lid in settled[idx[t]]] for t in targets}
    if use_astar:
        t_idx = next(iter(target_idx))
        ha, hb = _heuristic_arrays(net, t_idx, banned)
        if hb[s_idx] == inf and s_idx != t_idx:
            return {t: [] for t in targets}

    # Per node, the closed labels' second criterion minimum (2 criteria)
    # or (g2, g3) staircase (3 criteria).  With A* the target's entry is
    # also the bound every label's f is tested against.
    if three:
        stairs = [([], []) for _ in range(n)]
    else:
        g2_min = [inf] * n
    settled: dict[int, list] = {ti: [] for ti in target_idx}

    zero = (0.0,) * criteria
    heap = [(zero, zero, s_idx, 0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        f, g, ni, lid = pop(heap)
        if heap and heap[0][0] == f and heap[0][1] == g and heap[0][2] == ni:
            # exact tie: the same vector at the same node; the smallest
            # (vertex, edge) sequence is kept and dominates the others
            group = [lid]
            while heap and heap[0][:3] == (f, g, ni):
                group.append(pop(heap)[3])
            lid = min(group, key=path_of)
        if three:
            if staircase_covers(stairs[ni], g[1], g[2]):
                continue
            if use_astar and staircase_covers(stairs[t_idx], f[1], f[2]):
                continue
            staircase_add(stairs[ni], g[1], g[2])
        else:
            if g[1] >= g2_min[ni] or (use_astar and f[1] >= g2_min[t_idx]):
                continue
            g2_min[ni] = g[1]
        if ni in target_idx:
            settled[ni].append(lid)
            if use_astar:
                continue  # s-t labels never extend to another simple s-t path
        g1, g2 = g[0], g[1]
        for mi, eid, base, slope in out[ni]:
            if eid in banned:
                continue
            n1 = g1 + base
            n2 = g2 + (base + slope * dk)
            if three:
                n3 = g[2] + (slope if eid in q_edges else 0.0)
                if staircase_covers(stairs[mi], n2, n3):
                    continue
                ng = (n1, n2, n3)
            else:
                if n2 >= g2_min[mi]:
                    continue
                ng = (n1, n2)
            if use_astar:
                rb = hb[mi]
                if rb == inf:
                    continue
                f1 = n1 + rb
                f2 = n2 + ha[mi] * dk + rb
                if three:
                    if staircase_covers(stairs[t_idx], f2, n3):
                        continue
                    nf = (f1, f2, n3)
                else:
                    if f2 >= g2_min[t_idx]:
                        continue
                    nf = (f1, f2)
            else:
                nf = ng
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (nf, ng, mi, n_labels))

    return {t: [path_of(lid) for lid in settled[idx[t]]] for t in targets}


def search_adjacency(net: Network, d: float, banned: frozenset) -> list:
    """Per node, (head, edge, base, tau(d) increment) for each edge leaving
    it that is not ``banned``: the 2-criteria search's view of the network.

    The increment is ``base + slope * demand_power(d)``, the float
    expression the general loop evaluates per relaxation.  The last one
    built is kept, for one network per process, so the searches of one
    solve, forked pool workers and the next solve with the same network,
    route and demand share it.
    """
    global _ADJACENCY
    kept_net, key, adj = _ADJACENCY
    if kept_net is not net or key != (banned, d):
        dk = demand_power(net.mode, d)
        adj = [[(mi, eid, base, base + slope * dk)
                for mi, eid, base, slope in edges if eid not in banned]
               for edges in net.out]
        _ADJACENCY = (net, (banned, d), adj)
    return adj


_ADJACENCY: tuple = (None, None, None)   # (network, (banned, demand), adjacency)


def _two_criteria_loop(adj, s_idx: int, target_idx, parent, via, path_of) -> dict:
    """The label loop of a 2-criteria search without a target bound.

    Heap entries are flat (g1, g2, node, label): the order and the exact
    tie groups of the general loop with f = g.  Returns {target index:
    [settled label ids]}.
    """
    g2_min = [inf] * len(adj)
    settled: dict[int, list] = {ti: [] for ti in target_idx}
    heap = [(0.0, 0.0, s_idx, 0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        g1, g2, ni, lid = pop(heap)
        if heap and heap[0][1] == g2 and heap[0][0] == g1 and heap[0][2] == ni:
            # exact tie, resolved as in the general loop
            group = [lid]
            while heap and heap[0][:3] == (g1, g2, ni):
                group.append(pop(heap)[3])
            lid = min(group, key=path_of)
        if g2 >= g2_min[ni]:
            continue
        g2_min[ni] = g2
        if ni in target_idx:
            settled[ni].append(lid)
        for mi, eid, base, inc in adj[ni]:
            n2 = g2 + inc
            if n2 >= g2_min[mi]:
                continue
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (g1 + base, n2, mi, n_labels))
    return settled


def _canonical_frontier(net: Network, raw_keys, q_edges, d, criteria) -> list[LabeledPath]:
    labeled = [label_path(net, verts, edges, q_edges, d, criteria)
               for verts, edges in raw_keys]
    return simple_cull(labeled)


def mc_shortest(net: Network, s, t, d: float, criteria: int = 2,
                q_edges=(), banned=()) -> list[LabeledPath]:
    """All Pareto-optimal simple s-t paths that avoid the ``banned`` edges,
    under the componentwise vector order; with 3 criteria each edge also
    contributes its derivative coefficient when it lies on the original
    route.
    """
    if s == t:
        raise NetworkError("source equals target")
    q_edges = frozenset(q_edges or ())
    raw = _search(net, s, (t,), d, criteria, q_edges, single_target=True,
                  banned=frozenset(banned))[t]
    return _canonical_frontier(net, raw, q_edges, d, criteria)


def mc_multi_target(net: Network, s, targets, d: float, criteria: int = 2,
                    q_edges=(), banned=()) -> dict:
    """One search from ``s``, avoiding the ``banned`` edges, producing the
    Pareto frontier at every target."""
    targets = tuple(targets)
    q_edges = frozenset(q_edges or ())
    raw = _search(net, s, targets, d, criteria, q_edges, single_target=False,
                  banned=frozenset(banned))
    return {t: _canonical_frontier(net, raw[t], q_edges, d, criteria)
            for t in targets}
