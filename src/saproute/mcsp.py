"""Multi-criteria shortest path search with Pareto label sets per node.

Label-setting search over criteria vectors g = (tau(0), tau(d)[, shared
slope]), run on the network's own arrays (``Network.out``, ``rev`` and
``heads``).  A label carries the coefficient sums ``label_path`` adds, in
its order (base, slope and, given Q's edges, Q-slope and Q-base), and its
vector is computed from them as ``label_path`` computes it, so the labels
settled at a target are the frontier the search returns.  Labels are
popped in lexicographic order of (f, g), where f = g plus, for a single
target, an admissible componentwise lower bound from two reverse
``dijkstra`` runs over the slope and base coefficients (A*).  At one node
labels therefore arrive with a non-decreasing first criterion, so a label
is dominated exactly when an earlier one at that node is no worse in the
remaining criteria: with 2 criteria that is the node's running minimum of
g2, with 3 a (g2, g3) staircase (the scheme of BOA*, Hernandez Ulloa et
al. 2020, and its dimensionality reduction, Pulido, Mandow &
Perez-de-la-Cruz 2015).  The same test prunes at generation time, at pop
time, and against the labels settled at the target.  A 2-criteria search
without a heuristic or Q-sums (the detour searches of the fewer-criteria
solvers) runs its own flat copy of the loop, over ``net.out`` without the
banned edges, kept on the network.  Once every one of its targets holds a
settled label, that loop prunes a label whose second criterion reaches the
largest of the targets' running minima, BOA*'s target bound taken over
several targets; the frontiers it settles stay exactly the same.  A search
without targets returns at once.

Labels are parent pointers (parent label, edge).  Every edge adds a
strictly positive amount to the second criterion, so a label that
revisits a vertex is dominated by its own earlier visit: paths found are
simple without any vertex scan.  Exact vector ties keep the
lexicographically smaller (vertex, edge) sequence, which makes results
deterministic and independent of scheduling; the sequences are rebuilt
only when such a tie happens.  ``dijkstra``, the one scalar search (it
also serves ``solvers.scalar_shortest``), settles the path it returns the
same way on an exact distance tie.
"""
from __future__ import annotations

import heapq
from math import inf, isfinite

from .dominance import LabeledPath, staircase_add, staircase_covers
from .network import CostFn, Network, NetworkError, demand_power


def dijkstra(net: Network, adj, source: int, weights, banned=frozenset(),
             target: int = -1) -> tuple[list, tuple | None]:
    """Parent-pointer Dijkstra from node index ``source`` over ``adj``
    (``net.out``, or ``net.rev`` to search backwards) under the per-edge
    ``weights``, without the ``banned`` edges, until ``target`` is settled.

    Returns the distances, summed in path order (tentative where not
    settled), and the (vertices, edges) path to ``target`` or None.  With a
    target, of exactly equal distances the smaller (vertices, edges) path
    settles first; paths are rebuilt only for such ties.
    """
    nodes = net.nodes
    dist = [inf] * len(adj)
    via: list = [None] * len(adj)   # settled node -> its heap entry
    dist[source] = 0.0
    heap = [(0.0, source, -1, -1)]  # (distance, node, previous node, edge)

    def path_of(entry):
        verts, edges = [nodes[entry[1]]], []
        while entry[3] >= 0:
            edges.append(entry[3])
            entry = via[entry[2]]
            verts.append(nodes[entry[1]])
        return tuple(reversed(verts)), tuple(reversed(edges))

    pop, push = heapq.heappop, heapq.heappush
    while heap:
        entry = pop(heap)
        du, ui = entry[0], entry[1]
        if via[ui] is not None:
            continue
        if heap and heap[0][0] == du and target >= 0:
            group = [entry]
            while heap and heap[0][0] == du:
                group.append(pop(heap))
            entry = min((e for e in group if via[e[1]] is None), key=path_of)
            for e in group:
                if e is not entry:
                    push(heap, e)
            ui = entry[1]
        via[ui] = entry
        if ui == target:
            return dist, path_of(entry)
        for vi, eid, _, _ in adj[ui]:
            if eid in banned:
                continue
            dv = du + weights[eid]
            if dv <= dist[vi]:
                dist[vi] = dv
                push(heap, (dv, vi, ui, eid))
    return dist, None


def build_heuristic(net: Network, target) -> dict:
    """Per-node componentwise lower bounds toward ``target``.

    Returns {node: (h_a, h_b)} where h_a / h_b are the shortest distances
    to the target under edge weight = slope / base coefficient, computed on
    the reversed graph.  Unreachable nodes get (inf, inf).
    """
    if not net.has_node(target):
        raise NetworkError(f"unknown node {target!r}")
    t_idx = net.index[target]
    ha = dijkstra(net, net.rev, t_idx, net.slopes)[0]
    hb = dijkstra(net, net.rev, t_idx, net.bases)[0]
    return {v: (ha[i], hb[i]) for v, i in net.index.items()}


def _search(net: Network, source, targets, d: float, criteria: int,
            q_edges, single_target: bool, banned=frozenset()) -> dict:
    """Shared label-setting core over the network without the ``banned``
    edges.  Returns {target: [LabeledPath, ...]}, each frontier in vector
    order."""
    if criteria not in (2, 3):
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
    if not (isfinite(d) and d > 0):
        raise NetworkError(f"demand d={d} must be finite and > 0")
    if not net.has_node(source):
        raise NetworkError(f"unknown node {source!r}")
    for t in targets:
        if not net.has_node(t):
            raise NetworkError(f"unknown node {t!r}")
    if not targets:
        return {}

    idx, out, heads, mode = net.index, net.out, net.heads, net.mode
    n = len(out)
    dk = demand_power(mode, d)
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

    def frontier(labels):
        # each settled (label, vector, slope, Q-slope, Q-base) is the path
        # label_path builds; its base is the vector's first component
        return [LabeledPath(*path_of(lid), CostFn(mode, slope, g[0]),
                            CostFn(mode, q_slope, q_base), g)
                for lid, g, slope, q_slope, q_base in labels]

    if not (three or use_astar or q_edges):
        settled = _two_criteria_loop(search_adjacency(net, banned), dk, s_idx,
                                     target_idx, parent, via, path_of)
        return {t: frontier(settled[idx[t]]) for t in targets}
    if use_astar:
        t_idx = next(iter(target_idx))
        ha = dijkstra(net, net.rev, t_idx, net.slopes, banned)[0]
        hb = dijkstra(net, net.rev, t_idx, net.bases, banned)[0]
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
    # (f, g, node, label, slope, Q-slope, Q-base); g's first component is
    # the base sum and, with 3 criteria, its third the Q-slope
    heap = [(zero, zero, s_idx, 0, 0.0, 0.0, 0.0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        entry = pop(heap)
        f, g, ni = entry[0], entry[1], entry[2]
        if heap and heap[0][0] == f and heap[0][1] == g and heap[0][2] == ni:
            # exact tie: the same vector at the same node; the smallest
            # (vertex, edge) sequence is kept and dominates the others
            group = [entry]
            while heap and heap[0][:3] == (f, g, ni):
                group.append(pop(heap))
            entry = min(group, key=lambda e: path_of(e[3]))
        _, _, _, lid, slope, q_slope, q_base = entry
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
            settled[ni].append((lid, g, slope, q_slope, q_base))
            if use_astar:
                continue  # s-t labels never extend to another simple s-t path
        base = g[0]
        for mi, eid, b, a in out[ni]:
            if eid in banned:
                continue
            n1 = base + b
            ns = slope + a
            if eid in q_edges:
                nqs, nqb = q_slope + a, q_base + b
            else:
                nqs, nqb = q_slope, q_base
            n2 = n1 + ns * dk
            if three:
                if staircase_covers(stairs[mi], n2, nqs):
                    continue
                ng = (n1, n2, nqs)
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
                    if staircase_covers(stairs[t_idx], f2, nqs):
                        continue
                    nf = (f1, f2, nqs)
                else:
                    if f2 >= g2_min[t_idx]:
                        continue
                    nf = (f1, f2)
            else:
                nf = ng
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (nf, ng, mi, n_labels, ns, nqs, nqb))

    return {t: frontier(settled[idx[t]]) for t in targets}


def search_adjacency(net: Network, banned: frozenset) -> list:
    """Per node, the entries of ``net.out`` whose edge is not ``banned``.

    The last one built is kept on the network, so the searches of a solve,
    its forked pool workers and the next solve of the same route share it.
    """
    kept = net._adjacency
    adj = kept.get(banned)
    if adj is None:
        adj = [[edge for edge in edges if edge[1] not in banned] for edges in net.out]
        kept.clear()
        kept[banned] = adj
    return adj


def _two_criteria_loop(adj, dk: float, s_idx: int, target_idx, parent, via,
                       path_of) -> dict:
    """The label loop of a 2-criteria search without a heuristic.

    Heap entries are flat (base, tau(d), node, label, slope): the order and
    the exact tie groups of the general loop with f = g.  Once every target
    holds a settled label, a label whose tau(d) is at least the largest
    target ``g2_min`` is pruned at generation and at pop: each target's
    labels were popped earlier, with no larger base, and tau(d) never falls
    along a path, so every extension of it would be dominated at every
    target.  Returns {target index: [settled (label, vector, slope, 0.0,
    0.0)]}.
    """
    g2_min = [inf] * len(adj)
    settled: dict[int, list] = {ti: [] for ti in target_idx}
    unsettled = len(settled)
    bound, top = inf, -1    # the largest target g2_min and its target
    heap = [(0.0, 0.0, s_idx, 0, 0.0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        g1, g2, ni, lid, slope = pop(heap)
        if heap and heap[0][1] == g2 and heap[0][0] == g1 and heap[0][2] == ni:
            # exact tie, resolved as in the general loop
            group = [(lid, slope)]
            while heap and heap[0][:3] == (g1, g2, ni):
                group.append(pop(heap)[3:])
            lid, slope = min(group, key=lambda label: path_of(label[0]))
        if g2 >= g2_min[ni] or g2 >= bound:
            continue
        g2_min[ni] = g2
        if ni in settled:
            labels = settled[ni]
            labels.append((lid, (g1, g2), slope, 0.0, 0.0))
            if len(labels) == 1:
                unsettled -= 1
            if not unsettled and (top < 0 or ni == top):
                top = max(settled, key=g2_min.__getitem__)
                bound = g2_min[top]
        for mi, eid, b, a in adj[ni]:
            best = g2_min[mi]
            if best > bound:
                best = bound
            if best <= g2:
                continue  # both sums only grow, so n2 >= g2 >= best
            n1 = g1 + b
            ns = slope + a
            n2 = n1 + ns * dk
            if n2 >= best:
                continue
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (n1, n2, mi, n_labels, ns))
    return settled


def mc_shortest(net: Network, s, t, d: float, criteria: int = 2,
                q_edges=(), banned=()) -> list[LabeledPath]:
    """All Pareto-optimal simple s-t paths that avoid the ``banned`` edges,
    under the componentwise vector order; with 3 criteria each edge also
    contributes its derivative coefficient when it lies on the original
    route.
    """
    if s == t:
        raise NetworkError("source equals target")
    return _search(net, s, (t,), d, criteria, frozenset(q_edges or ()),
                   single_target=True, banned=frozenset(banned))[t]


def mc_multi_target(net: Network, s, targets, d: float, criteria: int = 2,
                    q_edges=(), banned=()) -> dict:
    """One search from ``s``, avoiding the ``banned`` edges, producing the
    Pareto frontier at every target."""
    return _search(net, s, tuple(targets), d, criteria, frozenset(q_edges or ()),
                   single_target=False, banned=frozenset(banned))
