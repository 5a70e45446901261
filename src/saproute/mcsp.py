"""Multi-criteria shortest path search with Pareto label sets per node.

Label-setting search over criteria vectors g = (tau(0), tau(d)[, shared
slope]), run on the network's own arrays (``Network.out``, ``rev`` and
``heads``).  A label carries the coefficient sums ``label_path`` adds, in
its order, and its vector is computed from them as ``label_path`` computes
it, so the labels kept at a target are the frontier ``_search`` returns,
as ``label_path``'s records of those paths; the Q-sums of a search given
Q's edges are added to the records afterwards, in the same order.  Each
criteria count has one label loop over flat heap entries popped in
lexicographic order, so labels reach a node with a non-decreasing first
criterion and a label is dominated exactly when an earlier one there is no
worse in the rest: with 2 criteria that is the node's running minimum of
g2, with 3 a (g2, g3) staircase (BOA*, Hernandez
Ulloa et al. 2020, and the dimensionality reduction of Pulido, Mandow &
Perez-de-la-Cruz 2015).  The test prunes at generation and at pop time.
``_two_criteria_loop`` runs every 2-criteria search: ``d-sap``'s, which is
the Q-edge-free detour search from Q's first vertex to its last, and the
detour searches of the fewer-criteria solvers.  Where the network keeps
``_astar_bound``'s distances to the search's last target, it is an A*
ordered by them (the landmark bound of ALT, Goldberg & Harrelson 2005, as
the key of BOA*), with the labels that rounding puts out of order kept and
swept; else the same loop runs on zero distances, which order by the
first criterion alone.  Once every target holds a label it drops a label
whose completions a kept target label dominates, BOA*'s target bound
taken over several targets, with a margin for rounding.  A detour search
may also be seeded with ``d-sap``'s frontier, a bound set in the sense of
Ehrgott & Gandibleux (2007): it drops a label once a seed path strictly
beats, in base and in tau(d), every candidate that completes it.  The cut is exact because a seed path is
Q-edge-free (its third criterion is 0), the bound to L, taken with no edge
banned, stays a lower bound under any ban, and the cut is strict in both
sums beyond a ``_ROUNDING`` margin.  ``_three_criteria_loop`` runs
every 3-criteria search (``sap``/direct, and ``1d-sap``/direct over the
phase states that ``_phase_states`` adds to the Q-banned adjacency), each
to one target: an A* whose bound comes from two reverse ``dijkstra`` runs
over the slope and base coefficients, kept on the network per target by
``_astar_bound``; it keeps every label popped at the target and
returns them through one ``dominance.pareto_sweep``.  A multi-target
search runs 2 criteria only, and one without targets returns at once.

Labels are parent pointers (parent label, edge).  Every edge adds a
strictly positive amount to the second criterion, so a label that
revisits a vertex is dominated by its own earlier visit: paths found are
simple without any vertex scan (the phase search's are simple in its
states, so ``solvers.solve_1d_sap`` drops those that repeat a node).
Exact vector ties keep the lexicographically smaller (vertex, edge)
sequence of the network, which makes results deterministic and
independent of scheduling; the sequences are rebuilt only when such a tie
happens.  ``dijkstra``, the one scalar search (it
also serves ``solvers.scalar_shortest``), settles the path it returns the
same way on an exact distance tie.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from math import inf
from operator import itemgetter

from .dominance import pareto_sweep, staircase_add, staircase_covers
from .network import Network, NetworkError, check_demand, demand_power

# the float sum of k non-negative terms is within (k - 1) * 2**-53 of the
# exact sum, relatively: the A* target prunes leave this share of f for
# rounding, enough for paths of millions of edges
_ROUNDING = 1e-9


def dijkstra(net: Network, adj, source: int, weights,
             target: int = -1) -> tuple[list, tuple | None]:
    """Parent-pointer Dijkstra from node index ``source`` over ``adj``
    (``net.out``, or ``net.rev`` to search backwards) under the per-edge
    ``weights``, until ``target`` is settled.

    Returns the distances, summed in path order (tentative where not
    settled), and the (vertices, edges) path to ``target`` or None.  With a
    target, of exactly equal distances the smaller (vertices, edges) path
    settles first; paths are rebuilt only for such ties, and an entry is
    pushed for an equal distance too.  Without one, only a strictly shorter
    distance is pushed.
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
            dv = du + weights[eid]
            if dv < dist[vi] or (dv == dist[vi] and target >= 0):
                dist[vi] = dv
                push(heap, (dv, vi, ui, eid))
    return dist, None


def _search(net: Network, source, targets, d: float, criteria: int,
            q_edges, banned=frozenset(), route=None, seed=None) -> dict:
    """Shared set-up of the two label loops, over the network without the
    ``banned`` edges, or with the original ``route`` given, over its
    ``_phase_states`` from Q's first vertex, with 3 criteria.  A 3-criteria
    search has at most one target and reads its A* bound from
    ``_astar_bound``, kept per (network, target) and admissible under any
    ban; the phase states extend a copy.
    A 2-criteria search is guided by the bound to its last target
    (``_two_criteria_loop``'s ``guide``) where the network keeps it, else
    by zero distances; it computes none.  Returns {target: [record, ...]},
    each frontier in vector order, each record the one ``label_path``
    gives its path: (vertices, edge ids, slope, base, Q-slope, Q-base,
    vector)."""
    if criteria not in (2, 3):
        raise NetworkError(f"criteria must be 2 or 3, got {criteria}")
    if criteria == 3 and len(targets) > 1:
        raise NetworkError("a 3-criteria search has one target")
    if route is not None and criteria != 3:
        raise NetworkError("a search over the route's phase states has 3 criteria")
    check_demand(d)
    idx, heads, slopes, bases = net.index, net.heads, net.slopes, net.bases
    try:
        s_idx = idx[source]
        t_idx = [idx[t] for t in targets]
    except KeyError as exc:
        raise NetworkError(f"unknown node {exc.args[0]!r}") from None
    if not targets:
        return {}

    dk = demand_power(net.mode, d)
    adj = search_adjacency(net, banned) if banned else net.out
    if route is not None:
        adj, phase_nodes = _phase_states(net, route)
        s_idx = len(net.nodes)
    parent = [-1]   # label id -> parent label id; label 0 is the source
    via = [-1]      # label id -> edge id

    def path_of(lid):
        edges = []
        while lid:
            edges.append(via[lid])
            lid = parent[lid]
        edges.reverse()
        return (source, *[heads[e] for e in edges]), tuple(edges)

    def frontier(labels):
        # each kept (label, vector, slope) holds the sums label_path adds:
        # its base is the vector's first component, and its Q-sums are
        # added here in label_path's order
        records = []
        for lid, g, slope in labels:
            vertices, edges = path_of(lid)
            q_slope = q_base = 0.0
            for eid in edges if q_edges else ():
                if eid in q_edges:
                    q_slope += slopes[eid]
                    q_base += bases[eid]
            records.append((vertices, edges, slope, g[0], q_slope, q_base, g))
        return records

    if criteria == 2:
        guide = _guide(net._bounds.get(t_idx[-1]), t_idx, len(adj))
        settled = _two_criteria_loop(adj, dk, s_idx, t_idx, guide, parent, via, path_of, seed)
        return {t: frontier(settled[ti]) for t, ti in zip(targets, t_idx)}
    (t,) = targets
    ha, hb = _astar_bound(net, t_idx[0])
    if route is not None:
        # a phase state's bound is its node's: the network's distances
        # relax the phase states' own
        ha = ha + [ha[v] for v in phase_nodes]
        hb = hb + [hb[v] for v in phase_nodes]
    return {t: frontier(_three_criteria_loop(adj, dk, s_idx, t_idx[0], ha, hb, q_edges,
                                             parent, via, path_of))}


def _guide(bound, t_idx, n: int):
    """``_two_criteria_loop``'s guide from ``bound``, the distances to the
    last of the targets ``t_idx``: zero distances over the ``n`` nodes
    where there is no bound or some target cannot reach it."""
    if bound is not None:
        ha, hb = bound
        ca = cb = 0.0
        for ti in t_idx:
            if ha[ti] > ca:
                ca = ha[ti]
            if hb[ti] > cb:
                cb = hb[ti]
        if cb < inf:
            return ha, hb, ca, cb
    zeros = [0.0] * n
    return zeros, zeros, 0.0, 0.0


def _astar_bound(net: Network, t_idx: int) -> tuple[list, list]:
    """The least slope and base sums from every node to node ``t_idx``:
    two reverse ``dijkstra`` runs.

    They depend on neither the demand nor the model, so they are kept on
    the network per target and every later 3-criteria search to that
    target reads them, as does every 2-criteria search whose last target it
    is.  A search without some edges reads them too: a ban only lengthens
    paths, so the bound stays admissible.  Callers must not change the
    lists.
    """
    bound = net._bounds.get(t_idx)
    if bound is None:
        bound = net._bounds[t_idx] = (dijkstra(net, net.rev, t_idx, net.slopes)[0],
                                      dijkstra(net, net.rev, t_idx, net.bases)[0])
    return bound


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


def _phase_states(net: Network, route) -> tuple[list, list]:
    """The adjacency of the ``1d-sap`` search, whose paths from Q's first
    vertex to its last are Q's edge prefix, a Q-edge-free middle and Q's
    edge suffix.

    With n nodes and Q = v_1..v_q, states 0..n-1 are the middle phase: the
    network's nodes with the Q-banned ``search_adjacency``, where v_k
    (k < q) also takes Q's edge k into the suffix.  State n + k - 1 is the
    prefix at v_k (k < q): the Q-banned entries of v_k and Q's edge k along
    the prefix.  State n + q + k - 3 is the suffix at v_k (1 < k < q), with
    Q's edge k only.  The prefix and the suffix reach v_q as the node v_q
    itself.  Entries carry the network's edges, so a label's path is a path
    of the network; the kept lists are copied, never extended.  Returns the
    adjacency and the node of each state after the first n.
    """
    slopes, bases = net.slopes, net.bases
    kept = search_adjacency(net, frozenset(route.edge_ids))
    n = len(kept)
    on_q = [net.index[v] for v in route.vertices]
    last = len(on_q) - 1
    adj = list(kept)
    prefix, suffix = [], []
    for k, e in enumerate(route.edge_ids):
        u, b, a = on_q[k], bases[e], slopes[e]
        at_end = k + 1 == last
        prefix.append(kept[u] + [(on_q[-1] if at_end else n + k + 1, e, b, a)])
        into_suffix = (on_q[-1] if at_end else n + last + k, e, b, a)
        adj[u] = kept[u] + [into_suffix]
        if k:
            suffix.append([into_suffix])
    return adj + prefix + suffix, on_q[:last] + on_q[1:last]


def _two_criteria_loop(adj, dk: float, s_idx: int, target_idx, guide, parent, via,
                       path_of, seed=None) -> dict:
    """The label loop of every 2-criteria search: an A* to several targets.

    ``guide`` is (ha, hb, ca, cb): ``_astar_bound``'s slope and
    base distances to the search's last target L, and their largest values
    over the targets.  Every target lies within cb of L, so by the triangle
    inequality in each sum (a ban only lengthens paths) a path from node u
    to any target has a base of at least max(hb(u), cb) - cb and a tau(d)
    of at least that plus (max(ha(u), ca) - ca) * dk.  Heap entries are
    (f1, base, tau(d), node, label, slope), where f1 = base + max(hb(u), cb)
    is the A* key on that bound shifted by cb.  A node that cannot reach L
    (hb = inf) reaches no target and is dropped.  Where the network keeps
    no bound, or a target cannot reach L, all four are 0, and the labels
    pop in base order.

    At one node the shift is fixed and f1 never decreases as the base
    grows, so the labels that meet there pop in (base, tau(d)) order and
    exact ties pop together, as in BOA*: a label is dominated exactly when
    it is no better than the node's kept point, the last label kept there
    (its base ``g1_at`` and ``g2_min``).  Rounding may put a child's f1 an
    ulp below its parent's, so a label may reach a node after one with a
    larger base was kept there.  So the kept point drops a label only where
    its base is no larger and it is not the label's exact tie; a label that
    beats it in both sums becomes the point, and a label kept out of order
    leaves it as it is.  A target that keeps a label whose base is no
    larger than the one kept before it is swept with
    ``dominance.pareto_sweep`` at the end, which also keeps the smaller
    path of an exact tie.

    Once every target holds a label, the targets bound the search.  A label
    is dropped at generation when its f1 reaches the largest f1 kept at a
    target, and f2 = tau(d) + max(hb(u), cb) + max(ha(u), ca) * dk reaches
    the largest target ``g2_min`` shifted by cb + ca * dk: a kept target
    label then has no larger base and a smaller tau(d) than each of its
    completions, as neither sum falls along a path.  At pop, where f2 is
    not at hand, the same test runs with f2 at its least, tau(d) + cb +
    ca * dk.  Both cuts leave a ``_ROUNDING`` share of themselves for
    rounding: of the completions' sums, of the Dijkstra sums behind ha and
    hb, and of the shift, which the cuts hold.

    ``seed`` is None, or (bases, taus, (p_slope, p_base)):
    the (base, tau(d)) points of a frontier of candidates that run to L,
    in base order (so their tau(d) falls), and a least slope and base that
    a candidate sums before it reaches the source.  A candidate through a
    label at u with sums (n1, n2) then has a base of at least p_base + n1 +
    hb(u) and a tau(d) of at least p_base + hb(u) + n2 + (p_slope + ha(u))
    * dk, as ha and hb are unshifted lower bounds on the distances to L
    (zeros are too).  The label is dropped at generation when a seed
    point's base and tau(d) are both below these, each by a ``_ROUNDING``
    share of itself: the point then strictly dominates every such
    candidate in both sums, so an exact tie is never cut.  A label the
    seed drops drops every label it dominates at its node, as the bounds
    never fall as the sums grow.  Returns {target index: [(label, vector,
    slope)]}, each in vector order.
    """
    n = len(adj)
    ha, hb, ca, cb = guide
    g2_min = [inf] * n
    g1_at = [inf] * n       # the base of the label that set g2_min
    settled: dict[int, list] = {ti: [] for ti in target_idx}
    unsorted = None     # the targets to sweep
    unsettled = len(settled)
    bound, top = inf, -1    # the largest target g2_min and its target
    top_f1 = 0.0            # the largest f1 kept at a target
    f1_cut = f2_cut = inf
    shift = cb + ca * dk
    if seed is not None:
        seed_b, seed_t, (p_slope, p_base) = seed
    heap = [(0.0, 0.0, 0.0, s_idx, 0, 0.0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        f1, g1, g2, ni, lid, slope = pop(heap)
        if heap and heap[0][2] == g2 and heap[0][1] == g1 and heap[0][3] == ni:
            # exact tie: the same vector at the same node; the smallest
            # (vertex, edge) sequence is kept and dominates the others
            group = [(lid, slope)]
            while heap and heap[0][1:4] == (g1, g2, ni):
                group.append(pop(heap)[4:])
            lid, slope = min(group, key=lambda label: path_of(label[0]))
        if f1 >= f1_cut and g2 + shift >= f2_cut:
            continue
        m = g2_min[ni]
        if g2 < m:
            g2_min[ni] = g2
            g1_at[ni] = g1
        else:
            p = g1_at[ni]
            if g1 >= p and (g2 > m or g1 > p):
                continue
        if ni in settled:
            labels = settled[ni]
            if labels and labels[-1][1][0] >= g1:
                unsorted = unsorted or set()
                unsorted.add(ni)
            labels.append((lid, (g1, g2), slope))
            if f1 > top_f1:
                top_f1 = f1
            if len(labels) == 1:
                unsettled -= 1
            if not unsettled:
                if top < 0 or ni == top:
                    top = max(settled, key=g2_min.__getitem__)
                    bound = g2_min[top]
                f1_cut = top_f1 + _ROUNDING * top_f1
                f2_cut = bound + shift
                f2_cut += _ROUNDING * f2_cut
        for mi, eid, b, a in adj[ni]:
            m = g2_min[mi]
            if m < g2 and g1_at[mi] <= g1:
                continue    # the sums never fall, so the label is dominated
            n1 = g1 + b
            ns = slope + a
            n2 = n1 + ns * dk
            if n2 >= m:
                p = g1_at[mi]
                if n1 >= p and (n2 > m or n1 > p):
                    continue
            h = hb[mi]
            if h < cb:
                h = cb
            f1 = n1 + h
            if f1 >= f1_cut:
                if f1 == inf:
                    continue    # mi reaches no target
                h2 = ha[mi]
                if n2 + h + (h2 if h2 > ca else ca) * dk >= f2_cut:
                    continue
            if seed is not None:
                # hb[mi] is finite here: an inf f1 was dropped above
                h = hb[mi] + p_base
                x = h + n1
                i = bisect_left(seed_b, x - x * _ROUNDING)
                if i:
                    y = h + n2 + (p_slope + ha[mi]) * dk
                    if seed_t[i - 1] < y - y * _ROUNDING:
                        continue
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (f1, n1, n2, mi, n_labels, ns))
    for ti in unsorted or ():
        settled[ti] = pareto_sweep(settled[ti], itemgetter(1),
                                   lambda label: path_of(label[0]), lambda label: label)
    return settled


def _three_criteria_loop(adj, dk: float, s_idx: int, t_idx: int, ha, hb, q_edges,
                         parent, via, path_of) -> list:
    """The label loop of every 3-criteria search: an A* to node ``t_idx``.

    Heap entries are (f1, f2, f3, g1, g2, g3, node, label, slope), g3 the
    slope summed over Q's edges; f adds the slope and base lower bounds
    ``ha`` and ``hb`` to g.  A label is tested against its node's staircase
    (``dominance.staircase_covers``, inline) and the target's, and the
    target's labels are not extended.

    f2 = g2 + h_a * dk + h_b is summed in another order than a completion's
    own tau(d), so it may exceed it by a rounding error.  The target's
    staircase therefore prunes a label only where it covers (f2 less
    ``_ROUNDING`` of it, f3), and a label may pop at the target after one it
    ties exactly or dominates.  So every label popped there is kept, and one
    ``pareto_sweep`` at the end returns the non-dominated ones, the smaller
    path of an exact tie.  Returns [(label, vector, slope)] in vector order.
    """
    stairs = [([], []) for _ in adj]
    t_stair = stairs[t_idx]
    t_ys, t_zs = t_stair
    reached = []
    heap = [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, s_idx, 0, 0.0)]
    n_labels = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        entry = pop(heap)
        _, f2, f3, g1, g2, g3, ni, lid, slope = entry
        # f follows from g and the node, so equal (g, node) is an exact tie
        if heap and heap[0][4] == g2 and heap[0][3] == g1 and heap[0][5] == g3 \
                and heap[0][6] == ni:
            group = [entry]
            while heap and heap[0][3:7] == entry[3:7]:
                group.append(pop(heap))
            lid, slope = min(group, key=lambda e: path_of(e[7]))[7:]
        if ni == t_idx:
            # s-t labels never extend to another simple s-t path
            reached.append((lid, (g1, g2, g3), slope))
            if not staircase_covers(t_stair, g2, g3):
                staircase_add(t_stair, g2, g3)
            continue
        stair = stairs[ni]
        ys, zs = stair
        i = bisect_right(ys, g2)
        if i and zs[i - 1] <= g3:
            continue
        i = bisect_right(t_ys, f2)
        if i and t_zs[i - 1] <= f3 and (
                t_ys[i - 1] <= f2 - f2 * _ROUNDING
                or staircase_covers(t_stair, f2 - f2 * _ROUNDING, f3)):
            continue
        staircase_add(stair, g2, g3)
        for mi, eid, b, a in adj[ni]:
            n1 = g1 + b
            ns = slope + a
            nqs = g3 + a if eid in q_edges else g3
            n2 = n1 + ns * dk
            ys, zs = stairs[mi]
            i = bisect_right(ys, n2)
            if i and zs[i - 1] <= nqs and mi != t_idx:
                continue  # the target's staircase is tested below
            rb = hb[mi]
            if rb == inf:
                continue
            f1 = n1 + rb
            f2 = n2 + ha[mi] * dk + rb
            i = bisect_right(t_ys, f2)
            if i and t_zs[i - 1] <= nqs and (
                    t_ys[i - 1] <= f2 - f2 * _ROUNDING
                    or staircase_covers(t_stair, f2 - f2 * _ROUNDING, nqs)):
                continue
            parent.append(lid)
            via.append(eid)
            n_labels += 1
            push(heap, (f1, f2, nqs, n1, n2, nqs, mi, n_labels, ns))
    return pareto_sweep(reached, itemgetter(1), lambda label: path_of(label[0]),
                        lambda label: label)

