import heapq
import math
import random

import pytest

import saproute as sr
from saproute import mcsp
from saproute.dominance import simple_cull
from saproute.oracle import enumerate_simple_paths
from saproute.synthetic import corridor_instance

from conftest import brute_frontier, random_network, search, tie_heavy_network


def two_parallel(c1, c2):
    return sr.Network.build(sr.QUADRATIC, ["s", "t"],
                            [("s", "t", sr.CostFn.quadratic(*c1)),
                             ("s", "t", sr.CostFn.quadratic(*c2))])


def frontiers(net, s, targets, d, criteria, q_edges=frozenset(), banned=frozenset()):
    """Each target's frontier, as records: from one multi-target search with
    2 criteria, from one search per target with 3 (a 3-criteria search has
    one target)."""
    if criteria == 2:
        return mcsp._search(net, s, tuple(targets), d, 2, frozenset(q_edges),
                            frozenset(banned))
    return {t: search(net, s, t, d, 3, q_edges, banned) for t in targets}


def test_mc_shortest_parallel_edges():
    # incomparable vectors (1,5) and (2,3): both survive
    net = two_parallel((1, 1), (0.25, 2))
    got = search(net, "s", "t", 2.0)
    assert sorted(p[6] for p in got) == [(1, 5), (2, 3)]
    # dominated parallel edge disappears
    net = two_parallel((1, 1), (2, 1))  # (1,5) vs (1,9) at d=2
    got = search(net, "s", "t", 2.0)
    assert [p[6] for p in got] == [(1, 5)]
    assert got[0][1] == (0,)


def test_mc_shortest_validates_input():
    net = two_parallel((1, 1), (2, 1))
    with pytest.raises(sr.NetworkError):   # a route from s to s
        sr.SapInstance(net, sr.Route(sr.Path(("s",), ()), 2.0), sr.parse_model("ue"))
    with pytest.raises(sr.NetworkError):
        search(net, "s", "zz", 2.0)
    with pytest.raises(sr.NetworkError):
        search(net, "s", "t", 2.0, criteria=4)
    with pytest.raises(sr.NetworkError):
        mcsp._search(net, "s", ("t",), 2.0, 4, frozenset())


def test_a_three_criteria_search_refuses_more_than_one_target():
    net = sr.Network.build(sr.QUADRATIC, ["s", "m", "t"],
                           [("s", "m", sr.CostFn.quadratic(1, 1)),
                            ("m", "t", sr.CostFn.quadratic(1, 1))])
    with pytest.raises(sr.NetworkError, match="one target"):
        mcsp._search(net, "s", ("m", "t"), 2.0, 3, frozenset())


def test_a_phase_state_search_refuses_two_criteria():
    # also once a sap solve has kept the A* bound to Q's last vertex
    net, route = corridor_instance(4, 4, 100.0, 1, hops=2)
    q = route.path
    args = (net, q.source, (q.target,), 100.0, 2, frozenset(q.edge_ids))
    with pytest.raises(sr.NetworkError, match="3 criteria"):
        mcsp._search(*args, route=q)
    sr.solve_sap(sr.SapInstance(net, route, sr.parse_model("ue")))
    assert net._bounds
    with pytest.raises(sr.NetworkError, match="3 criteria"):
        mcsp._search(*args, route=q)


def test_mc_shortest_matches_brute_force_frontier():
    # the module's master test: the search settles exactly the frontier the
    # enumeration labels and culls, cost functions and vectors bit for bit,
    # at one target and, avoiding banned edges, at every target
    rng = random.Random(20260809)
    checked = 0
    while checked < 200:
        net = random_network(rng, 5, 12, 0.3, 0.0, 5.0)
        s, t = 0, len(net.nodes) - 1
        d = rng.choice([1.0, 2.0, 5.0, 10.0])
        criteria = 2 if checked % 2 == 0 else 3
        q_edges = frozenset()
        if criteria == 3:
            from saproute.solvers import scalar_shortest
            q = scalar_shortest(net, s, t, 1.0)
            if q is None:
                continue
            q_edges = frozenset(q.edge_ids)
        want = brute_frontier(net, s, t, d, criteria, q_edges)
        got = search(net, s, t, d, criteria, q_edges)
        assert got == want, f"frontier mismatch on instance {checked}"
        edge_ids = range(len(net.tails))
        banned = frozenset(rng.sample(edge_ids, len(edge_ids) // 5))
        d = rng.choice([1.0, 7.3, 2000.0])
        targets = net.nodes[1:]
        multi = frontiers(net, s, targets, d, criteria, q_edges, banned)
        for v in targets:
            assert multi[v] == brute_frontier(net, s, v, d, criteria, q_edges, banned), \
                f"instance {checked} node {v}"
        checked += 1


def test_mc_shortest_output_is_reduced_and_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        net = random_network(rng, 5, 10, 0.35)
        d = 4.0
        got = search(net, 0, len(net.nodes) - 1, d, 2)
        assert simple_cull(got) == got  # cull fix-point
        again = search(net, 0, len(net.nodes) - 1, d, 2)
        assert again == got


def test_mc_shortest_respects_heuristic_lower_bound():
    rng = random.Random(6)
    for _ in range(30):
        net = random_network(rng, 5, 10, 0.35)
        s, t = 0, len(net.nodes) - 1
        # the least slope and base sums of any path from s to t
        ha = mcsp.dijkstra(net, net.rev, net.index[t], net.slopes)[0][net.index[s]]
        hb = mcsp.dijkstra(net, net.rev, net.index[t], net.bases)[0][net.index[s]]
        d = 3.0
        for p in search(net, s, t, d, 2):
            assert p[6][0] >= hb - 1e-9
            assert p[6][1] >= ha * d * d + hb - 1e-9


def test_mc_multi_target_chain():
    net = sr.Network.build(sr.QUADRATIC, ["s", "u", "t"],
                           [("s", "u", sr.CostFn.quadratic(1, 1)),
                            ("u", "t", sr.CostFn.quadratic(1, 2))])
    got = frontiers(net, "s", ("u", "t"), 2.0, 2)
    assert [p[6] for p in got["u"]] == [(1, 5)]
    assert [p[6] for p in got["t"]] == [(3, 11)]


def test_mc_multi_target_source_is_empty_path():
    net = two_parallel((1, 1), (2, 1))
    got = frontiers(net, "s", ("s",), 2.0, 2)
    assert len(got["s"]) == 1
    assert got["s"][0][6] == (0.0, 0.0)
    assert got["s"][0][1] == ()


def test_mc_multi_target_consistent_with_single_target():
    rng = random.Random(21)
    for trial in range(25):
        net = random_network(rng, 5, 10, 0.35)
        nodes = list(net.nodes)
        s = nodes[0]
        targets = tuple(nodes[1:])
        d = 2.0
        q_edges = frozenset(e.index for e in net.edges[: len(net.edges) // 3])
        multi = frontiers(net, s, targets, d, 2, q_edges)
        for t in targets:
            single = search(net, s, t, d, 2, q_edges)
            assert multi[t] == single, f"target {t} disagrees"


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@pytest.mark.parametrize("criteria", [2, 3])
def test_tie_heavy_frontiers_match_brute_force_exactly(mode, criteria):
    # integer costs make exact vector ties common: every tie must resolve to
    # the same lexicographically smallest path the enumeration keeps
    rng = random.Random(f"{mode}-{criteria}")
    for trial in range(60):
        net = tie_heavy_network(rng, mode)
        s, t = 0, len(net.nodes) - 1
        # integer sums are exact; at 7.3 the A* bound's rounding shows
        demands = (float(rng.randint(1, 3)),) + ((7.3,) if criteria == 3 else ())
        edge_ids = [e.index for e in net.edges]
        q_edges = frozenset(rng.sample(edge_ids, len(edge_ids) // 3))
        banned = frozenset(rng.sample(edge_ids, len(edge_ids) // 5)) \
            if trial % 3 == 0 else frozenset()
        for d in demands:
            want = brute_frontier(net, s, t, d, criteria, q_edges, banned)
            got = search(net, s, t, d, criteria, q_edges, banned)
            assert got == want, f"{mode} trial {trial} d={d}"
            targets = tuple(net.nodes[1:])
            multi = frontiers(net, s, targets, d, criteria, q_edges, banned)
            for v in targets:
                assert multi[v] == brute_frontier(net, s, v, d, criteria, q_edges, banned), \
                    f"{mode} trial {trial} d={d} node {v}"


def test_a_star_rounding_keeps_the_smaller_tied_path():
    # at the label on a, f2 = 8.3 + 7.3 = 15.600000000000001 exceeds the
    # settled (s, t)'s 1 + 2 * 7.3 = 15.6, which (s, a, t) ties exactly;
    # the smaller path must still replace (s, t), as without the bound
    net = sr.Network.build(sr.AFFINE, ["s", "a", "t"],
                           [("s", "a", sr.CostFn(sr.AFFINE, 1, 1)),
                            ("a", "t", sr.CostFn(sr.AFFINE, 1, 0)),
                            ("s", "t", sr.CostFn(sr.AFFINE, 2, 1))])
    got = search(net, "s", "t", 7.3, 3)
    assert [(p[0], p[6]) for p in got] == [(("s", "a", "t"), (1.0, 15.6, 0.0))]
    assert got == brute_frontier(net, "s", "t", 7.3, 3, frozenset())
    assert [p[0] for p in search(net, "s", "t", 7.3, 2)] == [("s", "a", "t")]


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_detour_search_bound_keeps_every_frontier(mode):
    # a detour search prunes against its targets once all of them hold a
    # label; from each route vertex, to the source itself and to every later
    # route vertex, avoiding the route's edges, it must still settle exactly
    # the enumerated frontiers, also where some target is out of reach and
    # the bound never engages
    check_detour_frontiers(mode, kept=False)


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_guided_detour_search_keeps_every_frontier(mode):
    # the same searches, guided by the A* bound to their last target
    check_detour_frontiers(mode, kept=True)


def check_detour_frontiers(mode, kept):
    """Detour searches on tie-heavy networks against the enumeration, with
    the network keeping the bound to their last target or none."""
    rng = random.Random(f"bound-{mode}")
    engaged = unreached = 0
    for trial in range(80):
        net = tie_heavy_network(rng, mode)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s
                  for p in enumerate_simple_paths(net, s, t)]
        if not routes:
            continue
        q = rng.choice(routes)
        banned = frozenset(q.edge_ids)
        for d in (1.0, 7.3, 2000.0):
            for i, source in enumerate(q.vertices[:-1]):
                targets = (source,) + q.vertices[i + 1:]
                if kept:
                    mcsp._astar_bound(net, net.index[targets[-1]])
                got = frontiers(net, source, targets, d, 2, banned=banned)
                want = {t: brute_frontier(net, source, t, d, 2, frozenset(), banned)
                        for t in targets}
                assert got == want, f"{mode} trial {trial} d={d} source {source}"
                if all(want.values()):
                    engaged += 1
                else:
                    unreached += 1
    assert engaged > 300 and unreached > 150, (engaged, unreached)


def spread_network(rng, mode):
    """A sparse digraph whose coefficients spread over 1e-6..1e6."""
    while True:
        n = rng.randint(4, 10)
        edges = [(u, v, sr.CostFn(mode, 10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6)))
                 for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        if edges:
            return sr.Network.build(mode, range(n), edges)


def unguided_copy(net):
    """The same network, keeping no A* bound."""
    return sr.Network.build(net.mode, net.nodes, [(e.tail, e.head, e.cost) for e in net.edges])


def test_guided_searches_equal_unguided_ones_record_for_record():
    # a 2-criteria search on a network that keeps the bound to its last
    # target orders its labels by it; its records must be those of the same
    # search on a network that keeps none, bit for bit, whatever the
    # coefficients' spread, the ban, the targets and the demand
    rng = random.Random(20261019)
    guided = unguided = dead_ends = 0
    for trial in range(1500):
        mode = rng.choice([sr.QUADRATIC, sr.AFFINE])
        net = spread_network(rng, mode)
        edge_ids = range(len(net.tails))
        banned = frozenset(rng.sample(edge_ids, rng.randint(0, len(edge_ids) // 3)))
        source = rng.choice(net.nodes)
        targets = tuple(rng.sample(net.nodes, rng.randint(1, len(net.nodes))))
        _, hb = mcsp._astar_bound(net, net.index[targets[-1]])
        if max(hb[net.index[t]] for t in targets) < math.inf:
            guided += 1
            dead_ends += math.inf in hb
        else:
            unguided += 1     # a target cannot reach the last one
        fresh = unguided_copy(net)
        for d in (1e-3, 7.3, 2000.0):
            assert mcsp._search(net, source, targets, d, 2, frozenset(), banned) == \
                mcsp._search(fresh, source, targets, d, 2, frozenset(), banned), \
                f"trial {trial} d={d}"
    assert guided > 800 and unguided > 500 and dead_ends > 250, (guided, unguided, dead_ends)


def guided_and_unguided(build, source, targets, d=1.0):
    """The records of one search on a network that keeps the bound to the
    last target and on one that keeps none."""
    net, fresh = build(), build()
    mcsp._astar_bound(net, net.index[targets[-1]])
    return (mcsp._search(net, source, targets, d, 2, frozenset()),
            mcsp._search(fresh, source, targets, d, 2, frozenset()))


def rounding_chain(a_slope, b_slope, b_base, via_m):
    """Path A leaves 0 by a unit-base edge into a chain of 40 edges whose
    base, a quarter ulp of 1, vanishes from A's base sum but not from the
    bound's sums, so A's labels carry an f1 up to 10 ulps above the base
    they reach 51 with; path B is one edge into 51, or into 50 on A's way."""
    tiny = sr.CostFn.quadratic(0.0, 2.0 ** -54)
    edges = [(0, 1, sr.CostFn.quadratic(a_slope, 1.0))]
    edges += [(k, k + 1, tiny) for k in range(1, 40)]
    edges += [(40, 50, tiny), (50, 51, tiny)]
    edges.append((0, 50 if via_m else 51, sr.CostFn.quadratic(b_slope, b_base)))
    return sr.Network.build(sr.QUADRATIC, list(range(1, 41)) + [0, 50, 51], edges)


ULP = 2.0 ** -52     # of the floats in [1, 2)


@pytest.mark.parametrize("a_slope, b_slope, b_base, via_m, firsts", [
    (1.0, 2.0, 1 + 5 * ULP, False, [1]),        # A dominates B
    (1.0, 2.0, 1 + 5 * ULP, True, [1]),
    (2.0, 1.0, 1 + 5 * ULP, False, [1, 51]),    # both on the frontier
    (2.0, 1.0, 1 + 5 * ULP, True, [1, 50]),
    (1.0, 1.0, 1.0, True, [1]),                 # an exact tie: A's path is smaller
], ids=["A-dominates", "A-dominates-via-50", "both", "both-via-50", "tie"])
def test_a_guided_search_keeps_labels_that_rounding_puts_out_of_order(
        a_slope, b_slope, b_base, via_m, firsts):
    # B reaches 50 and 51 before A, whose base there is no larger: the
    # guided search must still keep A where it is not dominated (the kept
    # point prunes only labels with no smaller base, and never an exact
    # tie), must not let the target bound drop it (the f1 margin), and
    # must sweep 51's labels
    got, want = guided_and_unguided(lambda: rounding_chain(a_slope, b_slope, b_base, via_m),
                                    0, (51,))
    assert got == want
    assert [rec[0][1] for rec in got[51]] == firsts


def test_the_guided_target_bound_leaves_room_for_rounding():
    # f2 at A's chain rounds 10 ulps above the tau(d) A reaches 51 with,
    # 5 ulps below B's: A is on the frontier and must not be pruned
    tiny = sr.CostFn.quadratic(0.0, 2.0 ** -53)

    def chain():
        edges = [(0, 1, sr.CostFn.quadratic(0.5, 2.0))]
        edges += [(k, k + 1, tiny) for k in range(1, 40)]
        edges += [(40, 51, tiny), (0, 51, sr.CostFn.quadratic(1.5 + 5 * 2.0 ** -51, 1.0))]
        return sr.Network.build(sr.QUADRATIC, list(range(1, 41)) + [0, 51], edges)

    got, want = guided_and_unguided(chain, 0, (51,))
    assert got == want and [rec[0][1] for rec in got[51]] == [51, 1]
    # t1 lies 1e9 from the last target L, so the keys of the labels on
    # A = (s, w, u, t1) carry 1e9, and u's distance to L rounds up by 5.8e-8,
    # while A's tau(d) is 2e-8 below B = (s, t1)'s: the margin must cover
    # the rounding at the keys' magnitude, not only at the bound's
    spacing = 2.0 ** -23            # of the floats near 1e9
    x = round(0.2 / spacing) * spacing + 0.51 * spacing
    b_slope = ((1.0 + 1.4) + x) + ((0.05 + 0.05) + 0.1) + 2e-8 - 0.5

    def far_landmark():
        q = sr.CostFn.quadratic
        return sr.Network.build(sr.QUADRATIC, ["s", "w", "u", "t1", "L"], [
            ("s", "t1", q(b_slope, 0.5)), ("s", "w", q(0.05, 1.0)), ("w", "u", q(0.05, 1.4)),
            ("u", "t1", q(0.1, x)), ("t1", "L", q(0.0, 1e9)), ("s", "L", q(0.0, 0.1))])

    got, want = guided_and_unguided(far_landmark, "s", ("t1", "L"))
    assert got == want and [rec[0] for rec in got["t1"]] == [("s", "t1"), ("s", "w", "u", "t1")]


def test_a_search_without_a_ban_reads_the_network_adjacency():
    # the one kept Q-banned adjacency survives searches with no ban, and
    # d-sap and the fc solvers share it
    net, route = corridor_instance(8, 8, 100.0, 1, hops=6)
    q = route.path
    q_ids = frozenset(q.edge_ids)
    sr.solve(sr.SapInstance(net, route, sr.parse_model("ue"), "d-sap"))
    kept = net._adjacency[q_ids]
    for criteria in (2, 3):
        search(net, q.source, q.target, 100.0, criteria)
        assert list(net._adjacency) == [q_ids] and net._adjacency[q_ids] is kept
    frontiers(net, q.source, net.nodes, 100.0, 2)
    assert list(net._adjacency) == [q_ids] and net._adjacency[q_ids] is kept
    for algorithm in ("direct", "fc"):
        sr.solve(sr.SapInstance(net, route, sr.parse_model("ue"), "sap", algorithm))
        sr.solve(sr.SapInstance(net, route, sr.parse_model("ue"), "1d-sap", algorithm))
        assert list(net._adjacency) == [q_ids] and net._adjacency[q_ids] is kept


def reference_dijkstra_distances(adj, source, weights):
    """The target-less loop as it was, pushing an entry on an equal
    distance too; returns the distances and the number of pushes."""
    dist = [math.inf] * len(adj)
    done = [False] * len(adj)
    dist[source] = 0.0
    heap, pushes = [(0.0, source)], 1
    while heap:
        du, ui = heapq.heappop(heap)
        if done[ui]:
            continue
        done[ui] = True
        for vi, eid, _, _ in adj[ui]:
            dv = du + weights[eid]
            if dv <= dist[vi]:
                dist[vi] = dv
                heapq.heappush(heap, (dv, vi))
                pushes += 1
    return dist, pushes


def test_dijkstra_without_a_target_pushes_only_strict_improvements(monkeypatch):
    # equal distances cannot change a distance: from every node, forwards and
    # backwards, under both weight columns, the distances are the old loop's
    # bit for bit, from fewer pushes
    pushes = 0
    real_push = heapq.heappush

    def push(heap, item):
        nonlocal pushes
        pushes += 1
        real_push(heap, item)

    old_pushes = 0
    for mode in (sr.QUADRATIC, sr.AFFINE):
        rng = random.Random(f"dijkstra-{mode}")
        for trial in range(300):
            net = tie_heavy_network(rng, mode)
            if trial % 3 == 0:
                # these trials searched without some edges, which dijkstra no
                # longer takes; their draw keeps the other trials' networks
                rng.sample(range(len(net.tails)), len(net.tails) // 5)
                continue
            for adj in (net.out, net.rev):
                for weights in (net.slopes, net.bases):
                    for source in range(len(net.nodes)):
                        want, n = reference_dijkstra_distances(adj, source, weights)
                        old_pushes += n
                        monkeypatch.setattr(heapq, "heappush", push)
                        pushes += 1   # the source's entry
                        got, path = mcsp.dijkstra(net, adj, source, weights)
                        monkeypatch.setattr(heapq, "heappush", real_push)
                        assert path is None
                        assert [x.hex() for x in got] == [x.hex() for x in want], \
                            f"{mode} trial {trial} source {source}"
    assert pushes < 0.85 * old_pushes, (pushes, old_pushes)   # 52,297 of 66,944


def test_a_search_without_targets_does_nothing(monkeypatch):
    net = two_parallel((1, 1), (2, 1))
    monkeypatch.setattr(heapq, "heappop", None)   # any search would fail
    assert frontiers(net, "s", (), 2.0, 2) == {}
    with pytest.raises(sr.NetworkError):
        frontiers(net, "zz", (), 2.0, 2)


@pytest.mark.parametrize("criteria", [2, 3])
def test_frontier_does_not_depend_on_edge_declaration_order(criteria):
    rng = random.Random(31 + criteria)
    for trial in range(40):
        net = tie_heavy_network(rng, sr.QUADRATIC, parallel=False)
        s, t = 0, len(net.nodes) - 1
        pairs = [(e.tail, e.head, e.cost) for e in net.edges]
        q_pairs = {(e.tail, e.head) for e in net.edges if e.index % 3 == 0}
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled = sr.Network.build(sr.QUADRATIC, net.nodes, [pairs[k] for k in order])

        def frontier(g):
            q_edges = {e.index for e in g.edges if (e.tail, e.head) in q_pairs}
            return [(p[6], p[0]) for p in search(g, s, t, 2.0, criteria, q_edges)]

        assert frontier(shuffled) == frontier(net), f"trial {trial}"


def test_search_rejects_non_finite_demand():
    net = two_parallel((1, 1), (2, 1))
    for d in (math.nan, math.inf):
        with pytest.raises(sr.NetworkError, match="finite"):
            search(net, "s", "t", d)
        with pytest.raises(sr.NetworkError, match="finite"):
            frontiers(net, "s", ("t",), d, 2)


def test_three_criteria_search_on_tie_heavy_networks_pushes_and_pops_at_most(monkeypatch):
    # a deterministic work gate on the 3-criteria loop alone (the A* bound is
    # computed first): the corridor's counts do not move when the loop's
    # third heap key is dropped, these exact ties do
    pushes = pops = 0
    real_push, real_pop = heapq.heappush, heapq.heappop

    def push(heap, item):
        nonlocal pushes
        pushes += 1
        real_push(heap, item)

    def pop(heap):
        nonlocal pops
        pops += 1
        return real_pop(heap)

    for mode in (sr.QUADRATIC, sr.AFFINE):
        rng = random.Random(f"three-criteria-work-{mode}")
        for _ in range(300):
            net = tie_heavy_network(rng, mode)
            t = len(net.nodes) - 1
            edge_ids = [e.index for e in net.edges]
            q_edges = frozenset(rng.sample(edge_ids, len(edge_ids) // 3))
            mcsp._astar_bound(net, t)
            monkeypatch.setattr(heapq, "heappush", push)
            monkeypatch.setattr(heapq, "heappop", pop)
            for d in (1.0, 2.0, 7.3):
                search(net, 0, t, d, 3, q_edges)
            monkeypatch.setattr(heapq, "heappush", real_push)
            monkeypatch.setattr(heapq, "heappop", real_pop)
    # the counts at the parent of the sweep's change
    assert pushes <= 7_723 and pops <= 9_523, (pushes, pops)
