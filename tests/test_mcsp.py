import heapq
import math
import random

import pytest

import saproute as sr
from saproute.dominance import simple_cull
from saproute.oracle import enumerate_simple_paths

from conftest import brute_frontier, random_network, tie_heavy_network


def two_parallel(c1, c2):
    return sr.Network.build(sr.QUADRATIC, ["s", "t"],
                            [("s", "t", sr.CostFn.quadratic(*c1)),
                             ("s", "t", sr.CostFn.quadratic(*c2))])


def test_build_heuristic_single_edge():
    net = sr.Network.build(sr.QUADRATIC, ["u", "t"],
                           [("u", "t", sr.CostFn.quadratic(2, 3))])
    h = sr.build_heuristic(net, "t")
    assert h["u"] == (2, 3)
    assert h["t"] == (0, 0)


def test_build_heuristic_diamond_takes_componentwise_minima():
    net = sr.Network.build(sr.QUADRATIC, ["u", "a", "b", "t"], [
        ("u", "a", sr.CostFn.quadratic(0.5, 4)),   # path 1: a-sum 1, b-sum 9
        ("a", "t", sr.CostFn.quadratic(0.5, 5)),
        ("u", "b", sr.CostFn.quadratic(2.5, 1)),   # path 2: a-sum 5, b-sum 2
        ("b", "t", sr.CostFn.quadratic(2.5, 1)),
    ])
    h = sr.build_heuristic(net, "t")
    assert h["u"] == (1, 2)


def test_build_heuristic_unreachable_is_infinite():
    net = sr.Network.build(sr.QUADRATIC, ["u", "t"], [])
    h = sr.build_heuristic(net, "t")
    assert h["u"] == (math.inf, math.inf)
    with pytest.raises(sr.NetworkError):
        sr.build_heuristic(net, "zz")


def test_mc_shortest_parallel_edges():
    # incomparable vectors (1,5) and (2,3): both survive
    net = two_parallel((1, 1), (0.25, 2))
    got = sr.mc_shortest(net, "s", "t", 2.0)
    assert sorted(p.vector for p in got) == [(1, 5), (2, 3)]
    # dominated parallel edge disappears
    net = two_parallel((1, 1), (2, 1))  # (1,5) vs (1,9) at d=2
    got = sr.mc_shortest(net, "s", "t", 2.0)
    assert [p.vector for p in got] == [(1, 5)]
    assert got[0].edge_ids == (0,)


def test_mc_shortest_validates_input():
    net = two_parallel((1, 1), (2, 1))
    with pytest.raises(sr.NetworkError):
        sr.mc_shortest(net, "s", "s", 2.0)
    with pytest.raises(sr.NetworkError):
        sr.mc_shortest(net, "s", "zz", 2.0)
    with pytest.raises(sr.NetworkError):
        sr.mc_shortest(net, "s", "t", 2.0, criteria=4)


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
        got = sr.mc_shortest(net, s, t, d, criteria, q_edges)
        assert got == want, f"frontier mismatch on instance {checked}"
        edge_ids = range(len(net.tails))
        banned = frozenset(rng.sample(edge_ids, len(edge_ids) // 5))
        d = rng.choice([1.0, 7.3, 2000.0])
        targets = net.nodes[1:]
        multi = sr.mc_multi_target(net, s, targets, d, criteria, q_edges, banned)
        for v in targets:
            assert multi[v] == brute_frontier(net, s, v, d, criteria, q_edges, banned), \
                f"instance {checked} node {v}"
        checked += 1


def test_mc_shortest_output_is_reduced_and_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        net = random_network(rng, 5, 10, 0.35)
        d = 4.0
        got = sr.mc_shortest(net, 0, len(net.nodes) - 1, d, 2)
        assert simple_cull(got) == got  # cull fix-point
        again = sr.mc_shortest(net, 0, len(net.nodes) - 1, d, 2)
        assert again == got


def test_mc_shortest_respects_heuristic_lower_bound():
    rng = random.Random(6)
    for _ in range(30):
        net = random_network(rng, 5, 10, 0.35)
        s, t = 0, len(net.nodes) - 1
        h = sr.build_heuristic(net, t)
        d = 3.0
        for p in sr.mc_shortest(net, s, t, d, 2):
            ha, hb = h[s]
            assert p.vector[0] >= hb - 1e-9
            assert p.vector[1] >= ha * d * d + hb - 1e-9


def test_mc_multi_target_chain():
    net = sr.Network.build(sr.QUADRATIC, ["s", "u", "t"],
                           [("s", "u", sr.CostFn.quadratic(1, 1)),
                            ("u", "t", sr.CostFn.quadratic(1, 2))])
    got = sr.mc_multi_target(net, "s", ("u", "t"), 2.0)
    assert [p.vector for p in got["u"]] == [(1, 5)]
    assert [p.vector for p in got["t"]] == [(3, 11)]


def test_mc_multi_target_source_is_empty_path():
    net = two_parallel((1, 1), (2, 1))
    got = sr.mc_multi_target(net, "s", ("s",), 2.0)
    assert len(got["s"]) == 1
    assert got["s"][0].vector == (0.0, 0.0)
    assert got["s"][0].edge_ids == ()


def test_mc_multi_target_consistent_with_single_target():
    rng = random.Random(21)
    for trial in range(25):
        net = random_network(rng, 5, 10, 0.35)
        nodes = list(net.nodes)
        s = nodes[0]
        targets = tuple(nodes[1:])
        d = 2.0
        criteria = 2 if trial % 2 == 0 else 3
        q_edges = frozenset(e.index for e in net.edges[: len(net.edges) // 3])
        multi = sr.mc_multi_target(net, s, targets, d, criteria, q_edges)
        for t in targets:
            single = sr.mc_shortest(net, s, t, d, criteria, q_edges)
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
        d = float(rng.randint(1, 3))
        edge_ids = [e.index for e in net.edges]
        q_edges = frozenset(rng.sample(edge_ids, len(edge_ids) // 3))
        banned = frozenset(rng.sample(edge_ids, len(edge_ids) // 5)) \
            if trial % 3 == 0 else frozenset()
        want = brute_frontier(net, s, t, d, criteria, q_edges, banned)
        got = sr.mc_shortest(net, s, t, d, criteria, q_edges, banned)
        assert got == want, f"{mode} trial {trial}"
        targets = tuple(net.nodes[1:])
        multi = sr.mc_multi_target(net, s, targets, d, criteria, q_edges, banned)
        for v in targets:
            assert multi[v] == brute_frontier(net, s, v, d, criteria, q_edges,
                                              banned), f"{mode} trial {trial} node {v}"


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_detour_search_bound_keeps_every_frontier(mode):
    # a detour search prunes against its targets once all of them hold a
    # label; from each route vertex, to the source itself and to every later
    # route vertex, avoiding the route's edges, it must still settle exactly
    # the enumerated frontiers, also where some target is out of reach and
    # the bound never engages
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
                got = sr.mc_multi_target(net, source, targets, d, 2, banned=banned)
                want = {t: brute_frontier(net, source, t, d, 2, frozenset(), banned)
                        for t in targets}
                assert got == want, f"{mode} trial {trial} d={d} source {source}"
                if all(want.values()):
                    engaged += 1
                else:
                    unreached += 1
    assert engaged > 300 and unreached > 150, (engaged, unreached)


def test_a_search_without_targets_does_nothing(monkeypatch):
    net = two_parallel((1, 1), (2, 1))
    monkeypatch.setattr(heapq, "heappop", None)   # any search would fail
    assert sr.mc_multi_target(net, "s", (), 2.0) == {}
    with pytest.raises(sr.NetworkError):
        sr.mc_multi_target(net, "zz", (), 2.0)


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
            return [(p.vector, p.vertices)
                    for p in sr.mc_shortest(g, s, t, 2.0, criteria, q_edges)]

        assert frontier(shuffled) == frontier(net), f"trial {trial}"


def test_search_rejects_non_finite_demand():
    net = two_parallel((1, 1), (2, 1))
    for d in (math.nan, math.inf):
        with pytest.raises(sr.NetworkError, match="finite"):
            sr.mc_shortest(net, "s", "t", d)
        with pytest.raises(sr.NetworkError, match="finite"):
            sr.mc_multi_target(net, "s", ("t",), d)
