import itertools
import random

import pytest

import saproute as sr
from saproute.dominance import label_path
from saproute.oracle import (OracleLimitError, enumerate_simple_paths,
                             oracle_quotient_split, oracle_so_split)
from saproute.psychmodels import CFunction, quotient_split, so_split

from conftest import dominates, random_instance, split_parts


def test_enumerate_parallel_edges():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 1)),
                            ("s", "t", sr.CostFn.quadratic(1, 2))])
    assert len(enumerate_simple_paths(net, "s", "t")) == 2


def test_enumerate_complete_graph_on_four_nodes():
    nodes = ["s", "a", "b", "t"]
    edges = [(u, v, sr.CostFn.quadratic(1, 1))
             for u in nodes for v in nodes if u != v]
    net = sr.Network.build(sr.QUADRATIC, nodes, edges)
    paths = enumerate_simple_paths(net, "s", "t")
    assert len(paths) == 5  # s-t, s-a-t, s-b-t, s-a-b-t, s-b-a-t


def test_enumerate_disconnected_and_limit():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t", "u"],
                           [("s", "u", sr.CostFn.quadratic(1, 1))])
    assert enumerate_simple_paths(net, "s", "t") == []
    nodes = ["s", "a", "b", "t"]
    edges = [(u, v, sr.CostFn.quadratic(1, 1))
             for u in nodes for v in nodes if u != v]
    full = sr.Network.build(sr.QUADRATIC, nodes, edges)
    with pytest.raises(OracleLimitError):
        enumerate_simple_paths(full, "s", "t", limit=3)


def test_brute_force_on_worked_example():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 4)),
                            ("s", "t", sr.CostFn.quadratic(1, 1))])
    route = sr.Route(sr.Path(("s", "t"), (0,)), 2.0)
    res = sr.brute_force_optimum(net, route, sr.user_equilibrium(), "sap")
    assert res.cost == pytest.approx(65 / 8, rel=1e-8)
    assert res.path.edge_ids == (1,)


def test_brute_force_q_only():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 4))])
    route = sr.Route(sr.Path(("s", "t"), (0,)), 2.0)
    res = sr.brute_force_optimum(net, route, sr.user_equilibrium(), "d-sap")
    assert res.no_alternative
    assert res.cost == pytest.approx(16.0)


def test_quotient_oracle_takes_a_free_alternative_at_zero_flow():
    # the alternative costs tau(x) = x: nothing at x = 0, where the
    # oracle's cost ratio has a zero denominator
    net = sr.Network.build(sr.AFFINE, ["s", "t"],
                           [("s", "t", sr.CostFn.affine(1, 1)),
                            ("s", "t", sr.CostFn.affine(1, 0))])
    route = sr.Route(sr.Path(("s", "t"), (0,)), 2.0)
    res = sr.brute_force_optimum(net, route, sr.user_equilibrium(), "sap")
    # ue splits where 2 - x + 1 = x
    assert res.path.edge_ids == (1,)
    assert res.x == pytest.approx(1.5, rel=1e-9)
    assert res.cost == pytest.approx(3.0, rel=1e-9)
    assert sr.solve_sap(sr.SapInstance(net, route, sr.user_equilibrium())).cost == \
        pytest.approx(res.cost, rel=1e-9)


def test_oracle_splits_agree_with_production_splits():
    # independent implementations must land on the same split
    rng = random.Random(61)
    for _ in range(40):
        d = rng.choice([1.0, 2.0, 5.0])
        alt = sr.CostFn.quadratic(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        orig = sr.CostFn.quadratic(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        shared = sr.CostFn.quadratic(rng.uniform(0, 2), rng.uniform(0.1, 2))
        parts = split_parts(alt, orig, shared)
        c = rng.choice([CFunction.constant(1.0), CFunction.linear(1.0)])
        x_prod = quotient_split(parts, d, c).x
        x_orc = oracle_quotient_split(parts, d, c)
        assert x_orc == pytest.approx(x_prod, abs=1e-8 * d)
        so_prod = so_split(parts, d)
        x_so = oracle_so_split(parts, d)
        from saproute.psychmodels import cost_at
        assert cost_at(parts, d, x_so) == pytest.approx(so_prod.cost, rel=1e-8)


def test_oracle_so_grid_refinement_matches_dense_grid():
    # the default 1e4-point scan + ternary refinement reproduces a raw
    # 1e6-point scan to well below the acceptance tolerance
    rng = random.Random(62)
    from saproute.psychmodels import cost_at
    for _ in range(5):
        d = rng.choice([2.0, 5.0])
        alt = sr.CostFn.quadratic(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        orig = sr.CostFn.quadratic(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        parts = split_parts(alt, orig, sr.CostFn(sr.QUADRATIC, 0.0, 0.0))
        x_fast = oracle_so_split(parts, d)
        x_dense = oracle_so_split(parts, d, grid=1_000_000)
        assert cost_at(parts, d, x_fast) == pytest.approx(
            cost_at(parts, d, x_dense), rel=1e-9)


def test_brute_force_matches_solvers_on_random_instances():
    rng = random.Random(63)
    for k in range(25):
        net, route = random_instance(rng, n_lo=4, n_hi=10)
        model = sr.parse_model(["ue", "so", "linear:0.5"][k % 3])
        bf = sr.brute_force_all_variants(net, route, model)
        for variant, solver in (("sap", sr.solve_sap),
                                ("1d-sap", sr.solve_1d_sap),
                                ("d-sap", sr.solve_d_sap)):
            inst = sr.SapInstance(net, route, model, variant,
                                  "direct")
            assert solver(inst).cost == pytest.approx(bf[variant].cost, rel=1e-6)


def test_build_gadget_structure():
    g = sr.build_gadget([1, 2], 3)
    assert len(g.net.nodes) == 3
    assert len(g.net.edges) == 5
    q_edge = g.net.edges[g.route.path.edge_ids[0]]
    assert (q_edge.cost.slope, q_edge.cost.base) == (3, 3)
    assert g.total == 3
    assert g.route.demand == 2.0
    with pytest.raises(sr.NetworkError):
        sr.build_gadget([], 3)
    with pytest.raises(sr.NetworkError):
        sr.build_gadget([1, -2], 3)
    with pytest.raises(sr.NetworkError):
        sr.build_gadget([1, 2], 0)
    # Q's cost d * tau_Q(d) = 6 * sum(M) must stay an exact float
    for m_values in ([2**53, 1, 1], [2**53 // 6 - 1, 2], [10**400, 1]):
        with pytest.raises(sr.NetworkError, match="2\\*\\*53"):
            sr.build_gadget(m_values, 3)
    sr.build_gadget([2**53 // 6 - 1, 1], 3)


def test_gadget_just_inside_the_exact_float_bound_decides_subset_sum():
    m_values = (2**49, 2**49 + 1, 3, 5)
    assert 6 * sum(m_values) <= 2**53
    for w, solvable in ((2**49 + 4, True), (2**49 + 2, False)):
        g = sr.build_gadget(m_values, w)
        sol = sr.solve_sap(sr.SapInstance(g.net, g.route, g.model, "sap"))
        assert sr.subsetsum_brute(m_values, w) is solvable
        assert (sol.cost < 6 * g.total) is solvable, w


def test_gadget_yes_instance_cost():
    g = sr.build_gadget([1, 2], 3)
    sol = sr.solve_sap(sr.SapInstance(g.net, g.route, g.model, "sap"))
    # all agents take the matching path: 2*(2w + s - w) = 12 < 18 = 6s
    assert sol.cost == pytest.approx(12.0)
    assert sol.cost < 6 * g.total
    taken = [g.net.edges[e] for e in sol.path.edge_ids]
    assert [e.cost.slope for e in taken] == [1, 2]  # both "take item" edges


def test_gadget_no_instance_cost():
    g = sr.build_gadget([2, 4], 3)
    sol = sr.solve_sap(sr.SapInstance(g.net, g.route, g.model, "sap"))
    assert sol.cost == pytest.approx(36.0)  # d * tau_Q(2) = 2*(6*2+6)
    assert not sol.cost < 6 * g.total


def test_gadget_paths_are_mutually_incomparable():
    g = sr.build_gadget([3, 5, 9], 7)
    q_ids = frozenset(g.route.path.edge_ids)
    paths = [p for p in enumerate_simple_paths(g.net, "v0", "v3")
             if p.edge_ids != g.route.path.edge_ids]
    labs = [label_path(g.net, p.vertices, p.edge_ids, q_ids, 2.0, 3)
            for p in paths]
    assert len(labs) == 8
    for l1, l2 in itertools.combinations(labs, 2):
        if l1[2:4] == l2[2:4]:
            continue
        assert not dominates(l1, l2)
        assert not dominates(l2, l1)


def test_subsetsum_brute():
    assert sr.subsetsum_brute([1, 2], 3)
    assert not sr.subsetsum_brute([2, 4], 3)
    with pytest.raises(sr.NetworkError):
        sr.subsetsum_brute([], 0)
    with pytest.raises(sr.NetworkError):
        sr.subsetsum_brute(list(range(1, 26)), 3)


def test_all_solvers_handle_affine_mode():
    g = sr.build_gadget([2, 3, 4], 5)
    costs = set()
    for variant, algo, fn in [("sap", "direct", sr.solve_sap),
                              ("sap", "fc", sr.solve_sap_fc),
                              ("1d-sap", "direct", sr.solve_1d_sap),
                              ("1d-sap", "fc", sr.solve_1d_sap_fc),
                              ("d-sap", "direct", sr.solve_d_sap)]:
        sol = fn(sr.SapInstance(g.net, g.route, g.model, variant, algo))
        costs.add(round(sol.cost, 9))
    # subset {2, 3} reaches the target: 2*(2*5 + 9 - 5) on every variant
    assert costs == {28.0}


def test_reduction_fidelity_sample():
    rng = random.Random(64)
    for _ in range(15):
        n = rng.randint(2, 9)
        m_values = [rng.randint(1, 20) for _ in range(n)]
        w = rng.randint(1, max(2, sum(m_values)))
        g = sr.build_gadget(m_values, w)
        sol = sr.solve_sap(sr.SapInstance(g.net, g.route, g.model, "sap"))
        assert (sol.cost < 6 * g.total) == sr.subsetsum_brute(m_values, w)
