import copy
import gc
import hashlib
import heapq
import math
import os
import random
import weakref

import pytest

import saproute as sr
from saproute.dominance import join_paths, label_path, staircase_add, staircase_covers
from saproute.oracle import (brute_force_all_variants, enumerate_simple_paths,
                             is_edge_disjoint, is_one_disjoint)
from saproute import cli, solvers
from saproute.solvers import _augmented_candidates, fc_levels, transform_1d
from saproute.synthetic import corridor_instance

from conftest import SOLVERS, brute_frontier, random_instance, tie_heavy_network
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, DEMANDS, MODEL_SPECS


def pair_instance(model_spec, demand=2.0):
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 4)),
                            ("s", "t", sr.CostFn.quadratic(1, 1))])
    route = sr.Route(sr.Path(("s", "t"), (0,)), demand)
    return sr.SapInstance(net, route, sr.parse_model(model_spec))


def q_only_instance(model_spec="ue", demand=2.0):
    net = sr.Network.build(sr.QUADRATIC, ["s", "m", "t"],
                           [("s", "m", sr.CostFn.quadratic(1, 1)),
                            ("m", "t", sr.CostFn.quadratic(1, 1))])
    route = sr.Route(sr.Path.from_vertices(net, ["s", "m", "t"]), demand)
    return sr.SapInstance(net, route, sr.parse_model(model_spec))


def with_variant(inst, variant, algorithm="direct"):
    return sr.SapInstance(inst.net, inst.route, inst.model, variant, algorithm)


def test_solve_sap_worked_example():
    sol = sr.solve_sap(pair_instance("ue"))
    assert sol.cost == pytest.approx(8.125, rel=1e-9)
    assert sol.path.edge_ids == (1,)
    assert sol.x == pytest.approx(1.75, rel=1e-9)
    sol = sr.solve_sap(pair_instance("so"))
    assert sol.cost == pytest.approx(6.625, rel=1e-9)
    assert sol.x == pytest.approx(1.25, rel=1e-9)


def test_solve_sap_q_only_network():
    inst = q_only_instance()
    sol = sr.solve_sap(inst)
    q_cost = inst.route.path.cost_fn(inst.net)
    assert sol.path.vertices == ("s", "m", "t")
    assert sol.cost == pytest.approx(2 * sr.eval_cost(q_cost, 2.0), rel=1e-12)
    assert sol.cost == sol.cost_all_on_orig


def test_transform_matches_one_disjoint_path_family():
    rng = random.Random(50)
    for _ in range(60):
        net, route = random_instance(rng, n_lo=4, n_hi=8, density=0.35)
        q = route.path
        q_ids = frozenset(q.edge_ids)
        tr = transform_1d(net, q)
        mapped = []
        for p in enumerate_simple_paths(tr.net, tr.source, tr.target, 100000):
            orig = tuple(tr.orig_edge[e] for e in p.edge_ids)
            gp = sr.Path.from_edges(net, orig)
            if gp.is_simple():
                mapped.append(tuple(sorted(orig)))
        direct = [tuple(sorted(p.edge_ids))
                  for p in enumerate_simple_paths(net, q.source, q.target, 100000)
                  if is_one_disjoint(p, q_ids)]
        assert sorted(mapped) == sorted(direct)


def test_transform_degenerate_single_edge_route():
    net = sr.Network.build(sr.QUADRATIC, ["s", "a", "t"], [
        ("s", "t", sr.CostFn.quadratic(1, 1)),
        ("s", "a", sr.CostFn.quadratic(1, 1)),
        ("a", "t", sr.CostFn.quadratic(1, 1)),
    ])
    q = sr.Path(("s", "t"), (0,))
    tr = transform_1d(net, q)
    mapped = {tuple(tr.orig_edge[e] for e in p.edge_ids)
              for p in enumerate_simple_paths(tr.net, tr.source, tr.target, 1000)}
    # single-edge original route: the route itself plus every edge-disjoint path
    assert mapped == {(0,), (1, 2)}
    with pytest.raises(sr.NetworkError):
        transform_1d(net, sr.Path(("s",), ()))


def test_solve_1d_sap_restricts_double_diversions():
    # congested 3-edge original route with relief detours around its first
    # and last edges: unrestricted solving uses both, 1-disjoint only one
    cheap = sr.CostFn.quadratic(0.05, 1)
    congested = sr.CostFn.quadratic(5, 1)
    net = sr.Network.build(sr.QUADRATIC, ["1", "2", "3", "4", "x", "y"], [
        ("1", "2", congested), ("2", "3", congested), ("3", "4", congested),
        ("1", "x", cheap), ("x", "2", cheap),                      # detour 1
        ("3", "y", cheap), ("y", "4", cheap),                      # detour 2
    ])
    route = sr.Route(sr.Path.from_vertices(net, ["1", "2", "3", "4"]), 5.0)
    model = sr.parse_model("ue")
    sap = sr.solve_sap(sr.SapInstance(net, route, model, "sap"))
    oned = sr.solve_1d_sap(sr.SapInstance(net, route, model, "1d-sap"))
    assert not is_one_disjoint(sap.path, frozenset(route.path.edge_ids))
    assert is_one_disjoint(oned.path, frozenset(route.path.edge_ids))
    assert sap.cost < oned.cost - 1e-9
    bf = brute_force_all_variants(net, route, model)
    assert sap.cost == pytest.approx(bf["sap"].cost, rel=1e-6)
    assert oned.cost == pytest.approx(bf["1d-sap"].cost, rel=1e-6)


def test_solve_1d_sap_equals_sap_when_alternatives_disjoint():
    for spec in ("ue", "so"):
        sap = sr.solve_sap(pair_instance(spec))
        oned = sr.solve_1d_sap(with_variant(pair_instance(spec), "1d-sap"))
        assert oned.cost == pytest.approx(sap.cost, rel=1e-12)
        assert oned.path == sap.path
    q_sol = sr.solve_1d_sap(with_variant(q_only_instance(), "1d-sap"))
    assert q_sol.path.vertices == ("s", "m", "t")


def test_solve_d_sap():
    sap = sr.solve_sap(pair_instance("ue"))
    dsap = sr.solve_d_sap(with_variant(pair_instance("ue"), "d-sap"))
    assert dsap.cost == pytest.approx(sap.cost, rel=1e-12)
    assert not dsap.no_alternative
    # removing the original route disconnects this instance
    sol = sr.solve_d_sap(with_variant(q_only_instance(), "d-sap"))
    assert sol.no_alternative
    assert sol.cost == sol.cost_all_on_orig
    assert sol.path.vertices == ("s", "m", "t")


def test_fc_variants_agree_with_direct_counterparts():
    rng = random.Random(51)
    for k in range(40):
        net, route = random_instance(rng, n_lo=4, n_hi=10)
        model = sr.parse_model(["ue", "so", "linear:1"][k % 3])
        inst = sr.SapInstance(net, route, model)
        sap = sr.solve_sap(inst)
        sap_fc = sr.solve_sap_fc(inst)
        assert sap_fc.cost == pytest.approx(sap.cost, rel=1e-9)
        oned = sr.solve_1d_sap(with_variant(inst, "1d-sap"))
        oned_fc = sr.solve_1d_sap_fc(with_variant(inst, "1d-sap", "fc"))
        assert oned_fc.cost == pytest.approx(oned.cost, rel=1e-9)


def test_solve_sap_fc_q_only():
    sol = sr.solve_sap_fc(q_only_instance())
    assert sol.path.vertices == ("s", "m", "t")
    assert sol.cost == sol.cost_all_on_orig
    assert sol.frontier_size == 1


def test_solve_1d_sap_fc_single_edge_route_reduces_to_d_sap_pool():
    inst = pair_instance("ue")
    fc = sr.solve_1d_sap_fc(with_variant(inst, "1d-sap", "fc"))
    dsap = sr.solve_d_sap(with_variant(inst, "d-sap"))
    assert fc.cost == pytest.approx(dsap.cost, rel=1e-12)


def test_baseline_sp():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 1)),
                            ("s", "t", sr.CostFn.quadratic(0.1, 5))])
    p1, c1 = sr.baseline_sp(net, "s", "t", 10.0, 1.0)
    assert p1.edge_ids == (0,) and c1 == pytest.approx(1010.0)
    pd, cd = sr.baseline_sp(net, "s", "t", 10.0, 10.0)
    assert pd.edge_ids == (1,) and cd == pytest.approx(150.0)
    # single-path network: both loads agree
    chain = q_only_instance().net
    assert sr.baseline_sp(chain, "s", "t", 3.0, 1.0)[0] == \
        sr.baseline_sp(chain, "s", "t", 3.0, 3.0)[0]
    with pytest.raises(sr.NetworkError):
        sr.baseline_sp(chain, "t", "s", 3.0, 1.0)


def test_baseline_sp_vanishing_demand_uses_free_flow_order():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(5, 1)),
                            ("s", "t", sr.CostFn.quadratic(0, 2))])
    one, _ = sr.baseline_sp(net, "s", "t", 1e-9, 1.0)
    assert one.edge_ids == (1,)  # tau(1): 6 vs 2
    tiny, _ = sr.baseline_sp(net, "s", "t", 1e-9, 1e-9)
    assert tiny.edge_ids == (0,)  # tau(0): 1 vs 2


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_scalar_shortest_takes_the_smallest_path_on_distance_ties(mode):
    # the path with the least distance, summed in path order; on an exact
    # tie the smallest (vertices, edges)
    rng = random.Random(f"scalar-{mode}")
    cases = ties = 0
    for _ in range(60):
        net = tie_heavy_network(rng, mode)
        for flow in (1.0, 2.0, 3.0):
            weights = [sr.eval_cost(e.cost, flow) for e in net.edges]
            for s in net.nodes:
                for t in net.nodes:
                    ranked = []
                    for p in enumerate_simple_paths(net, s, t):
                        dist = 0.0
                        for eid in p.edge_ids:
                            dist += weights[eid]
                        ranked.append((dist, p.vertices, p.edge_ids))
                    got = solvers.scalar_shortest(net, s, t, flow)
                    if not ranked:
                        assert got is None
                        continue
                    best = min(ranked)
                    assert got == sr.Path(best[1], best[2]), (mode, s, t, flow)
                    cases += 1
                    ties += sum(r[0] == best[0] for r in ranked) > 1
    assert cases > 1000 and ties > 100


def test_structural_validity_and_nesting():
    rng = random.Random(52)
    for _ in range(30):
        net, route = random_instance(rng, n_lo=4, n_hi=10)
        q_ids = frozenset(route.path.edge_ids)
        model = sr.parse_model("ue")
        sap = sr.solve_sap(sr.SapInstance(net, route, model, "sap"))
        oned = sr.solve_1d_sap(sr.SapInstance(net, route, model, "1d-sap"))
        dsap = sr.solve_d_sap(sr.SapInstance(net, route, model, "d-sap"))
        q_key = (route.path.vertices, route.path.edge_ids)
        if (dsap.path.vertices, dsap.path.edge_ids) != q_key:
            assert is_edge_disjoint(dsap.path, q_ids)
        assert is_one_disjoint(oned.path, q_ids)
        # larger feasible sets can only help
        assert sap.cost <= oned.cost + 1e-9 * max(1, oned.cost)
        assert oned.cost <= dsap.cost + 1e-9 * max(1, dsap.cost)
        # suggesting nothing is always available
        for sol in (sap, oned, dsap):
            assert sol.cost <= sol.cost_all_on_orig + 1e-9 * max(1, sol.cost_all_on_orig)


def test_solver_dispatch_and_validation():
    inst = pair_instance("ue")
    assert sr.solve(inst).cost == sr.solve_sap(inst).cost
    with pytest.raises(sr.NetworkError):
        sr.SapInstance(inst.net, inst.route, inst.model, "bogus")
    with pytest.raises(sr.NetworkError):
        sr.SapInstance(inst.net, inst.route, inst.model, "sap", "bogus")
    with pytest.raises(sr.NetworkError):
        sr.Route(inst.route.path, -1.0)


def overflow_network(mode):
    cost = sr.CostFn.quadratic if mode == sr.QUADRATIC else sr.CostFn.affine
    return sr.Network.build(mode, ["s", "a", "t"], [
        ("s", "a", cost(1, 1)), ("a", "t", cost(1, 1)), ("s", "t", cost(1, 3))])


@pytest.mark.parametrize("mode, refused, accepted", [
    (sr.QUADRATIC, (1e200, 1e150, 1e103), 1e100),
    (sr.AFFINE, (1e200, 1e155), 1e150),
])
def test_a_demand_whose_total_cost_overflows_is_refused(mode, refused, accepted):
    # d * (sum of slopes * demand_power(d) + sum of bases) bounds every simple
    # path's d * tau(d); past the float range no solve starts, below it every
    # reported figure is finite
    net = overflow_network(mode)
    q = sr.Path(("s", "t"), (2,))
    for spec in ("ue", "so", "linear:1"):
        model = sr.parse_model(spec)
        for d in refused:
            with pytest.raises(sr.NetworkError, match="overflow"):
                sr.SapInstance(net, sr.Route(q, d), model)
        for variant, algorithm in SOLVERS:
            sol = sr.solve(sr.SapInstance(net, sr.Route(q, accepted), model,
                                          variant, algorithm))
            figures = (sol.x, sol.cost, sol.per_agent_alt, sol.per_agent_orig,
                       sol.baseline_one_sp, sol.baseline_d_sp, sol.cost_all_on_orig)
            assert all(math.isfinite(v) for v in figures), (spec, variant, algorithm)


def test_solutions_identical_across_runs_and_threads():
    rng = random.Random(53)
    net, route = random_instance(rng, n_lo=6, n_hi=10)
    model = sr.parse_model("ue")
    inst = sr.SapInstance(net, route, model, "1d-sap", "fc")
    first = sr.solve_1d_sap_fc(inst, threads=1)
    second = sr.solve_1d_sap_fc(inst, threads=1)
    pooled = sr.solve_1d_sap_fc(inst, threads=2)
    assert first.key() == second.key() == pooled.key()
    inst_sap = sr.SapInstance(net, route, model, "sap", "fc")
    assert sr.solve_sap_fc(inst_sap, threads=1).key() == \
        sr.solve_sap_fc(inst_sap, threads=2).key()


def record_forks(monkeypatch):
    """Record, in the parent, each forked child's pid and the freeze count
    it was forked with."""
    forks = []
    real_fork = os.fork

    def fork():
        frozen = gc.get_freeze_count()
        pid = real_fork()
        if pid:
            forks.append((pid, frozen))
        return pid

    monkeypatch.setattr(solvers.os, "fork", fork)
    return forks


def test_detour_pool_is_clamped_to_searches_and_cpus(monkeypatch, tmp_path):
    # a huge thread count must fork no more children than there are
    # searches and CPUs this process may use, each pinned to its own CPU
    net, route = corridor_instance(5, 5, 100.0, 1, hops=4)
    q, d = route.path, route.demand
    searches = len(q.vertices) - 1
    assert searches > 3
    serial = sr.detour_frontiers(net, q, d, threads=1)
    forks = record_forks(monkeypatch)

    def no_query(pid):
        raise AssertionError("a serial solve queried the CPUs")

    # a serial solve asks nothing of the OS and forks nothing
    monkeypatch.setattr(solvers.os, "sched_getaffinity", no_query, raising=False)
    monkeypatch.setattr(solvers.os, "cpu_count", lambda: no_query(0))
    assert sr.detour_frontiers(net, q, d, threads=1) == serial
    assert forks == []

    def pin(pid, cpus):  # runs in a child: it leaves a file per pin
        (tmp_path / str(os.getpid())).write_text(",".join(map(str, sorted(cpus))))

    def pins():
        found = [(tmp_path / str(pid)).read_text() for pid, _ in forks
                 if (tmp_path / str(pid)).exists()]
        for path in tmp_path.iterdir():
            path.unlink()
        return found

    # the affinity mask, not the machine's CPU count, bounds the pool, and
    # child k pins itself to the k-th allowed CPU
    monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: {4, 6, 7},
                        raising=False)
    monkeypatch.setattr(solvers.os, "sched_setaffinity", pin, raising=False)
    for cpus in (64, 2, None):
        forks.clear()
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: cpus)
        assert sr.detour_frontiers(net, q, d, threads=10**9) == serial
        assert len(forks) == 3
        assert pins() == ["4", "6", "7"]
    # without affinity support the CPU count bounds it, and nothing is pinned
    monkeypatch.delattr(solvers.os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(solvers.os, "sched_setaffinity", raising=False)
    for cpus, want in ((3, 3), (64, searches), (None, 0)):
        forks.clear()
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: cpus)
        assert sr.detour_frontiers(net, q, d, threads=10**9) == serial
        assert len(forks) == want
        assert pins() == []


def test_bounded_detour_searches_push_at_most_30000_labels(monkeypatch):
    # a deterministic work gate: once every target of a detour search holds
    # a label, the search prunes against them (the unbounded searches push
    # 58,333 labels on these grids)
    pushes = 0
    real_push = heapq.heappush

    def push(heap, item):
        nonlocal pushes
        pushes += 1
        real_push(heap, item)

    grids = [corridor_instance(16, 16, 2000.0, seed, hops=10) for seed in range(1, 13)]
    monkeypatch.setattr(heapq, "heappush", push)
    for net, route in grids:
        sr.detour_frontiers(net, route.path, route.demand)
    assert 0 < pushes <= 30_000, pushes


def detour_pairs(q):
    """(i, j, v_i, v_j) for the 1-based route positions 1 <= i < j <= q."""
    verts = q.vertices
    return [(i, j, verts[i - 1], verts[j - 1])
            for i in range(1, len(verts)) for j in range(i + 1, len(verts) + 1)]


def test_detour_frontiers_follow_the_network_they_are_given():
    # same-shaped grids with different costs, each freed before the next is
    # built, so the next grid may be allocated where this one was: nothing
    # the detour searches keep may outlive its network
    for grid_seed in range(1, 13):
        net, route = corridor_instance(16, 16, 2000.0, grid_seed, hops=10)
        q, d = route.path, route.demand
        q_ids = frozenset(q.edge_ids)
        want = {(i, j): [label_path(net, lp.vertices, lp.edge_ids, q_ids, d, 3)
                         for lp in sr.mc_shortest(net, vi, vj, d, 2, banned=q_ids)]
                for i, j, vi, vj in detour_pairs(q)}
        for threads in (1, 2):
            assert sr.detour_frontiers(net, q, d, threads) == want, \
                f"grid seed {grid_seed}, threads={threads}"
        del net, route, q, q_ids, want
        gc.collect()


def test_an_fc_solve_keeps_nothing_of_its_network():
    # the detour adjacency lives on the network, and a serial solve leaves
    # no worker state behind: dropping the network frees it
    net, route = corridor_instance(8, 8, 100.0, 1, hops=6)
    inst = sr.SapInstance(net, route, sr.parse_model("ue"), "sap", "fc")
    sr.solve(inst, threads=1)
    assert net._adjacency
    ref = weakref.ref(net)
    del net, route, inst
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_tie_heavy_detours_are_labelled_as_label_path_labels_them(mode):
    # integer costs make exact ties common; each detour is labelled once,
    # from its search, and must carry label_path's sums bit for bit
    rng = random.Random(f"detours-{mode}")
    pairs = multi = 0
    for trial in range(60):
        net = tie_heavy_network(rng, mode)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s
                  for p in enumerate_simple_paths(net, s, t)]
        if not routes:
            continue
        q = rng.choice(routes)
        q_ids = frozenset(q.edge_ids)
        d = float(rng.randint(1, 3))
        got = sr.detour_frontiers(net, q, d)
        assert set(got) == {(i, j) for i, j, _, _ in detour_pairs(q)}
        for i, j, vi, vj in detour_pairs(q):
            want = [label_path(net, p.vertices, p.edge_ids, q_ids, d, 3)
                    for p in brute_frontier(net, vi, vj, d, 2, q_ids, banned=q_ids)]
            assert len(got[(i, j)]) == len(want), f"{mode} trial {trial} ({i}, {j})"
            for lp, w in zip(got[(i, j)], want):
                for field in ("vertices", "edge_ids", "cost", "q_cost", "vector"):
                    assert getattr(lp, field) == getattr(w, field), \
                        f"{mode} trial {trial} ({i}, {j}) {field}"
            pairs += 1
            multi += len(want) > 1
    assert pairs > 100 and multi > 10


def reference_cull(paths):
    """The level cull as it was before the shared sweep: every path sorted by
    (vector, vertex sequence, edge sequence), then one staircase sweep."""
    kept, stair = [], ([], [])
    for p in sorted(paths, key=lambda p: (p.vector, p.tie_key())):
        _, y, z = p.vector
        if not staircase_covers(stair, y, z):
            staircase_add(stair, y, z)
            kept.append(p)
    return kept


def reference_levels(net, q, d, pij):
    """The sap-fc DP as two stages: each part's joins built with join_paths
    and culled, then every level's union culled again."""
    q_ids = frozenset(q.edge_ids)

    def join(a, b):
        return reference_cull([j for p1 in a for p2 in b
                               if (j := join_paths(p1, p2, d, 3)) is not None])

    levels = [[], [label_path(net, (q.source,), (), q_ids, d, 3)]]
    for j in range(2, len(q.vertices) + 1):
        pool = [p for i in range(1, j) for p in join(levels[i], pij[(i, j)])]
        step = label_path(net, q.vertices[j - 2:j], (q.edge_ids[j - 2],), q_ids, d, 3)
        levels.append(reference_cull(pool + join(levels[j - 1], [step])))
    return levels


def reference_augmented(net, q, d, pij):
    """1d-sap-fc's candidates built as paths, labelled edge by edge, culled."""
    q_ids = frozenset(q.edge_ids)
    out = []
    for (i, j), pieces in pij.items():
        for piece in pieces:
            full = q.edge_ids[:i - 1] + piece.edge_ids + q.edge_ids[j - 1:]
            path = sr.Path.from_edges(net, full)
            if path.is_simple():
                out.append(label_path(net, path.vertices, full, q_ids, d, 3))
    return reference_cull(out)


def _recombination_cases():
    for grid_seed in range(1, 13):
        net, route = corridor_instance(16, 16, 2000.0, grid_seed, hops=10)
        yield f"grid seed {grid_seed}", net, route.path, route.demand
    for mode in (sr.QUADRATIC, sr.AFFINE):
        rng = random.Random(f"recombination-{mode}")
        made = 0
        while made < 300:
            net = tie_heavy_network(rng, mode)
            s = rng.choice(net.nodes)
            routes = [p for t in net.nodes if t != s
                      for p in enumerate_simple_paths(net, s, t)]
            if routes:
                made += 1
                yield f"{mode} network {made}", net, rng.choice(routes), \
                    float(rng.randint(1, 3))


def test_fc_recombination_builds_what_the_two_stage_reduction_builds():
    # LabeledPath equality compares vertices, edge ids, cost, q_cost and
    # vector, so every kept path must carry the old sums bit for bit
    for name, net, q, d in _recombination_cases():
        pij = sr.detour_frontiers(net, q, d)
        want = reference_levels(net, q, d, pij)
        got = fc_levels(net, q, d, pij)
        for j in range(1, len(q.vertices) + 1):
            assert got[j] == want[j], f"{name}, level {j}"
        inst = sr.SapInstance(net, sr.Route(q, d), sr.parse_model("ue"), "1d-sap", "fc")
        assert _augmented_candidates(inst, pij) == reference_augmented(net, q, d, pij), \
            name


def reference_transform(net, q):
    """The phase graph as a validated Network, built edge by edge: the
    construction transform_1d's phase network must reproduce."""
    qn = len(q.vertices)
    t = q.target
    q_pos = {eid: k + 1 for k, eid in enumerate(q.edge_ids)}
    on_q = {v: i + 1 for i, v in enumerate(q.vertices)}
    target = ("tgt",)

    def mid_node(v):
        return target if v == t else ("mid", v)

    def post_node(j):
        return target if j == qn else ("post", j)

    def pre_node(i):
        return target if i == qn else ("pre", i)

    nodes = [pre_node(i) for i in range(1, qn)]
    nodes += [("mid", v) for v in net.nodes if v != t]
    nodes += [("post", j) for j in range(2, qn)]
    nodes.append(target)
    edges, orig_edge, q_new_ids = [], [], []

    def emit(tail, head, e, is_q):
        if is_q:
            q_new_ids.append(len(edges))
        edges.append((tail, head, e.cost))
        orig_edge.append(e.index)

    for e in net.edges:
        pos = q_pos.get(e.index)
        if pos is not None:
            emit(pre_node(pos), pre_node(pos + 1), e, True)
            emit(mid_node(e.tail), post_node(pos + 1), e, True)
            if pos >= 2:
                emit(post_node(pos), post_node(pos + 1), e, True)
        else:
            if e.tail != t:
                emit(mid_node(e.tail), mid_node(e.head), e, False)
            i = on_q.get(e.tail)
            if i is not None and i < qn:
                emit(pre_node(i), mid_node(e.head), e, False)
    tnet = sr.Network.build(net.mode, nodes, edges)
    return tnet, pre_node(1), target, tuple(orig_edge), frozenset(q_new_ids)


def _phase_cases():
    from saproute.synthetic import corridor_instance
    rng = random.Random(54)
    for _ in range(40):
        # random networks with parallel edges, in both cost modes
        n = rng.randint(3, 9)
        mode = rng.choice([sr.QUADRATIC, sr.AFFINE])
        edges = []
        for u in range(n):
            for v in range(n):
                for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                    if u != v:
                        a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
                        cost = (sr.CostFn.quadratic(a, b) if mode == sr.QUADRATIC
                                else sr.CostFn.affine(a, b))
                        edges.append((u, v, cost))
        net = sr.Network.build(mode, range(n), edges)
        q = sr.solvers.scalar_shortest(net, 0, n - 1, 1.0)
        if q is not None:
            yield net, q
    single = sr.Network.build(sr.QUADRATIC, ["s", "a", "t"], [
        ("s", "t", sr.CostFn.quadratic(1, 1)), ("s", "t", sr.CostFn.quadratic(2, 1)),
        ("s", "a", sr.CostFn.quadratic(1, 1)), ("a", "t", sr.CostFn.quadratic(1, 1))])
    yield single, sr.Path(("s", "t"), (1,))
    net, route = corridor_instance(8, 8, 100.0, 3, hops=6)
    yield net, route.path


def test_phase_network_matches_network_construction():
    cases = 0
    for net, q in _phase_cases():
        cases += 1
        tnet, source, target, orig_edge, q_ids = reference_transform(net, q)
        tr = transform_1d(net, q)
        for array in ("index", "out", "rev", "tails", "heads", "slopes", "bases"):
            assert getattr(tr.net, array) == getattr(tnet, array), array
        assert (tr.source, tr.target) == (source, target)
        assert tr.orig_edge == orig_edge
        assert tr.q_edge_ids == q_ids
        assert tr.net.edges == tnet.edges
        assert tr.net == tnet
    assert cases >= 30


def test_one_disjoint_search_keeps_the_base_networks_arrays():
    net, route = corridor_instance(6, 6, 100.0, 1, hops=4)
    arrays = (net.index, net.out, net.rev)
    before = copy.deepcopy(arrays)
    inst = sr.SapInstance(net, route, sr.parse_model("ue"), "1d-sap")
    sr.solve_1d_sap(inst)
    assert all(now is then for now, then in zip((net.index, net.out, net.rev), arrays))
    assert (net.index, net.out, net.rev) == before


def test_baselines_are_computed_once_per_network(monkeypatch):
    rng = random.Random(55)
    net, route = random_instance(rng, n_lo=6, n_hi=10)
    q = route.path
    runs = []
    real = solvers.scalar_shortest
    monkeypatch.setattr(solvers, "scalar_shortest",
                        lambda *args: runs.append(args) or real(*args))
    first = sr.baseline_sp(net, q.source, q.target, 5.0, 1.0)
    assert len(runs) == 1
    assert sr.baseline_sp(net, q.source, q.target, 5.0, 1.0) == first
    assert len(runs) == 1
    # another demand or load gives what a fresh, equal network gives
    for d, load in ((5.0, 5.0), (2.0, 1.0), (2.0, 2.0), (5.0, 1.0)):
        fresh = sr.Network.build(net.mode, net.nodes,
                                 [(e.tail, e.head, e.cost) for e in net.edges])
        assert sr.baseline_sp(net, q.source, q.target, d, load) == \
            sr.baseline_sp(fresh, q.source, q.target, d, load)
    # all five forms of an instance at one demand add one d-SP path, no more
    runs.clear()
    for variant, algorithm in solvers._SOLVERS:
        sr.solve(sr.SapInstance(net, sr.Route(q, 3.0), sr.parse_model("ue"),
                                variant, algorithm))
    assert runs == [(net, q.source, q.target, 3.0)]
    # a missing path is remembered and refused every time
    chain = q_only_instance().net
    runs.clear()
    for _ in range(2):
        with pytest.raises(sr.NetworkError):
            sr.baseline_sp(chain, "t", "s", 3.0, 1.0)
    assert len(runs) == 1


def _failing_task(task, worker):
    raise RuntimeError("detour search failed")


def _exiting_task(task, worker):
    os._exit(1)


def _exiting_on_the_last_task(task, worker):
    if len(task[1]) == 1:   # the last divergence vertex has one target
        os._exit(1)
    return [[] for _ in task[1]]


def two_child_pool(monkeypatch):
    """A 5x5 grid's route, with the pool clamped to two children on this
    host's first CPU."""
    net, route = corridor_instance(5, 5, 100.0, 1, hops=4)
    cpu = solvers._allowed_cpus()[0]
    monkeypatch.setattr(solvers, "_allowed_cpus", lambda: [cpu, cpu])
    return net, route.path, route.demand


def test_detour_pool_freezes_the_heap_only_while_it_runs(monkeypatch):
    # the parent's objects are frozen while the children are forked and
    # run, and the count is restored afterwards, also when a child raises;
    # a caller's own freeze is left as it is
    net, q, d = two_child_pool(monkeypatch)
    serial = sr.detour_frontiers(net, q, d, threads=1)
    forks = record_forks(monkeypatch)
    assert gc.get_freeze_count() == 0
    assert sr.detour_frontiers(net, q, d, threads=2) == serial
    assert len(forks) == 2 and all(frozen > 0 for _, frozen in forks)
    assert gc.get_freeze_count() == 0

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_pij_task", _failing_task)
        with pytest.raises(RuntimeError, match="detour search failed"):
            sr.detour_frontiers(net, q, d, threads=2)
    assert len(forks) == 4 and forks[-1][1] > 0 and gc.get_freeze_count() == 0

    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert sr.detour_frontiers(net, q, d, threads=2) == serial
        assert forks[-1][1] == before and gc.get_freeze_count() == before
    finally:
        gc.unfreeze()
    assert len(forks) == 6


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("task, message", [
    (_failing_task, "detour search failed"),
    (_exiting_task, "exited without a result"),
    (_exiting_on_the_last_task, "exited without a result"),
])
def test_a_failing_detour_child_raises_and_leaves_nothing_behind(monkeypatch, task,
                                                                 message):
    # a child that raises, or dies without writing (one child of two, or
    # both), raises in the parent; every child is reaped and every pipe closed
    net, q, d = two_child_pool(monkeypatch)
    forks = record_forks(monkeypatch)
    monkeypatch.setattr(solvers, "_pij_task", task)
    fds = open_fds()
    with pytest.raises(RuntimeError, match=message):
        sr.detour_frontiers(net, q, d, threads=2)
    assert len(forks) == 2
    for pid, _ in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert open_fds() == fds


# sha256 of repr() of the list of Solution.key()s below, recorded before the
# network became its own compiled form: the solvers' answers are pinned bit
# for bit
CORRIDOR_KEYS = "045df36b66b7633028bb8e947288844c81000cb4ee705408800951c0a66efb12"
CORPUS_KEYS = "bbb432b99450f7bea6d2aaf24127276ca60f699e57b1b68313bfbae68d432e12"


def _digest(keys):
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def test_solution_keys_match_the_pinned_digests():
    model = sr.parse_model("ue")
    keys = []
    for grid_seed in range(1, 13):
        net, route = corridor_instance(16, 16, 2000.0, grid_seed, hops=10)
        for (variant, algorithm), solver in SOLVERS.items():
            inst = sr.SapInstance(net, route, model, variant, algorithm)
            for threads in (1, 2):
                keys.append(solver(inst, threads).key())
    assert len(keys) == 120 and _digest(keys) == CORRIDOR_KEYS
    # every 10th instance of the acceptance corpus
    rng = random.Random(CORPUS_SEED)
    keys = []
    for k in range(CORPUS_SIZE):
        net, route = random_instance(rng, demand=DEMANDS[k % 4],
                                     n_lo=5, n_hi=12, density=0.3)
        if k % 10 == 0:
            model = sr.parse_model(MODEL_SPECS[(k // 4) % 4])
            for (variant, algorithm), solver in SOLVERS.items():
                inst = sr.SapInstance(net, route, model, variant, algorithm)
                keys.append(solver(inst).key())
    assert len(keys) == 250 and _digest(keys) == CORPUS_KEYS


def test_solving_and_reporting_build_no_edge_objects():
    # the searches, scoring and reports read the network's arrays; the Edge
    # view is built only when a caller asks for it
    grid = corridor_instance(16, 16, 2000.0, 1, hops=10)
    corpus = random_instance(random.Random(57), n_lo=5, n_hi=12)
    model = sr.parse_model("ue")
    for net, route in (grid, corpus):
        for variant, algorithm in SOLVERS:
            cli.run_report(net, route, variant, algorithm, model, 1, "net", "route")
        assert "edges" not in vars(net)
        assert len(net.edges) == len(net.tails) and "edges" in vars(net)
