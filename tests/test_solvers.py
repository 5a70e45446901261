import copy
import gc
import hashlib
import heapq
import math
import os
import random
import subprocess
import sys
import time
import weakref
from collections import Counter

import pytest

import saproute as sr
from saproute.dominance import label_path, simple_cull, staircase_add, staircase_covers
from saproute.oracle import (brute_force_all_variants, enumerate_simple_paths,
                             is_edge_disjoint, is_one_disjoint, variant_feasible)
from saproute import cli, mcsp, psychmodels, solvers
from saproute.solvers import _augmented_candidates, fc_levels
from saproute.synthetic import corridor_instance

from conftest import (SOLVERS, brute_frontier, join_paths, pairwise_cull, random_grid_instance,
                      random_instance, reference_frontiers, search, tie_heavy_network)
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


def chain_network():
    return sr.Network.build(sr.QUADRATIC, ["s", "a", "t"], [
        ("s", "a", sr.CostFn.quadratic(1, 1)), ("a", "t", sr.CostFn.quadratic(1, 1)),
        ("s", "t", sr.CostFn.quadratic(1, 4))])


def test_a_route_whose_edges_do_not_run_along_its_vertices_is_refused():
    # edge 0 runs s->a: taken for an s->t route it would give Q its costs
    net, model = chain_network(), sr.parse_model("ue")
    with pytest.raises(sr.NetworkError, match="does not run 's'->'t'"):
        sr.SapInstance(net, sr.Route(sr.Path(("s", "t"), (0,)), 2.0), model)
    with pytest.raises(sr.NetworkError, match="one edge per pair"):
        sr.SapInstance(net, sr.Route(sr.Path(("s", "a", "t"), (0,)), 2.0), model)
    sol = sr.solve(sr.SapInstance(net, sr.Route(sr.Path(("s", "t"), (2,)), 2.0), model))
    assert sol.cost_all_on_orig == 2.0 * (1 * 2.0 * 2.0 + 4)


@pytest.mark.parametrize("eid", [3, -1])
def test_a_route_edge_outside_the_network_is_refused(eid):
    # -1 would index the last edge, which does run s->t
    with pytest.raises(sr.NetworkError, match="not in the network"):
        sr.SapInstance(chain_network(), sr.Route(sr.Path(("s", "t"), (eid,)), 2.0),
                       sr.parse_model("ue"))


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
    # a huge thread count must run no more workers than there are searches
    # and CPUs this process may use; the calling process is worker 0, and
    # each forked child is pinned to its own CPU
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

    def pin(pid, cpus):  # each process leaves a file of its pins
        with open(tmp_path / str(os.getpid()), "a") as out:
            out.write(",".join(map(str, sorted(cpus))) + " ")

    def pins():
        found = [(tmp_path / str(pid)).read_text() for pid in
                 [os.getpid()] + [pid for pid, _ in forks]
                 if (tmp_path / str(pid)).exists()]
        for path in tmp_path.iterdir():
            path.unlink()
        return found

    # the affinity mask, not the machine's CPU count, bounds the pool, and
    # worker k runs on the k-th allowed CPU: the parent, worker 0, pins
    # itself for the pool's duration and then gets its mask back
    monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: {4, 6, 7},
                        raising=False)
    monkeypatch.setattr(solvers.os, "sched_setaffinity", pin, raising=False)
    for cpus in (64, 2, None):
        forks.clear()
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: cpus)
        assert sr.detour_frontiers(net, q, d, threads=10**9) == serial
        assert len(forks) == 2
        assert pins() == ["4 4,6,7 ", "6 ", "7 "]
    # without affinity support the CPU count bounds it, and nothing is pinned
    monkeypatch.delattr(solvers.os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(solvers.os, "sched_setaffinity", raising=False)
    for cpus, want in ((3, 2), (64, searches - 1), (None, 0)):
        forks.clear()
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: cpus)
        assert sr.detour_frontiers(net, q, d, threads=10**9) == serial
        assert len(forks) == want
        assert pins() == []


def count_pushes(monkeypatch, run):
    """The heap pushes that ``run()`` makes."""
    pushes = 0
    real_push = heapq.heappush

    def push(heap, item):
        nonlocal pushes
        pushes += 1
        real_push(heap, item)

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappush", push)
        run()
    return pushes


def test_bounded_detour_searches_push_at_most_30000_labels(monkeypatch):
    # a deterministic work gate: once every target of a detour search holds
    # a label, the search prunes against them (the unbounded searches push
    # 58,333 labels on these grids)
    grids = [corridor_instance(16, 16, 2000.0, seed, hops=10) for seed in range(1, 13)]
    pushes = count_pushes(monkeypatch, lambda: [
        sr.detour_frontiers(net, route.path, route.demand) for net, route in grids])
    assert 0 < pushes <= 30_000, pushes


def test_guided_detour_searches_push_at_most_15200_labels(monkeypatch):
    # a deterministic work gate: with the A* bound to Q's last vertex kept,
    # the detour searches are ordered by it (14,863 pushes measured; ordered
    # by the base alone they push 28,028 on these grids)
    grids = [corridor_instance(16, 16, 2000.0, seed, hops=10) for seed in range(1, 13)]
    for net, route in grids:
        mcsp._astar_bound(net, net.index[route.path.target])
    pushes = count_pushes(monkeypatch, lambda: [
        sr.detour_frontiers(net, route.path, route.demand) for net, route in grids])
    assert 0 < pushes <= 15_200, pushes


# random30: a 30x30 random grid whose detour frontiers hold up to 11 paths
RANDOM30 = (30, 3, 15, 4, 24, 500.0)
PREFIXES = {"1d-sap": solvers._route_prefix, "sap": solvers._landmark_prefix}


@pytest.mark.parametrize("variant", ["1d-sap", "sap"])
def test_seeded_detour_searches_push_8253_labels_on_the_corridor_grids(monkeypatch, variant):
    # a deterministic work gate: the seeded searches drop every detour label
    # that a d-sap path beats at each of its completions (14,863 pushes
    # unseeded, the guided gate above)
    grids = [corridor_instance(16, 16, 2000.0, seed, hops=10) for seed in range(1, 13)]
    for net, route in grids:
        mcsp._astar_bound(net, net.index[route.path.target])
    pushes = count_pushes(monkeypatch, lambda: [
        sr.detour_frontiers(net, route.path, route.demand, 1,
                            PREFIXES[variant](net, route.path)) for net, route in grids])
    assert pushes == 8_253, pushes


@pytest.mark.parametrize("variant, want", [("1d-sap", 11_592), ("sap", 13_093)])
def test_a_warm_fc_solve_of_random30_pushes(monkeypatch, variant, want):
    # a deterministic work gate on a grid whose detour frontiers are not
    # single paths: 51,555 pushes unseeded, for either form
    net, route = random_grid_instance(*RANDOM30)
    inst = sr.SapInstance(net, route, sr.parse_model("ue"), variant, "fc")
    sr.solve(inst)
    assert count_pushes(monkeypatch, lambda: sr.solve(inst)) == want


def _seed_cases():
    for seed in range(1, 13):
        net, route = corridor_instance(16, 16, 2000.0, seed, hops=10)
        yield f"grid {seed}", net, route
    yield "random30", *random_grid_instance(*RANDOM30)
    yield "random20", *random_grid_instance(20, 4, 10, 3, 16, 2000.0)
    rng = random.Random(CORPUS_SEED)
    for k in range(24):
        net, route = random_instance(rng, demand=DEMANDS[k % 4], n_lo=5, n_hi=12)
        yield f"corpus {k}", net, route
    for mode in (sr.QUADRATIC, sr.AFFINE):
        rng = random.Random(f"seeded-{mode}")
        made = 0
        while made < 24:
            net = tie_heavy_network(rng, mode)
            s = rng.choice(net.nodes)
            routes = [p for t in net.nodes if t != s
                      for p in enumerate_simple_paths(net, s, t)]
            if routes:
                made += 1
                yield f"{mode} network {made}", net, \
                    sr.Route(rng.choice(routes), float(rng.choice([1, 2, 3, 7.3, 2000])))


def test_seeded_detour_sets_are_subsets_of_the_unseeded_sets():
    # record for record, under either prefix bound, serially (the search
    # from v_1 unseeded) and in a pool (every search seeded)
    cut = 0
    for name, net, route in _seed_cases():
        q, d = route.path, route.demand
        unseeded = sr.detour_frontiers(net, q, d)
        for variant, prefix in PREFIXES.items():
            for threads in (1, 2):
                seeded = sr.detour_frontiers(net, q, d, threads, prefix(net, q))
                assert seeded.keys() == unseeded.keys(), name
                for ij, records in seeded.items():
                    assert all(rec in unseeded[ij] for rec in records), (name, variant, ij)
                    cut += len(unseeded[ij]) - len(records)
                # the (1, q) set is d-sap's frontier, which the seed never cuts
                last = (1, len(q.vertices))
                assert seeded[last] == unseeded[last], (name, variant, threads)
    assert cut > 1000, cut


def test_seeded_fc_solves_return_the_unseeded_keys():
    # the seed drops only detours that no completion brings into the
    # answer, at every thread count; 8 threads clamp to the usable CPUs
    models = [sr.parse_model(spec) for spec in ("ue", "so", "linear:1", "linear:0.5")]
    for k, (name, net, route) in enumerate(_seed_cases()):
        q, d = route.path, route.demand
        pij = sr.detour_frontiers(net, q, d)
        model = models[k % 4]
        inst = sr.SapInstance(net, route, model, "1d-sap", "fc")
        want = solvers._assemble(inst, _augmented_candidates(inst, pij)).key()
        for threads in (1, 2, 8):
            assert sr.solve(inst, threads).key() == want, (name, "1d-sap", threads)
        inst = sr.SapInstance(net, route, model, "sap", "fc")
        want = solvers._assemble(inst, fc_levels(net, q, d, pij)[-1]).key()
        for threads in (1, 2, 8):
            assert sr.solve(inst, threads).key() == want, (name, "sap", threads)


def _judge_cases():
    for seed in (1, 2, 3):
        yield f"grid {seed}", *corridor_instance(16, 16, 2000.0, seed, hops=10)
    yield "random20", *random_grid_instance(20, 4, 10, 3, 16, 2000.0)


@pytest.mark.parametrize("name, net, route", _judge_cases(),
                         ids=["grid-1", "grid-2", "grid-3", "random20"])
def test_the_reference_search_judges_every_search_and_form(monkeypatch, name, net, route):
    # path sets and vectors of the label searches, the unseeded detour sets
    # and the five forms' frontiers against the plain label-correcting
    # search of conftest; the 1d-sap frontier is the reduced set of Q's
    # prefix, a reference detour and Q's suffix, which fc sweeps without Q
    q, d = route.path, route.demand
    q_ids = frozenset(q.edge_ids)
    verts = q.vertices
    want3 = reference_frontiers(net, q.source, d, 3, q_ids)[q.target]
    assert search(net, q.source, q.target, d, 3, q_ids) == want3
    free = reference_frontiers(net, q.source, d, 2)
    assert mcsp._search(net, q.source, verts[1:], d, 2, frozenset()) == \
        {v: free[v] for v in verts[1:]}
    want_pij = {}
    for i in range(1, len(verts)):
        found = reference_frontiers(net, verts[i - 1], d, 2, banned=q_ids)
        want_pij.update({(i, j): found.get(verts[j - 1], []) for j in range(i + 1, len(verts) + 1)})
    assert sr.detour_frontiers(net, q, d) == want_pij

    joins = []
    for (i, j), pieces in want_pij.items():
        for piece in pieces:
            path = (verts[:i - 1] + piece[0] + verts[j:],
                    q.edge_ids[:i - 1] + piece[1] + q.edge_ids[j - 1:])
            if len(set(path[0])) == len(path[0]):
                joins.append(label_path(net, *path, q_ids, d, 3))
    q_rec = label_path(net, verts, q.edge_ids, q_ids, d, 3)
    handed = {}
    real = solvers._assemble
    monkeypatch.setattr(solvers, "_assemble", lambda inst, frontier: handed.setdefault(
        (inst.variant, inst.algorithm), frontier) and real(inst, frontier))
    for (variant, algorithm), solver in SOLVERS.items():
        solver(sr.SapInstance(net, route, sr.parse_model("ue"), variant, algorithm))
    assert handed["sap", "direct"] == want3
    assert handed["1d-sap", "direct"] == pairwise_cull(joins + [q_rec])
    assert handed["1d-sap", "fc"] == pairwise_cull(joins)
    assert handed["d-sap", "direct"] == [rec[:6] + (rec[6] + (0.0,),)
                                         for rec in want_pij[1, len(verts)]]
    # the DP sums a path's costs in join order, so its vectors are
    # label_path's to the last bits, and it may keep a path twice
    dp = handed["sap", "fc"]
    assert {rec[:2] for rec in dp} == {rec[:2] for rec in want3}
    by_path = {rec[:2]: rec[6] for rec in want3}
    for rec in dp:
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(rec[6], by_path[rec[:2]]))
    assert len(want3) > 20 and len(joins) > 20


def test_a_d_sap_solve_after_another_pushes_at_most_1260_entries(monkeypatch):
    # a deterministic work gate: a d-sap solve on a network that another
    # solve left its bound and baselines reads both (1,224 pushes measured;
    # 3,968 unguided)
    insts = []
    for seed in range(1, 13):
        net, route = corridor_instance(16, 16, 2000.0, seed, hops=10)
        sr.solve(sr.SapInstance(net, route, sr.parse_model("ue"), "sap"))
        insts.append(sr.SapInstance(net, route, sr.parse_model("ue"), "d-sap"))
    pushes = count_pushes(monkeypatch, lambda: [sr.solve(inst) for inst in insts])
    assert 0 < pushes <= 1_260, pushes


def corridor_pushes(monkeypatch, variant):
    """The heap pushes of direct solves of ``variant`` on 12 fresh 16x16
    corridor grids, the two baselines' Dijkstras included."""
    insts = [sr.SapInstance(net, route, sr.parse_model("ue"), variant)
             for net, route in (corridor_instance(16, 16, 2000.0, seed, hops=10)
                                for seed in range(1, 13))]
    return count_pushes(monkeypatch, lambda: [sr.solve(inst) for inst in insts])


def test_d_sap_solves_push_at_most_7000_entries_and_run_no_dijkstra(monkeypatch):
    # a deterministic work gate: d-sap runs the bounded 2-criteria loop with
    # no heuristic Dijkstra (the A* over the general loop pushed 10,092
    # entries on these grids); the two baselines' Dijkstras count too
    def no_dijkstra(*args, **kwargs):
        raise AssertionError("a d-sap search ran a Dijkstra")

    monkeypatch.setattr(mcsp, "dijkstra", no_dijkstra)
    pushes = corridor_pushes(monkeypatch, "d-sap")
    assert 0 < pushes <= 7_000, pushes


@pytest.mark.parametrize("variant,most", [("sap", 15_950), ("1d-sap", 16_200)])
def test_three_criteria_direct_solves_push_at_most(monkeypatch, variant, most):
    # deterministic work gates, about 2% above the 15,663 and 15,898 pushes
    # measured; the 1d-sap search over the phase copy of the network pushed
    # 16,354
    pushes = corridor_pushes(monkeypatch, variant)
    assert 0 < pushes <= most, pushes


@pytest.mark.parametrize("spec", ["ue", "so", "linear:1"])
def test_scoring_splits_at_most_one_candidate_per_corridor_solve(spec):
    # a deterministic work gate: score splits candidates in order of their
    # cost floors and stops at the first that cannot win; splitting every
    # candidate made 2,796 splits over these three models and five forms
    grids = [corridor_instance(16, 16, 2000.0, seed, hops=10) for seed in range(1, 13)]
    model = sr.parse_model(spec)
    splits = 0
    real_split = model.split

    def split(*args):
        nonlocal splits
        splits += 1
        return real_split(*args)

    model.split = split
    for variant, algorithm in SOLVERS:
        before = splits
        for net, route in grids:
            sr.solve(sr.SapInstance(net, route, model, variant, algorithm), threads=1)
        assert 0 < splits - before <= 12, (variant, algorithm, splits - before)


def quotient_f_calls(monkeypatch, instances) -> tuple:
    """(F calls, quotient splits) of solving (net, route, model) in every
    form, counted through a wrapper around ``psychmodels._quotient_f``."""
    calls = splits = 0
    real_f = psychmodels._quotient_f

    def counting_f(parts, d, c):
        nonlocal splits
        splits += 1
        f = real_f(parts, d, c)

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)
        return counted

    with monkeypatch.context() as patched:
        patched.setattr(psychmodels, "_quotient_f", counting_f)
        for net, route, model in instances:
            for (variant, algorithm), solver in SOLVERS.items():
                solver(sr.SapInstance(net, route, model, variant, algorithm))
    return calls, splits


def test_quotient_splits_call_f_at_most_six_times_on_average(monkeypatch):
    # a deterministic work gate: F is called only where its sign is not
    # yet known, 5.1 times per split here; the plain bisection called it
    # 2,520 times on the corridor and 10,083 on the corpus sample, 36.6
    # per split
    ue = sr.parse_model("ue")
    corridor = [(*corridor_instance(16, 16, 2000.0, seed, hops=10), ue)
                for seed in range(1, 13)]
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for k in range(CORPUS_SIZE):
        net, route = random_instance(rng, demand=DEMANDS[k % 4],
                                     n_lo=5, n_hi=12, density=0.3)
        if k % 10 == 0:   # the digest test's sample: ue, so, linear:1, linear:0.5
            corpus.append((net, route, sr.parse_model(MODEL_SPECS[(k // 4) % 4])))
    counts = {"corridor": quotient_f_calls(monkeypatch, corridor),
              "corpus": quotient_f_calls(monkeypatch, corpus)}
    assert counts == {"corridor": (370, 60), "corpus": (1398, 284)}, counts
    calls, splits = map(sum, zip(*counts.values()))
    assert calls <= 6 * splits


@pytest.mark.parametrize("variant", ["sap", "1d-sap"])
def test_fc_solves_build_cost_functions_only_for_the_candidates_they_split(
        monkeypatch, variant):
    # a deterministic work gate: a candidate stays a record from its search
    # to its split, and scoring builds no cost function: 3 per solve, for
    # Q's record, Q's cost and the d-baseline; corridor_instance has built
    # the load-1 baseline's (96 when each split built four; 526 for sap and
    # 502 for 1d-sap on these grids when each frontier candidate built two
    # more for scoring)
    insts = [sr.SapInstance(net, route, sr.parse_model("ue"), variant, "fc")
             for net, route in (corridor_instance(16, 16, 2000.0, seed, hops=10)
                                for seed in range(1, 13))]
    made = 0
    real_new = sr.CostFn.__new__

    def new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(sr.CostFn, "__new__", new)
    for inst in insts:
        sr.solve(inst, threads=1)
    assert made == 36


def test_d_sap_frontier_is_the_detour_frontier_from_the_first_to_the_last_vertex():
    # the paper's identity: a d-SAP alternative is a Q-edge-free detour from
    # v_1 to v_q, so d-sap's frontier is detour_frontiers' (1, q) set
    def cases():
        for grid_seed in range(1, 13):
            net, route = corridor_instance(16, 16, 2000.0, grid_seed, hops=10)
            yield f"grid {grid_seed}", net, route.path, route.demand
        for mode in (sr.QUADRATIC, sr.AFFINE):
            rng = random.Random(f"identity-{mode}")
            trial = 0
            while trial < 300:
                net = tie_heavy_network(rng, mode)
                s = rng.choice(net.nodes)
                routes = [p for t in net.nodes if t != s
                          for p in enumerate_simple_paths(net, s, t)]
                if routes:
                    trial += 1
                    yield f"{mode} trial {trial}", net, rng.choice(routes), \
                        float(rng.choice([1, 2, 3, 7.3, 2000]))

    found = multi = 0
    for name, net, q, d in cases():
        got = search(net, q.source, q.target, d, 2, banned=q.edge_ids)
        want = sr.detour_frontiers(net, q, d)[(1, len(q.vertices))]
        assert got == want, name
        # no Q-sums, so the third criterion d-sap appends is zero
        assert all(rec[4] == rec[5] == 0.0 for rec in want), name
        inst = sr.SapInstance(net, sr.Route(q, d), sr.parse_model("ue"), "d-sap")
        assert sr.solve(inst).frontier_size == len(want), name
        found += len(want) > 0
        multi += len(want) > 1
    assert found > 300 and multi > 50, (found, multi)


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
        want = {(i, j): [label_path(net, rec[0], rec[1], q_ids, d, 2)
                         for rec in search(net, vi, vj, d, 2, banned=q_ids)]
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
    # integer costs make exact ties common; each detour's record comes from
    # its search as it is, and must carry label_path's sums bit for bit
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
            want = brute_frontier(net, vi, vj, d, 2, q_ids, banned=q_ids)
            assert len(got[(i, j)]) == len(want), f"{mode} trial {trial} ({i}, {j})"
            for rec, w in zip(got[(i, j)], want):
                for k, field in enumerate(("vertices", "edge_ids", "slope", "base",
                                           "q_slope", "q_base", "vector")):
                    assert rec[k] == w[k], f"{mode} trial {trial} ({i}, {j}) {field}"
            pairs += 1
            multi += len(want) > 1
    assert pairs > 100 and multi > 10


def reference_cull(paths):
    """The level cull as it was before the shared sweep: every path sorted by
    (vector, vertex sequence, edge sequence), then one staircase sweep."""
    kept, stair = [], ([], [])
    for p in sorted(paths, key=lambda p: (p[6], p[:2])):
        _, y, z = p[6]
        if not staircase_covers(stair, y, z):
            staircase_add(stair, y, z)
            kept.append(p)
    return kept


def reference_levels(net, q, d, pij):
    """The sap-fc DP as two stages over records labelled by label_path: each
    part's joins built with join_paths and culled, then every level's union
    culled again."""
    q_ids = frozenset(q.edge_ids)
    pij = {ij: [label_path(net, rec[0], rec[1], q_ids, d, 3) for rec in recs]
           for ij, recs in pij.items()}

    def join(a, b):
        return reference_cull([j for p1 in a for p2 in b
                               if (j := join_paths(p1, p2, net.mode, d, 3)) is not None])

    levels = [[], [label_path(net, (q.source,), (), q_ids, d, 3)]]
    for j in range(2, len(q.vertices) + 1):
        pool = [p for i in range(1, j) for p in join(levels[i], pij[(i, j)])]
        step = label_path(net, q.vertices[j - 2:j], (q.edge_ids[j - 2],), q_ids, d, 3)
        levels.append(reference_cull(pool + join(levels[j - 1], [step])))
    return levels


def reference_augmented(net, q, d, pij):
    """1d-sap-fc's candidates built as Paths, labelled edge by edge, culled."""
    q_ids = frozenset(q.edge_ids)
    out = []
    for (i, j), pieces in pij.items():
        for piece in pieces:
            full = q.edge_ids[:i - 1] + piece[1] + q.edge_ids[j - 1:]
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
    # record equality compares vertices, edge ids, both costs' sums and
    # vector, so every kept record must carry label_path's sums bit for bit
    for name, net, q, d in _recombination_cases():
        pij = sr.detour_frontiers(net, q, d)
        want = reference_levels(net, q, d, pij)
        got = fc_levels(net, q, d, pij)
        for j in range(1, len(q.vertices) + 1):
            assert got[j] == want[j], f"{name}, level {j}"
        inst = sr.SapInstance(net, sr.Route(q, d), sr.parse_model("ue"), "1d-sap", "fc")
        assert _augmented_candidates(inst, pij) == reference_augmented(net, q, d, pij), \
            name


def _phase_cases():
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


def phase_state_paths(net, q):
    """Every state-simple path of ``mcsp._phase_states`` from Q's first
    vertex to its last, as (base vertices, edge ids)."""
    adj, phase_nodes = mcsp._phase_states(net, q)
    n, target = len(net.nodes), net.index[q.target]
    node_of = list(range(n)) + phase_nodes
    out = []
    stack = [(n, (n,), ())]
    while stack:
        u, states, edges = stack.pop()
        if u == target:
            out.append((tuple(net.nodes[node_of[i]] for i in states), edges))
            continue
        for head, e, _, _ in adj[u]:
            if head not in states:
                stack.append((head, states + (head,), edges + (e,)))
    return out


def test_phase_states_carry_the_one_disjoint_path_family():
    # the phase states' paths that are simple in the network are exactly
    # the network's 1-disjoint paths, each reached once
    rng = random.Random(50)
    for _ in range(60):
        net, route = random_instance(rng, n_lo=4, n_hi=8, density=0.35)
        q = route.path
        q_ids = frozenset(q.edge_ids)
        mapped = sorted(edges for verts, edges in phase_state_paths(net, q)
                        if len(set(verts)) == len(verts))
        direct = sorted(p.edge_ids for p in enumerate_simple_paths(net, q.source, q.target)
                        if is_one_disjoint(p, q_ids))
        assert mapped == direct


def test_phase_states_of_a_single_edge_route():
    net = sr.Network.build(sr.QUADRATIC, ["s", "a", "t"], [
        ("s", "t", sr.CostFn.quadratic(1, 1)),
        ("s", "a", sr.CostFn.quadratic(1, 1)),
        ("a", "t", sr.CostFn.quadratic(1, 1)),
    ])
    q = sr.Path(("s", "t"), (0,))
    # a single-edge route: the route itself plus every edge-disjoint path
    assert sorted(phase_state_paths(net, q)) == [(("s", "a", "t"), (1, 2)),
                                                 (("s", "t"), (0,))]
    with pytest.raises(sr.NetworkError, match="at least two vertices"):
        sr.SapInstance(net, sr.Route(sr.Path(("s",), ()), 2.0), sr.parse_model("ue"),
                       "1d-sap")


def _one_disjoint_cases(group):
    if group == "phase cases":
        # random coefficients rarely tie, and these networks have up to
        # ~37,000 simple paths to label, so one demand each
        for made, (net, q) in enumerate(_phase_cases()):
            yield f"phase case {made}", net, q, (2.0,)
        return
    rng = random.Random(f"one-disjoint-{group}")
    for made in range(300):
        net = tie_heavy_network(rng, group)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s
                  for p in enumerate_simple_paths(net, s, t)]
        if routes:
            # integer demands sum exactly; at 7.3 the A* bound's rounding shows
            yield f"{group} network {made}", net, rng.choice(routes), (1.0, 2.0, 3.0, 7.3)


@pytest.fixture
def one_disjoint_frontier(monkeypatch):
    """The frontier ``solve_1d_sap`` hands to ``_assemble`` for (net, q, d)."""
    handed = []
    real = solvers._assemble
    monkeypatch.setattr(solvers, "_assemble", lambda inst, frontier:
                        handed.append(frontier) or real(inst, frontier))

    def frontier(net, q, d):
        handed.clear()
        sr.solve_1d_sap(sr.SapInstance(net, sr.Route(q, d), sr.parse_model("ue"), "1d-sap"))
        return handed[0]
    return frontier


@pytest.mark.parametrize("group, least_searches, least_ties", [
    (sr.QUADRATIC, 800, 45), (sr.AFFINE, 800, 50), ("phase cases", 40, 0)],
    ids=[sr.QUADRATIC, sr.AFFINE, "phase-cases"])
def test_one_disjoint_frontier_is_the_reduced_set_of_one_disjoint_paths(
        one_disjoint_frontier, group, least_searches, least_ties):
    # the frontier solve_1d_sap hands to _assemble is simple_cull of every
    # simple 1d-SAP path, labelled edge by edge: vertices, edge ids, sums
    # and vectors, in order, so an exact vector tie keeps the path that is
    # smaller in the network's (vertices, edges) order
    searches = ties = 0
    for name, net, q, demands in _one_disjoint_cases(group):
        q_ids = frozenset(q.edge_ids)
        paths = [p for p in enumerate_simple_paths(net, q.source, q.target)
                 if variant_feasible("1d-sap", p, q_ids)]
        for d in demands:
            labeled = [label_path(net, p.vertices, p.edge_ids, q_ids, d, 3) for p in paths]
            want = simple_cull(labeled)
            assert one_disjoint_frontier(net, q, d) == want, f"{name}, d={d}"
            searches += 1
            vectors = Counter(p[6] for p in labeled)
            ties += any(vectors[p[6]] > 1 for p in want)
    assert searches >= least_searches and ties >= least_ties, (searches, ties)


def test_one_disjoint_frontier_of_a_grid_is_q_and_its_augmented_detours(
        one_disjoint_frontier):
    # the grid's simple paths are too many to enumerate: its reference is Q
    # and Q's prefix, each detour and Q's suffix, built and culled as paths
    net, route = corridor_instance(8, 8, 100.0, 3, hops=6)
    q, d = route.path, route.demand
    want = reference_cull(reference_augmented(net, q, d, sr.detour_frontiers(net, q, d))
                          + [label_path(net, q.vertices, q.edge_ids, frozenset(q.edge_ids), d, 3)])
    assert len(want) > 10 and one_disjoint_frontier(net, q, d) == want


def test_one_disjoint_search_keeps_the_base_networks_arrays():
    # the phase states extend copies of the kept Q-banned lists, never the
    # lists that d-sap and the detour searches read
    net, route = corridor_instance(6, 6, 100.0, 1, hops=4)
    q_ids = frozenset(route.path.edge_ids)
    arrays = (net.index, net.out, net.rev, mcsp.search_adjacency(net, q_ids))
    before = copy.deepcopy(arrays)
    inst = sr.SapInstance(net, route, sr.parse_model("ue"), "1d-sap")
    sr.solve_1d_sap(inst)
    now = (net.index, net.out, net.rev, net._adjacency[q_ids])
    assert all(a is b for a, b in zip(now, arrays))
    assert now == before


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


def test_a_star_bound_is_computed_once_per_network_and_target(monkeypatch):
    net, route = corridor_instance(8, 8, 100.0, 4, hops=6)
    q = route.path
    runs = []
    real = mcsp.dijkstra
    monkeypatch.setattr(mcsp, "dijkstra", lambda net, adj, *args, **kwargs:
                        (adj is net.rev and runs.append(args[0]))
                        or real(net, adj, *args, **kwargs))
    # all five forms at two demands: one slope and one base search to Q's target
    for d in (route.demand, 7.3):
        for variant, algorithm in solvers._SOLVERS:
            sr.solve(sr.SapInstance(net, sr.Route(q, d), sr.parse_model("ue"),
                                    variant, algorithm))
    t_idx = net.index[q.target]
    assert runs == [t_idx, t_idx]
    assert list(net._bounds) == [t_idx]
    # the 1d-sap phase states extend copies: the kept bound stays a fresh one
    fresh = corridor_instance(8, 8, 100.0, 4, hops=6)[0]
    ha, hb = net._bounds[t_idx]
    assert len(ha) == len(hb) == len(net.nodes)
    assert (ha, hb) == (real(fresh, fresh.rev, t_idx, fresh.slopes)[0],
                        real(fresh, fresh.rev, t_idx, fresh.bases)[0])
    # a search without some edges reads the same bound, which a ban cannot
    # make inadmissible, and gives the frontier a fresh network gives
    banned = frozenset(q.edge_ids[1::2])
    got = [search(net, q.source, q.target, 7.3, 3, q.edge_ids, banned) for _ in range(2)]
    assert runs == [t_idx, t_idx]
    assert list(net._bounds) == [t_idx]
    assert got[0] == got[1] == \
        search(fresh, q.source, q.target, 7.3, 3, q.edge_ids, banned)


def _failing_task(task, worker):
    raise RuntimeError("detour search failed")


def _exiting_task(task, worker):
    os._exit(1)


def _exiting_on_the_last_task(task, worker):
    if len(task[1]) == 1:   # the last divergence vertex has one target
        os._exit(1)
    return [[] for _ in task[1]]


def _sleeping_task(task, worker):
    time.sleep(60)
    return [[] for _ in task[1]]


def pool_of(monkeypatch, workers):
    """A 5x5 grid's route, with the pool clamped to ``workers`` workers on
    this host's first CPU."""
    net, route = corridor_instance(5, 5, 100.0, 1, hops=4)
    cpu = solvers._allowed_cpus()[0]
    monkeypatch.setattr(solvers, "_allowed_cpus", lambda: [cpu] * workers)
    return net, route.path, route.demand


def wait_for(done, what):
    deadline = time.monotonic() + 30
    while not done():
        assert time.monotonic() < deadline, f"waited 30 s for {what}"
        time.sleep(0.001)


def split_tasks(monkeypatch, tmp_path, in_parent, in_children):
    """Run the detour tasks as ``in_parent`` in this process and as
    ``in_children`` in the forked children.  Each child starts its first
    task only once this process has claimed one, so it cannot take every
    task alone."""
    parent, claimed = os.getpid(), tmp_path / "parent-claimed"

    def task(*args):
        if os.getpid() == parent:
            claimed.touch()
            return in_parent(*args)
        wait_for(claimed.exists, "the parent's first claim")
        return in_children(*args)

    monkeypatch.setattr(solvers, "_pij_task", task)


def after_the_children(forks, task):
    """``task``, run once every forked child has exited, left unreaped."""
    def exited(pid):
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    def run(*args):
        wait_for(lambda: all(exited(pid) for pid, _ in forks), "the children to exit")
        return task(*args)

    return run


def test_each_pool_worker_finishes_the_sets_of_its_own_searches(monkeypatch):
    # with finish, each worker hands it the sets of the searches it ran and
    # the call returns one result per worker, this process's first: the
    # workers' sets are disjoint and together they are the serial sets
    net, q, d = pool_of(monkeypatch, 3)
    serial = sr.detour_frontiers(net, q, d, threads=1)
    forks = record_forks(monkeypatch)

    def finish(pij):
        return os.getpid(), pij

    assert sr.detour_frontiers(net, q, d, 1, None, finish) == [(os.getpid(), serial)]
    assert forks == []
    parts = sr.detour_frontiers(net, q, d, 3, None, finish)
    assert [pid for pid, _ in parts] == [os.getpid()] + [pid for pid, _ in forks]
    union = {}
    for _, pij in parts:
        assert not union.keys() & pij.keys()
        assert list(pij) == sorted(pij)
        union.update(pij)
    assert union == serial


def test_a_pool_that_succeeds_reaps_every_child(monkeypatch):
    # a child that sent its result is reaped on a thread of its own, so the
    # call returns before the child's exit is done, and no zombie is left
    net, q, d = pool_of(monkeypatch, 3)
    serial = sr.detour_frontiers(net, q, d, threads=1)
    forks = record_forks(monkeypatch)
    fds = open_fds()
    assert sr.detour_frontiers(net, q, d, threads=3) == serial
    assert len(forks) == 2 and open_fds() == fds

    def reaped(pid):   # asks without reaping it here
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:
            return True
        return False

    for pid, _ in forks:
        wait_for(lambda: reaped(pid), f"child {pid} to be reaped")


def test_a_pooled_solve_imports_no_multiprocessing():
    # the pool's workers claim their tasks through a pipe, not a
    # multiprocessing lock, so neither the import nor a pooled solve loads it
    script = ("import sys, saproute as sr\n"
              "from saproute.synthetic import corridor_instance\n"
              "assert 'multiprocessing' not in sys.modules, 'import'\n"
              "net, route = corridor_instance(5, 5, 100.0, 1, hops=4)\n"
              "for variant in ('1d-sap', 'sap'):\n"
              "    inst = sr.SapInstance(net, route, sr.parse_model('ue'), variant, 'fc')\n"
              "    sr.solve(inst, threads=2)\n"
              "assert 'multiprocessing' not in sys.modules, 'solve'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]


def test_detour_pool_freezes_the_heap_only_while_it_runs(monkeypatch):
    # the parent's objects are frozen while the child is forked and runs,
    # and the count is restored afterwards, also when a task raises; a
    # caller's own freeze is left as it is
    net, q, d = pool_of(monkeypatch, 2)
    serial = sr.detour_frontiers(net, q, d, threads=1)
    forks = record_forks(monkeypatch)
    assert gc.get_freeze_count() == 0
    assert sr.detour_frontiers(net, q, d, threads=2) == serial
    assert len(forks) == 1 and all(frozen > 0 for _, frozen in forks)
    assert gc.get_freeze_count() == 0

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_pij_task", _failing_task)
        with pytest.raises(RuntimeError, match="detour search failed"):
            sr.detour_frontiers(net, q, d, threads=2)
    assert len(forks) == 2 and forks[-1][1] > 0 and gc.get_freeze_count() == 0

    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert sr.detour_frontiers(net, q, d, threads=2) == serial
        assert forks[-1][1] == before and gc.get_freeze_count() == before
    finally:
        gc.unfreeze()
    assert len(forks) == 3


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("task, message", [
    (_failing_task, "detour search failed"),
    (_exiting_task, "exited without a result"),
    (_exiting_on_the_last_task, "exited without a result"),
])
def test_a_failing_detour_child_raises_and_leaves_nothing_behind(monkeypatch, tmp_path,
                                                                 task, message):
    # a child that raises, or dies without writing (at once, or after some
    # tasks), raises in the parent, whose own tasks succeed; every child is
    # reaped and every pipe closed
    net, q, d = pool_of(monkeypatch, 2)
    forks = record_forks(monkeypatch)
    split_tasks(monkeypatch, tmp_path, after_the_children(forks, solvers._pij_task), task)
    fds = open_fds()
    with pytest.raises(RuntimeError, match=message):
        sr.detour_frontiers(net, q, d, threads=2)
    assert len(forks) == 1
    for pid, _ in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert open_fds() == fds


def test_a_failing_task_in_the_parent_kills_every_child(monkeypatch, tmp_path):
    # the parent is worker 0: when its own task raises, the children, still
    # searching, are killed and reaped, every pipe is closed, and the
    # parent's CPUs are those it had
    net, q, d = pool_of(monkeypatch, 3)
    forks = record_forks(monkeypatch)
    split_tasks(monkeypatch, tmp_path, _failing_task, _sleeping_task)
    fds, cpus = open_fds(), os.sched_getaffinity(0)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="detour search failed"):
        sr.detour_frontiers(net, q, d, threads=3)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    for pid, _ in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert open_fds() == fds
    assert os.sched_getaffinity(0) == cpus


# sha256 of repr() of the list of Solution.key()s below, recorded before the
# network became its own compiled form: the solvers' answers are pinned bit
# for bit.  CORPUS_KEYS was recorded again when every form took the one
# no-alternative rule: 48 keys (12 instances whose only path is Q, times the
# four forms whose frontier may hold Q) moved in no_alternative alone
CORRIDOR_KEYS = "045df36b66b7633028bb8e947288844c81000cb4ee705408800951c0a66efb12"
CORPUS_KEYS = "0bc93843ec334f562301682deb248f60139e098d27e901593b30a45f0f288923"


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
