"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS/FAIL line; the
randomized corpora are seeded so every run exercises identical instances.
Criterion 8's thread-scaling clause measures the host's parallel headroom
honestly; on boxes whose second vCPU delivers only fractional throughput it
cannot reach the required speedup (see the failure message, which includes
a pure-CPU calibration measurement).
"""
import random
import time
from contextlib import contextmanager

import pytest

import saproute as sr
from saproute.oracle import variant_feasible
from saproute.psychmodels import CFunction, quotient_split, record_parts, so_split
from saproute.synthetic import corridor_instance

from conftest import SOLVERS, dominated_pair, dominates, part_costs, random_instance
from test_psychmodels import g_p, g_q, random_parts

CORPUS_SEED = 20260809
CORPUS_SIZE = 500
DEMANDS = [1.0, 2.0, 5.0, 10.0]
MODEL_SPECS = ["ue", "so", "linear:1", "linear:0.5"]
SWEEP_DEMANDS = [100.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def corpus():
    """The 500 seeded random instances with solver and oracle results."""
    rng = random.Random(CORPUS_SEED)
    instances = []
    results = []
    started = time.perf_counter()
    for k in range(CORPUS_SIZE):
        net, route = random_instance(rng, demand=DEMANDS[k % 4],
                                     n_lo=5, n_hi=12, density=0.3)
        model = sr.parse_model(MODEL_SPECS[(k // 4) % 4])
        oracle = sr.brute_force_all_variants(net, route, model)
        solved = {}
        for (variant, algo), solver in SOLVERS.items():
            inst = sr.SapInstance(net, route, model, variant, algo)
            solved[(variant, algo)] = solver(inst)
        instances.append((net, route, model))
        results.append((oracle, solved))
    return {"instances": instances, "results": results,
            "elapsed": time.perf_counter() - started}


def test_criterion_1_oracle_equivalence(corpus):
    with criterion(1, "oracle equivalence on 500 random instances"):
        q_only = 0
        for (net, route, model), (oracle, solved) in zip(corpus["instances"],
                                                         corpus["results"]):
            q = route.path
            q_ids = frozenset(q.edge_ids)
            q_key = (q.vertices, q.edge_ids)
            q_only += oracle["sap"].no_alternative
            for (variant, algo), sol in solved.items():
                want = oracle[variant].cost
                assert rel_close(sol.cost, want, 1e-6), \
                    f"{variant}/{algo}: {sol.cost} vs oracle {want}"
                assert sol.no_alternative == oracle[variant].no_alternative, \
                    f"{variant}/{algo}: no_alternative {sol.no_alternative}"
                path_key = (sol.path.vertices, sol.path.edge_ids)
                assert path_key == q_key or variant_feasible(variant, sol.path, q_ids)
        # instances whose only s-t path is Q, where every form has no alternative
        assert q_only == 113
        assert corpus["elapsed"] < 300, f"corpus took {corpus['elapsed']:.0f}s"


def test_criterion_2_cross_algorithm_agreement(corpus):
    with criterion(2, "direct and fewer-criteria solvers agree"):
        for oracle, solved in corpus["results"]:
            assert rel_close(solved[("sap", "direct")].cost,
                             solved[("sap", "fc")].cost, 1e-9)
            assert rel_close(solved[("1d-sap", "direct")].cost,
                             solved[("1d-sap", "fc")].cost, 1e-9)


def test_criterion_3_subset_sum_reduction():
    with criterion(3, "subset-sum reduction fidelity"):
        rng = random.Random(CORPUS_SEED + 1)
        started = time.perf_counter()
        for _ in range(100):
            size = rng.randint(2, 12)
            m_values = [rng.randint(1, 30) for _ in range(size)]
            w = rng.randint(1, max(2, sum(m_values)))
            gadget = sr.build_gadget(m_values, w)
            inst = sr.SapInstance(gadget.net, gadget.route, gadget.model, "sap")
            sol = sr.solve_sap(inst)
            below = sol.cost < 6 * gadget.total
            assert below == sr.subsetsum_brute(m_values, w), \
                f"reduction mismatch for M={m_values} w={w}"
        assert time.perf_counter() - started < 60


def test_criterion_4_pareto_conformity():
    with criterion(4, "dominated alternatives never score better"):
        rng = random.Random(CORPUS_SEED + 2)
        models = [sr.SystemOptimum(), sr.user_equilibrium(),
                  sr.linear_model(0.25), sr.linear_model(0.5),
                  sr.linear_model(1.0)]
        for _ in range(500):
            d = rng.choice([1.0, 2.0, 5.0, 10.0])
            p1, p2, q_cost = dominated_pair(rng, d)
            assert dominates(p1, p2)
            for model in models:
                c1 = model.split(record_parts(p1, q_cost), d, p1).cost
                c2 = model.split(record_parts(p2, q_cost), d, p2).cost
                assert c1 <= c2 + 1e-8 * max(1.0, abs(c2)), model.name
        d = 2.0
        assert sr.check_quotient_conformity(CFunction.constant(1.0), d)
        for c in (0.25, 0.5, 1.0):
            assert sr.check_quotient_conformity(CFunction.linear(c), d)
        for a in (0.5, 1.0, 2.0, 4.0):
            assert sr.check_quotient_conformity(CFunction.tanh(a), d)
        assert not sr.check_quotient_conformity(CFunction.constant(1.5), d)


def test_criterion_5_split_correctness():
    with criterion(5, "split machinery (equalization, optimality, identities)"):
        rng = random.Random(CORPUS_SEED + 3)
        ue = CFunction.constant(1.0)
        interior = 0
        for _ in range(200):
            d = rng.choice([1.0, 2.0, 5.0, 10.0])
            parts = random_parts(rng, d)
            res = quotient_split(parts, d, ue)
            if res.boundary == "interior":
                interior += 1
                assert rel_close(res.per_agent_alt, res.per_agent_orig, 1e-8)
            best = so_split(parts, d)
            for _ in range(1000):
                x = rng.uniform(0.0, d)
                assert best.cost <= sr.psychmodels.cost_at(parts, d, x) \
                    + 1e-9 * max(1.0, best.cost)
            c = rng.choice([ue, CFunction.linear(0.5), CFunction.linear(1.0),
                            CFunction.tanh(2.0)])
            split = quotient_split(parts, d, c)
            alt, orig, shared = part_costs(parts)
            sh = sr.eval_cost(shared, d)
            alt_side = sr.eval_cost(alt, split.x) + sh
            orig_side = sr.eval_cost(orig, d - split.x) + sh
            if split.x > 0:
                assert rel_close(split.cost, g_p(split.x, d, c) * alt_side, 1e-8)
            if split.x < d:
                assert rel_close(split.cost, g_q(split.x, d, c) * orig_side, 1e-8)
        assert interior >= 50


def test_criterion_6_worked_example_regression():
    with criterion(6, "worked-example regression"):
        net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                               [("s", "t", sr.CostFn.quadratic(1, 4)),
                                ("s", "t", sr.CostFn.quadratic(1, 1))])
        route = sr.Route(sr.Path(("s", "t"), (0,)), 2.0)

        so = sr.solve_sap(sr.SapInstance(net, route, sr.parse_model("so")))
        assert so.x == pytest.approx(1.25, rel=1e-9)
        assert so.cost == pytest.approx(6.625, rel=1e-9)

        ue = sr.solve_sap(sr.SapInstance(net, route, sr.parse_model("ue")))
        assert ue.x == pytest.approx(1.75, rel=1e-9)
        assert ue.cost == pytest.approx(8.125, rel=1e-9)

        lin = sr.solve_sap(sr.SapInstance(net, route, sr.parse_model("linear:1")))
        assert lin.x == pytest.approx(1.8385, abs=1e-3)
        assert lin.cost == pytest.approx(8.703, abs=1e-2)


@pytest.fixture(scope="module")
def grid_sweep():
    runs = {}
    for d in SWEEP_DEMANDS:
        net, route = corridor_instance(10, 10, d, seed=1)
        for spec in ("so", "ue", "linear:1"):
            inst = sr.SapInstance(net, route, sr.parse_model(spec), "sap")
            runs[(d, spec)] = sr.solve_sap(inst)
    return runs


def test_criterion_7_model_trend_reproduction(grid_sweep):
    with criterion(7, "grid sweep reproduces the model ordering trends"):
        for d in SWEEP_DEMANDS:
            so = grid_sweep[(d, "so")].cost
            ue = grid_sweep[(d, "ue")].cost
            lin = grid_sweep[(d, "linear:1")].cost
            assert so <= ue + 1e-9 * max(1.0, ue), f"d={d}"
            assert ue <= lin + 1e-9 * max(1.0, lin), f"d={d}"
        ratios = [grid_sweep[(d, "ue")].cost / grid_sweep[(d, "so")].cost
                  for d in SWEEP_DEMANDS if d >= 500]
        upticks = [(b - a) / a for a, b in zip(ratios, ratios[1:]) if b > a]
        assert len(upticks) <= 1 and all(u <= 1e-3 for u in upticks), ratios


@pytest.fixture(scope="module")
def big_grid():
    net, route = corridor_instance(100, 100, demand=2000.0, seed=1, hops=50)
    return net, route


def _burn(n):
    s = 0
    for i in range(n):
        s += i * i
    return s


def _parallel_calibration():
    """Pure-CPU multiprocessing ceiling of this host, for the failure message."""
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing as mp

    work = [4_000_000] * 8
    t0 = time.perf_counter()
    for w in work:
        _burn(w)
    seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=4,
                             mp_context=mp.get_context("fork")) as pool:
        list(pool.map(_burn, work))
    return seq / (time.perf_counter() - t0)


def test_criterion_8_performance_sanity(big_grid):
    with criterion(8, "10k-node grid performance and thread scaling"):
        net, route = big_grid
        model = sr.parse_model("ue")
        inst = sr.SapInstance(net, route, model, "sap")
        started = time.perf_counter()
        sol = sr.solve_sap(inst, threads=1)
        sap_time = time.perf_counter() - started
        assert sap_time < 60.0, f"solve_sap took {sap_time:.1f}s"
        assert not sol.no_alternative

        inst_fc = sr.SapInstance(net, route, model, "1d-sap", "fc")
        started = time.perf_counter()
        base = sr.solve_1d_sap_fc(inst_fc, threads=1)
        t_one = time.perf_counter() - started
        started = time.perf_counter()
        pooled = sr.solve_1d_sap_fc(inst_fc, threads=4)
        t_four = time.perf_counter() - started
        assert pooled.key() == base.key()
        speedup = t_one / t_four
        assert speedup >= 1.5, (
            f"1d-sap-fc speedup at 4 threads: {speedup:.2f}x "
            f"(t1={t_one:.1f}s, t4={t_four:.1f}s); pure-CPU multiprocessing "
            f"ceiling on this host: {_parallel_calibration():.2f}x")


def test_criterion_9_determinism_across_thread_counts(corpus, big_grid):
    with criterion(9, "identical outputs at 1 and 8 threads"):
        sample = corpus["instances"][::25]  # 20 of the 500 corpus instances
        for net, route, model in sample:
            for variant, solver in (("sap", sr.solve_sap_fc),
                                    ("1d-sap", sr.solve_1d_sap_fc)):
                inst = sr.SapInstance(net, route, model, variant, "fc")
                one = solver(inst, threads=1)
                eight = solver(inst, threads=8)
                assert one.key() == eight.key()
        net, route = big_grid
        inst = sr.SapInstance(net, route, sr.parse_model("ue"), "1d-sap", "fc")
        assert sr.solve_1d_sap_fc(inst, threads=1).key() == \
            sr.solve_1d_sap_fc(inst, threads=8).key()
