"""Property tests: all five solvers agree with the brute-force oracle, and
the scoring floor is a tight lower bound on every model's split.

The solver inputs are tie-heavy networks (small integer coefficients,
parallel edges, zero-base affine edges) in both cost modes, with a random
simple route.  Hypothesis runs derandomized, so every run draws the same
examples.
"""
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import saproute as sr  # noqa: E402
from saproute.oracle import enumerate_simple_paths, variant_feasible  # noqa: E402
from saproute.psychmodels import cost_at, cost_floor, record_parts, so_split  # noqa: E402

from conftest import SOLVERS, path_record, tie_heavy_network  # noqa: E402


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1),
       spec=st.sampled_from(["ue", "so", "linear:1"]),
       demand=st.integers(1, 4))
def test_every_solver_matches_the_oracle(mode, seed, spec, demand):
    rng = random.Random(seed)
    net = tie_heavy_network(rng, mode)
    s = rng.choice(net.nodes)
    routes = [p for t in net.nodes if t != s for p in enumerate_simple_paths(net, s, t)]
    assume(routes)
    route = sr.Route(rng.choice(routes), float(demand))
    model = sr.parse_model(spec)
    oracle = sr.brute_force_all_variants(net, route, model)
    q = route.path
    q_ids = frozenset(q.edge_ids)
    for (variant, algorithm), solver in SOLVERS.items():
        sol = solver(sr.SapInstance(net, route, model, variant, algorithm))
        want = oracle[variant].cost
        assert rel_close(sol.cost, want, 1e-6), \
            f"{variant}/{algorithm}: {sol.cost} vs oracle {want}"
        assert sol.path == q or variant_feasible(variant, sol.path, q_ids)


COEFF = st.floats(0.0, 5.0)


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@settings(derandomize=True, deadline=None, max_examples=400)
@given(alt=st.tuples(COEFF, COEFF), orig=st.tuples(COEFF, COEFF),
       shared=st.one_of(st.just((0.0, 0.0)), st.tuples(COEFF, COEFF)),
       near_tie=st.one_of(st.none(), st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])),
       d=st.floats(1e-3, 2000.0), fraction=st.floats(0.0, 1.0))
def test_the_cost_floor_is_a_tight_lower_bound_on_every_split(mode, alt, orig, shared,
                                                              near_tie, d, fraction):
    if near_tie is not None:
        # Q minus P's slope nearly ties P minus Q's: so_split's cancellation branch
        orig = (alt[0] * (1.0 + near_tie), orig[1])
    on_q = sr.CostFn(mode, *shared)
    p_cost = sr.add_cost(sr.CostFn(mode, *alt), on_q)
    q_cost = sr.add_cost(sr.CostFn(mode, *orig), on_q)
    # the sums score reads: a record of P's cost and of its part on Q
    parts = record_parts(path_record((), (), p_cost, on_q, d, 2), q_cost)
    floor = cost_floor(parts, d)
    # the floor sums terms as large as the costs of sending all d one way,
    # so its rounding is relative to them, not to the least cost
    ends = cost_at(parts, d, 0.0) + cost_at(parts, d, d)
    so_cost = so_split(parts, d).cost
    assert abs(floor - so_cost) <= 1e-9 * so_cost + 1e-12 * ends
    models = [sr.parse_model(spec) for spec in ("so", "ue", "linear:1", "quotient:tanh:2")]
    for model in models + [sr.CustomModel(lambda cand, d: fraction)]:
        cost = model.split(parts, d).cost
        assert floor <= cost + 1e-12 * ends, model.name
