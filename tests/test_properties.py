"""Property tests: all five solvers agree with the brute-force oracle.

The inputs are tie-heavy networks (small integer coefficients, parallel
edges, zero-base affine edges) in both cost modes, with a random simple
route.  Hypothesis runs derandomized, so every run draws the same examples.
"""
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import saproute as sr  # noqa: E402
from saproute.oracle import enumerate_simple_paths, variant_feasible  # noqa: E402

from conftest import SOLVERS, tie_heavy_network  # noqa: E402


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
