"""The five solvers side by side on one random instance.

The unrestricted search may weave on and off the original route; the
1-disjoint variants divert exactly once; the disjoint variant shares no
edge with it.  Each solver scores its Pareto frontier of candidates under
the user equilibrium and falls back to "suggest nothing" when that wins.
"""
import random

import saproute as sr
from saproute.solvers import scalar_shortest

rng = random.Random(8)
while True:
    n = rng.randint(8, 12)
    nodes = list(range(n))
    edges = []
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.3:
                edges.append((u, v, sr.CostFn.quadratic(rng.uniform(0.1, 5),
                                                        rng.uniform(0.1, 5))))
    net = sr.Network.build(sr.QUADRATIC, nodes, edges)
    q = scalar_shortest(net, 0, n - 1, 1.0)
    if q is not None and len(q.vertices) >= 3:
        break

route = sr.Route(q, demand=5.0)
model = sr.parse_model("ue")
print(f"instance: {len(net.nodes)} nodes, {len(net.edges)} edges, "
      f"original route {q.vertices} at demand {route.demand}")

one_sp, one_cost = sr.baseline_sp(net, q.source, q.target, route.demand, 1.0)
d_sp, d_cost = sr.baseline_sp(net, q.source, q.target, route.demand, route.demand)
print(f"baselines: everyone on the free-flow shortest path -> {one_cost:.2f}; "
      f"on the loaded shortest path -> {d_cost:.2f}")
print()

runs = [
    ("sap (direct)", sr.solve_sap, "sap", "direct"),
    ("sap (dp)", sr.solve_sap_fc, "sap", "fc"),
    ("1d-sap (phases)", sr.solve_1d_sap, "1d-sap", "direct"),
    ("1d-sap (multi-target)", sr.solve_1d_sap_fc, "1d-sap", "fc"),
    ("d-sap", sr.solve_d_sap, "d-sap", "direct"),
]
print(f"{'solver':<22} {'cost':>10} {'frontier':>9} {'path':<30}")
for label, solver, variant, algo in runs:
    sol = solver(sr.SapInstance(net, route, model, variant, algo))
    print(f"{label:<22} {sol.cost:>10.3f} {sol.frontier_size:>9} "
          f"{str(sol.path.vertices):<30}")

bf = sr.brute_force_all_variants(net, route, model)
print()
print("exhaustive reference:")
for variant in ("sap", "1d-sap", "d-sap"):
    r = bf[variant]
    print(f"  {variant:<8} cost={r.cost:.3f} over {r.candidates} candidates")
