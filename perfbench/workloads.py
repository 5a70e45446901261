"""The three workloads: set-up, one timed pass, and the correctness checks.

Every solve goes through ``saproute.cli.run_report`` (through the ``bench``
command for the sweep), so each latency is the ``wall_time_s`` the program
reports, and ``Session`` keeps the ``Solution`` behind each report so the
checks can compare ``Solution.key()``.

Why these inputs:

* ``corridor`` -- twelve 16x16 grids with a fast corridor (grid seeds
  1-12), each with an original route 10 blocks along it, d=2000 and model
  ``ue``.  Label search and the sap-fc DP do almost all the work, and the
  worker pool runs one solve; per-call overhead is small.  The ROADMAP's 100x100 grid
  (hops=50) takes about 40 s a pass on a 2-vCPU VM, too long to repeat
  within a run.  That VM often runs at a slow level with fast spells of
  20-90 ms, and a solve's best time reaches the fast level only if the
  solve fits in one; so the corridor is 61 solves of 2-25 ms a pass, not a
  few long ones.
* ``sweep`` -- the 10x10 demand sweep of the ROADMAP through
  ``saproute bench``: 140 solves of 1-20 ms on one network, so per-solve
  fixed costs (baselines, graph rebuilds, scoring, the report) dominate.
  One ``bench`` call per algorithm and model sweeps the seven demands, so
  that each call, whose time ``solves_per_s`` uses, is short too.
  BENCHMARK.json leaves the sweep out (see perfbench/README.md): on a
  disturbed host its figures spread past their bound.
* ``corpus`` -- 500 random digraphs drawn from the run seed with the
  acceptance suite's distribution; 2500 sub-millisecond solves, each
  network used five times, checked against the brute-force oracle.

The grids are fixed (grid seeds 1-12 on the corridor, 1 on the sweep),
because their random edge lengths set the Pareto frontier size and with it
the work: on the 100x100 grid, seeds 1-6 give frontiers of 111-155 paths
and 12.7-23.2 s for ``sap``/fc.  On the grids the run seed orders the
solves (corridor) or the demands and models on the command line (sweep).

Only the corridor runs ``1d-sap``/fc at two threads, and only on its first
grid.  On small networks the pool is nearly all start-up: forking two
workers and waking the second vCPU, whose cost on a shared 2-vCPU VM moves
between runs by twice as much as anything else, and which slowed every
other solve of a pass that ran it on each grid.
"""
from __future__ import annotations

import gc
import io
import json
import random
import time
from dataclasses import dataclass

import saproute as sr
from saproute import cli
from saproute.network import format_network, format_route
from saproute.oracle import variant_feasible
from saproute.synthetic import corridor_instance

FORMS = (("sap", "direct"), ("sap", "fc"), ("1d-sap", "direct"),
         ("1d-sap", "fc"), ("d-sap", "direct"))
LOOSER = {"1d-sap": "sap", "d-sap": "1d-sap"}   # variant whose optimum is <=
GRID_SEED = 1       # the sweep's grid
SWEEP_MODELS = ("so", "ue", "linear:1", "quotient:tanh:2")
CORPUS_DEMANDS = (1.0, 2.0, 5.0, 10.0)
CORPUS_MODELS = ("ue", "so", "linear:1", "linear:0.5")
AGREE_TOL = 1e-9    # criterion 2: direct and fc costs
ORACLE_TOL = 1e-6   # criterion 1: solver against brute force


@dataclass(frozen=True)
class Sizes:
    grid: int = 16
    hops: int = 10
    grid_seeds: tuple = tuple(range(1, 13))
    demand: float = 2000.0
    sweep_grid: int = 10
    sweep_demands: tuple = (100.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    corpus: int = 500


FULL = Sizes()
SMALL = Sizes(grid=12, hops=6, grid_seeds=(1, 2), demand=300.0, sweep_grid=5,
              sweep_demands=(100.0, 1000.0), corpus=24)


@dataclass
class Solve:
    tag: object          # the instance: grid seed, (demand, model) or corpus index
    variant: str
    algorithm: str
    threads: int
    wall_s: float = 0.0   # the report's wall_time_s
    call_s: float = 0.0   # the whole call, CLI and report included
    solution: object = None
    error: str | None = None


class Session:
    """Routes the CLI's ``solve`` through a shim that keeps each Solution."""

    def __init__(self):
        self.kept: list = []
        self._solve = None

    def __enter__(self):
        self._solve = inner = cli.solve

        def solve_and_keep(inst, threads=1):
            sol = inner(inst, threads)
            self.kept.append(sol)
            return sol

        cli.solve = solve_and_keep
        return self

    def __exit__(self, *exc):
        cli.solve = self._solve

    def report(self, net, route, model, variant, algorithm, threads, tag) -> Solve:
        solve = Solve(tag, variant, algorithm, threads)
        self.kept.clear()
        started = time.perf_counter()
        try:
            rep_doc = cli.run_report(net, route, variant, algorithm, model,
                                     threads, str(tag), str(tag))
        except Exception as exc:  # a failed solve is counted, not fatal
            solve.error = f"{type(exc).__name__}: {exc}"
            return solve
        solve.call_s = time.perf_counter() - started
        solve.wall_s = rep_doc["wall_time_s"]
        solve.solution = self.kept[-1]
        return solve

    def bench(self, argv, expected) -> list[Solve]:
        """One ``saproute bench`` call; ``expected`` lists the (demand,
        model, variant, algorithm) runs it must report, in its order.  The
        call's seconds are shared evenly among its solves."""
        self.kept.clear()
        out = io.StringIO()
        started = time.perf_counter()
        try:
            code = cli.main(argv, out=out)
            runs = json.loads(out.getvalue())["runs"] if code == 0 else []
            error = None if code == 0 else f"bench exited with code {code}"
        except Exception as exc:
            runs, error = [], f"{type(exc).__name__}: {exc}"
        call_s = (time.perf_counter() - started) / len(expected)
        if error is None and len(runs) != len(expected):
            error = f"bench reported {len(runs)} runs, expected {len(expected)}"
        solves = []
        for k, (demand, model, variant, algorithm) in enumerate(expected):
            solve = Solve((demand, model), variant, algorithm, 1)
            if error is not None:
                solve.error = error
            else:
                run = runs[k]
                got = (run["demand"], run["model"], run["variant"], run["algorithm"])
                if got != (demand, model, variant, algorithm):
                    solve.error = f"bench run {k} is {got}"
                solve.wall_s = run["wall_time_s"]
                solve.call_s = call_s
                solve.solution = self.kept[k]
            solves.append(solve)
        return solves


# --- corridor ----------------------------------------------------------------

def setup_corridor(seed, sizes, out_dir) -> list:
    """The solves of a pass: (grid seed, network, route, model, variant,
    algorithm, threads), in an order drawn from the run seed."""
    model = sr.parse_model("ue")
    plan = []
    for grid_seed in sizes.grid_seeds:
        net, route = corridor_instance(sizes.grid, sizes.grid, sizes.demand,
                                       grid_seed, hops=sizes.hops)
        forms = [(variant, algorithm, 1) for variant, algorithm in FORMS]
        if grid_seed == sizes.grid_seeds[0]:
            forms.append(("1d-sap", "fc", 2))
        plan.extend((grid_seed, net, route, model) + form for form in forms)
    random.Random(seed).shuffle(plan)
    return plan


def pass_corridor(session, plan) -> list[Solve]:
    solves = []
    for grid_seed, net, route, model, variant, algorithm, threads in plan:
        solves.append(session.report(net, route, model, variant, algorithm,
                                     threads, grid_seed))
        if threads > 1:
            # a forked pool leaves the heap's pages copy-on-write; the page
            # faults are taken here, not in the solve the seed put next
            gc.collect()
    return solves


# --- sweep -------------------------------------------------------------------

def setup_sweep(seed, sizes, out_dir) -> list:
    """The ``bench`` calls of a pass, one per algorithm and model:
    (argv, expected runs)."""
    net, route = corridor_instance(sizes.sweep_grid, sizes.sweep_grid,
                                   sizes.sweep_demands[0], GRID_SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    net_file = out_dir / "sweep.net"
    route_file = out_dir / "sweep.route"
    net_file.write_text(format_network(net))
    route_file.write_text(format_route(route))
    rng = random.Random(seed)
    demands = list(sizes.sweep_demands)
    models = list(SWEEP_MODELS)
    rng.shuffle(demands)
    rng.shuffle(models)
    calls = []
    for variants, algorithm in ((("sap", "1d-sap", "d-sap"), "direct"),
                                (("sap", "1d-sap"), "fc")):
        for model in models:
            argv = ["bench", "--network", str(net_file), "--route", str(route_file),
                    "--demands", ",".join(repr(d) for d in demands),
                    "--models", model,
                    "--variants", ",".join(variants), "--algo", algorithm]
            expected = [(d, model, v, algorithm) for d in demands for v in variants]
            calls.append((argv, expected))
    return calls


def pass_sweep(session, calls) -> list[Solve]:
    solves = []
    for argv, expected in calls:
        solves.extend(session.bench(argv, expected))
    return solves


# --- corpus ------------------------------------------------------------------

def random_instance(rng, demand):
    """A 5-12 node digraph of density 0.3 with random quadratic costs and the
    single-agent shortest path from node 0 to the last node as the route
    (the acceptance suite's corpus distribution)."""
    while True:
        n = rng.randint(5, 12)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    edges.append((u, v, sr.CostFn.quadratic(rng.uniform(0.1, 5.0),
                                                            rng.uniform(0.1, 5.0))))
        if not edges:
            continue
        net = sr.Network.build(sr.QUADRATIC, range(n), edges)
        try:
            q, _ = sr.baseline_sp(net, 0, n - 1, demand, 1.0)
        except sr.NetworkError:  # node n-1 unreachable: draw again
            continue
        return net, sr.Route(q, demand)


def setup_corpus(seed, sizes, out_dir) -> list:
    """(network, route, model) per instance."""
    rng = random.Random(seed)
    instances = []
    for k in range(sizes.corpus):
        net, route = random_instance(rng, CORPUS_DEMANDS[k % 4])
        instances.append((net, route, sr.parse_model(CORPUS_MODELS[(k // 4) % 4])))
    return instances


def pass_corpus(session, instances) -> list[Solve]:
    solves = []
    for k, (net, route, model) in enumerate(instances):
        for variant, algorithm in FORMS:
            solves.append(session.report(net, route, model, variant, algorithm, 1, k))
    return solves


def corpus_oracle(instances) -> dict:
    return {k: sr.brute_force_all_variants(net, route, model)
            for k, (net, route, model) in enumerate(instances)}


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    oracle: object = None


WORKLOADS = {
    "corridor": Workload(setup_corridor, pass_corridor),
    "sweep": Workload(setup_sweep, pass_sweep),
    "corpus": Workload(setup_corpus, pass_corpus, corpus_oracle),
}


# --- checks ------------------------------------------------------------------

def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _at_most(a, b):
    return a <= b + AGREE_TOL * max(1.0, abs(a), abs(b))


def check_pass(solves, instances=None, oracle=None) -> list:
    """One failure message or None per solve; ``oracle`` maps a corpus
    index to the brute-force results for ``instances[index]``.

    Per instance: the two-thread run reproduces ``Solution.key()``,
    direct and fc costs agree to 1e-9, optima nest (sap <= 1d-sap <= d-sap
    <= all on the original route), and with an oracle every cost matches
    brute force to 1e-6 on a path the variant allows.
    """
    fails = [s.error for s in solves]
    groups: dict = {}
    for i, s in enumerate(solves):
        if s.error is None:
            groups.setdefault(s.tag, []).append(i)
    for tag, members in groups.items():
        ref = {}
        for i in members:
            s = solves[i]
            if s.threads == 1:
                ref.setdefault((s.variant, s.algorithm), s.solution)
        best = {}
        for (variant, _), sol in ref.items():
            best[variant] = min(best.get(variant, sol.cost), sol.cost)
        for i in members:
            s, sol = solves[i], solves[i].solution
            problems = []
            if sol.key() != ref.get((s.variant, s.algorithm), sol).key():
                problems.append("Solution.key() differs from the first threads=1 solve")
            direct = ref.get((s.variant, "direct"))
            if direct is not None and not _close(sol.cost, direct.cost, AGREE_TOL):
                problems.append(f"cost {sol.cost!r} != direct {direct.cost!r}")
            looser = LOOSER.get(s.variant)
            if looser in best and not _at_most(best[looser], sol.cost):
                problems.append(f"{looser} optimum {best[looser]!r} above {sol.cost!r}")
            if not _at_most(sol.cost, sol.cost_all_on_orig):
                problems.append(f"cost {sol.cost!r} above all-on-original")
            if oracle is not None:
                want = oracle[tag][s.variant].cost
                if not _close(sol.cost, want, ORACLE_TOL):
                    problems.append(f"cost {sol.cost!r} != oracle {want!r}")
                q = instances[tag][1].path
                if sol.path != q and not variant_feasible(
                        s.variant, sol.path, frozenset(q.edge_ids)):
                    problems.append("path not allowed by the variant")
            if problems and fails[i] is None:
                fails[i] = (f"{tag} {s.variant}/{s.algorithm} t{s.threads}: "
                            + "; ".join(problems))
    return fails
