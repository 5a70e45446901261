"""The single-alternative-path solver family.

Five solvers share one contract: generate a Pareto frontier of candidate
alternatives for the instance's variant, inject the original route Q as the
"suggest nothing" candidate, and score the set under the instance's
psychological model.

* ``solve_sap``        -- one 3-criteria search over the full network.
* ``solve_1d_sap``     -- 3-criteria search over the network's Q-banned
                          adjacency plus Q's prefix and suffix states, whose
                          paths are exactly the single-diversion alternatives
                          (Q-edge prefix, Q-edge-free middle, Q-edge suffix).
* ``solve_d_sap``      -- 2-criteria search with Q's edges removed: the
                          detour search from Q's first vertex to its last.
* ``solve_1d_sap_fc``  -- per-divergence-point multi-target 2-criteria
                          searches, detours re-augmented with Q's ends.
* ``solve_sap_fc``     -- dynamic program combining the same detour sets with
                          reduced joins/unions under 3 criteria.

Every solver hands ``score`` its frontier as the searches' records
(``dominance.label_path``'s form); the fewer-criteria solvers carry
detours and dynamic-program levels as the same records.

Variants are edge-based: "d-sap" alternatives share no edge with Q,
"1d-sap" alternatives have a contiguous non-Q segment (they may pass
through Q's vertices without using its edges).
"""
from __future__ import annotations

import gc
import mmap
import multiprocessing as _mp
import os
import pickle
import signal
from dataclasses import dataclass
from math import isfinite
from operator import itemgetter

from .dominance import label_path, pareto_sweep, reduced_join_union
from .dominance import simple_cull  # noqa: F401  (perfbench's tests read it here)
from .mcsp import _astar_bound, _search, dijkstra, search_adjacency
from .network import (QUADRATIC, CostFn, Network, NetworkError, Path, Route, demand_power,
                      eval_cost)
from .psychmodels import score

VARIANTS = ("sap", "1d-sap", "d-sap")
ALGORITHMS = ("direct", "fc")


@dataclass(frozen=True)
class SapInstance:
    net: Network
    route: Route
    model: object
    variant: str = "sap"
    algorithm: str = "direct"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise NetworkError(f"unknown variant {self.variant!r}")
        if self.algorithm not in ALGORITHMS:
            raise NetworkError(f"unknown algorithm {self.algorithm!r}")
        q = self.route.path
        if len(q.vertices) < 2:
            raise NetworkError("original route needs at least two vertices")
        if not q.is_simple():
            raise NetworkError("original route repeats a vertex")
        net, d = self.net, self.route.demand
        if len(q.edge_ids) != len(q.vertices) - 1:
            raise NetworkError("original route needs one edge per pair of vertices")
        for e, u, v in zip(q.edge_ids, q.vertices, q.vertices[1:]):
            if not 0 <= e < len(net.tails):
                raise NetworkError(f"original route's edge {e!r} is not in the network")
            if (net.tails[e], net.heads[e]) != (u, v):
                raise NetworkError(f"original route's edge {e} does not run {u!r}->{v!r}")
        # at least d * tau_P(d) for every simple path P: no cost overflows
        if not isfinite(d * (sum(net.slopes) * demand_power(net.mode, d) + sum(net.bases))):
            raise NetworkError(f"demand d={d} overflows the network's total cost d * tau(d)")


@dataclass(frozen=True)
class Solution:
    """A solve's answer.  ``no_alternative``: Q was the only candidate, so
    ``path`` is Q.  ``frontier_size``: the distinct paths the solver handed
    to scoring, before Q was added."""
    path: Path
    x: float
    cost: float
    per_agent_alt: float
    per_agent_orig: float
    no_alternative: bool
    baseline_one_sp: float
    baseline_d_sp: float
    cost_all_on_orig: float
    frontier_size: int

    def key(self):
        """Everything that must be identical across runs and thread counts."""
        return (self.path, self.x, self.cost, self.per_agent_alt,
                self.per_agent_orig, self.no_alternative,
                self.baseline_one_sp, self.baseline_d_sp,
                self.cost_all_on_orig, self.frontier_size)


def scalar_shortest(net: Network, s, t, flow: float) -> Path | None:
    """Deterministic Dijkstra under edge weight tau_e(flow)."""
    if not (net.has_node(s) and net.has_node(t)):
        raise NetworkError("unknown endpoint")
    if flow < 0:
        raise NetworkError(f"flow x={flow} must be >= 0")
    # eval_cost's float operations
    if net.mode == QUADRATIC:
        weights = [slope * flow * flow + base for slope, base in zip(net.slopes, net.bases)]
    else:
        weights = [slope * flow + base for slope, base in zip(net.slopes, net.bases)]
    found = dijkstra(net, net.out, net.index[s], weights, target=net.index[t])[1]
    return None if found is None else Path(*found)


def baseline_sp(net: Network, s, t, d: float, load: float) -> tuple[Path, float]:
    """Shortest path assuming a flow of ``load`` on every edge; the reported
    cost routes the full demand d over it.

    The path and its cost function are computed once per (s, t, load) and
    network, and reused by every later solve on it.
    """
    key = (s, t, load)
    found = net._baselines.get(key)
    if found is None:
        path = scalar_shortest(net, s, t, load)
        found = (path, None if path is None else path.cost_fn(net))
        net._baselines[key] = found
    path, cost = found
    if path is None:
        raise NetworkError(f"no path {s!r} -> {t!r}")
    return path, d * eval_cost(cost, d)


def _assemble(inst: SapInstance, frontier: list[tuple]) -> Solution:
    """Score the frontier with Q added as the "suggest nothing" candidate;
    there is no alternative when Q is then the only candidate."""
    net, q, d = inst.net, inst.route.path, inst.route.demand
    candidates: dict = {}
    for rec in frontier:
        candidates.setdefault(rec[:2], rec)
    frontier_size = len(candidates)
    q_rec = label_path(net, q.vertices, q.edge_ids, frozenset(q.edge_ids), d, 3)
    candidates.setdefault(q_rec[:2], q_rec)
    q_cost = CostFn(net.mode, q_rec[2], q_rec[3])
    best, split = score(candidates.values(), q_cost, d, inst.model)

    _, one_sp_cost = baseline_sp(net, q.source, q.target, d, 1.0)
    _, d_sp_cost = baseline_sp(net, q.source, q.target, d, d)
    return Solution(
        path=Path(best[0], best[1]),
        x=split.x,
        cost=split.cost,
        per_agent_alt=split.per_agent_alt,
        per_agent_orig=split.per_agent_orig,
        no_alternative=len(candidates) == 1,
        baseline_one_sp=one_sp_cost,
        baseline_d_sp=d_sp_cost,
        cost_all_on_orig=d * eval_cost(q_cost, d),
        frontier_size=frontier_size,
    )


def solve_sap(inst: SapInstance, threads: int = 1) -> Solution:
    """Unrestricted alternatives: one 3-criteria search, then scoring."""
    q, d = inst.route.path, inst.route.demand
    found = _search(inst.net, q.source, (q.target,), d, 3, frozenset(q.edge_ids))
    return _assemble(inst, found[q.target])


def solve_1d_sap(inst: SapInstance, threads: int = 1) -> Solution:
    """Single-diversion alternatives: one 3-criteria search over Q's phase
    states (``mcsp._phase_states``), whose paths are the network's paths
    with a Q-edge prefix, a Q-edge-free middle and a Q-edge suffix.  The
    simple ones among a reduced set stay reduced."""
    q, d = inst.route.path, inst.route.demand
    found = _search(inst.net, q.source, (q.target,), d, 3, frozenset(q.edge_ids),
                    route=q)[q.target]
    return _assemble(inst, [rec for rec in found if len(set(rec[0])) == len(rec[0])])


def solve_d_sap(inst: SapInstance, threads: int = 1) -> Solution:
    """Alternatives sharing no edge with Q; 2 criteria suffice because every
    candidate has an empty intersection with the original route."""
    q, d = inst.route.path, inst.route.demand
    found = _search(inst.net, q.source, (q.target,), d, 2, frozenset(),
                    frozenset(q.edge_ids))[q.target]
    # a path without Q's edges has a zero Q-part and third criterion
    frontier = [(v, e, s, b, qs, qb, vec + (0.0,)) for v, e, s, b, qs, qb, vec in found]
    return _assemble(inst, frontier)


# --- fewer-criteria algorithms ----------------------------------------------

def _allowed_cpus():
    """The CPUs this process may run on, sorted, or None where unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def _pij_task(task, worker):
    """Detour frontiers from one divergence vertex to its targets, searched
    on ``worker`` (network, demand, banned edges): per target, the search's
    records."""
    source, targets = task
    net, d, banned = worker
    found = _search(net, source, targets, d, 2, frozenset(), banned)
    return [found[t] for t in targets]


def _detour_child(tasks, worker, claim, cpu, out_fd, inherited):
    """A forked pool child: pin to ``cpu``, run the tasks it claims, write
    one pickled (ok, [(task index, result)] or exception) and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            if cpu is not None:
                # One worker per CPU.  Left to the scheduler, two workers
                # were seen to share one CPU for the first second of a pool
                # while the other stayed idle, on a 2-vCPU VM.
                os.sched_setaffinity(0, {cpu})
            done = []
            while (k := claim()) < len(tasks):
                done.append((k, _pij_task(tasks[k], worker)))
            reply = (True, done)
        except BaseException as exc:   # re-raised in the parent
            reply = (False, exc)
        try:
            payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = pickle.dumps((False, RuntimeError(f"detour worker failed: {reply[1]!r}")))
        with os.fdopen(out_fd, "wb") as out:
            out.write(payload)
        status = 0 if reply[0] else 1
    finally:
        os._exit(status)


def _read_all(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _run_forked(tasks, worker, workers: int, allowed) -> list:
    """``_pij_task`` over ``tasks`` on ``workers`` workers, in task order:
    this process is worker 0 and forks the other ``workers - 1``.

    Where affinity is supported, worker k runs on ``allowed[k]`` alone, and
    this process gets its own mask back when the pool ends.  With the
    parent left unpinned, criterion 8's 4-thread ``1d-sap``/fc solve ran
    1.22-1.64 times as fast as the 1-thread one in eight runs on a 2-vCPU
    VM, against 1.58-1.67 with the pin.  The workers claim task indices in
    order from one lock-guarded counter in shared memory, so the longest
    searches, which come first, start first.  The parent reads the
    children's results once its own claims are done.  A task that raises
    in the parent, or a child that raises or dies without writing, raises
    here; on any failure the remaining children are killed, and every
    child is reaped.
    """
    counter = mmap.mmap(-1, 4)   # the next unclaimed task index
    lock = _mp.get_context("fork").Lock()

    def claim():
        with lock:
            k = int.from_bytes(counter[:], "little")
            counter[:] = (k + 1).to_bytes(4, "little")
        return k

    pin = allowed is not None and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pin else None
    pids, reads = [], []
    failed = True
    try:
        if pin:
            os.sched_setaffinity(0, {allowed[0]})
        for k in range(1, workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _detour_child(tasks, worker, claim, allowed[k] if pin else None,
                                  w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        results = [None] * len(tasks)
        while (k := claim()) < len(tasks):
            results[k] = _pij_task(tasks[k], worker)
        for pid, r in zip(pids, reads):
            payload = _read_all(r)
            if not payload:
                raise RuntimeError(f"detour worker {pid} exited without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            for k, result in value:
                results[k] = result
        failed = False
        return results
    finally:
        if pin:
            os.sched_setaffinity(0, mask)
        # closed first, so that a child blocked on a full pipe exits
        for r in reads:
            os.close(r)
        for pid in pids:
            if failed:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        counter.close()


def detour_frontiers(net: Network, q: Path, d: float,
                     threads: int = 1) -> dict:
    """Pareto sets of Q-edge-free detours between route positions.

    Returns {(i, j): [record]} for 1 <= i < j <= q: each detour's record
    (vertices, edge ids, slope, base, Q-slope, Q-base, vector) as its
    2-criteria search labels it, in the base network; a detour uses no edge
    of Q, so its Q-sums and third criterion are zero.  One multi-target
    search per divergence vertex, guided by the A* bound to Q's last vertex
    (``mcsp._astar_bound``, computed here if the network keeps none).  The
    searches are independent and run on min(threads, searches, usable CPUs)
    workers when that is more than one: this process and forked children,
    which send the records back as they are.
    """
    q_ids = frozenset(q.edge_ids)
    # kept before forking, as the adjacency is built: the searches and the
    # children share both
    search_adjacency(net, q_ids)
    _astar_bound(net, net.index[q.target])
    tasks = [(q.vertices[i - 1], q.vertices[i:]) for i in range(1, len(q.vertices))]
    worker = (net, d, q_ids)
    workers = min(threads, len(tasks))
    allowed = None
    if workers > 1:  # only a pool asks which CPUs it may use
        allowed = _allowed_cpus()
        workers = min(workers, len(allowed) if allowed else os.cpu_count() or 1)
    if workers > 1:
        # Frozen objects are left out of every collection, so the children
        # do not write to the heap they share with the parent, and the first
        # pooled solve of a process runs no full collection over it.  A
        # caller's own freeze is left as it is.
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            results = _run_forked(tasks, worker, workers, allowed)
        finally:
            if freeze:
                gc.unfreeze()
    else:
        results = [_pij_task(task, worker) for task in tasks]
    return {(i, j): frontier for i, found in enumerate(results, start=1)
            for j, frontier in enumerate(found, start=i + 1)}


def _augmented_candidates(inst: SapInstance, pij: dict) -> list[tuple]:
    """The reduced set of detour records extended by Q's prefix and suffix.

    Each candidate is labelled as ``label_path`` labels its edges: from Q's
    running sums up to the detour, whose q-sums equal them, then adding the
    detour's and the suffix's edges one at a time.  Only the kept ones are
    built, as records.
    """
    net, q, d = inst.net, inst.route.path, inst.route.demand
    slopes, bases = net.slopes, net.bases
    q_costs = [(slopes[eid], bases[eid]) for eid in q.edge_ids]
    prefix = [(0.0, 0.0)]       # (slope, base) after Q's first k edges
    for a, b in q_costs:
        slope, base = prefix[-1]
        prefix.append((slope + a, base + b))
    dk = demand_power(net.mode, d)
    cands = []
    for (i, j), pieces in pij.items():
        q_slope, q_base = prefix[i - 1]
        suffix = q_costs[j - 1:]
        for piece in pieces:
            slope, base = q_slope, q_base
            for eid in piece[1]:
                slope += slopes[eid]
                base += bases[eid]
            qs, qb = q_slope, q_base
            for a, b in suffix:
                slope += a
                base += b
                qs += a
                qb += b
            cands.append(((base, base + slope * dk, qs), slope, qb, i, j, piece))

    def tie_key(cand):
        _, _, _, i, j, piece = cand
        return (q.vertices[:i - 1] + piece[0] + q.vertices[j:],
                q.edge_ids[:i - 1] + piece[1] + q.edge_ids[j - 1:])

    def build(cand):
        vertices, edge_ids = tie_key(cand)
        if len(set(vertices)) != len(vertices):
            return None
        vec, slope, qb = cand[:3]
        return (vertices, edge_ids, slope, vec[0], vec[2], qb, vec)

    return pareto_sweep(cands, itemgetter(0), tie_key, build)


def solve_1d_sap_fc(inst: SapInstance, threads: int = 1) -> Solution:
    pij = detour_frontiers(inst.net, inst.route.path, inst.route.demand,
                           threads)
    return _assemble(inst, _augmented_candidates(inst, pij))


def fc_levels(net: Network, q: Path, d: float, pij: dict) -> list:
    """The dynamic program of ``solve_sap_fc``: level j (1-based) holds the
    reduced set of simple source-to-v_j paths, as records, one reduced join
    over every earlier level with its detour set and over level j-1 with
    Q's next edge."""
    mode, slopes, bases = net.mode, net.slopes, net.bases
    dk = demand_power(mode, d)
    qn = len(q.vertices)
    levels: list[list[tuple]] = [[] for _ in range(qn + 1)]
    levels[1] = [((q.source,), (), 0.0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0))]
    for j in range(2, qn + 1):
        # label_path's sums for Q's edge alone, where 0.0 + a is a
        eid = q.edge_ids[j - 2]
        a, b = slopes[eid], bases[eid]
        step = (q.vertices[j - 2:j], (eid,), a, b, a, b, (b, b + a * dk, a))
        parts = [(levels[i], pij[(i, j)]) for i in range(1, j)]
        parts.append((levels[j - 1], [step]))
        levels[j] = reduced_join_union(parts, mode, d)
    return levels


def solve_sap_fc(inst: SapInstance, threads: int = 1) -> Solution:
    """Dynamic program over Q's positions (``fc_levels``) on the detour sets."""
    net, q, d = inst.net, inst.route.path, inst.route.demand
    pij = detour_frontiers(net, q, d, threads)
    return _assemble(inst, fc_levels(net, q, d, pij)[-1])


_SOLVERS = {
    ("sap", "direct"): solve_sap,
    ("sap", "fc"): solve_sap_fc,
    ("1d-sap", "direct"): solve_1d_sap,
    ("1d-sap", "fc"): solve_1d_sap_fc,
    ("d-sap", "direct"): solve_d_sap,
    ("d-sap", "fc"): solve_d_sap,
}


def solve(inst: SapInstance, threads: int = 1) -> Solution:
    return _SOLVERS[(inst.variant, inst.algorithm)](inst, threads)
