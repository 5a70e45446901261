"""The single-alternative-path solver family.

Five solvers share one contract: generate a Pareto frontier of candidate
alternatives for the instance's variant, inject the original route Q as the
"suggest nothing" candidate, and score the set under the instance's
psychological model.

* ``solve_sap``        -- one 3-criteria search over the full network.
* ``solve_1d_sap``     -- 3-criteria search on a phase-expanded copy of the
                          network whose paths are exactly the single-diversion
                          alternatives (Q-edge prefix, Q-edge-free middle,
                          Q-edge suffix).
* ``solve_d_sap``      -- 2-criteria search with Q's edges removed.
* ``solve_1d_sap_fc``  -- per-divergence-point multi-target 2-criteria
                          searches, detours re-augmented with Q's ends.
* ``solve_sap_fc``     -- dynamic program combining the same detour sets with
                          reduced joins/unions under 3 criteria.

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
from dataclasses import dataclass, replace
from math import isfinite
from operator import itemgetter

from .dominance import LabeledPath, label_path, pareto_sweep, reduced_join_union
from .dominance import simple_cull  # noqa: F401  (perfbench's tests read it here)
from .mcsp import dijkstra, mc_multi_target, mc_shortest, search_adjacency
from .network import (QUADRATIC, CostFn, Network, NetworkError, Path, Route,
                      demand_power, eval_cost)
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
        # at least d * tau_P(d) for every simple path P: no cost overflows
        net, d = self.net, self.route.demand
        if not isfinite(d * (sum(net.slopes) * demand_power(net.mode, d) + sum(net.bases))):
            raise NetworkError(f"demand d={d} overflows the network's total cost d * tau(d)")


@dataclass(frozen=True)
class Solution:
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


def _assemble(inst: SapInstance, frontier: list[LabeledPath],
              no_alternative: bool) -> Solution:
    net, q, d = inst.net, inst.route.path, inst.route.demand
    q_ids = frozenset(q.edge_ids)
    q_cost = q.cost_fn(net)
    candidates: dict = {}
    for lp in frontier:
        candidates.setdefault(lp.tie_key(), lp)
    q_lab = label_path(net, q.vertices, q.edge_ids, q_ids, d, 3)
    candidates.setdefault(q_lab.tie_key(), q_lab)
    best, split = score(candidates.values(), q_cost, d, inst.model)

    _, one_sp_cost = baseline_sp(net, q.source, q.target, d, 1.0)
    _, d_sp_cost = baseline_sp(net, q.source, q.target, d, d)
    return Solution(
        path=Path(best.vertices, best.edge_ids),
        x=split.x,
        cost=split.cost,
        per_agent_alt=split.per_agent_alt,
        per_agent_orig=split.per_agent_orig,
        no_alternative=no_alternative,
        baseline_one_sp=one_sp_cost,
        baseline_d_sp=d_sp_cost,
        cost_all_on_orig=d * eval_cost(q_cost, d),
        frontier_size=len(frontier),
    )


def solve_sap(inst: SapInstance, threads: int = 1) -> Solution:
    """Unrestricted alternatives: one 3-criteria search, then scoring."""
    q, d = inst.route.path, inst.route.demand
    q_ids = frozenset(q.edge_ids)
    frontier = mc_shortest(inst.net, q.source, q.target, d, 3, q_ids)
    return _assemble(inst, frontier, False)


# --- 1-disjoint via graph transformation ------------------------------------

@dataclass(frozen=True)
class Transform1D:
    """Phase-expanded network for single-diversion alternatives.

    Nodes are ("pre", i) while still on Q's edge prefix, ("mid", v) during
    the Q-edge-free middle, ("post", j) on Q's edge suffix, with all
    terminal states merged into ("tgt",).  Every simple source-target path
    of ``net`` maps (via orig_edge) to a 1-disjoint path of the base network
    with the identical cost function, and vice versa: phase edge k copies
    base edge ``orig_edge[k]``.
    """

    net: Network
    source: object
    target: object
    orig_edge: tuple[int, ...]
    q_edge_ids: frozenset


def transform_1d(net: Network, q: Path) -> Transform1D:
    if len(q.vertices) < 2:
        raise NetworkError("route needs at least two vertices")
    if not q.is_simple():
        raise NetworkError("route repeats a vertex")
    qn = len(q.vertices)
    t = q.target
    q_pos = {eid: k + 1 for k, eid in enumerate(q.edge_ids)}  # 1-based position
    on_q = {v: i + 1 for i, v in enumerate(q.vertices)}

    # node numbers: pre 1..qn-1, then mid v for v != t in network order,
    # then post 2..qn-1, then the target; pre qn, mid t and post qn are it
    target = ("tgt",)
    nodes = [("pre", i) for i in range(1, qn)]
    mid = {}
    for v in net.nodes:
        if v != t:
            mid[v] = len(nodes)
            nodes.append(("mid", v))
    post0 = len(nodes) - 2          # post j is node post0 + j
    nodes += [("post", j) for j in range(2, qn)]
    tgt = len(nodes)
    nodes.append(target)
    mid[t] = tgt

    def pre(i):
        return i - 1 if i < qn else tgt

    # the phase graph is written straight into a Network's arrays: its
    # edges are valid because the base network's are
    out: list[list] = [[] for _ in nodes]
    rev: list[list] = [[] for _ in nodes]
    tails, heads, slopes, bases = [], [], [], []
    orig_edge = []   # base edge per phase edge
    base_slopes, base_bases = net.slopes, net.bases

    def emit(ti, hi, e):
        k = len(orig_edge)
        a, b = base_slopes[e], base_bases[e]
        out[ti].append((hi, k, b, a))
        rev[hi].append((ti, k, a, b))
        tails.append(nodes[ti])
        heads.append(nodes[hi])
        slopes.append(a)
        bases.append(b)
        orig_edge.append(e)

    for e, (tail, head) in enumerate(zip(net.tails, net.heads)):
        pos = q_pos.get(e)
        if pos is not None:
            emit(pre(pos), pre(pos + 1), e)                # stay on prefix
            emit(mid[tail], post0 + pos + 1, e)            # enter suffix
            if pos >= 2:
                emit(post0 + pos, post0 + pos + 1, e)      # stay on suffix
        else:
            if tail != t:
                emit(mid[tail], mid[head], e)
            i = on_q.get(tail)
            if i is not None and i < qn:
                emit(pre(i), mid[head], e)                 # divert here
    phase = Network(net.mode, tuple(nodes), tuple(tails), tuple(heads), tuple(slopes),
                    tuple(bases), {v: i for i, v in enumerate(nodes)}, out, rev)
    return Transform1D(phase, nodes[pre(1)], target, tuple(orig_edge),
                       frozenset(k for k, i in enumerate(orig_edge) if i in q_pos))


def solve_1d_sap(inst: SapInstance, threads: int = 1) -> Solution:
    net, q, d = inst.net, inst.route.path, inst.route.demand
    tr = transform_1d(net, q)
    # a phase path's sums are its base path's, added in the same order, so
    # its label is kept; the simple ones among a reduced set stay reduced
    mapped = []
    for lp in mc_shortest(tr.net, tr.source, tr.target, d, 3, tr.q_edge_ids):
        path = Path.from_edges(net, (tr.orig_edge[eid] for eid in lp.edge_ids))
        if path.is_simple():
            mapped.append(replace(lp, vertices=path.vertices, edge_ids=path.edge_ids))
    return _assemble(inst, mapped, False)


def solve_d_sap(inst: SapInstance, threads: int = 1) -> Solution:
    """Alternatives sharing no edge with Q; 2 criteria suffice because every
    candidate has an empty intersection with the original route."""
    q, d = inst.route.path, inst.route.demand
    frontier2 = mc_shortest(inst.net, q.source, q.target, d, 2,
                            banned=frozenset(q.edge_ids))
    # a path without Q's edges has a zero Q-part and third criterion
    mapped = [replace(lp, vector=lp.vector + (0.0,)) for lp in frontier2]
    return _assemble(inst, mapped, not mapped)


# --- fewer-criteria algorithms ----------------------------------------------

def _allowed_cpus():
    """The CPUs this process may run on, sorted, or None where unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def _pij_task(task, worker):
    """Detour frontiers from one divergence vertex, searched on ``worker``
    (network, demand, banned edges): per target, each path's edge ids,
    summed slope and base, and vector (the caller rebuilds the rest)."""
    source, targets = task
    net, d, banned = worker
    result = mc_multi_target(net, source, targets, d, 2, banned=banned)
    return [[(lp.edge_ids, lp.cost.slope, lp.cost.base, lp.vector) for lp in result[t]]
            for t in targets]


def _detour_child(tasks, worker, claim, cpu, out_fd, inherited):
    """A forked pool child: pin to ``cpu``, run the tasks it claims, write
    one pickled (ok, [(task index, result)] or exception) and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            if cpu is not None:
                # One child per CPU.  Left to the scheduler, two workers
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
    """``_pij_task`` over ``tasks`` on ``workers`` forked children, in task
    order; the parent runs none.

    Child k pins itself to ``allowed[k]`` where affinity is supported.  The
    children claim task indices in order from one lock-guarded counter in
    shared memory, so the longest searches, which come first, start first.
    A child that raises, or dies without writing, raises here; on any
    failure the remaining children are killed, and every child is reaped.
    """
    counter = mmap.mmap(-1, 4)   # the next unclaimed task index
    lock = _mp.get_context("fork").Lock()

    def claim():
        with lock:
            k = int.from_bytes(counter[:], "little")
            counter[:] = (k + 1).to_bytes(4, "little")
        return k

    pin = allowed is not None and hasattr(os, "sched_setaffinity")
    pids, reads = [], []
    failed = True
    try:
        for k in range(workers):
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

    Returns {(i, j): [LabeledPath]} for 1 <= i < j <= q, labeled in the base
    network with 3 criteria (their third component is identically zero).
    One multi-target search per divergence vertex; searches are independent
    and run on min(threads, searches, usable CPUs) forked children when
    that is more than one.
    """
    q_ids = frozenset(q.edge_ids)
    qn = len(q.vertices)
    tasks = []
    for i in range(1, qn):
        targets = tuple(q.vertices[j - 1] for j in range(i + 1, qn + 1))
        tasks.append((q.vertices[i - 1], targets))

    # built before forking: the searches and the children share it
    search_adjacency(net, q_ids)
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
            raw_results = _run_forked(tasks, worker, workers, allowed)
        finally:
            if freeze:
                gc.unfreeze()
    else:
        raw_results = [_pij_task(task, worker) for task in tasks]

    # a detour uses no edge of Q, so its Q-part and third criterion are
    # zero; its cost and vector are the ones the search labelled it with
    mode = net.mode
    no_q = CostFn.zero(mode)
    heads = net.heads
    out = {}
    for i, raw in enumerate(raw_results, start=1):
        source = q.vertices[i - 1]
        for j, frontier in enumerate(raw, start=i + 1):
            out[(i, j)] = [
                LabeledPath((source,) + tuple(heads[e] for e in edges), edges,
                            CostFn(mode, slope, base), no_q, vector + (0.0,))
                for edges, slope, base, vector in frontier
            ]
    return out


def _augmented_candidates(inst: SapInstance, pij: dict) -> list[LabeledPath]:
    """The reduced set of detours extended by Q's prefix and suffix.

    Each candidate is labelled as ``label_path`` labels its edges: from Q's
    running sums up to the detour, whose q-sums equal them, then adding the
    detour's and the suffix's edges one at a time.  Only the kept ones are
    built.
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
            for eid in piece.edge_ids:
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
        return (q.vertices[:i - 1] + piece.vertices + q.vertices[j:],
                q.edge_ids[:i - 1] + piece.edge_ids + q.edge_ids[j - 1:])

    def build(cand):
        vertices, edge_ids = tie_key(cand)
        if len(set(vertices)) != len(vertices):
            return None
        vec, slope, qb = cand[:3]
        return LabeledPath(vertices, edge_ids, CostFn(net.mode, slope, vec[0]),
                           CostFn(net.mode, vec[2], qb), vec)

    return pareto_sweep(cands, itemgetter(0), tie_key, build)


def solve_1d_sap_fc(inst: SapInstance, threads: int = 1) -> Solution:
    pij = detour_frontiers(inst.net, inst.route.path, inst.route.demand,
                           threads)
    return _assemble(inst, _augmented_candidates(inst, pij), False)


def fc_levels(net: Network, q: Path, d: float, pij: dict) -> list:
    """The dynamic program of ``solve_sap_fc``: level j (1-based) holds the
    reduced set of simple source-to-v_j paths, one reduced join over every
    earlier level with its detour set and over level j-1 with Q's next edge."""
    q_ids = frozenset(q.edge_ids)
    qn = len(q.vertices)
    levels: list[list[LabeledPath]] = [[] for _ in range(qn + 1)]
    levels[1] = [label_path(net, (q.source,), (), q_ids, d, 3)]
    for j in range(2, qn + 1):
        step = label_path(net, q.vertices[j - 2:j], (q.edge_ids[j - 2],),
                          q_ids, d, 3)
        parts = [(levels[i], pij[(i, j)]) for i in range(1, j)]
        parts.append((levels[j - 1], [step]))
        levels[j] = reduced_join_union(parts, d, 3)
    return levels


def solve_sap_fc(inst: SapInstance, threads: int = 1) -> Solution:
    """Dynamic program over Q's positions (``fc_levels``) on the detour sets."""
    net, q, d = inst.net, inst.route.path, inst.route.demand
    pij = detour_frontiers(net, q, d, threads)
    return _assemble(inst, fc_levels(net, q, d, pij)[len(q.vertices)], False)


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
