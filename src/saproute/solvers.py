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

import _thread
import gc
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from math import isfinite
from operator import itemgetter

from .dominance import _itself, label_path, pareto_sweep, reduced_join_union
from .dominance import simple_cull  # noqa: F401  (perfbench's tests read it here)
from .mcsp import _ROUNDING, _astar_bound, _search, dijkstra, search_adjacency
from .network import (QUADRATIC, CostFn, Network, NetworkError, Path, Route, check_demand,
                      check_flow, demand_power, eval_cost)
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
    check_flow(flow)
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
    check_demand(d)
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
    on ``worker`` (network, demand, banned edges) with the task's seed
    (``mcsp._two_criteria_loop``'s, or None): per target, the search's
    records."""
    source, targets, seed = task
    net, d, banned = worker
    found = _search(net, source, targets, d, 2, frozenset(), banned, seed=seed)
    return [found[t] for t in targets]


def _run_claims(tasks, worker, finish, claim):
    """One pool worker's loop: run ``_pij_task`` on each task index that
    ``claim`` hands out until the tasks run out, and return ``finish`` of
    the (task index, result) pairs."""
    done = []
    while (k := claim()) < len(tasks):
        done.append((k, _pij_task(tasks[k], worker)))
    return finish(done)


def _detour_child(tasks, worker, finish, claim, cpu, out_fd, inherited):
    """A forked pool child: pin to ``cpu``, run ``_run_claims``, write one
    pickled (ok, its result or exception) and exit."""
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
            reply = (True, _run_claims(tasks, worker, finish, claim))
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


def _reap(pid):
    """Wait for a child that has sent its result.  Its exit, which unmaps
    its copy of the parent's address space, took 1.3-3.1 ms of criterion
    8's 4-thread solve in the full test suite's process, so it is waited
    for on a thread of its own while the solve goes on."""
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:   # the caller's own wait took it first
        pass


def _read_all(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _run_forked(tasks, worker, workers: int, allowed, finish) -> list:
    """``_pij_task`` over ``tasks`` on ``workers`` workers: this process is
    worker 0 and forks the other ``workers - 1``.  Each worker hands
    ``finish`` the (task index, result) pairs of the tasks it ran, and the
    call returns the ``finish`` results, this process's first.

    Where affinity is supported, worker k runs on ``allowed[k]`` alone, and
    this process gets its own mask back when the pool ends.  With the
    parent left unpinned, criterion 8's 4-thread ``1d-sap``/fc solve ran
    1.22-1.64 times as fast as the 1-thread one in eight runs on a 2-vCPU
    VM, against 1.58-1.67 with the pin.  The parent pins itself only once
    its children are forked: a child inherits the mask it is forked with,
    and one forked onto the parent's CPU alone waited for the parent to be
    preempted before it could move to its own.

    The workers claim task indices in order, so the longest searches,
    which come first, start first.  The next unclaimed index is the one
    4-byte message of a pipe that every worker shares: a claim reads it,
    which leaves the others blocked on an empty pipe, and writes the next
    one back.  This needs no import and no lock object; a
    ``multiprocessing`` lock took 5 ms to make in a process's first pool,
    where the whole 4-thread solve takes about 50 ms.  The parent finishes
    its own results once its claims are done, and then reads the
    children's.  A task that raises in the parent, or a child that raises
    or dies without writing, raises here; on any failure the remaining
    children are killed and reaped before it does.  A child that sent its
    result is reaped by ``_reap``.
    """
    pin = allowed is not None and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pin else None
    pids, reads, counter = [], [], ()
    failed = True
    try:
        counter = os.pipe()
        os.write(counter[1], (0).to_bytes(4, "little"))

        def claim():
            k = int.from_bytes(os.read(counter[0], 4), "little")
            os.write(counter[1], (k + 1).to_bytes(4, "little"))
            return k

        for k in range(1, workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _detour_child(tasks, worker, finish, claim,
                                  allowed[k] if pin else None, w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        if pin:
            os.sched_setaffinity(0, {allowed[0]})
        results = [_run_claims(tasks, worker, finish, claim)]
        for pid, r in zip(pids, reads):
            payload = _read_all(r)
            if not payload:
                raise RuntimeError(f"detour worker {pid} exited without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
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
            else:
                _thread.start_new_thread(_reap, (pid,))
        for fd in counter:
            os.close(fd)


def detour_frontiers(net: Network, q: Path, d: float,
                     threads: int = 1, prefix=None, finish=None):
    """Pareto sets of Q-edge-free detours between route positions.

    Returns {(i, j): [record]} for 1 <= i < j <= q: each detour's record
    (vertices, edge ids, slope, base, Q-slope, Q-base, vector) as its
    2-criteria search labels it, in the base network; a detour uses no edge
    of Q, so its Q-sums and third criterion are zero.  One multi-target
    search per divergence vertex, guided by the A* bound to Q's last vertex
    (``mcsp._astar_bound``, computed here if the network keeps none).  The
    searches are independent and run on min(threads, searches, usable CPUs)
    workers when that is more than one: this process and forked children,
    which send the records back.

    ``prefix`` is None, or per divergence position i (at index i - 1) the
    least (slope, base) sums of a candidate's part from v_1 to v_i.  With
    it, and more than one search, the searches are seeded
    (``mcsp._two_criteria_loop``) with the (1, q) detour frontier, which is
    ``d-sap``'s: serially, the search from v_1 runs first, unseeded, and
    seeds the others; a pool runs one ``d-sap`` search before it forks and
    seeds every search.  Every seed path is Q-edge-free, so its third
    criterion is 0, and hb and ha, taken with no edge banned, stay lower
    bounds from any node to v_q after the ban; a detour is dropped only
    where a seed path strictly beats, by a rounding margin in base and in
    tau(d), every candidate a detour through it can complete.  Each (i, j)
    set is then a subset of the unseeded one that still holds every detour
    that can reach the answer, and the (1, j) sets, seeded only in a pool,
    may differ between thread counts; the answers do not.

    ``finish``, if given, runs in each worker on the sets of the searches
    that worker ran, as {(i, j): [record]}, and the call returns the list
    of its results, one per worker, in no fixed order.  A child then sends
    back only what ``finish`` keeps of its sets.
    """
    q_ids = frozenset(q.edge_ids)
    # kept before forking, as the adjacency is built: the searches and the
    # children share both
    search_adjacency(net, q_ids)
    _astar_bound(net, net.index[q.target])
    tasks = [(q.vertices[i - 1], q.vertices[i:], None) for i in range(1, len(q.vertices))]
    worker = (net, d, q_ids)
    reduce = _sets if finish is None else lambda done: finish(_sets(done))
    seeded = prefix is not None and len(tasks) > 1
    workers = min(threads, len(tasks))
    allowed = None
    if workers > 1:  # only a pool asks which CPUs it may use
        allowed = _allowed_cpus()
        workers = min(workers, len(allowed) if allowed else os.cpu_count() or 1)
    if workers > 1:
        if seeded:
            found = _search(net, q.source, (q.target,), d, 2, frozenset(), q_ids)
            tasks = _seeded(tasks, found[q.target], prefix)
        # Frozen objects are left out of every collection, so the children
        # do not write to the heap they share with the parent, and the first
        # pooled solve of a process runs no full collection over it.  A
        # caller's own freeze is left as it is.
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            parts = _run_forked(tasks, worker, workers, allowed, reduce)
        finally:
            if freeze:
                gc.unfreeze()
    else:
        done = [(0, _pij_task(tasks[0], worker))]
        if seeded:
            tasks = _seeded(tasks, done[0][1][-1], prefix)
        done += [(k, _pij_task(tasks[k], worker)) for k in range(1, len(tasks))]
        parts = [reduce(done)]
    if finish is not None:
        return parts
    pij = {}
    for part in parts:
        pij.update(part)
    return {key: pij[key] for key in sorted(pij)}


def _sets(done) -> dict:
    """{(i, j): [record]}, in (i, j) order, of the (task index, per-target
    records) pairs of the searches one worker ran."""
    return {(k + 1, j): frontier for k, found in sorted(done, key=itemgetter(0))
            for j, frontier in enumerate(found, start=k + 2)}


def _seeded(tasks, frontier, prefix) -> list:
    """``tasks`` with each search seeded by ``frontier``'s (base, tau(d))
    points and the prefix bound of its divergence position."""
    bases = [rec[6][0] for rec in frontier]
    taus = [rec[6][1] for rec in frontier]
    return [(source, targets, (bases, taus, bound))
            for (source, targets, _), bound in zip(tasks, prefix)]


def _route_prefix(net: Network, q: Path) -> list:
    """(slope, base) summed over Q's first k edges, in Q's order, for k =
    0..q-1: ``1d-sap``'s prefix to each route position, exactly."""
    slopes, bases = net.slopes, net.bases
    prefix = [(0.0, 0.0)]
    for eid in q.edge_ids:
        slope, base = prefix[-1]
        prefix.append((slope + slopes[eid], base + bases[eid]))
    return prefix


def _landmark_prefix(net: Network, q: Path) -> list:
    """``sap``'s prefix bound to each route position v_i, whose prefix may
    be any path from v_1: by the triangle inequality in the kept distances
    to v_q, a path from v_1 to v_i has a base of at least hb(v_1) - hb(v_i)
    and a slope of at least ha(v_1) - ha(v_i).  Each difference is lowered
    by a ``_ROUNDING`` share of its first term, the rounding of both
    Dijkstra sums, and clamped at 0."""
    ha, hb = _astar_bound(net, net.index[q.target])
    first = net.index[q.source]
    a1, b1 = ha[first], hb[first]
    a_margin, b_margin = a1 * _ROUNDING, b1 * _ROUNDING
    bounds = []
    for v in q.vertices[:-1]:
        vi = net.index[v]
        bounds.append((max(0.0, a1 - ha[vi] - a_margin), max(0.0, b1 - hb[vi] - b_margin)))
    return bounds


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
    prefix = _route_prefix(net, q)
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
    """Detour sets seeded with Q's own prefix sums, each detour augmented
    with Q's prefix and suffix (``_augmented_candidates``).  Each worker of
    a pool reduces its own detours so, and a record it drops is dominated
    or out-tied by one it keeps, so one sweep of the workers' union keeps
    exactly the records one reduction of every detour keeps.  That sweep
    is ``simple_cull``'s, called directly: its input depends on which
    worker ran which search, and no work count may."""
    net, q = inst.net, inst.route.path
    parts = detour_frontiers(net, q, inst.route.demand, threads, _route_prefix(net, q),
                             partial(_augmented_candidates, inst))
    frontier = parts[0]
    if len(parts) > 1:
        frontier = pareto_sweep([rec for part in parts for rec in part], itemgetter(6),
                                itemgetter(0, 1), _itself)
    return _assemble(inst, frontier)


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
    """Dynamic program over Q's positions (``fc_levels``) on detour sets
    seeded with the landmark prefix bound."""
    net, q, d = inst.net, inst.route.path, inst.route.demand
    pij = detour_frontiers(net, q, d, threads, _landmark_prefix(net, q))
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
