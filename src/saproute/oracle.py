"""Ground-truth machinery for verifying the solvers.

Everything here recomputes results by the most direct means available:
exhaustive path enumeration, dense grid scans with local refinement for the
system-optimal split, and a ratio-form bisection for the quotient split
(deliberately a different formulation than the production solver uses).
The subset-sum reduction network doubles as an executable stress test: its
solver answer is below the 6s threshold exactly when the subset-sum
instance is solvable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .dominance import label_path
from .network import AFFINE, CostFn, Network, NetworkError, Path, Route, eval_cost
from .psychmodels import (CustomModel, QuotientModel, SplitParts,
                          SystemOptimum, record_parts)

ENUM_LIMIT = 10**6
SO_GRID = 10_000
TERNARY_ITERS = 200


class OracleLimitError(RuntimeError):
    """Path enumeration exceeded the configured limit."""


def enumerate_simple_paths(net: Network, s, t, limit: int = ENUM_LIMIT) -> list[Path]:
    """All simple s-t paths by DFS, in deterministic edge-index order."""
    if not (net.has_node(s) and net.has_node(t)):
        raise NetworkError("unknown endpoint")
    nodes, t_idx = net.nodes, net.index[t]
    out: list[Path] = []
    stack = [(net.index[s], (s,), ())]
    while stack:
        ui, verts, edges = stack.pop()
        if ui == t_idx:
            out.append(Path(verts, edges))
            if len(out) > limit:
                raise OracleLimitError(f"more than {limit} simple paths")
            continue
        # reversed so the lowest-index edge is explored first
        for hi, eid, _, _ in reversed(net.out[ui]):
            if nodes[hi] not in verts:
                stack.append((hi, verts + (nodes[hi],), edges + (eid,)))
    return out


def is_edge_disjoint(path: Path, q_ids) -> bool:
    return not any(eid in q_ids for eid in path.edge_ids)


def is_one_disjoint(path: Path, q_ids) -> bool:
    """True iff the non-shared part of the path is one contiguous segment,
    i.e. shared edges form a prefix and a suffix of the path."""
    flags = [eid in q_ids for eid in path.edge_ids]
    i, j = 0, len(flags)
    while i < j and flags[i]:
        i += 1
    while j > i and flags[j - 1]:
        j -= 1
    return not any(flags[i:j])


def variant_feasible(variant: str, path: Path, q_ids) -> bool:
    if variant == "sap":
        return True
    if variant == "1d-sap":
        return is_one_disjoint(path, q_ids)
    if variant == "d-sap":
        return is_edge_disjoint(path, q_ids)
    raise NetworkError(f"unknown variant {variant!r}")


# --- independent split computations -----------------------------------------

def _np_eval(mode: str, slope: float, base: float, xs):
    if mode == AFFINE:
        return slope * xs + base
    return slope * xs * xs + base


def _np_overall(parts: SplitParts, d: float, xs):
    mode, a1, b1, a2, b2, a3, b3 = parts
    return (xs * _np_eval(mode, a1, b1, xs)
            + (d - xs) * _np_eval(mode, a2, b2, d - xs)
            + d * _np_eval(mode, a3, b3, d))


def oracle_so_split(parts: SplitParts, d: float, grid: int = SO_GRID) -> float:
    """Grid scan of the overall cost refined by local ternary search."""
    # imported here so that only this scan, not a solve, loads numpy
    import numpy as np

    xs = np.linspace(0.0, d, grid + 1)
    vals = _np_overall(parts, d, xs)
    k = int(np.argmin(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, grid)]
    for _ in range(TERNARY_ITERS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _np_overall(parts, d, m1) <= _np_overall(parts, d, m2):
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return x if _np_overall(parts, d, x) <= vals[k] else float(xs[k])


def oracle_quotient_split(parts: SplitParts, d: float, c) -> float:
    """Bisection on the cost-ratio form of the quotient condition."""
    mode, a1, b1, a2, b2, a3, b3 = parts
    sh = _np_eval(mode, a3, b3, d)

    def gap(x: float) -> float:
        num = _np_eval(mode, a2, b2, d - x) + sh
        den = _np_eval(mode, a1, b1, x) + sh
        # an affine alternative of zero-base edges disjoint from Q costs
        # nothing at x = 0, where the Q side, tau_Q(d) > 0, is infinitely dearer
        ratio = num / den if den > 0.0 else inf
        return ratio - c.value(x, d)

    if gap(0.0) < 0.0:
        return 0.0
    if gap(d) > 0.0:
        return d
    lo, hi = 0.0, d
    while hi - lo > 1e-12 * d:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_split(parts: SplitParts, d: float, model, candidate) -> float:
    if isinstance(model, SystemOptimum):
        return oracle_so_split(parts, d)
    if isinstance(model, QuotientModel):
        return oracle_quotient_split(parts, d, model.c)
    if isinstance(model, CustomModel):
        return model.fraction_fn(candidate, d) * d
    raise NetworkError(f"oracle cannot split model {model!r}")


@dataclass(frozen=True)
class BruteForceResult:
    path: Path
    x: float
    cost: float
    no_alternative: bool
    candidates: int


def brute_force_optimum(net: Network, route: Route, model, variant: str,
                        limit: int = ENUM_LIMIT) -> BruteForceResult:
    """Enumerate, filter by variant feasibility, split every candidate with
    the oracle's own machinery, keep the minimum.  The original route is
    always a candidate ("suggest nothing")."""
    return brute_force_all_variants(net, route, model, (variant,), limit)[variant]


def brute_force_all_variants(net: Network, route: Route, model,
                             variants=("sap", "1d-sap", "d-sap"),
                             limit: int = ENUM_LIMIT) -> dict:
    q, d = route.path, route.demand
    q_ids = frozenset(q.edge_ids)
    q_cost = q.cost_fn(net)
    paths = enumerate_simple_paths(net, q.source, q.target, limit)

    scored = []
    for path in paths:
        rec = label_path(net, path.vertices, path.edge_ids, q_ids, d, 3)
        parts = record_parts(rec, q_cost)
        x = oracle_split(parts, d, model, rec)
        cost = float(_np_overall(parts, d, x))
        scored.append((path, x, cost))

    q_key = (q.vertices, q.edge_ids)
    results = {}
    for variant in variants:
        pool = [(p, x, c) for p, x, c in scored
                if variant_feasible(variant, p, q_ids)]
        has_alternative = any((p.vertices, p.edge_ids) != q_key for p, _, _ in pool)
        if not any((p.vertices, p.edge_ids) == q_key for p, _, _ in pool):
            d_tau_q = float(d * eval_cost(q_cost, d))
            pool = pool + [(q, d, d_tau_q)]
        best = min(pool, key=lambda item: (item[2], item[0].vertices, item[0].edge_ids))
        results[variant] = BruteForceResult(best[0], best[1], best[2],
                                            not has_alternative, len(pool))
    return results


# --- subset-sum reduction network --------------------------------------------

@dataclass(frozen=True)
class GadgetInstance:
    m_values: tuple[int, ...]
    target: int
    total: int
    net: Network
    route: Route
    model: CustomModel


def indicator_model(w: int, total: int) -> CustomModel:
    """All agents take the alternative iff its cost function is exactly
    w*x + (total - w): the candidate record's (slope, base) sums; integer
    coefficient comparison keeps this exact."""
    w = int(w)
    total = int(total)

    def fraction(candidate, d: float) -> float:
        return 1.0 if candidate[2:4] == (w, total - w) else 0.0

    return CustomModel(fraction, f"indicator:{w}")


def build_gadget(m_values, w: int) -> GadgetInstance:
    """Reduction network for a subset-sum instance (m_values, w).

    Nodes v0..vn; between v_{i-1} and v_i run two parallel edges with costs
    m_i*x (take item i) and the constant m_i (skip item i); the original
    route is the single direct edge v0 -> vn with cost s*x + s, s = sum(M),
    carrying demand 2.  A path beats the 6s threshold iff its chosen items
    sum to exactly w.  The largest cost the gadget produces is Q's
    d * tau_Q(d) = 6s, so 6s may not exceed 2**53, past which not every
    integer is a float and the reduction is no longer exact.
    """
    m_values = tuple(int(m) for m in m_values)
    if not m_values or any(m <= 0 for m in m_values):
        raise NetworkError("subset-sum values must be positive integers")
    if int(w) < 1:
        raise NetworkError(f"subset-sum target {w} must be >= 1")
    w = int(w)
    total = sum(m_values)
    if 6 * total > 2**53:
        raise NetworkError("subset-sum values too large: 6 * sum(M) exceeds 2**53, "
                           "past which the gadget's costs are not exact")
    n = len(m_values)
    nodes = [f"v{i}" for i in range(n + 1)]
    # the original route comes first so that vertex-based route files resolve
    # to it even when |M| = 1 makes it parallel to the item edges
    edges = [("v0", f"v{n}", CostFn.affine(total, total))]
    for i, m in enumerate(m_values, start=1):
        edges.append((f"v{i-1}", f"v{i}", CostFn.affine(m, 0)))   # take item
        edges.append((f"v{i-1}", f"v{i}", CostFn.affine(0, m)))   # skip item
    net = Network.build(AFFINE, nodes, edges)
    q = Path(("v0", f"v{n}"), (0,))
    return GadgetInstance(m_values, w, total, net, Route(q, 2.0),
                          indicator_model(w, total))


def subsetsum_brute(m_values, w: int) -> bool:
    m_values = tuple(int(m) for m in m_values)
    if not m_values:
        raise NetworkError("subset-sum needs a non-empty value set")
    if len(m_values) > 24:
        raise NetworkError("subset-sum brute force capped at 24 values")
    sums = {0}
    for m in m_values:
        sums |= {s + m for s in sums}
        if w in sums:
            return True
    return w in sums
