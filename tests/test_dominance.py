import itertools
import math
import random

import pytest

import saproute as sr
from conftest import costs, dominates, join_paths, path_record


def lab(vec, verts=None, edge=None):
    """A path record with a prescribed criteria vector (d = 1)."""
    if verts is None:
        verts = ("s", "t")
    total = sr.CostFn(sr.QUADRATIC, vec[1] - vec[0], vec[0])
    q_slope = vec[2] if len(vec) == 3 else 0.0
    shared = sr.CostFn(sr.QUADRATIC, q_slope, 0.0)
    edges = (edge,) if edge is not None else (hash(vec) % 10**6,)
    return path_record(verts, edges, total, shared, 1.0, len(vec))


def vecs(paths):
    return sorted(p[6] for p in paths)


def test_label_path_accumulates_shared_costs_exactly():
    net = sr.Network.build(sr.QUADRATIC, ["s", "m", "t"], [
        ("s", "m", sr.CostFn.quadratic(1, 2)),
        ("m", "t", sr.CostFn.quadratic(3, 4)),
    ])
    q_edges = frozenset({1})
    got = sr.label_path(net, ("s", "m", "t"), (0, 1), q_edges, 2.0, 3)
    cost, q_cost = costs(got, sr.QUADRATIC)
    assert (cost.slope, cost.base) == (4, 6)
    assert (q_cost.slope, q_cost.base) == (3, 4)  # only the shared edge
    # the cached vector is the recomputation from the two cost functions
    want = sr.pareto_point(cost, 2.0) + (sr.derivative_coeff(q_cost),)
    assert got[6] == want


def test_path_dominates_respects_shared_steepness():
    # cheaper overall but a steeper shared segment must not dominate
    d = 1.0
    q_part_steep = sr.CostFn.quadratic(4, 0.5)
    q_part_flat = sr.CostFn.quadratic(1, 0.5)
    p1 = path_record(("s", "a", "t"), (0, 1),
                     sr.add_cost(sr.CostFn.quadratic(0.1, 0.5), q_part_steep),
                     q_part_steep, d, 3)
    p2 = path_record(("s", "b", "t"), (2, 3),
                     sr.add_cost(sr.CostFn.quadratic(2.0, 3.0), q_part_flat),
                     q_part_flat, d, 3)
    # p1 is pointwise cheaper ...
    cost1, cost2 = costs(p1, sr.QUADRATIC)[0], costs(p2, sr.QUADRATIC)[0]
    assert all(sr.eval_cost(cost1, x) <= sr.eval_cost(cost2, x)
               for x in [d * k / 1000 for k in range(1001)])
    # ... but its shared part grows faster, so the definition rejects dominance
    assert p1[6][2] > p2[6][2]
    assert not dominates(p1, p2)


def brute_cull(paths):
    """Quadratic reference filter used to validate simple_cull."""
    kept = []
    for p in paths:
        beaten = False
        for q in paths:
            if q is p:
                continue
            if dominates(q, p) and (q[6] != p[6] or q[:2] < p[:2]):
                beaten = True
                break
        if not beaten:
            kept.append(p)
    return sorted(kept, key=lambda p: (p[6], p[:2]))


def test_simple_cull_examples():
    items = [lab((1, 5), edge=1), lab((2, 3), edge=2), lab((3, 4), edge=3)]
    assert vecs(sr.simple_cull(items)) == [(1, 5), (2, 3)]
    assert sr.simple_cull([]) == []


def test_simple_cull_matches_pairwise_oracle():
    # small integer ranges make exact vector ties common; with 3 criteria
    # the sweep goes through the (g2, g3) staircase
    rng = random.Random(11)
    for criteria in (2, 3):
        for trial in range(20):
            items = [lab(tuple(rng.randint(0, 8) for _ in range(criteria)),
                         verts=("s", f"v{rng.randint(0, 3)}", "t"), edge=i)
                     for i in range(200)]
            got = sr.simple_cull(items)
            assert got == brute_cull(items)


def test_simple_cull_idempotent_and_deterministic():
    rng = random.Random(12)
    items = [lab((rng.randint(0, 5), rng.randint(0, 5)), edge=i) for i in range(60)]
    once = sr.simple_cull(items)
    assert sr.simple_cull(once) == once
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sr.simple_cull(shuffled) == once


def test_equal_vector_tie_break():
    a = lab((1, 5), verts=("s", "a", "t"), edge=1)
    b = lab((1, 5), verts=("s", "b", "t"), edge=2)
    kept = sr.simple_cull([b, a])
    assert kept == [a]  # lexicographically smaller vertex sequence survives


def abstract_piece(vec, verts, eid):
    total = sr.CostFn(sr.QUADRATIC, vec[1] - vec[0], vec[0])
    shared = sr.CostFn(sr.QUADRATIC, vec[2], 0.0)
    return path_record(verts, (eid,), total, shared, 1.0, 3)


def join_union(parts):
    """``reduced_join_union`` at d = 1 over parts of path records."""
    return sr.reduced_join_union(parts, sr.QUADRATIC, 1.0)


def test_reduced_join_examples():
    a = abstract_piece((1, 2, 0), ("u", "v"), 1)
    b = abstract_piece((2, 1, 0), ("v", "w"), 2)
    joined = join_union([([a], [b])])
    assert len(joined) == 1
    assert joined[0][6] == pytest.approx((3, 3, 0))
    assert joined[0][0] == ("u", "v", "w")
    # concatenations revisiting a vertex are discarded
    c = abstract_piece((1, 1, 0), ("v", "u"), 3)
    assert join_union([([a], [c])]) == []
    with pytest.raises(sr.NetworkError):
        join_union([([a], [abstract_piece((1, 1, 0), ("x", "y"), 4)])])


def test_reduced_join_matches_enumerate_then_cull():
    rng = random.Random(14)
    for _ in range(20):
        xs = [abstract_piece((rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 2)),
                             ("u", f"m{i}", "v"), i) for i in range(8)]
        ys = [abstract_piece((rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 2)),
                             ("v", f"n{i}", "w"), 100 + i) for i in range(8)]
        got = join_union([(xs, ys)])
        all_joined = []
        for p1 in xs:
            for p2 in ys:
                j = join_paths(p1, p2, sr.QUADRATIC, 1.0, 3)
                if j is not None:
                    all_joined.append(j)
        assert got == brute_cull(all_joined)


def test_reduced_join_union_is_the_cull_of_every_simple_join():
    # parts meet at different middle vertices and reuse a few vertex names,
    # so some joins repeat a vertex and many vectors tie exactly
    rng = random.Random(18)
    for trial in range(30):
        parts, want = [], []
        for k in range(rng.randint(1, 4)):
            mid = rng.choice(["v", "x"])
            xs = [abstract_piece((rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)),
                                 ("u", f"m{rng.randint(0, 3)}", mid), 10 * k + i)
                  for i in range(rng.randint(0, 5))]
            ys = [abstract_piece((rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)),
                                 (mid, f"m{rng.randint(0, 3)}", "w"), 100 + 10 * k + i)
                  for i in range(rng.randint(0, 5))]
            parts.append((xs, ys))
            want += [j for p1 in xs for p2 in ys
                     if (j := join_paths(p1, p2, sr.QUADRATIC, 1.0, 3)) is not None]
        got = join_union(parts)
        assert got == brute_cull(want), f"trial {trial}"
        assert got == sr.simple_cull([p for xs, ys in parts for p in join_union([(xs, ys)])])
    a = abstract_piece((1, 2, 0), ("u", "v"), 1)
    b = abstract_piece((2, 1, 0), ("v", "w"), 2)
    elsewhere = abstract_piece((2, 1, 0), ("v", "z"), 3)
    with pytest.raises(sr.NetworkError):
        join_union([([a], [b]), ([a], [elsewhere])])
    assert join_union([([a], [b]), ([], [elsewhere])]) == join_union([([a], [b])])


def test_reduced_join_associative_on_vertex_disjoint_pools():
    rng = random.Random(15)
    for _ in range(20):
        def pool(tail, head, mids, base):
            return [abstract_piece(
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)),
                (tail, f"{mids}{i}", head), base + i) for i in range(4)]
        a = pool("u", "v", "a", 0)
        b = pool("v", "w", "b", 100)
        c = pool("w", "z", "c", 200)
        left = join_union([(join_union([(a, b)]), c)])
        right = join_union([(a, join_union([(b, c)]))])
        assert vecs(left) == vecs(right)


def test_antisymmetry_after_tie_break():
    rng = random.Random(17)
    for trial in range(50):
        items = [lab((rng.randint(0, 3), rng.randint(0, 3)), edge=i)
                 for i in range(30)]
        kept = sr.simple_cull(items)
        for p, q in itertools.combinations(kept, 2):
            assert not (dominates(p, q) and dominates(q, p))


def reference_sweep(cands):
    """``pareto_sweep``'s contract, pairwise: the simple candidates that no
    simple candidate dominates, one per exactly equal vector -- the least
    by (tie key, input position) -- in vector order."""
    simple = [(k, c) for k, c in enumerate(cands) if c[2]]
    kept = [(k, c) for k, c in simple
            if not any(o[0] != c[0] and all(a <= b for a, b in zip(o[0], c[0]))
                       for _, o in simple)]
    least = {}
    for k, c in kept:
        if c[0] not in least or (c[1], k) < (least[c[0]][1][1], least[c[0]][0]):
            least[c[0]] = (k, c)
    return [(c[0], c[1], c[3]) for _, c in sorted(least.values(), key=lambda kc: kc[1][0])]


def sweep(cands):
    """``pareto_sweep`` over (vector, tie key, simple, id) candidates; a
    simple candidate builds (vector, tie key, id)."""
    return sr.dominance.pareto_sweep(
        list(cands), lambda c: c[0], lambda c: c[1],
        lambda c: (c[0], c[1], c[3]) if c[2] else None)


@pytest.mark.parametrize("criteria", [2, 3])
def test_pareto_sweep_keeps_what_pairwise_dominance_keeps(criteria):
    # small integer ranges and few tie keys make exact ties common: of an
    # equal-vector group whose least member is not simple the next simple
    # one is kept, and of equal (vector, tie key) members the first given
    rng = random.Random(28 + criteria)
    for trial in range(200):
        cands = [(tuple(rng.randint(0, 4) for _ in range(criteria)),
                  (rng.randint(0, 2),), rng.random() < 0.7, k)
                 for k in range(rng.randint(0, 40))]
        assert sweep(cands) == reference_sweep(cands), f"trial {trial}"


def test_pareto_sweep_edge_cases():
    assert sweep([]) == []
    for vec in ((1, 2), (1, 2, 3)):
        assert sweep([(vec, (0,), True, "a")]) == [(vec, (0,), "a")]
        assert sweep([(vec, (0,), False, "a")]) == []
    # the group's least member is not simple: the next one is kept, and it
    # still covers what it dominates
    group = [((1, 1, 1), (0,), False, "a"), ((1, 1, 1), (1,), True, "b"),
             ((1, 1, 1), (2,), True, "c"), ((2, 2, 2), (0,), True, "d")]
    assert sweep(group) == [((1, 1, 1), (1,), "b")]
    # equal (vector, tie key): input order decides, and a candidate that is
    # not simple covers nothing
    same = [((0, 0), (0,), False, "x"), ((1, 1), (5,), True, "b"),
            ((1, 1), (5,), True, "a"), ((1, 1), (4,), False, "c")]
    assert sweep(same) == [((1, 1), (5,), "b")]
    assert sweep(same[:1] + same[2:] + same[1:2]) == [((1, 1), (5,), "a")]


def test_pareto_sweep_sorts_its_input_in_place_by_vector():
    rng = random.Random(5)
    cands = [((rng.randint(0, 9), rng.randint(0, 9)), (k,), True, k) for k in range(50)]
    sr.dominance.pareto_sweep(cands, lambda c: c[0], lambda c: c[1], lambda c: c)
    assert [c[0] for c in cands] == sorted(c[0] for c in cands)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("d", NON_FINITE)
def test_label_path_refuses_a_non_finite_demand(d):
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"], [("s", "t", sr.CostFn.quadratic(1, 2))])
    for vertices, edge_ids in ((("s", "t"), (0,)), (("s",), ())):
        with pytest.raises(sr.NetworkError, match=r"demand d=.* must be finite and > 0"):
            sr.label_path(net, vertices, edge_ids, frozenset(), d, 3)


@pytest.mark.parametrize("d", NON_FINITE)
def test_reduced_join_union_refuses_a_non_finite_demand(d):
    a = abstract_piece((1, 2, 0), ("u", "v"), 1)
    b = abstract_piece((2, 1, 0), ("v", "w"), 2)
    with pytest.raises(sr.NetworkError, match=r"demand d=.* must be finite and > 0"):
        sr.reduced_join_union([([a], [b])], sr.QUADRATIC, d)
