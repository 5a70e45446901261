import math
import random
import sys

import pytest

import saproute as sr
from saproute import psychmodels, solvers
from saproute.dominance import label_path
from saproute.oracle import enumerate_simple_paths
from saproute.psychmodels import (CFunction, SplitParts, _monotone_root, _quotient_f,
                                  cost_at, cost_floor, custom_split, quotient_split,
                                  record_parts, so_split)

from conftest import (SOLVERS, dominated_pair, exhaustive_score, part_costs, path_record,
                      random_costfn, random_instance, split_parts, tie_heavy_network)


def parts_disjoint(alt, orig):
    """Disjoint alternative/original pair (empty shared segment)."""
    return split_parts(alt, orig, sr.CostFn(sr.QUADRATIC, 0.0, 0.0))


# the running example: tau_P = x^2 + 1, tau_Q = x^2 + 4, d = 2
EXAMPLE = parts_disjoint(sr.CostFn.quadratic(1, 1), sr.CostFn.quadratic(1, 4))
SYMMETRIC = parts_disjoint(sr.CostFn.quadratic(1, 2), sr.CostFn.quadratic(1, 2))


def random_parts(rng, d):
    alt = random_costfn(rng, 0.2, 5.0)
    orig = random_costfn(rng, 0.2, 5.0)
    shared = sr.CostFn.quadratic(rng.uniform(0, 2), rng.uniform(0, 2) + 1e-6)
    return split_parts(alt, orig, shared)


def test_overall_cost_examples():
    assert cost_at(parts_disjoint(sr.CostFn.quadratic(1, 2),
                                  sr.CostFn.quadratic(1, 2)), 2.0, 1.0) == 6.0
    # x = 0 routes everything over the original
    assert cost_at(EXAMPLE, 2.0, 0.0) == 2 * sr.eval_cost(sr.CostFn.quadratic(1, 4), 2)
    assert cost_at(EXAMPLE, 2.0, 1.25) == pytest.approx(6.625, rel=1e-12)
    for x in (2.5, -0.1, 3.0, -1.0, math.nan):
        with pytest.raises(sr.ModelError, match="outside"):
            cost_at(EXAMPLE, 2.0, x)


def test_path_level_split_wrappers():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 4)),
                            ("s", "t", sr.CostFn.quadratic(1, 1))])
    q = sr.Path(("s", "t"), (0,))
    p = label_path(net, ("s", "t"), (1,), frozenset(q.edge_ids), 2.0, 3)
    parts = record_parts(p, q.cost_fn(net))
    so = so_split(parts, 2.0)
    assert (so.x, so.cost) == (pytest.approx(1.25), pytest.approx(6.625))
    ue = quotient_split(parts, 2.0, CFunction.constant(1.0))
    assert ue.cost == pytest.approx(8.125, rel=1e-9)


def test_system_optimum_split():
    sym = so_split(SYMMETRIC, 2.0)
    assert sym.x == pytest.approx(1.0, abs=1e-12)
    assert sym.cost == pytest.approx(6.0, rel=1e-12)
    res = so_split(EXAMPLE, 2.0)
    assert res.x == pytest.approx(1.25, rel=1e-12)
    assert res.cost == pytest.approx(6.625, rel=1e-12)
    assert res.boundary == "interior"


def test_a_split_result_unpacks_in_field_order_with_the_cost_at_its_flow():
    rng = random.Random(24)
    for _ in range(50):
        d = rng.choice([1.0, 2.0, 7.3, 2000.0])
        parts = random_parts(rng, d)
        for res in (so_split(parts, d), quotient_split(parts, d, CFunction.linear(1.0)),
                    custom_split(parts, d, rng.random())):
            x, cost, per_agent_alt, per_agent_orig, boundary = res
            assert (x, cost, per_agent_alt, per_agent_orig, boundary) == \
                (res.x, res.cost, res.per_agent_alt, res.per_agent_orig, res.boundary)
            # the split's cost is C at its flow, to the bit
            assert cost == cost_at(parts, d, x)


def test_system_optimum_matches_dense_grid_oracle():
    # cross-check the closed-form stationary points against a brute scan
    from saproute.oracle import oracle_so_split
    rng = random.Random(31)
    for _ in range(15):
        d = rng.choice([1.0, 2.0, 5.0])
        parts = random_parts(rng, d)
        exact = so_split(parts, d)
        x_grid = oracle_so_split(parts, d, grid=1_000_000)
        assert cost_at(parts, d, x_grid) == pytest.approx(exact.cost, rel=1e-6)


@pytest.mark.parametrize("d", [10.0, 2000.0])
def test_system_optimum_keeps_the_interior_root_of_nearly_tied_slopes(d):
    # a1 - a2 of a few ulps makes C' nearly linear: the root (-qb + root) /
    # (2 qa) then cancels, and only the product-of-roots form keeps it
    from saproute.oracle import oracle_so_split
    slopes = [(0.1 + 0.2, 0.3)]
    for a in (0.3, 1.0, 7.0):
        for k in (1, 2, 5):
            slopes += [(a * (1 + k * 2.0**-52), a), (a, a * (1 + k * 2.0**-52))]
    for a1, a2 in slopes:
        for b1, b2 in ((0.5, 0.5), (1.0, 1.5), (2.0, 1.0)):
            parts = parts_disjoint(sr.CostFn(sr.QUADRATIC, a1, b1),
                                   sr.CostFn(sr.QUADRATIC, a2, b2))
            got = so_split(parts, d)
            x_grid = oracle_so_split(parts, d, grid=100_000)
            assert got.x == pytest.approx(x_grid, abs=1e-6 * d), (a1, a2, b1, b2)
            assert got.cost <= cost_at(parts, d, x_grid) * (1 + 1e-12), (a1, a2, b1, b2)


def test_quotient_split_user_equilibrium():
    ue = CFunction.constant(1.0)
    sym = quotient_split(SYMMETRIC, 2.0, ue)
    assert sym.x == pytest.approx(1.0, abs=1e-9)
    res = quotient_split(EXAMPLE, 2.0, ue)
    assert res.x == pytest.approx(1.75, rel=1e-9)
    assert res.cost == pytest.approx(8.125, rel=1e-9)
    assert res.per_agent_alt == pytest.approx(65 / 16, rel=1e-9)
    assert res.per_agent_orig == pytest.approx(65 / 16, rel=1e-9)


def test_quotient_split_linear_model():
    res = quotient_split(EXAMPLE, 2.0, CFunction.linear(1.0))
    assert res.x == pytest.approx(1.8385, abs=1e-3)
    assert res.cost == pytest.approx(8.703, abs=1e-2)
    # recompute the root of x^3 - 2x^2 + 9x - 16 with an independent method
    import numpy as np
    roots = [r.real for r in np.roots([1, -2, 9, -16]) if abs(r.imag) < 1e-9]
    assert res.x == pytest.approx(roots[0], abs=1e-10)


def test_quotient_split_boundaries():
    # alternative so bad nobody takes it under equilibrium
    bad = parts_disjoint(sr.CostFn.quadratic(1, 100), sr.CostFn.quadratic(1, 1))
    res = quotient_split(bad, 2.0, CFunction.constant(1.0))
    assert res.x == 0.0 and res.boundary == "clamped-0"
    good = parts_disjoint(sr.CostFn.quadratic(1, 1), sr.CostFn.quadratic(1, 100))
    res = quotient_split(good, 2.0, CFunction.constant(1.0))
    assert res.x == 2.0 and res.boundary == "clamped-d"


def test_quotient_requires_valid_control_function():
    with pytest.raises(sr.ModelError):
        quotient_split(EXAMPLE, 2.0, CFunction.constant(0.0))
    with pytest.raises(sr.ModelError):
        quotient_split(EXAMPLE, 2.0, CFunction.linear(-1.0))
    with pytest.raises(sr.ModelError):
        quotient_split(EXAMPLE, 2.0, CFunction.callback(lambda x: -1.0))
    with pytest.raises(sr.ModelError):
        quotient_split(EXAMPLE, 2.0, CFunction.callback(lambda x: 1.0 - x))


@pytest.mark.parametrize("fn", [lambda x: math.nan, lambda x: math.inf,
                                lambda x: math.nan if x == 2.0 else 0.5],
                         ids=["nan", "inf", "nan-at-d"])
def test_a_callback_with_a_non_finite_value_is_refused(fn):
    # NaN fails every comparison the other checks make, and inf passes them
    c = CFunction.callback(fn)
    for check in (c.validate, lambda d: sr.check_quotient_conformity(c, d),
                  lambda d: quotient_split(EXAMPLE, d, c)):
        with pytest.raises(sr.ModelError, match="not finite"):
            check(2.0)


def test_a_callback_model_is_validated_once_per_demand(monkeypatch):
    # a validation calls a callback c 257 times; the forms of one instance
    # split their candidates with one model and one d, so c is validated by
    # the first solve alone, where each split validated it before
    calls = evals = splits = 0

    def c(x):
        nonlocal calls
        calls += 1
        return 1.0

    real_f = psychmodels._quotient_f

    def counting_f(parts, d, cf):
        nonlocal splits
        splits += 1
        f = real_f(parts, d, cf)

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)
        return counted

    monkeypatch.setattr(psychmodels, "_quotient_f", counting_f)
    rng = random.Random(71)
    for k in range(20):
        net, route = random_instance(rng)
        model = sr.QuotientModel(CFunction.callback(c), "callback")
        for n, form in enumerate(SOLVERS):
            before = calls - evals
            sr.solve(sr.SapInstance(net, route, model, *form))
            assert calls - evals - before == (257 if n == 0 else 0), (k, form)
    # every F evaluation calls c once: 100 solves made 128 splits and call
    # c 9,368 times, where a validation per split called it 37,124 times
    assert calls == 20 * 257 + evals
    assert (splits, calls, 257 * splits + evals) == (128, 9_368, 37_124)

    net, route = random_instance(random.Random(72), demand=2.0)
    for fn, message in ((lambda x: 1.0 / (1.0 + x), "decreasing"),
                        (lambda x: x - 0.5, "negative"),
                        (lambda x: math.nan, "not finite")):
        model = sr.QuotientModel(CFunction.callback(fn), "callback")
        for form in SOLVERS:
            with pytest.raises(sr.ModelError, match=message):
                sr.solve(sr.SapInstance(net, route, model, *form))


def test_custom_split():
    res = custom_split(EXAMPLE, 2.0, 0.5)
    assert res.x == 1.0
    with pytest.raises(sr.ModelError):
        custom_split(EXAMPLE, 2.0, 1.5)


def test_score_picks_minimum_and_breaks_ties():
    q_cost = sr.CostFn.quadratic(1, 4)
    cand1 = path_record(("s", "a", "t"), (1, 2), sr.CostFn.quadratic(1, 1),
                        sr.CostFn(sr.QUADRATIC, 0.0, 0.0), 2.0, 3)
    cand2 = path_record(("s", "b", "t"), (3, 4), sr.CostFn.quadratic(1, 2.375),
                        sr.CostFn(sr.QUADRATIC, 0.0, 0.0), 2.0, 3)
    model = sr.SystemOptimum()
    best, split = sr.score([cand1], q_cost, 2.0, model)
    assert best is cand1
    # cand2's system optimum cost is 8.0 (symmetric-ish), cand1's is 6.625
    best, split = sr.score([cand2, cand1], q_cost, 2.0, model)
    assert best is cand1 and split.cost == pytest.approx(6.625, rel=1e-9)
    with pytest.raises(sr.NoAlternativeError):
        sr.score([], q_cost, 2.0, model)


def test_score_with_q_as_candidate_never_beats_staying():
    d = 2.0
    q_cost = sr.CostFn.quadratic(1, 4)
    q_lab = path_record(("s", "t"), (0,), q_cost, q_cost, d, 3)
    for model in [sr.SystemOptimum(), sr.user_equilibrium(), sr.linear_model(1.0)]:
        best, split = sr.score([q_lab], q_cost, d, model)
        assert split.cost == pytest.approx(d * sr.eval_cost(q_cost, d), rel=1e-12)


def score_models():
    """The built-in models, and a plug-in whose fraction depends on the
    path, so exactly tied cost functions can split differently."""
    return [sr.parse_model(spec) for spec in ("so", "ue", "linear:1", "quotient:tanh:2")] \
        + [sr.CustomModel(lambda cand, d: len(cand[1]) % 4 / 3)]


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_bounded_scoring_picks_what_exhaustive_scoring_picks_in_every_solve(
        monkeypatch, mode):
    scored = 0

    def checked(candidates, q_cost, d, model):
        nonlocal scored
        candidates = list(candidates)
        best, split = sr.score(candidates, q_cost, d, model)
        want_best, want_split = exhaustive_score(candidates, q_cost, d, model)
        assert best is want_best and split == want_split
        scored += 1
        return best, split

    monkeypatch.setattr(solvers, "score", checked)
    rng = random.Random(f"bounded-score-{mode}")
    trial = 0
    while trial < 200:
        net = tie_heavy_network(rng, mode)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s for p in enumerate_simple_paths(net, s, t)]
        if not routes:
            continue
        trial += 1
        route = sr.Route(rng.choice(routes), float(rng.choice([1, 2, 3, 7.3])))
        for model in score_models():
            for (variant, algorithm), solver in SOLVERS.items():
                solver(sr.SapInstance(net, route, model, variant, algorithm))
    assert scored == 200 * 5 * len(SOLVERS)


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_bounded_scoring_picks_what_exhaustive_scoring_picks_among_exact_ties(mode):
    # every simple path of a tie-heavy network, shuffled, each also under a
    # second name: its cost functions with other vertices and edges
    rng = random.Random(f"score-ties-{mode}")
    tied_wins = 0
    trial = 0
    while trial < 40:
        net = tie_heavy_network(rng, mode)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s for p in enumerate_simple_paths(net, s, t)]
        if not routes:
            continue
        trial += 1
        q = rng.choice(routes)
        d = float(rng.choice([1, 2, 3, 7.3]))
        q_ids = frozenset(q.edge_ids)
        cands = [label_path(net, p.vertices, p.edge_ids, q_ids, d, 3)
                 for p in enumerate_simple_paths(net, q.source, q.target)]
        cands += [((*vertices[:-1], -1, vertices[-1]), (*edge_ids, -1), *sums)
                  for vertices, edge_ids, *sums in cands]
        rng.shuffle(cands)
        q_cost = q.cost_fn(net)
        for model in score_models():
            best, split = sr.score(cands, q_cost, d, model)
            want_best, want_split = exhaustive_score(cands, q_cost, d, model)
            assert best is want_best and split == want_split
            costs = [model.split(record_parts(c, q_cost), d, c).cost for c in cands]
            tied_wins += costs.count(split.cost) > 1
    assert tied_wins >= 100


def scoring_cases(spec):
    """A model and 40 (candidates, Q's cost, d) of tie-heavy networks, 20
    per mode: every simple path between the ends of a random route."""
    rng = random.Random(f"no-cost-functions-{spec}")
    model = sr.CustomModel(lambda cand, d: len(cand[1]) % 4 / 3) \
        if spec == "plug-in" else sr.parse_model(spec)
    cases = []
    while len(cases) < 40:
        net = tie_heavy_network(rng, sr.QUADRATIC if len(cases) < 20 else sr.AFFINE)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s for p in enumerate_simple_paths(net, s, t)]
        if routes:
            q = rng.choice(routes)
            d = float(rng.choice([1, 2, 3, 7.3]))
            cands = [label_path(net, p.vertices, p.edge_ids, frozenset(q.edge_ids), d, 3)
                     for p in enumerate_simple_paths(net, q.source, q.target)]
            cases.append((cands, q.cost_fn(net), d))
    return model, cases


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a ``__new__`` gets its class
    first, as a plain function would); returns the count's one-item list."""
    count = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


@pytest.mark.parametrize("spec", ["so", "ue", "linear:1", "plug-in"])
def test_scoring_builds_no_cost_function(monkeypatch, spec):
    # every floor and split reads the candidates' sums, however many of
    # them a model splits
    model, cases = scoring_cases(spec)
    made = counting(monkeypatch, sr.CostFn, "__new__")
    splits = counting(monkeypatch, sr.psychmodels, "_result")
    for cands, q_cost, d in cases:
        sr.score(cands, q_cost, d, model)
    assert made == [0]
    assert splits[0] > len(cases), splits


@pytest.mark.parametrize("spec", ["so", "ue", "linear:1", "plug-in"])
def test_scoring_builds_split_parts_only_for_the_candidates_it_splits(monkeypatch, spec):
    # a deterministic work gate: floors read the records' sums, and a
    # SplitParts is built only for a split (one per candidate before)
    model, cases = scoring_cases(spec)
    built = counting(monkeypatch, SplitParts, "__new__")
    splits = counting(monkeypatch, sr.psychmodels, "_result")
    for cands, q_cost, d in cases:
        sr.score(cands, q_cost, d, model)
    assert built == splits
    assert splits[0] < sum(len(cands) for cands, _, _ in cases) // 2, splits


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
def test_the_split_entry_points_refuse_a_demand_outside_0_to_inf(d):
    for split in (lambda: so_split(EXAMPLE, d),
                  lambda: quotient_split(EXAMPLE, d, CFunction.constant(1.0)),
                  lambda: custom_split(EXAMPLE, d, 0.5)):
        with pytest.raises(sr.NetworkError, match="demand"):
            split()


@pytest.mark.parametrize("parts, d, fractions", [
    (SplitParts(sr.QUADRATIC, 1.0, 1.0, 2.0, 1.0, 0.5, 0.5), 1e160, (0.0, 0.5)),
    (SplitParts(sr.QUADRATIC, math.nan, 1.0, 2.0, 1.0, 0.5, 0.5), 2.0, (0.0, 0.5)),
    (SplitParts(sr.AFFINE, 1.0, 1.0, 2.0, math.nan, 0.5, 0.5), 2.0, (0.0, 0.5)),
    # no stationary point: C is linear
    (SplitParts(sr.AFFINE, 0.0, 1.0, 0.0, math.nan, 0.5, 0.5), 2.0, (0.0, 0.5)),
    # C and F overflow at one end only: a plug-in's split at x = 1 is finite
    (SplitParts(sr.QUADRATIC, 1.0, 1.0, 1e308, 1.0, 0.5, 0.5), 2.0, (0.0,)),
    (SplitParts(sr.QUADRATIC, 1e308, 1.0, 1.0, 1.0, 0.5, 0.5), 2.0, (1.0,))])
def test_the_split_entry_points_refuse_a_cost_that_is_not_finite(parts, d, fractions):
    # no solve gets here: SapInstance refuses a demand whose cost overflows
    splits = [lambda: so_split(parts, d), lambda: cost_floor(parts, d)]
    splits += [lambda fraction=fraction: custom_split(parts, d, fraction)
               for fraction in fractions]
    splits += [lambda c=sr.parse_model(spec).c: quotient_split(parts, d, c)
               for spec in ("ue", "linear:1", "quotient:tanh:2")]
    messages = set()
    for split in splits:
        with pytest.raises(sr.ModelError, match="not finite") as refused:
            split()
        messages.add(str(refused.value))
    assert messages == {f"split of d={d} is not finite: the cost sums overflow or hold NaN"}


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_a_plug_in_receives_label_paths_record_of_each_candidate(mode):
    # in every form, the candidate a fraction_fn receives is the record
    # label_path gives its path, bit for bit, as the oracle hands it
    rng = random.Random(f"plug-in-{mode}")
    received = []
    model = sr.CustomModel(lambda cand, d: received.append(cand) or len(cand[1]) % 4 / 3)
    checked = alternatives = trial = 0
    while trial < 100:
        net = tie_heavy_network(rng, mode)
        s = rng.choice(net.nodes)
        routes = [p for t in net.nodes if t != s for p in enumerate_simple_paths(net, s, t)]
        if not routes:
            continue
        trial += 1
        q = rng.choice(routes)
        route = sr.Route(q, float(rng.choice([1, 2, 3, 7.3])))
        q_ids = frozenset(q.edge_ids)
        received.clear()
        sr.brute_force_optimum(net, route, model, "sap")
        from_oracle = set(received)
        for variant, algorithm in SOLVERS:
            received.clear()
            sr.solve(sr.SapInstance(net, route, model, variant, algorithm))
            assert received, (mode, trial, variant, algorithm)
            for rec in received:
                assert rec == label_path(net, rec[0], rec[1], q_ids, route.demand, 3), \
                    (mode, trial, variant, algorithm)
                assert rec in from_oracle
                checked += 1
                alternatives += rec[1] != q.edge_ids
    assert checked > 500 and alternatives > 350, (checked, alternatives)


def test_check_quotient_conformity():
    assert sr.check_quotient_conformity(CFunction.constant(1.0), 2.0)
    assert sr.check_quotient_conformity(CFunction.linear(1.0), 2.0)
    assert sr.check_quotient_conformity(CFunction.linear(0.25), 5.0)
    assert not sr.check_quotient_conformity(CFunction.constant(1.5), 2.0)
    for a in (0.5, 1.0, 3.0):
        assert sr.check_quotient_conformity(CFunction.tanh(a), 2.0)
    # linear with slope > 1 violates c(d) <= 1
    assert not sr.check_quotient_conformity(CFunction.linear(1.5), 2.0)


def test_check_quotient_conformity_callback_finite_difference():
    # sqrt control function: c*(1-c) - x*c' = c/2 - c^2 > 0 for small x
    assert not sr.check_quotient_conformity(
        CFunction.callback(lambda x: math.sqrt(x / 2.0)), 2.0)
    # a conforming callback (mirror of the linear model)
    assert sr.check_quotient_conformity(CFunction.callback(lambda x: x / 2.0), 2.0)


def test_parse_model():
    assert isinstance(sr.parse_model("so"), sr.SystemOptimum)
    ue = sr.parse_model("ue")
    assert isinstance(ue, sr.QuotientModel) and ue.c.kind == "constant"
    lin = sr.parse_model("linear:0.5")
    assert lin.c.kind == "linear" and lin.c.param == 0.5
    th = sr.parse_model("quotient:tanh:2")
    assert th.c.kind == "tanh" and th.c.param == 2.0
    for bad in ("nope", "linear:x", "quotient:tanh", "linear:"):
        with pytest.raises(sr.ModelError):
            sr.parse_model(bad)


def test_quotient_equation_is_strictly_decreasing():
    rng = random.Random(32)
    for _ in range(50):
        d = rng.choice([1.0, 2.0, 5.0])
        parts = random_parts(rng, d)
        c = rng.choice([CFunction.constant(1.0), CFunction.linear(0.5),
                        CFunction.tanh(1.0)])
        alt, orig, shared = part_costs(parts)
        sh = sr.eval_cost(shared, d)

        def f(x):
            return (sr.eval_cost(orig, d - x) + sh
                    - c.value(x, d) * (sr.eval_cost(alt, x) + sh))

        vals = [f(i * d / 200) for i in range(201)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ue_interior_split_equalizes_per_agent_costs():
    rng = random.Random(33)
    ue = CFunction.constant(1.0)
    seen_interior = 0
    for _ in range(200):
        d = rng.choice([1.0, 2.0, 5.0, 10.0])
        parts = random_parts(rng, d)
        res = quotient_split(parts, d, ue)
        if res.boundary == "interior":
            seen_interior += 1
            assert res.per_agent_alt == pytest.approx(res.per_agent_orig, rel=1e-8)
    assert seen_interior > 50


def test_so_split_beats_random_splits_and_other_models():
    rng = random.Random(34)
    for _ in range(50):
        d = rng.choice([1.0, 2.0, 5.0])
        parts = random_parts(rng, d)
        best = so_split(parts, d)
        for _ in range(1000):
            x = rng.uniform(0, d)
            assert best.cost <= cost_at(parts, d, x) + 1e-9 * max(1, best.cost)
        for c in (CFunction.constant(1.0), CFunction.linear(1.0)):
            other = quotient_split(parts, d, c)
            assert best.cost <= other.cost + 1e-9 * max(1, best.cost)


def g_p(x, d, c):
    return (d - x) * c.value(x, d) + x


def g_q(x, d, c):
    frac = x / c.value(x, d) if x > 0 else 0.0
    return d + frac - x


def test_split_factorization_identities():
    # C equals g_P(x)*(alt-side) for x > 0 and g_Q(x)*(orig-side) for x < d
    rng = random.Random(35)
    for _ in range(200):
        d = rng.choice([1.0, 2.0, 5.0])
        parts = random_parts(rng, d)
        c = rng.choice([CFunction.constant(1.0), CFunction.linear(0.5),
                        CFunction.linear(1.0), CFunction.tanh(2.0)])
        res = quotient_split(parts, d, c)
        alt, orig, shared = part_costs(parts)
        sh = sr.eval_cost(shared, d)
        alt_side = sr.eval_cost(alt, res.x) + sh
        orig_side = sr.eval_cost(orig, d - res.x) + sh
        if res.x > 0:
            assert res.cost == pytest.approx(g_p(res.x, d, c) * alt_side, rel=1e-8)
        else:
            assert res.cost <= g_p(res.x, d, c) * alt_side + 1e-8
        if res.x < d:
            assert res.cost == pytest.approx(g_q(res.x, d, c) * orig_side, rel=1e-8)
        else:
            assert res.cost <= g_q(res.x, d, c) * orig_side + 1e-8


def test_core_inequalities_on_dominated_pairs():
    rng = random.Random(36)
    for _ in range(100):
        d = rng.choice([1.0, 2.0, 5.0])
        p1, p2, q_cost = dominated_pair(rng, d)
        alt1, orig1, shared1 = part_costs(record_parts(p1, q_cost))
        alt2, orig2, shared2 = part_costs(record_parts(p2, q_cost))
        sh1 = sr.eval_cost(shared1, d)
        sh2 = sr.eval_cost(shared2, d)
        x1, x2 = sorted([rng.uniform(0, d), rng.uniform(0, d)])
        left = sr.eval_cost(alt1, x1) + sh1
        right = sr.eval_cost(alt2, x2) + sh2
        assert left <= right + 1e-9 * max(1, abs(right))
        x1b, x2b = x2, x1  # now x1b >= x2b
        left = sr.eval_cost(orig1, d - x1b) + sh1
        right = sr.eval_cost(orig2, d - x2b) + sh2
        assert left <= right + 1e-9 * max(1, abs(right))


def test_dominated_pairs_never_score_worse():
    # smaller-scale version of the acceptance conformity sweep
    rng = random.Random(37)
    models = [sr.SystemOptimum(), sr.user_equilibrium(),
              sr.linear_model(0.5), sr.linear_model(1.0)]
    for _ in range(60):
        d = rng.choice([1.0, 2.0, 5.0])
        p1, p2, q_cost = dominated_pair(rng, d)
        for model in models:
            parts1 = record_parts(p1, q_cost)
            parts2 = record_parts(p2, q_cost)
            c1 = model.split(parts1, d, p1).cost
            c2 = model.split(parts2, d, p2).cost
            assert c1 <= c2 + 1e-8 * max(1, abs(c2))


def reference_f(parts, d, c):
    """The generic F(x) closure of quotient_split, for every control function:
    the reference the specialised closures must match bit for bit, on the
    part cost functions of the sums."""
    alt, orig, shared = part_costs(parts)
    shared_d = sr.eval_cost(shared, d)

    def f(x):
        return (sr.eval_cost(orig, d - x) + shared_d
                - c.value(x, d) * (sr.eval_cost(alt, x) + shared_d))
    return f


def reference_quotient_split(parts, d, c):
    from saproute.psychmodels import BISECT_MAX_ITER, BISECT_REL_TOL, _result
    c.validate(d)
    f = reference_f(parts, d, c)
    if f(0.0) < 0.0:
        return _result(parts, d, 0.0)
    if f(d) > 0.0:
        return _result(parts, d, d)
    lo, hi = 0.0, d
    tol = BISECT_REL_TOL * d
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return _result(parts, d, 0.5 * (lo + hi))


def _bits(res):
    return (res.x.hex(), res.cost.hex(), res.per_agent_alt.hex(),
            res.per_agent_orig.hex(), res.boundary)


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@pytest.mark.parametrize("spec", ["ue", "linear:0.5", "linear:1", "linear:3",
                                  "quotient:tanh:2", "quotient:tanh:0.3"])
def test_specialised_quotient_kernels_match_generic_closure_bit_for_bit(mode, spec):
    rng = random.Random(f"{mode} {spec}")
    c = sr.parse_model(spec).c

    def cost():
        # log-uniform over six decades, some zero slopes: all three
        # boundaries occur
        slope = 0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3, 3)
        return sr.CostFn(mode, slope, 10 ** rng.uniform(-3, 3))

    seen = {"interior": 0, "clamped-0": 0, "clamped-d": 0}
    for _ in range(600):
        d = rng.choice([1.0, 2.0, 5.0, 10.0, 1e-3, 2000.0, rng.uniform(0.01, 100)])
        parts = split_parts(cost(), cost(), cost())
        kernel, generic = _quotient_f(parts, d, c), reference_f(parts, d, c)
        for x in (0.0, d, rng.uniform(0, d), rng.uniform(0, d)):
            assert kernel(x).hex() == generic(x).hex()
        got = quotient_split(parts, d, c)
        assert _bits(got) == _bits(reference_quotient_split(parts, d, c))
        seen[got.boundary] += 1
    with pytest.raises(sr.NetworkError):   # a negative flow, as before
        quotient_split(parts, -1.0, c)
    if c.kind != "constant":
        # c(0) = 0, so F(0) > 0 and no split can clamp to 0
        assert seen.pop("clamped-0") == 0
    assert min(seen.values()) >= 20, seen


BRANCH_DEMANDS = (1.0, 2.0, 5.0, 10.0, 2000.0, 1e-3, 1e6)


def branch_cases(rng, mode, d):
    """(name, parts) for each branch of quotient_split's sign bounds."""
    def cost():
        return (0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3, 3),
                10 ** rng.uniform(-3, 3))
    (a1, b1), (a2, b2), (a3, b3) = cost(), cost(), cost()
    shared_d = sr.eval_cost(sr.CostFn(mode, a3, b3), d)
    for name, sums in (("any", (a1, b1, a2, b2)),
                       ("P(0) below 0", (a1, -shared_d * (1.0 + rng.random()), a2, b2)),
                       ("P = Q", (0.0, 0.0, 0.0, 0.0)),
                       ("no P\\Q slope", (0.0, b1, a2, b2)),
                       ("no Q\\P slope", (a1, b1, 0.0, b2)),
                       ("slopes a bit apart", (a1, b1, math.nextafter(a1, math.inf), b2)),
                       ("a2 an ulp below 0", (a1, b1, math.nextafter(0.0, -1.0), b2))):
        yield name, SplitParts(mode, *sums, a3, b3)


QUOTIENT_SPECS = ["ue", "linear:0.5", "linear:1", "linear:3", "quotient:tanh:2", "callback"]


def control(spec):
    if spec == "callback":
        return CFunction.callback(lambda x: 0.5 + math.atan(x) / 4)
    return sr.parse_model(spec).c


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@pytest.mark.parametrize("spec", QUOTIENT_SPECS)
def test_quotient_split_is_the_plain_loops_on_every_branch(mode, spec):
    rng = random.Random(f"branches {mode} {spec}")
    c = control(spec)
    bounded = {}    # per case: how often F was proved non-increasing
    for _ in range(30):
        for d in BRANCH_DEMANDS + (rng.uniform(0.01, 100),):
            for name, parts in branch_cases(rng, mode, d):
                got = quotient_split(parts, d, c)
                assert _bits(got) == _bits(reference_quotient_split(parts, d, c)), \
                    (name, parts, d)
                f = _quotient_f(parts, d, c)
                monotone = _monotone_root(parts, d, c, f(0.0), f(d)) is not None
                bounded[name] = bounded.get(name, 0) + monotone
    if c.kind in ("tanh", "callback"):
        assert set(bounded.values()) == {0}
    else:
        assert bounded.pop("a2 an ulp below 0") == 0
        if c.kind == "linear":
            # c(x)*P(x) falls as x rises while P(x) < 0
            assert bounded.pop("P(0) below 0") == 0
        assert min(bounded.values()) > 0, bounded
    # P = Q: under ue F is 0 everywhere, so every midpoint's sign is known
    # and the split ends at 0; under linear:1 F(d) = 0 and the root is d
    parts = SplitParts(mode, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    if spec == "ue":
        assert quotient_split(parts, 2.0, c).x < 1e-11
    if spec == "linear:1":
        assert 2.0 - 1e-11 < quotient_split(parts, 2.0, c).x < 2.0


def counting_closures(make_f, count):
    """``make_f``, with every closure it makes adding its calls to count[0]."""
    def make(*args):
        f = make_f(*args)

        def counted(x):
            count[0] += 1
            return f(x)
        return counted
    return make


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
@pytest.mark.parametrize("spec", ["quotient:tanh:2", "quotient:tanh:0.3", "callback"])
def test_a_split_whose_f_is_not_proved_monotone_calls_f_as_the_plain_loop_does(
        monkeypatch, mode, spec):
    rng = random.Random(f"calls {mode} {spec}")
    c = control(spec)
    calls, plain_calls = [0], [0]
    monkeypatch.setattr(sr.psychmodels, "_quotient_f", counting_closures(_quotient_f, calls))
    monkeypatch.setattr(sys.modules[__name__], "reference_f",
                        counting_closures(reference_f, plain_calls))
    interior = 0
    for _ in range(20):
        for d in BRANCH_DEMANDS + (rng.uniform(0.01, 100),):
            for name, parts in branch_cases(rng, mode, d):
                calls[0] = plain_calls[0] = 0
                got = quotient_split(parts, d, c)
                reference_quotient_split(parts, d, c)
                assert calls == plain_calls, (name, parts, d)
                interior += got.boundary == "interior"
    assert interior >= 200, interior
