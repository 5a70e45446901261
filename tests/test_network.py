import random
import re

import pytest

import saproute as sr
from saproute.network import format_network, format_route, parse_network, parse_route

from conftest import random_costfn, tie_heavy_network


NETWORK_TEXT = """
# comment line
mode quadratic
node 1
node 2
edge 1 2 a=0.5 b=3
"""


def test_parse_minimal_network():
    net = parse_network(NETWORK_TEXT)
    assert net.mode == sr.QUADRATIC
    assert len(net.edges) == 1
    e = net.edges[0]
    assert (e.tail, e.head) == ("1", "2")
    assert sr.eval_cost(e.cost, 2.0) == 0.5 * 4 + 3


def test_parse_dangling_node():
    text = "mode quadratic\nnode 1\nedge 1 99 a=1 b=1\n"
    with pytest.raises(sr.NetworkError, match="dangling node"):
        parse_network(text)


def test_parse_bpr_edge():
    text = "mode quadratic\nnode a\nnode b\nedge a b bpr len=100 speed=10 cap=50\n"
    net = parse_network(text)
    cost = net.edges[0].cost
    assert cost.slope == pytest.approx(0.0006, rel=1e-12)
    assert cost.base == pytest.approx(10.0, rel=1e-12)


def test_parse_errors_report_line_numbers():
    with pytest.raises(sr.NetworkError, match="line 2"):
        parse_network("mode quadratic\nedge oops\n")
    with pytest.raises(sr.NetworkError, match="mode"):
        parse_network("node 1\nedge 1 1 a=1 b=1\n")
    with pytest.raises(sr.NetworkError, match="b=0"):
        parse_network("mode quadratic\nnode 1\nnode 2\nedge 1 2 a=1 b=0\n")
    with pytest.raises(sr.NetworkError):
        parse_network("mode quadratic\nmode affine\n")
    # a repeated key is refused, not overwritten by its last value
    with pytest.raises(sr.NetworkError, match="line 4: repeated key 'a'"):
        parse_network("mode quadratic\nnode u\nnode v\nedge u v a=1 a=2 b=3\n")
    with pytest.raises(sr.NetworkError, match="line 4: repeated key 'len'"):
        parse_network("mode quadratic\nnode u\nnode v\n"
                      "edge u v bpr len=1 len=5 speed=1 cap=1\n")


def test_affine_mode_keys_and_zero_rejection():
    net = parse_network("mode affine\nnode u\nnode v\nedge u v b=3 c=3\n")
    assert sr.eval_cost(net.edges[0].cost, 2.0) == 9.0
    with pytest.raises(sr.NetworkError):
        parse_network("mode affine\nnode u\nnode v\nedge u v b=0 c=0\n")


def test_bpr_to_costfn():
    cost = sr.bpr_to_costfn(100, 10, 50)
    assert cost.slope == pytest.approx(0.0006)
    assert cost.base == 10.0
    assert sr.eval_cost(cost, 50) == pytest.approx(11.5)
    with pytest.raises(sr.NetworkError):
        sr.bpr_to_costfn(0, 10, 50)


def test_add_cost():
    t = sr.add_cost(sr.CostFn.quadratic(1, 1), sr.CostFn.quadratic(2, 3))
    assert (t.slope, t.base) == (3, 4)
    affine = sr.CostFn.affine(4, 2)
    assert sr.add_cost(affine, sr.CostFn(sr.AFFINE, 0.0, 0.0)) == affine
    gadget = sr.add_cost(sr.CostFn.affine(5, 0), sr.CostFn.affine(0, 7))
    assert (gadget.slope, gadget.base) == (5, 7)
    with pytest.raises(sr.NetworkError, match="mode"):
        sr.add_cost(affine, sr.CostFn.quadratic(1, 1))


def test_a_costfn_equals_unpacks_and_hashes_as_its_fields():
    t = sr.CostFn.quadratic(3, 7)
    assert t == (sr.QUADRATIC, 3.0, 7.0)
    mode, slope, base = t
    assert (mode, slope, base) == (t.mode, t.slope, t.base)
    assert hash(t) == hash((sr.QUADRATIC, 3.0, 7.0))
    assert sr.CostFn.affine(2, 0) == (sr.AFFINE, 2.0, 0.0)


def test_eval_cost():
    assert sr.eval_cost(sr.CostFn.quadratic(0.0006, 10), 50) == pytest.approx(11.5)
    t = sr.CostFn.quadratic(3.7, 4.2)
    assert sr.eval_cost(t, 0) == 4.2
    assert sr.eval_cost(sr.CostFn.affine(3, 3), 2) == 9.0
    with pytest.raises(sr.NetworkError):
        sr.eval_cost(t, -1)


def test_pareto_point():
    assert sr.pareto_point(sr.CostFn.quadratic(1, 1), 2) == (1, 5)
    assert sr.pareto_point(sr.CostFn.quadratic(2, 1), 2) == (1, 9)
    assert sr.pareto_point(sr.CostFn(sr.QUADRATIC, 0.0, 0.0), 2) == (0, 0)
    with pytest.raises(sr.NetworkError):
        sr.pareto_point(sr.CostFn.quadratic(1, 1), 0)


def test_pareto_point_orders_like_the_functions():
    # (1,5) dominates (1,9) and indeed tau1 <= tau2 across [0, 2]
    t1, t2 = sr.CostFn.quadratic(1, 1), sr.CostFn.quadratic(2, 1)
    for k in range(1001):
        x = 2 * k / 1000
        assert sr.eval_cost(t1, x) <= sr.eval_cost(t2, x)


def test_derivative_coeff():
    assert sr.derivative_coeff(sr.CostFn.quadratic(3, 7)) == 3
    assert sr.derivative_coeff(sr.CostFn.affine(5, 1)) == 5
    t = sr.add_cost(sr.CostFn.quadratic(3, 7), sr.CostFn.quadratic(1, 2))
    assert sr.derivative_coeff(t) == 4


def test_pareto_point_additive_property():
    rng = random.Random(7)
    for _ in range(300):
        t1, t2 = random_costfn(rng), random_costfn(rng)
        d = rng.uniform(1e-3, 100)
        left = sr.pareto_point(sr.add_cost(t1, t2), d)
        p1, p2 = sr.pareto_point(t1, d), sr.pareto_point(t2, d)
        right = (p1[0] + p2[0], p1[1] + p2[1])
        assert left[0] == pytest.approx(right[0], rel=1e-12)
        assert left[1] == pytest.approx(right[1], rel=1e-12)


def test_dominance_soundness_property():
    # componentwise order of the two-point vectors iff pointwise order on [0, d]
    rng = random.Random(8)
    for _ in range(300):
        t1, t2 = random_costfn(rng, 0.0, 5.0), random_costfn(rng, 0.0, 5.0)
        d = rng.uniform(0.1, 20)
        p1, p2 = sr.pareto_point(t1, d), sr.pareto_point(t2, d)
        vec_le = p1[0] <= p2[0] and p1[1] <= p2[1]
        grid_le = all(
            sr.eval_cost(t1, i * d / 1000) <= sr.eval_cost(t2, i * d / 1000)
            + 1e-12 * max(1.0, sr.eval_cost(t2, i * d / 1000))
            for i in range(1001))
        assert vec_le == grid_le


def test_eval_cost_non_decreasing():
    rng = random.Random(9)
    for _ in range(100):
        t = random_costfn(rng, 0.0, 5.0)
        d = rng.uniform(0.1, 50)
        xs = [i * d / 200 for i in range(201)]
        vals = [sr.eval_cost(t, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def _via_build(mode, nodes, edges):
    return sr.Network.build(mode, nodes, [(tail, head, sr.CostFn(mode, a, b))
                                          for tail, head, a, b in edges])


def _via_arrays(mode, nodes, edges):
    tails, heads, slopes, bases = (list(column) for column in zip(*edges)) if edges \
        else ([], [], [], [])
    return sr.Network.from_arrays(mode, nodes, tails, heads, slopes, bases)


# both entry points, with edges given as (tail, head, slope, base)
CONSTRUCTORS = pytest.mark.parametrize("construct", [_via_build, _via_arrays],
                                       ids=["build", "from_arrays"])


@CONSTRUCTORS
@pytest.mark.parametrize("mode, nodes, edges, message", [
    (sr.QUADRATIC, [1, 2], [(1, 1, 1.0, 1.0)], "self-loop at node 1"),
    (sr.QUADRATIC, [1, 1], [], "duplicate node id"),
    (sr.QUADRATIC, [1, 2], [(1, 3, 1.0, 1.0)], "dangling node reference 3 in edge 1->3"),
    (sr.QUADRATIC, [1, 2], [(3, 2, 1.0, 1.0)], "dangling node reference 3 in edge 3->2"),
    ("cubic", [1, 2], [], "unknown cost mode 'cubic'"),
    ("cubic", [1, 2], [(1, 2, 1.0, 1.0)], "unknown cost mode 'cubic'"),
], ids=["self-loop", "duplicate", "dangling-head", "dangling-tail", "mode", "mode-with-edges"])
def test_network_build_invariants(construct, mode, nodes, edges, message):
    with pytest.raises(sr.NetworkError, match=f"^{re.escape(message)}$"):
        construct(mode, nodes, edges)


def test_network_build_checks_each_cost_mode():
    with pytest.raises(sr.NetworkError, match="edge 1->2 mode affine in quadratic network"):
        sr.Network.build(sr.QUADRATIC, [1, 2], [(1, 2, sr.CostFn.affine(1, 1))])
    with pytest.raises(sr.NetworkError, match="^unknown cost mode 'cubic'$"):
        sr.Network.build("cubic", [1, 2], [(1, 2, sr.CostFn.affine(1, 1))])


def test_from_arrays_refuses_columns_of_unequal_length():
    with pytest.raises(sr.NetworkError, match="unequal length"):
        sr.Network.from_arrays(sr.QUADRATIC, [1, 2], [1], [2], [1.0], [])


def test_drop_edges_keeps_original_indices():
    q = sr.CostFn.quadratic(1, 1)
    net = sr.Network.build(sr.QUADRATIC, [1, 2, 3],
                           [(1, 2, q), (2, 3, q), (1, 3, q)])
    reduced, old_ids = net.drop_edges({1})
    assert old_ids == (0, 2)
    assert [(e.tail, e.head) for e in reduced.edges] == [(1, 2), (1, 3)]


def test_path_from_vertices_parallel_edges():
    net = sr.Network.build(sr.QUADRATIC, ["s", "t"],
                           [("s", "t", sr.CostFn.quadratic(1, 4)),
                            ("s", "t", sr.CostFn.quadratic(1, 1))])
    p = sr.Path.from_vertices(net, ["s", "t"])
    assert p.edge_ids == (0,)  # first-declared edge wins
    with pytest.raises(sr.NetworkError, match="no edge"):
        sr.Path.from_vertices(net, ["t", "s"])


def test_parse_route():
    net = parse_network("mode quadratic\nnode a\nnode b\nnode c\n"
                        "edge a b a=1 b=1\nedge b c a=1 b=1\n")
    route = parse_route("route 2.5 a b c\n", net)
    assert route.demand == 2.5
    assert route.path.vertices == ("a", "b", "c")
    with pytest.raises(sr.NetworkError):
        parse_route("route -1 a b\n", net)
    with pytest.raises(sr.NetworkError, match="unknown node"):
        parse_route("route 1 a z\n", net)
    with pytest.raises(sr.NetworkError):
        parse_route("", net)


@pytest.mark.parametrize("make", [
    lambda: sr.CostFn.quadratic(float("nan"), 1),
    lambda: sr.CostFn.quadratic(1, float("inf")),
    lambda: sr.CostFn.affine(float("nan"), 1),
    lambda: sr.CostFn.affine(1, float("-inf")),
    lambda: sr.bpr_to_costfn(100, float("inf"), 50),
    lambda: sr.Route(sr.Path(("a", "b"), (0,)), float("nan")),
])
def test_non_finite_numbers_are_rejected(make):
    # NaN passes every range check written as a comparison
    with pytest.raises(sr.NetworkError, match="finite"):
        make()


@pytest.mark.parametrize("slope, base", [
    (float("nan"), 1.0), (1.0, float("inf")), (-1.0, 5.0), (0.0, 0.0)])
@CONSTRUCTORS
def test_network_build_rejects_costs_the_searches_cannot_take(construct, slope, base):
    # CostFn's own constructor does not validate; build and from_arrays check
    # what the label searches need to terminate
    with pytest.raises(sr.NetworkError, match=re.escape(
            f"edge 'a'->'b' coefficients {slope!r}, {base!r} must be finite, >= 0 and not both 0")):
        construct(sr.QUADRATIC, ["a", "b"], [("a", "b", slope, base)])


@pytest.mark.parametrize("line", [
    "edge a b a=nan b=1", "edge a b a=1 b=inf", "node c nan 52.5",
    "edge a b bpr len=100 speed=nan cap=50",
])
def test_parse_network_rejects_non_finite_numbers(line):
    text = f"mode quadratic\nnode a\nnode b\n{line}\n"
    with pytest.raises(sr.NetworkError, match="line 4: number .* is not finite"):
        parse_network(text)


def test_parse_route_rejects_non_finite_demand():
    net = parse_network("mode quadratic\nnode s\nnode t\nedge s t a=1 b=1\n")
    for demand in ("nan", "inf"):
        with pytest.raises(sr.NetworkError, match="line 1: number"):
            parse_route(f"route {demand} s t\n", net)


def test_network_holds_the_adjacency_the_searches_read():
    a = parse_network(NETWORK_TEXT)
    b = parse_network(NETWORK_TEXT)
    assert a.index == {"1": 0, "2": 1}
    assert a.out == [[(1, 0, 3.0, 0.5)], []]
    assert a.rev == [[], [(0, 0, 0.5, 3.0)]]
    assert (a.tails, a.heads, a.slopes, a.bases) == (("1",), ("2",), (0.5,), (3.0,))
    # an equal but distinct network holds its own
    assert (b.out, b.rev) == (a.out, a.rev) and b.out is not a.out
    assert "edges" not in vars(a)          # no Edge object was needed


@pytest.mark.parametrize("mode", [sr.QUADRATIC, sr.AFFINE])
def test_arrays_agree_with_the_edge_view_on_tie_heavy_networks(mode):
    rng = random.Random(f"arrays-{mode}")
    for trial in range(100):
        net = tie_heavy_network(rng, mode)
        edges = net.edges
        assert [(e.index, e.tail, e.head, e.cost) for e in edges] == \
            [(i, tail, head, sr.CostFn(mode, a, b)) for i, (tail, head, a, b)
             in enumerate(zip(net.tails, net.heads, net.slopes, net.bases))]
        for v, i in net.index.items():
            assert net.nodes[i] == v
            assert net.out[i] == [(net.index[e.head], e.index, e.cost.base, e.cost.slope)
                                  for e in edges if e.tail == v]
            assert net.rev[i] == [(net.index[e.tail], e.index, e.cost.slope, e.cost.base)
                                  for e in edges if e.head == v]
        # == and hash read the mode, the nodes and the edges in order, not
        # the coordinates
        triples = [(e.tail, e.head, e.cost) for e in edges]
        same = sr.Network.build(mode, net.nodes, triples, {net.nodes[0]: (1.0, 2.0)})
        assert same == net and hash(same) == hash(net), trial
        last = edges[-1].cost
        other = sr.Network.build(mode, net.nodes, triples[:-1] + [
            (edges[-1].tail, edges[-1].head, sr.CostFn(mode, last.slope + 1, last.base))])
        assert other != net, trial
        if triples[::-1] != triples:
            assert sr.Network.build(mode, net.nodes, triples[::-1]) != net, trial
        # the file format names nodes by strings
        text = format_network(net)
        again = parse_network(text)
        assert format_network(again) == text
        assert [(e.tail, e.head, e.cost) for e in again.edges] == \
            [(str(tail), str(head), cost) for tail, head, cost in triples], trial


def test_format_round_trip():
    text = ("mode quadratic\nnode a 13.1 52.2\nnode b 13.4 52.3\n"
            "edge a b a=0.25 b=7.5\n")
    net = parse_network(text)
    again = parse_network(format_network(net))
    assert again.coords == net.coords
    assert [(e.tail, e.head, e.cost) for e in again.edges] == \
        [(e.tail, e.head, e.cost) for e in net.edges]
    route = parse_route("route 3 a b\n", net)
    assert parse_route(format_route(route), net) == route
