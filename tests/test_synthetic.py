import math
import random

import pytest

import saproute as sr
from saproute import solvers, synthetic
from saproute.synthetic import corridor_instance, grid_network

from conftest import SOLVERS


def reference_grid(width, height, seed=0, corridor_row=None):
    """The grid built edge by edge: one ``bpr_to_costfn`` per edge, then
    ``Network.build``."""
    rng = random.Random(seed)
    if corridor_row is None:
        corridor_row = height // 2
    edges = []

    def add(u, v, on_corridor):
        length = synthetic.BLOCK_LEN * rng.uniform(0.9, 1.1)
        if on_corridor:
            cost = sr.bpr_to_costfn(length, synthetic.CORRIDOR_SPEED, synthetic.CORRIDOR_CAP)
        else:
            cost = sr.bpr_to_costfn(length, synthetic.STREET_SPEED, synthetic.STREET_CAP)
        edges.append((u, v, cost))

    for r in range(height):
        for c in range(width):
            u = r * width + c
            if c + 1 < width:
                add(u, u + 1, r == corridor_row)
                add(u + 1, u, r == corridor_row)
            if r + 1 < height:
                add(u, u + width, False)
                add(u + width, u, False)
    return sr.Network.build(sr.QUADRATIC, range(width * height), edges)


@pytest.mark.parametrize("width, height, seed, corridor_row",
                         [(16, 16, seed, None) for seed in range(1, 13)]
                         + [(1, 7, 3, None), (7, 1, 4, None), (1, 1, 5, None),
                            (9, 6, 2, 0), (9, 6, 2, 5), (6, 9, 8, 8)])
def test_grid_network_equals_the_edge_by_edge_build(width, height, seed, corridor_row):
    net = grid_network(width, height, seed, corridor_row)
    ref = reference_grid(width, height, seed, corridor_row)
    assert net == ref
    assert (net.out, net.rev, net.index) == (ref.out, ref.rev, ref.index)
    # == compares floats by value; the coefficients are the same bits too
    assert [x.hex() for x in net.slopes + net.bases] == \
        [x.hex() for x in ref.slopes + ref.bases]


def test_grid_network_builds_no_costfn(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a CostFn was built")

    monkeypatch.setattr(sr.CostFn, "__new__", refuse)
    net = grid_network(16, 16, 1)
    assert len(net.tails) == 960
    kept, old_ids = net.drop_edges(range(0, 960, 3))
    assert len(old_ids) == 640 and kept.tails == tuple(net.tails[e] for e in old_ids)


@pytest.mark.parametrize("row", [-1, 16, 40])
def test_grid_network_refuses_a_corridor_row_outside_the_grid(row):
    with pytest.raises(sr.NetworkError, match=f"corridor_row={row} outside"):
        grid_network(16, 16, 1, corridor_row=row)


@pytest.mark.parametrize("hops", [20, 16, 0, -3])
def test_corridor_instance_refuses_hops_the_corridor_cannot_take(hops):
    with pytest.raises(sr.NetworkError, match=f"hops={hops} outside 1..15"):
        corridor_instance(16, 16, 2000.0, 1, hops=hops)


@pytest.mark.parametrize("hops", [1, 10, 15, None])
def test_corridor_route_runs_along_the_corridor(hops):
    net, route = corridor_instance(16, 16, 2000.0, 1, hops=hops)
    span = 15 if hops is None else hops
    s, t = route.path.source, route.path.target
    assert (s // 16, t // 16) == (8, 8)
    assert t - s == span


@pytest.mark.parametrize("demand", [-1.0, 0.0, math.nan, math.inf])
def test_corridor_instance_refuses_a_demand_outside_0_to_inf(demand):
    with pytest.raises(sr.NetworkError, match="route demand"):
        corridor_instance(16, 16, demand, 1, hops=10)


def test_the_corridor_route_is_the_load_1_baseline_the_solves_reuse(monkeypatch):
    net, route = corridor_instance(16, 16, 2000.0, 1, hops=10)
    loads = []
    real = solvers.scalar_shortest

    def counting(net, s, t, flow):
        loads.append(flow)
        return real(net, s, t, flow)

    monkeypatch.setattr(solvers, "scalar_shortest", counting)
    for variant, algorithm in SOLVERS:
        sr.solve(sr.SapInstance(net, route, sr.parse_model("ue"), variant, algorithm),
                 threads=1)
    assert loads == [2000.0]    # the d-baseline, once; never the load-1 one


def test_a_one_column_grid_has_no_corridor_route():
    with pytest.raises(sr.NetworkError, match="hops=0 outside 1..0"):
        corridor_instance(1, 5, 100.0, 1)
