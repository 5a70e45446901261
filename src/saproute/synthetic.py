"""Synthetic benchmark networks.

The grid fixture models a city block pattern with a fast corridor across
the middle: the single-agent shortest route concentrates on the corridor,
which congests badly once demand climbs into the hundreds, and the parallel
streets (same capacity, lower speed) become worthwhile relief.  With equal
capacities everywhere the congestion sensitivity of a route scales with its
free-flow time, which keeps the equilibrium split close to the system-
optimal one at high demand while the linear model overshoots it.
"""
from __future__ import annotations

import random

from .network import BPR_ALPHA, QUADRATIC, Network, NetworkError, Route
from .solvers import baseline_sp

CORRIDOR_SPEED = 25.0   # m/s
CORRIDOR_CAP = 120.0    # flow units
STREET_SPEED = 16.0
STREET_CAP = 120.0
BLOCK_LEN = 100.0


def grid_network(width: int, height: int, seed: int = 0,
                 corridor_row: int | None = None) -> Network:
    """Directed width x height grid (both directions on every block).

    Horizontal edges on ``corridor_row`` (default: middle row) are fast and
    low-capacity; everything else is a regular street.  Node id of cell
    (row, col) is row*width + col.

    Each edge's coefficients come from ``bpr_to_costfn``'s float operations,
    inlined in the same order (free flow ``length / speed``, then slope
    ``free_flow * BPR_ALPHA / capacity**2``) so that no ``CostFn`` is built;
    ``Network.from_arrays`` validates them.
    """
    if corridor_row is None:
        corridor_row = height // 2
    elif not 0 <= corridor_row < height:
        raise NetworkError(f"corridor_row={corridor_row} outside the grid's rows 0..{height - 1}")
    corridor = (CORRIDOR_SPEED, CORRIDOR_CAP**2)
    street = (STREET_SPEED, STREET_CAP**2)
    tails, heads, kinds = [], [], []    # kinds: each edge's (speed, capacity**2)
    for r in range(height):
        horizontal = corridor if r == corridor_row else street
        for c in range(width):
            u = r * width + c
            if c + 1 < width:
                tails += (u, u + 1)
                heads += (u + 1, u)
                kinds += (horizontal, horizontal)
            if r + 1 < height:
                tails += (u, u + width)
                heads += (u + width, u)
                kinds += (street, street)
    uniform = random.Random(seed).uniform
    bases = [BLOCK_LEN * uniform(0.9, 1.1) / speed for speed, _ in kinds]
    slopes = [free_flow * BPR_ALPHA / cap_sq for free_flow, (_, cap_sq) in zip(bases, kinds)]
    return Network.from_arrays(QUADRATIC, range(width * height), tails, heads, slopes, bases)


def corridor_instance(width: int, height: int, demand: float, seed: int = 0,
                      hops: int | None = None) -> tuple[Network, Route]:
    """Grid plus an original route along the corridor.

    The route is the single-agent shortest path between two corridor nodes
    ``hops`` columns apart (default: full width), which follows the fast
    corridor by construction.  It is found as ``baseline_sp``'s load-1
    baseline, which the network then keeps for every solve on the route.
    """
    if hops is None:
        hops = width - 1
    if not 1 <= hops <= width - 1:
        raise NetworkError(f"hops={hops} outside 1..{width - 1}, the corridor's length")
    net = grid_network(width, height, seed)
    row = height // 2
    start_col = (width - 1 - hops) // 2
    s = row * width + start_col
    t = row * width + start_col + hops
    # the cost baseline_sp reports goes unused; demand 1 leaves a bad demand
    # to Route's own check and message
    q, _ = baseline_sp(net, s, t, 1.0, 1.0)
    return net, Route(q, demand)
