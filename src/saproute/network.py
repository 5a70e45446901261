"""Road network model: congestion cost functions, graphs, and file ingestion.

A ``Network`` is held once, in the flat per-node and per-edge arrays the
searches read, validated and written by ``Network.from_arrays`` from edge
columns; ``Network.build`` is its front end for edges given as ``CostFn``s.
``Edge`` objects are a view built only when a caller asks for them.

Cost functions come in two closed families, selected once per network:

* quadratic ``a*x**2 + b`` -- the canonical congestion shape (BPR with
  exponent 2 maps onto it),
* affine ``b*x + c`` -- used for instances whose edges are linear in the
  flow, e.g. the subset-sum reduction networks.

Both families are closed under addition and two distinct members cross at
most once on ``[0, inf)``, which is what makes the two-point criteria
vector ``(tau(0), tau(d))`` an exact Pareto representation of the pointwise
order on ``[0, d]``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf, isfinite
from typing import NamedTuple

QUADRATIC = "quadratic"
AFFINE = "affine"

BPR_ALPHA = 0.15


class NetworkError(ValueError):
    """Raised for malformed network/route input or inconsistent queries."""


def _check_mode(mode) -> None:
    if mode not in (QUADRATIC, AFFINE):
        raise NetworkError(f"unknown cost mode {mode!r}")


class CostFn(NamedTuple):
    """A congestion cost function tau(x) = slope*x**2 + base (quadratic mode)
    or tau(x) = slope*x + base (affine mode).

    ``base`` is always tau(0).  ``slope`` is the single coefficient that
    orders the derivatives within the family: quadratic derivatives 2*a*x
    are ordered by a, affine derivatives are the constant b.

    A ``NamedTuple`` because a network built from cost functions makes one
    per edge, and it builds in about half a frozen dataclass's time.  So a
    ``CostFn`` equals, unpacks and hashes as ``(mode, slope, base)``.
    """

    mode: str
    slope: float
    base: float

    @staticmethod
    def quadratic(a: float, b: float) -> "CostFn":
        # written so that NaN, which fails every comparison, fails them too
        if not 0.0 <= a < inf:
            raise NetworkError(f"quadratic congestion coefficient a={a} must be finite and >= 0")
        if not 0.0 < b < inf:
            raise NetworkError(f"quadratic free-flow time b={b} must be finite and > 0")
        return CostFn(QUADRATIC, float(a), float(b))

    @staticmethod
    def affine(b: float, c: float) -> "CostFn":
        if not (0.0 <= b < inf and 0.0 <= c < inf):
            raise NetworkError(f"affine coefficients b={b}, c={c} must be finite and >= 0")
        if b == 0 and c == 0:
            raise NetworkError("affine edge with b=0 and c=0 is a zero cost function")
        return CostFn(AFFINE, float(b), float(c))


def bpr_to_costfn(length: float, speed: float, capacity: float) -> CostFn:
    """Convert a BPR-style edge (length/speed * (1 + alpha*(x/cap)**2),
    alpha = ``BPR_ALPHA``) into a quadratic CostFn.  The exponent 2 is the
    one that fits the quadratic family.
    """
    if not (0.0 < length < inf and 0.0 < speed < inf and 0.0 < capacity < inf):
        raise NetworkError("bpr parameters length, speed, capacity must be finite and > 0")
    free_flow = length / speed
    return CostFn.quadratic(free_flow * BPR_ALPHA / capacity**2, free_flow)


def add_cost(t1: CostFn, t2: CostFn) -> CostFn:
    if t1.mode != t2.mode:
        raise NetworkError(f"cost mode mismatch: {t1.mode} vs {t2.mode}")
    return CostFn(t1.mode, t1.slope + t2.slope, t1.base + t2.base)


def eval_cost(t: CostFn, x: float) -> float:
    if x < 0:
        raise NetworkError(f"flow x={x} must be >= 0")
    if t.mode == QUADRATIC:
        return t.slope * x * x + t.base
    return t.slope * x + t.base


def demand_power(mode: str, d: float) -> float:
    """tau(d) - tau(0) = slope * demand_power(mode, d)."""
    return d * d if mode == QUADRATIC else d


def pareto_point(t: CostFn, d: float) -> tuple[float, float]:
    """(tau(0), tau(d)): componentwise order of these pairs is exactly the
    pointwise order of the functions on [0, d]."""
    if d <= 0:
        raise NetworkError(f"demand d={d} must be > 0")
    return (t.base, t.base + t.slope * demand_power(t.mode, d))


def derivative_coeff(t: CostFn) -> float:
    """Pareto representation of the derivative family (dimension 1)."""
    return t.slope


@dataclass(frozen=True)
class Edge:
    index: int
    tail: object
    head: object
    cost: CostFn


@dataclass(frozen=True)
class Network:
    """Immutable directed multigraph with one cost mode for all edges.

    Node ids can be any hashable, mutually orderable values (strings when
    loaded from a file).  Parallel edges are allowed and are distinguished
    by their index.

    The network is stored in the flat form the searches read.  Edge e runs
    from ``tails[e]`` to ``heads[e]`` with coefficients ``slopes[e]`` and
    ``bases[e]``.  Nodes are numbered 0..n-1 in declaration order
    (``index``); ``out[i]`` lists (head index, edge, base, slope) for each
    edge leaving node i and ``rev[i]`` lists (tail index, edge, slope, base)
    for each edge entering it, both in edge order.  ``edges`` gives ``Edge``
    objects, built on first use.
    """

    mode: str
    nodes: tuple
    tails: tuple
    heads: tuple
    slopes: tuple
    bases: tuple
    index: dict = field(compare=False, repr=False)
    out: list = field(compare=False, repr=False)
    rev: list = field(compare=False, repr=False)
    coords: dict = field(default_factory=dict, compare=False)
    # (source, target, load) -> (shortest Path or None, its summed CostFn),
    # filled by solvers.baseline_sp; a network never changes, so neither do they
    _baselines: dict = field(default_factory=dict, compare=False, repr=False)
    # target index -> (slope, base) distances to the target, the A* bound
    # filled by mcsp._astar_bound; read only, never extended
    _bounds: dict = field(default_factory=dict, compare=False, repr=False)
    # {banned edges: out without them}, the last detour search adjacency
    # built by mcsp.search_adjacency; one entry at most
    _adjacency: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def from_arrays(mode, nodes, tails, heads, slopes, bases, coords=None):
        """The validating constructor: edge e runs from ``tails[e]`` to
        ``heads[e]`` with coefficients ``slopes[e]`` and ``bases[e]``."""
        _check_mode(mode)
        node_tuple = tuple(nodes)
        index = {v: i for i, v in enumerate(node_tuple)}
        if len(index) != len(node_tuple):
            raise NetworkError("duplicate node id")
        tails, heads, slopes, bases = tuple(tails), tuple(heads), tuple(slopes), tuple(bases)
        if not len(tails) == len(heads) == len(slopes) == len(bases):
            raise NetworkError("edge columns of unequal length")
        out: list = [[] for _ in node_tuple]
        rev: list = [[] for _ in node_tuple]
        for i, (tail, head, a, b) in enumerate(zip(tails, heads, slopes, bases)):
            try:
                ti = index[tail]
                hi = index[head]
            except KeyError:
                missing = head if tail in index else tail
                raise NetworkError(
                    f"dangling node reference {missing!r} in edge {tail!r}->{head!r}") from None
            if ti == hi:
                raise NetworkError(f"self-loop at node {tail!r}")
            # what the searches rely on: every edge adds a finite amount >= 0
            # to each criterion and a positive one to tau(d); NaN fails too
            if not (0.0 <= a < inf and 0.0 <= b < inf and (a > 0.0 or b > 0.0)):
                raise NetworkError(f"edge {tail!r}->{head!r} coefficients {a!r}, {b!r} "
                                   "must be finite, >= 0 and not both 0")
            out[ti].append((hi, i, b, a))
            rev[hi].append((ti, i, a, b))
        return Network(mode, node_tuple, tails, heads, slopes, bases, index, out, rev,
                       dict(coords or {}))

    @staticmethod
    def build(mode, nodes, edges, coords=None):
        """edges: iterable of (tail, head, CostFn); ``from_arrays`` validates."""
        _check_mode(mode)
        tails, heads, slopes, bases = [], [], [], []
        for tail, head, cost in edges:
            if cost.mode != mode:
                raise NetworkError(f"edge {tail!r}->{head!r} mode {cost.mode} in {mode} network")
            tails.append(tail)
            heads.append(head)
            slopes.append(cost.slope)
            bases.append(cost.base)
        return Network.from_arrays(mode, nodes, tails, heads, slopes, bases, coords)

    def has_node(self, v) -> bool:
        return v in self.index

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        mode = self.mode
        return tuple(Edge(i, tail, head, CostFn(mode, a, b)) for i, (tail, head, a, b)
                     in enumerate(zip(self.tails, self.heads, self.slopes, self.bases)))

    def drop_edges(self, edge_ids) -> tuple["Network", tuple[int, ...]]:
        """Copy of the network without the given edge indices.

        Returns (network, old_ids) where old_ids[i] is the index the i-th
        surviving edge had in this network.
        """
        dropped = frozenset(edge_ids)
        old_ids = tuple(e for e in range(len(self.tails)) if e not in dropped)
        tails, heads, slopes, bases = ([column[e] for e in old_ids] for column in
                                       (self.tails, self.heads, self.slopes, self.bases))
        return Network.from_arrays(self.mode, self.nodes, tails, heads, slopes, bases,
                                   self.coords), old_ids


@dataclass(frozen=True)
class Path:
    """A walk given by its edge index sequence in a fixed network.

    Parallel edges make vertex sequences ambiguous, so edges are the
    identity; the vertex tuple is derived and cached for display and
    tie-breaking.
    """

    vertices: tuple
    edge_ids: tuple[int, ...]

    @staticmethod
    def from_edges(net: Network, edge_ids) -> "Path":
        edge_ids = tuple(edge_ids)
        if not edge_ids:
            raise NetworkError("empty edge list")
        tails, heads = net.tails, net.heads
        verts = [tails[edge_ids[0]]]
        for eid in edge_ids:
            if tails[eid] != verts[-1]:
                raise NetworkError(f"edge {eid} tail {tails[eid]!r} does not continue {verts[-1]!r}")
            verts.append(heads[eid])
        return Path(tuple(verts), edge_ids)

    @staticmethod
    def from_vertices(net: Network, vertices) -> "Path":
        """Resolve a vertex sequence to edges; ambiguous consecutive pairs
        (parallel edges) resolve to the first-declared edge."""
        vertices = tuple(vertices)
        if len(vertices) < 2:
            return Path(vertices, ())
        ids = []
        for u, v in zip(vertices, vertices[1:]):
            ui, vi = net.index.get(u), net.index.get(v)
            if ui is None or vi is None:
                missing = u if ui is None else v
                raise NetworkError(f"unknown node {missing!r} in route")
            # out lists edges in index order, so the first one is the lowest
            eid = next((eid for hi, eid, _, _ in net.out[ui] if hi == vi), None)
            if eid is None:
                raise NetworkError(f"no edge {u!r}->{v!r} in network")
            ids.append(eid)
        return Path(vertices, tuple(ids))

    def is_simple(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def cost_fn(self, net: Network) -> CostFn:
        """Sum of the edges' cost functions, first to last, as folding
        ``add_cost`` over them would add them."""
        slopes, bases = net.slopes, net.bases
        slope = base = 0.0
        for eid in self.edge_ids:
            slope += slopes[eid]
            base += bases[eid]
        return CostFn(net.mode, slope, base)

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]


@dataclass(frozen=True)
class Route:
    """An origin-destination route with the demand it carries."""

    path: Path
    demand: float

    def __post_init__(self):
        if not 0.0 < self.demand < inf:
            raise NetworkError(f"route demand {self.demand} must be finite and > 0")


def _parse_kv(tokens, line_no, allowed):
    vals = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetworkError(f"line {line_no}: expected key=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        if key not in allowed:
            raise NetworkError(f"line {line_no}: unknown key {key!r}")
        if key in vals:
            raise NetworkError(f"line {line_no}: repeated key {key!r}")
        vals[key] = _parse_number(raw, line_no)
    return vals


def _parse_number(raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise NetworkError(f"line {line_no}: bad number {raw!r}") from None
    if not isfinite(value):
        raise NetworkError(f"line {line_no}: number {raw!r} is not finite")
    return value


def parse_network(text: str) -> Network:
    """Parse the line-oriented network format.

    ::

        # comment
        mode quadratic            (or: mode affine)
        node <id> [<lon> <lat>]
        edge <tail> <head> a=<f> b=<f>      (quadratic coefficients)
        edge <tail> <head> b=<f> c=<f>      (affine coefficients)
        edge <tail> <head> bpr len=<f> speed=<f> cap=<f>
    """
    mode = None
    nodes: list = []
    coords: dict = {}
    edges: list = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "mode":
            if mode is not None:
                raise NetworkError(f"line {line_no}: duplicate mode declaration")
            if len(tokens) != 2 or tokens[1] not in (QUADRATIC, AFFINE):
                raise NetworkError(f"line {line_no}: mode must be quadratic or affine")
            mode = tokens[1]
        elif kind == "node":
            if len(tokens) not in (2, 4):
                raise NetworkError(f"line {line_no}: node takes an id and optional lon lat")
            nodes.append(tokens[1])
            if len(tokens) == 4:
                coords[tokens[1]] = (_parse_number(tokens[2], line_no),
                                     _parse_number(tokens[3], line_no))
        elif kind == "edge":
            if mode is None:
                raise NetworkError(f"line {line_no}: edge before mode declaration")
            if len(tokens) < 4:
                raise NetworkError(f"line {line_no}: edge needs tail, head and coefficients")
            tail, head = tokens[1], tokens[2]
            if tokens[3] == "bpr":
                if mode != QUADRATIC:
                    raise NetworkError(f"line {line_no}: bpr edges require quadratic mode")
                vals = _parse_kv(tokens[4:], line_no, ("len", "speed", "cap"))
                if set(vals) != {"len", "speed", "cap"}:
                    raise NetworkError(f"line {line_no}: bpr edge needs len=, speed=, cap=")
                try:
                    cost = bpr_to_costfn(vals["len"], vals["speed"], vals["cap"])
                except NetworkError as exc:
                    raise NetworkError(f"line {line_no}: {exc}") from None
            else:
                keys = ("a", "b") if mode == QUADRATIC else ("b", "c")
                vals = _parse_kv(tokens[3:], line_no, keys)
                if set(vals) != set(keys):
                    raise NetworkError(
                        f"line {line_no}: {mode} edge needs {keys[0]}= and {keys[1]}=")
                try:
                    if mode == QUADRATIC:
                        cost = CostFn.quadratic(vals["a"], vals["b"])
                    else:
                        cost = CostFn.affine(vals["b"], vals["c"])
                except NetworkError as exc:
                    raise NetworkError(f"line {line_no}: {exc}") from None
            edges.append((tail, head, cost))
        else:
            raise NetworkError(f"line {line_no}: unknown directive {kind!r}")
    if mode is None:
        raise NetworkError("missing mode declaration")
    return Network.build(mode, nodes, edges, coords)


def parse_route(text: str, net: Network) -> Route:
    """Parse a route file: ``route <d> <v1> <v2> ... <vq>``."""
    route = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "route":
            raise NetworkError(f"line {line_no}: unknown directive {tokens[0]!r}")
        if route is not None:
            raise NetworkError(f"line {line_no}: multiple routes (one OD pair per instance)")
        if len(tokens) < 4:
            raise NetworkError(f"line {line_no}: route needs a demand and >= 2 vertices")
        demand = _parse_number(tokens[1], line_no)
        path = Path.from_vertices(net, tokens[2:])
        if not path.is_simple():
            raise NetworkError(f"line {line_no}: route repeats a vertex")
        route = Route(path, demand)
    if route is None:
        raise NetworkError("route file contains no route")
    return route


def format_network(net: Network) -> str:
    """Serialize a network back into the line-oriented file format."""
    lines = [f"mode {net.mode}"]
    for v in net.nodes:
        if v in net.coords:
            lon, lat = net.coords[v]
            lines.append(f"node {v} {lon!r} {lat!r}")
        else:
            lines.append(f"node {v}")
    names = ("a", "b") if net.mode == QUADRATIC else ("b", "c")
    for tail, head, slope, base in zip(net.tails, net.heads, net.slopes, net.bases):
        lines.append(f"edge {tail} {head} {names[0]}={slope!r} {names[1]}={base!r}")
    return "\n".join(lines) + "\n"


def format_route(route: Route) -> str:
    verts = " ".join(str(v) for v in route.path.vertices)
    return f"route {route.demand!r} {verts}\n"
