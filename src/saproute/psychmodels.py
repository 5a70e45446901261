"""Driver route-choice models and the overall-cost machinery.

Given an original route Q carrying demand d and a suggested alternative P,
a model decides the flow x on P; the remaining d - x stays on Q.  The
overall travel time of that split is

    C(x) = x * tau_{P minus Q}(x) + (d - x) * tau_{Q minus P}(d - x)
         + d * tau_{P and Q}(d)

in agent-seconds.  The System Optimum minimizes C directly; the Quotient
family instead equates the per-agent cost ratio of Q over P with a
non-decreasing control function c(x) (c == 1 is the User Equilibrium,
c(x) = c*x/d the Linear model, c(x) = tanh(a*x/d) interpolates between
them); custom plugins may return an arbitrary fraction of d.  ``score``
picks the candidate of least overall time, splitting candidates in order
of ``cost_floor``, a bound that holds under every model, and only while
one can still win.  A candidate is a path record, as
``dominance.label_path`` gives it: (vertices, edge ids, slope, base,
Q-slope, Q-base, vector).  Its split sums are the slope and base of P
minus Q, of Q minus P and of P and Q.  Its floor reads them straight from
the record, and only a candidate that is split gets them as a
``SplitParts`` (``record_parts``), so scoring builds no cost function and
no ``SplitParts`` for a candidate it skips.

``quotient_split`` bisects F, the quotient condition without division,
and calls F only at midpoints whose sign is not yet known.  Where F, as
computed in floats, is provably non-increasing in x (``_monotone_root``:
both slopes >= 0, and for the linear model tau_{P minus Q}(0) +
tau_{P and Q}(d) >= 0), two probes around an estimate of the root settle
almost every midpoint's sign, and the result is the plain bisection's bit
for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .network import QUADRATIC, CostFn, check_demand

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200
CONFORMITY_GRID = 10_000
CALLBACK_FD_STEP = 1e-6  # relative to d
FLOOR_MARGIN = 1e-9  # relative to the best cost: score's skip rule
NEWTON_STEPS = 8     # at most, for the root estimate of a linear-c split
INF = math.inf


class ModelError(ValueError):
    """Invalid model specification or plug-in behaviour."""


class NoAlternativeError(RuntimeError):
    """Raised when scoring receives an empty candidate set."""


class SplitParts(NamedTuple):
    """A candidate's split sums: the cost mode, and the slope and base of
    tau over P minus Q (alt_), over Q minus P (orig_) and over P and Q
    (shared_)."""

    mode: str
    alt_slope: float
    alt_base: float
    orig_slope: float
    orig_base: float
    shared_slope: float
    shared_base: float


class SplitResult(NamedTuple):
    """A split of d: x on P at overall cost ``cost``, the per-agent costs
    of P and of Q there, and whether x was clamped to an end of [0, d]."""

    x: float
    cost: float
    per_agent_alt: float
    per_agent_orig: float
    boundary: str  # "interior" | "clamped-0" | "clamped-d"


def record_parts(rec, q_cost: CostFn) -> SplitParts:
    """The split sums of a path record (``dominance.label_path``'s form)
    against Q's cost function ``q_cost``."""
    _, _, slope, base, q_slope, q_base, _ = rec
    return SplitParts(q_cost.mode, slope - q_slope, base - q_base,
                      q_cost.slope - q_slope, q_cost.base - q_base, q_slope, q_base)


def _not_finite(d: float) -> ModelError:
    """The one error of every split entry point whose overall cost C, or
    the quotient split's F, overflows or is NaN where it is evaluated: at
    0 and d, or at the split's flow."""
    return ModelError(f"split of d={d} is not finite: the cost sums overflow or hold NaN")


def _taus(mode, a1, b1, a2, b2, a3, b3, d: float, x: float) -> tuple:
    """tau over P minus Q at x, over Q minus P at d - x and over P and Q at
    d, in eval_cost's float operations, from SplitParts' fields."""
    z = d - x
    if mode == QUADRATIC:
        return a1 * x * x + b1, a2 * z * z + b2, a3 * d * d + b3
    return a1 * x + b1, a2 * z + b2, a3 * d + b3


def _cost(mode, a1, b1, a2, b2, a3, b3, d: float, x: float) -> float:
    """C(x), the overall travel time of sending x of d over P: x times
    _taus' first, d - x times its second and d times its third, in the
    same float operations."""
    z = d - x
    if mode == QUADRATIC:
        return x * (a1 * x * x + b1) + z * (a2 * z * z + b2) + d * (a3 * d * d + b3)
    return x * (a1 * x + b1) + z * (a2 * z + b2) + d * (a3 * d + b3)


def cost_at(parts: SplitParts, d: float, x: float) -> float:
    # written so that NaN, which fails every comparison, fails it too
    if not 0 <= x <= d:
        raise ModelError(f"flow x={x} outside [0, {d}]")
    return _cost(*parts, d, x)


def _result(parts: SplitParts, d: float, x: float) -> SplitResult:
    boundary = "interior"
    if x <= 0.0:
        x, boundary = 0.0, "clamped-0"
    elif x >= d:
        x, boundary = d, "clamped-d"
    alt, orig, shared = _taus(*parts, d, x)
    # _cost's operations on the same taus
    cost = x * alt + (d - x) * orig + d * shared
    if not -INF < cost < INF:
        raise _not_finite(d)
    return SplitResult(x, cost, alt + shared, orig + shared, boundary)


def _stationary_points(mode, a1, b1, a2, b2, d: float) -> tuple:
    """The real roots of C' for P minus Q's (slope, base) = (a1, b1) and Q
    minus P's (a2, b2).  The first, if any, is where C' rises through zero,
    so with both slopes >= 0 it is C's minimizer on [0, d] once clamped
    into it; with no root C is monotone.

    In quadratic mode C is cubic, so C' is a quadratic solved in closed
    form; in affine mode C is quadratic with one stationary point.
    """
    if mode == QUADRATIC:
        # C'(x) = 3*a1*x^2 + b1 - 3*a2*(d-x)^2 - b2
        qa = 3.0 * (a1 - a2)
        qb = 6.0 * a2 * d
        qc = b1 - b2 - 3.0 * a2 * d * d
        if qa == 0.0:
            return (-qc / qb,) if qb != 0.0 else ()
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return ()
        root = math.sqrt(disc)
        if qb > 0.0 and 1e6 * abs(qa * qc) < qb * qb:
            # -qb + root cancels when a1 and a2 nearly tie: the same root
            # from the product of the roots, qc / qa
            rising = 2.0 * qc / (-qb - root)
        else:
            rising = (-qb + root) / (2.0 * qa)
        return rising, (-qb - root) / (2.0 * qa)
    # C'(x) = 2*(a1+a2)*x + b1 - b2 - 2*a2*d
    if a1 + a2 > 0.0:
        return ((2.0 * a2 * d + b2 - b1) / (2.0 * (a1 + a2)),)
    return ()


def so_split(parts: SplitParts, d: float) -> SplitResult:
    """Global minimizer of C on [0, d] by exact stationary-point analysis:
    the least cost among 0, d and the stationary points inside."""
    check_demand(d)
    best_x, best_c = 0.0, _cost(*parts, d, 0.0)
    c_d = _cost(*parts, d, d)
    if not (-INF < best_c < INF and -INF < c_d < INF):
        raise _not_finite(d)
    if c_d < best_c:
        best_x, best_c = d, c_d
    for x in _stationary_points(*parts[:5], d):
        if 0.0 <= x <= d:
            c = _cost(*parts, d, x)
            if c < best_c or (c == best_c and x < best_x):
                best_x, best_c = x, c
    return _result(parts, d, best_x)


def cost_floor(parts: SplitParts, d: float) -> float:
    """A lower bound on C(x) over all x in [0, d], so on the cost of every
    split of the candidate, whatever the model.

    C'' is 6*a1*x + 6*a2*(d-x) (quadratic) or 2*(a1+a2) (affine), >= 0
    on [0, d], so C is convex there and lies above its tangent at any y:
    C(x) >= C(y) + C'(y)*(x-y) >= C(y) - max(C'(y)*y, -C'(y)*(d-y)).  y is
    the clamped rising stationary point, where the floor meets so_split's
    cost up to rounding; an inexact y only loosens it.  With no stationary
    point C is monotone and the floor is its lesser end.

    ``score`` computes every floor straight from the record's sums with
    these float operations (``_floor``), so the floors are
    ``cost_floor``'s bit for bit and no ``SplitParts`` is built for a
    candidate that is never split.
    """
    return _floor(*parts, d)


def _floor(mode, a1, b1, a2, b2, a3, b3, d: float) -> float:
    """``cost_floor`` of SplitParts' fields."""
    points = _stationary_points(mode, a1, b1, a2, b2, d)
    if not points:
        c_0 = _cost(mode, a1, b1, a2, b2, a3, b3, d, 0.0)
        c_d = _cost(mode, a1, b1, a2, b2, a3, b3, d, d)
        if not (-INF < c_0 < INF and -INF < c_d < INF):
            raise _not_finite(d)
        return min(c_0, c_d)
    y = points[0]
    # min(max(y, 0.0), d) and max(rate * y, -rate * z), NaN and -0.0
    # included, without the builtins' calls
    if y < 0.0:
        y = 0.0
    elif y > d:
        y = d
    z = d - y
    if mode == QUADRATIC:
        rate = 3.0 * a1 * y * y + b1 - 3.0 * a2 * z * z - b2
    else:
        rate = 2.0 * a1 * y + b1 - 2.0 * a2 * z - b2
    up, down = rate * y, -rate * z
    floor = _cost(mode, a1, b1, a2, b2, a3, b3, d, y) - (down if down > up else up)
    if not -INF < floor < INF:
        raise _not_finite(d)
    return floor


def quotient_split(parts: SplitParts, d: float, c: "CFunction") -> SplitResult:
    """Unique root of tau_Q-side(x) = c(x) * tau_P-side(x), clamped to the
    boundary when no root exists in [0, d].

    Solved on the division-free form
    F(x) = tau_{Q\\P}(d-x) + tau_{P&Q}(d) - c(x)*(tau_{P\\Q}(x) + tau_{P&Q}(d)),
    which is strictly decreasing whenever the instance is non-degenerate,
    so plain bisection is unconditionally safe.

    The loop is the plain bisection: the same midpoints, the same stop at
    1e-12*d or BISECT_MAX_ITER steps and the same result.  It keeps pos,
    the largest x known to have F(x) > 0, and neg, the smallest known to
    have F(x) <= 0, and calls F at a midpoint only when it lies strictly
    between them.
    - Where ``_monotone_root`` proves the F computed in floats
      non-increasing on [0, d], a midpoint at or below pos has F > 0 and
      one at or above neg has F <= 0, the signs F would give.  Two probes
      at r - tol and r + tol (those inside (0, d)) around its root
      estimate r set pos and neg before the loop, or neg = 0 when
      F(0) = 0, and the loop then calls F only at the midpoints between
      them.  A probe is an evaluation of F like any other, so r changes
      how often F is called, never a result.
    - Otherwise (tanh, callbacks, a slope below 0) the bounds come only
      from points where F was evaluated, which bisection never revisits,
      so F is called as often as in the plain loop.
    F(0) and F(d) must be finite (ModelError otherwise), which keeps NaN
    and inf out of the monotone path.  ``QuotientModel.split`` validates
    c once per demand and bisects with ``_quotient_root``.
    """
    check_demand(d)
    c.validate(d)
    return _quotient_root(parts, d, c)


def _quotient_root(parts: SplitParts, d: float, c: "CFunction") -> SplitResult:
    """``quotient_split`` for a demand and a c already validated."""
    f = _quotient_f(parts, d, c)
    f_0 = f(0.0)
    if not -INF < f_0 < INF:
        raise _not_finite(d)
    if f_0 < 0.0:
        return _result(parts, d, 0.0)
    f_d = f(d)
    if not -INF < f_d < INF:
        raise _not_finite(d)
    if f_d > 0.0:
        return _result(parts, d, d)
    lo, hi = 0.0, d
    tol = BISECT_REL_TOL * d
    pos, neg = (0.0 if f_0 > 0.0 else -1.0), d
    r = _monotone_root(parts, d, c, f_0, f_d)
    if r is not None:
        if f_0 == 0.0:
            neg = 0.0
        else:
            for x in (r - tol, r + tol):
                if 0.0 < x < d:
                    if f(x) > 0.0:
                        pos = x
                    else:
                        neg = x
                        break
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= pos:
            lo = mid
        elif mid >= neg:
            hi = mid
        elif f(mid) > 0.0:
            lo = pos = mid
        else:
            hi = neg = mid
    return _result(parts, d, 0.5 * (lo + hi))


def _monotone_root(parts: SplitParts, d: float, c: "CFunction", f_0: float, f_d: float):
    """An estimate of the root of quotient_split's F, or None unless the F
    that ``_quotient_f`` computes in floats is provably non-increasing in
    x on [0, d].

    IEEE-754 round-to-nearest is monotone: if u <= u' then fl(u op v) <=
    fl(u' op v) for +, - and, with v >= 0, for * and /.  F is
    A(x) - c(x)*P(x), with A = tau_{Q\\P}(d-x) + tau_{P&Q}(d) and
    P = tau_{P\\Q}(x) + tau_{P&Q}(d), so every rounded step keeps its
    direction when
    - the Q\\P slope a2 >= 0 (A does not rise as d - x falls),
    - the P\\Q slope a1 >= 0 (P does not fall as x rises), and
    - c is ``constant`` (k > 0), or ``linear`` with P(0) =
      b1 + tau_{P&Q}(d) >= 0, so that c(x) = k*x/d >= 0 and P(x) >= P(0)
      >= 0 both rise and so does their product.
    ``tanh`` (libm's tanh is not known to be monotone) and callbacks get
    None.  The caller has checked that F(0) and F(d) are finite, so every
    value of F in between is.

    The estimate is the closed-form root of the quadratic or linear F of
    the ``constant`` kind, or at most NEWTON_STEPS safeguarded Newton steps
    on the polynomial F of the ``linear`` kind.  It may be anything, NaN
    included: it only places quotient_split's probes.
    """
    if c.kind not in ("constant", "linear"):
        return None
    mode, a1, b1, a2, b2 = parts[:5]
    if not (a1 >= 0.0 and a2 >= 0.0):
        return None
    if c.kind == "linear":
        _, _, shared_d = _taus(*parts, d, d)
        p_0 = b1 + shared_d    # P(0)
        if not p_0 >= 0.0:
            return None
    if f_0 == 0.0:
        return 0.0
    k = c.param
    if c.kind == "constant":
        if mode == QUADRATIC:
            # F(x) = (a2 - k*a1)*x^2 - 2*a2*d*x + F(0): its root in [0, d],
            # in the form that does not cancel
            h = a2 * d
            den = h + math.sqrt(max(h * h - (a2 - k * a1) * f_0, 0.0))
        else:
            den = a2 + k * a1    # F(x) = F(0) - (a2 + k*a1)*x
        return f_0 / den if den > 0.0 else math.nan
    # F(x) = c3*x^3 + c2*x^2 + c1*x + F(0), kept inside [lo, hi], where
    # F(lo) > 0 >= F(hi)
    kd = k / d
    if mode == QUADRATIC:
        c3, c2, c1 = -kd * a1, a2, -2.0 * a2 * d - kd * p_0
    else:
        c3, c2, c1 = 0.0, -kd * a1, -a2 - kd * p_0
    lo, hi = 0.0, d
    x = d * f_0 / (f_0 - f_d)
    tol = BISECT_REL_TOL * d
    for _ in range(NEWTON_STEPS):
        fx = ((c3 * x + c2) * x + c1) * x + f_0
        if fx > 0.0:
            lo = x
        elif fx < 0.0:
            hi = x
        else:
            return x
        slope = (3.0 * c3 * x + 2.0 * c2) * x + c1
        step = x - fx / slope if slope < 0.0 else math.nan
        if abs(step - x) <= tol:
            return step
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


def _quotient_f(parts: SplitParts, d: float, c: "CFunction"):
    """F(x) of quotient_split.  For the built-in control functions it is one
    closure over the sums, with the float operations of the generic form in
    the same order, so every value is bit-identical."""
    if c.kind not in ("constant", "linear", "tanh"):
        def generic(x):
            alt, orig, shared_d = _taus(*parts, d, x)
            return orig + shared_d - c.value(x, d) * (alt + shared_d)
        return generic
    mode, a1, b1, a2, b2 = parts[:5]
    _, _, shared_d = _taus(*parts, d, d)
    k = c.param
    tanh = math.tanh
    if mode == QUADRATIC:
        if c.kind == "constant":
            return lambda x: (a2 * (d - x) * (d - x) + b2 + shared_d
                              - k * (a1 * x * x + b1 + shared_d))
        if c.kind == "linear":
            return lambda x: (a2 * (d - x) * (d - x) + b2 + shared_d
                              - k * x / d * (a1 * x * x + b1 + shared_d))
        return lambda x: (a2 * (d - x) * (d - x) + b2 + shared_d
                          - tanh(k * x / d) * (a1 * x * x + b1 + shared_d))
    if c.kind == "constant":
        return lambda x: (a2 * (d - x) + b2 + shared_d
                          - k * (a1 * x + b1 + shared_d))
    if c.kind == "linear":
        return lambda x: (a2 * (d - x) + b2 + shared_d
                          - k * x / d * (a1 * x + b1 + shared_d))
    return lambda x: (a2 * (d - x) + b2 + shared_d
                      - tanh(k * x / d) * (a1 * x + b1 + shared_d))


def custom_split(parts: SplitParts, d: float, fraction: float) -> SplitResult:
    check_demand(d)
    if not 0.0 <= fraction <= 1.0:
        raise ModelError(f"plug-in fraction {fraction} outside [0, 1]")
    return _result(parts, d, fraction * d)


@dataclass(frozen=True)
class CFunction:
    """Control function c(x) of the quotient family.

    kind is one of "constant", "linear", "tanh", "callback"; built-in kinds
    carry their parameter and an analytic derivative, callbacks get a
    central finite difference with step d * 1e-6.
    """

    kind: str
    param: float = 0.0
    fn: object = None

    @staticmethod
    def constant(kappa: float) -> "CFunction":
        return CFunction("constant", float(kappa))

    @staticmethod
    def linear(c: float) -> "CFunction":
        return CFunction("linear", float(c))

    @staticmethod
    def tanh(a: float) -> "CFunction":
        return CFunction("tanh", float(a))

    @staticmethod
    def callback(fn) -> "CFunction":
        return CFunction("callback", 0.0, fn)

    def value(self, x: float, d: float) -> float:
        if self.kind == "constant":
            return self.param
        if self.kind == "linear":
            return self.param * x / d
        if self.kind == "tanh":
            return math.tanh(self.param * x / d)
        return self.fn(x)

    def derivative(self, x: float, d: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "linear":
            return self.param / d
        if self.kind == "tanh":
            t = math.tanh(self.param * x / d)
            return self.param / d * (1.0 - t * t)
        h = d * CALLBACK_FD_STEP
        lo, hi = max(0.0, x - h), min(d, x + h)
        return (self.fn(hi) - self.fn(lo)) / (hi - lo)

    def validate(self, d: float) -> None:
        """c must be non-decreasing and non-negative on [0, d] with c(d) > 0."""
        if self.kind == "constant":
            if not 0.0 < self.param < math.inf:
                raise ModelError(f"constant c={self.param} must be finite and > 0")
            return
        if self.kind in ("linear", "tanh"):
            if not 0.0 < self.param < math.inf:
                raise ModelError(f"{self.kind} parameter {self.param} must be finite and > 0")
            return
        xs = [i * d / 256 for i in range(257)]
        vals = [self.fn(x) for x in xs]
        if not all(map(math.isfinite, vals)):
            raise ModelError("callback c is not finite on [0, d]")
        if vals[-1] <= 0:
            raise ModelError("callback c has c(d) <= 0")
        if any(v < 0 for v in vals):
            raise ModelError("callback c is negative on [0, d]")
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise ModelError("callback c is decreasing on [0, d]")


def check_quotient_conformity(c: CFunction, d: float) -> bool:
    """True iff c(d) <= 1 and c(x)*(1 - c(x)) - x*c'(x) <= 0 on a dense grid.

    These are the sufficient conditions for the quotient model to respect
    path dominance (dominating paths never score worse).
    """
    c.validate(d)
    if c.value(d, d) > 1.0:
        return False
    for i in range(CONFORMITY_GRID + 1):
        x = i * d / CONFORMITY_GRID
        cx = c.value(x, d)
        if cx * (1.0 - cx) - x * c.derivative(x, d) > 1e-9:
            return False
    return True


class SystemOptimum:
    """Agents distribute so that the overall travel time is minimal."""

    name = "so"

    def split(self, parts: SplitParts, d: float, candidate=None) -> SplitResult:
        return so_split(parts, d)


class QuotientModel:
    """Agents split so the cost ratio of Q over P equals c(x)."""

    def __init__(self, c: CFunction, name: str = "quotient"):
        self.c = c
        self.name = name
        self._valid = None  # the (c, d) validated last

    def split(self, parts: SplitParts, d: float, candidate=None) -> SplitResult:
        """``quotient_split``, with c validated once per demand: a solve
        splits its candidates with one c and one d, and a callback c is
        called 257 times by each validation."""
        if self._valid != (self.c, d):
            check_demand(d)
            self.c.validate(d)
            self._valid = (self.c, d)
        return _quotient_root(parts, d, self.c)


class CustomModel:
    """Plug-in model: fraction_fn(candidate, d) -> share of d routed to P.

    ``candidate`` is the path record ``score`` splits: (vertices, edge ids,
    slope, base, Q-slope, Q-base, vector), the sums of the path's cost
    functions and of its part on Q.
    """

    def __init__(self, fraction_fn, name: str = "custom"):
        self.fraction_fn = fraction_fn
        self.name = name

    def split(self, parts: SplitParts, d: float, candidate=None) -> SplitResult:
        return custom_split(parts, d, self.fraction_fn(candidate, d))


def user_equilibrium() -> QuotientModel:
    return QuotientModel(CFunction.constant(1.0), "ue")


def linear_model(c: float) -> QuotientModel:
    return QuotientModel(CFunction.linear(c), f"linear:{c:g}")


def tanh_model(a: float) -> QuotientModel:
    return QuotientModel(CFunction.tanh(a), f"quotient:tanh:{a:g}")


def parse_model(spec: str):
    """Model selection grammar: so | ue | linear:<c> | quotient:tanh:<a>."""
    parts = spec.split(":")
    try:
        if parts == ["so"]:
            return SystemOptimum()
        if parts == ["ue"]:
            return user_equilibrium()
        if len(parts) == 2 and parts[0] == "linear":
            return linear_model(float(parts[1]))
        if len(parts) == 3 and parts[0] == "quotient" and parts[1] == "tanh":
            return tanh_model(float(parts[2]))
    except ValueError as exc:
        raise ModelError(f"bad model spec {spec!r}: {exc}") from None
    raise ModelError(f"unknown model spec {spec!r}")


def score(candidates, q_cost: CostFn, d: float, model):
    """Pick the candidate with minimal overall travel time under the model.

    candidates: path records (Q itself may be among them).  Exact cost ties
    go to the lexicographically smaller (vertices, edges).
    Raises NoAlternativeError on an empty candidate set.

    Every candidate first gets ``cost_floor``, a lower bound on the cost of
    any split of it, computed from the record's sums with no
    ``SplitParts`` built; ``record_parts`` runs only for a candidate that
    is split.  Candidates are split in
    increasing order of floor, and scoring stops at the first whose floor
    exceeds the best cost so far by more than FLOOR_MARGIN relatively (a
    margin for the floors' rounding): that one and every later one cost
    more than the winner, so the pick is the exhaustive loop's.  The
    model's ``split`` (a plug-in's ``fraction_fn``) runs only for
    candidates that can still win.
    """
    mode, q_total_slope, q_total_base = q_cost
    ranked = []
    for cand in candidates:
        # record_parts' sums, not built into a SplitParts
        _, _, slope, base, q_slope, q_base, _ = cand
        floor = _floor(mode, slope - q_slope, base - q_base, q_total_slope - q_slope,
                       q_total_base - q_base, q_slope, q_base, d)
        ranked.append((floor, len(ranked), cand))
    if not ranked:
        raise NoAlternativeError("empty candidate set")
    ranked.sort()
    best_key = best = None
    for floor, _, cand in ranked:
        if best_key is not None and floor - best_key[0] > FLOOR_MARGIN * abs(best_key[0]):
            break
        split = model.split(record_parts(cand, q_cost), d, cand)
        key = (split.cost, cand[:2])
        if best_key is None or key < best_key:
            best_key, best = key, (cand, split)
    return best
