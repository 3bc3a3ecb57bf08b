"""Finite metric semantics.

Types denote finite metric spaces: the unit is a one-point space, tensors
are products with the sum metric, function types are the (exhaustively
enumerated, guarded) spaces of non-expansive maps with the sup metric, and
the grade-n modality scales all distances by n (with the grade-0 modality
collapsing to a point).  A model keeps the space of every type it
interprets, so each carrier is enumerated, and its size guarded, once per
model.  Terms denote non-expansive maps evaluated as tables over the
context product space; a lambda in function position is evaluated at its
argument only, not tabulated over its whole domain.

Distances are integers.  Every space has one positive denominator q and
an integer distance idist(a, b) = q * dist(a, b): q is 1 for a timed
space and a point, the lcm of the denominators of an explicit table, the
lcm of the factors' q for a product (each factor's distances counted
q // q_f times), and the base's or the codomain's q for a scaled or a
function space.  No space here holds an infinite or symbolic distance,
so enumeration, the edge checks, hom distances, the metric check and the
law audit compare ints, cross-multiplied by the other space's q where
two spaces meet; dist(a, b) = Fraction(idist(a, b), q), and hom_distance
returns a Fraction, only where a distance leaves this module.

interp compiles a derivation into closures once, so a context point costs
one closure call per node.  MetMap checks non-expansiveness on the edges
of its domain only (FinMetSpace.edges): consecutive ticks of a timed
space, the pairs of a product that move one factor along one of its
edges, a scaled space's base edges, none for a point, and every pair
otherwise.  An edge's weight is an integer in its domain's units, and
each domain's idist is the shortest-path metric of its edges, so the
check is exact whenever the codomain satisfies the triangle inequality,
as every space built here does: along a shortest path x = p0, ..., pk =
y, cod.idist(f x, f y) <= sum of cod.idist(f pi, f pi+1), and each term
times dom.q is at most its edge weight times cod.q, so
cod.idist(f x, f y) * dom.q <= dom.idist(x, y) * cod.q (path metrics:
Bridson and Haefliger, Metric Spaces of Non-positive Curvature).  A
timed or tensor context of N points then costs O(N) integer comparisons,
not O(N^2).
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from . import syntax as S
from .parser import print_type
from .quantale import INF, QuantaleError, get_quantale
from .typecheck import Derivation, infer


class ModelError(ValueError):
    pass


class GuardExceeded(ModelError):
    pass


DEFAULT_GUARD = 10 ** 6


def guard_limit() -> int:
    return int(os.environ.get("GVLAM_GUARD", DEFAULT_GUARD))


# ---------------------------------------------------------------------------
# Spaces

class FinMetSpace:
    """Base class; points are hashable, distances exact rationals kept as
    integers over the space's denominator q: idist(a, b) = q * dist(a, b).
    """

    q = 1

    @property
    def points(self) -> tuple:
        raise NotImplementedError

    def idist(self, a, b) -> int:
        raise NotImplementedError

    def dist(self, a, b) -> Fraction:
        return Fraction(self.idist(a, b), self.q)

    @functools.cached_property
    def indices(self) -> dict:
        """Each point's position in points."""
        return {q: i for i, q in enumerate(self.points)}

    def index(self, p) -> int:
        return self.indices[p]

    def edges(self):
        """Weighted edges (i, j, idist(points[i], points[j])), i < j, whose
        shortest-path metric is idist.  Every pair by default, which is
        exact for any metric."""
        pts, idist = self.points, self.idist
        for i, x in enumerate(pts):
            for j in range(i + 1, len(pts)):
                yield i, j, idist(x, pts[j])

    def check_metric(self):
        pts, d = self.points, self.idist
        for x in pts:
            if d(x, x) != 0:
                raise ModelError(f"dist({x},{x}) != 0")
        for x in pts:
            for y in pts:
                if x != y and d(x, y) == 0:
                    raise ModelError(f"distinct points {x},{y} at distance 0")
                if d(x, y) != d(y, x):
                    raise ModelError(f"asymmetric distance at {x},{y}")
        for x in pts:
            for y in pts:
                for z in pts:
                    if d(x, z) > d(x, y) + d(y, z):
                        raise ModelError(
                            f"triangle inequality fails at {x},{y},{z}")


class ExplicitSpace(FinMetSpace):
    """A table of int or Fraction distances; q is the lcm of their
    denominators."""

    def __init__(self, points, dist, name=None):
        self._points = tuple(points)
        self._dist = dict(dist)
        for v in self._dist.values():
            if not isinstance(v, (int, Fraction)):
                raise QuantaleError(f"not a quantale value: {v!r}")
        self.q = math.lcm(*(v.denominator for v in self._dist.values()))
        self._idist = {pair: v.numerator * (self.q // v.denominator)
                       for pair, v in self._dist.items()}
        self.name = name

    @property
    def points(self):
        return self._points

    def idist(self, a, b):
        if a == b:
            return 0
        return self._idist[(a, b)]

    def __repr__(self):
        return self.name or f"<space {len(self._points)} points>"


class OnePointSpace(FinMetSpace):
    @property
    def points(self):
        return ((),)

    def idist(self, a, b):
        return 0

    def edges(self):
        return ()

    def __repr__(self):
        return "I"


class ProductSpace(FinMetSpace):
    """n-ary product with the sum metric; points are n-tuples.  q is the
    lcm of the factors' q, and a factor's distances count q // q_f times
    in these units."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.q = math.lcm(*(f.q for f in self.factors))
        self._scales = tuple(self.q // f.q for f in self.factors)
        self._points = None

    @property
    def points(self):
        if self._points is None:
            sizes = 1
            for f in self.factors:
                sizes *= len(f.points)
                if sizes > guard_limit():
                    raise GuardExceeded(
                        f"product space larger than {guard_limit()} points")
            self._points = tuple(
                itertools.product(*(f.points for f in self.factors)))
        return self._points

    def idist(self, a, b):
        # Equal coordinates are at distance 0 in a metric: skip them.
        out = 0
        for f, s, x, y in zip(self.factors, self._scales, a, b):
            if x != y:
                out += s * f.idist(x, y)
        return out

    def edges(self):
        """The pairs that move one factor along one of its edges: the
        shortest-path metric of this product of graphs is the sum of the
        factors' metrics.  Points are in row-major order, so moving factor
        f from i to j moves the index from base + i * s to base + j * s,
        s the number of points of the factors after f."""
        total = len(self.points)
        if not total:
            return
        stride = total
        for f, scale in zip(self.factors, self._scales):
            block = stride
            stride //= len(f.points)
            for i, j, d in f.edges():
                a, b, d = i * stride, j * stride, d * scale
                for top in range(0, total, block):
                    for k in range(top, top + stride):
                        yield k + a, k + b, d

    def __repr__(self):
        return " (x) ".join(repr(f) for f in self.factors)


class ScaledSpace(FinMetSpace):
    """Distances multiplied by a grade n >= 1 (the dilation by n), in the
    base's units."""

    def __init__(self, base: FinMetSpace, n: int):
        if n < 1:
            raise ModelError("scaling grade must be at least 1")
        self.base = base
        self.n = n
        self.q = base.q

    @property
    def points(self):
        return self.base.points

    def idist(self, a, b):
        return self.n * self.base.idist(a, b)

    def edges(self):
        n = self.n
        return ((i, j, n * d) for i, j, d in self.base.edges())

    def __repr__(self):
        return f"!{self.n} {self.base!r}"


class FuncSpace(FinMetSpace):
    """Non-expansive maps dom -> cod with the sup metric, in cod's units.

    Elements are tuples of codomain points indexed parallel to dom.points;
    the carrier is enumerated on demand with backtracking and a size guard.
    """

    def __init__(self, dom: FinMetSpace, cod: FinMetSpace):
        self.dom = dom
        self.cod = cod
        self.q = cod.q
        self._points = None

    @property
    def points(self):
        if self._points is None:
            if len(self.cod.points) ** len(self.dom.points) > guard_limit():
                raise GuardExceeded(
                    f"function space {self!r} exceeds the "
                    f"{guard_limit()}-candidate guard "
                    f"(set GVLAM_GUARD to override)")
            self._points = tuple(enumerate_tables(self.dom, self.cod))
        return self._points

    def apply(self, table, x):
        return table[self.dom.index(x)]

    def idist(self, f, g):
        return max(map(self.cod.idist, f, g), default=0)

    def __repr__(self):
        return f"({self.dom!r} -o {self.cod!r})"


def enumerate_tables(dom: FinMetSpace, cod: FinMetSpace):
    """Backtracking enumeration of non-expansive tables, in point order.
    A table is pruned against the edges from each point to earlier ones,
    so a complete table has checked each edge of dom once, and the tables
    are those of the filtered product of cod.points over dom, in its
    order.  An edge of weight d allows cod distances up to d * cod.q //
    dom.q in cod's units: an integer exceeds a rational exactly when it
    exceeds its floor."""
    dpts, cpts = dom.points, cod.points
    earlier = [[] for _ in dpts]
    for i, j, d in dom.edges():
        earlier[j].append((i, d * cod.q // dom.q))
    idist = cod.idist
    table = []

    def extend(i):
        if i == len(dpts):
            yield tuple(table)
            return
        for y in cpts:
            for j, limit in earlier[i]:
                if idist(table[j], y) > limit:
                    break
            else:
                table.append(y)
                yield from extend(i + 1)
                table.pop()

    yield from extend(0)


# ---------------------------------------------------------------------------
# Maps

@dataclass
class MetMap:
    dom: FinMetSpace
    cod: FinMetSpace
    table: dict  # point -> point

    def __post_init__(self):
        """Non-expansive on the edges of dom, hence everywhere (see the
        module docstring); equal images are at distance 0.  Distances of
        dom and cod are compared cross-multiplied by the other's q."""
        pts = self.dom.points
        for x in pts:
            if x not in self.table:
                raise ModelError(f"map table missing point {x}")
        values = [self.table[x] for x in pts]
        idist, dq, cq = self.cod.idist, self.dom.q, self.cod.q
        for i, j, d in self.dom.edges():
            a, b = values[i], values[j]
            if a != b and idist(a, b) * dq > d * cq:
                raise ModelError(
                    f"map is expansive on the pair {pts[i]}, {pts[j]}")

    def __call__(self, x):
        return self.table[x]


def hom_distance(f: MetMap, g: MetMap) -> Fraction:
    if f.dom.points != g.dom.points:
        raise ModelError("hom distance requires a common domain")
    idist = f.cod.idist
    return Fraction(max((idist(f(x), g(x)) for x in f.dom.points),
                        default=0), f.cod.q)


# ---------------------------------------------------------------------------
# Models

class ModelAssignment:
    """Ground spaces plus (possibly schematic) operation tables."""

    def __init__(self, sig: S.Signature, grounds: dict, op_fn):
        """op_fn(name) returns a python function on points, or None."""
        self.sig = sig
        self.grounds = dict(grounds)
        self._op_fn = op_fn
        self._checked = {}
        self._spaces = {}

    def space(self, ty: S.TypeExpr) -> FinMetSpace:
        """The space of ty, built once per model: a function space is
        enumerated, and its size guarded, on its first use only."""
        sp = self._spaces.get(ty)
        if sp is None:
            sp = self._spaces[ty] = interp_type(self, ty)
        return sp

    def op(self, name):
        checked = self._checked.get(name)
        if checked is not None:
            return checked
        sort = self.sig.lookup(name)
        if sort is None:
            raise ModelError(f"operation {name} not in the signature")
        fn = self._op_fn(name)
        if fn is None:
            raise ModelError(f"model does not interpret operation {name}")
        arg_types, result = sort
        doms = [self.space(a) for a in arg_types]
        cod = self.space(result)
        dom = ProductSpace(doms)
        table = {pt: fn(*pt) for pt in dom.points}
        MetMap(dom, cod, table)  # non-expansiveness asserted here
        self._checked[name] = fn
        return fn


def interp_type(m: ModelAssignment, ty: S.TypeExpr) -> FinMetSpace:
    """The space ty denotes in m, built from m's memoised spaces of its
    component types."""
    match ty:
        case S.Ground(name):
            try:
                return m.grounds[name]
            except KeyError:
                raise ModelError(f"unknown ground type {name}") from None
        case S.UnitType():
            return OnePointSpace()
        case S.TensorType(a, b):
            return ProductSpace((m.space(a), m.space(b)))
        case S.LolliType(a, b):
            return FuncSpace(m.space(a), m.space(b))
        case S.BangType(g, a):
            if g is INF or not isinstance(g, int):
                raise ModelError(f"metric models need natural grades, "
                                 f"got {g!r}")
            if g == 0:
                return OnePointSpace()
            return modality_space(m.space(a), g)
    raise ModelError(f"unknown type {print_type(ty)}")


def _unit(env):
    return ()


def _compile(m: ModelAssignment, d: Derivation, slots: dict, size: int):
    """A closure from an environment tuple to the value of d, in which
    slots maps each variable in scope to its position and size is the
    tuple's length (a shadowing binder leaves its old slot unnamed).

    The model's spaces and operations are looked up here, once, in the
    order in which a walk of one point meets them, so a model that lacks
    one reports the same error; evaluating the closure at a point costs
    one call per node.  A premise whose value is dropped (the first of a
    unit let or a discard, the arguments of a grade-0 promotion) is
    compiled, for its lookups, but not run: evaluation is total once
    compiled."""
    term = d.conclusion.term
    ps = d.premises
    match term:
        case S.Var(x):
            return itemgetter(slots[x])
        case S.Star():
            return _unit
        case S.OpApp(op, _):
            fn = m.op(op)
            args = [_compile(m, p, slots, size) for p in ps]
            if len(args) == 1:
                a, = args
                return lambda env: fn(a(env))
            if len(args) == 2:
                a, b = args
                return lambda env: fn(a(env), b(env))
            return lambda env: fn(*[a(env) for a in args])
        case S.UnitLet(_, _) | S.Discard(_, _):
            _compile(m, ps[0], slots, size)
            return _compile(m, ps[1], slots, size)
        case S.TensorPair(_, _):
            a = _compile(m, ps[0], slots, size)
            b = _compile(m, ps[1], slots, size)
            return lambda env: (a(env), b(env))
        case S.TensorLet(_, _, _, _):
            val = _compile(m, ps[0], slots, size)
            body = _compile(m, ps[1], _bind(slots, size, ps[1], 2), size + 2)
            return lambda env: body(env + val(env))
        case S.Lambda(_, ty, _):
            pts = m.space(ty).points
            if not pts:
                return _unit
            body = _compile(m, ps[0], _bind(slots, size, ps[0], 1), size + 1)
            return lambda env: tuple([body(env + (p,)) for p in pts])
        case S.App(S.Lambda(_, ty, _), _):
            # The lambda's table would be read at one entry: evaluate its
            # body there instead.  Its domain is interpreted first, as for
            # the table, so a binder type the model lacks is reported as
            # such.
            fd, ad = ps
            m.space(ty)
            arg = _compile(m, ad, slots, size)
            inner = fd.premises[0]
            body = _compile(m, inner, _bind(slots, size, inner, 1), size + 1)
            return lambda env: body(env + (arg(env),))
        case S.App(_, _):
            fn = _compile(m, ps[0], slots, size)
            arg = _compile(m, ps[1], slots, size)
            index = m.space(ps[0].conclusion.type.arg).indices
            return lambda env: fn(env)[index[arg(env)]]
        case S.Promote(r, _, _, _, _):
            args = [_compile(m, p, slots, size) for p in ps[:-1]]
            if r == 0:
                return _unit
            body = ps[-1]
            inner = body.conclusion.context
            run = _compile(m, body, {inner[i][0]: i for i in range(len(args))},
                           len(args))
            return lambda env: run(tuple([a(env) for a in args]))
        case S.Derelict(_):
            return _compile(m, ps[0], slots, size)
        case S.Copy(n, k, _, _, _, _):
            val = _compile(m, ps[0], slots, size)
            body = _compile(m, ps[1], _bind(slots, size, ps[1], 2), size + 2)
            drop_x, drop_y = n == 0, k == 0

            def copy(env):
                v = val(env)
                return body(env + (() if drop_x else v, () if drop_y else v))
            return copy
    raise ModelError(f"unknown term node {term!r}")


def _bind(slots: dict, size: int, body: Derivation, count: int) -> dict:
    """slots with the last count variables of body's context, its
    binders, placed after the size entries of the environment."""
    ctx = body.conclusion.context
    return {**slots, **{ctx[i][0]: size + count + i
                        for i in range(-count, 0)}}


def interp(m: ModelAssignment, d: Derivation) -> MetMap:
    """Interpret a derivation as a non-expansive map out of the context:
    the derivation is compiled once, then run at each context point, a
    tuple in context order."""
    ctx = d.conclusion.context
    dom = ProductSpace(tuple(m.space(ty) for _, ty in ctx))
    cod = m.space(d.conclusion.type)
    pts = dom.points
    table = {}
    if pts:
        run = _compile(m, d, {x: i for i, (x, _) in enumerate(ctx)},
                       len(ctx))
        table = dict(zip(pts, map(run, pts)))
    return MetMap(dom, cod, table)  # constructor asserts non-expansiveness


def check_axiom(m: ModelAssignment, sig: S.Signature, ctx, lhs, rhs,
                bound) -> bool:
    """True iff the model distance between the sides is at most the label."""
    dl = infer(sig, ctx, lhs)
    dr = infer(sig, ctx, rhs)
    if dl.conclusion.type != dr.conclusion.type:
        raise ModelError("axiom sides have different types")
    distance = hom_distance(interp(m, dl), interp(m, dr))
    # The metric lattice reverses the numeric order: bound below distance
    # in the lattice is distance <= bound as numbers.
    return get_quantale("metric").leq(bound, distance)


def model_distance(m: ModelAssignment, sig: S.Signature, ctx, lhs, rhs):
    dl = infer(sig, ctx, lhs)
    dr = infer(sig, ctx, rhs)
    if dl.conclusion.type != dr.conclusion.type:
        raise ModelError("terms have different types")
    return hom_distance(interp(m, dl), interp(m, dr))


# ---------------------------------------------------------------------------
# The timed model

class TimedSpace(FinMetSpace):
    """The ticks 0, ..., n_max at distance |i - j|, in whole ticks."""

    def __init__(self, n_max: int):
        if n_max + 1 > guard_limit():
            raise GuardExceeded(
                f"timed({n_max}) has {n_max + 1} points, over the "
                f"{guard_limit()} guard (set GVLAM_GUARD to override)")
        self._points = tuple(range(n_max + 1))

    @property
    def points(self):
        return self._points

    def idist(self, a, b):
        return abs(a - b)

    def edges(self):
        """Consecutive ticks, one apart."""
        return ((i, i + 1, 1) for i in self._points[:-1])

    def __repr__(self):
        return f"timed({len(self._points) - 1})"


def timed_space(n_max: int) -> TimedSpace:
    return TimedSpace(n_max)


def timed_model(sig: S.Signature, n_max: int = 32,
                ground: str = "X") -> ModelAssignment:
    space = timed_space(n_max)

    def op_fn(name):
        if name.startswith("wait_") and name[len("wait_"):].isdigit():
            k = int(name[len("wait_"):])
            return lambda i: min(i + k, n_max)
        return None

    return ModelAssignment(sig, {ground: space}, op_fn)


# ---------------------------------------------------------------------------
# Comonad law checking

@dataclass
class LawReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def failures(self):
        return [c for c in self.checks if not c[1]]

    def summary(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            status = "ok" if ok else "FAIL"
            lines.append(f"{status:4s} {name}" + (f" ({detail})" if detail
                                                  else ""))
        for note in self.notes:
            lines.append(f"note {note}")
        return "\n".join(lines)


def modality_space(base: FinMetSpace, n: int) -> FinMetSpace:
    return OnePointSpace() if n == 0 else ScaledSpace(base, n)


def check_comonad_laws(grades, spaces) -> LawReport:
    """Exhaustive diagram checks for the graded modality on finite spaces.

    Verifies, pointwise on carriers: functoriality, the counit and
    coassociativity squares of the graded comultiplication, the comonoid
    laws of discard/copy, their interaction with the comultiplication, and
    the Lipschitz inequality over all enumerated non-expansive map pairs.
    Distances are compared as integers, cross-multiplied by the other
    space's q.
    """
    report = LawReport()
    grades = sorted(set(grades))
    spaces = list(spaces)

    for X in spaces:
        X.check_metric()

    # Counit: the grade-1 modality is the identity on distances.
    for X in spaces:
        report.record(f"counit-identity[{X!r}]",
                      _same_metric(X, modality_space(X, 1), X))

    # Comultiplication delta^{m,n}: E_{m*n} X -> E_m E_n X is the carrier
    # identity; distances must agree on the nose.
    for X in spaces:
        for m_ in grades:
            for n_ in grades:
                lhs = modality_space(X, m_ * n_)
                if m_ == 0 or n_ == 0:
                    # Both sides collapse to a point.
                    ok = isinstance(lhs, OnePointSpace)
                else:
                    rhs = modality_space(modality_space(X, n_), m_)
                    ok = _same_metric(X, lhs, rhs)
                report.record(f"comult[{m_},{n_}][{X!r}]", ok)

    # Counit squares: delta^{s,1} followed by the counit (both carrier
    # identities) is the identity; checked as distance equalities.
    for X in spaces:
        for s in grades:
            if s == 0:
                continue
            lhs = modality_space(X, s)
            via = modality_space(modality_space(X, 1), s)
            report.record(f"counit-square[{s}][{X!r}]",
                          _same_metric(X, lhs, via))

    # Coassociativity: the two routes E_{rst} X -> E_r E_s E_t X, through
    # E_r E_{st} X and through E_{rs} E_t X, are carrier identities, so
    # all three spaces must have one metric.  A grade 0 collapses each of
    # them to a point.
    for X in spaces:
        for r in grades:
            for s in grades:
                for t_ in grades:
                    full = modality_space(
                        modality_space(modality_space(X, t_), s), r)
                    routes = (modality_space(modality_space(X, s * t_), r),
                              modality_space(modality_space(X, t_), r * s))
                    if r * s * t_ == 0:
                        ok = all(len(sp.points) == 1
                                 for sp in (full, *routes))
                    else:
                        ok = all(_same_metric(X, sp, full) for sp in routes)
                    report.record(f"coassoc[{r},{s},{t_}][{X!r}]", ok)

    # Comonoid structure: discard e : E_0 X -> I and copy
    # d^{m,n} : E_{m+n} X -> E_m X (x) E_n X (the diagonal).
    for X in spaces:
        for m_ in grades:
            for n_ in grades:
                src = modality_space(X, m_ + n_)
                tgt = ProductSpace((modality_space(X, m_),
                                    modality_space(X, n_)))
                ok = True
                for a in src.points:
                    for b in src.points:
                        pa = _diag_point(a, m_, n_)
                        pb = _diag_point(b, m_, n_)
                        if (tgt.idist(pa, pb) * src.q
                                > src.idist(a, b) * tgt.q):
                            ok = False
                report.record(f"copy-nonexpansive[{m_},{n_}][{X!r}]", ok)
                # Commutativity of copy: swapping the legs matches
                # d^{n,m} exactly.
                ok = True
                for a in src.points:
                    x1, y1 = _diag_point(a, m_, n_)
                    y2, x2 = _diag_point(a, n_, m_)
                    if x1 != x2 or y1 != y2:
                        ok = False
                report.record(f"copy-commutative[{m_},{n_}][{X!r}]", ok)
        # Counit law of the comonoid: d^{n,0} followed by discarding the
        # grade-0 leg is the identity carrier map.
        for n_ in grades:
            src = modality_space(X, n_)
            ok = all(_diag_point(a, n_, 0)[0] == a for a in src.points)
            report.record(f"copy-counit[{n_}][{X!r}]", ok)
        # Associativity of copy on carriers.
        for m_ in grades:
            for n_ in grades:
                for o in grades:
                    src = modality_space(X, m_ + n_ + o)
                    ok = True
                    for a in src.points:
                        x, rest = _diag_point(a, m_, n_ + o)
                        y, z = _diag_point(rest, n_, o)
                        x2, y2 = _diag_point(_diag_point(a, m_ + n_, o)[0],
                                             m_, n_)
                        z2 = _diag_point(a, m_ + n_, o)[1]
                        if (x, y, z) != (x2, y2, z2):
                            ok = False
                    report.record(
                        f"copy-associative[{m_},{n_},{o}][{X!r}]", ok)

    # Lipschitz inequality: r * hom(f,g) <= hom(E_r f, E_r g) for all
    # enumerated non-expansive maps between the listed spaces.
    for X in spaces:
        for Y in spaces:
            maps = list(enumerate_tables(X, Y))
            fy = FuncSpace(X, Y)
            base = [[fy.idist(f, g) for g in maps] for f in maps]
            for r in grades:
                # E_0 collapses both maps to the unique point map.
                ok = True
                if r >= 1:
                    fy_r = FuncSpace(modality_space(X, r),
                                     modality_space(Y, r))
                    # r * d / fy.q <= e / fy_r.q, cross-multiplied.
                    scale, lifted = r * fy_r.q, fy_r.idist
                    ok = all(scale * d <= lifted(f, g) * fy.q
                             for f, row in zip(maps, base)
                             for g, d in zip(maps, row))
                report.record(
                    f"lipschitz[{r}][{X!r}->{Y!r}]", ok,
                    f"{len(maps)} maps")

    # Dilation comparison: for n >= 1 the modality is exactly the dilation
    # by n (same carrier, distances times n).
    for X in spaces:
        for n_ in grades:
            if n_ == 0:
                continue
            en = modality_space(X, n_)
            ok = en.points == X.points and all(
                en.idist(a, b) * X.q == n_ * X.idist(a, b) * en.q
                for a in X.points for b in X.points)
            report.record(f"dilation-iso[{n_}][{X!r}]", ok)
    report.notes.append(
        "grade 0: the modality is the one-point space, while the dilation "
        "presentation at 0 keeps the carrier with all distances 0; the "
        "isomorphism is asserted for grades >= 1 only")
    return report


def _same_metric(X: FinMetSpace, s1: FinMetSpace, s2: FinMetSpace) -> bool:
    """True iff the spaces s1 and s2 on the carrier of X agree on the
    distance of every pair of points of X."""
    d1, q1, d2, q2 = s1.idist, s1.q, s2.idist, s2.q
    return all(d1(a, b) * q2 == d2(a, b) * q1
               for a in X.points for b in X.points)


def _diag_point(a, m: int, n: int):
    """Image of a point of E_{m+n} X under the copy map d^{m,n}."""
    if m + n == 0:
        return ((), ())
    left = () if m == 0 else a
    right = () if n == 0 else a
    return (left, right)
