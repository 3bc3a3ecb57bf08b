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
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
from .parser import print_type
from .quantale import INF, num_add, num_cmp, num_scale, num_max
from .typecheck import Derivation, infer


class ModelError(ValueError):
    pass


class GuardExceeded(ModelError):
    pass


DEFAULT_GUARD = 10 ** 6
ZERO = Fraction(0)


def guard_limit() -> int:
    return int(os.environ.get("GVLAM_GUARD", DEFAULT_GUARD))


# ---------------------------------------------------------------------------
# Spaces

class FinMetSpace:
    """Base class; points are hashable, distances exact."""

    @property
    def points(self) -> tuple:
        raise NotImplementedError

    def dist(self, a, b):
        raise NotImplementedError

    def index(self, p) -> int:
        try:
            return self._index[p]
        except AttributeError:
            self._index = {q: i for i, q in enumerate(self.points)}
            return self._index[p]

    def check_metric(self):
        pts = self.points
        for x in pts:
            if self.dist(x, x) != 0:
                raise ModelError(f"dist({x},{x}) != 0")
        for x in pts:
            for y in pts:
                if x != y and self.dist(x, y) == 0:
                    raise ModelError(f"distinct points {x},{y} at distance 0")
                if self.dist(x, y) != self.dist(y, x):
                    raise ModelError(f"asymmetric distance at {x},{y}")
        for x in pts:
            for y in pts:
                for z in pts:
                    lhs = self.dist(x, z)
                    rhs = num_add(self.dist(x, y), self.dist(y, z))
                    if num_cmp(lhs, rhs) > 0:
                        raise ModelError(
                            f"triangle inequality fails at {x},{y},{z}")


class ExplicitSpace(FinMetSpace):
    def __init__(self, points, dist, name=None):
        self._points = tuple(points)
        self._dist = dict(dist)
        self.name = name

    @property
    def points(self):
        return self._points

    def dist(self, a, b):
        if a == b:
            return ZERO
        return self._dist[(a, b)]

    def __repr__(self):
        return self.name or f"<space {len(self._points)} points>"


class OnePointSpace(FinMetSpace):
    @property
    def points(self):
        return ((),)

    def dist(self, a, b):
        return ZERO

    def __repr__(self):
        return "I"


class ProductSpace(FinMetSpace):
    """n-ary product with the sum metric; points are n-tuples."""

    def __init__(self, factors):
        self.factors = tuple(factors)
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

    def dist(self, a, b):
        out = ZERO
        for f, x, y in zip(self.factors, a, b):
            out = num_add(out, f.dist(x, y))
        return out

    def __repr__(self):
        return " (x) ".join(repr(f) for f in self.factors)


class ScaledSpace(FinMetSpace):
    """Distances multiplied by a grade n >= 1 (the dilation by n)."""

    def __init__(self, base: FinMetSpace, n: int):
        if n < 1:
            raise ModelError("scaling grade must be at least 1")
        self.base = base
        self.n = n

    @property
    def points(self):
        return self.base.points

    def dist(self, a, b):
        return num_scale(self.n, self.base.dist(a, b))

    def __repr__(self):
        return f"!{self.n} {self.base!r}"


class FuncSpace(FinMetSpace):
    """Non-expansive maps dom -> cod with the sup metric.

    Elements are tuples of codomain points indexed parallel to dom.points;
    the carrier is enumerated on demand with backtracking and a size guard.
    """

    def __init__(self, dom: FinMetSpace, cod: FinMetSpace):
        self.dom = dom
        self.cod = cod
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

    def dist(self, f, g):
        return num_max(itertools.chain((ZERO,), map(self.cod.dist, f, g)))

    def __repr__(self):
        return f"({self.dom!r} -o {self.cod!r})"


def enumerate_tables(dom: FinMetSpace, cod: FinMetSpace):
    """Backtracking enumeration of non-expansive tables, in point order."""
    dpts, cpts = dom.points, cod.points
    table = []

    def extend(i):
        if i == len(dpts):
            yield tuple(table)
            return
        for y in cpts:
            ok = True
            for j in range(i):
                if num_cmp(cod.dist(table[j], y),
                           dom.dist(dpts[j], dpts[i])) > 0:
                    ok = False
                    break
            if ok:
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
        pts = self.dom.points
        for x in pts:
            if x not in self.table:
                raise ModelError(f"map table missing point {x}")
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                if num_cmp(self.cod.dist(self.table[x], self.table[y]),
                           self.dom.dist(x, y)) > 0:
                    raise ModelError(
                        f"map is expansive on the pair {x}, {y}")

    def __call__(self, x):
        return self.table[x]


def hom_distance(f: MetMap, g: MetMap):
    if f.dom.points != g.dom.points:
        raise ModelError("hom distance requires a common domain")
    return num_max(itertools.chain(
        (ZERO,), (f.cod.dist(f(x), g(x)) for x in f.dom.points)))


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


def _eval(m: ModelAssignment, d: Derivation, env: dict):
    term = d.conclusion.term
    match term:
        case S.Var(x):
            return env[x]
        case S.Star():
            return ()
        case S.OpApp(op, _):
            fn = m.op(op)
            return fn(*(_eval(m, p, env) for p in d.premises))
        case S.UnitLet(_, _):
            _eval(m, d.premises[0], env)
            return _eval(m, d.premises[1], env)
        case S.TensorPair(_, _):
            return (_eval(m, d.premises[0], env),
                    _eval(m, d.premises[1], env))
        case S.TensorLet(_, _, _, _):
            val = _eval(m, d.premises[0], env)
            body = d.premises[1]
            x, y = body.conclusion.context[-2][0], \
                body.conclusion.context[-1][0]
            return _eval(m, body, {**env, x: val[0], y: val[1]})
        case S.Lambda(_, ty, _):
            body = d.premises[0]
            x = body.conclusion.context[-1][0]
            dom = m.space(ty)
            return tuple(_eval(m, body, {**env, x: p}) for p in dom.points)
        case S.App(S.Lambda(_, ty, _), _):
            # The lambda's table would be read at one entry: evaluate its
            # body there instead.  Its domain is interpreted first, as for
            # the table, so a binder type the model lacks is reported as
            # such.
            fd, ad = d.premises
            m.space(ty)
            body = fd.premises[0]
            x = body.conclusion.context[-1][0]
            return _eval(m, body, {**env, x: _eval(m, ad, env)})
        case S.App(_, _):
            fval = _eval(m, d.premises[0], env)
            aval = _eval(m, d.premises[1], env)
            fn_ty = d.premises[0].conclusion.type
            dom = m.space(fn_ty.arg)
            return fval[dom.index(aval)]
        case S.Promote(r, grades, args, _, _):
            if r == 0:
                for p in d.premises[:-1]:
                    _eval(m, p, env)
                return ()
            body = d.premises[-1]
            inner_env = {}
            for i, (s, p) in enumerate(zip(grades, d.premises[:-1])):
                val = _eval(m, p, env)
                name = body.conclusion.context[i][0]
                inner_env[name] = val
            return _eval(m, body, inner_env)
        case S.Derelict(_):
            return _eval(m, d.premises[0], env)
        case S.Discard(_, _):
            _eval(m, d.premises[0], env)
            return _eval(m, d.premises[1], env)
        case S.Copy(n, mm, _, _, _, _):
            val = _eval(m, d.premises[0], env)
            body = d.premises[1]
            x, y = body.conclusion.context[-2][0], \
                body.conclusion.context[-1][0]
            xv = () if n == 0 else val
            yv = () if mm == 0 else val
            return _eval(m, body, {**env, x: xv, y: yv})
    raise ModelError(f"unknown term node {term!r}")


def interp(m: ModelAssignment, d: Derivation) -> MetMap:
    """Interpret a derivation as a non-expansive map out of the context."""
    ctx = d.conclusion.context
    dom = ProductSpace(tuple(m.space(ty) for _, ty in ctx))
    cod = m.space(d.conclusion.type)
    names = [x for x, _ in ctx]
    table = {}
    for pt in dom.points:
        env = dict(zip(names, pt))
        table[pt] = _eval(m, d, env)
    return MetMap(dom, cod, table)  # constructor asserts non-expansiveness


def check_axiom(m: ModelAssignment, sig: S.Signature, ctx, lhs, rhs,
                bound) -> bool:
    """True iff the model distance between the sides is at most the label."""
    dl = infer(sig, ctx, lhs)
    dr = infer(sig, ctx, rhs)
    if dl.conclusion.type != dr.conclusion.type:
        raise ModelError("axiom sides have different types")
    distance = hom_distance(interp(m, dl), interp(m, dr))
    if bound is INF:
        return True
    return num_cmp(distance, bound) <= 0


def model_distance(m: ModelAssignment, sig: S.Signature, ctx, lhs, rhs):
    dl = infer(sig, ctx, lhs)
    dr = infer(sig, ctx, rhs)
    if dl.conclusion.type != dr.conclusion.type:
        raise ModelError("terms have different types")
    return hom_distance(interp(m, dl), interp(m, dr))


# ---------------------------------------------------------------------------
# The timed model

class TimedSpace(FinMetSpace):
    """The ticks 0, ..., n_max at distance |i - j|: one Fraction per
    distance, not one per pair of points."""

    def __init__(self, n_max: int):
        self._points = tuple(range(n_max + 1))
        self._dists = tuple(map(Fraction, self._points))

    @property
    def points(self):
        return self._points

    def dist(self, a, b):
        return self._dists[abs(a - b)]

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
    """
    report = LawReport()
    grades = sorted(set(grades))
    spaces = list(spaces)

    for X in spaces:
        X.check_metric()

    # Counit: the grade-1 modality is the identity on distances.
    for X in spaces:
        ok = all(num_cmp(modality_space(X, 1).dist(a, b), X.dist(a, b)) == 0
                 for a in X.points for b in X.points)
        report.record(f"counit-identity[{X!r}]", ok)

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
                    ok = all(num_cmp(lhs.dist(a, b), rhs.dist(a, b)) == 0
                             for a in X.points for b in X.points)
                report.record(f"comult[{m_},{n_}][{X!r}]", ok)

    # Counit squares: delta^{s,1} followed by the counit (both carrier
    # identities) is the identity; checked as distance equalities.
    for X in spaces:
        for s in grades:
            if s == 0:
                continue
            lhs = modality_space(X, s)
            via = modality_space(modality_space(X, 1), s)
            ok = all(num_cmp(lhs.dist(a, b), via.dist(a, b)) == 0
                     for a in X.points for b in X.points)
            report.record(f"counit-square[{s}][{X!r}]", ok)

    # Coassociativity: (r*s)*t = r*(s*t) as distance scalings.
    for X in spaces:
        for r in grades:
            for s in grades:
                for t_ in grades:
                    d1 = modality_space(X, r * (s * t_)).dist
                    d2 = modality_space(X, (r * s) * t_).dist
                    ok = all(num_cmp(d1(a, b), d2(a, b)) == 0
                             for a in X.points for b in X.points)
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
                        if num_cmp(tgt.dist(pa, pb), src.dist(a, b)) > 0:
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
            for r in grades:
                if r >= 1:
                    fy_r = FuncSpace(modality_space(X, r),
                                     modality_space(Y, r))
                ok = True
                for f in maps:
                    for g in maps:
                        base = fy.dist(f, g)
                        # E_0 collapses both maps to the unique point map.
                        lifted = Fraction(0) if r == 0 else fy_r.dist(f, g)
                        scaled = Fraction(0) if r == 0 else num_scale(r, base)
                        if num_cmp(scaled, lifted) > 0:
                            ok = False
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
                num_cmp(en.dist(a, b), num_scale(n_, X.dist(a, b))) == 0
                for a in X.points for b in X.points)
            report.record(f"dilation-iso[{n_}][{X!r}]", ok)
    report.notes.append(
        "grade 0: the modality is the one-point space, while the dilation "
        "presentation at 0 keeps the carrier with all distances 0; the "
        "isomorphism is asserted for grades >= 1 only")
    return report


def _diag_point(a, m: int, n: int):
    """Image of a point of E_{m+n} X under the copy map d^{m,n}."""
    if m + n == 0:
        return ((), ())
    left = () if m == 0 else a
    right = () if n == 0 else a
    return (left, right)
