"""Checked equational rewriting.

Every row of the equational schema is exposed as a bidirectional,
position-addressed rewrite on derivations.  Rows whose statement involves a
substitution image (eta rows and commuting conversions) cannot be matched
first-order; for those the caller supplies the context term and the hole
variable in the step's bindings, and extract_plugs recovers the plugs.

Each row's left-to-right function is the one trusted reading of the row.
Its right-to-left function only proposes a redex; rewrite_term keeps the
proposal only if the row read left to right takes it back to the term.

A small oriented subset (the beta and unit-like rows) drives the
normalizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import syntax as S
from .parser import print_term
from .quantale import Semiring, NatSemiring
from .typecheck import Derivation, infer


class MatchError(ValueError):
    pass


class EngineError(RuntimeError):
    """A rewrite produced an ill-typed term; signals an internal bug."""


class SchemaId(enum.Enum):
    # monoidal structure
    TENSOR_BETA = "tensor-beta"
    TENSOR_ETA = "tensor-eta"
    UNIT_BETA = "unit-beta"
    UNIT_ETA = "unit-eta"
    # closed structure
    LOLLI_BETA = "lolli-beta"
    LOLLI_ETA = "lolli-eta"
    # symmetric comonadic structure
    BANG_BETA = "bang-beta"
    BANG_ETA = "bang-eta"
    PROMOTE_ASSOC = "promote-assoc"
    PROMOTE_SYMM = "promote-symm"
    # commutative comonoid structure
    COPY_UNIT_LEFT = "copy-unit-left"
    COPY_UNIT_RIGHT = "copy-unit-right"
    COPY_ASSOC = "copy-assoc"
    COPY_COMM = "copy-comm"
    # interaction between comonoid and comonad
    DISCARD_PROMOTE = "discard-promote"
    PROMOTE_DISCARD = "promote-discard"
    COPY_PROMOTE = "copy-promote"
    PROMOTE_COPY = "promote-copy"
    # commuting conversions
    CC_UNIT = "cc-unit"
    CC_TENSOR = "cc-tensor"
    CC_DISCARD = "cc-discard"
    CC_COPY = "cc-copy"


GROUPS = {
    "monoidal": (SchemaId.TENSOR_BETA, SchemaId.TENSOR_ETA,
                 SchemaId.UNIT_BETA, SchemaId.UNIT_ETA),
    "closed": (SchemaId.LOLLI_BETA, SchemaId.LOLLI_ETA),
    "comonadic": (SchemaId.BANG_BETA, SchemaId.BANG_ETA,
                  SchemaId.PROMOTE_ASSOC, SchemaId.PROMOTE_SYMM),
    "comonoid": (SchemaId.COPY_UNIT_LEFT, SchemaId.COPY_UNIT_RIGHT,
                 SchemaId.COPY_ASSOC, SchemaId.COPY_COMM),
    "interaction": (SchemaId.DISCARD_PROMOTE, SchemaId.PROMOTE_DISCARD,
                    SchemaId.COPY_PROMOTE, SchemaId.PROMOTE_COPY),
    "commuting": (SchemaId.CC_UNIT, SchemaId.CC_TENSOR,
                  SchemaId.CC_DISCARD, SchemaId.CC_COPY),
}


@dataclass(frozen=True)
class RewriteStep:
    schema: SchemaId
    position: tuple = ()
    direction: str = "L2R"  # or "R2L"
    bindings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in ("L2R", "R2L"):
            raise MatchError(f"unknown direction {self.direction!r}")


# ---------------------------------------------------------------------------
# Positions

def get_subterm(t: S.Term, path):
    sub = t
    for i in path:
        kids = S.children(sub)
        if not 0 <= i < len(kids):
            raise MatchError(
                f"position {'.'.join(map(str, path))} names no subterm of "
                f"{print_term(t)}")
        sub = kids[i]
    return sub


def replace_subterm(t: S.Term, path, new: S.Term) -> S.Term:
    if not path:
        return new
    shape = S.SHAPES[type(t)]
    kids, binders = shape.parts(t)
    kids = list(kids)
    kids[path[0]] = replace_subterm(kids[path[0]], path[1:], new)
    return shape.rebuild(t, kids, binders)


def all_positions(t: S.Term):
    """Pre-order enumeration of positions (outermost first)."""
    for pos, _ in positioned_subterms(t):
        yield pos


def positioned_subterms(t: S.Term):
    """Pre-order (position, subterm) pairs, in one traversal."""
    stack = [((), t)]
    while stack:
        pos, sub = stack.pop()
        yield pos, sub
        kids = S.children(sub)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((pos + (i,), kids[i]))


# perfbench traces gvlam.vequation.subst_parallel; an absent target fails CI.
subst_parallel = S.substitute


# The message for nodes of one constructor whose annotations differ; the
# format arguments are the annotations of the context term's node, then
# those of the matched node.
_ANNOTATION_MISMATCH = {
    S.OpApp: "operation mismatch {0} vs {1}",
    S.Lambda: "lambda annotation mismatch",
    S.Promote: "promotion annotation mismatch",
    S.Copy: "copy annotation mismatch",
}


def extract_plugs(u: S.Term, holes, t: S.Term) -> dict:
    """The subterms plugged into u at its free hole variables, such that
    u with each hole replaced by its plug is alpha-equal to t.

    Variables are compared by alpha_eq's binder keys, and a plug may
    mention no variable bound above its hole in t, so substituting the
    plugs back into u captures nothing.
    """
    holes = tuple(holes)
    found = {}

    def go(a, b, env_a, env_b, depth):
        cls = type(a)
        if cls is S.Var and a.name in holes and a.name not in env_a:
            for x in S.free_vars(b):
                if x in env_b:
                    raise MatchError(f"the plug for hole {a.name} mentions "
                                     f"{x}, bound above the hole")
            if a.name in found and not S.alpha_eq(found[a.name], b):
                raise MatchError(f"hole {a.name} matched two different terms")
            found[a.name] = b
            return
        if cls is not type(b):
            raise MatchError(
                f"shape mismatch: {print_term(a)} vs {print_term(b)}")
        if cls is S.Var:
            if env_a.get(a.name, ("free", a.name)) \
                    != env_b.get(b.name, ("free", b.name)):
                raise MatchError(f"variable mismatch {a.name} vs {b.name}")
            return
        shape = S.SHAPES[cls]
        kids_a, xs_a = shape.parts(a)
        kids_b, xs_b = shape.parts(b)
        notes_a, notes_b = shape.notes(a), shape.notes(b)
        if notes_a != notes_b or len(kids_a) != len(kids_b):
            raise MatchError(_ANNOTATION_MISMATCH[cls].format(
                *notes_a, *notes_b))
        n = len(kids_a) - 1 if xs_a else len(kids_a)
        for i in range(n):
            go(kids_a[i], kids_b[i], env_a, env_b, depth)
        if n < len(kids_a):
            go(kids_a[n], kids_b[n], S._bind(env_a, depth, xs_a),
               S._bind(env_b, depth, xs_b), depth + 1)

    go(u, t, {}, {}, 0)
    for h in holes:
        if h not in found:
            raise MatchError(f"hole {h} does not occur in the context term")
    return found


def _decompose(u: S.Term, z: str, t: S.Term) -> S.Term:
    """The w with t alpha-equal to u[w/z]."""
    return extract_plugs(u, (z,), t)[z]


def _need(b: dict, key: str):
    if key not in b:
        raise MatchError(f"this schema row needs the {key!r} binding")
    return b[key]


def _fresh_factory(*terms):
    taken = set()
    for t in terms:
        if t is not None:
            taken |= S.all_names(t)

    def fresh(base):
        name = S.fresh_name(base, taken)
        taken.add(name)
        return name

    return fresh


# ---------------------------------------------------------------------------
# Row implementations.  Each takes (term, bindings, semiring) and returns
# the rewritten term or raises MatchError.

def _tensor_beta_l(t, b, sr):
    match t:
        case S.TensorLet(S.TensorPair(v, w), x, y, u):
            return S.substitute(u, {x: v, y: w})
    raise MatchError("expected let x (*) y = v (*) w in u")


def _tensor_beta_r(t, b, sr):
    u = _need(b, "u")
    x, y = _need(b, "x"), _need(b, "y")
    plugs = extract_plugs(u, (x, y), t)
    return S.TensorLet(S.TensorPair(plugs[x], plugs[y]), x, y, u)


def _tensor_eta_l(t, b, sr):
    u, z = _need(b, "u"), _need(b, "z")
    match t:
        case S.TensorLet(v, x, y, body):
            expected = S.substitute(u, {z: S.TensorPair(S.Var(x), S.Var(y))})
            if not S.alpha_eq(expected, body):
                raise MatchError("body is not u with x (*) y plugged for z")
            return S.substitute(u, {z: v})
    raise MatchError("expected a let-tensor expression")


def _tensor_eta_r(t, b, sr):
    u, z = _need(b, "u"), _need(b, "z")
    v = _decompose(u, z, t)
    fresh = _fresh_factory(t, u)
    x, y = b.get("x") or fresh("x"), b.get("y") or fresh("y")
    body = S.substitute(u, {z: S.TensorPair(S.Var(x), S.Var(y))})
    return S.TensorLet(v, x, y, body)


def _unit_beta_l(t, b, sr):
    match t:
        case S.UnitLet(S.Star(), v):
            return v
    raise MatchError("expected let unit = unit in v")


def _unit_beta_r(t, b, sr):
    return S.UnitLet(S.Star(), t)


def _unit_eta_l(t, b, sr):
    w, z = _need(b, "w"), _need(b, "z")
    match t:
        case S.UnitLet(v, body):
            if not S.alpha_eq(S.substitute(w, {z: S.Star()}), body):
                raise MatchError("body is not w with unit plugged for z")
            return S.substitute(w, {z: v})
    raise MatchError("expected a let-unit expression")


def _unit_eta_r(t, b, sr):
    w, z = _need(b, "w"), _need(b, "z")
    v = _decompose(w, z, t)
    return S.UnitLet(v, S.substitute(w, {z: S.Star()}))


def _lolli_beta_l(t, b, sr):
    match t:
        case S.App(S.Lambda(x, _, v), w):
            return S.substitute(v, {x: w})
    raise MatchError("expected a beta redex (fn x : A => v) w")


def _lolli_beta_r(t, b, sr):
    v, x, ty = _need(b, "v"), _need(b, "x"), _need(b, "ty")
    w = _decompose(v, x, t)
    return S.App(S.Lambda(x, ty, v), w)


def _lolli_eta_l(t, b, sr):
    match t:
        case S.Lambda(x, _, S.App(v, S.Var(y))) if x == y \
                and x not in S.free_vars(v):
            return v
    raise MatchError("expected fn x : A => v x with x not free in v")


def _lolli_eta_r(t, b, sr):
    ty = _need(b, "ty")
    x = b.get("x") or _fresh_factory(t)("x")
    return S.Lambda(x, ty, S.App(t, S.Var(x)))


def _bang_beta_l(t, b, sr):
    match t:
        case S.Derelict(S.Promote(r, _, args, binders, u)) if r == sr.one:
            return S.substitute(u, dict(zip(binders, args)))
    raise MatchError("expected derelict of a grade-1 promotion")


def _bang_beta_r(t, b, sr):
    u = _need(b, "u")
    xs = tuple(_need(b, "xs"))
    ss = tuple(_need(b, "ss"))
    if len(xs) != len(ss):
        raise MatchError("xs and ss bindings must have equal length")
    plugs = extract_plugs(u, xs, t)
    args = tuple(plugs[x] for x in xs)
    return S.Derelict(S.Promote(sr.one, ss, args, xs, u))


def _bang_eta_l(t, b, sr):
    match t:
        case S.Promote(_, (s,), (z,), (x,), S.Derelict(S.Var(y))) \
                if s == sr.one and x == y:
            return z
    raise MatchError("expected promote[r; 1](z; x => derelict x)")


def _bang_eta_r(t, b, sr):
    r = _need(b, "r")
    x = b.get("x") or _fresh_factory(t)("x")
    return S.Promote(r, (sr.one,), (t,), (x,), S.Derelict(S.Var(x)))


def _promote_assoc_l(t, b, sr):
    match t:
        case S.Promote(r1, grades, args, binders, w) if args and grades:
            match args[0]:
                case S.Promote(r12, ss, xs_args, ys, v) \
                        if r12 == sr.mul(r1, grades[0]):
                    r2 = grades[0]
                    a = binders[0]
                    fresh = _fresh_factory(t)
                    cs = tuple(fresh("c") for _ in ss)
                    inner = S.Promote(r2, ss,
                                      tuple(S.Var(c) for c in cs), ys, v)
                    new_body = S.substitute(w, {a: inner})
                    new_grades = tuple(sr.mul(r2, s) for s in ss) + grades[1:]
                    return S.Promote(r1, new_grades, xs_args + args[1:],
                                     cs + binders[1:], new_body)
    raise MatchError("expected a promotion whose first argument is a "
                     "promotion of the product grade")


def _promote_assoc_r(t, b, sr):
    w, a = _need(b, "w"), _need(b, "a")
    match t:
        case S.Promote(r1, grades, args, binders, body):
            match _decompose(w, a, body):
                case S.Promote(r2, ss, _, ys, v):
                    k = len(ss)
                    if k > len(args):
                        raise MatchError("the inner promotion has more "
                                         "arguments than the outer one")
                    inner = S.Promote(sr.mul(r1, r2), ss, args[:k], ys, v)
                    return S.Promote(r1, (r2,) + grades[k:],
                                     (inner,) + args[k:],
                                     (a,) + binders[k:], w)
            raise MatchError("the plug for the hole is not a promotion")
    raise MatchError("expected a promotion")


def _promote_symm(t, b, sr):
    i = _need(b, "i")
    match t:
        case S.Promote(r, grades, args, binders, u) if 0 <= i < len(args) - 1:
            swap = lambda xs: xs[:i] + (xs[i + 1], xs[i]) + xs[i + 2:]
            return S.Promote(r, swap(grades), swap(args), swap(binders), u)
    raise MatchError("swap index out of range for this promotion")


def _copy_unit_left_l(t, b, sr):
    match t:
        case S.Copy(n, _, v, x, y, S.Discard(S.Var(dx), u)) \
                if n == sr.zero and dx == x:
            return S.substitute(u, {y: v})
    raise MatchError("expected copy[0,n] v as x,y in discard x in u")


def _copy_unit_left_r(t, b, sr):
    u, z = _need(b, "u"), _need(b, "z")
    n = _need(b, "n")
    v = _decompose(u, z, t)
    fresh = _fresh_factory(t, u)
    x = b.get("x") or fresh("x")
    return S.Copy(sr.zero, n, v, x, z, S.Discard(S.Var(x), u))


def _copy_unit_right_l(t, b, sr):
    match t:
        case S.Copy(_, m, v, x, y, S.Discard(S.Var(dy), u)) \
                if m == sr.zero and dy == y:
            return S.substitute(u, {x: v})
    raise MatchError("expected copy[n,0] v as x,y in discard y in u")


def _copy_unit_right_r(t, b, sr):
    u, z = _need(b, "u"), _need(b, "z")
    n = _need(b, "n")
    v = _decompose(u, z, t)
    fresh = _fresh_factory(t, u)
    y = b.get("y") or fresh("y")
    return S.Copy(n, sr.zero, v, z, y, S.Discard(S.Var(y), u))


def _copy_assoc_l(t, b, sr):
    match t:
        case S.Copy(p, o, v, x, y, S.Copy(n, m, S.Var(sx), a, bb, u)) \
                if sx == x and p == sr.add(n, m):
            c = b.get("c") or _fresh_factory(t)("c")
            inner = S.Copy(m, o, S.Var(c), bb, y, u)
            return S.Copy(n, sr.add(m, o), v, a, c, inner)
    raise MatchError("expected copy[n+m,o] v as x,y in copy[n,m] x as a,b")


def _copy_assoc_r(t, b, sr):
    match t:
        case S.Copy(n, _, v, a, _, S.Copy(m, o, _, bb, y, u)):
            x = b.get("x") or _fresh_factory(t)("x")
            inner = S.Copy(n, m, S.Var(x), a, bb, u)
            return S.Copy(sr.add(n, m), o, v, x, y, inner)
    raise MatchError("expected copy[n,m+o] v as a,c in copy[m,o] c as b,y")


def _copy_comm(t, b, sr):
    match t:
        case S.Copy(n, m, v, x, y, u):
            return S.Copy(m, n, v, y, x, u)
    raise MatchError("expected a copy expression")


def _discard_promote_l(t, b, sr):
    match t:
        case S.Discard(S.Promote(r, _, args, _, _), u) if r == sr.zero:
            out = u
            for v in reversed(args):
                out = S.Discard(v, out)
            return out
    raise MatchError("expected discard of a grade-0 promotion")


def _discard_promote_r(t, b, sr):
    w = _need(b, "w")
    ss = tuple(_need(b, "ss"))
    xs = tuple(_need(b, "xs"))
    if len(ss) != len(xs):
        raise MatchError("ss and xs bindings must have equal length")
    args, rest = [], t
    for _ in ss:
        match rest:
            case S.Discard(v, u):
                args.append(v)
                rest = u
            case _:
                raise MatchError("not enough nested discards")
    return S.Discard(S.Promote(sr.zero, ss, tuple(args), xs, w), rest)


def _promote_discard_l(t, b, sr):
    match t:
        case S.Promote(r, grades, args, binders, S.Discard(S.Var(dx), u)) \
                if grades and grades[0] == sr.zero and dx == binders[0]:
            return S.Discard(args[0],
                             S.Promote(r, grades[1:], args[1:],
                                       binders[1:], u))
    raise MatchError("expected a promotion discarding its first binder")


def _promote_discard_r(t, b, sr):
    match t:
        case S.Discard(v, S.Promote(r, grades, args, binders, u)):
            x = b.get("x") or _fresh_factory(t)("x")
            return S.Promote(r, (sr.zero,) + grades, (v,) + args,
                             (x,) + binders, S.Discard(S.Var(x), u))
    raise MatchError("expected discard of a value before a promotion")


def _copy_promote_l(t, b, sr):
    match t:
        case S.Copy(n, m, S.Promote(p, ss, args, xs, w), y, z, u) \
                if p == sr.add(n, m):
            fresh = _fresh_factory(t)
            avs = tuple(fresh("a") for _ in args)
            bvs = tuple(fresh("b") for _ in args)
            left = S.Promote(n, ss, tuple(S.Var(a) for a in avs), xs, w)
            right = S.Promote(m, ss, tuple(S.Var(c) for c in bvs), xs, w)
            out = S.substitute(u, {y: left, z: right})
            for v, a, c, s in reversed(list(zip(args, avs, bvs, ss))):
                out = S.Copy(sr.mul(n, s), sr.mul(m, s), v, a, c, out)
            return out
    raise MatchError("expected copy of a promotion of grade n+m")


def _copy_promote_r(t, b, sr):
    u = _need(b, "u")
    y, z = _need(b, "y"), _need(b, "z")
    n, m = _need(b, "n"), _need(b, "m")
    o = _need(b, "o")
    copies, rest = [], t
    for _ in range(o):
        match rest:
            case S.Copy(_, _, v, _, _, body):
                copies.append(v)
                rest = body
            case _:
                raise MatchError("not enough nested copies")
    match extract_plugs(u, (y, z), rest)[y]:
        case S.Promote(_, ss, _, xs, w):
            if len(ss) != o:
                raise MatchError("the promotion does not take one argument "
                                 "per copy")
            scrut = S.Promote(sr.add(n, m), ss, tuple(copies), xs, w)
            return S.Copy(n, m, scrut, y, z, u)
    raise MatchError("the plug for y is not a promotion")


def _promote_copy_l(t, b, sr):
    match t:
        case S.Promote(r, grades, args, binders,
                       S.Copy(n, m, S.Var(sz), x, y, u)) \
                if grades and sz == binders[0] \
                and grades[0] == sr.add(n, m):
            fresh = _fresh_factory(t)
            a, c = fresh("a"), fresh("b")
            inner = S.Promote(r, (n, m) + grades[1:],
                              (S.Var(a), S.Var(c)) + args[1:],
                              (x, y) + binders[1:], u)
            return S.Copy(sr.mul(r, n), sr.mul(r, m), args[0], a, c, inner)
    raise MatchError("expected a promotion copying its first binder")


def _promote_copy_r(t, b, sr):
    match t:
        case S.Copy(_, _, v, _, _, S.Promote(r, grades, args, binders, u)) \
                if len(grades) >= 2:
            z = b.get("z") or _fresh_factory(t)("z")
            n, m = grades[0], grades[1]
            body = S.Copy(n, m, S.Var(z), binders[0], binders[1], u)
            return S.Promote(r, (sr.add(n, m),) + grades[2:],
                             (v,) + args[2:], (z,) + binders[2:], body)
    raise MatchError("expected a copy before a promotion of two or more "
                     "arguments")


def _make_cc(name, head):
    """Commuting conversion rows: u[K/z] = K-with-body u[w/z], where K is
    a node of constructor head and its body is its last child."""

    def l2r(t, b, sr):
        u, z = _need(b, "u"), _need(b, "z")
        plug = _decompose(u, z, t)
        if type(plug) is not head:
            raise MatchError(f"the plug for {name} has the wrong head")
        new_body = S.substitute(u, {z: S.children(plug)[-1]})
        return _with_body(plug, new_body)

    def r2l(t, b, sr):
        u, z = _need(b, "u"), _need(b, "z")
        if type(t) is not head:
            raise MatchError(f"expected a {name} expression at the position")
        w = _decompose(u, z, S.children(t)[-1])
        return S.substitute(u, {z: _with_body(t, w)})

    return l2r, r2l


def _with_body(t: S.Term, body: S.Term) -> S.Term:
    return replace_subterm(t, (len(S.children(t)) - 1,), body)


_cc_unit_l, _cc_unit_r = _make_cc("let-unit", S.UnitLet)
_cc_tensor_l, _cc_tensor_r = _make_cc("let-tensor", S.TensorLet)
_cc_discard_l, _cc_discard_r = _make_cc("discard", S.Discard)
_cc_copy_l, _cc_copy_r = _make_cc("copy", S.Copy)


_ROWS = {
    SchemaId.TENSOR_BETA: (_tensor_beta_l, _tensor_beta_r),
    SchemaId.TENSOR_ETA: (_tensor_eta_l, _tensor_eta_r),
    SchemaId.UNIT_BETA: (_unit_beta_l, _unit_beta_r),
    SchemaId.UNIT_ETA: (_unit_eta_l, _unit_eta_r),
    SchemaId.LOLLI_BETA: (_lolli_beta_l, _lolli_beta_r),
    SchemaId.LOLLI_ETA: (_lolli_eta_l, _lolli_eta_r),
    SchemaId.BANG_BETA: (_bang_beta_l, _bang_beta_r),
    SchemaId.BANG_ETA: (_bang_eta_l, _bang_eta_r),
    SchemaId.PROMOTE_ASSOC: (_promote_assoc_l, _promote_assoc_r),
    SchemaId.PROMOTE_SYMM: (_promote_symm, _promote_symm),
    SchemaId.COPY_UNIT_LEFT: (_copy_unit_left_l, _copy_unit_left_r),
    SchemaId.COPY_UNIT_RIGHT: (_copy_unit_right_l, _copy_unit_right_r),
    SchemaId.COPY_ASSOC: (_copy_assoc_l, _copy_assoc_r),
    SchemaId.COPY_COMM: (_copy_comm, _copy_comm),
    SchemaId.DISCARD_PROMOTE: (_discard_promote_l, _discard_promote_r),
    SchemaId.PROMOTE_DISCARD: (_promote_discard_l, _promote_discard_r),
    SchemaId.COPY_PROMOTE: (_copy_promote_l, _copy_promote_r),
    SchemaId.PROMOTE_COPY: (_promote_copy_l, _promote_copy_r),
    SchemaId.CC_UNIT: (_cc_unit_l, _cc_unit_r),
    SchemaId.CC_TENSOR: (_cc_tensor_l, _cc_tensor_r),
    SchemaId.CC_DISCARD: (_cc_discard_l, _cc_discard_r),
    SchemaId.CC_COPY: (_cc_copy_l, _cc_copy_r),
}


def rewrite_term(term: S.Term, step: RewriteStep,
                 semiring: Semiring = NatSemiring()) -> S.Term:
    """term with the subterm at step's position rewritten by its row.  A
    right-to-left proposal stands only if the row read left to right, with
    the same bindings, takes it back to an alpha-equal subterm."""
    sub = get_subterm(term, step.position)
    l2r, r2l = _ROWS[step.schema]
    if step.direction == "L2R":
        return replace_subterm(term, step.position,
                               l2r(sub, step.bindings, semiring))
    redex = r2l(sub, step.bindings, semiring)
    try:
        if S.alpha_eq(l2r(redex, step.bindings, semiring), sub):
            return replace_subterm(term, step.position, redex)
    except MatchError:
        pass
    raise MatchError(f"{step.schema.value} read left to right does not take "
                     f"{print_term(redex)} back to {print_term(sub)}")


def apply_step(sig: S.Signature, d: Derivation, step: RewriteStep,
               semiring: Semiring = NatSemiring(),
               memo: dict = None) -> Derivation:
    """Rewrite d's term by step and type the result in d's context.

    memo is a typing memo (typecheck.infer) shared across the steps of
    one caller; the rewritten term shares every subterm off the step's
    position with d's term, so only the rebuilt nodes are typed again.
    """
    new_term = rewrite_term(d.conclusion.term, step, semiring)
    return _retype(sig, d, new_term, step, semiring, memo)


def _retype(sig, d: Derivation, new_term, step, semiring, memo):
    """The derivation of new_term, d's term rewritten by step, in d's
    context; it must keep d's type."""
    out = infer(sig, d.conclusion.context, new_term, semiring, memo)
    if out.conclusion.type != d.conclusion.type:
        raise EngineError(
            f"rewrite by {step.schema.value} changed the type of the "
            f"judgement")
    return out


# ---------------------------------------------------------------------------
# Normalization

# The constructor at the head of each oriented row's left side: a subterm
# with another head cannot match the row.
_REDEX_HEAD = {
    SchemaId.LOLLI_BETA: S.App, SchemaId.LOLLI_ETA: S.Lambda,
    SchemaId.TENSOR_BETA: S.TensorLet, SchemaId.UNIT_BETA: S.UnitLet,
    SchemaId.BANG_BETA: S.Derelict, SchemaId.BANG_ETA: S.Promote,
    SchemaId.COPY_UNIT_LEFT: S.Copy, SchemaId.COPY_UNIT_RIGHT: S.Copy,
}
ORIENTED = tuple(_REDEX_HEAD)
_ORIENTED_AT = {head: tuple(s for s in ORIENTED if _REDEX_HEAD[s] is head)
                for head in _REDEX_HEAD.values()}


def term_size(t: S.Term) -> int:
    return sum(1 for _ in S.subterms(t))


def _next_step(sig, d: Derivation, semiring, memo):
    """The first oriented step in pre-order and the derivation it yields.

    Each candidate row runs on the subterm the search holds; only a
    match rebuilds the term around its reduct and types it.
    """
    term = d.conclusion.term
    for pos, sub in positioned_subterms(term):
        for schema in _ORIENTED_AT.get(type(sub), ()):
            try:
                reduct = _ROWS[schema][0](sub, {}, semiring)
            except MatchError:
                continue
            step = RewriteStep(schema, pos, "L2R")
            new_term = replace_subterm(term, pos, reduct)
            return step, _retype(sig, d, new_term, step, semiring, memo)
    return None


def beta_normalize(sig: S.Signature, d: Derivation, fuel: int = None,
                   semiring: Semiring = NatSemiring(), memo: dict = None):
    """Reduce to a fixpoint of the oriented rows.

    Returns (derivation, steps, exhausted), each step paired with the term
    it rewrote: (term, step).  The steps share one typing memo, so each
    step types only the nodes it rebuilt; memo, as for apply_step, may be
    the table d was inferred with, so the first step does too.
    """
    if fuel is None:
        fuel = 10 * term_size(d.conclusion.term)
    steps = []
    current = d
    memo = {} if memo is None else memo
    while (found := _next_step(sig, current, semiring, memo)) is not None:
        if len(steps) == fuel:
            return current, steps, True
        step, nxt = found
        steps.append((current.conclusion.term, step))
        current = nxt
    return current, steps, False
