"""Shared test helpers: signatures, models, a random derivation generator
that mirrors the checker's node layout, per-row instantiators for the
program-equation schema, beta-nest proof scripts, and the reference term
tokenizer."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import types
from dataclasses import dataclass
from fractions import Fraction

from gvlam import syntax as S
from gvlam import theory
from gvlam.metmodel import ModelAssignment, timed_space
from gvlam.oracles import reference_instantiate
from gvlam.parser import ParseError
from gvlam.quantale import NatSemiring
from gvlam.rewrite import (_ROWS, MatchError, RewriteStep, SchemaId,
                           extract_plugs, get_subterm, replace_subterm)
from gvlam.typecheck import Derivation, Judgement
from gvlam.vequation import TheoryError

# Non-empty while the suite's cross-check (conftest.cross_checked) runs
# the oracle or validates a proof again on fresh tables: a test that
# counts the primary's work skips what happens then.
cross_checking: list = []

X = S.Ground("X")
I = S.UnitType()
XX = S.TensorType(X, X)
X2X = S.LolliType(X, X)


def bang(n, ty=X):
    return S.BangType(n, ty)


def test_signature() -> S.Signature:
    sig = S.Signature(frozenset({"X"}))
    sig.declare("plus", (X, X), X)
    sig.declare("c", (I,), X)
    sig.families.append(theory.ParamOpFamily("wait", ("n",), ("X",), "X"))
    return sig


def timed_test_model(sig: S.Signature, n_max: int) -> ModelAssignment:
    space = timed_space(n_max)

    def op_fn(name):
        if name.startswith("wait_") and name[len("wait_"):].isdigit():
            k = int(name[len("wait_"):])
            return lambda i: min(i + k, n_max)
        if name == "plus":
            return lambda i, j: min(i + j, n_max)
        if name == "c":
            return lambda u: 0
        return None

    return ModelAssignment(sig, {"X": space}, op_fn)


# ---------------------------------------------------------------------------
# Random derivations, built rule by rule with the same node layout the
# checker produces (premise contexts as splits, conclusion context a
# shuffle of the premise contexts).

def _node(rule, ctx, term, ty, prems=(), splits=()):
    return Derivation(rule, Judgement(tuple(ctx), term, ty),
                      tuple(prems), tuple(splits))


class DerivGen:
    def __init__(self, rng: random.Random, sig=None, first_order=False):
        self.rng = rng
        self.sig = sig or test_signature()
        self.first_order = first_order
        self._n = 0

    def fresh(self):
        self._n += 1
        return f"v{self._n}"

    def merge(self, parts, keep_tail=0):
        """Random interleaving of the parts, preserving each part's order;
        the final keep_tail entries of the last part stay at the end."""
        parts = [list(p) for p in parts]
        tail = []
        if keep_tail:
            tail = parts[-1][-keep_tail:]
            parts[-1] = parts[-1][:-keep_tail]
        pools = [p for p in parts if p]
        out = []
        while pools:
            i = self.rng.randrange(len(pools))
            out.append(pools[i].pop(0))
            if not pools[i]:
                pools.pop(i)
        return tuple(out + tail)

    # -- rule constructors ---------------------------------------------

    def hp(self, ty, name=None):
        x = name or self.fresh()
        return _node("hp", ((x, ty),), S.Var(x), ty)

    def star(self):
        return _node("I_i", (), S.Star(), I)

    def op(self, name, result, prems, keep_tail=0):
        parts = tuple(p.conclusion.context for p in prems)
        ctx = self.merge(parts, keep_tail)
        term = S.OpApp(name, tuple(p.conclusion.term for p in prems))
        return _node("ax", ctx, term, result, prems, parts)

    def unitlet(self, dv, db, keep_tail=0):
        gv, gb = dv.conclusion.context, db.conclusion.context
        ctx = self.merge((gv, gb), keep_tail)
        term = S.UnitLet(dv.conclusion.term, db.conclusion.term)
        return _node("I_e", ctx, term, db.conclusion.type, (dv, db),
                     (gv, gb))

    def pair(self, dl, dr):
        gl, gr = dl.conclusion.context, dr.conclusion.context
        ty = S.TensorType(dl.conclusion.type, dr.conclusion.type)
        term = S.TensorPair(dl.conclusion.term, dr.conclusion.term)
        return _node("tensor_i", self.merge((gl, gr)), term, ty, (dl, dr),
                     (gl, gr))

    def tensorlet(self, dv, db):
        """db's context must end with the two binders."""
        gv = dv.conclusion.context
        gb = db.conclusion.context[:-2]
        (x, _), (y, _) = db.conclusion.context[-2:]
        term = S.TensorLet(dv.conclusion.term, x, y, db.conclusion.term)
        return _node("tensor_e", self.merge((gv, gb)), term,
                     db.conclusion.type, (dv, db), (gv, gb))

    def lambda_(self, db):
        """db's context must end with the lambda binder."""
        x, ty = db.conclusion.context[-1]
        ctx = db.conclusion.context[:-1]
        term = S.Lambda(x, ty, db.conclusion.term)
        return _node("lolli_i", ctx, term,
                     S.LolliType(ty, db.conclusion.type), (db,), (ctx,))

    def app(self, df, da):
        gf, ga = df.conclusion.context, da.conclusion.context
        term = S.App(df.conclusion.term, da.conclusion.term)
        return _node("lolli_e", self.merge((gf, ga)), term,
                     df.conclusion.type.result, (df, da), (gf, ga))

    def promote(self, r, ss, arg_ds, binders, db):
        parts = tuple(d.conclusion.context for d in arg_ds)
        args = tuple(d.conclusion.term for d in arg_ds)
        term = S.Promote(r, tuple(ss), args, tuple(binders),
                         db.conclusion.term)
        return _node("bang_i", self.merge(parts), term,
                     S.BangType(r, db.conclusion.type),
                     tuple(arg_ds) + (db,), parts)

    def derelict(self, dv):
        ctx = dv.conclusion.context
        return _node("bang_e", ctx, S.Derelict(dv.conclusion.term),
                     dv.conclusion.type.body, (dv,), (ctx,))

    def discard(self, dv, db, keep_tail=0):
        gv, gb = dv.conclusion.context, db.conclusion.context
        term = S.Discard(dv.conclusion.term, db.conclusion.term)
        return _node("bang_0", self.merge((gv, gb), keep_tail), term,
                     db.conclusion.type, (dv, db), (gv, gb))

    def copy(self, n, m, dv, db):
        """db's context must end with the two copy binders."""
        gv = dv.conclusion.context
        gb = db.conclusion.context[:-2]
        (x, _), (y, _) = db.conclusion.context[-2:]
        term = S.Copy(n, m, dv.conclusion.term, x, y, db.conclusion.term)
        return _node("bang_sum", self.merge((gv, gb)), term,
                     db.conclusion.type, (dv, db), (gv, gb))

    # -- targeted generation -------------------------------------------

    def term_X(self, d):
        rng = self.rng
        if d <= 0 or rng.random() < 0.25:
            return self.hp(X)
        options = ["wait", "plus", "c", "unitlet", "derelict", "discard",
                   "tensorlet", "copylet", "promote_der"]
        if not self.first_order:
            options += ["app"]
        match rng.choice(options):
            case "wait":
                return self.op(f"wait_{rng.randrange(4)}", X,
                               (self.term_X(d - 1),))
            case "plus":
                return self.op("plus", X,
                               (self.term_X(d - 1), self.term_X(d - 1)))
            case "c":
                return self.op("c", X, (self.term_I(d - 1),))
            case "unitlet":
                return self.unitlet(self.term_I(d - 1), self.term_X(d - 1))
            case "derelict":
                return self.derelict(self.term_bang(1, d - 1))
            case "discard":
                return self.discard(self.term_bang(0, d - 1),
                                    self.term_X(d - 1))
            case "tensorlet":
                dv = self.term_tensor(d - 1)
                db = self.consume2(self.fresh(), X, self.fresh(), X, d - 1)
                return self.tensorlet(dv, db)
            case "copylet":
                dv = self.term_bang(2, d - 1)
                db = self.consume2(self.fresh(), bang(1), self.fresh(),
                                   bang(1), d - 1)
                return self.copy(1, 1, dv, db)
            case "promote_der":
                return self.derelict(self.term_bang(1, d - 1))
            case "app":
                return self.app(self.term_fn(d - 1), self.term_X(d - 1))
        raise AssertionError

    def term_I(self, d):
        rng = self.rng
        if d <= 0 or rng.random() < 0.5:
            return self.star() if rng.random() < 0.7 else self.hp(I)
        return self.unitlet(self.term_I(d - 1), self.term_I(d - 1))

    def term_tensor(self, d):
        if self.rng.random() < 0.4:
            return self.hp(XX)
        return self.pair(self.term_X(d - 1), self.term_X(d - 1))

    def term_bang(self, n, d):
        rng = self.rng
        if d <= 0 or rng.random() < 0.4:
            return self.hp(bang(n))
        k = rng.randrange(3)
        arg_ds = tuple(self.term_bang(n, d - 1) for _ in range(k))
        binders = tuple(self.fresh() for _ in range(k))
        if k == 0:
            body = self.op("c", X, (self.star(),))
        elif k == 1:
            body = self.derelict(self.hp(bang(1), binders[0]))
        else:
            ex = self.derelict(self.hp(bang(1), binders[0]))
            ey = self.derelict(self.hp(bang(1), binders[1]))
            parts = (ex.conclusion.context, ey.conclusion.context)
            body = _node("ax", parts[0] + parts[1],
                         S.OpApp("plus", (ex.conclusion.term,
                                          ey.conclusion.term)),
                         X, (ex, ey), parts)
        return self.promote(n, (1,) * k, arg_ds, binders, body)

    def term_fn(self, d):
        if self.rng.random() < 0.4:
            return self.hp(X2X)
        x = self.fresh()
        return self.lambda_(self.consume1(x, X, d - 1))

    def term_of(self, ty, d):
        match ty:
            case S.Ground("X"):
                return self.term_X(d)
            case S.UnitType():
                return self.term_I(d)
            case S.TensorType(S.Ground("X"), S.Ground("X")):
                return self.term_tensor(d)
            case S.BangType(n, S.Ground("X")):
                return self.term_bang(n, d)
            case S.LolliType(S.Ground("X"), S.Ground("X")):
                return self.term_fn(d)
        return self.hp(ty)

    # Consume chains: derivations of type X whose context ends with the
    # demanded entries, extended only in front.

    def _base_consumer(self, x, ty):
        match ty:
            case S.Ground("X"):
                return self.hp(X, x)
            case S.BangType(1, _):
                return self.derelict(self.hp(ty, x))
        raise AssertionError(f"no consumer base for {ty}")

    def _extend_front(self, e, d, keep_tail):
        rng = self.rng
        for _ in range(rng.randrange(max(d, 0) + 1)):
            match rng.choice(["wait", "plus", "unitlet"]):
                case "wait":
                    e = self.op(f"wait_{rng.randrange(4)}", X, (e,),
                                keep_tail=keep_tail)
                case "plus":
                    e = self.op("plus", X, (self.term_X(d - 1), e),
                                keep_tail=keep_tail)
                case "unitlet":
                    e = self.unitlet(self.term_I(d - 1), e,
                                     keep_tail=keep_tail)
        return e

    def consume1(self, x, ty, d):
        return self._extend_front(self._base_consumer(x, ty), d, 1)

    def consume2(self, x, tyx, y, tyy, d):
        ex = self._base_consumer(x, tyx)
        ey = self._base_consumer(y, tyy)
        parts = (ex.conclusion.context, ey.conclusion.context)
        base = _node("ax", parts[0] + parts[1],
                     S.OpApp("plus", (ex.conclusion.term,
                                      ey.conclusion.term)),
                     X, (ex, ey), parts)
        return self._extend_front(base, d, 2)


# ---------------------------------------------------------------------------
# Untyped terms over a small name pool, and naive references for
# alpha-equivalence and substitution.  With five names, binders shadow
# each other and plugs clash with binders in most terms; a1 and b1 are
# the names fresh_name gives a and b, so a renamed binder can also meet a
# variable the term already has.

POOL = ("a", "b", "c", "a1", "b1")


def pool_term(rng, size, pool=POOL):
    """A random term of about size nodes over every constructor; variables
    and binders are drawn from pool, the binders of one group distinct."""
    if size <= 1:
        return S.Var(rng.choice(pool)) if rng.random() < 0.9 else S.Star()
    go = lambda k: pool_term(rng, k, pool)
    left = rng.randrange(1, size)
    right = max(1, size - 1 - left)
    x, y = rng.sample(pool, 2)
    match rng.randrange(11):
        case 0:
            return S.OpApp("f", (go(left), go(right)))
        case 1:
            return S.UnitLet(go(left), go(right))
        case 2:
            return S.TensorPair(go(left), go(right))
        case 3:
            return S.TensorLet(go(left), x, y, go(right))
        case 4:
            return S.Lambda(x, X, go(size - 1))
        case 5:
            return S.App(go(left), go(right))
        case 6:
            k = rng.randrange(3)
            return S.Promote(1, (1,) * k, tuple(go(left) for _ in range(k)),
                             tuple(rng.sample(pool, k)), go(right))
        case 7:
            return S.Derelict(go(size - 1))
        case 8:
            return S.Discard(go(left), go(right))
        case 9:
            return S.Copy(1, 1, go(left), x, y, go(right))
        case _:
            return S.Lambda(x, X, S.Lambda(y if rng.random() < 0.5 else x,
                                           X, go(size - 2)))


def rebind(rng, t, pool=POOL, env=None):
    """t with binders renamed at random from pool and each bound occurrence
    following its binder, without regard to capture: alpha-equal to t
    unless a new name captures an occurrence."""
    env = env or {}
    if type(t) is S.Var:
        return S.Var(env.get(t.name, t.name))
    shape = S.SHAPES[type(t)]
    kids, binders = shape.parts(t)
    n = len(kids) - 1 if binders else len(kids)
    new = [rebind(rng, kids[i], pool, env) for i in range(n)]
    if n < len(kids):
        names = tuple(rng.sample(pool, len(binders)))
        new.append(rebind(rng, kids[n], pool, {**env,
                                               **dict(zip(binders, names))}))
        binders = names
    return shape.rebuild(t, new, binders)


def nameless(t, groups=()):
    """t in de Bruijn form: a bound occurrence becomes the number of binder
    groups between it and its binder, and its binder's place in the group.
    Two terms are alpha-equal exactly when their nameless forms are equal.
    """
    if type(t) is S.Var:
        for k, group in enumerate(reversed(groups)):
            if t.name in group:
                return ("bound", k, group.index(t.name))
        return ("free", t.name)
    shape = S.SHAPES[type(t)]
    kids, binders = shape.parts(t)
    n = len(kids) - 1 if binders else len(kids)
    out = [nameless(kids[i], groups) for i in range(n)]
    if n < len(kids):
        out.append(nameless(kids[n], groups + (binders,)))
    return (type(t).__name__, shape.notes(t), tuple(out))


def reference_substitute(t, mapping):
    """Capture-avoiding simultaneous substitution, naively: every binder of
    t gets a globally fresh name, then free occurrences are replaced."""
    taken = S.all_names(t) | set(mapping)
    for w in mapping.values():
        taken |= S.all_names(w)
    fresh = (f"r{i}" for i in itertools.count() if f"r{i}" not in taken)

    def go(u, env):
        if type(u) is S.Var:
            if u.name in env:
                return S.Var(env[u.name])
            return mapping.get(u.name, u)
        shape = S.SHAPES[type(u)]
        kids, binders = shape.parts(u)
        n = len(kids) - 1 if binders else len(kids)
        new = [go(kids[i], env) for i in range(n)]
        if n < len(kids):
            names = tuple(next(fresh) for _ in binders)
            new.append(go(kids[n], {**env, **dict(zip(binders, names))}))
            binders = names
        return shape.rebuild(u, new, binders)

    return go(t, {})


def reference_extract_plugs(u, holes, t):
    """Plug matching by extract-then-reassemble, the reference for
    rewrite.extract_plugs: a loose match that pairs the binders of u and t
    by name, then u with the plugs substituted is compared with t."""
    holes = tuple(holes)
    found = {}

    def go(a, b, ren):
        if type(a) is S.Var and a.name in holes and a.name not in ren:
            if a.name in found and not S.alpha_eq(found[a.name], b):
                raise MatchError(f"hole {a.name} matched two different terms")
            found[a.name] = b
            return
        if type(a) is not type(b):
            raise MatchError("shape mismatch")
        if type(a) is S.Var:
            if ren.get(a.name, a.name) != b.name:
                raise MatchError("variable mismatch")
            return
        shape = S.SHAPES[type(a)]
        kids_a, xs_a = shape.parts(a)
        kids_b, xs_b = shape.parts(b)
        if shape.notes(a) != shape.notes(b) or len(kids_a) != len(kids_b):
            raise MatchError("annotation mismatch")
        n = len(kids_a) - 1 if xs_a else len(kids_a)
        for i in range(n):
            go(kids_a[i], kids_b[i], ren)
        if n < len(kids_a):
            go(kids_a[n], kids_b[n], {**ren, **dict(zip(xs_a, xs_b))})

    go(u, t, {})
    for h in holes:
        if h not in found:
            raise MatchError(f"hole {h} does not occur in the context term")
    if not S.alpha_eq(S.substitute(u, found), t):
        raise MatchError("context term does not reassemble the matched term")
    return found


def hole_pair(rng, pool=POOL):
    """(u, t) for plug matching with the one hole z: t is a pool term and u
    is t with one subterm replaced by z, and each has its binders renamed
    by rebind, so that u matches t in most pairs and captures in some."""
    from gvlam.rewrite import positioned_subterms, replace_subterm
    t = pool_term(rng, rng.randrange(2, 14), pool)
    pos, _ = rng.choice(list(positioned_subterms(t)))
    u = replace_subterm(t, pos, S.Var("z"))
    return rebind(rng, u, pool), rebind(rng, t, pool)


def reference_instance(family, theory_spec, params):
    """family's instance at params as oracles.reference_instantiate builds
    it, from the source text; the bound is not read (it is taken as 0), so
    a family whose bound fails still has sides."""
    sides_only = types.SimpleNamespace(
        name=family.name, params=family.params, derived=family.derived,
        srcs=family.srcs, bound=lambda values: 0)
    return reference_instantiate(sides_only, theory_spec, params)


def numbers(node) -> set:
    """The numbers in node's "_"-separated name segments and its grades."""
    if type(node) is str:
        return {int(seg) for seg in node.split("_") if seg.isdecimal()}
    if type(node) is int:
        return {node}
    parts = node if type(node) is tuple else [
        getattr(node, f.name) for f in dataclasses.fields(node)] \
        if dataclasses.is_dataclass(node) else ()
    return set().union(*map(numbers, parts))


def reference_candidates(family, theory_spec, v, w):
    """AxiomTemplate.candidates by brute force: every parameter tuple over
    the numbers in v and w, each instance built by reference_instance, kept
    where extract_plugs matches its sides against v and w with alpha-equal
    plugs; a tuple whose derived parameters are not natural numbers has no
    instance.  Each is a (parameters, plugs) pair, the plugs v's."""
    out = []
    for values in itertools.product(sorted(numbers(v) | numbers(w)),
                                    repeat=len(family.params)):
        params = dict(zip(family.params, values))
        try:
            inst = reference_instance(family, theory_spec, params)
        except TheoryError:
            continue
        holes = [x for x, _ in inst.context]
        try:
            left = extract_plugs(inst.lhs, holes, v)
            right = extract_plugs(inst.rhs, holes, w)
        except MatchError:
            continue
        if all(S.alpha_eq(left[h], right[h]) for h in holes):
            out.append((params, left))
    return out


# ---------------------------------------------------------------------------
# Wait perturbation (for bound-vs-model audits)

def wait_positions(term):
    from gvlam.rewrite import all_positions, get_subterm
    out = []
    for pos in all_positions(term):
        sub = get_subterm(term, pos)
        match sub:
            case S.OpApp(op, _) if op.startswith("wait_") \
                    and op[len("wait_"):].isdigit():
                out.append((pos, int(op[len("wait_"):])))
    return out


def perturb_waits(rng, term, max_sites=3):
    """Bump wait indices at an antichain of positions; returns the new
    term and the exact sum of index differences."""
    from gvlam.rewrite import get_subterm, replace_subterm
    sites = wait_positions(term)
    rng.shuffle(sites)
    chosen = []
    for pos, k in sites:
        if any(pos[:len(q)] == q or q[:len(pos)] == pos
               for q, _ in chosen):
            continue
        chosen.append((pos, k))
        if len(chosen) >= max_sites:
            break
    total = Fraction(0)
    out = term
    for pos, k in chosen:
        k2 = rng.randrange(6)
        sub = get_subterm(out, pos)
        out = replace_subterm(out, pos, S.OpApp(f"wait_{k2}", sub.args))
        total += abs(k - k2)
    return out, total, len(chosen)


# ---------------------------------------------------------------------------
# Schema-row instantiators.  Each builder returns (ctx, lhs_term, step)
# with the step applicable at the root, left to right.

def _w(rng, t):
    for _ in range(rng.randrange(3)):
        t = S.OpApp(f"wait_{rng.randrange(4)}", (t,))
    return t


def _wv(rng, name):
    return _w(rng, S.Var(name))


def _plus(a, b):
    return S.OpApp("plus", (a, b))


def _der(name):
    return S.Derelict(S.Var(name))


def _step(schema, **bindings):
    return RewriteStep(schema, (), "L2R", bindings)


def _b_tensor_beta(rng):
    ctx = (("a", X), ("b", X))
    body = _plus(_wv(rng, "x"), _wv(rng, "y"))
    lhs = S.TensorLet(S.TensorPair(_wv(rng, "a"), _wv(rng, "b")),
                      "x", "y", body)
    return ctx, lhs, _step(SchemaId.TENSOR_BETA)


def _b_tensor_eta(rng):
    ctx = (("a", X), ("b", X))
    u = S.TensorLet(S.Var("z"), "p", "q", _plus(_wv(rng, "p"), S.Var("q")))
    v = S.TensorPair(_wv(rng, "a"), _wv(rng, "b"))
    body = S.TensorLet(S.TensorPair(S.Var("x"), S.Var("y")), "p", "q",
                       _plus(_wv(rng, "p"), S.Var("q")))
    lhs = S.TensorLet(v, "x", "y", body)
    # The plugged copy of u must match the body exactly, so rebuild u from
    # the body's own shape.
    u = S.TensorLet(S.Var("z"), "p", "q", body.body)
    return ctx, lhs, _step(SchemaId.TENSOR_ETA, u=u, z="z")


def _b_unit_beta(rng):
    ctx = (("b", X),)
    return ctx, S.UnitLet(S.Star(), _wv(rng, "b")), \
        _step(SchemaId.UNIT_BETA)


def _b_unit_eta(rng):
    ctx = (("u0", I), ("b", X))
    inner = _wv(rng, "b")
    w = S.UnitLet(S.Var("z"), inner)
    lhs = S.UnitLet(S.Var("u0"), S.UnitLet(S.Star(), inner))
    return ctx, lhs, _step(SchemaId.UNIT_ETA, w=w, z="z")


def _b_lolli_beta(rng):
    ctx = (("a", X), ("b", X))
    lhs = S.App(S.Lambda("x", X, _plus(_wv(rng, "x"), _wv(rng, "a"))),
                _wv(rng, "b"))
    return ctx, lhs, _step(SchemaId.LOLLI_BETA)


def _b_lolli_eta(rng):
    v = S.Lambda("y", X, _wv(rng, "y"))
    lhs = S.Lambda("x", X, S.App(v, S.Var("x")))
    return (), lhs, _step(SchemaId.LOLLI_ETA)


def _b_bang_beta(rng):
    ctx = (("a", bang(1)),)
    body = _w(rng, S.Derelict(S.Var("x")))
    lhs = S.Derelict(S.Promote(1, (1,), (S.Var("a"),), ("x",), body))
    return ctx, lhs, _step(SchemaId.BANG_BETA)


def _b_bang_eta(rng):
    r = rng.choice((1, 2, 3))
    ctx = (("a", bang(r)),)
    lhs = S.Promote(r, (1,), (S.Var("a"),), ("x",), S.Derelict(S.Var("x")))
    return ctx, lhs, _step(SchemaId.BANG_ETA)


def _b_promote_assoc(rng):
    r1, r2 = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
    ctx = (("a", bang(r1 * r2)),)
    inner = S.Promote(r1 * r2, (1,), (S.Var("a"),), ("y",),
                      _w(rng, S.Derelict(S.Var("y"))))
    lhs = S.Promote(r1, (r2,), (inner,), ("z",), S.Var("z"))
    return ctx, lhs, _step(SchemaId.PROMOTE_ASSOC)


def _b_promote_symm(rng):
    r = rng.choice((1, 2))
    ctx = (("a", bang(r)), ("b", bang(r)))
    lhs = S.Promote(r, (1, 1), (S.Var("a"), S.Var("b")), ("x1", "x2"),
                    _plus(_w(rng, _der("x1")), _w(rng, _der("x2"))))
    return ctx, lhs, _step(SchemaId.PROMOTE_SYMM, i=0)


def _b_copy_unit_left(rng):
    ctx = (("a", bang(1)),)
    lhs = S.Copy(0, 1, S.Var("a"), "x", "y",
                 S.Discard(S.Var("x"), _w(rng, _der("y"))))
    return ctx, lhs, _step(SchemaId.COPY_UNIT_LEFT)


def _b_copy_unit_right(rng):
    ctx = (("a", bang(1)),)
    lhs = S.Copy(1, 0, S.Var("a"), "x", "y",
                 S.Discard(S.Var("y"), _w(rng, _der("x"))))
    return ctx, lhs, _step(SchemaId.COPY_UNIT_RIGHT)


def _b_copy_assoc(rng):
    ctx = (("s", bang(3)),)
    inner = S.Copy(1, 1, S.Var("x"), "p", "q",
                   _plus(_w(rng, _der("p")),
                         _plus(_w(rng, _der("q")), _w(rng, _der("y")))))
    lhs = S.Copy(2, 1, S.Var("s"), "x", "y", inner)
    return ctx, lhs, _step(SchemaId.COPY_ASSOC)


def _b_copy_comm(rng):
    ctx = (("s", bang(3)),)
    split_right = S.Copy(1, 1, S.Var("y"), "p", "q",
                         _plus(_w(rng, _der("p")), _w(rng, _der("q"))))
    lhs = S.Copy(1, 2, S.Var("s"), "x", "y",
                 _plus(_w(rng, _der("x")), split_right))
    return ctx, lhs, _step(SchemaId.COPY_COMM)


def _b_discard_promote(rng):
    ctx = (("a", bang(0)), ("b", bang(0)), ("d", X))
    body = _plus(_der("x1"), _der("x2"))
    lhs = S.Discard(
        S.Promote(0, (1, 1), (S.Var("a"), S.Var("b")), ("x1", "x2"), body),
        _wv(rng, "d"))
    return ctx, lhs, _step(SchemaId.DISCARD_PROMOTE)


def _b_promote_discard(rng):
    r = rng.choice((1, 2))
    ctx = (("a", bang(0)), ("b", bang(r)))
    lhs = S.Promote(r, (0, 1), (S.Var("a"), S.Var("b")), ("x1", "x2"),
                    S.Discard(S.Var("x1"), _w(rng, _der("x2"))))
    return ctx, lhs, _step(SchemaId.PROMOTE_DISCARD)


def _b_copy_promote(rng):
    ctx = (("a", bang(2)),)
    scrut = S.Promote(2, (1,), (S.Var("a"),), ("x",),
                      _w(rng, _der("x")))
    lhs = S.Copy(1, 1, scrut, "y", "z",
                 _plus(_w(rng, _der("y")), _w(rng, _der("z"))))
    return ctx, lhs, _step(SchemaId.COPY_PROMOTE)


def _b_promote_copy(rng):
    ctx = (("a", bang(2)),)
    body = S.Copy(1, 1, S.Var("z"), "x", "y",
                  _plus(_w(rng, _der("x")), _w(rng, _der("y"))))
    lhs = S.Promote(1, (2,), (S.Var("a"),), ("z",), body)
    return ctx, lhs, _step(SchemaId.PROMOTE_COPY)


def _b_cc_unit(rng):
    ctx = (("u0", I), ("b", X), ("e", X))
    k = S.UnitLet(S.Var("u0"), _wv(rng, "b"))
    u = _plus(S.Var("z"), _wv(rng, "e"))
    lhs = _plus(k, u.args[1])
    return ctx, lhs, _step(SchemaId.CC_UNIT, u=u, z="z")


def _b_cc_tensor(rng):
    ctx = (("p", XX), ("e", X))
    k = S.TensorLet(S.Var("p"), "x", "y", _plus(_wv(rng, "x"), S.Var("y")))
    u = _plus(S.Var("z"), _wv(rng, "e"))
    lhs = _plus(k, u.args[1])
    return ctx, lhs, _step(SchemaId.CC_TENSOR, u=u, z="z")


def _b_cc_discard(rng):
    ctx = (("d0", bang(0)), ("b", X), ("e", X))
    k = S.Discard(S.Var("d0"), _wv(rng, "b"))
    u = _plus(S.Var("z"), _wv(rng, "e"))
    lhs = _plus(k, u.args[1])
    return ctx, lhs, _step(SchemaId.CC_DISCARD, u=u, z="z")


def _b_cc_copy(rng):
    ctx = (("s", bang(2)), ("e", X))
    k = S.Copy(1, 1, S.Var("s"), "x", "y",
               _plus(_w(rng, _der("x")), _w(rng, _der("y"))))
    u = _plus(S.Var("z"), _wv(rng, "e"))
    lhs = _plus(k, u.args[1])
    return ctx, lhs, _step(SchemaId.CC_COPY, u=u, z="z")


SCHEMA_BUILDERS = {
    SchemaId.TENSOR_BETA: _b_tensor_beta,
    SchemaId.TENSOR_ETA: _b_tensor_eta,
    SchemaId.UNIT_BETA: _b_unit_beta,
    SchemaId.UNIT_ETA: _b_unit_eta,
    SchemaId.LOLLI_BETA: _b_lolli_beta,
    SchemaId.LOLLI_ETA: _b_lolli_eta,
    SchemaId.BANG_BETA: _b_bang_beta,
    SchemaId.BANG_ETA: _b_bang_eta,
    SchemaId.PROMOTE_ASSOC: _b_promote_assoc,
    SchemaId.PROMOTE_SYMM: _b_promote_symm,
    SchemaId.COPY_UNIT_LEFT: _b_copy_unit_left,
    SchemaId.COPY_UNIT_RIGHT: _b_copy_unit_right,
    SchemaId.COPY_ASSOC: _b_copy_assoc,
    SchemaId.COPY_COMM: _b_copy_comm,
    SchemaId.DISCARD_PROMOTE: _b_discard_promote,
    SchemaId.PROMOTE_DISCARD: _b_promote_discard,
    SchemaId.COPY_PROMOTE: _b_copy_promote,
    SchemaId.PROMOTE_COPY: _b_promote_copy,
    SchemaId.CC_UNIT: _b_cc_unit,
    SchemaId.CC_TENSOR: _b_cc_tensor,
    SchemaId.CC_DISCARD: _b_cc_discard,
    SchemaId.CC_COPY: _b_cc_copy,
}

# ---------------------------------------------------------------------------
# The schema rows as functions, one per direction, as they were before the
# table: the reference for the table and for the rows over vectors whose
# freshness conditions are now checked (gvlam.rewrite._ROWS).


def _need(b, key):
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


def _decompose(u, z, t):
    return extract_plugs(u, (z,), t)[z]


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


REFERENCE_ROWS = {
    SchemaId.TENSOR_BETA: (_tensor_beta_l, _tensor_beta_r),
    SchemaId.TENSOR_ETA: (_tensor_eta_l, _tensor_eta_r),
    SchemaId.UNIT_BETA: (_unit_beta_l, _unit_beta_r),
    SchemaId.UNIT_ETA: (_unit_eta_l, _unit_eta_r),
    SchemaId.LOLLI_BETA: (_lolli_beta_l, _lolli_beta_r),
    SchemaId.LOLLI_ETA: (_lolli_eta_l, _lolli_eta_r),
    SchemaId.BANG_ETA: (_bang_eta_l, _bang_eta_r),
    SchemaId.PROMOTE_ASSOC: (_promote_assoc_l, _promote_assoc_r),
    SchemaId.COPY_UNIT_LEFT: (_copy_unit_left_l, _copy_unit_left_r),
    SchemaId.COPY_UNIT_RIGHT: (_copy_unit_right_l, _copy_unit_right_r),
    SchemaId.COPY_ASSOC: (_copy_assoc_l, _copy_assoc_r),
    SchemaId.COPY_COMM: (_copy_comm, _copy_comm),
    SchemaId.PROMOTE_DISCARD: (_promote_discard_l, _promote_discard_r),
    SchemaId.PROMOTE_COPY: (_promote_copy_l, _promote_copy_r),
    SchemaId.CC_UNIT: (_cc_unit_l, _cc_unit_r),
    SchemaId.CC_TENSOR: (_cc_tensor_l, _cc_tensor_r),
    SchemaId.CC_DISCARD: (_cc_discard_l, _cc_discard_r),
    SchemaId.CC_COPY: (_cc_copy_l, _cc_copy_r),
}


def reference_rewrite_term(term, step, semiring=NatSemiring()):
    """rewrite.rewrite_term with the reference rows: a right-to-left
    proposal stands only if the row read left to right takes it back."""
    sub = get_subterm(term, step.position)
    row = _ROWS[step.schema]
    l2r, r2l = REFERENCE_ROWS.get(step.schema, (row.l2r, row.r2l))
    if step.direction == "L2R":
        return replace_subterm(term, step.position,
                               l2r(sub, step.bindings, semiring))
    redex = r2l(sub, step.bindings, semiring)
    try:
        if S.alpha_eq(l2r(redex, step.bindings, semiring), sub):
            return replace_subterm(term, step.position, redex)
    except MatchError:
        pass
    raise MatchError(f"{step.schema.value} read left to right does not "
                     f"take the proposal back")


def row_bindings(schema, lhs, step):
    """The bindings a script writes to read the row right to left, back to
    lhs, which step rewrites left to right."""
    match schema, lhs:
        case SchemaId.TENSOR_BETA, S.TensorLet(_, x, y, u):
            return {"u": u, "x": x, "y": y}
        case SchemaId.LOLLI_BETA, S.App(S.Lambda(x, ty, v), _):
            return {"v": v, "x": x, "ty": ty}
        case SchemaId.LOLLI_ETA, S.Lambda(x, ty, _):
            return {"ty": ty, "x": x}
        case SchemaId.BANG_BETA, S.Derelict(S.Promote(_, ss, _, xs, u)):
            return {"u": u, "xs": xs, "ss": ss}
        case SchemaId.BANG_ETA, S.Promote(r, _, _, _, _):
            return {"r": r}
        case SchemaId.PROMOTE_ASSOC, S.Promote(_, _, _, (a, *_), w):
            return {"w": w, "a": a}
        case SchemaId.COPY_UNIT_LEFT, S.Copy(_, n, _, _, z,
                                             S.Discard(_, u)):
            return {"u": u, "z": z, "n": n}
        case SchemaId.COPY_UNIT_RIGHT, S.Copy(n, _, _, z, _,
                                              S.Discard(_, u)):
            return {"u": u, "z": z, "n": n}
        case SchemaId.DISCARD_PROMOTE, S.Discard(
                S.Promote(_, ss, _, xs, w), _):
            return {"w": w, "ss": ss, "xs": xs}
        case SchemaId.COPY_PROMOTE, S.Copy(n, m, S.Promote(_, ss, _, _, _),
                                           y, z, u):
            return {"u": u, "y": y, "z": z, "n": n, "m": m, "o": len(ss)}
    return step.bindings


# ---------------------------------------------------------------------------
# Beta scripts, written as the benchmark writes them: one lolli-beta schema
# leaf per outermost step of a beta-redex nest, then a congruence proof
# from the nest's normal form to a wait chain that differs from it in
# wait indices.  The terms are built and printed here, not by gvlam.

def wait_chain(ks, base=None):
    """wait_{ks[-1]}(… wait_{ks[0]}(base)), base defaulting to y."""
    t = S.Var("y") if base is None else base
    for k in ks:
        t = S.OpApp(f"wait_{k}", (t,))
    return t


def beta_nest(ks):
    """(fn x_{d-1} : X => wait(x_{d-1})) (… ((fn x0 : X => wait(x0)) y))"""
    t = S.Var("y")
    for i, k in enumerate(ks):
        x = f"x{i}"
        t = S.App(S.Lambda(x, X, S.OpApp(f"wait_{k}", (S.Var(x),))), t)
    return t


def show_nest(t) -> str:
    match t:
        case S.Var(name):
            return name
        case S.OpApp(op, args):
            return f"{op}({', '.join(show_nest(a) for a in args)})"
        case S.Lambda(x, _, body):
            return f"(fn {x} : X => {show_nest(body)})"
        case S.App(f, a):
            return f"({show_nest(f)}) ({show_nest(a)})"
    raise ValueError(f"no printer for {t!r}")


def beta_script(ks, ks2) -> str:
    """A proof of beta_nest(ks) = wait_chain(ks2) at sum |ks - ks2|."""
    d = len(ks)
    steps = []
    for j in range(d):
        current = wait_chain(ks[d - j:], beta_nest(ks[:d - j]))
        pos = f" :pos {'.'.join('0' * j)}" if j else ""
        steps.append(f'(schema lolli-beta :ctx "y : X" '
                     f':term "{show_nest(current)}"{pos})')
    steps.append(_wait_congruence(wait_chain(ks), wait_chain(ks2)))
    return "(trans " + " ".join(steps) + ")"


def random_beta_script(rng, d):
    """A beta script on a d-deep nest with two wait_1 nodes, proved equal
    to a chain that differs at one site."""
    ks = [0] * d
    for i in rng.sample(range(d), min(2, d)):
        ks[i] = 1
    ks2 = list(ks)
    i = rng.randrange(d)
    ks2[i] = rng.choice([c for c in (0, 1, 2, 3) if c != ks[i]])
    return beta_script(ks, ks2)


def _wait_congruence(v, w) -> str:
    if v == w:
        return f'(refl :ctx "y : X" "{show_nest(v)}")'
    (a,), (b,) = v.args, w.args
    if v.op == w.op:
        return f"(cong-op {v.op} {_wait_congruence(a, b)})"
    n, m = v.op[len("wait_"):], w.op[len("wait_"):]
    if type(b) is S.Var:
        step = f'(axiom wait :n {n} :m {m} :rename "x=y")'
    else:
        step = (f"(cong-subst :x x (axiom wait :n {n} :m {m}) "
                f'(refl :ctx "y : X" "{show_nest(b)}"))')
    if a == b:
        return step
    return f"(trans (cong-op {v.op} {_wait_congruence(a, b)}) {step})"


# ---------------------------------------------------------------------------
# The term tokenizer before it tokenized in one pass: one match per token
# and its line and column kept on every token.  The reference for
# parser.tokenize.

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<tpair>\(\*\))
  | (?P<arrow>=>|-o|->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>[0-9]+)
  | (?P<punct>[()\[\];:,=*!.])
    """,
    re.VERBOSE,
)


@dataclass
class ReferenceToken:
    kind: str
    text: str
    line: int
    col: int
    glued: bool  # True when no whitespace separates it from the previous token


def reference_tokenize(text: str):
    tokens = []
    pos, line, col = 0, 1, 1
    glued = True
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            glued = False
        else:
            tokens.append(ReferenceToken(kind, chunk, line, col, glued))
            glued = True
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(ReferenceToken("eof", "", line, col, False))
    return tokens
