"""Shared test helpers: signatures, models, a random derivation generator
that mirrors the checker's node layout, per-row instantiators for the
program-equation schema, beta-nest proof scripts, and the reference term
tokenizer."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from gvlam import syntax as S
from gvlam import theory
from gvlam.metmodel import ModelAssignment, timed_space
from gvlam.parser import ParseError
from gvlam.rewrite import RewriteStep, SchemaId
from gvlam.typecheck import Derivation, Judgement

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
