"""Abstract syntax of the graded calculus.

Terms and types are immutable trees.  Binders are plain string identifiers;
alpha-equivalence and capture-avoiding substitution rename them on demand
with a deterministic numeric-suffix scheme so printed output is stable
across runs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import factorial


class SyntaxError_(ValueError):
    pass


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Ground(TypeExpr):
    name: str


@dataclass(frozen=True)
class UnitType(TypeExpr):
    pass


@dataclass(frozen=True)
class TensorType(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class LolliType(TypeExpr):
    arg: TypeExpr
    result: TypeExpr


@dataclass(frozen=True)
class BangType(TypeExpr):
    grade: object
    body: TypeExpr


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Star(Term):
    pass


@dataclass(frozen=True)
class OpApp(Term):
    op: str
    args: tuple


@dataclass(frozen=True)
class UnitLet(Term):
    value: Term
    body: Term


@dataclass(frozen=True)
class TensorPair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TensorLet(Term):
    value: Term
    x: str
    y: str
    body: Term


@dataclass(frozen=True)
class Lambda(Term):
    var: str
    ty: TypeExpr
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Promote(Term):
    grade: object          # r
    grades: tuple          # s_1, ..., s_n
    args: tuple            # v_1, ..., v_n
    binders: tuple         # x_1, ..., x_n
    body: Term

    def __post_init__(self):
        if not (len(self.grades) == len(self.args) == len(self.binders)):
            raise SyntaxError_("promote vectors must have equal length")


@dataclass(frozen=True)
class Derelict(Term):
    value: Term


@dataclass(frozen=True)
class Discard(Term):
    value: Term
    body: Term


@dataclass(frozen=True)
class Copy(Term):
    left_grade: object
    right_grade: object
    value: Term
    x: str
    y: str
    body: Term


# ---------------------------------------------------------------------------
# Contexts and signatures

Context = tuple  # of (name, TypeExpr) pairs


def ctx_names(ctx: Context):
    return [name for name, _ in ctx]


def check_context(ctx: Context) -> Context:
    names = ctx_names(ctx)
    if len(set(names)) != len(names):
        raise SyntaxError_(f"duplicate variables in context {names}")
    return tuple(ctx)


@dataclass(frozen=True)
class OpFamily:
    """An N-indexed family of symbols like wait_0, wait_1, ..."""

    base: str
    arg_types: tuple
    result: TypeExpr

    def match(self, name: str) -> bool:
        prefix = self.base + "_"
        return name.startswith(prefix) and name[len(prefix):].isdigit()

    def sort(self, name: str):
        return (self.arg_types, self.result) if self.match(name) else None


@dataclass
class Signature:
    grounds: frozenset
    ops: dict = field(default_factory=dict)        # name -> (arg_types, result)
    families: list = field(default_factory=list)   # [OpFamily]

    def declare(self, name: str, arg_types, result: TypeExpr):
        if not arg_types:
            raise SyntaxError_(f"operation {name} must have arity >= 1")
        if name in self.ops:
            raise SyntaxError_(f"duplicate operation {name}")
        self.ops[name] = (tuple(arg_types), result)

    def declare_family(self, base: str, arg_types, result: TypeExpr):
        if not arg_types:
            raise SyntaxError_(f"operation family {base} must have arity >= 1")
        self.families.append(OpFamily(base, tuple(arg_types), result))

    def lookup(self, name: str):
        if name in self.ops:
            return self.ops[name]
        for fam in self.families:
            sort = fam.sort(name)
            if sort is not None:
                return sort
        return None


# ---------------------------------------------------------------------------
# Free variables

def free_var_counts(t: Term) -> Counter:
    out = Counter()
    _fv(t, out, frozenset())
    return out


def _fv(t: Term, out: Counter, bound: frozenset):
    match t:
        case Var(name):
            if name not in bound:
                out[name] += 1
        case Star():
            pass
        case OpApp(_, args):
            for a in args:
                _fv(a, out, bound)
        case UnitLet(value, body):
            _fv(value, out, bound)
            _fv(body, out, bound)
        case TensorPair(left, right):
            _fv(left, out, bound)
            _fv(right, out, bound)
        case TensorLet(value, x, y, body):
            _fv(value, out, bound)
            _fv(body, out, bound | {x, y})
        case Lambda(var, _, body):
            _fv(body, out, bound | {var})
        case App(fn, arg):
            _fv(fn, out, bound)
            _fv(arg, out, bound)
        case Promote(_, _, args, binders, body):
            for a in args:
                _fv(a, out, bound)
            _fv(body, out, bound | set(binders))
        case Derelict(value):
            _fv(value, out, bound)
        case Discard(value, body):
            _fv(value, out, bound)
            _fv(body, out, bound)
        case Copy(_, _, value, x, y, body):
            _fv(value, out, bound)
            _fv(body, out, bound | {x, y})
        case _:
            raise SyntaxError_(f"unknown term node {t!r}")


def free_vars(t: Term) -> set:
    return set(free_var_counts(t))


def all_names(t: Term) -> set:
    """Free and bound variable names occurring anywhere in the term."""
    out = set()

    def go(u):
        match u:
            case Var(name):
                out.add(name)
            case Star():
                pass
            case OpApp(_, args):
                for a in args:
                    go(a)
            case UnitLet(v, b) | App(v, b) | Discard(v, b) | TensorPair(v, b):
                go(v)
                go(b)
            case TensorLet(v, x, y, b):
                out.update((x, y))
                go(v)
                go(b)
            case Lambda(x, _, b):
                out.add(x)
                go(b)
            case Promote(_, _, args, binders, b):
                out.update(binders)
                for a in args:
                    go(a)
                go(b)
            case Derelict(v):
                go(v)
            case Copy(_, _, v, x, y, b):
                out.update((x, y))
                go(v)
                go(b)

    go(t)
    return out


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


# ---------------------------------------------------------------------------
# Alpha equivalence

def alpha_eq(a: Term, b: Term) -> bool:
    return _aeq(a, b, {}, {})


def _aeq(a, b, env_a, env_b) -> bool:
    if a is b and env_a == env_b:
        return True
    if type(a) is not type(b):
        return False
    match a, b:
        case (Var(x), Var(y)):
            return env_a.get(x, ("free", x)) == env_b.get(y, ("free", y))
        case (Star(), Star()):
            return True
        case (OpApp(f, xs), OpApp(g, ys)):
            return f == g and len(xs) == len(ys) and all(
                _aeq(x, y, env_a, env_b) for x, y in zip(xs, ys))
        case (UnitLet(v1, b1), UnitLet(v2, b2)):
            return _aeq(v1, v2, env_a, env_b) and _aeq(b1, b2, env_a, env_b)
        case (TensorPair(l1, r1), TensorPair(l2, r2)):
            return _aeq(l1, l2, env_a, env_b) and _aeq(r1, r2, env_a, env_b)
        case (TensorLet(v1, x1, y1, b1), TensorLet(v2, x2, y2, b2)):
            if not _aeq(v1, v2, env_a, env_b):
                return False
            return _aeq(b1, b2, _bind(env_a, x1, y1), _bind(env_b, x2, y2))
        case (Lambda(x1, t1, b1), Lambda(x2, t2, b2)):
            if t1 != t2:
                return False
            return _aeq(b1, b2, _bind(env_a, x1), _bind(env_b, x2))
        case (App(f1, a1), App(f2, a2)):
            return _aeq(f1, f2, env_a, env_b) and _aeq(a1, a2, env_a, env_b)
        case (Promote(r1, s1, vs1, xs1, b1), Promote(r2, s2, vs2, xs2, b2)):
            if r1 != r2 or s1 != s2 or len(vs1) != len(vs2):
                return False
            if not all(_aeq(u, v, env_a, env_b) for u, v in zip(vs1, vs2)):
                return False
            return _aeq(b1, b2, _bind(env_a, *xs1), _bind(env_b, *xs2))
        case (Derelict(v1), Derelict(v2)):
            return _aeq(v1, v2, env_a, env_b)
        case (Discard(v1, b1), Discard(v2, b2)):
            return _aeq(v1, v2, env_a, env_b) and _aeq(b1, b2, env_a, env_b)
        case (Copy(n1, m1, v1, x1, y1, b1), Copy(n2, m2, v2, x2, y2, b2)):
            if n1 != n2 or m1 != m2 or not _aeq(v1, v2, env_a, env_b):
                return False
            return _aeq(b1, b2, _bind(env_a, x1, y1), _bind(env_b, x2, y2))
    return False


def _bind(env, *names):
    env = dict(env)
    for name in names:
        # The binder's position within its group is a stable tie-breaker.
        env[name] = ("bound", len(env), names.index(name))
    return env


# ---------------------------------------------------------------------------
# Substitution

def substitute(term: Term, repl: Term, var: str) -> Term:
    """Capture-avoiding substitution term[repl/var]."""
    return _subst(term, repl, var, free_vars(repl))


def _subst(t, w, x, fv_w):
    """t[w/x]; a binder that shadows x leaves its body untouched."""
    match t:
        case Var(name):
            return w if name == x else t
        case Star():
            return t
        case OpApp(f, args):
            return OpApp(f, tuple(_subst(a, w, x, fv_w) for a in args))
        case UnitLet(v, b):
            return UnitLet(_subst(v, w, x, fv_w), _subst(b, w, x, fv_w))
        case TensorPair(l, r):
            return TensorPair(_subst(l, w, x, fv_w), _subst(r, w, x, fv_w))
        case TensorLet(v, bx, by, b):
            v2 = _subst(v, w, x, fv_w)
            if x in (bx, by):
                return TensorLet(v2, bx, by, b)
            (bx2, by2), b2 = _avoid((bx, by), b, fv_w)
            return TensorLet(v2, bx2, by2, _subst(b2, w, x, fv_w))
        case Lambda(var, ty, b):
            if var == x:
                return t
            (var2,), b2 = _avoid((var,), b, fv_w)
            return Lambda(var2, ty, _subst(b2, w, x, fv_w))
        case App(f, a):
            return App(_subst(f, w, x, fv_w), _subst(a, w, x, fv_w))
        case Promote(r, ss, args, binders, b):
            args2 = tuple(_subst(a, w, x, fv_w) for a in args)
            if x in binders:
                return Promote(r, ss, args2, binders, b)
            binders2, b2 = _avoid(binders, b, fv_w)
            return Promote(r, ss, args2, binders2, _subst(b2, w, x, fv_w))
        case Derelict(v):
            return Derelict(_subst(v, w, x, fv_w))
        case Discard(v, b):
            return Discard(_subst(v, w, x, fv_w), _subst(b, w, x, fv_w))
        case Copy(n, m, v, bx, by, b):
            v2 = _subst(v, w, x, fv_w)
            if x in (bx, by):
                return Copy(n, m, v2, bx, by, b)
            (bx2, by2), b2 = _avoid((bx, by), b, fv_w)
            return Copy(n, m, v2, bx2, by2, _subst(b2, w, x, fv_w))
    raise SyntaxError_(f"unknown term node {t!r}")


def _avoid(binders, body, fv_w):
    """Rename binders clashing with the substituted term's free variables."""
    new = []
    body2 = body
    taken = free_vars(body) | fv_w | set(binders)
    for b in binders:
        if b in fv_w:
            nb = fresh_name(b, taken)
            taken.add(nb)
            body2 = substitute(body2, Var(nb), b)
            new.append(nb)
        else:
            new.append(b)
    return tuple(new), body2


# ---------------------------------------------------------------------------
# Shuffles

def is_shuffle(e: Context, parts) -> bool:
    """True iff e interleaves the parts preserving each part's order."""
    parts = [tuple(p) for p in parts]
    seen = Counter()
    for part in parts:
        for name, _ in part:
            seen[name] += 1
    if any(c > 1 for c in seen.values()):
        raise SyntaxError_("shuffle parts must be pairwise disjoint")
    positions = [0] * len(parts)
    for entry in e:
        for i, part in enumerate(parts):
            if positions[i] < len(part) and part[positions[i]] == entry:
                positions[i] += 1
                break
        else:
            return False
    return all(positions[i] == len(parts[i]) for i in range(len(parts)))


def enumerate_shuffles(parts):
    """All interleavings of the parts, preserving each part's order."""
    parts = [tuple(p) for p in parts]
    seen = Counter()
    for part in parts:
        for name, _ in part:
            seen[name] += 1
    if any(c > 1 for c in seen.values()):
        raise SyntaxError_("shuffle parts must be pairwise disjoint")

    def go(positions):
        if all(positions[i] == len(parts[i]) for i in range(len(parts))):
            yield ()
            return
        for i in range(len(parts)):
            if positions[i] < len(parts[i]):
                entry = parts[i][positions[i]]
                nxt = list(positions)
                nxt[i] += 1
                for rest in go(tuple(nxt)):
                    yield (entry,) + rest

    return [shuffle for shuffle in go(tuple([0] * len(parts)))]


def shuffle_count(sizes) -> int:
    total = sum(sizes)
    out = factorial(total)
    for s in sizes:
        out //= factorial(s)
    return out
