"""Abstract syntax of the graded calculus.

Terms and types are immutable trees.  Binders are plain string identifiers;
alpha-equivalence and capture-avoiding substitution rename them on demand
with a deterministic numeric-suffix scheme so printed output is stable
across runs.

Which fields of a term constructor are children, which are binders and
which binders scope over which child is said once, in the constructor
table SHAPES; free variables, alpha-equivalence, substitution, term
positions and plug matching are derived from it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


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
# The constructor table
#
# Var, the variable occurrence, is the one node each derived walk handles
# itself; its entry serves the walks that only need children.


class Shape(NamedTuple):
    """How the fields of one term constructor divide into children,
    binders and annotations.

    parts(t) gives (children, binders), each in field order; the binders
    scope over the last child and over no other.  notes(t) gives the
    annotations, which alpha-equivalence compares literally.
    rebuild(t, children, binders) gives a node with t's annotations and
    the given children and binders.
    """

    parts: Callable
    notes: Callable
    rebuild: Callable


def _leaf(t):
    return (), ()


def _no_notes(t):
    return ()


def _same(t, kids, binders):
    return t


SHAPES = {
    Var: Shape(_leaf, lambda t: (t.name,), _same),
    Star: Shape(_leaf, _no_notes, _same),
    OpApp: Shape(lambda t: (t.args, ()), lambda t: (t.op,),
                 lambda t, k, xs: OpApp(t.op, tuple(k))),
    UnitLet: Shape(lambda t: ((t.value, t.body), ()), _no_notes,
                   lambda t, k, xs: UnitLet(*k)),
    TensorPair: Shape(lambda t: ((t.left, t.right), ()), _no_notes,
                      lambda t, k, xs: TensorPair(*k)),
    TensorLet: Shape(lambda t: ((t.value, t.body), (t.x, t.y)), _no_notes,
                     lambda t, k, xs: TensorLet(k[0], *xs, k[1])),
    Lambda: Shape(lambda t: ((t.body,), (t.var,)), lambda t: (t.ty,),
                  lambda t, k, xs: Lambda(xs[0], t.ty, k[0])),
    App: Shape(lambda t: ((t.fn, t.arg), ()), _no_notes,
               lambda t, k, xs: App(*k)),
    Promote: Shape(lambda t: (t.args + (t.body,), t.binders),
                   lambda t: (t.grade, t.grades),
                   lambda t, k, xs: Promote(t.grade, t.grades, tuple(k[:-1]),
                                            tuple(xs), k[-1])),
    Derelict: Shape(lambda t: ((t.value,), ()), _no_notes,
                    lambda t, k, xs: Derelict(k[0])),
    Discard: Shape(lambda t: ((t.value, t.body), ()), _no_notes,
                   lambda t, k, xs: Discard(*k)),
    Copy: Shape(lambda t: ((t.value, t.body), (t.x, t.y)),
                lambda t: (t.left_grade, t.right_grade),
                lambda t, k, xs: Copy(t.left_grade, t.right_grade, k[0],
                                      *xs, k[1])),
}


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


@dataclass
class Signature:
    grounds: frozenset
    ops: dict = field(default_factory=dict)        # name -> (arg_types, result)
    families: list = field(default_factory=list)   # [theory.ParamOpFamily]

    def declare(self, name: str, arg_types, result: TypeExpr):
        if not arg_types:
            raise SyntaxError_(f"operation {name} must have arity >= 1")
        if name in self.ops:
            raise SyntaxError_(f"duplicate operation {name}")
        self.ops[name] = (tuple(arg_types), result)

    def lookup(self, name: str):
        if name in self.ops:
            return self.ops[name]
        for fam in self.families:
            sort = fam.sort(name)
            if sort is not None:
                return sort
        return None


# ---------------------------------------------------------------------------
# Walks over the constructor table

def children(t: Term) -> tuple:
    return SHAPES[type(t)].parts(t)[0]


def subterms(t: Term):
    """Every subterm of t, t first, in pre-order."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(reversed(children(u)))


def free_var_counts(t: Term) -> Counter:
    """Occurrences of each free variable, in order of first occurrence."""
    out = Counter()
    _fv(t, out, frozenset())
    return out


def _fv(t, out: Counter, bound: frozenset):
    if type(t) is Var:
        if t.name not in bound:
            out[t.name] += 1
        return
    kids, binders = SHAPES[type(t)].parts(t)
    n = len(kids) - 1 if binders else len(kids)
    for i in range(n):
        _fv(kids[i], out, bound)
    if n < len(kids):
        _fv(kids[n], out, bound.union(binders))


def free_vars(t: Term) -> frozenset:
    """The free variables of t.  Each node's set is built once, from its
    children's, and kept on the node: a term is immutable, so the set
    never goes stale.  It is not a field, so equality, hashing and repr
    ignore it.  A node that adds or removes no variable shares a child's
    set."""
    out = t.__dict__.get("_free_vars")
    if out is not None:
        return out
    if type(t) is Var:
        out = frozenset((t.name,))
    else:
        kids, binders = SHAPES[type(t)].parts(t)
        n = len(kids) - 1 if binders else len(kids)
        out = frozenset()
        for i in range(n):  # a loop, not a comprehension: one frame a level
            out = _union(out, free_vars(kids[i]))
        if n < len(kids):
            body = free_vars(kids[n])
            if not body.isdisjoint(binders):
                body = body.difference(binders)
            out = _union(out, body)
    t.__dict__["_free_vars"] = out
    return out


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, or one of the two when it already holds the other."""
    if a <= b:
        return b
    return a if b <= a else a | b


def all_names(t: Term) -> set:
    """Free and bound variable names occurring anywhere in the term."""
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Var:
            out.add(u.name)
        else:
            kids, binders = SHAPES[type(u)].parts(u)
            out.update(binders)
            stack.extend(kids)
    return out


def share(t: Term, table: dict) -> Term:
    """t with every subterm replaced by table's one node equal to it.

    table maps (constructor, notes, binders, ids of the shared children)
    to a node; the node keeps its children alive, so their ids stay
    valid while the table lives.  Terms shared through one table are
    equal exactly when they are the same object.
    """
    shape = SHAPES[type(t)]
    kids, binders = shape.parts(t)
    new = []
    for k in kids:  # a loop, not a comprehension: one frame per level
        new.append(share(k, table))
    key = (type(t), shape.notes(t), binders, tuple(map(id, new)))
    node = table.get(key)
    if node is None:
        if any(a is not b for a, b in zip(new, kids)):
            t = shape.rebuild(t, new, binders)
        node = table[key] = t
    return node


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
    return _aeq(a, b, {}, {}, 0)


def _aeq(a, b, env_a, env_b, depth) -> bool:
    """env_a and env_b map a bound name to its binder's key: the number of
    binder groups above that binder, and its place within its group."""
    if a is b and env_a == env_b:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        return env_a.get(a.name, ("free", a.name)) \
            == env_b.get(b.name, ("free", b.name))
    shape = SHAPES[cls]
    if shape.notes(a) != shape.notes(b):
        return False
    kids_a, xs_a = shape.parts(a)
    kids_b, xs_b = shape.parts(b)
    if len(kids_a) != len(kids_b):
        return False
    n = len(kids_a) - 1 if xs_a else len(kids_a)
    for i in range(n):
        if not _aeq(kids_a[i], kids_b[i], env_a, env_b, depth):
            return False
    if n == len(kids_a):
        return True
    return _aeq(kids_a[n], kids_b[n], _bind(env_a, depth, xs_a),
                _bind(env_b, depth, xs_b), depth + 1)


def _bind(env, depth, names):
    env = dict(env)
    for name in names:
        env[name] = ("bound", depth, names.index(name))
    return env


# ---------------------------------------------------------------------------
# Substitution

def substitute(term: Term, mapping: dict) -> Term:
    """Capture-avoiding simultaneous substitution: every free occurrence
    of a variable x in mapping becomes mapping[x], in one walk."""
    if not mapping:
        return term
    return _subst(term, mapping)


def _subst(t, plugs):
    """t with plugs substituted; plugs maps a variable to its plug.  A
    binder drops the variables it shadows from plugs over its scope, and
    is renamed, by one more plug, when it is free in a plug still
    substituted there."""
    if type(t) is Var:
        return plugs.get(t.name, t)
    shape = SHAPES[type(t)]
    kids, binders = shape.parts(t)
    if not kids:
        return t
    n = len(kids) - 1 if binders else len(kids)
    new = []
    for i in range(n):  # a loop, not a comprehension: one frame per level
        new.append(_subst(kids[i], plugs))
    if n < len(kids):
        body = kids[n]
        inner = {x: p for x, p in plugs.items() if x not in binders}
        if any(b in free_vars(p) for p in inner.values() for b in binders):
            clash = set().union(*map(free_vars, inner.values()))
            taken = clash.union(free_vars(body), binders)
            renamed = []
            for b in binders:
                if b in clash:
                    nb = fresh_name(b, taken)
                    taken.add(nb)
                    inner[b] = Var(nb)
                    b = nb
                renamed.append(b)
            binders = tuple(renamed)
        new.append(_subst(body, inner) if inner else body)
    return shape.rebuild(t, new, binders)
