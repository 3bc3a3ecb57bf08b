"""Checked equational rewriting.

Every row of the program-equation schema is a bidirectional,
position-addressed rewrite.  Fifteen rows are one table, _TABLE, each
written once in term syntax, `ROW: LEFT ~ RIGHT if CONDITIONS`, over
metavariables: u, v, w for terms, x, y, z, a, b, c for names, ty for a
type and n, m, o, p, q, r for grades (a literal 0 or 1 is the
semiring's zero or one).  M[N/x, ...] is capture-avoiding simultaneous
substitution; a condition is a grade equation (p = n + m) or freshness
(x ∉ fv(u)), and the names a side binds must be distinct.  One matcher,
read_side, reads a row's side, an axiom's (theory) and extract_plugs's
plain term, and one instantiator, _build, writes a row's other side: it
fills in names and terms literally, since the binder names come from
the match, substitutes only for the row's own M[N/x], and takes unbound
names from _fresh_factory (fill writes an axiom's instance).  The seven
rows over vectors of grades, arguments and binders are code, each
checking its own freshness conditions.

Read left to right, a row matches its left side and builds its right:
the one trusted reading.  Read right to left, it matches the right side
under the step's bindings and proposes a left side, which rewrite_term
keeps only if the row read left to right takes it back to the term.  A
small oriented subset (the beta and unit-like rows) drives the
normalizer.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import syntax as S
from .parser import markers, parse_term, print_term, subst_tokens
from .quantale import Semiring, NatSemiring
from .typecheck import Derivation, infer


class MatchError(ValueError):
    """Its message may be a function that formats it when shown: most
    failed reads are caught unseen, and printing terms costs more."""

    def __str__(self):
        return self.args[0]() if callable(self.args[0]) else self.args[0]


class EngineError(RuntimeError):
    """A rewrite produced an ill-typed term; signals an internal bug."""


# The rows of the schema by group, in the paper's order.
_GROUPS = {
    "monoidal": "tensor-beta tensor-eta unit-beta unit-eta",
    "closed": "lolli-beta lolli-eta",
    "comonadic": "bang-beta bang-eta promote-assoc promote-symm",
    "comonoid": "copy-unit-left copy-unit-right copy-assoc copy-comm",
    "interaction": "discard-promote promote-discard copy-promote promote-copy",
    "commuting": "cc-unit cc-tensor cc-discard cc-copy",
}
SchemaId = enum.Enum("SchemaId", [(row.upper().replace("-", "_"), row)
                                  for rows in _GROUPS.values()
                                  for row in rows.split()])
GROUPS = {group: tuple(map(SchemaId, rows.split()))
          for group, rows in _GROUPS.items()}


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
            raise MatchError(lambda: (
                f"position {'.'.join(map(str, path))} names no subterm of "
                f"{print_term(t)}"))
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


class Sub(NamedTuple):
    """The substitution term[pattern/name, ...] in a row's side; term and
    each name are metavariables."""

    term: str
    pairs: tuple  # (name, pattern) pairs


class Side(NamedTuple):
    """A pattern: a hole (a free variable among holes) stands for a
    subterm, and metas maps each metavariable in an annotation (a grade,
    a name segment such as a marker's digits, or a whole type) to its key
    in found.  A side with names binds its binders to the term's names,
    and its holes may mention them; the binders of one without are
    alpha_eq's.  A read of a side with a text fails as "expected" it."""

    pattern: object
    holes: tuple
    metas: dict = {}
    names: frozenset = frozenset()
    text: str = ""
    given: frozenset = frozenset()  # what a row's substitutions take


def read_side(side: Side, t: S.Term, found: dict) -> dict:
    """found with side's metavariables bound to what t has in their
    places (a hole bound before keeps its alpha-equal subterm)."""
    _match(side.pattern, t, {}, {}, 0, found, side)
    return found


def extract_plugs(u: S.Term, holes, t: S.Term) -> dict:
    """The subterms plugged into u at its free hole variables, such that
    u with each hole replaced by its plug is alpha-equal to t.

    Variables are compared by alpha_eq's binder keys, and a plug may
    mention no variable bound above its hole in t, so substituting the
    plugs back into u captures nothing.
    """
    holes = tuple(holes)
    found = read_side(Side(u, holes), t, {})
    for h in holes:
        if h not in found:
            raise MatchError(f"hole {h} does not occur in the context term")
    return found


def _mismatch(side, detail):
    return MatchError(f"expected {side.text}" if side.text else detail)


def _match(a, b, env_a, env_b, depth, found, side):
    """Match a, a node of side's pattern, against b, binding side's
    metavariables in found; env_a and env_b key the variables that
    binders of a side without names bind, as alpha_eq keys them."""
    cls = type(a)
    if cls is S.Var and a.name in side.holes and a.name not in env_a:
        for x in S.free_vars(b) if env_b else ():
            if x in env_b:
                raise MatchError(f"the plug for hole {a.name} mentions "
                                 f"{x}, bound above the hole")
        if a.name not in found:
            found[a.name] = b
        elif not S.alpha_eq(found[a.name], b):
            raise MatchError(f"hole {a.name} matched two different terms")
        return
    if cls is Sub:
        u = _need(found, a.term)
        names = tuple(_need(found, x) for x, _ in a.pairs)
        plugs = extract_plugs(u, names, b)
        for (_, pattern), x in zip(a.pairs, names):
            _match(pattern, plugs[x], env_a, env_b, depth, found, side)
        return
    if cls is not type(b):
        raise _mismatch(side, lambda: f"shape mismatch: {print_term(a)} vs "
                                      f"{print_term(b)}")
    if cls is S.Var:
        if found.get(a.name) != b.name if a.name in side.names else \
                env_a.get(a.name, ("free", a.name)) \
                != env_b.get(b.name, ("free", b.name)):
            raise _mismatch(side, f"variable mismatch {a.name} vs {b.name}")
        return
    shape = S.SHAPES[cls]
    kids_a, xs_a = shape.parts(a)
    kids_b, xs_b = shape.parts(b)
    notes_a, notes_b = shape.notes(a), shape.notes(b)
    if len(kids_a) != len(kids_b) or notes_a and not (
            _fits(notes_a, notes_b, found, side.metas) if side.metas
            else notes_a == notes_b):
        raise _mismatch(side, _ANNOTATION_MISMATCH[cls].format(*notes_a,
                                                               *notes_b))
    for x, name in zip(xs_a, xs_b) if side.names else ():
        if found.get(x, name) != name or x not in found and \
                name in found.values():
            raise MatchError(f"expected {side.text}, its binders distinct")
        found[x] = name
    n = len(kids_a) - 1 if xs_a else len(kids_a)
    for i in range(n):
        _match(kids_a[i], kids_b[i], env_a, env_b, depth, found, side)
    if n < len(kids_a):
        if not side.names:
            env_a = S._bind(env_a, depth, xs_a)
            env_b = S._bind(env_b, depth, xs_b)
        _match(kids_a[n], kids_b[n], env_a, env_b, depth + 1, found, side)


def _fits(pattern, value, found, metas) -> bool:
    """Whether an annotation of a pattern has value as an instance: a
    grade, name segment or type that metas maps is a metavariable, bound
    in found to what value has in its place (a value bound before must
    recur), and every other part must be equal."""
    kind = type(pattern)
    if kind is str:
        return read_name(pattern, value, metas, found)
    key = metas.get(pattern)
    if key is not None:
        return found.setdefault(key, value) == value
    if kind is not type(value) or kind is not tuple and kind not in FIELDS:
        return pattern == value
    if kind is tuple and len(pattern) != len(value):
        return False
    pairs = zip(pattern, value) if kind is tuple else (
        (getattr(pattern, f), getattr(value, f)) for f in FIELDS[kind])
    return all(_fits(p, x, found, metas) for p, x in pairs)


def read_name(pattern: str, name: str, metas: dict, found: dict) -> bool:
    """Whether name is pattern with each "_"-separated segment that metas
    maps written as an instance prints a number (no leading zero), the
    number bound in found at the segment's key (as it was bound before)."""
    want, have = pattern.split("_"), name.split("_")
    return len(want) == len(have) and all(
        seg == got if (key := metas.get(seg)) is None else
        got.isdecimal() and str(int(got)) == got
        and found.setdefault(key, int(got)) == int(got)
        for seg, got in zip(want, have))


# The fields of each term and type constructor, in order.
FIELDS = {cls: tuple(cls.__dataclass_fields__)
          for base in (S.Term, S.TypeExpr) for cls in base.__subclasses__()}


def fill(node, metas: dict, found: dict):
    """node, a term, type, name or tuple of them, with each grade and
    "_"-separated name segment that metas maps replaced by the value at
    its key in found: what read_side binds, written back."""
    kind = type(node)
    if kind is str:
        return "_".join([seg if (key := metas.get(seg)) is None
                         else str(found[key]) for seg in node.split("_")])
    if kind is tuple:
        return tuple([fill(x, metas, found) for x in node])
    if kind in FIELDS:
        return kind(*[fill(getattr(node, f), metas, found)
                      for f in FIELDS[kind]])
    return found[metas[node]] if kind is int and node in metas else node


def _build(pattern, found, metas, t):
    """A row's side with its metavariables filled in from found: names and
    terms literally, a Sub by substitute, and a binder found lacks by a
    name fresh for t and found."""
    cls = type(pattern)
    if cls is Sub:
        return S.substitute(_need(found, pattern.term), {
            _need(found, x): _build(p, found, metas, t)
            for x, p in pattern.pairs})
    if cls is S.Var:
        value = _need(found, pattern.name)
        return S.Var(value) if type(value) is str else value

    def fill_in(value):
        kind = type(value)
        if kind is tuple:
            return tuple(map(fill_in, value))
        if kind is str:  # a binder
            if value not in found:
                found[value] = _fresh_factory(t, *found.values())(value)
            return found[value]
        if kind is int or kind is S.Ground:
            return _need(found, metas[value])
        return _build(value, found, metas, t)

    return cls(*[fill_in(getattr(pattern, f)) for f in FIELDS[cls]])


def _need(b: dict, key: str):
    if key not in b:
        raise MatchError(f"this schema row needs the {key!r} binding")
    return b[key]


def _fresh_factory(*parts):
    """Fresh names avoiding the names among parts and in its terms."""
    taken = set()
    for part in parts:
        if isinstance(part, str):
            taken.add(part)
        elif isinstance(part, S.Term):
            taken |= S.all_names(part)

    def fresh(base):
        name = S.fresh_name(base, taken)
        taken.add(name)
        return name

    return fresh


# ---------------------------------------------------------------------------
# The table

_TABLE = (
    "tensor-beta: let x (*) y = v (*) w in u ~ u[v/x, w/y]",
    "tensor-eta: let x (*) y = v in u[x (*) y/z] ~ u[v/z]"
    " if x ∉ fv(u), y ∉ fv(u)",
    "unit-beta: let unit = unit in v ~ v",
    "unit-eta: let unit = v in w[unit/z] ~ w[v/z]",
    "lolli-beta: (fn x : ty => v) w ~ v[w/x]",
    "lolli-eta: fn x : ty => v x ~ v if x ∉ fv(v)",
    "bang-eta: promote[r; 1](v; x => derelict x) ~ v",
    "copy-unit-left: copy[0,n] v as x,z in discard x in u ~ u[v/z]"
    " if x ∉ fv(u)",
    "copy-unit-right: copy[n,0] v as z,y in discard y in u ~ u[v/z]"
    " if y ∉ fv(u)",
    "copy-assoc: copy[p,o] v as x,y in copy[n,m] x as a,b in u"
    " ~ copy[n,q] v as a,c in copy[m,o] c as b,y in u"
    " if p = n + m, q = m + o, x ∉ fv(u), c ∉ fv(u)",
    "copy-comm: copy[n,m] v as x,y in u ~ copy[m,n] v as y,x in u",
    "cc-unit: u[let unit = v in w/z] ~ let unit = v in u[w/z]",
    "cc-tensor: u[let x (*) y = v in w/z] ~ let x (*) y = v in u[w/z]"
    " if x ∉ fv(u), y ∉ fv(u)",
    "cc-discard: u[discard v in w/z] ~ discard v in u[w/z]",
    "cc-copy: u[copy[n,m] v as x,y in w/z] ~ copy[n,m] v as x,y in u[w/z]"
    " if x ∉ fv(u), y ∉ fv(u)",
)

_TERM_METAS = ("u", "v", "w")
_NAME_METAS = frozenset(("x", "y", "z", "a", "b", "c"))
_GRADE_METAS = ("n", "m", "o", "p", "q", "r")
_SUB = re.compile(r"\b([uvw])\[")
_SUB_PAIR = re.compile(r"\s*(.+?)/(\w+)\s*(?:,|$)")
_CONDITION = re.compile(r"(\w+) ∉ fv\((\w+)\)|(\w+) = (\w+(?: \+ \w+)+)")


class Tabled(NamedTuple):
    name: str
    sides: tuple  # (left, right)
    sums: tuple  # (g, (a, b, ...)) for each equation g = a + b + ...
    fresh: tuple  # (x, u) for each condition x ∉ fv(u)


def _parse_side(text: str, marks: dict, given: set):
    """The pattern text writes, each substitution a Sub whose term and
    names are added to given."""
    subs = {}
    while (m := _SUB.search(text)) is not None:
        depth = 0
        for end in range(m.end() - 1, len(text)):
            depth += {"[": 1, "]": -1}.get(text[end], 0)
            if depth == 0:
                break
        hole = f"_sub{len(subs)}"
        subs[hole] = Sub(m.group(1), tuple(
            (x, _parse_side(src, marks, given))
            for src, x in _SUB_PAIR.findall(text[m.end():end])))
        given.update(m.group(1), *(x for x, _ in subs[hole].pairs))
        text = text[:m.start()] + hole + text[end + 1:]

    def place(t):
        if type(t) is S.Var:
            return subs.get(t.name, t)
        shape = S.SHAPES[type(t)]
        kids, binders = shape.parts(t)
        return shape.rebuild(t, [place(k) for k in kids], binders)

    return place(parse_term(subst_tokens(text, marks)))


def _parse_row(line: str) -> Tabled:
    """A row of _TABLE, each grade metavariable parsed as a marker."""
    name, _, rest = line.partition(": ")
    equation, _, conditions = rest.partition(" if ")
    marks = markers(_GRADE_METAS, line)
    metas = {0: "0", 1: "1", S.Ground("ty"): "ty",
             **{int(v): k for k, v in marks.items()}}
    sides = tuple(Side(p, _TERM_METAS, metas, _NAME_METAS, text,
                       frozenset(given))
                  for text in equation.split(" ~ ") for given in [set()]
                  for p in [_parse_side(text, marks, given)])
    found = [_CONDITION.fullmatch(c).groups()
             for c in conditions.split(", ") if c]
    return Tabled(name, sides,
                  tuple((g, tuple(s.split(" + "))) for *_, g, s in found
                        if g),
                  tuple((x, u) for x, u, *_ in found if x))


def _apply(row: Tabled, side: int, t, bindings, sr):
    """t read by one side of a tabled row (0 left, 1 right) and the other
    side built; the bindings give what the side's substitutions need and
    what the reading left unbound."""
    found = {"0": sr.zero, "1": sr.one}
    found.update((k, bindings[k]) for k in row.sides[side].given
                 if k in bindings)
    read_side(row.sides[side], t, found)
    for k, v in bindings.items():
        found.setdefault(k, v)
    for g, parts in row.sums:
        total = functools.reduce(sr.add, [_need(found, p) for p in parts])
        if found.setdefault(g, total) != total:
            raise MatchError(f"{row.name} needs {g} = {' + '.join(parts)}")
    for x, u in row.fresh:
        if x in found and u in found and found[x] in S.free_vars(found[u]):
            raise MatchError(lambda: (
                f"{row.name} needs {x} not free in {u}, but {found[x]} is "
                f"free in {print_term(found[u])}"))
    out = row.sides[1 - side]
    return _build(out.pattern, found, out.metas, t)


TABLE = {SchemaId(row.name): row for row in map(_parse_row, _TABLE)}


# ---------------------------------------------------------------------------
# The rows over vectors.  Each takes (term, bindings, semiring) and returns
# the rewritten term or raises MatchError.

def _bang_beta_l(t, b, sr):
    match t:
        case S.Derelict(S.Promote(r, _, args, binders, u)) if r == sr.one:
            return S.substitute(u, dict(zip(binders, args)))
    raise MatchError("expected derelict of a grade-1 promotion")


def _bang_beta_r(t, b, sr):
    u, xs, ss = _need(b, "u"), tuple(_need(b, "xs")), tuple(_need(b, "ss"))
    if len(xs) != len(ss):
        raise MatchError("xs and ss bindings must have equal length")
    plugs = extract_plugs(u, xs, t)
    args = tuple(plugs[x] for x in xs)
    return S.Derelict(S.Promote(sr.one, ss, args, xs, u))


def _promote_assoc_l(t, b, sr):
    match t:
        case S.Promote(r1, grades, args, binders, w) if args and grades:
            match args[0]:
                case S.Promote(r12, ss, xs_args, ys, v) \
                        if r12 == sr.mul(r1, grades[0]):
                    _fresh_in("promote-assoc", binders[1:], v, ys)
                    r2, a = grades[0], binders[0]
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
            match extract_plugs(w, (a,), body)[a]:
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


def _discard_promote_l(t, b, sr):
    match t:
        case S.Discard(S.Promote(r, _, args, _, _), u) if r == sr.zero:
            out = u
            for v in reversed(args):
                out = S.Discard(v, out)
            return out
    raise MatchError("expected discard of a grade-0 promotion")


def _discard_promote_r(t, b, sr):
    w, ss, xs = _need(b, "w"), tuple(_need(b, "ss")), tuple(_need(b, "xs"))
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
            _fresh_in("promote-discard", binders[:1], u)
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
    u, y, z = _need(b, "u"), _need(b, "y"), _need(b, "z")
    n, m, o = _need(b, "n"), _need(b, "m"), _need(b, "o")
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
            _fresh_in("promote-copy", binders[:1], u)
            if {x, y} & set(binders[1:]) or x == y:
                raise MatchError(f"promote-copy needs the copy's binders "
                                 f"{x}, {y} apart from the promotion's")
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


def _fresh_in(row, names, u, bound=()):
    """MatchError if a name in names is free in u and not in bound."""
    for x in names:
        if x in S.free_vars(u) and x not in bound:
            raise MatchError(lambda: f"{row} needs {x} not free in "
                                     f"{print_term(u)}")


class Row(NamedTuple):
    l2r: Callable  # (term, bindings, semiring) -> term, or MatchError
    r2l: Callable
    head: type  # the constructor of the left side, None for any


_ROWS = {
    **{s: Row(functools.partial(_apply, row, 0),
              functools.partial(_apply, row, 1),
              None if type(row.sides[0].pattern) is Sub
              else type(row.sides[0].pattern))
       for s, row in TABLE.items()},
    SchemaId.BANG_BETA: Row(_bang_beta_l, _bang_beta_r, S.Derelict),
    SchemaId.PROMOTE_ASSOC: Row(_promote_assoc_l, _promote_assoc_r,
                                S.Promote),
    SchemaId.PROMOTE_SYMM: Row(_promote_symm, _promote_symm, S.Promote),
    SchemaId.DISCARD_PROMOTE: Row(_discard_promote_l, _discard_promote_r,
                                  S.Discard),
    SchemaId.PROMOTE_DISCARD: Row(_promote_discard_l, _promote_discard_r,
                                  S.Promote),
    SchemaId.COPY_PROMOTE: Row(_copy_promote_l, _copy_promote_r, S.Copy),
    SchemaId.PROMOTE_COPY: Row(_promote_copy_l, _promote_copy_r, S.Promote),
}


def rewrite_term(term: S.Term, step: RewriteStep,
                 semiring: Semiring = NatSemiring()) -> S.Term:
    """term with the subterm at step's position rewritten by its row.  A
    right-to-left proposal stands only if the row read left to right, with
    the same bindings, takes it back to an alpha-equal subterm."""
    sub = get_subterm(term, step.position)
    row = _ROWS[step.schema]
    if step.direction == "L2R":
        return replace_subterm(term, step.position,
                               row.l2r(sub, step.bindings, semiring))
    redex = row.r2l(sub, step.bindings, semiring)
    try:
        if S.alpha_eq(row.l2r(redex, step.bindings, semiring), sub):
            return replace_subterm(term, step.position, redex)
    except MatchError:
        pass
    raise MatchError(lambda: (
        f"{step.schema.value} read left to right does not take "
        f"{print_term(redex)} back to {print_term(sub)}"))


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

# The rows that drive the normalizer, each tried at the subterms whose
# constructor heads its left side.
ORIENTED = (SchemaId.LOLLI_BETA, SchemaId.LOLLI_ETA, SchemaId.TENSOR_BETA,
            SchemaId.UNIT_BETA, SchemaId.BANG_BETA, SchemaId.BANG_ETA,
            SchemaId.COPY_UNIT_LEFT, SchemaId.COPY_UNIT_RIGHT)
_ORIENTED_AT = {}
for _s in ORIENTED:
    _ORIENTED_AT.setdefault(_ROWS[_s].head, []).append(_s)


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
                reduct = _ROWS[schema].l2r(sub, {}, semiring)
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
