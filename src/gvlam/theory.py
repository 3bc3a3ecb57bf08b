"""Line-oriented theory files.

A theory file fixes the quantale, the grade semiring, the signature, and
the axioms.  Example:

    quantale metric
    semiring nat
    symmetric
    ground X
    opfamily wait_<n> : X -> X
    builtin wait
    axiom step[n] : [x : X] wait_n(x) =[n] x

Operation families declare an infinite family of symbols indexed by
natural-number name segments; the index parameters may also appear in
grade position of the declared sorts.  Every axiom family is one
AxiomTemplate: a context and two sides written over index parameters,
and a bound computed from their values.  An `axiom` line's bound, and
each parameter it derives after a `;` (`wait_sum[n, m; s = n + m]`), is
an expression over integers and the line's parameters (+ - * /, unary
minus, abs, sqrt), checked at load and evaluated exactly per instance.
`builtin wait` is three such lines; `diaconis` and `gaussians` have side
conditions and a closed-form label, so they are Python templates.
Synthesis reads a goal with both sides of a template as patterns, in one
match of rewrite's matcher: where a parameter's marker sits, in a name
segment or in a grade, the goal's value there gives it.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from fractions import Fraction

from . import syntax as S
from .parser import (ParseError, is_identifier, markers, parse_context,
                     parse_term, parse_type, subst_tokens)
from .probmodel import gaussian_phi
from .quantale import QuantaleError, get_quantale, get_semiring
from .rewrite import MatchError, Side, fill, read_name, read_side
from .typecheck import TypeError_, check_grounds
from .vequation import AxiomInstance, ProofError, TheoryError, TheorySpec


class ParamOpFamily:
    """Operation family whose symbols carry numeric name segments that may
    also occur in grade position of the sort."""

    def __init__(self, base: str, params, arg_srcs, result_src):
        self.base = base
        self.params = tuple(params)
        self.arg_srcs = tuple(arg_srcs)
        self.result_src = result_src
        self.sample = "_".join([base] + ["1"] * len(self.params))
        marks = markers(self.params, base)
        self._name = "_".join([base, *marks.values()])
        self._metas = {mark: p for p, mark in marks.items()}
        self._sorts = {}  # symbol name -> sort

    def sort(self, name: str):
        if name not in self._sorts:  # sorts are immutable
            values = {}
            self._sorts[name] = (
                tuple(parse_type(subst_tokens(src, values))
                      for src in self.arg_srcs),
                parse_type(subst_tokens(self.result_src, values))
            ) if read_name(self._name, name, self._metas, values) else None
        return self._sorts[name]


# ---------------------------------------------------------------------------
# Schematic axiom families

def _int_param(params, key):
    try:
        value = params[key]
    except KeyError:
        raise ProofError(f"axiom parameter {key!r} missing") from None
    if not isinstance(value, int) or value < 0:
        raise ProofError(f"axiom parameter {key}={value!r} must be a "
                         f"natural number")
    return value


class AxiomTemplate:
    """An axiom scheme: a context and two sides written over natural-number
    parameters, and a function from the parameters' values to the bound.

    The source is parsed once, with each parameter replaced by a digit
    string found nowhere in it, so that every place a value can take
    parses.  An instance fills those markers in the parsed context and
    sides with the values (no text is substituted or parsed per instance;
    oracles.reference_instantiate does that).  candidates reads a goal
    with the two sides as patterns whose holes are the context variables
    and whose metavariables are the markers, wherever they sit.  A
    derived parameter is computed from the others and must agree with
    what the goal shows.
    """

    def __init__(self, name, params, ctx_src, lhs_src, rhs_src, bound,
                 derived=()):
        self.name = name
        self.params = tuple(params)
        self.srcs = (ctx_src, lhs_src, rhs_src)
        self.bound = bound
        self.derived = dict(derived)
        self._marks = held = markers((*self.params, *self.derived),
                                     " ".join(self.srcs))
        self.context = parse_context(subst_tokens(ctx_src, held))
        self.lhs = parse_term(subst_tokens(lhs_src, held))
        self.rhs = parse_term(subst_tokens(rhs_src, held))
        # A marker is its own key in a read, as a segment and as a grade.
        metas = {k: mark for mark in held.values() for k in (mark, int(mark))}
        holes = tuple(x for x, _ in self.context)
        self._sides = [Side(t, holes, metas) for t in (self.lhs, self.rhs)]

    def _by_marker(self, values):
        """The values keyed by marker, as read_side binds them, the derived
        ones computed."""
        values = dict(values)
        values.update((p, f(values)) for p, f in self.derived.items())
        return {self._marks[p]: x for p, x in values.items()}

    def instantiate(self, theory, params):
        values = {p: _int_param(params, p) for p in self.params}
        bound = self.bound(values)
        ctx, lhs, rhs = fill((self.context, self.lhs, self.rhs),
                             self._sides[0].metas, self._by_marker(values))
        return AxiomInstance(self.name, S.check_context(ctx), lhs, rhs, bound)

    def candidates(self, theory, v, w):
        """[(parameters, plugs)] if the goal v against w is an instance,
        each context variable plugged by the subterm both sides have."""
        found, known = {}, None
        try:
            for side, term in zip(self._sides, (v, w)):
                read_side(side, term, found)
                values = {p: found.get(self._marks[p]) for p in self.params}
                if all(type(x) is int for x in values.values()):
                    # Derived values bound once the parameters are, so a
                    # side read after them fails where it shows another.
                    known = self._by_marker(values)
                    if any(found.setdefault(m, x) != x
                           for m, x in known.items()):
                        return []
            if known is None:
                return []  # a parameter no side shows, or inf in its place
            plugs = {fill(h, side.metas, found): found[h] for h in side.holes}
        except (MatchError, KeyError, TheoryError):
            return []  # no match, a context variable that no side shows, or
            # a derived value that is not a natural number
        return [(values, plugs)]


def _diaconis_bound(values):
    k, m, n = values["k"], values["m"], values["n"]
    if k < 1:
        raise ProofError("diaconis needs at least one draw")
    if m + n < 1:
        raise ProofError("diaconis needs a non-empty urn")
    if k > m + n:
        raise ProofError(f"diaconis needs k <= m + n, got k={k}, "
                         f"m+n={m + n}")
    return Fraction(4 * k, m + n)


def _gaussians_bound(values):
    k, s1, s2 = values["k"], values["sigma1"], values["sigma2"]
    if k < 1:
        raise ProofError("gaussians needs k >= 1")
    if s1 < 1 or s2 < 1:
        raise ProofError("standard deviations must be positive")
    return gaussian_phi(k, values["mu1"], s1, values["mu2"], s2)


# ---------------------------------------------------------------------------
# Axiom lines

def _sqrt(x):
    """The square root of x where it is rational."""
    root = Fraction(math.isqrt(abs(x.numerator)), math.isqrt(x.denominator))
    if root * root != x:  # also where x < 0
        raise ArithmeticError
    return root if type(x) is Fraction else root.numerator


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: Fraction, ast.USub: operator.neg, "abs": abs, "sqrt": _sqrt}


def _compile(node, names):
    """Compile an expression tree over integer literals, the names, + - * /,
    unary minus, abs and sqrt (any other form is a TheoryError) into a
    function of the parameter values; ArithmeticError if not rational."""
    kind = type(node)
    if kind is ast.Constant and type(node.value) is int:
        return lambda values: node.value
    if kind is ast.Name and node.id in names:
        return operator.itemgetter(node.id)
    op = kids = None
    if kind is ast.BinOp:
        op, kids = type(node.op), (node.left, node.right)
    elif kind is ast.UnaryOp:
        op, kids = type(node.op), (node.operand,)
    elif kind is ast.Call and type(node.func) is ast.Name \
            and len(node.args) == 1 and not node.keywords:
        op, kids = node.func.id, node.args
    if op not in _OPS:
        raise TheoryError(f"{ast.unparse(node)!r} is not allowed")
    fn, kids = _OPS[op], [_compile(kid, names) for kid in kids]
    return lambda values: fn(*[kid(values) for kid in kids])


def _expression(src, names, what, natural=False):
    """The function of the parameter values that an axiom line's bound, or
    a derived parameter (natural), computes; src is checked here, once."""
    try:
        value = _compile(ast.parse(src, mode="eval").body, set(names))
    except (SyntaxError, ValueError) as exc:  # TheoryError is a ValueError
        raise TheoryError(f"bad {what} {src!r}: "
                          f"{getattr(exc, 'msg', exc)}") from None

    def evaluate(values):
        try:
            result = Fraction(value(values))
        except ArithmeticError:
            raise TheoryError(f"{what} {src!r} is not rational") from None
        if result < 0:
            raise TheoryError(f"{what} {src!r} is negative")
        if natural and result.denominator != 1:
            raise TheoryError(f"{what} {src!r} is not a natural number")
        return result.numerator if natural else result
    return evaluate


_AXIOM_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\[(?P<params>[^\]]*)\])?\s*:\s*"
    r"\[(?P<ctx>[^\]]*)\]\s*"
    r"(?P<lhs>.*?)\s*=\[(?P<bound>[^\]]*)\]\s*"
    r"(?P<rhs>.*)$")


def _parse_axiom_line(rest: str) -> AxiomTemplate:
    m = _AXIOM_RE.match(rest)
    if not m:
        raise TheoryError(f"bad axiom declaration {rest!r}")
    params, _, defs = (m.group("params") or "").partition(";")
    params = [p.strip() for p in params.split(",") if p.strip()]
    if not all(map(is_identifier, params)) or len(set(params)) < len(params):
        raise TheoryError(f"axiom parameters must be distinct identifiers, "
                          f"got {params}")
    derived = {}
    for item in filter(str.strip, defs.split(",")):
        name, eq, src = (part.strip() for part in item.partition("="))
        if not eq or not is_identifier(name) or name in (*params, *derived):
            raise TheoryError(f"bad derived parameter {item.strip()!r}")
        derived[name] = _expression(src, params, f"derived parameter "
                                    f"{name} =", natural=True)
    return AxiomTemplate(m.group("name"), params, m.group("ctx").strip(),
                         m.group("lhs").strip(), m.group("rhs").strip(),
                         _expression(m.group("bound").strip(), params,
                                     "bound expression"), derived)


BUILTINS = {
    "wait": tuple(map(_parse_axiom_line, (
        "wait[n, m] : [x : X] wait_n(x) =[abs(n - m)] wait_m(x)",
        "wait_zero : [x : X] wait_0(x) =[0] x",
        "wait_sum[n, m; s = n + m] : [x : X] wait_n(wait_m(x)) =[0] wait_s(x)",
    ))),
    # Urn sampling with and without replacement, at the 4k/(m+n) label.
    "diaconis": (
        AxiomTemplate("diaconis", ("k", "m", "n"), "",
                      "replace_k_m_n(unit)", "no_replace_k_m_n(unit)",
                      _diaconis_bound),
    ),
    # Two k-fold i.i.d. normal samplers, at the closed-form label.
    "gaussians": (
        AxiomTemplate("gaussians", ("k", "mu1", "sigma1", "mu2", "sigma2"),
                      "", "iid_normal_k(real_mu1(unit), real_sigma1(unit))",
                      "iid_normal_k(real_mu2(unit), real_sigma2(unit))",
                      _gaussians_bound),
    ),
}


# ---------------------------------------------------------------------------
# Loading

def load_theory_text(text: str, where: str = "<theory>") -> TheorySpec:
    sig = S.Signature(set())  # grounds frozen once the whole file is read
    theory = TheorySpec(None, None, False, sig)
    checks = []  # (line, what, types): types may name a later ground

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "quantale":
                theory.quantale = get_quantale(rest)
            elif head == "semiring":
                theory.semiring = get_semiring(rest)
            elif head == "symmetric":
                if rest:
                    raise TheoryError("symmetric takes no argument")
                theory.symmetric = True
            elif head == "ground":
                if not is_identifier(rest):
                    raise TheoryError(f"bad ground type name {rest!r}")
                sig.grounds.add(rest)
            elif head == "op":
                name, arg_types, result = _parse_op_line(rest)
                sig.declare(name, arg_types, result)
                checks.append((lineno, f"operation {name}",
                               (*arg_types, result)))
            elif head == "opfamily":
                fam = _parse_opfamily_line(rest)
                sig.families.append(fam)
                arg_types, result = fam.sort(fam.sample)
                checks.append((lineno, f"operation family {fam.base}",
                               (*arg_types, result)))
            elif head in ("builtin", "axiom"):
                if head == "builtin" and rest not in BUILTINS:
                    raise TheoryError(f"unknown builtin {rest!r}")
                for fam in BUILTINS[rest] if head == "builtin" else \
                        [_parse_axiom_line(rest)]:
                    theory.add_axiom(fam)
                    checks.append((lineno, f"axiom {fam.name}",
                                   [ty for _, ty in fam.context]))
            else:
                raise TheoryError(f"unknown directive {head!r}")
        except (TheoryError, ParseError, QuantaleError,
                S.SyntaxError_) as exc:
            raise TheoryError(f"{where}:{lineno}: {exc}") from exc

    if theory.quantale is None or theory.semiring is None:
        raise TheoryError(f"{where}: theory must declare a quantale and a "
                          f"semiring")
    sig.grounds = frozenset(sig.grounds)
    for lineno, what, types in checks:
        for ty in types:
            try:
                check_grounds(sig, ty)
            except TypeError_ as exc:
                raise TheoryError(f"{where}:{lineno}: {what}: {exc}") from exc
    return theory


def load_theory(path: str) -> TheorySpec:
    with open(path, encoding="utf-8") as fh:
        return load_theory_text(fh.read(), where=path)


def _parse_op_line(rest: str):
    name, _, sort = rest.partition(":")
    name = name.strip()
    if not is_identifier(name):
        raise TheoryError(f"bad operation name {name!r}")
    args_src, _, result_src = sort.partition("->")
    arg_types = tuple(parse_type(a.strip())
                      for a in args_src.split(",") if a.strip())
    if not arg_types:
        raise TheoryError(f"operation {name} needs at least one argument "
                          f"type (constants take I)")
    return name, arg_types, parse_type(result_src.strip())


def _parse_opfamily_line(rest: str):
    decl, _, sort = rest.partition(":")
    decl = decl.strip()
    m = re.match(r"^([A-Za-z][A-Za-z0-9_]*?)((?:_<[A-Za-z][A-Za-z0-9]*>)+)$",
                 decl)
    if not m:
        raise TheoryError(f"bad opfamily declaration {decl!r}; expected "
                          f"name_<p>_<q>... with angle-bracket parameters")
    base = m.group(1)
    params = re.findall(r"<([A-Za-z][A-Za-z0-9]*)>", m.group(2))
    args_src, _, result_src = sort.partition("->")
    arg_srcs = [a.strip() for a in args_src.split(",") if a.strip()]
    if not arg_srcs:
        raise TheoryError(f"operation family {base} needs at least one "
                          f"argument type")
    fam = ParamOpFamily(base, params, arg_srcs, result_src.strip())
    # Reject templates that do not even parse for a sample instantiation.
    fam.sort(fam.sample)
    return fam
