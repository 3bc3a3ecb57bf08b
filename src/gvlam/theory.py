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
and a bound computed from their values.  Builtins install the `wait`,
`diaconis` and `gaussians` templates, whose bounds are exact fractions or
need real arithmetic.  Generic `axiom` lines declare templates with
rational bound expressions over the parameters (abs, +, -, *, /
allowed), evaluated per instance.  Synthesis reads a template's
parameters off a goal by position: where a parameter's segment sits in an
operation name of a side, the goal's operation at the same place gives
its value.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import syntax as S
from .parser import (IDENT_RE, ParseError, is_identifier, parse_context,
                     parse_term, parse_type)
from .probmodel import gaussian_phi
from .quantale import QuantaleError, get_quantale, get_semiring
from .typecheck import TypeError_, check_grounds
from .vequation import (AxiomFamily, AxiomInstance, ProofError, TheoryError,
                        TheorySpec)


def subst_tokens(src: str, params: dict) -> str:
    """Substitute parameter values into identifier segments and bare
    tokens, so wait_n becomes wait_3 under {n: 3}."""

    def repl(m):
        name = m.group(0)
        segments = name.split("_")
        segments = [str(params[s]) if s in params else s for s in segments]
        return "_".join(segments)

    return IDENT_RE.sub(repl, src)


def _read_name(pattern: tuple, name: str, values: dict) -> bool:
    """Whether an operation name fits a pattern of its "_"-separated
    segments: a string is a literal segment, and a one-element tuple a
    parameter, bound in values to the digit segment at its place.  A
    parameter bound before must get the same value."""
    segments = name.split("_")
    if len(segments) != len(pattern):
        return False
    for want, seg in zip(pattern, segments):
        if type(want) is str:
            if want != seg:
                return False
        elif not seg.isdigit() or values.setdefault(want[0], int(seg)) \
                != int(seg):
            return False
    return True


class ParamOpFamily:
    """Operation family whose symbols carry numeric name segments that may
    also occur in grade position of the sort."""

    def __init__(self, base: str, params, arg_srcs, result_src):
        self.base = base
        self.params = tuple(params)
        self.arg_srcs = tuple(arg_srcs)
        self.result_src = result_src
        self.sample = "_".join([base] + ["1"] * len(self.params))
        self._pattern = (*base.split("_"), *((p,) for p in self.params))
        self._sorts = {}  # symbol name -> sort

    def match(self, name: str) -> bool:
        return self._values(name) is not None

    def _values(self, name: str):
        values = {}
        return values if _read_name(self._pattern, name, values) else None

    def sort(self, name: str):
        if name not in self._sorts:  # sorts are immutable
            values = self._values(name)
            self._sorts[name] = None if values is None else (
                tuple(parse_type(subst_tokens(src, values))
                      for src in self.arg_srcs),
                parse_type(subst_tokens(self.result_src, values)))
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


class AxiomTemplate(AxiomFamily):
    """An axiom scheme: a context and two sides written over natural-number
    parameters, and a function from the parameters' values to the bound.

    An instance substitutes the values into the source text (subst_tokens)
    and parses it.  The source is also parsed once, with each parameter
    replaced by a digit string found nowhere in it, so that every place a
    value can take parses; candidates walks these sides against a goal and
    reads a parameter wherever its segment sits in an operation name.  A
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
        text = " ".join(self.srcs)
        marks = (str(i) for i in itertools.count(10) if str(i) not in text)
        held = dict(zip((*self.params, *self.derived), marks))
        self.context = parse_context(subst_tokens(ctx_src, held))
        self.lhs = parse_term(subst_tokens(lhs_src, held))
        self.rhs = parse_term(subst_tokens(rhs_src, held))
        slots = {mark: (p,) for p, mark in held.items()}
        self._patterns = {
            t.op: tuple(slots.get(seg, seg) for seg in t.op.split("_"))
            for side in (self.lhs, self.rhs) for t in S.subterms(side)
            if type(t) is S.OpApp}

    def instantiate(self, theory, params):
        values = {p: _int_param(params, p) for p in self.params}
        bound = self.bound(values)
        values.update((p, f(values)) for p, f in self.derived.items())
        ctx, lhs, rhs = (subst_tokens(src, values) for src in self.srcs)
        return AxiomInstance(self.name, parse_context(ctx), parse_term(lhs),
                             parse_term(rhs), bound)

    def candidates(self, theory, v, w):
        values = {}
        if not (self._read(self.lhs, v, values)
                and self._read(self.rhs, w, values)
                and all(p in values for p in self.params)
                and all(values.setdefault(p, f(values)) == f(values)
                        for p, f in self.derived.items())):
            return []
        return [{p: values[p] for p in self.params}]

    def _read(self, pat, term, values) -> bool:
        """Whether term may be an instance of pat: a variable of pat stands
        for any subterm, and operation names are read for parameters; no
        other annotation is compared, so _place_axiom still decides."""
        if type(pat) is S.Var:
            return True
        if type(pat) is not type(term) or type(pat) is S.OpApp and \
                not _read_name(self._patterns[pat.op], term.op, values):
            return False
        kids, others = S.children(pat), S.children(term)
        return len(kids) == len(others) and all(
            self._read(a, b, values) for a, b in zip(kids, others))


ZERO = Fraction(0)


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


BUILTINS = {
    # wait_n(x) and wait_m(x) agree up to the delay difference; composing
    # delays equals the summed delay s = n + m, exactly.
    "wait": (
        AxiomTemplate("wait", ("n", "m"), "x : X", "wait_n(x)", "wait_m(x)",
                      lambda v: Fraction(abs(v["n"] - v["m"]))),
        AxiomTemplate("wait_zero", (), "x : X", "wait_0(x)", "x",
                      lambda v: ZERO),
        AxiomTemplate("wait_sum", ("n", "m"), "x : X", "wait_n(wait_m(x))",
                      "wait_s(x)", lambda v: ZERO,
                      derived={"s": lambda v: v["n"] + v["m"]}),
    ),
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


def _eval_bound(src: str, values: dict):
    import sympy
    locals_ = {p: sympy.Rational(v) for p, v in values.items()}
    locals_["abs"] = sympy.Abs
    try:
        expr = sympy.sympify(src, locals=locals_)
    except (sympy.SympifyError, TypeError) as exc:
        raise TheoryError(f"bad bound expression {src!r}: {exc}") from exc
    expr = sympy.nsimplify(expr)
    if not expr.is_Rational:
        raise TheoryError(f"bound expression {src!r} is not rational")
    value = Fraction(int(expr.p), int(expr.q))
    if value < 0:
        raise TheoryError(f"bound expression {src!r} is negative")
    return value


# ---------------------------------------------------------------------------
# Loading

_AXIOM_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\[(?P<params>[^\]]*)\])?\s*:\s*"
    r"\[(?P<ctx>[^\]]*)\]\s*"
    r"(?P<lhs>.*?)\s*=\[(?P<bound>[^\]]*)\]\s*"
    r"(?P<rhs>.*)$")


def load_theory_text(text: str, where: str = "<theory>") -> TheorySpec:
    quantale = None
    semiring = None
    symmetric = False
    grounds = set()
    ops = []
    families = []
    builtins = []
    axioms = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "quantale":
                quantale = get_quantale(rest)
            elif head == "semiring":
                semiring = get_semiring(rest)
            elif head == "symmetric":
                if rest:
                    raise TheoryError("symmetric takes no argument")
                symmetric = True
            elif head == "ground":
                if not is_identifier(rest):
                    raise TheoryError(f"bad ground type name {rest!r}")
                grounds.add(rest)
            elif head == "op":
                ops.append((lineno, *_parse_op_line(rest)))
            elif head == "opfamily":
                families.append((lineno, _parse_opfamily_line(rest)))
            elif head == "builtin":
                if rest not in BUILTINS:
                    raise TheoryError(f"unknown builtin {rest!r}")
                builtins.append(rest)
            elif head == "axiom":
                axioms.append((lineno, _parse_axiom_line(rest)))
            else:
                raise TheoryError(f"unknown directive {head!r}")
        except (TheoryError, ParseError, QuantaleError) as exc:
            raise TheoryError(f"{where}:{lineno}: {exc}") from exc

    if quantale is None or semiring is None:
        raise TheoryError(f"{where}: theory must declare a quantale and a "
                          f"semiring")
    sig = S.Signature(frozenset(grounds))
    for lineno, name, arg_types, result in ops:
        _check_grounds(sig, f"operation {name}", (*arg_types, result),
                       f"{where}:{lineno}")
        sig.declare(name, arg_types, result)
    for lineno, fam in families:
        arg_types, result = fam.sort(fam.sample)
        _check_grounds(sig, f"operation family {fam.base}",
                       (*arg_types, result), f"{where}:{lineno}")
        sig.families.append(fam)
    theory = TheorySpec(quantale, semiring, symmetric, sig)
    for b in builtins:
        for fam in BUILTINS[b]:
            theory.add_axiom(fam)
    for lineno, fam in axioms:
        _check_grounds(sig, f"axiom {fam.name}",
                       [ty for _, ty in fam.context], f"{where}:{lineno}")
        theory.add_axiom(fam)
    return theory


def load_theory(path: str) -> TheorySpec:
    with open(path, encoding="utf-8") as fh:
        return load_theory_text(fh.read(), where=path)


def _check_grounds(sig: S.Signature, what: str, types, where: str):
    """Reject types that name a ground type the theory does not declare."""
    for ty in types:
        try:
            check_grounds(sig, ty)
        except TypeError_ as exc:
            raise TheoryError(f"{where}: {what}: {exc}") from exc


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


def _parse_axiom_line(rest: str) -> AxiomTemplate:
    m = _AXIOM_RE.match(rest)
    if not m:
        raise TheoryError(f"bad axiom declaration {rest!r}")
    params = [p.strip() for p in (m.group("params") or "").split(",")
              if p.strip()]
    if not all(map(is_identifier, params)) or len(set(params)) < len(params):
        raise TheoryError(f"axiom parameters must be distinct identifiers, "
                          f"got {params}")
    bound = m.group("bound").strip()
    return AxiomTemplate(m.group("name"), params, m.group("ctx").strip(),
                         m.group("lhs").strip(), m.group("rhs").strip(),
                         lambda values: _eval_bound(bound, values))
