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
grade position of the declared sorts.  Builtins install the schematic
axiom families whose bounds need real arithmetic.  Generic `axiom` lines
declare schematic axioms with rational bound expressions over the
parameters (abs, +, -, *, / allowed).
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import syntax as S
from .parser import (IDENT_RE, ParseError, is_identifier, parse_context,
                     parse_term, parse_type)
from .probmodel import ProbError, gaussian_phi
from .quantale import QuantaleError, get_quantale, get_semiring
from .typecheck import TypeError_, check_grounds
from .vequation import AxiomFamily, AxiomInstance, ProofError, TheorySpec


class TheoryError(ValueError):
    pass


def subst_tokens(src: str, params: dict) -> str:
    """Substitute parameter values into identifier segments and bare
    tokens, so wait_n becomes wait_3 under {n: 3}."""

    def repl(m):
        name = m.group(0)
        segments = name.split("_")
        segments = [str(params[s]) if s in params else s for s in segments]
        return "_".join(segments)

    return IDENT_RE.sub(repl, src)


class ParamOpFamily:
    """Operation family whose symbols carry numeric name segments that may
    also occur in grade position of the sort."""

    def __init__(self, base: str, params, arg_srcs, result_src):
        self.base = base
        self.params = tuple(params)
        self.arg_srcs = tuple(arg_srcs)
        self.result_src = result_src
        self.sample = "_".join([base] + ["1"] * len(self.params))
        self._sorts = {}  # symbol name -> sort; sorts are immutable

    def match(self, name: str) -> bool:
        return self._values(name) is not None

    def _values(self, name: str):
        prefix = self.base + "_"
        if not name.startswith(prefix):
            return None
        rest = name[len(prefix):].split("_")
        if len(rest) != len(self.params) or not all(
                seg.isdigit() for seg in rest):
            return None
        return dict(zip(self.params, (int(seg) for seg in rest)))

    def sort(self, name: str):
        try:
            return self._sorts[name]
        except KeyError:
            pass
        values = self._values(name)
        if values is None:
            sort = None
        else:
            args = tuple(parse_type(subst_tokens(src, values))
                         for src in self.arg_srcs)
            result = parse_type(subst_tokens(self.result_src, values))
            sort = (args, result)
        self._sorts[name] = sort
        return sort


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


def _head_indices(term: S.Term, base: str, count: int):
    """Numeric name segments when term is an application of base_..."""
    match term:
        case S.OpApp(op, _):
            prefix = base + "_"
            if op.startswith(prefix):
                rest = op[len(prefix):].split("_")
                if len(rest) == count and all(s.isdigit() for s in rest):
                    return tuple(int(s) for s in rest)
    return None


class WaitAxiom(AxiomFamily):
    """wait_n(x) and wait_m(x) agree up to the delay difference."""

    name = "wait"

    def instantiate(self, theory, params):
        n, m = _int_param(params, "n"), _int_param(params, "m")
        ctx = parse_context("x : X")
        return AxiomInstance(
            self.name, ctx,
            parse_term(f"wait_{n}(x)"), parse_term(f"wait_{m}(x)"),
            Fraction(abs(n - m)))

    def candidates(self, theory, v, w):
        a = _head_indices(v, "wait", 1)
        b = _head_indices(w, "wait", 1)
        if a and b:
            return [{"n": a[0], "m": b[0]}]
        return []


class WaitZeroAxiom(AxiomFamily):
    name = "wait_zero"

    def instantiate(self, theory, params):
        ctx = parse_context("x : X")
        return AxiomInstance(self.name, ctx, parse_term("wait_0(x)"),
                             S.Var("x"), Fraction(0))


class WaitSumAxiom(AxiomFamily):
    """Composing delays equals the summed delay, exactly."""

    name = "wait_sum"

    def instantiate(self, theory, params):
        n, m = _int_param(params, "n"), _int_param(params, "m")
        ctx = parse_context("x : X")
        return AxiomInstance(
            self.name, ctx,
            parse_term(f"wait_{n}(wait_{m}(x))"),
            parse_term(f"wait_{n + m}(x)"), Fraction(0))

    def candidates(self, theory, v, w):
        out = []
        match v:
            case S.OpApp(_, (inner,)):
                a = _head_indices(v, "wait", 1)
                b = _head_indices(inner, "wait", 1)
                c = _head_indices(w, "wait", 1)
                if a and b and c and a[0] + b[0] == c[0]:
                    out.append({"n": a[0], "m": b[0]})
        return out


class DiaconisAxiom(AxiomFamily):
    """Urn sampling with and without replacement, at the 4k/(m+n) label."""

    name = "diaconis"

    def instantiate(self, theory, params):
        k = _int_param(params, "k")
        m, n = _int_param(params, "m"), _int_param(params, "n")
        if k < 1:
            raise ProofError("diaconis needs at least one draw")
        if m + n < 1:
            raise ProofError("diaconis needs a non-empty urn")
        if k > m + n:
            raise ProofError(f"diaconis needs k <= m + n, got k={k}, "
                             f"m+n={m + n}")
        return AxiomInstance(
            self.name, (),
            parse_term(f"replace_{k}_{m}_{n}(unit)"),
            parse_term(f"no_replace_{k}_{m}_{n}(unit)"),
            Fraction(4 * k, m + n))

    def candidates(self, theory, v, w):
        a = _head_indices(v, "replace", 3)
        b = _head_indices(w, "no_replace", 3)
        if a and b and a == b:
            return [{"k": a[0], "m": a[1], "n": a[2]}]
        return []


class GaussiansAxiom(AxiomFamily):
    """Two k-fold i.i.d. normal samplers, at the closed-form label."""

    name = "gaussians"

    def instantiate(self, theory, params):
        k = _int_param(params, "k")
        mu1 = _int_param(params, "mu1")
        s1 = _int_param(params, "sigma1")
        mu2 = _int_param(params, "mu2")
        s2 = _int_param(params, "sigma2")
        if k < 1:
            raise ProofError("gaussians needs k >= 1")
        if s1 < 1 or s2 < 1:
            raise ProofError("standard deviations must be positive")
        lhs = parse_term(f"iid_normal_{k}(real_{mu1}(unit), "
                         f"real_{s1}(unit))")
        rhs = parse_term(f"iid_normal_{k}(real_{mu2}(unit), "
                         f"real_{s2}(unit))")
        return AxiomInstance(self.name, (), lhs, rhs,
                             gaussian_phi(k, mu1, s1, mu2, s2))

    def candidates(self, theory, v, w):
        pv, pw = self._read(v), self._read(w)
        if pv and pw and pv[0] == pw[0]:
            return [{"k": pv[0], "mu1": pv[1], "sigma1": pv[2],
                     "mu2": pw[1], "sigma2": pw[2]}]
        return []

    @staticmethod
    def _read(term):
        match term:
            case S.OpApp(op, (mu, sigma)):
                k = _head_indices(term, "iid_normal", 1)
                a = _head_indices(mu, "real", 1)
                b = _head_indices(sigma, "real", 1)
                if k and a and b:
                    return (k[0], a[0], b[0])
        return None


BUILTINS = {
    "wait": (WaitAxiom, WaitZeroAxiom, WaitSumAxiom),
    "diaconis": (DiaconisAxiom,),
    "gaussians": (GaussiansAxiom,),
}


class GenericAxiom(AxiomFamily):
    """Schematic axiom declared in a theory file."""

    def __init__(self, name, params, ctx_src, lhs_src, rhs_src, bound_src):
        self.name = name
        self.params = tuple(params)
        self.ctx_src = ctx_src
        self.lhs_src = lhs_src
        self.rhs_src = rhs_src
        self.bound_src = bound_src

    def instantiate(self, theory, params):
        values = {p: _int_param(params, p) for p in self.params}
        ctx = parse_context(subst_tokens(self.ctx_src, values))
        lhs = parse_term(subst_tokens(self.lhs_src, values))
        rhs = parse_term(subst_tokens(self.rhs_src, values))
        bound = _eval_bound(self.bound_src, values)
        return AxiomInstance(self.name, ctx, lhs, rhs, bound)

    def candidates(self, theory, v, w):
        if not self.params:
            return [{}]
        # Solve parameters from indexed operation names occurring in the
        # declared sides against the terms being matched.
        templates = IDENT_RE.findall(self.lhs_src + " " + self.rhs_src)
        term_ops = sorted(_op_names(v) | _op_names(w))
        assignment = {}
        for template in templates:
            segs = template.split("_")
            if not any(s in self.params for s in segs):
                continue
            for op in term_ops:
                osegs = op.split("_")
                if len(osegs) != len(segs):
                    continue
                trial = {}
                for a, b in zip(segs, osegs):
                    if a in self.params:
                        if not b.isdigit():
                            trial = None
                            break
                        trial[a] = int(b)
                    elif a != b:
                        trial = None
                        break
                if trial is None:
                    continue
                conflict = any(assignment.get(k, trial[k]) != trial[k]
                               for k in trial)
                if not conflict:
                    assignment.update(trial)
        if set(assignment) == set(self.params):
            return [assignment]
        return []


def _op_names(term: S.Term):
    return {t.op for t in S.subterms(term) if type(t) is S.OpApp}


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
                axioms.append(_parse_axiom_line(rest))
            else:
                raise TheoryError(f"unknown directive {head!r}")
        except (TheoryError, ParseError, QuantaleError) as exc:
            raise TheoryError(f"{where}:{lineno}: {exc}") from exc

    if quantale is None or semiring is None:
        raise TheoryError(f"{where}: theory must declare a quantale and a "
                          f"semiring")
    sig = S.Signature(frozenset(grounds))
    for lineno, name, arg_types, result in ops:
        _check_sort(sig, f"operation {name}", (arg_types, result),
                    f"{where}:{lineno}")
        sig.declare(name, arg_types, result)
    for lineno, fam in families:
        _check_sort(sig, f"operation family {fam.base}", fam.sort(fam.sample),
                    f"{where}:{lineno}")
        sig.families.append(fam)
    theory = TheorySpec(quantale, semiring, symmetric, sig)
    for b in builtins:
        for cls in BUILTINS[b]:
            theory.add_axiom(cls())
    for fam in axioms:
        theory.add_axiom(fam)
    return theory


def load_theory(path: str) -> TheorySpec:
    with open(path, encoding="utf-8") as fh:
        return load_theory_text(fh.read(), where=path)


def _check_sort(sig: S.Signature, what: str, sort, where: str):
    """Reject a sort that names a ground type the theory does not declare."""
    arg_types, result = sort
    for ty in arg_types + (result,):
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


def _parse_axiom_line(rest: str) -> GenericAxiom:
    m = _AXIOM_RE.match(rest)
    if not m:
        raise TheoryError(f"bad axiom declaration {rest!r}")
    params = [p.strip() for p in (m.group("params") or "").split(",")
              if p.strip()]
    return GenericAxiom(m.group("name"), params, m.group("ctx").strip(),
                        m.group("lhs").strip(), m.group("rhs").strip(),
                        m.group("bound").strip())
