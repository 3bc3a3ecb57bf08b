"""Command-line workbench.

Subcommands tie theories, terms, proof scripts, and models together:

    gvlam check THEORY TERM [--context CTX] [--emit-derivation]
    gvlam prove THEORY PROOF
    gvlam bound THEORY TERM_A TERM_B [--context CTX] [--normalize-first]
    gvlam model {eval,distance,verify-axioms,verify-laws,prob-sweep,
                 gaussian-grid} ...
    gvlam oracle {tv,nonexpansive} ...

Exit codes: 0 success, 1 type error, 2 proof error, 3 synthesis failure,
4 model violation, 64 usage, 65 parse or I/O error or input nested too
deeply.  All reports iterate in sorted order so output is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import __version__
from . import syntax as S
from .metmodel import (ModelError, check_axiom, check_comonad_laws,
                       ExplicitSpace, FuncSpace, interp, model_distance,
                       timed_model, timed_space)
from .oracles import brute_tv, enumerate_nonexpansive
from .parser import ParseError, parse_context, parse_term, print_type
from .probmodel import (ProbError, diaconis_sweep, gaussian_phi,
                        gaussian_tv_numeric, no_replace_sampler,
                        replace_sampler, tv_distance)
from .proofscript import ScriptError, load_proof, parse_proof
from .quantale import (INF, QuantaleError, SymbolicBound, num_cmp,
                       value_repr)
from .rewrite import MatchError
from .syntax import SyntaxError_
from .theory import TheoryError, load_theory
from .typecheck import TypeError_, derivation_sexpr, infer
from .vequation import ProofError, SynthesisFailure, synthesize, validate

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PROOF = 2
EXIT_SYNTH = 3
EXIT_MODEL = 4
EXIT_USAGE = 64
EXIT_IO = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Input helpers

def _read_text_arg(arg: str) -> str:
    """Treat the argument as a file when one exists, else as literal text."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _term_arg(arg: str) -> S.Term:
    return parse_term(_read_text_arg(arg))


def _context_arg(arg) -> S.Context:
    return parse_context(arg) if arg else ()


_MODEL_RE = re.compile(r"^timed(?:\((\d+)\))?$")


def _build_model(theory, spec: str):
    m = _MODEL_RE.match(spec.strip())
    if not m:
        raise TheoryError(f"unknown model {spec!r}; expected timed(N)")
    n_max = int(m.group(1)) if m.group(1) else 32
    return timed_model(theory.signature, n_max)


def _parse_grades(spec: str):
    """LO..HI or a comma-separated list of natural grades, sorted; an
    empty or malformed list is a usage error, not an empty audit."""
    spec = spec.strip()
    m = re.match(r"^(\d+)\.\.(\d+)$", spec)
    if m:
        grades = list(range(int(m.group(1)), int(m.group(2)) + 1))
    else:
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        if not all(p.isdigit() for p in parts):
            raise argparse.ArgumentTypeError(
                f"expected LO..HI or a comma-separated list of natural "
                f"numbers, got {spec!r}")
        grades = sorted({int(p) for p in parts})
    if not grades:
        raise argparse.ArgumentTypeError(f"no grades in {spec!r}")
    return grades


def _at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {value}")
        return value
    return parse


def _law_spaces(count: int):
    """The first count of four small metric spaces, of sizes 1 to 4."""
    path3 = {(0, 1): Fraction(1), (1, 0): Fraction(1),
             (1, 2): Fraction(2), (2, 1): Fraction(2),
             (0, 2): Fraction(3), (2, 0): Fraction(3)}
    return [ExplicitSpace((0,), {}, name="pt"),
            ExplicitSpace((0, 1), {(0, 1): Fraction(3, 2),
                                   (1, 0): Fraction(3, 2)}, name="pair"),
            ExplicitSpace((0, 1, 2), path3, name="path3"),
            timed_space(3)][:count]


# ---------------------------------------------------------------------------
# Commands

def cmd_check(args) -> int:
    theory = load_theory(args.theory)
    ctx = _context_arg(args.context)
    term = _term_arg(args.term)
    d = infer(theory.signature, ctx, term, theory.semiring)
    print(print_type(d.conclusion.type))
    if args.emit_derivation:
        print(derivation_sexpr(d))
    return EXIT_OK


def cmd_prove(args) -> int:
    theory = load_theory(args.theory)
    proof = load_proof(args.proof)
    eq = validate(theory, proof)
    d = infer(theory.signature, eq.context, eq.lhs, theory.semiring)
    print(f"{eq} : {print_type(d.conclusion.type)}")
    print(f"bound: {value_repr(eq.bound)}")
    if isinstance(eq.bound, SymbolicBound):
        lo, hi = eq.bound.enclosure()
        print(f"enclosure: [{lo}, {hi}]")
    return EXIT_OK


def cmd_bound(args) -> int:
    theory = load_theory(args.theory)
    ctx = _context_arg(args.context)
    a, b = _term_arg(args.term_a), _term_arg(args.term_b)
    try:
        eq, _proof = synthesize(theory, ctx, a, b,
                                normalize_first=args.normalize_first)
    except SynthesisFailure:
        print("FAIL")
        return EXIT_SYNTH
    print(value_repr(eq.bound))
    return EXIT_OK


def cmd_model_eval(args) -> int:
    theory = load_theory(args.theory)
    model = _build_model(theory, args.model)
    ctx = _context_arg(args.context)
    term = _term_arg(args.term)
    d = infer(theory.signature, ctx, term, theory.semiring)
    mm = interp(model, d)
    for pt in mm.dom.points:
        print(f"{pt!r} |-> {mm(pt)!r}")
    return EXIT_OK


def cmd_model_distance(args) -> int:
    theory = load_theory(args.theory)
    model = _build_model(theory, args.model)
    ctx = _context_arg(args.context)
    a, b = _term_arg(args.term_a), _term_arg(args.term_b)
    print(value_repr(model_distance(model, theory.signature, ctx, a, b)))
    return EXIT_OK


def _axiom_param_grid(name, family, max_index):
    if name in ("wait", "wait_sum"):
        return [{"n": i, "m": j}
                for i in range(max_index + 1) for j in range(max_index + 1)]
    if not family.params:
        return [{}]
    return None  # schematic family with no default grid


def cmd_model_verify_axioms(args) -> int:
    theory = load_theory(args.theory)
    model = _build_model(theory, args.model)
    failures = 0
    for name in sorted(theory.axioms):
        family = theory.axioms[name]
        grid = _axiom_param_grid(name, family, args.max)
        if grid is None:
            print(f"skip {name} (schematic family without a default grid)")
            continue
        for params in grid:
            label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
            try:
                inst = family.instantiate(theory, dict(params))
                ok = check_axiom(model, theory.signature, inst.context,
                                 inst.lhs, inst.rhs, inst.bound)
            except (ProofError, TheoryError, TypeError_, ModelError) as exc:
                print(f"skip {name}[{label}] ({exc})")
                continue
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} {name}[{label}]")
            if not ok:
                failures += 1
    print(f"failures: {failures}")
    return EXIT_MODEL if failures else EXIT_OK


def cmd_model_verify_laws(args) -> int:
    report = check_comonad_laws(args.grades, _law_spaces(args.max_space))
    if args.verbose:
        print(report.summary())
    else:
        for name, ok, detail in report.failures:
            print(f"FAIL {name}" + (f" ({detail})" if detail else ""))
        for note in report.notes:
            print(f"note {note}")
    print(f"checks: {len(report.checks)}  failures: {len(report.failures)}")
    return EXIT_MODEL if report.failures else EXIT_OK


def cmd_model_prob_sweep(args) -> int:
    rows = diaconis_sweep(args.max)
    bad = 0
    if args.format == "csv":
        print("k,m,n,tv,bound,ok")
        for k, m, n, tv, bound, ok in rows:
            print(f"{k},{m},{n},{tv},{bound},{str(ok).lower()}")
            bad += not ok
    else:
        for k, m, n, tv, bound, ok in rows:
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} k={k} m={m} n={n} tv={tv} bound={bound}")
            bad += not ok
    return EXIT_MODEL if bad else EXIT_OK


def _grid_values():
    mus = [Fraction(-1), Fraction(0), Fraction(1)]
    sigmas = [Fraction(1, 2), Fraction(1), Fraction(2)]
    for mu1 in mus:
        for s1 in sigmas:
            for mu2 in mus:
                for s2 in sigmas:
                    yield mu1, s1, mu2, s2


def cmd_model_gaussian_grid(args) -> int:
    bad = 0
    print("mu1,sigma1,mu2,sigma2,tv,phi_lo,phi_hi,ok")
    for mu1, s1, mu2, s2 in _grid_values():
        phi = gaussian_phi(1, mu1, s1, mu2, s2)
        if isinstance(phi, SymbolicBound):
            lo, hi = phi.enclosure()
        else:
            lo = hi = phi
        tv = gaussian_tv_numeric(mu1, s1, mu2, s2)
        ok = tv <= float(hi) + 1e-6
        print(f"{mu1},{s1},{mu2},{s2},{tv:.9f},{float(lo):.12f},"
              f"{float(hi):.12f},{str(ok).lower()}")
        bad += not ok
    return EXIT_MODEL if bad else EXIT_OK


def cmd_oracle_tv(args) -> int:
    p = replace_sampler(args.k, args.m, args.n)
    q = no_replace_sampler(args.k, args.m, args.n)
    primary = tv_distance(p, q)
    reference = brute_tv(p, q)
    print(f"primary:   {primary}")
    print(f"reference: {reference}")
    if primary != reference:
        print("MISMATCH")
        return EXIT_MODEL
    return EXIT_OK


def cmd_oracle_nonexpansive(args) -> int:
    x, y = timed_space(args.dom), timed_space(args.cod)
    primary = FuncSpace(x, y).points  # checks GVLAM_GUARD before enumerating
    reference = enumerate_nonexpansive(x, y)
    print(f"primary:   {len(primary)}")
    print(f"reference: {len(reference)}")
    if sorted(primary) != sorted(reference):
        print("MISMATCH")
        return EXIT_MODEL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> _Parser:
    top = _Parser(prog="gvlam", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="typecheck a term against a theory")
    p.add_argument("theory")
    p.add_argument("term", help="term file or literal term text")
    p.add_argument("--context", default="")
    p.add_argument("--emit-derivation", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("prove", help="validate a proof script")
    p.add_argument("theory")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_prove)

    p = subs.add_parser("bound", help="synthesize a bound between two terms")
    p.add_argument("theory")
    p.add_argument("term_a")
    p.add_argument("term_b")
    p.add_argument("--context", default="")
    p.add_argument("--normalize-first", action="store_true")
    p.set_defaults(fn=cmd_bound)

    model = subs.add_parser("model", help="model evaluation and audits")
    msubs = model.add_subparsers(dest="model_command", required=True)

    p = msubs.add_parser("eval")
    p.add_argument("theory")
    p.add_argument("term")
    p.add_argument("--context", default="")
    p.add_argument("--model", default="timed(32)")
    p.set_defaults(fn=cmd_model_eval)

    p = msubs.add_parser("distance")
    p.add_argument("theory")
    p.add_argument("term_a")
    p.add_argument("term_b")
    p.add_argument("--context", default="")
    p.add_argument("--model", default="timed(32)")
    p.set_defaults(fn=cmd_model_distance)

    p = msubs.add_parser("verify-axioms")
    p.add_argument("theory")
    p.add_argument("--model", default="timed(32)")
    p.add_argument("--max", type=_at_least(0), default=10,
                   help="largest schematic index to instantiate")
    p.set_defaults(fn=cmd_model_verify_axioms)

    p = msubs.add_parser("verify-laws")
    p.add_argument("--grades", type=_parse_grades, default="0..4")
    p.add_argument("--max-space", type=int, choices=range(1, 5), default=4,
                   help="how many of the four law spaces to check")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_model_verify_laws)

    p = msubs.add_parser("prob-sweep")
    p.add_argument("--max", type=_at_least(1), default=8)
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.set_defaults(fn=cmd_model_prob_sweep)

    p = msubs.add_parser("gaussian-grid")
    p.set_defaults(fn=cmd_model_gaussian_grid)

    oracle = subs.add_parser("oracle", help="brute-force reference audits")
    osubs = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osubs.add_parser("tv")
    p.add_argument("k", type=int)
    p.add_argument("m", type=_at_least(0), help="zeros in the urn")
    p.add_argument("n", type=_at_least(0), help="ones in the urn")
    p.set_defaults(fn=cmd_oracle_tv)

    p = osubs.add_parser("nonexpansive")
    p.add_argument("dom", type=_at_least(0),
                   help="largest point of the domain line")
    p.add_argument("cod", type=_at_least(0),
                   help="largest point of the codomain line")
    p.set_defaults(fn=cmd_oracle_nonexpansive)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"gvlam: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ScriptError, TheoryError, SyntaxError_,
            OSError) as exc:
        print(f"gvlam: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        print("gvlam: error: input is nested too deeply", file=sys.stderr)
        return EXIT_IO
    except TypeError_ as exc:
        print(f"gvlam: type error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except (ProofError, MatchError, QuantaleError) as exc:
        print(f"gvlam: proof error: {exc}", file=sys.stderr)
        return EXIT_PROOF
    except SynthesisFailure as exc:
        print(f"gvlam: synthesis failure: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    except (ModelError, ProbError) as exc:
        print(f"gvlam: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
