import ast
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import gvlam
from gvlam import syntax as S
from gvlam.oracles import reference_eval_bound, reference_instantiate
from gvlam.parser import parse_context, parse_term, print_term
from gvlam.quantale import SymbolicBound
from gvlam.theory import (AxiomTemplate, ParamOpFamily, TheoryError,
                          _expression, load_theory, load_theory_text,
                          subst_tokens)
from gvlam.vequation import ProofError, axiom_instantiate

import support

DATA = Path(gvlam.__file__).parent / "data"

TIMED = load_theory(str(DATA / "timed.thy"))
PROB = load_theory(str(DATA / "prob.thy"))
# Two schemes whose parameters sit in different operations of the sides.
TICK_SRC = """
quantale metric
semiring nat
symmetric
ground X
opfamily tick_<n> : X -> X
opfamily tock_<n> : X -> X
axiom tickd[n,m] : [x : X] tick_n(x) =[abs(n-m)] tick_m(x)
axiom tt[n,m] : [x : X] tick_n(x) =[abs(n-m)] tock_m(x)
"""
TICK = load_theory_text(TICK_SRC, "tick.thy")


def test_timed_theory_shape():
    assert TIMED.symmetric
    assert TIMED.quantale.kind == "metric"
    assert "X" in TIMED.signature.grounds
    assert set(TIMED.axioms) >= {"wait", "wait_zero", "wait_sum"}
    assert TIMED.signature.lookup("wait_3") is not None


def test_prob_theory_shape():
    assert "real" in PROB.signature.grounds
    assert set(PROB.axioms) >= {"diaconis", "gaussians", "magpair"}
    args, result = PROB.signature.lookup("replace_2_1_1")
    assert args and result is not None
    assert PROB.signature.lookup("iid_normal_4") is not None


def test_subst_tokens():
    assert subst_tokens("wait_n(x)", {"n": 3}) == "wait_3(x)"
    assert subst_tokens("replace_k_m_n(unit)", {"k": 2, "m": 1, "n": 1}) \
        == "replace_2_1_1(unit)"
    assert subst_tokens("other(x)", {"n": 3}) == "other(x)"


def test_param_op_family():
    fam = ParamOpFamily("wait", ("n",), ("X",), "X")
    assert fam.sort("wait_7") is not None
    for name in ("wait", "wait_x", "wait_1_2"):
        assert fam.sort(name) is None
    args, result = fam.sort("wait_7")
    assert args == (result,)
    fam2 = ParamOpFamily("iid_normal", ("k",), ("real", "real"), "!k real")
    _, res = fam2.sort("iid_normal_3")
    assert res.grade == 3


def test_param_op_family_sort_is_memoised():
    def family():
        return ParamOpFamily("replace", ("k", "m", "n"), ("I",), "!k real")

    fam = family()
    names = ["replace_2_1_1", "replace_3_0_4", "replace_2_1_1", "replace_2",
             "replace_x_1_1", "no_replace_2_1_1", "replace_2_1_1_1", "add"]
    for name in names:
        assert fam.sort(name) == family().sort(name)
    assert fam.sort("replace_2_1_1") is fam.sort("replace_2_1_1")
    for unknown in ("replace_2", "replace_x_1_1", "add"):
        assert fam.sort(unknown) is None


def test_param_op_family_names_print_their_index():
    """A symbol of the family is a name an instance prints: an index
    written with a leading zero names no symbol (it typed as the index's
    sort while being a symbol of its own that no axiom covered)."""
    fam = ParamOpFamily("wait", ("n",), ("X",), "X")
    assert fam.sort("wait_0") is not None
    for name in ("wait_07", "wait_00"):
        assert fam.sort(name) is None


def test_wait_axiom_instances():
    inst = axiom_instantiate(TIMED, "wait", {"n": 3, "m": 7})
    assert inst.bound == Fraction(4)
    assert inst.lhs == parse_term("wait_3(x)")
    assert inst.rhs == parse_term("wait_7(x)")

    zero = axiom_instantiate(TIMED, "wait_zero", {})
    assert zero.bound == Fraction(0)
    assert zero.rhs == parse_term("x")

    summed = axiom_instantiate(TIMED, "wait_sum", {"n": 2, "m": 5})
    assert summed.lhs == parse_term("wait_2(wait_5(x))")
    assert summed.rhs == parse_term("wait_7(x)")
    assert summed.bound == Fraction(0)


def test_wait_axiom_rejects_bad_params():
    with pytest.raises(ProofError, match="missing"):
        axiom_instantiate(TIMED, "wait", {"n": 1})
    with pytest.raises(ProofError, match="natural"):
        axiom_instantiate(TIMED, "wait", {"n": 1, "m": -2})
    with pytest.raises(ProofError, match="unknown axiom"):
        axiom_instantiate(TIMED, "diaconis", {"k": 1, "m": 1, "n": 1})


def test_wait_candidates():
    fam = TIMED.axioms["wait"]
    cands = fam.candidates(TIMED, parse_term("wait_2(x)"),
                           parse_term("wait_9(x)"))
    assert cands == [({"n": 2, "m": 9}, {"x": parse_term("x")})]
    assert fam.candidates(TIMED, parse_term("x"),
                          parse_term("wait_1(x)")) == []
    sums = TIMED.axioms["wait_sum"].candidates(
        TIMED, parse_term("wait_2(wait_3(x))"), parse_term("wait_5(x)"))
    assert sums == [({"n": 2, "m": 3}, {"x": parse_term("x")})]


def test_diaconis_axiom():
    inst = axiom_instantiate(PROB, "diaconis", {"k": 2, "m": 1, "n": 1})
    assert inst.bound == Fraction(4)
    assert inst.lhs == parse_term("replace_2_1_1(unit)")
    assert inst.rhs == parse_term("no_replace_2_1_1(unit)")
    with pytest.raises(ProofError, match="k <= m \\+ n"):
        axiom_instantiate(PROB, "diaconis", {"k": 5, "m": 1, "n": 1})
    with pytest.raises(ProofError, match="draw"):
        axiom_instantiate(PROB, "diaconis", {"k": 0, "m": 1, "n": 1})
    with pytest.raises(ProofError, match="urn"):
        axiom_instantiate(PROB, "diaconis", {"k": 1, "m": 0, "n": 0})


def test_gaussians_axiom():
    inst = axiom_instantiate(PROB, "gaussians",
                             {"k": 1, "mu1": 0, "sigma1": 1,
                              "mu2": 1, "sigma2": 1})
    assert inst.bound == Fraction(1, 2)
    same = axiom_instantiate(PROB, "gaussians",
                             {"k": 3, "mu1": 2, "sigma1": 2,
                              "mu2": 2, "sigma2": 2})
    assert same.bound == Fraction(0)
    symbolic = axiom_instantiate(PROB, "gaussians",
                                 {"k": 3, "mu1": 0, "sigma1": 1,
                                  "mu2": 1, "sigma2": 1})
    assert isinstance(symbolic.bound, SymbolicBound)
    assert symbolic.bound.expr == sympy.sqrt(3) / 2
    with pytest.raises(ProofError, match="positive"):
        axiom_instantiate(PROB, "gaussians",
                          {"k": 1, "mu1": 0, "sigma1": 0,
                           "mu2": 0, "sigma2": 1})


def test_generic_axiom():
    inst = axiom_instantiate(PROB, "magpair", {"k": 2})
    assert inst.lhs == parse_term("mag1_2(unit)")
    assert inst.rhs == parse_term("mag2_2(unit)")
    assert inst.bound == Fraction(1)
    fam = PROB.axioms["magpair"]
    cands = fam.candidates(PROB, parse_term("mag1_3(unit)"),
                           parse_term("mag2_3(unit)"))
    assert cands == [({"k": 3}, {})]
    assert fam.candidates(PROB, parse_term("unit"),
                          parse_term("unit")) == []


def test_load_theory_text_minimal():
    th = load_theory_text("""
        quantale metric
        semiring nat
        ground Y
        op f : Y -> Y  # trailing comment
        axiom idle : [y : Y] f(y) =[3/2] y
    """, where="inline")
    inst = axiom_instantiate(th, "idle", {})
    assert inst.bound == Fraction(3, 2)
    assert not th.symmetric


def test_load_theory_errors():
    with pytest.raises(TheoryError, match="quantale"):
        load_theory_text("semiring nat")
    with pytest.raises(TheoryError, match="bad:2"):
        load_theory_text("quantale metric\nfrobnicate yes\nsemiring nat",
                         where="bad")
    with pytest.raises(TheoryError, match="unknown builtin"):
        load_theory_text("quantale metric\nsemiring nat\nbuiltin nope")
    with pytest.raises(TheoryError, match="bad axiom"):
        load_theory_text("quantale metric\nsemiring nat\n"
                         "axiom broken : x = y")
    with pytest.raises(TheoryError, match="opfamily"):
        load_theory_text("quantale metric\nsemiring nat\n"
                         "opfamily bad : X -> X")
    with pytest.raises(TheoryError, match="argument"):
        load_theory_text("quantale metric\nsemiring nat\nground X\n"
                         "op k : -> X")


def test_bound_expression_validation():
    with pytest.raises(TheoryError, match="negative"):
        load_theory_text("quantale metric\nsemiring nat\nground X\n"
                         "axiom a : [x : X] x =[-1] x"
                         ).axioms["a"].instantiate(None, {})
    with pytest.raises(TheoryError, match="not rational"):
        load_theory_text("quantale metric\nsemiring nat\nground X\n"
                         "axiom a[n] : [x : X] x =[sqrt(n)] x"
                         ).axioms["a"].instantiate(None, {"n": 2})


def test_failing_bound_is_a_proof_error_naming_the_instance():
    th = load_theory_text("quantale metric\nsemiring nat\nground X\n"
                          "opfamily wait_<n> : X -> X\n"
                          "axiom bad[n] : [x : X] wait_n(x) =[n - 5] x")
    with pytest.raises(ProofError) as info:
        axiom_instantiate(th, "bad", {"n": 1})
    assert str(info.value) == \
        "axiom bad :n 1: bound expression 'n - 5' is negative"
    assert axiom_instantiate(th, "bad", {"n": 6}).bound == 1


def _valid_instance(theory, family, rng):
    """Seeded parameters that the family accepts, and their instance."""
    for _ in range(100):
        params = {p: rng.randrange(7) for p in family.params}
        try:
            return params, family.instantiate(theory, params)
        except ProofError:
            continue
    raise AssertionError(f"no valid parameters for {family.name}")


@pytest.mark.parametrize("theory, name", [
    (th, name) for th in (TIMED, PROB, TICK) for name in sorted(th.axioms)])
def test_candidates_read_back_the_parameters_of_an_instance(theory, name):
    family = theory.axioms[name]
    rng = random.Random(name)
    for _ in range(10):
        params, inst = _valid_instance(theory, family, rng)
        assert family.candidates(theory, inst.lhs, inst.rhs) == [(params, {
            x: S.Var(x) for x, _ in inst.context})]


def test_candidates_read_parameters_by_position():
    tt = TICK.axioms["tt"]
    # Each parameter comes from the operation at its own place, not from
    # the first matching name anywhere in the goal.
    assert tt.candidates(TICK, parse_term("tick_1(tock_2(x))"),
                         parse_term("tock_3(tock_2(x))")) \
        == [({"n": 1, "m": 3}, {"x": parse_term("tock_2(x)")})]
    assert tt.candidates(TICK, parse_term("tock_1(x)"),
                         parse_term("tock_3(x)")) == []
    # Parameters shared by both sides must agree; a derived one must equal
    # what it is derived from.
    diaconis = PROB.axioms["diaconis"]
    assert diaconis.candidates(PROB, parse_term("replace_2_1_1(unit)"),
                               parse_term("no_replace_2_1_2(unit)")) == []
    assert TIMED.axioms["wait_sum"].candidates(
        TIMED, parse_term("wait_2(wait_3(x))"), parse_term("wait_6(x)")) == []
    # A template variable stands for a subterm, the same on both sides.
    assert TIMED.axioms["wait"].candidates(
        TIMED, parse_term("wait_2(f(y))"), parse_term("wait_4(f(y))")) \
        == [({"n": 2, "m": 4}, {"x": parse_term("f(y)")})]
    assert TIMED.axioms["wait"].candidates(
        TIMED, parse_term("wait_2(f(y))"), parse_term("wait_4(z)")) == []


def test_builtin_instances_are_unchanged():
    inst = axiom_instantiate(PROB, "gaussians", {"k": 2, "mu1": 1,
                                                 "sigma1": 2, "mu2": 3,
                                                 "sigma2": 1})
    assert inst.context == ()
    assert inst.lhs == parse_term("iid_normal_2(real_1(unit), real_2(unit))")
    assert inst.rhs == parse_term("iid_normal_2(real_3(unit), real_1(unit))")
    for name, params in [("wait", {"n": 0, "m": 12}), ("wait_zero", {}),
                         ("wait_sum", {"n": 4, "m": 0})]:
        assert axiom_instantiate(TIMED, name, params).context \
            == parse_context("x : X")


@pytest.mark.parametrize("line, message", [
    ("axiom bad : [x : X] wait_1(x =[0] x", "t:3: 1:9: expected ')', found 'end of input'"),
    ("axiom ab : [x : Y] wait_1(x) =[0] x",
     "t:3: axiom ab: undeclared ground type Y"),
    ("axiom p[n m] : [x : X] wait_n(x) =[0] x",
     "t:3: axiom parameters must be distinct identifiers, got ['n m']"),
    ("axiom p[n, n] : [x : X] wait_n(x) =[0] x",
     "t:3: axiom parameters must be distinct identifiers, got ['n', 'n']"),
    ("axiom p[2] : [x : X] wait_1(x) =[0] x",
     "t:3: axiom parameters must be distinct identifiers, got ['2']"),
])
def test_bad_axiom_lines_fail_at_load(line, message):
    with pytest.raises(TheoryError) as info:
        load_theory_text(f"quantale metric\nsemiring nat\n{line}\n"
                         f"ground X\nopfamily wait_<n> : X -> X", "t")
    assert str(info.value) == message


def test_axiom_template_parses_grade_positions_at_load():
    th = load_theory_text(
        "quantale metric\nsemiring nat\nground X\n"
        "axiom gs[n] : [x : !n X] promote[1; n](x; y => y) =[n] "
        "promote[1; n](x; y => y)")
    inst = axiom_instantiate(th, "gs", {"n": 3})
    assert inst.lhs == parse_term("promote[1; 3](x; y => y)")
    assert inst.bound == Fraction(3)
    # n sits in no operation name, only in grades, and is read there.
    assert th.axioms["gs"].candidates(th, inst.lhs, inst.rhs) \
        == [({"n": 3}, {"x": parse_term("x")})]


def test_candidates_refuse_a_grade_that_is_no_parameter():
    """inf in a parameter's grade place gives no candidate, also where a
    derived parameter is computed from it."""
    th = load_theory_text(
        "quantale metric\nsemiring nat\nground X\n"
        "opfamily tick_<n> : X -> X\n"
        "axiom gs[n] : [x : !n X] promote[1; n](x; y => y) =[n] "
        "promote[1; n](x; y => y)\n"
        "axiom gd[n; k = n + 1] : [x : !n X] "
        "promote[1; n](x; y => tick_k(derelict y)) =[0] "
        "promote[1; n](x; y => tick_k(derelict y))")
    for name, text in (("gs", "promote[1; inf](x; y => y)"),
                       ("gd", "promote[1; inf](x; y => tick_1(derelict y))")):
        goal = parse_term(text)
        assert th.axioms[name].candidates(th, goal, goal) == []
    goal = parse_term("promote[1; 2](x; y => tick_3(derelict y))")
    assert th.axioms["gd"].candidates(th, goal, goal) \
        == [({"n": 2}, {"x": parse_term("x")})]


# The wait builtin as three Python templates, before it became three
# axiom lines.
WAIT_TEMPLATES = (
    AxiomTemplate("wait", ("n", "m"), "x : X", "wait_n(x)", "wait_m(x)",
                  lambda v: Fraction(abs(v["n"] - v["m"]))),
    AxiomTemplate("wait_zero", (), "x : X", "wait_0(x)", "x",
                  lambda v: Fraction(0)),
    AxiomTemplate("wait_sum", ("n", "m"), "x : X", "wait_n(wait_m(x))",
                  "wait_s(x)", lambda v: Fraction(0),
                  derived={"s": lambda v: v["n"] + v["m"]}),
)


@pytest.mark.parametrize("template", WAIT_TEMPLATES, ids=lambda t: t.name)
def test_wait_lines_instantiate_as_the_templates_did(template):
    family = TIMED.axioms[template.name]
    for n, m in itertools.product(range(9), repeat=2):
        params = dict(zip(template.params, (n, m)))
        old = template.instantiate(TIMED, params)
        new = axiom_instantiate(TIMED, template.name, params)
        assert new == old and type(new.bound) is type(old.bound)
        assert family.candidates(TIMED, new.lhs, new.rhs) \
            == [(params, {"x": parse_term("x")})] \
            == template.candidates(TIMED, old.lhs, old.rhs)


def _line(line):
    return load_theory_text("quantale metric\nsemiring nat\nground X\n"
                            "opfamily t_<n> : X -> X\n" + line, "t")


def test_derived_parameters():
    th = _line("axiom d[n, m; k = n - m, h = n / 2] : [x : X] "
               "t_n(t_m(x)) =[m / 2] t_k(t_h(x))")
    inst = axiom_instantiate(th, "d", {"n": 4, "m": 1})
    assert inst.lhs == parse_term("t_4(t_1(x))")
    assert inst.rhs == parse_term("t_3(t_2(x))")
    assert inst.bound == Fraction(1, 2)
    fam = th.axioms["d"]
    assert fam.candidates(th, inst.lhs, inst.rhs) \
        == [({"n": 4, "m": 1}, {"x": parse_term("x")})]
    with pytest.raises(ProofError) as info:
        axiom_instantiate(th, "d", {"n": 1, "m": 4})
    assert str(info.value) == ("axiom d :m 4 :n 1: derived parameter k = "
                               "'n - m' is negative")
    with pytest.raises(ProofError) as info:
        axiom_instantiate(th, "d", {"n": 3, "m": 1})
    assert str(info.value) == ("axiom d :m 1 :n 3: derived parameter h = "
                               "'n / 2' is not a natural number")
    # A goal whose derived value is not a natural number has no candidate.
    for lhs, rhs in [("t_1(t_4(x))", "t_0(t_0(x))"),
                     ("t_3(t_1(x))", "t_2(t_1(x))")]:
        assert fam.candidates(th, parse_term(lhs), parse_term(rhs)) == []


@pytest.mark.parametrize("bound", [
    "0.5", "n^2", "n**2", "max(n,m)", "Abs(n)", "n < m", "k", "+n",
    "abs(n, m)", "sqrt(x=n)", "n if m else 1", "True", "(n",
])
def test_bound_expression_outside_the_grammar_fails_at_load(bound):
    with pytest.raises(TheoryError,
                       match=r"^t:5: bad bound expression "):
        _line(f"axiom a[n, m] : [x : X] t_n(x) =[{bound}] t_m(x)")


@pytest.mark.parametrize("params, message", [
    ("n; s", "bad derived parameter 's'"),
    ("n; n = 1", "bad derived parameter 'n = 1'"),
    ("n; s = n, s = 1", "bad derived parameter 's = 1'"),
    ("n; 2 = n", "bad derived parameter '2 = n'"),
    ("n; s = m", "bad derived parameter s = 'm': 'm' is not allowed"),
])
def test_bad_derived_parameter_fails_at_load(params, message):
    with pytest.raises(TheoryError) as info:
        _line(f"axiom a[{params}] : [x : X] t_n(x) =[0] x")
    assert str(info.value) == f"t:5: {message}"


LEAVES = st.one_of(st.integers(0, 12).map(str), st.sampled_from("nm"))


def _grow(inner):
    binary = st.tuples(inner, st.sampled_from("+-*/"), inner, st.booleans())
    return st.one_of(
        binary.map(lambda t: ("({} {} {})" if t[3] else "{} {} {}")
                   .format(*t[:3])),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(["abs", "sqrt"]), inner)
        .map(lambda t: f"{t[0]}({t[1]})"))


def _outcome(evaluate, src, values):
    try:
        return evaluate(src, values)
    except TheoryError as exc:
        return str(exc)


def _is_rational_square(value):
    return isinstance(value, Fraction) and value >= 0 and all(
        math.isqrt(k) ** 2 == k for k in (value.numerator, value.denominator))


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _grow, max_leaves=6), st.integers(0, 9),
       st.integers(0, 9))
def test_bound_evaluator_matches_sympy(src, n, m):
    values = {"n": n, "m": m}
    got = _outcome(lambda s, v: _expression(s, "nm", "bound expression")(v),
                   src, values)
    want = _outcome(reference_eval_bound, src, values)
    if got != want:
        # The one difference: every subterm must be rational, while sympy
        # may cancel an irrational or imaginary root (sqrt(2) * sqrt(2)).
        assert got == f"bound expression {src!r} is not rational"
        roots = [ast.unparse(node.args[0])
                 for node in ast.walk(ast.parse(src, mode="eval"))
                 if type(node) is ast.Call and node.func.id == "sqrt"]
        assert not all(_is_rational_square(_outcome(reference_eval_bound,
                                                     root, values))
                       for root in roots)


# Every axiom family above, with the builtins: the
# three wait lines and the two Python templates are in TIMED and PROB.
INLINE = load_theory_text("""
quantale metric
semiring nat
ground X
ground Y
op f : Y -> Y
opfamily t_<n> : X -> X
opfamily wait_<n> : X -> X
opfamily g_<n>_<m> : !n X, X -> !m (X * X)
axiom idle : [y : Y] f(y) =[3/2] y
axiom neg : [x : X] x =[-1] x
axiom root[n] : [x : X] x =[sqrt(n)] x
axiom bad[n] : [x : X] wait_n(x) =[n - 5] x
axiom gs[n] : [x : !n X] promote[1; n](x; y => y) =[n] \
promote[1; n](x; y => y)
axiom d[n, m; k = n - m, h = n / 2] : [x : X] t_n(t_m(x)) =[m / 2] \
t_k(t_h(x))
axiom lam[n, m] : [x : X] (fn z : !n X => t_m(x)) =[n] \
(fn z : !n X => t_m(x))
axiom cp[n, m; s = n + m] : [x : !s X] \
copy[n, m] x as a, b in discard a in derelict b =[0] \
copy[n, m] x as a, b in discard a in derelict b
""", "inline.thy")
FAMILIES = [(th, fam) for th in (TIMED, PROB, TICK, INLINE)
            for fam in th.axioms.values()] + [
                (TIMED, fam) for fam in WAIT_TEMPLATES]


def _instance_or_error(instantiate, theory, family, params):
    try:
        return instantiate(family, theory, params)
    except Exception as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FAMILIES), st.data())
def test_instantiate_matches_text_substitution(pair, data):
    """Renaming the marker digits of the parsed sides builds what
    substituting the values into the source text and parsing it builds:
    equal contexts, sides and bounds, or the same error class."""
    theory, family = pair
    params = {p: data.draw(st.integers(-1, 9), label=p)
              for p in family.params}
    if params and data.draw(st.integers(0, 9), label="drop") == 0:
        params.popitem()
    got = _instance_or_error(type(family).instantiate, theory, family,
                             params)
    want = _instance_or_error(reference_instantiate, theory, family, params)
    assert got == want
    if not isinstance(got, type):
        assert type(got.bound) is type(want.bound)


def test_instantiate_covers_grades_and_derived_parameters():
    """The cases the property above must reach: a grade in a context type,
    a promotion's grades, a lambda annotation, copy grades and a derived
    parameter in an operation name and in a grade."""
    for name, params, lhs in [
            ("gs", {"n": 3}, "promote[1; 3](x; y => y)"),
            ("lam", {"n": 4, "m": 2}, "fn z : !4 X => t_2(x)"),
            ("cp", {"n": 2, "m": 5},
             "copy[2, 5] x as a, b in discard a in derelict b")]:
        inst = INLINE.axioms[name].instantiate(INLINE, params)
        assert inst == reference_instantiate(INLINE.axioms[name], INLINE,
                                             params)
        assert inst.lhs == parse_term(lhs)
    assert INLINE.axioms["gs"].instantiate(INLINE, {"n": 3}).context \
        == parse_context("x : !3 X")
    assert INLINE.axioms["cp"].instantiate(INLINE, {"n": 2, "m": 5}) \
        .context == parse_context("x : !7 X")
    summed = TIMED.axioms["wait_sum"].instantiate(TIMED, {"n": 2, "m": 5})
    assert summed.rhs == parse_term("wait_7(x)")


def _readable(family):
    """Whether each parameter shows in a side, in a name or a grade."""
    return all(any(subst_tokens(src, {p: 0}) != src for src in family.srcs[1:])
               for p in family.params)


_NUMBER = re.compile(r"(?<![A-Za-z0-9])\d+")


def _goals(rng, theory, family):
    """An instance of family at random parameters, each context variable
    plugged alike on both sides, then its one-step mutants: an operation
    index or a grade changed on one side, and one plug changed."""
    for _ in range(100):
        params = {p: rng.randrange(4) for p in family.params}
        try:
            inst = support.reference_instance(family, theory, params)
            break
        except TheoryError:  # a derived value that is not natural
            continue
    plugs = {x: rng.choice([S.Var(x), parse_term(f"f(y{i})")])
             for i, (x, _) in enumerate(inst.context)}
    sides = [S.substitute(side, plugs) for side in (inst.lhs, inst.rhs)]
    yield sides
    for i in (0, 1):
        text = print_term(sides[i])
        for m in rng.sample(list(_NUMBER.finditer(text)), 1) \
                if _NUMBER.search(text) else ():
            other = rng.choice([k for k in range(5) if str(k) != m[0]])
            mutant = list(sides)
            mutant[i] = parse_term(f"{text[:m.start()]}{other}"
                                   f"{text[m.end():]}")
            yield mutant
    if plugs:
        x = rng.choice(sorted(plugs))
        yield sides[0], S.substitute(inst.rhs, {**plugs, x: S.Var("q")})


@pytest.mark.parametrize("theory, family", FAMILIES,
                         ids=[family.name for _, family in FAMILIES])
def test_candidates_match_the_brute_force_reference(theory, family):
    """The reader's (parameters, plugs) are the brute-force reference's on
    instances and their mutants; a family with a parameter that shows in
    no side (root: only in its bound) offers nothing."""
    rng = random.Random(family.name)
    for _ in range(3):
        for v, w in _goals(rng, theory, family):
            want = support.reference_candidates(family, theory, v, w)
            got = family.candidates(theory, v, w)
            assert got == (want if _readable(family) else [])
