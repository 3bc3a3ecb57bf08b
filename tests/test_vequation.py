from fractions import Fraction
from pathlib import Path

import pytest

import gvlam
import support
from gvlam import oracles
from gvlam.metmodel import model_distance
from gvlam.parser import parse_context, parse_term
from gvlam.proofscript import parse_proof
from gvlam.theory import load_theory, load_theory_text
from gvlam.typecheck import TypeError_
from gvlam.vequation import (ProofError, SynthesisFailure, TheorySpec,
                             VProof, synthesize, validate)
# Not compared with the oracle by conftest, for the rules the oracle lacks.
from gvlam.vequation import validate as validate_alone

TH = load_theory_text("""
    quantale metric
    semiring nat
    symmetric
    ground X
    op plus : X, X -> X
    op c : I -> X
    opfamily wait_<n> : X -> X
    builtin wait
""", where="tests")

ASYM = TheorySpec(TH.quantale, TH.semiring, False, TH.signature, TH.axioms)


def V(src):
    return validate(TH, parse_proof(src))


def test_refl():
    eq = V('(refl :ctx "x : X" "wait_1(x)")')
    assert eq.bound == Fraction(0)
    assert eq.lhs == eq.rhs == parse_term("wait_1(x)")
    assert "=[0]" in str(eq)


def test_axiom_and_rename():
    eq = V('(axiom wait :n 1 :m 4)')
    assert eq.bound == Fraction(3)
    renamed = V('(axiom wait :n 1 :m 4 :rename "x=u")')
    assert renamed.context == parse_context("u : X")
    assert renamed.lhs == parse_term("wait_1(u)")
    with pytest.raises(ProofError, match="no context variable"):
        V('(axiom wait :n 1 :m 4 :rename "q=u")')


def test_trans_adds_bounds():
    eq = V('(trans (axiom wait :n 1 :m 2) (axiom wait :n 2 :m 4))')
    assert eq.bound == Fraction(3)
    assert eq.lhs == parse_term("wait_1(x)")
    assert eq.rhs == parse_term("wait_4(x)")
    with pytest.raises(ProofError, match="middle"):
        V('(trans (axiom wait :n 1 :m 2) (axiom wait :n 3 :m 4))')


def test_weak():
    eq = V('(weak :q 5 (axiom wait :n 1 :m 2))')
    assert eq.bound == Fraction(5)
    with pytest.raises(ProofError, match="not below"):
        V('(weak :q 1/2 (axiom wait :n 1 :m 2))')


def test_join_takes_best_bound():
    eq = V('(join (weak :q 3 (axiom wait :n 1 :m 2)) (axiom wait :n 1 :m 2))')
    assert eq.bound == Fraction(1)
    with pytest.raises(ProofError, match="different"):
        V('(join (axiom wait :n 1 :m 2) (axiom wait :n 1 :m 3))')


def test_sym_requires_symmetric_theory():
    eq = V('(sym (axiom wait :n 1 :m 2))')
    assert eq.lhs == parse_term("wait_2(x)")
    with pytest.raises(ProofError, match="symmetric"):
        validate(ASYM, parse_proof('(sym (axiom wait :n 1 :m 2))'))


def test_perm():
    eq = V('(perm :ctx "y : X, x : X" (refl :ctx "x : X, y : X" '
           '"plus(x, y)"))')
    assert eq.context == parse_context("y : X, x : X")
    with pytest.raises(ProofError, match="permutation"):
        V('(perm :ctx "z : X" (refl :ctx "x : X" "x"))')


def test_schema_node_and_flip():
    eq = V('(schema lolli-beta :ctx "y : X" '
           ':term "(fn x : X => wait_1(x)) y")')
    assert eq.lhs == parse_term("(fn x : X => wait_1(x)) y")
    assert eq.rhs == parse_term("wait_1(y)")
    assert eq.bound == Fraction(0)
    flipped = V('(schema lolli-beta :ctx "y : X" '
                ':term "(fn x : X => wait_1(x)) y" :flip yes)')
    assert flipped.lhs == parse_term("wait_1(y)")
    with pytest.raises(ProofError, match="schema step failed"):
        V('(schema lolli-beta :ctx "y : X" :term "wait_1(y)")')


def test_cong_op():
    eq = V('(cong-op plus (axiom wait :n 1 :m 2) '
           '(refl :ctx "y : X" "y"))')
    assert eq.bound == Fraction(1)
    assert eq.lhs == parse_term("plus(wait_1(x), y)")
    with pytest.raises(ProofError, match="share the variable"):
        V('(cong-op plus (axiom wait :n 1 :m 2) (axiom wait :n 0 :m 0))')


def test_cong_lambda():
    eq = V('(cong-lambda (axiom wait :n 1 :m 2))')
    assert eq.context == ()
    assert eq.lhs == parse_term("fn x : X => wait_1(x)")
    assert eq.bound == Fraction(1)
    with pytest.raises(ProofError, match="bind"):
        V('(cong-lambda (refl :ctx "" "unit"))')


def test_cong_pair():
    eq = V('(cong-pair (axiom wait :n 1 :m 2) (refl :ctx "u : I" "u"))')
    assert eq.lhs == parse_term("wait_1(x) (*) u")
    assert eq.bound == Fraction(1)


def test_cong_tensor_let():
    eq = V('(cong-tensor-let (refl :ctx "p : X * X" "p") '
           '(cong-op plus (axiom wait :n 2 :m 3) (refl :ctx "b : X" "b")))')
    assert eq.lhs == parse_term(
        "let x (*) b = p in plus(wait_2(x), b)")
    assert eq.bound == Fraction(1)
    with pytest.raises(ProofError, match="two tensor variables"):
        V('(cong-tensor-let (refl :ctx "p : X * X" "p") '
           '(refl :ctx "b : X" "b"))')


def test_cong_copy():
    eq = V('(cong-copy (refl :ctx "z : !2 X" "z") '
           '(cong-op plus '
           '(cong-derelict (refl :ctx "p : !1 X" "p")) '
           '(cong-derelict (refl :ctx "q : !1 X" "q"))))')
    assert eq.lhs == parse_term(
        "copy [1,1] z as p, q in plus(derelict p, derelict q)")
    assert eq.bound == Fraction(0)


def test_cong_promote_scales_body_bound():
    body = ('(cong-subst :x x (axiom wait :n 1 :m 2) '
            '(cong-derelict (refl :ctx "x1 : !1 X" "x1")))')
    eq = V(f'(cong-promote :r 2 (refl :ctx "a : !2 X" "a") {body})')
    assert eq.bound == Fraction(2)
    assert eq.lhs == parse_term(
        "promote[2; 1](a; x1 => wait_1(derelict x1))")
    with pytest.raises(ProofError, match="premise count"):
        V(f'(cong-promote :r 2 {body})')


def test_cong_subst():
    eq = V('(cong-subst :x x (axiom wait :n 1 :m 3) '
           '(cong-op plus (refl :ctx "a : X" "a") (refl :ctx "b : X" "b")))')
    assert eq.context == parse_context("a : X, b : X")
    assert eq.lhs == parse_term("wait_1(plus(a, b))")
    assert eq.bound == Fraction(2)
    both = V('(cong-subst :x x (axiom wait :n 1 :m 3) '
             '(axiom wait :n 0 :m 1 :rename "x=a"))')
    assert both.rhs == parse_term("wait_3(wait_1(a))")
    assert both.bound == Fraction(3)
    with pytest.raises(ProofError, match="not in the premise"):
        V('(cong-subst :x nope (axiom wait :n 1 :m 3) '
           '(refl :ctx "a : X" "a"))')


def test_validate_rejects_ill_typed_conclusions():
    with pytest.raises(ProofError, match="ill-typed"):
        V('(refl :ctx "x : X" "plus(x, x)")')
    with pytest.raises(ProofError, match="unknown proof node"):
        validate(TH, VProof("mystery"))


def test_congruences_check_their_typing_rule_locally():
    # Each premise is well typed; only the congruence's own rule fails.
    # Under a sym node, the failure must be reported by the congruence
    # itself, not by the root's re-inference.
    cases = [
        ("cong-app", "applied term has non-function type X",
         '(cong-app (refl :ctx "x : X" "x") (refl :ctx "y : X" "y"))'),
        ("cong-op", "argument 0 of plus has type I, expected X",
         '(cong-op plus (refl :ctx "u : I" "u") (refl :ctx "y : X" "y"))'),
        ("cong-subst", "substituting a term of type I for x : X",
         '(cong-subst :x x (axiom wait :n 1 :m 2) '
         '(refl :ctx "u : I" "u"))'),
        ("cong-derelict", "dereliction requires modality grade 1",
         '(cong-derelict (refl :ctx "a : !2 X" "a"))'),
    ]
    for kind, message, src in cases:
        proof = parse_proof(f"(sym {src})")
        with pytest.raises(ProofError) as info:
            validate_alone(TH, proof)
        assert str(info.value).startswith(
            f"{kind}: ill-typed conclusion: {message}")
        with pytest.raises(ProofError, match="ill-typed"):
            oracles.reinfer_validate(TH, proof)


def test_binder_and_substituend_types_are_checked():
    # The conclusions typecheck, so the re-inferring oracle accepts them,
    # but each premise was proved at another type for a bound variable.
    for src in (
            '(cong-subst :x x (refl :ctx "x : X" "x") '
            '(refl :ctx "u : I" "u"))',
            '(cong-tensor-let (refl :ctx "p : X * I" "p") '
            '(cong-pair (refl :ctx "a : X" "a") (refl :ctx "b : X" "b")))',
            '(cong-copy (refl :ctx "z : !2 X" "z") '
            '(cong-pair (refl :ctx "p : !1 I" "p") '
            '(refl :ctx "q : !1 I" "q")))',
            '(cong-promote :r 1 (refl :ctx "a : !1 X" "a") '
            '(refl :ctx "x : !1 I" "x"))'):
        oracles.reinfer_validate(TH, parse_proof(src))
        with pytest.raises(ProofError, match="ill-typed"):
            validate_alone(TH, parse_proof(src))


def test_synthesize_axiom():
    ctx = parse_context("x : X")
    eq, proof = synthesize(TH, ctx, parse_term("wait_1(x)"),
                           parse_term("wait_2(x)"))
    assert eq.bound == Fraction(1)
    assert validate(TH, proof) == eq


def test_synthesize_deep_congruence():
    ctx = parse_context("x : X, y : X")
    v = parse_term("plus(wait_1(x), wait_3(y))")
    w = parse_term("plus(wait_2(x), wait_3(y))")
    eq, proof = synthesize(TH, ctx, v, w)
    assert eq.bound == Fraction(1)
    assert eq.lhs == v and eq.rhs == w
    assert validate(TH, proof) == eq
    # Premise contexts in another order than the context asked for.
    ctx = parse_context("y : X, x : X")
    eq, proof = synthesize(TH, ctx, v, w)
    assert eq.context == ctx and eq.bound == Fraction(1)


def test_synthesize_through_binders():
    ctx = parse_context("y : X")
    v = parse_term("fn x : X => plus(wait_1(x), y)")
    w = parse_term("fn x : X => plus(wait_4(x), y)")
    eq, proof = synthesize(TH, ctx, v, w)
    assert eq.bound == Fraction(3)
    assert validate(TH, proof) == eq


def test_synthesize_failure():
    ctx = parse_context("x : X")
    with pytest.raises(SynthesisFailure):
        synthesize(TH, ctx, parse_term("wait_1(x)"), parse_term("x"))


def test_synthesize_normalize_first():
    ctx = parse_context("y : X")
    v = parse_term("(fn x : X => wait_1(x)) y")
    w = parse_term("wait_2(y)")
    with pytest.raises(SynthesisFailure):
        synthesize(TH, ctx, v, w)
    eq, proof = synthesize(TH, ctx, v, w, normalize_first=True)
    assert eq.bound == Fraction(1)
    assert eq.lhs == v and eq.rhs == w
    assert validate(TH, proof) == eq


def test_synthesize_type_errors():
    ctx = parse_context("x : X")
    with pytest.raises(TypeError_):
        synthesize(TH, ctx, parse_term("wait_1(x)"), parse_term("plus(x, x)"))
    with pytest.raises(ProofError, match="different types"):
        synthesize(TH, parse_context("x : X, u : I"),
                   parse_term("plus(x, let unit = u in c(unit))"),
                   parse_term("x (*) u"))


# Binders that shadow a context variable of the scrutinee: the typechecker
# renames them, and synthesis takes the body's context from its derivation.
SHADOWING = [
    ("x : X * X", "let x (*) y = x in wait_1(x) (*) y",
     "let x (*) y = x in wait_2(x) (*) y", Fraction(1)),
    ("x : !2 X", "copy [1,1] x as x, y in wait_1(derelict x) (*) derelict y",
     "copy [1,1] x as x, y in wait_3(derelict x) (*) derelict y",
     Fraction(2)),
]


@pytest.mark.parametrize("ctx, v, w, bound", SHADOWING)
def test_synthesize_under_shadowing_binders(ctx, v, w, bound):
    timed = load_theory(str(Path(gvlam.__file__).parent / "data"
                            / "timed.thy"))
    ctx, v, w = parse_context(ctx), parse_term(v), parse_term(w)
    eq, proof = synthesize(timed, ctx, v, w)
    assert eq.bound == bound
    assert oracles.reinfer_validate(timed, proof).bound == eq.bound
    model = support.timed_test_model(timed.signature, 5)
    assert model_distance(model, timed.signature, ctx, v, w) <= eq.bound


def test_congruence_binder_may_reuse_a_scrutinee_variable():
    # The body binds x, which the scrutinee's context also has; the
    # typechecker renames the binder, and the congruence still holds.
    src = ('(cong-tensor-let (refl :ctx "x : X * X" "x") '
           '(cong-pair (refl :ctx "x : X" "x") (refl :ctx "y : X" "y")))')
    eq = validate_alone(TH, parse_proof(src))
    assert eq == oracles.reinfer_validate(TH, parse_proof(src))
    assert eq.lhs == parse_term("let x (*) y = x in x (*) y")
    assert eq.context == parse_context("x : X * X")


def test_premise_counts_are_checked():
    for src, message in (
            ("(sym)", "sym takes 1 premise, got 0"),
            ("(weak :q 1)", "weak takes 1 premise, got 0"),
            ('(sym (refl "unit") (refl "unit"))',
             "sym takes 1 premise, got 2"),
            ('(cong-app (refl :ctx "x : X" "x"))',
             "cong-app takes 2 premises, got 1"),
            ("(cong-lambda)", "cong-lambda takes 1 premise, got 0"),
            ("(cong-promote :r 1)", "cong-promote needs at least one premise"),
            ("(join)", "join needs at least one premise"),
            ("(cong-op plus)", "cong-op: ill-typed conclusion: operation "
                               "plus expects 2 arguments, got 0"),
            ("(cong-op f)", "cong-op: ill-typed conclusion: unknown "
                            "operation symbol f")):
        proof = parse_proof(src)
        with pytest.raises(ProofError) as info:
            validate_alone(TH, proof)
        assert str(info.value) == message
        with pytest.raises(ProofError):
            oracles.reinfer_validate(TH, proof)
    # Scripts chain trans nodes in pairs; a one-premise node is built here.
    with pytest.raises(ProofError, match="trans takes 2 premises, got 1"):
        validate(TH, VProof("trans", (parse_proof('(refl "unit")'),)))
