from fractions import Fraction
from pathlib import Path

import pytest

import gvlam
from gvlam import oracles
from gvlam import syntax as S
from gvlam.parser import parse_context, parse_term, parse_type
from gvlam.proofscript import (ScriptError, load_proof, parse_bound_literal,
                               parse_proof)
from gvlam.quantale import INF
from gvlam.rewrite import SchemaId
from gvlam.theory import load_theory, load_theory_text
from gvlam.vequation import CONGRUENCES, validate

DATA = Path(gvlam.__file__).parent / "data"


def test_refl():
    p = parse_proof('(refl :ctx "x : X" "wait_1(x)")')
    assert p.kind == "refl"
    assert p.info["ctx"] == parse_context("x : X")
    assert p.info["term"] == parse_term("wait_1(x)")


def test_trans_left_fold():
    p = parse_proof('(trans (refl "x") (refl "x") (refl "x"))')
    assert p.kind == "trans"
    assert p.premises[0].kind == "trans"
    assert p.premises[1].kind == "refl"


def test_weak_and_join():
    p = parse_proof('(weak :q 3/2 (refl "unit"))')
    assert p.info["q"] == Fraction(3, 2)
    assert parse_proof('(weak :q inf (refl "unit"))').info["q"] is INF
    j = parse_proof('(join (refl "x") (refl "x"))')
    assert j.kind == "join" and len(j.premises) == 2


def test_sym_and_perm():
    assert parse_proof('(sym (refl "x"))').kind == "sym"
    p = parse_proof('(perm :ctx "y : X, x : X" (refl :ctx "x : X, y : X" '
                    '"plus(x, y)"))')
    assert p.info["ctx"] == parse_context("y : X, x : X")


def test_axiom_node():
    p = parse_proof('(axiom wait :n 1 :m 2 :rename "x=u")')
    assert p.info["name"] == "wait"
    assert p.info["params"] == {"n": 1, "m": 2}
    assert p.info["rename"] == {"x": "u"}
    p = parse_proof('(axiom wait :n 1 :m 2 :rename " x = u ,y=v")')
    assert p.info["rename"] == {"x": "u", "y": "v"}


def test_schema_node():
    p = parse_proof('(schema lolli-beta :ctx "y : X" '
                    ':term "wait_1((fn x : X => x) y)" '
                    ':pos 0 :dir L2R)')
    step = p.info["step"]
    assert step.schema is SchemaId.LOLLI_BETA
    assert step.position == (0,)
    assert step.direction == "L2R"
    deep = parse_proof('(schema lolli-beta :term "y" :pos 1.0.12)')
    assert deep.info["step"].position == (1, 0, 12)
    assert not p.info["flip"]


def test_schema_bindings():
    p = parse_proof('(schema cc-tensor :term "x" '
                    ':u "plus(a, b)" :z q :ty "X -o X" '
                    ':ss "1,2" :xs "p, r" :r 4 :dir R2L :flip yes '
                    ':pos 0.1)')
    b = p.info["step"].bindings
    assert b["u"] == parse_term("plus(a, b)")
    assert b["z"] == "q"
    assert b["ty"] == parse_type("X -o X")
    assert b["ss"] == (1, 2)
    assert b["xs"] == ("p", "r")
    assert b["r"] == 4
    assert p.info["step"].position == (0, 1)
    assert p.info["flip"]


def test_cong_nodes():
    p = parse_proof('(cong-op plus (refl "x") (refl "y"))')
    assert p.info["op"] == "plus" and len(p.premises) == 2
    assert parse_proof('(cong-promote :r 2 (refl "x"))').info["r"] == 2
    assert parse_proof('(cong-subst :x y (refl "x") (refl "y"))'
                       ).info["x"] == "y"
    for head in ("cong-unit-let", "cong-pair", "cong-tensor-let",
                 "cong-lambda", "cong-app", "cong-derelict",
                 "cong-discard", "cong-copy"):
        assert parse_proof(f'({head} (refl "x"))').kind == head


def test_script_errors():
    for src in ('(frobnicate)', '(refl "x"', '(refl "x")) ', 'atom',
                '(schema not-a-row :term "x")', '(weak (refl "x"))',
                '(trans (refl "x"))', '(refl "x" "y")', '(axiom)',
                '(refl :ctx)', '(cong-op)', '(perm (refl "x"))',
                '(cong-promote (refl "x"))',
                '(cong-subst (refl "x") (refl "y"))',
                '(schema lolli-beta :ctx "y : X")',
                '(schema lolli-beta :term "y" :pos a)',
                '(schema lolli-beta :term "y" :pos -1)',
                '(schema lolli-beta :term "y" :pos 0.x)'):
        with pytest.raises(ScriptError):
            parse_proof(src)
    with pytest.raises(ScriptError):
        parse_bound_literal("three")


def test_load_proof_strips_comments(tmp_path):
    path = tmp_path / "p.proof"
    path.write_text('; header comment\n(weak :q 1 ; inline\n (refl "x"))\n')
    p = load_proof(str(path))
    assert p.kind == "weak" and p.info["q"] == Fraction(1)


PROMOTE_SYMM = ('(schema promote-symm :ctx "a : !1 X, b : !1 X" :i 0 '
                ':term "promote[1; 1,1](a, b; x, y => '
                'wait_1(derelict x) (*) derelict y)")')


def test_semicolons_in_strings_are_not_comments(tmp_path):
    """A ; inside a quoted term belongs to the term; outside strings it
    comments out the rest of the line, in a file as in text."""
    theory = load_theory(str(DATA / "timed.thy"))
    eq = validate(theory, parse_proof(PROMOTE_SYMM))
    path = tmp_path / "symm.proof"
    path.write_text(f"; swap the arguments\n{PROMOTE_SYMM} ; once\n")
    assert validate(theory, load_proof(str(path))) == eq
    assert validate(theory, parse_proof(f"{PROMOTE_SYMM};(")) == eq


@pytest.mark.parametrize("rename, piece", [
    ("x", "x"), ("x=", "x="), ("=u", "=u"), ("x=u=v", "x=u=v"),
    ("x=fn", "x=fn"), ("x=u, y", "y"), ("x=1u", "x=1u"), ("", "")])
def test_rename_pieces_are_old_equals_new(rename, piece):
    with pytest.raises(ScriptError) as exc:
        parse_proof(f'(axiom wait :n 1 :m 2 :rename "{rename}")')
    assert str(exc.value) \
        == f"rename piece {piece!r} is not old=new with two identifiers"


def test_bundled_proof_parses():
    p = load_proof(str(DATA / "walk.proof"))
    assert p.kind == "cong-copy"
    assert p.premises[0].kind == "cong-promote"
    assert p.premises[0].info["r"] == 3


def _outcome(validate_fn, theory, proof):
    try:
        return validate_fn(theory, proof)
    except Exception as exc:
        return type(exc)


def test_parsed_scripts_validate_as_the_oracle_does():
    """validate and oracles.reinfer_validate agree on the scripts this
    module parses: equal equations, or the same exception type."""
    theory = load_theory_text("""
        quantale metric
        semiring nat
        symmetric
        ground X
        op plus : X, X -> X
        opfamily wait_<n> : X -> X
        builtin wait
    """)
    scripts = [
        '(refl :ctx "x : X" "wait_1(x)")',
        '(trans (refl "x") (refl "x") (refl "x"))',
        '(weak :q 3/2 (refl "unit"))', '(weak :q inf (refl "unit"))',
        '(join (refl "x") (refl "x"))', '(sym (refl "x"))',
        '(perm :ctx "y : X, x : X" (refl :ctx "x : X, y : X" '
        '"plus(x, y)"))',
        '(axiom wait :n 1 :m 2 :rename "x=u")',
        '(schema lolli-beta :ctx "y : X" :term "wait_1((fn x : X => x) y)" '
        ':pos 0 :dir L2R)',
        '(schema cc-tensor :term "x" :u "plus(a, b)" :z q :ty "X -o X" '
        ':ss "1,2" :xs "p, r" :r 4 :dir R2L :flip yes :pos 0.1)',
        '(cong-op plus (refl "x") (refl "y"))',
        '(cong-promote :r 2 (refl "x"))',
        '(cong-subst :x y (refl "x") (refl "y"))',
        '(weak :q 1 (refl "x"))',
        '(cong-promote :r 2 (axiom wait :n 1 :m 2) '
        '(trans (refl :ctx "x : X" "wait_1(x)") '
        '(schema lolli-beta :ctx "y : X" :term "(fn x : X => x) y" '
        ':dir L2R)))',
    ] + [f'({head} (refl "x"))' for head in (
        "cong-unit-let", "cong-pair", "cong-tensor-let", "cong-lambda",
        "cong-app", "cong-derelict", "cong-discard", "cong-copy")]
    cases = [(theory, parse_proof(src)) for src in scripts]
    cases.append((load_theory(str(DATA / "prob.thy")),
                  load_proof(str(DATA / "walk.proof"))))
    for th, proof in cases:
        assert _outcome(validate, th, proof) \
            == _outcome(oracles.reinfer_validate, th, proof)


def test_each_constructor_has_one_congruence_head():
    # Every term constructor but the variable and the unit has exactly one
    # congruence kind, and the script reader accepts exactly those heads
    # besides the substitution congruence.
    assert set(CONGRUENCES) == set(S.SHAPES) - {S.Var, S.Star}
    kinds = [c.kind for c in CONGRUENCES.values()]
    assert len(set(kinds)) == len(kinds)
    keywords = {"cong-op": "plus", "cong-promote": ":r 1",
                "cong-subst": ":x x"}
    for kind in kinds + ["cong-subst"]:
        p = parse_proof(f'({kind} {keywords.get(kind, "")} (refl "x"))')
        assert p.kind == kind
    for head in ("cong-var", "cong-star", "cong-unit", "cong-let",
                 "cong-bang"):
        with pytest.raises(ScriptError, match="unknown proof node head"):
            parse_proof(f'({head} (refl "x"))')

