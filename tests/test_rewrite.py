import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvlam import syntax as S
from gvlam.parser import parse_context, parse_term
from gvlam.rewrite import (GROUPS, MatchError, ORIENTED, RewriteStep,
                           SchemaId, all_positions, apply_step,
                           beta_normalize, extract_plugs,
                           get_subterm, replace_subterm, rewrite_term,
                           term_size)
from gvlam.typecheck import infer

import support

SIG = support.test_signature()


def D(ctx_src, term_src):
    return infer(SIG, parse_context(ctx_src), parse_term(term_src))


def test_schema_enum_covers_six_groups():
    assert len(SchemaId) == 22
    assert sum(len(rows) for rows in GROUPS.values()) == 22
    assert SchemaId("tensor-beta") is SchemaId.TENSOR_BETA
    assert SchemaId("cc-copy") is SchemaId.CC_COPY


def test_positions():
    t = parse_term("plus(wait_1(x), wait_2(y))")
    assert get_subterm(t, (0, 0)) == S.Var("x")
    assert replace_subterm(t, (1,), S.Var("y")) \
        == parse_term("plus(wait_1(x), y)")
    assert list(all_positions(S.Var("x"))) == [()]
    assert len(list(all_positions(t))) == term_size(t) == 5


def test_every_row_applies_and_retypes():
    rng = random.Random(5)
    for schema, builder in support.SCHEMA_BUILDERS.items():
        for _ in range(3):
            ctx, lhs, step = builder(rng)
            d = infer(SIG, ctx, lhs)
            out = apply_step(SIG, d, step)
            assert out.conclusion.type == d.conclusion.type
            assert not S.alpha_eq(out.conclusion.term, lhs) \
                or schema is SchemaId.PROMOTE_SYMM


def test_tensor_beta_round_trip():
    lhs = parse_term("let x (*) y = wait_1(a) (*) b in plus(y, wait_2(x))")
    mid = rewrite_term(lhs, RewriteStep(SchemaId.TENSOR_BETA))
    assert mid == parse_term("plus(b, wait_2(wait_1(a)))")
    back = rewrite_term(mid, RewriteStep(
        SchemaId.TENSOR_BETA, (), "R2L",
        {"u": parse_term("plus(y, wait_2(x))"), "x": "x", "y": "y"}))
    assert S.alpha_eq(back, lhs)


def test_unit_beta_round_trip():
    lhs = parse_term("let unit = unit in wait_1(b)")
    mid = rewrite_term(lhs, RewriteStep(SchemaId.UNIT_BETA))
    assert mid == parse_term("wait_1(b)")
    back = rewrite_term(mid, RewriteStep(SchemaId.UNIT_BETA, (), "R2L"))
    assert back == lhs


def test_lolli_eta_round_trip():
    v = parse_term("fn y : X => wait_1(y)")
    lhs = S.Lambda("x", support.X, S.App(v, S.Var("x")))
    mid = rewrite_term(lhs, RewriteStep(SchemaId.LOLLI_ETA))
    assert mid == v
    back = rewrite_term(mid, RewriteStep(SchemaId.LOLLI_ETA, (), "R2L",
                                         {"ty": support.X}))
    assert S.alpha_eq(back, lhs)


def test_bang_eta_round_trip():
    lhs = parse_term("promote[3; 1](a; x => derelict x)")
    mid = rewrite_term(lhs, RewriteStep(SchemaId.BANG_ETA))
    assert mid == S.Var("a")
    back = rewrite_term(mid, RewriteStep(SchemaId.BANG_ETA, (), "R2L",
                                         {"r": 3}))
    assert S.alpha_eq(back, lhs)


def test_promote_symm_involution():
    rng = random.Random(1)
    ctx, lhs, step = support.SCHEMA_BUILDERS[SchemaId.PROMOTE_SYMM](rng)
    once = rewrite_term(lhs, step)
    assert not S.alpha_eq(once, lhs) or once == lhs
    twice = rewrite_term(once, step)
    assert S.alpha_eq(twice, lhs)


def test_copy_comm_involution():
    rng = random.Random(2)
    _, lhs, step = support.SCHEMA_BUILDERS[SchemaId.COPY_COMM](rng)
    assert S.alpha_eq(rewrite_term(rewrite_term(lhs, step), step), lhs)


def test_cc_round_trip():
    rng = random.Random(4)
    for schema in GROUPS["commuting"]:
        ctx, lhs, step = support.SCHEMA_BUILDERS[schema](rng)
        mid = rewrite_term(lhs, step)
        back_step = RewriteStep(schema, (), "R2L", step.bindings)
        assert S.alpha_eq(rewrite_term(mid, back_step), lhs)


def test_every_row_round_trips_right_to_left():
    rng = random.Random(6)
    for schema, builder in support.SCHEMA_BUILDERS.items():
        for _ in range(3):
            _, lhs, step = builder(rng)
            mid = rewrite_term(lhs, step)
            back = rewrite_term(mid, RewriteStep(
                schema, (), "R2L", support.row_bindings(schema, lhs, step)))
            assert S.alpha_eq(back, lhs), schema


def test_promote_copy_right_to_left_keeps_the_copy_binders_bound():
    # b is bound by the copy; the proposal promote[1; 2](a; z => copy[1,1]
    # z as x,y in plus(derelict x, b)) would have it free.
    t = parse_term("copy [1,1] a as a1, b in "
                   "promote[1; 1,1](a1, b; x, y => plus(derelict x, b))")
    with pytest.raises(MatchError, match="promote-copy read left to right "
                                         "does not take"):
        rewrite_term(t, RewriteStep(SchemaId.PROMOTE_COPY, (), "R2L"))


@pytest.mark.parametrize("row, term, bindings, message", [
    ("tensor-eta", "let x (*) y = p in plus(x (*) y, x)",
     {"u": "plus(z, x)", "z": "z"}, "x not free in u"),
    ("copy-assoc", "copy[2,1] s as x,y in copy[1,1] x as a,b in "
     "plus(derelict a, plus(derelict b, plus(derelict y, derelict x)))", {},
     "x not free in u"),
    ("copy-assoc", "copy[2,1] s as x,y in copy[1,1] x as y,b in "
     "plus(derelict y, derelict b)", {}, "its binders distinct"),
    ("promote-assoc", "promote[1; 1, 1](promote[1; 1](a; y => "
     "plus(derelict y, derelict k)), b; z, k => plus(derelict z, "
     "derelict k))", {}, "k not free in plus(derelict y, derelict k)"),
    ("promote-copy", "promote[1; 2](a; z => copy[1,1] z as x,y in "
     "plus(derelict x, plus(derelict y, derelict z)))", {},
     "z not free in"),
    ("promote-copy", "promote[1; 2, 1](a, b; z, k => copy[1,1] z as x,k in "
     "plus(derelict x, derelict k))", {}, "binders x, k apart"),
])
def test_freshness_conditions_refuse_captures(row, term, bindings, message):
    """Each step would capture a free variable or free a bound one, which
    the row functions the table replaced let through."""
    step = RewriteStep(SchemaId(row), (), "L2R", {
        k: parse_term(v) if k == "u" else v for k, v in bindings.items()})
    with pytest.raises(MatchError, match=re.escape(message)):
        rewrite_term(parse_term(term), step)
    support.reference_rewrite_term(parse_term(term), step)


def _verdict(match, u, t):
    try:
        return match(u, ("z",), t)
    except MatchError as exc:
        return str(exc)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_extract_plugs_matches_extract_then_reassemble(seed):
    rng = random.Random(seed)
    for _ in range(30):
        u, t = support.hole_pair(rng)
        got = _verdict(extract_plugs, u, t)
        want = _verdict(support.reference_extract_plugs, u, t)
        assert type(got) is type(want), (u, t, got, want)
        if isinstance(got, dict):
            assert S.alpha_eq(got["z"], want["z"]), (u, t)
            assert S.alpha_eq(S.substitute(u, got), t), (u, t)


def test_hole_pairs_reach_every_verdict():
    rng = random.Random(7)
    verdicts = [_verdict(support.reference_extract_plugs,
                         *support.hole_pair(rng)) for _ in range(2000)]
    accepted = sum(isinstance(v, dict) for v in verdicts)
    reassembly = verdicts.count(
        "context term does not reassemble the matched term")
    assert 1000 < accepted < 1800 and reassembly > 200


def test_rewrite_at_inner_position():
    t = parse_term("wait_1((fn x : X => wait_2(x)) y)")
    out = rewrite_term(t, RewriteStep(SchemaId.LOLLI_BETA, (0,)))
    assert out == parse_term("wait_1(wait_2(y))")


def test_match_errors():
    with pytest.raises(MatchError):
        rewrite_term(parse_term("wait_1(x)"),
                     RewriteStep(SchemaId.LOLLI_BETA))
    with pytest.raises(MatchError, match="needs the 'u' binding"):
        rewrite_term(parse_term("wait_1(x)"),
                     RewriteStep(SchemaId.CC_UNIT))
    with pytest.raises(MatchError):
        RewriteStep(SchemaId.LOLLI_BETA, (), "sideways")


def test_beta_normalize():
    d = D("y : X", "(fn x : X => wait_1(x)) "
          "(let unit = unit in wait_2(y))")
    out, steps, exhausted = beta_normalize(SIG, d)
    assert not exhausted
    assert out.conclusion.term == parse_term("wait_1(wait_2(y))")
    assert sorted(s.schema.value for _, s in steps) \
        == ["lolli-beta", "unit-beta"]
    for _, s in steps:
        assert s.schema in ORIENTED


def test_beta_normalize_fixpoint_is_stable():
    d = D("x : X", "wait_1(x)")
    out, steps, exhausted = beta_normalize(SIG, d)
    assert out == d and steps == [] and not exhausted


@pytest.mark.parametrize("context, holes, target, message", [
    ("wait_1(z)", "z", "p", "shape mismatch: wait_1(z) vs p"),
    ("plus(z, x)", "z", "plus(a, y)", "variable mismatch x vs y"),
    ("fn x : X => plus(x, z)", "z", "fn y : X => plus(a, y)",
     "variable mismatch x vs a"),
    ("wait_2(z)", "z", "wait_1(y)", "operation mismatch wait_2 vs wait_1"),
    ("f(z)", "z", "f(a, b)", "operation mismatch f vs f"),
    ("plus(wait_1(z), x)", "z", "plus(wait_2(a), y)",
     "operation mismatch wait_1 vs wait_2"),
    ("fn x : X => z", "z", "fn x : I => wait_1(y)",
     "lambda annotation mismatch"),
    ("promote[2; 1](z; x => derelict x)", "z",
     "promote[3; 1](wait_1(a); x => derelict x)",
     "promotion annotation mismatch"),
    ("promote[2; 1](z; x => derelict x)", "z",
     "promote[2; 1,1](a, b; x, y => derelict x)",
     "promotion annotation mismatch"),
    ("copy [1,1] z as a, b in a (*) b", "z",
     "copy [1,2] wait_1(y) as a, b in a (*) b", "copy annotation mismatch"),
    ("plus(z, z)", "z", "plus(a, b)", "hole z matched two different terms"),
    ("x", "z", "x", "hole z does not occur in the context term"),
    ("fn z : X => z", "z", "fn y : X => y",
     "hole z does not occur in the context term"),
    ("plus(z, x)", "z,w", "plus(a, x)",
     "hole w does not occur in the context term"),
])
def test_extract_plugs_messages(context, holes, target, message):
    with pytest.raises(MatchError) as exc:
        extract_plugs(parse_term(context), holes.split(","),
                      parse_term(target))
    assert str(exc.value) == message
