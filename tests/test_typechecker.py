import random

import pytest

from gvlam import syntax as S
from gvlam.parser import parse_context, parse_term
from gvlam.rewrite import rewrite_term
from gvlam.typecheck import (TypeError_, check, derivation_sexpr, exchange,
                             infer, subst_derivation)

import support

SIG = support.test_signature()


def D(ctx_src, term_src):
    return infer(SIG, parse_context(ctx_src), parse_term(term_src))


def test_rule_shapes():
    assert D("x : X", "x").rule == "hp"
    assert D("", "unit").rule == "I_i"
    assert D("x : X", "wait_2(x)").rule == "ax"
    assert D("u : I, x : X", "let unit = u in x").rule == "I_e"
    assert D("x : X, y : X", "x (*) y").rule == "tensor_i"
    assert D("p : X * X", "let a (*) b = p in plus(a, b)").rule == "tensor_e"
    assert D("", "fn x : X => x").rule == "lolli_i"
    assert D("f : X -o X, x : X", "f x").rule == "lolli_e"
    assert D("a : !2 X", "promote[2; 1](a; x => derelict x)").rule == "bang_i"
    assert D("a : !1 X", "derelict a").rule == "bang_e"
    assert D("d : !0 X, x : X", "discard d in x").rule == "bang_0"
    assert D("z : !3 X",
             "copy [1,2] z as a, b in plus(derelict a, "
             "copy [1,1] b as c, d in plus(derelict c, derelict d))"
             ).rule == "bang_sum"


def test_inferred_types():
    assert D("x : X", "wait_1(x)").conclusion.type == support.X
    assert D("", "fn x : X => wait_1(x)").conclusion.type == support.X2X
    assert D("a : !2 X", "promote[2; 1](a; x => derelict x)"
             ).conclusion.type == support.bang(2)
    assert D("", "!3 (c(unit))").conclusion.type == support.bang(3)


def test_splits_are_subsequences():
    d = D("a : X, u : I, b : X", "plus(a, let unit = u in b)")
    assert d.splits == ((("a", support.X),),
                        (("u", S.UnitType()), ("b", support.X)))


def test_linearity_errors():
    with pytest.raises(TypeError_, match="used twice"):
        D("x : X", "plus(x, x)")
    with pytest.raises(TypeError_, match="unused"):
        D("x : X, y : X", "wait_1(x)")
    with pytest.raises(TypeError_, match="unbound"):
        D("", "wait_1(x)")


def test_shape_errors():
    with pytest.raises(TypeError_, match="unknown operation"):
        D("x : X", "frob(x)")
    with pytest.raises(TypeError_, match="expects 2 arguments"):
        D("x : X", "plus(x)")
    with pytest.raises(TypeError_, match="has type"):
        D("u : I", "wait_1(u)")
    with pytest.raises(TypeError_, match="non-function"):
        D("x : X, y : X", "x y")
    with pytest.raises(TypeError_, match="grade 1"):
        D("a : !2 X", "derelict a")
    with pytest.raises(TypeError_, match="grade 0"):
        D("a : !1 X, x : X", "discard a in x")
    with pytest.raises(TypeError_, match="modality grade 3"):
        D("a : !2 X",
          "copy [1,2] a as x, y in plus(derelict x, "
          "copy [1,1] y as c, d in plus(derelict c, derelict d))")
    with pytest.raises(TypeError_, match="grade 2"):
        D("a : !1 X", "promote[2; 1](a; x => derelict x)")


def test_check_type_mismatch():
    ctx = parse_context("x : X")
    check(SIG, ctx, parse_term("wait_1(x)"), support.X)
    with pytest.raises(TypeError_, match="mismatch"):
        check(SIG, ctx, parse_term("wait_1(x)"), S.UnitType())


def test_binder_shadowing_context_variable():
    # A lambda binder clashing with a context name is renamed on the fly.
    d = D("x : X", "plus(x, (fn x : X => wait_1(x)) c(unit))")
    assert d.conclusion.type == support.X


def test_exchange():
    d = D("x : X, y : X", "plus(y, x)")
    out = exchange(SIG, d, 0)
    assert out.conclusion.context == parse_context("y : X, x : X")
    assert out.conclusion.type == d.conclusion.type
    with pytest.raises(TypeError_, match="out of range"):
        exchange(SIG, d, 1)


def test_subst_derivation():
    d = D("x : X, y : X", "plus(x, wait_1(y))")
    e = D("a : X, b : X", "plus(a, b)")
    out = subst_derivation(SIG, d, e)
    assert out.conclusion.context == parse_context("x : X, a : X, b : X")
    assert out.conclusion.term == parse_term("plus(x, wait_1(plus(a, b)))")


def test_subst_derivation_renames_clashes():
    d = D("a : X, y : X", "plus(a, y)")
    e = D("a : X", "wait_1(a)")
    out = subst_derivation(SIG, d, e)
    names = [x for x, _ in out.conclusion.context]
    assert len(names) == len(set(names)) == 2
    assert names[0] == "a" and names[1] != "a"
    with pytest.raises(TypeError_):
        subst_derivation(SIG, D("", "unit"), e)
    with pytest.raises(TypeError_, match="type"):
        subst_derivation(SIG, D("y : I", "let unit = y in unit"), e)


def test_generated_derivations_round_trip():
    rng = random.Random(21)
    gen = support.DerivGen(rng)
    for _ in range(150):
        ty = rng.choice([support.X, support.I, support.XX,
                         support.bang(1), support.X2X])
        d = gen.term_of(ty, rng.randrange(1, 5))
        assert infer(SIG, d.conclusion.context, d.conclusion.term) == d


def test_free_vars_match_free_var_counts():
    """The free variables each node keeps agree with the walk behind
    S.free_var_counts: on generated terms once infer has read them, on
    the bodies infer renames when a binder shadows a context variable,
    and on the results of substitute and of every schema row."""
    def agree(t):
        for u in S.subterms(t):
            assert S.free_vars(u) == set(S.free_var_counts(u))

    rng = random.Random(5)
    gen = support.DerivGen(rng)
    renamed = 0
    for _ in range(60):
        d = gen.term_of(rng.choice([support.X, support.XX, support.bang(1),
                                    support.X2X]), rng.randrange(1, 5))
        assert infer(SIG, d.conclusion.context, d.conclusion.term) == d
        agree(d.conclusion.term)
        # let s (*) y = value in body, where s also names a variable of
        # value: infer renames the binder and types the renamed body.
        value = gen.term_tensor(3)
        if not value.conclusion.context:
            continue
        x, y = gen.fresh(), gen.fresh()
        body = gen.consume2(x, support.X, y, support.X, 3)
        s = value.conclusion.context[0][0]
        inner = S.substitute(body.conclusion.term, {x: S.Var(s)})
        agree(inner)
        term = S.TensorLet(value.conclusion.term, s, y, inner)
        ctx = value.conclusion.context + body.conclusion.context[:-2]
        d = infer(SIG, ctx, term)
        assert d.conclusion.type == support.X
        typed_body = d.premises[1].conclusion.term
        agree(typed_body)
        renamed += typed_body is not inner
    assert renamed >= 20
    for schema, builder in support.SCHEMA_BUILDERS.items():
        for _ in range(3):
            ctx, lhs, step = builder(rng)
            infer(SIG, ctx, lhs)
            agree(rewrite_term(lhs, step))


def test_derivation_sexpr():
    text = derivation_sexpr(D("x : X", "wait_1(x)"))
    assert text.startswith('(ax "x : X |- wait_1(x) : X"')
    assert "(hp" in text


@pytest.mark.parametrize("ctx, text, message, path", [
    ("", "fn x : X => (fn y : X => c(y)) x",
     "at fn-body/app-fn/fn-body: argument 0 of c has type X, expected I",
     ("fn-body", "app-fn", "fn-body")),
    ("y : X", "(fn x0 : X => wait_0(x0)) ((fn x1 : X => wait_1(x1)) (c(y)))",
     "at app-arg/app-arg: argument 0 of c has type X, expected I",
     ("app-arg", "app-arg")),
    ("x : !2 X",
     "copy[1,1] x as a, b in plus(derelict a, wait_1(c(derelict b)))",
     "at copy-body/plus#1/wait_1#0: argument 0 of c has type X, expected I",
     ("copy-body", "plus#1", "wait_1#0")),
    ("p : X * X", "let a (*) b = p in plus(a, derelict b)",
     "at let-tensor-body/plus#1: dereliction requires modality grade 1, "
     "got X", ("let-tensor-body", "plus#1")),
    ("x : !1 X", "promote[1; 1](x; z => wait_1(fn w : X => derelict z))",
     "at promote-body/wait_1#0/fn-body/derelict: unbound variable z",
     ("promote-body", "wait_1#0", "fn-body", "derelict")),
    ("u : I", "let unit = u in discard unit in (fn q : X => q) unit",
     "at let-unit-body: discard requires modality grade 0, got I",
     ("let-unit-body",)),
    ("", "fn a : X => fn b : X => a",
     "at fn-body/fn-body: unbound variable a", ("fn-body", "fn-body")),
    ("", "fn y : X => fn f : X -o !2 Foo => y",
     "at fn-body: undeclared ground type Foo", ("fn-body",)),
])
def test_deep_error_paths(ctx, text, message, path):
    """The error path, built as a parent-linked chain while typing, reads
    as the flat tuple of steps from the root."""
    with pytest.raises(TypeError_) as exc:
        D(ctx, text)
    assert str(exc.value) == message
    assert exc.value.path == path
    assert type(exc.value.path) is tuple
