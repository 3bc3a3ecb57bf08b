import dataclasses
import random

import pytest

from gvlam import syntax as S
from gvlam.parser import (ParseError, parse_context, parse_term, parse_type,
                          print_context, print_term, print_type)
from gvlam.quantale import INF

import support


def T(src):
    return parse_term(src)


def test_parse_type_precedence():
    assert parse_type("!2 X -o X * I") == S.LolliType(
        S.BangType(2, S.Ground("X")),
        S.TensorType(S.Ground("X"), S.UnitType()))
    assert parse_type("X -o X -o X") == S.LolliType(
        S.Ground("X"), S.LolliType(S.Ground("X"), S.Ground("X")))
    assert parse_type("X * X * X") == S.TensorType(
        S.TensorType(S.Ground("X"), S.Ground("X")), S.Ground("X"))
    assert parse_type("!inf X") == S.BangType(INF, S.Ground("X"))


def test_parse_term_shapes():
    assert T("unit") == S.Star()
    assert T("wait_3(x)") == S.OpApp("wait_3", (S.Var("x"),))
    assert T("x (*) y") == S.TensorPair(S.Var("x"), S.Var("y"))
    assert T("f x") == S.App(S.Var("f"), S.Var("x"))
    assert T("derelict x") == S.Derelict(S.Var("x"))
    assert T("let unit = u in x") == S.UnitLet(S.Var("u"), S.Var("x"))
    assert T("let a (*) b = p in a (*) b") == S.TensorLet(
        S.Var("p"), "a", "b", S.TensorPair(S.Var("a"), S.Var("b")))
    assert T("discard d in x") == S.Discard(S.Var("d"), S.Var("x"))
    assert T("copy [1,2] z as a, b in a (*) b") == S.Copy(
        1, 2, S.Var("z"), "a", "b", S.TensorPair(S.Var("a"), S.Var("b")))
    assert T("fn x : X => x") == S.Lambda("x", S.Ground("X"), S.Var("x"))


def test_promote_sugar():
    assert T("!2 (unit)") == S.Promote(2, (), (), (), S.Star())
    full = T("promote[2; 1,1](a, b; x, y => derelict x (*) derelict y)")
    assert full == S.Promote(
        2, (1, 1), (S.Var("a"), S.Var("b")), ("x", "y"),
        S.TensorPair(S.Derelict(S.Var("x")), S.Derelict(S.Var("y"))))


def test_op_call_requires_glued_paren():
    # With a space, the identifier is an application head instead.
    assert T("f (x)") == S.App(S.Var("f"), S.Var("x"))
    assert T("f(x)") == S.OpApp("f", (S.Var("x"),))


def test_parse_errors():
    for src in ("let", "fn x => x", "(x", "copy [1] z as a, b in a",
                "x (*)"):
        with pytest.raises(ParseError):
            parse_term(src)
    with pytest.raises(ParseError):
        parse_type("X -o")
    with pytest.raises(ParseError):
        parse_context("x : X, x :")


def test_print_parse_round_trip_generated():
    rng = random.Random(3)
    gen = support.DerivGen(rng)
    for _ in range(80):
        ty = rng.choice([support.X, support.I, support.XX,
                         support.bang(2), support.X2X])
        term = gen.term_of(ty, rng.randrange(1, 4)).conclusion.term
        assert parse_term(print_term(term)) == term


def test_context_round_trip():
    ctx = parse_context("x : !2 X, y : X * I, f : X -o X")
    assert parse_context(print_context(ctx)) == ctx
    assert parse_context("") == ()
    assert print_type(parse_type("!0 (X -o X)")) == "!0 (X -o X)"


def test_check_context_rejects_duplicates():
    with pytest.raises(S.SyntaxError_):
        S.check_context((("x", support.X), ("x", support.X)))


def test_free_vars_and_counts():
    t = T("plus(wait_1(x), let a (*) b = p in plus(a, b))")
    assert S.free_vars(t) == {"x", "p"}
    counts = S.free_var_counts(T("plus(x, x)"))
    assert counts["x"] == 2
    assert "a" in S.all_names(t) and "p" in S.all_names(t)


def test_free_vars_are_kept_on_the_node():
    """free_vars builds each node's set once and keeps it off the node's
    fields: a second call returns the same object, and fields, match
    arguments, equality, hash and repr are those of a node never asked."""
    src = ("let a (*) b = p in copy [1,1] q as c, d in "
           "promote[1; 1](r; e => (fn f : X => plus(f, y)) unit)")
    t, fresh = T(src), T(src)
    first = S.free_vars(t)
    assert first == {"p", "q", "r", "y"}
    assert S.free_vars(t) is first
    for u, v in zip(S.subterms(t), S.subterms(fresh)):
        assert S.free_vars(u) is S.free_vars(u)
        assert dataclasses.fields(u) == dataclasses.fields(v)
        assert type(u).__match_args__ == tuple(
            f.name for f in dataclasses.fields(u))
        assert u == v and hash(u) == hash(v) and repr(u) == repr(v)


def test_free_vars_shares_a_childs_set():
    """A node that adds or removes no variable keeps its child's set."""
    x = S.Var("x")
    assert S.free_vars(S.OpApp("wait_1", (x,))) is S.free_vars(x)
    body = S.OpApp("plus", (x, S.Var("y")))
    assert S.free_vars(S.Lambda("z", S.Ground("X"), body)) \
        is S.free_vars(body)
    t = T("(fn z : X => plus(z, y)) x")
    assert S.free_vars(t) == {"x", "y"}
    assert S.free_vars(T("fn z : X => plus(z, y)")) == {"y"}


def test_alpha_eq():
    assert S.alpha_eq(T("fn x : X => x"), T("fn y : X => y"))
    assert S.alpha_eq(T("fn x : X => fn x : X => x"),
                      T("fn x : X => fn y : X => y"))
    assert not S.alpha_eq(T("fn x : X => fn y : X => x"),
                          T("fn x : X => fn y : X => y"))
    assert not S.alpha_eq(T("fn x : X => x"), T("fn x : I => x"))
    assert S.alpha_eq(T("copy [1,1] z as a, b in a (*) b"),
                      T("copy [1,1] z as c, d in c (*) d"))
    assert not S.alpha_eq(T("copy [1,1] z as a, b in a (*) b"),
                          T("copy [1,2] z as a, b in a (*) b"))
    assert not S.alpha_eq(T("fn x : X => x"), T("fn x : X => y"))


@pytest.mark.parametrize("a, b, equal", [
    # A shadowing binder must not share its key with the binder below it.
    ("fn x : X => fn x : X => fn w : X => w",
     "fn y : X => fn z : X => fn w : X => z", False),
    ("fn x : X => fn x : X => fn w : X => w",
     "fn y : X => fn z : X => fn w : X => w", True),
    ("fn x : X => fn x : X => fn w : X => x",
     "fn y : X => fn z : X => fn w : X => z", True),
    ("let a (*) b = p in fn a : X => fn c : X => c (*) b",
     "let d (*) e = p in fn f : X => fn g : X => f (*) e", False),
    ("let a (*) b = p in fn a : X => fn c : X => c (*) b",
     "let d (*) e = p in fn f : X => fn g : X => g (*) e", True),
    ("copy [1,1] z as a, b in fn a : X => fn b : X => a",
     "copy [1,1] z as c, d in fn e : X => fn f : X => c", False),
])
def test_alpha_eq_under_shadowing(a, b, equal):
    assert S.alpha_eq(T(a), T(b)) is equal
    assert S.alpha_eq(T(b), T(a)) is equal
    assert (support.nameless(T(a)) == support.nameless(T(b))) is equal


def test_alpha_eq_matches_de_bruijn_reference():
    rng = random.Random(11)
    equal = 0
    for _ in range(4000):
        a = support.pool_term(rng, rng.randrange(1, 12))
        b = support.rebind(rng, a) if rng.random() < 0.9 \
            else support.pool_term(rng, rng.randrange(1, 12))
        want = support.nameless(a) == support.nameless(b)
        assert S.alpha_eq(a, b) is want, (a, b)
        equal += want
    assert 1000 < equal < 3000


def test_substitute_capture_avoiding():
    # [y/x] under a binder named y must rename the binder.
    t = T("fn y : X => plus(x, y)")
    out = S.substitute(t, {"x": S.Var("y")})
    assert S.alpha_eq(out, T("fn z : X => plus(y, z)"))
    assert not S.alpha_eq(out, T("fn y : X => plus(y, y)"))


def test_substitute_shadowed_variable_untouched():
    t = T("fn x : X => x")
    assert S.substitute(t, {"x": S.Var("q")}) == t
    u = T("copy [1,1] x as x, y in plus(derelict x, derelict y)")
    out = S.substitute(u, {"x": S.Var("q")})
    # Only the scrutinee occurrence is free.
    assert out == T("copy [1,1] q as x, y in plus(derelict x, derelict y)")


def test_substitute_promote_binders():
    t = T("promote[1; 1](v; x => derelict x)")
    assert S.substitute(t, {"v": S.Var("w")}) \
        == T("promote[1; 1](w; x => derelict x)")
    assert S.substitute(t, {"x": S.Var("w")}) == t


def test_substitute_is_simultaneous():
    t = T("x (*) y")
    assert S.substitute(t, {"x": S.Var("y"), "y": S.Var("x")}) == T("y (*) x")
    # The binder clashes with the second plug only; the first plug's own
    # binder and the variables it binds are left alone.
    t = T("fn b : X => f (*) (b (*) g)")
    out = S.substitute(t, {"f": T("fn b : X => b"), "g": S.Var("b")})
    assert out == T("fn b1 : X => (fn b : X => b) (*) (b1 (*) b)")
    assert S.substitute(t, {}) is t


def test_substitute_never_renames_a_binder_into_a_substituted_variable():
    # a clashes with the plug and is renamed a1, which is also the
    # variable substituted for; the bound occurrence must stay bound.
    t = T("fn a : X => a")
    assert S.substitute(t, {"a1": S.Var("a")}) == T("fn a1 : X => a1")


def test_substitute_matches_naive_reference():
    rng = random.Random(12)
    renamed = 0
    for _ in range(3000):
        t = support.pool_term(rng, rng.randrange(1, 14))
        xs = rng.sample(support.POOL, rng.randrange(1, 4))
        mapping = {x: support.pool_term(rng, rng.randrange(1, 5))
                   for x in xs}
        got = S.substitute(t, mapping)
        want = support.reference_substitute(t, mapping)
        assert support.nameless(got) == support.nameless(want), (t, mapping)
        renamed += not S.all_names(got) <= S.all_names(t).union(
            *map(S.all_names, mapping.values()))
    assert renamed > 300


TERM_CLASSES = sorted(
    (c for c in vars(S).values()
     if isinstance(c, type) and issubclass(c, S.Term) and c is not S.Term),
    key=lambda c: c.__name__)


def test_every_term_constructor_has_a_table_entry():
    assert set(TERM_CLASSES) == set(S.SHAPES)


def _flat(values):
    return [m for v in values for m in (v if type(v) is tuple else (v,))]


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
def test_table_entry_accounts_for_every_field_once(cls):
    # A distinct marker in every field, and two in every vector field, so
    # each marker must come back from exactly one of children, binders and
    # annotations.
    values = {f.name: (object(), object()) if f.type in ("tuple", tuple) else object()
              for f in dataclasses.fields(cls)}
    t = cls(**values)
    shape = S.SHAPES[cls]
    kids, binders = shape.parts(t)
    seen = [*kids, *binders, *_flat(shape.notes(t))]
    assert sorted(map(id, seen)) == sorted(map(id, _flat(values.values())))
    new_kids = tuple(object() for _ in kids)
    new_binders = tuple(object() for _ in binders)
    u = shape.rebuild(t, new_kids, new_binders)
    assert type(u) is cls
    assert shape.parts(u) == (new_kids, new_binders)
    assert shape.notes(u) == shape.notes(t)


def test_all_names_includes_binders_without_occurrences():
    t = T("let a (*) b = p in copy [1,1] q as c, d in "
          "promote[1; 1](r; e => fn f : X => y)")
    assert S.all_names(t) == {"a", "b", "c", "d", "e", "f", "p", "q", "r",
                              "y"}
    assert S.free_vars(t) == {"p", "q", "r", "y"}


def test_rebuild_from_own_entry_gives_an_equal_term():
    rng = random.Random(11)
    gen = support.DerivGen(rng)
    for _ in range(100):
        ty = rng.choice([support.X, support.I, support.XX,
                         support.bang(2), support.X2X])
        term = gen.term_of(ty, rng.randrange(1, 5)).conclusion.term
        for sub in S.subterms(term):
            shape = S.SHAPES[type(sub)]
            assert shape.rebuild(sub, *shape.parts(sub)) == sub


def test_fresh_name():
    assert S.fresh_name("x", {"y"}) == "x"
    assert S.fresh_name("x", {"x", "x1"}) == "x2"
