"""metmodel.interp against oracles.reference_interp, and the space memo.

interp keeps one space per type in its model, evaluates an applied
lambda at its argument, compiles the derivation once and checks the
edges of its domain; the reference builds a fresh space at every use of
a type, tabulates every lambda over its whole domain, walks the
derivation at every point and checks every pair of points.  Both must
give the same tables and the same distances."""

import random
import re
from collections import Counter

import pytest

from gvlam import metmodel
from gvlam import syntax as S
from gvlam.cli import main
from gvlam.metmodel import (GuardExceeded, ModelError, hom_distance,
                            interp, model_distance, timed_model)
from gvlam.oracles import reference_interp
from gvlam.parser import parse_context, parse_term, parse_type, print_term
from gvlam.quantale import NatSemiring
from gvlam.rewrite import positioned_subterms, rewrite_term
from gvlam.theory import load_theory
from gvlam.typecheck import infer

import support
from test_cli import TIMED
from test_incremental import nest

X = support.X
SIG = support.test_signature()
TIMED_SIG = load_theory(TIMED).signature


class RedexGen(support.DerivGen):
    """DerivGen with a beta redex, fn x : X => ... applied to a random
    argument, in place of three in ten of its terms of type X."""

    def term_X(self, d):
        if d > 0 and self.rng.random() < 0.3:
            x = self.fresh()
            return self.app(self.lambda_(self.consume1(x, X, d - 1)),
                            self.term_X(d - 1))
        return super().term_X(d)


def derivations(m, seed, count, depth, points=256):
    """count derivations whose context space in m has at most the given
    number of points: the reference checks every pair of them, so larger
    ones cost time and no coverage."""
    rng = random.Random(seed)
    gen = RedexGen(rng)
    types = [X, support.I, support.XX, support.bang(1), support.bang(2),
             support.X2X]
    while count:
        d = gen.term_of(rng.choice(types), rng.randrange(1, depth + 1))
        size = 1
        for _, ty in d.conclusion.context:
            size *= len(m.space(ty).points)
        if size <= points:
            count -= 1
            yield d


def perturbed(term, ty):
    """A term of the same type in the same context: its first wait_k
    raised to wait_(k+1), as the argument of an identity lambda."""
    text = print_term(term)
    text = re.sub(r"wait_(\d+)", lambda m: f"wait_{int(m.group(1)) + 1}",
                  text, count=1)
    return S.App(S.Lambda("z0", ty, S.Var("z0")), parse_term(text))


def reference_distance(m, sig, ctx, lhs, rhs):
    return hom_distance(reference_interp(m, infer(sig, ctx, lhs)),
                        reference_interp(m, infer(sig, ctx, rhs)))


def assert_same_map(m, d):
    got, want = interp(m, d), reference_interp(m, d)
    assert got.dom.points == want.dom.points
    assert got.table == want.table


def ho_term(k):
    """fn f : X -o X => f (wait_k(x)), the benchmark's higher-order side."""
    return parse_term(f"fn f : X -o X => f (wait_{k}(x))")


def normal_form(ks):
    t = S.Var("y")
    for k in ks:
        t = S.OpApp(f"wait_{k}", (t,))
    return t


def test_interp_matches_reference_on_random_derivations():
    seen = Counter()
    for n, depth in [(2, 5), (3, 3)]:
        m = support.timed_test_model(SIG, n)
        for d in derivations(m, 40 + n, 100, depth):
            assert_same_map(m, d)
            ctx, term = d.conclusion.context, d.conclusion.term
            for _, t in positioned_subterms(term):
                seen[type(t).__name__] += 1
                seen["redex"] += isinstance(t, S.App) \
                    and isinstance(t.fn, S.Lambda)
            other = perturbed(term, d.conclusion.type)
            assert model_distance(m, SIG, ctx, term, other) \
                == reference_distance(m, SIG, ctx, term, other)
    assert seen["redex"] >= 40
    for kind in ("Lambda", "TensorPair", "TensorLet", "Promote", "Copy"):
        assert seen[kind] > 0, kind


def test_interp_matches_reference_on_schema_rows():
    # Each row's left side is a redex of its row (a beta redex for the
    # lolli rows), and its two sides denote the same map.
    m = support.timed_test_model(SIG, 2)
    rng = random.Random(7)
    for schema in sorted(support.SCHEMA_BUILDERS, key=lambda s: s.value):
        ctx, lhs, step = support.SCHEMA_BUILDERS[schema](rng)
        rhs = rewrite_term(lhs, step, NatSemiring())
        for side in (lhs, rhs):
            assert_same_map(m, infer(SIG, ctx, side))
        assert model_distance(m, SIG, ctx, lhs, rhs) \
            == reference_distance(m, SIG, ctx, lhs, rhs) == 0


@pytest.mark.parametrize("text, ctx", [
    # Applied lambdas whose binders are function, tensor and graded types,
    # under lambdas, promotions and lets, and applied in turn.
    ("(fn f : X -o X => f x) (fn z : X => wait_1(z))", "x : X"),
    ("(fn f : X -o X => fn z : X => f (f' z)) (fn w : X => wait_1(w))",
     "f' : X -o X"),
    ("(fn p : X * X => let a (*) b = p in plus(a, wait_2(b))) (x (*) y)",
     "x : X, y : X"),
    ("(fn s : !2 X => copy [1,1] s as u, v in "
     "plus(derelict u, derelict v)) s0", "s0 : !2 X"),
    ("fn y : X => (fn z : X => wait_1(z)) ((fn w : X => w) y)", ""),
    ("promote[1; 1](s; x => (fn z : X => wait_1(z)) (derelict x))",
     "s : !1 X"),
    ("((fn z : X => fn w : X => plus(z, w)) x) y", "x : X, y : X"),
    # The binder is also the argument's free variable.
    ("(fn x : X => wait_1(x)) (wait_2(x))", "x : X"),
])
def test_interp_matches_reference_on_applied_lambdas(text, ctx):
    m = support.timed_test_model(SIG, 2)
    assert_same_map(m, infer(SIG, parse_context(ctx), parse_term(text)))


def test_binder_type_the_model_lacks_is_reported_as_by_the_reference():
    sig = S.Signature(frozenset({"X", "Y"}))
    sig.declare("mk", (X,), S.Ground("Y"))
    sig.declare("use", (S.Ground("Y"),), X)
    m = support.timed_test_model(sig, 2)  # no space for Y, no mk or use
    d = infer(sig, parse_context("x : X"),
              parse_term("(fn y : Y => use(y)) mk(x)"))
    for evaluate in (interp, reference_interp):
        with pytest.raises(ModelError, match="^unknown ground type Y$"):
            evaluate(m, d)


@pytest.mark.parametrize("n", [3, 4])
def test_higher_order_pair_matches_reference(n):
    m = timed_model(TIMED_SIG, n)
    ctx = parse_context("x : X")
    for a, b in [(0, 2), (1, n - 1), (n - 1, 0)]:
        v, w = ho_term(a), ho_term(b)
        assert_same_map(m, infer(TIMED_SIG, ctx, v))
        got = model_distance(m, TIMED_SIG, ctx, v, w)
        assert got == reference_distance(m, TIMED_SIG, ctx, v, w) \
            == abs(a - b)


def test_beta_nests_match_reference():
    m = timed_model(TIMED_SIG, 8)
    ctx = (("y", X),)
    rng = random.Random(8)
    for depth in (8, 14, 20, 26):
        ks = [0] * depth
        for i in rng.sample(range(depth), 2):
            ks[i] = 1
        v, w = nest(ks), normal_form([0] * (depth - 1) + [3])
        assert_same_map(m, infer(TIMED_SIG, ctx, v))
        assert model_distance(m, TIMED_SIG, ctx, v, w) \
            == reference_distance(m, TIMED_SIG, ctx, v, w) == 1


def count_enumerations(monkeypatch):
    calls = []
    original = metmodel.enumerate_tables

    def counted(dom, cod):
        calls.append((dom, cod))
        return original(dom, cod)
    monkeypatch.setattr(metmodel, "enumerate_tables", counted)
    return calls


def test_each_function_space_is_enumerated_once_per_model(monkeypatch):
    calls = count_enumerations(monkeypatch)
    m = timed_model(TIMED_SIG, 3)
    ctx = parse_context("x : X")
    assert model_distance(m, TIMED_SIG, ctx, ho_term(0), ho_term(2)) == 2
    # X -o X is the only function space whose points the query reads.
    assert len(calls) == 1
    assert model_distance(m, TIMED_SIG, ctx, ho_term(1), ho_term(3)) == 2
    assert len(calls) == 1
    # The reference enumerates at every lambda: once per context point.
    reference_interp(m, infer(TIMED_SIG, ctx, ho_term(0)))
    assert len(calls) == 1 + 4


def test_beta_nest_enumerates_nothing(monkeypatch):
    calls = count_enumerations(monkeypatch)
    m = timed_model(TIMED_SIG, 8)
    ctx = (("y", X),)
    assert model_distance(m, TIMED_SIG, ctx, nest([1] * 10),
                          normal_form([1] * 10)) == 0
    assert calls == []


def test_space_is_kept_per_model():
    m = timed_model(TIMED_SIG, 3)
    fx = parse_type("X -o X")
    assert m.space(fx) is m.space(S.LolliType(X, X))
    assert m.space(S.BangType(2, fx)).base is m.space(fx)
    assert m.space(S.TensorType(X, fx)).factors[1] is m.space(fx)
    assert timed_model(TIMED_SIG, 3).space(fx) is not m.space(fx)


def test_guard_applies_when_a_model_first_enumerates(monkeypatch):
    ctx = parse_context("x : X")
    kept = timed_model(TIMED_SIG, 3)
    model_distance(kept, TIMED_SIG, ctx, ho_term(0), ho_term(1))
    monkeypatch.setenv("GVLAM_GUARD", "100")
    # 4^4 candidate tables exceed the lowered guard: a model that has not
    # enumerated X -o X yet refuses to, one that has keeps its points.
    with pytest.raises(GuardExceeded, match="100-candidate guard"):
        model_distance(timed_model(TIMED_SIG, 3), TIMED_SIG, ctx,
                       ho_term(0), ho_term(1))
    assert model_distance(kept, TIMED_SIG, ctx, ho_term(0),
                          ho_term(2)) == 2


def test_cli_higher_order_pair_at_default_model_hits_the_guard(capsys):
    code = main(["model", "distance", TIMED, "fn f : X -o X => f (wait_0(x))",
                 "fn f : X -o X => f (wait_3(x))", "--context", "x : X"])
    out = capsys.readouterr()
    assert (out.out, out.err, code) == (
        "", "gvlam: model error: function space (timed(32) -o timed(32)) "
        "exceeds the 1000000-candidate guard (set GVLAM_GUARD to "
        "override)\n", 4)
