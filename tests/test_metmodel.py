import fractions
import sys
from fractions import Fraction

import pytest

from gvlam import metmodel, quantale
from gvlam import syntax as S
from gvlam.cli import _law_spaces
from gvlam.metmodel import (ExplicitSpace, FuncSpace, GuardExceeded, MetMap,
                            ModelError, OnePointSpace, ProductSpace,
                            ScaledSpace, check_axiom, check_comonad_laws,
                            enumerate_tables, guard_limit, hom_distance,
                            interp, interp_type, modality_space,
                            model_distance, timed_model, timed_space)
from gvlam.oracles import enumerate_nonexpansive
from gvlam.parser import parse_context, parse_term, parse_type
from gvlam.quantale import INF
from gvlam.typecheck import infer

import support

SIG = support.test_signature()
M = support.timed_test_model(SIG, 4)


def test_timed_space_is_a_metric():
    sp = timed_space(5)
    sp.check_metric()
    assert sp.points == tuple(range(6))
    assert sp.dist(1, 4) == Fraction(3)
    assert sp.dist(2, 2) == Fraction(0)


def test_space_constructors():
    two = ExplicitSpace(("a", "b"), {("a", "b"): Fraction(3, 2),
                                     ("b", "a"): Fraction(3, 2)})
    two.check_metric()
    assert OnePointSpace().points == ((),)
    prod = ProductSpace((two, two))
    assert prod.dist(("a", "a"), ("b", "b")) == Fraction(3)
    scaled = ScaledSpace(two, 4)
    assert scaled.dist("a", "b") == Fraction(6)
    with pytest.raises(ModelError):
        ScaledSpace(two, 0)
    fn = FuncSpace(OnePointSpace(), two)
    assert len(fn.points) == 2
    assert fn.dist(("a",), ("b",)) == Fraction(3, 2)
    assert fn.apply(("a",), ()) == "a"


def test_metmap_rejects_expansive_tables():
    sp = timed_space(2)
    MetMap(sp, sp, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ModelError, match="expansive"):
        MetMap(sp, sp, {0: 0, 1: 2, 2: 2})
    with pytest.raises(ModelError, match="missing"):
        MetMap(sp, sp, {0: 0, 1: 1})


def test_hom_distance():
    sp = timed_space(3)
    f = MetMap(sp, sp, {i: i for i in sp.points})
    g = MetMap(sp, sp, {i: min(i + 2, 3) for i in sp.points})
    assert hom_distance(f, g) == Fraction(2)
    with pytest.raises(ModelError, match="common domain"):
        hom_distance(f, MetMap(OnePointSpace(), sp, {(): 0}))


def test_interp_type_shapes():
    assert isinstance(interp_type(M, parse_type("!0 X")), OnePointSpace)
    scaled = interp_type(M, parse_type("!3 X"))
    assert isinstance(scaled, ScaledSpace)
    assert scaled.dist(0, 2) == Fraction(6)
    assert isinstance(interp_type(M, parse_type("X * I")), ProductSpace)
    assert isinstance(interp_type(M, parse_type("X -o X")), FuncSpace)
    with pytest.raises(ModelError, match="natural grades"):
        interp_type(M, parse_type("!inf X"))
    with pytest.raises(ModelError, match="unknown ground"):
        interp_type(M, parse_type("Y"))


def test_interp_wait_table():
    d = infer(SIG, parse_context("x : X"), parse_term("wait_2(x)"))
    f = interp(M, d)
    assert f((0,)) == 2 and f((3,)) == 4 and f((4,)) == 4


def test_interp_closed_function():
    d = infer(SIG, (), parse_term("fn x : X => wait_1(x)"))
    f = interp(M, d)
    assert f(()) == (1, 2, 3, 4, 4)


def test_model_distance_saturates():
    small = support.timed_test_model(SIG, 2)
    ctx = parse_context("x : X")
    d = model_distance(small, SIG, ctx, parse_term("wait_1(x)"),
                       parse_term("wait_3(x)"))
    assert d == Fraction(1)
    assert model_distance(M, SIG, ctx, parse_term("wait_1(x)"),
                          parse_term("wait_3(x)")) == Fraction(2)


def test_check_axiom():
    ctx = parse_context("x : X")
    assert check_axiom(M, SIG, ctx, parse_term("wait_1(x)"),
                       parse_term("wait_3(x)"), Fraction(2))
    assert not check_axiom(M, SIG, ctx, parse_term("wait_1(x)"),
                           parse_term("wait_3(x)"), Fraction(1))
    assert check_axiom(M, SIG, ctx, parse_term("wait_1(x)"),
                       parse_term("wait_3(x)"), INF)
    with pytest.raises(ModelError, match="different types"):
        check_axiom(M, SIG, parse_context("u : I"), parse_term("u"),
                    parse_term("c(u)"), Fraction(0))


def test_timed_model_interprets_only_wait():
    tm = timed_model(SIG, 8)
    assert tm.op("wait_3")(7) == 8
    with pytest.raises(ModelError, match="does not interpret"):
        tm.op("plus")
    with pytest.raises(ModelError, match="not in the signature"):
        tm.op("frob")


def test_enumerate_tables_matches_oracle():
    dom = timed_space(2)
    cod = timed_space(1)
    primary = sorted(enumerate_tables(dom, cod))
    reference = sorted(enumerate_nonexpansive(dom, cod))
    assert primary == reference
    for table in primary:
        MetMap(dom, cod, dict(zip(dom.points, table)))


def test_guard(monkeypatch):
    assert guard_limit() == 10 ** 6
    t1, t3 = timed_space(1), timed_space(3)
    monkeypatch.setenv("GVLAM_GUARD", "3")
    assert guard_limit() == 3
    with pytest.raises(GuardExceeded, match="product space"):
        ProductSpace((t3, t3)).points
    with pytest.raises(GuardExceeded, match="function space"):
        FuncSpace(t1, t3).points
    with pytest.raises(GuardExceeded, match=r"timed\(3\) has 4 points"):
        timed_space(3)


def test_modality_space():
    base = timed_space(2)
    assert isinstance(modality_space(base, 0), OnePointSpace)
    assert modality_space(base, 2).dist(0, 2) == Fraction(4)


def test_comonad_laws_small():
    report = check_comonad_laws([0, 1, 2],
                                [OnePointSpace(), timed_space(1)])
    assert report.checks and not report.failures
    assert "ok" in report.summary()
    assert any("grade 0" in n for n in report.notes)


def test_timed_space_matches_its_explicit_table():
    """timed(n) keeps one distance per value of |i - j|; it reads as the
    explicit space of all pairs."""
    for n in (0, 1, 4, 9):
        pts = tuple(range(n + 1))
        table = ExplicitSpace(pts, {(i, j): Fraction(abs(i - j))
                                    for i in pts for j in pts if i != j})
        sp = timed_space(n)
        assert sp.points == pts and repr(sp) == f"timed({n})"
        assert all(sp.dist(i, j) == table.dist(i, j)
                   for i in pts for j in pts)


def _calls_into(module, fn):
    """fn's result and the names of the functions of module it called,
    counted by a profile hook."""
    calls = []
    path = module.__file__

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            calls.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(old)
    return out, calls


def test_law_audit_makes_no_fraction_arithmetic():
    """The spaces of the models-exact benchmark (pt, pair and path3, the
    second at 3/2) audited on integers: not one call into fractions."""
    spaces = _law_spaces(3)
    report, calls = _calls_into(
        fractions, lambda: check_comonad_laws(range(6), spaces))
    assert report.checks and not report.failures
    assert calls == []
    # The hook sees the audit itself.
    _, calls = _calls_into(
        metmodel, lambda: check_comonad_laws(range(6), spaces))
    assert "check_comonad_laws" in calls and "idist" in calls


def test_higher_order_distance_makes_no_quantale_arithmetic():
    fx = S.LolliType(S.Ground("X"), S.Ground("X"))

    def term(k):
        return S.Lambda("f", fx, S.App(S.Var("f"),
                                       S.OpApp(f"wait_{k}", (S.Var("x"),))))
    m = support.timed_test_model(SIG, 5)
    ctx = (("x", S.Ground("X")),)
    d, calls = _calls_into(
        quantale, lambda: model_distance(m, SIG, ctx, term(0), term(2)))
    assert d == Fraction(2) and type(d) is Fraction
    assert not [c for c in calls if c.startswith("num_")]


def test_law_audit_fails_on_a_wrong_scaled_distance(monkeypatch):
    """A dilation one unit short at the pair (0, 2), which only path3
    has: every check that reads that pair of a scaled path3 fails, and
    no other."""
    grades = range(4)
    spaces = _law_spaces(3)

    class OffByOne(metmodel.ScaledSpace):
        def idist(self, a, b):
            return super().idist(a, b) - ((a, b) == (0, 2))

    monkeypatch.setattr(metmodel, "ScaledSpace", OffByOne)
    report = check_comonad_laws(grades, spaces)
    pos = [g for g in grades if g]
    want = {"counit-identity[path3]"}
    want |= {f"comult[{m},{n}][path3]" for m in pos for n in pos}
    want |= {f"counit-square[{s}][path3]" for s in pos}
    want |= {f"coassoc[{r},{s},{t}][path3]"
             for r in pos for s in pos for t in pos}
    want |= {f"dilation-iso[{n}][path3]" for n in pos}
    want |= {f"lipschitz[{r}][{x!r}->path3]" for r in pos for x in spaces}
    assert {name for name, _, _ in report.failures} == want
    assert "FAIL coassoc[1,1,1][path3]" in report.summary().splitlines()
