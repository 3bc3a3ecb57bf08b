"""Each space's edges against its metric, its integer distances against
the Fraction distances of the oracles, and the edge check of MetMap
against the all-pairs check of the oracles.

MetMap checks non-expansiveness on the edges of its domain only, which is
exact when the domain's metric is the shortest-path metric of its edges
and the codomain satisfies the triangle inequality.  The first property is
tested here on small spaces of every kind with Floyd-Warshall, the second
by comparing the two checks on random tables, expansive ones included.
Edge weights and idist are integers in units of 1/q of their space."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gvlam import syntax as S
from gvlam.metmodel import (ExplicitSpace, FuncSpace, MetMap, ModelError,
                            OnePointSpace, ProductSpace, ScaledSpace,
                            enumerate_tables, interp, timed_space)
from gvlam.oracles import (enumerate_nonexpansive, reference_dist,
                           reference_interp, reference_nonexpansive)
from gvlam.parser import parse_context, parse_term
from gvlam.quantale import QuantaleError
from gvlam.typecheck import infer

import support

SIG = support.test_signature()
# A three-point metric that is no path metric of fewer than three edges.
TRIANGLE = ExplicitSpace("abc", {
    **{(x, y): Fraction(2) for x in "abc" for y in "abc" if x != y},
    ("a", "b"): Fraction(3, 2), ("b", "a"): Fraction(3, 2)}, name="tri")
# Two points two thirds apart, and an int distance: q = 3.
THIRDS = ExplicitSpace("xyz", {
    **{(x, y): 1 for x in "xyz" for y in "xyz" if x != y},
    ("x", "y"): Fraction(2, 3), ("y", "x"): Fraction(2, 3)}, name="thirds")

SPACES = {
    "one-point": OnePointSpace(),
    "timed(0)": timed_space(0),
    "timed(4)": timed_space(4),
    "scaled": ScaledSpace(timed_space(3), 2),
    "explicit": TRIANGLE,
    "functions": FuncSpace(timed_space(1), timed_space(2)),
    "product": ProductSpace((timed_space(2), ScaledSpace(timed_space(1), 3))),
    "nested": ProductSpace((
        TRIANGLE, ProductSpace((OnePointSpace(),
                                ScaledSpace(timed_space(2), 2))),
        timed_space(1))),
    "empty context": ProductSpace(()),
    # q = lcm(2, 1, 3) = 6.
    "mixed units": ProductSpace((TRIANGLE, timed_space(1),
                                 ScaledSpace(THIRDS, 2))),
}
CODOMAINS = [timed_space(3), ScaledSpace(timed_space(2), 2), TRIANGLE,
             ProductSpace((timed_space(1), timed_space(2)))]


def floyd_warshall(space):
    pts = space.points
    n = len(pts)
    far = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for i, j, d in space.edges():
        far[i][j] = far[j][i] = min(far[i][j], d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                far[i][j] = min(far[i][j], far[i][k] + far[k][j])
    return far


@pytest.mark.parametrize("name", sorted(SPACES))
def test_edges_generate_the_metric(name):
    space = SPACES[name]
    space.check_metric()
    pts = space.points
    for i, j, d in space.edges():
        assert 0 <= i < j < len(pts)
        assert type(d) is int and d == space.idist(pts[i], pts[j])
    far = floyd_warshall(space)
    assert all(far[i][j] == space.idist(x, y)
               for i, x in enumerate(pts) for j, y in enumerate(pts))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_integer_distances_equal_the_reference(name):
    space = SPACES[name]
    assert type(space.q) is int and space.q >= 1
    for x in space.points:
        for y in space.points:
            d = space.idist(x, y)
            assert type(d) is int
            assert Fraction(d, space.q) == space.dist(x, y) \
                == reference_dist(space, x, y)


def test_units_of_compound_spaces():
    assert (TRIANGLE.q, THIRDS.q) == (2, 3)
    assert SPACES["mixed units"].q == 6
    assert ScaledSpace(THIRDS, 4).q == 3
    assert FuncSpace(timed_space(1), TRIANGLE).q == 2
    assert ProductSpace(()).q == OnePointSpace().q == timed_space(3).q == 1
    mixed = ProductSpace((TRIANGLE, timed_space(2), ScaledSpace(THIRDS, 2)))
    # 3/2 + 2 + 2 * 2/3 = 29/6.
    assert mixed.idist(("a", 0, "x"), ("b", 2, "y")) == 29
    assert mixed.dist(("a", 0, "x"), ("b", 2, "y")) == Fraction(29, 6)


def test_explicit_spaces_take_exact_distances_only():
    with pytest.raises(QuantaleError, match="^not a quantale value: 1.5$"):
        ExplicitSpace("ab", {("a", "b"): 1.5, ("b", "a"): 1.5})


def test_function_space_distances_equal_the_reference():
    rng = random.Random(7)
    for space in (FuncSpace(timed_space(2), SPACES["mixed units"]),
                  FuncSpace(TRIANGLE, ProductSpace((THIRDS, timed_space(2)))),
                  FuncSpace(timed_space(1), FuncSpace(TRIANGLE, THIRDS))):
        maps = space.points
        assert len(maps) > 1
        for _ in range(300):
            f, g = rng.choice(maps), rng.choice(maps)
            assert Fraction(space.idist(f, g), space.q) \
                == reference_dist(space, f, g)


def test_path_metric_spaces_have_few_edges():
    assert len(list(timed_space(4).edges())) == 4
    assert list(OnePointSpace().edges()) == []
    # Two factors of 3 and 2 points: 2 edges times 2, and 1 edge times 3.
    assert len(list(SPACES["product"].edges())) == 2 * 2 + 1 * 3
    # Four variables over timed(3): 3 edges per factor times 4^3 others.
    four = ProductSpace([timed_space(3)] * 4)
    assert len(list(four.edges())) == 4 * 3 * 4 ** 3
    # An explicit space keeps every pair.
    assert len(list(TRIANGLE.edges())) == 3


def accepts(dom, cod, table):
    try:
        MetMap(dom, cod, table)
    except ModelError as exc:
        assert "expansive" in str(exc)
        return False
    return True


@pytest.mark.parametrize("name", sorted(SPACES))
def test_edge_check_agrees_with_all_pairs(name):
    dom = SPACES[name]
    rng = random.Random(name)
    seen = {True: 0, False: 0}
    for cod in CODOMAINS:
        cpts = cod.points
        goods = list(itertools.islice(enumerate_tables(dom, cod), 200))
        for _ in range(60):
            if goods and rng.random() < 0.6:
                # A non-expansive table, or one entry away from one.
                values = list(rng.choice(goods))
                if rng.random() < 0.5:
                    values[rng.randrange(len(values))] = rng.choice(cpts)
            else:
                values = [rng.choice(cpts) for _ in dom.points]
            table = dict(zip(dom.points, values))
            ok = accepts(dom, cod, table)
            assert ok == (reference_nonexpansive(dom, cod, table) is None)
            seen[ok] += 1
    assert seen[True] > 0
    assert seen[False] > 0 or len(dom.points) == 1


@pytest.mark.parametrize("dom, cod", [
    (SPACES["timed(4)"], timed_space(2)),
    (SPACES["scaled"], timed_space(4)),
    (SPACES["product"], timed_space(2)),
    (SPACES["nested"], OnePointSpace()),
    (ProductSpace((timed_space(1), timed_space(1))), TRIANGLE),
    (TRIANGLE, SPACES["product"]),
    (SPACES["one-point"], timed_space(3)),
    (SPACES["empty context"], TRIANGLE),
    # An edge of 3/2 against distances in thirds, and back.
    (TRIANGLE, THIRDS),
    (THIRDS, ScaledSpace(TRIANGLE, 2)),
    (ProductSpace((THIRDS, timed_space(1))), TRIANGLE),
])
def test_enumeration_is_the_filtered_product_in_order(dom, cod):
    assert list(enumerate_tables(dom, cod)) \
        == enumerate_nonexpansive(dom, cod)


def test_metmap_checks_each_edge_once():
    calls = []

    class Counted(type(timed_space(0))):
        def idist(self, a, b):
            calls.append((a, b))
            return super().idist(a, b)

    dom, cod = timed_space(40), Counted(40)
    MetMap(dom, cod, {i: i for i in dom.points})
    assert len(calls) == 40
    calls.clear()
    four = ProductSpace([timed_space(3)] * 4)
    MetMap(four, cod, {p: sum(p) for p in four.points})
    assert len(calls) == 4 * 3 * 4 ** 3


def test_expansive_map_names_an_edge():
    sp = timed_space(2)
    with pytest.raises(ModelError, match="^map is expansive on the pair "
                                         "1, 2$"):
        # The all-pairs check met the pair 0, 2 first.
        MetMap(sp, timed_space(3), {0: 0, 1: 1, 2: 3})
    with pytest.raises(ModelError, match="^map table missing point 2$"):
        MetMap(sp, sp, {0: 0, 1: 1})


def test_interp_and_reference_agree_on_a_large_context():
    # 4^4 points: the reference checks every pair, interp the edges.
    m = support.timed_test_model(SIG, 3)
    names = [f"x{i}" for i in range(4)]
    ctx = parse_context(", ".join(f"{x} : X" for x in names))
    d = infer(SIG, ctx, parse_term("plus(x0, x1) (*) (wait_1(x2) (*) x3)"))
    got = interp(m, d)
    assert len(got.dom.points) == 4 ** 4
    assert got.table == reference_interp(m, d).table


# ---------------------------------------------------------------------------
# Errors come from the compiled walk in the order a walk at one point met
# them: a missing operation is reported where such a walk reaches it (the
# argument of an applied lambda before its body), and not at all in the
# body of a grade-0 promotion, which no walk enters.

@pytest.mark.parametrize("text, ctx, missing", [
    ("gone(x) (*) nope(w)", "x : X, w : X", "gone"),
    ("nope(x) (*) gone(w)", "x : X, w : X", "nope"),
    ("let unit = drop(x) in gone(w)", "x : X, w : X", "drop"),
    ("fn y : X => nope(y)", "", "nope"),
    ("(fn y : X => gone(y)) (nope(x))", "x : X", "nope"),
    ("(fn f : X -o X => f (gone(x))) (fn y : X => nope(y))", "x : X",
     "nope"),
    ("promote[1; 1](s; z => nope(derelict z))", "s : !1 X", "nope"),
    ("promote[0; 1](s; z => nope(derelict z))", "s : !0 X", None),
])
def test_missing_operations_are_met_in_walk_order(text, ctx, missing):
    sig = S.Signature(frozenset({"X"}))
    for name in ("nope", "gone"):
        sig.declare(name, (S.Ground("X"),), S.Ground("X"))
    sig.declare("drop", (S.Ground("X"),), S.UnitType())
    d = infer(sig, parse_context(ctx), parse_term(text))
    m = support.timed_test_model(sig, 2)
    if missing is None:
        assert interp(m, d).table == reference_interp(m, d).table
    else:
        with pytest.raises(ModelError, match="^model does not interpret "
                                             f"operation {missing}$"):
            interp(m, d)
