from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from gvlam.quantale import (INF, IndeterminateComparison, QuantaleError,
                            SymbolicBound, get_quantale, get_semiring,
                            grade_repr, num_add, num_cmp, num_max, num_min,
                            num_scale, parse_grade, scalar_mul, sym_sign,
                            value_repr)

metric = get_quantale("metric")
ultra = get_quantale("ultrametric")
boolean = get_quantale("boolean")
nat = get_semiring("nat")
trivial = get_semiring("trivial")

fractions = st.fractions(min_value=0, max_value=100)
values = st.one_of(fractions, st.just(INF))


@given(st.fractions(), st.fractions())
def test_num_cmp_on_fractions_is_the_numeric_order(a, b):
    assert num_cmp(a, b) == (a > b) - (a < b)
    assert num_cmp(a, INF) == -1 and num_cmp(INF, b) == 1


@given(values, values)
def test_metric_tensor_commutes(a, b):
    assert num_cmp(metric.tensor(a, b), metric.tensor(b, a)) == 0


@given(values, values, values)
def test_metric_tensor_associates(a, b, c):
    lhs = metric.tensor(metric.tensor(a, b), c)
    rhs = metric.tensor(a, metric.tensor(b, c))
    assert num_cmp(lhs, rhs) == 0


@given(values, values)
def test_metric_join_is_numeric_min(a, b):
    j = metric.join([a, b])
    assert num_cmp(j, num_min([a, b])) == 0


@given(values, values)
def test_metric_order_is_reversed_numeric_order(a, b):
    # Lattice a <= b means b is numerically at most a.
    assert metric.leq(a, b) == (num_cmp(b, a) <= 0)


def test_metric_unit_and_bottom():
    assert metric.unit == Fraction(0)
    assert metric.bottom is INF
    assert metric.tensor(Fraction(3, 2), INF) is INF
    assert metric.join([]) is INF


def test_metric_rejects_negative():
    with pytest.raises(QuantaleError):
        metric.check(Fraction(-1))
    with pytest.raises(QuantaleError):
        metric.check("nope")


@given(values, values)
def test_ultrametric_tensor_is_max(a, b):
    assert num_cmp(ultra.tensor(a, b), num_max([a, b])) == 0


def test_boolean_quantale():
    assert boolean.tensor(1, 0) == 0
    assert boolean.join([0, 1]) == 1
    assert boolean.leq(0, 1)
    assert not boolean.leq(1, 0)
    assert boolean.way_below(0, 1)
    with pytest.raises(QuantaleError):
        boolean.check(2)


def test_way_below_metric():
    assert metric.way_below(Fraction(2), Fraction(1))
    assert not metric.way_below(Fraction(1), Fraction(1))
    assert metric.way_below(INF, INF)
    assert metric.way_below(INF, Fraction(5))


def test_num_arithmetic():
    assert num_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert num_add(Fraction(1), INF) is INF
    assert num_scale(0, INF) == Fraction(0)
    assert num_scale(3, Fraction(1, 2)) == Fraction(3, 2)
    assert num_cmp(INF, INF) == 0
    assert num_cmp(Fraction(7), INF) == -1
    with pytest.raises(QuantaleError):
        num_min([])


def test_symbolic_bound_enclosure():
    b = SymbolicBound(sympy.sqrt(2))
    lo, hi = b.enclosure()
    assert hi - lo < Fraction(1, 10**9)
    assert Fraction(141421356237, 10**11) < lo < hi \
        < Fraction(141421356238, 10**11)
    assert abs(b.midpoint() - Fraction(141421356, 10**8)) < Fraction(1, 10**6)
    assert b == SymbolicBound(sympy.sqrt(2))
    assert hash(b) == hash(SymbolicBound(sympy.sqrt(2)))


def test_symbolic_comparisons():
    s2 = SymbolicBound(sympy.sqrt(2))
    assert num_cmp(s2, Fraction(3, 2)) == -1
    assert num_cmp(s2, Fraction(7, 5)) == 1
    assert num_cmp(s2, SymbolicBound(sympy.sqrt(2))) == 0
    assert sym_sign(sympy.sqrt(2) + sympy.sqrt(3) - sympy.sqrt(5 + 2 * sympy.sqrt(6))) == 0


def test_symbolic_arithmetic_simplifies_to_rational():
    v = num_add(SymbolicBound(sympy.sqrt(2)),
                SymbolicBound(2 - sympy.sqrt(2)))
    assert v == Fraction(2)
    assert num_scale(2, SymbolicBound(sympy.sqrt(2))) \
        == SymbolicBound(2 * sympy.sqrt(2))


def test_value_repr():
    assert value_repr(Fraction(3, 2)) == "3/2"
    assert value_repr(INF) == "inf"
    text = value_repr(SymbolicBound(sympy.sqrt(3) / 2))
    assert text.startswith("sqrt(3)/2 ~ 0.866025403")


def test_nat_semiring():
    assert nat.add(2, 3) == 5
    assert nat.mul(2, 3) == 6
    with pytest.raises(QuantaleError):
        nat.check(-1)
    with pytest.raises(QuantaleError):
        nat.check(True)


def test_trivial_semiring():
    assert trivial.add(INF, INF) is INF
    assert trivial.mul(INF, INF) is INF
    with pytest.raises(QuantaleError):
        trivial.check(3)


@given(st.integers(min_value=0, max_value=10), fractions)
def test_scalar_mul_nat_metric(r, q):
    out = scalar_mul(nat, metric, r, q)
    assert out == (Fraction(0) if r == 0 else r * q)


def test_scalar_mul_idempotent_quantales():
    assert scalar_mul(nat, ultra, 3, Fraction(5)) == Fraction(5)
    assert scalar_mul(nat, ultra, 0, Fraction(5)) == ultra.unit
    assert scalar_mul(nat, boolean, 2, 0) == 0


def test_scalar_mul_trivial_semiring():
    assert scalar_mul(trivial, metric, INF, Fraction(0)) == metric.unit
    assert scalar_mul(trivial, metric, INF, Fraction(1, 2)) is INF
    assert scalar_mul(trivial, boolean, INF, 0) == 0


def test_grade_literals():
    assert parse_grade("inf") is INF
    assert parse_grade(" 7 ") == 7
    assert grade_repr(INF) == "inf"
    assert grade_repr(4) == "4"
    with pytest.raises(QuantaleError):
        parse_grade("-3")


def test_unknown_kinds():
    with pytest.raises(QuantaleError):
        get_quantale("fuzzy")
    with pytest.raises(QuantaleError):
        get_semiring("tropical")
