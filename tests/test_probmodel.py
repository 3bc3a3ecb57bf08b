import math
from fractions import Fraction

import pytest
import sympy

from gvlam.metmodel import GuardExceeded
from gvlam.probmodel import (FinDist, ProbError, bernoulli, check_diaconis,
                             check_symmetrisation, diaconis_sweep,
                             gaussian_phi, gaussian_tv_numeric, is_symmetric,
                             no_replace_sampler, point_mass, replace_sampler,
                             symmetrise, tv_distance, walk_endpoint)
from gvlam.quantale import SymbolicBound


def test_findist_validation():
    d = FinDist.from_dict({0: Fraction(1, 3), 1: Fraction(2, 3)})
    assert d.as_dict() == {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert d.support() == [0, 1]
    with pytest.raises(ProbError):
        FinDist.from_dict({0: Fraction(1, 2)})
    with pytest.raises(ProbError):
        FinDist.from_dict({0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_findist_map_and_product():
    d = bernoulli(Fraction(1, 4))
    assert d.as_dict()[(1,)] == Fraction(1, 4)
    doubled = d.map(lambda o: (2 * o[0],))
    assert doubled.as_dict() == {(0,): Fraction(3, 4), (2,): Fraction(1, 4)}
    pair = point_mass(0).product(point_mass(1))
    assert pair.as_dict() == {(0, 1): Fraction(1)}
    assert pair.arity() == 2
    with pytest.raises(ProbError):
        bernoulli(Fraction(3, 2))


def test_samplers():
    rep = replace_sampler(2, 1, 1)
    assert all(p == Fraction(1, 4) for _, p in rep.probs)
    nor = no_replace_sampler(2, 1, 1)
    assert nor.as_dict() == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    assert sum(p for _, p in no_replace_sampler(3, 2, 2).probs) == 1
    with pytest.raises(ProbError):
        no_replace_sampler(5, 2, 2)
    with pytest.raises(ProbError):
        replace_sampler(0, 1, 1)
    with pytest.raises(ProbError):
        replace_sampler(1, 0, 0)


def test_tv_distance():
    assert tv_distance(replace_sampler(2, 1, 1),
                       no_replace_sampler(2, 1, 1)) == Fraction(1, 2)
    d = bernoulli(Fraction(1, 2))
    assert tv_distance(d, d) == 0
    with pytest.raises(ProbError, match="arities"):
        tv_distance(replace_sampler(1, 1, 1), replace_sampler(2, 1, 1))


def test_check_diaconis():
    tv, bound, ok = check_diaconis(2, 1, 1)
    assert (tv, bound, ok) == (Fraction(1, 2), Fraction(4), True)


def test_diaconis_sweep():
    rows = diaconis_sweep(4)
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    assert all(ok for *_, ok in rows)
    assert all(k <= m + n <= 4 for k, m, n, *_ in rows)


def test_gaussian_phi():
    assert gaussian_phi(1, 0, 1, 1, 1) == Fraction(1, 2)
    assert gaussian_phi(5, 3, 2, 3, 2) == Fraction(0)
    b = gaussian_phi(3, 0, 1, 1, 1)
    assert isinstance(b, SymbolicBound)
    assert b.expr == sympy.sqrt(3) / 2
    with pytest.raises(ProbError, match="positive"):
        gaussian_phi(1, 0, 0, 0, 1)


def test_gaussian_phi_scales_with_sqrt_k():
    one = gaussian_phi(1, 0, 1, 1, 2)
    for k in (2, 3, 7):
        many = gaussian_phi(k, 0, 1, 1, 2)
        assert abs(float(many.midpoint())
                   - math.sqrt(k) * float(one.midpoint())) < 1e-9


def test_gaussian_tv_numeric_against_closed_form():
    # For equal standard deviations the TV is erf(|mu1 - mu2| / (2 sigma
    # sqrt(2))).
    for mu1, mu2, sigma in ((0, 1, 1), (-1, 1, 2), (0, 3, 1)):
        expected = math.erf(abs(mu1 - mu2) / (2 * sigma * math.sqrt(2)))
        got = gaussian_tv_numeric(mu1, sigma, mu2, sigma)
        assert abs(got - expected) < 1e-6
    assert gaussian_tv_numeric(0, 1, 0, 1) < 1e-9
    assert 0 < gaussian_tv_numeric(0, 1, 0, 2) < 1
    with pytest.raises(ProbError):
        gaussian_tv_numeric(0, 0, 0, 1)


def test_walk_endpoint():
    sign = replace_sampler(1, 1, 1)
    mag = point_mass((2,))
    d = walk_endpoint(sign, mag)
    assert d.as_dict() == {Fraction(-2): Fraction(1, 2),
                           Fraction(2): Fraction(1, 2)}
    with pytest.raises(ProbError, match="lengths"):
        walk_endpoint(replace_sampler(2, 1, 1), point_mass((1,)))


def test_symmetrise():
    t = {(0, 1): Fraction(1)}
    st = symmetrise(t, 2, 2)
    assert st == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    assert is_symmetric(st, 2, 2)
    assert not is_symmetric(t, 2, 2)


def test_symmetrise_guard(monkeypatch):
    monkeypatch.setenv("GVLAM_GUARD", "5")
    assert symmetrise({(0, 1): Fraction(1)}, 2, 2)
    with pytest.raises(ProbError) as exc:
        symmetrise({}, 2, 3)
    assert str(exc.value) == "tensor with 8 coefficients exceeds the 5 guard"


@pytest.mark.parametrize("sampler", [replace_sampler, no_replace_sampler])
def test_samplers_check_the_guard_first(monkeypatch, sampler):
    monkeypatch.setenv("GVLAM_GUARD", "8")
    assert len(sampler(3, 2, 2).probs) <= 8
    with pytest.raises(GuardExceeded, match="^4 draws have 2\\^4 sequences, "
                                            "over the 8 guard"):
        sampler(4, 2, 2)


def test_check_symmetrisation():
    results = check_symmetrisation(2, 2, trials=5)
    assert results and all(ok for _, ok in results)
