import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from gvlam.cli import _grid_values
from gvlam.metmodel import GuardExceeded
from gvlam.oracles import brute_tv, reference_gaussian_phi, reference_urn_tv
from gvlam.probmodel import (FinDist, ProbError, bernoulli, check_diaconis,
                             diaconis_sweep, gaussian_phi,
                             gaussian_tv_numeric, no_replace_sampler,
                             point_mass, replace_sampler, tv_distance,
                             urn_tv, walk_endpoint)
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


def _sequence_probabilities(k, m, n):
    """Each draw sequence's probability with and without replacement
    (k <= m + n), computed per sequence: p^ones (1 - p)^(k - ones), and
    the product of the draws' chances from the shrinking urn.  Outcomes
    of probability zero are dropped."""
    p = Fraction(n, m + n)
    rep, norep = {}, {}
    for bits in itertools.product((0, 1), repeat=k):
        ones = sum(bits)
        rep[bits] = p ** ones * (1 - p) ** (k - ones)
        left, prob = [m, n], Fraction(1)
        for b in bits:
            prob *= Fraction(left[b], left[0] + left[1])
            left[b] = max(left[b] - 1, 0)
        norep[bits] = prob
    drop = lambda d: {o: q for o, q in d.items() if q}
    return drop(rep), drop(norep)


def test_samplers_equal_their_sequence_formulas():
    rng = random.Random(20)
    draws = [(1, 0, 3), (3, 4, 0), (5, 1, 4)]
    while len(draws) < 28:
        k, m, n = rng.randint(1, 7), rng.randint(0, 6), rng.randint(1, 6)
        if k <= m + n:
            draws.append((k, m, n))
    for k, m, n in draws:
        rep, norep = _sequence_probabilities(k, m, n)
        assert replace_sampler(k, m, n).as_dict() == rep, (k, m, n)
        assert no_replace_sampler(k, m, n).as_dict() == norep, (k, m, n)


def test_findist_checks_the_total_over_mixed_denominators():
    d = {0: Fraction(1, 6), 1: Fraction(1, 3), 2: Fraction(1, 2)}
    assert FinDist.from_dict(d).as_dict() == d
    with pytest.raises(ProbError, match="^probabilities sum to 7/6, not 1$"):
        FinDist.from_dict({**d, 3: Fraction(1, 6)})
    with pytest.raises(ProbError, match="^probabilities sum to 5/6, not 1$"):
        FinDist.from_dict({**d, 2: Fraction(1, 3)})
    assert FinDist.from_dict({0: 1, 1: 0}).as_dict() == {0: 1}


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


def test_urn_tv_equals_the_enumerated_samplers():
    # Every row of the sweep: the count formula against the L1 sum over
    # both samplers' draw sequences and against the excess mass of one
    # sampler over the other.
    rows = diaconis_sweep(10)
    assert len(rows) == 440
    for k, m, n, tv, bound, ok in rows:
        assert tv == urn_tv(k, m, n) == reference_urn_tv(k, m, n), (k, m, n)
        assert tv == brute_tv(replace_sampler(k, m, n),
                              no_replace_sampler(k, m, n)), (k, m, n)
        assert (bound, ok) == (Fraction(4 * k, m + n), tv <= bound)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ProbError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kmn", [(0, 1, 1), (-2, 3, 3), (1, 0, 0),
                                 (3, 0, 0), (5, 1, 1), (3, 1, 1)])
def test_urn_tv_refuses_what_the_samplers_refuse(kmn):
    assert isinstance(_outcome(urn_tv, *kmn), tuple)
    assert _outcome(urn_tv, *kmn) == _outcome(reference_urn_tv, *kmn)


@pytest.mark.parametrize("fn", [replace_sampler, no_replace_sampler, urn_tv,
                                check_diaconis])
@pytest.mark.parametrize("kmn", [(2, -1, 3), (1, 1, -1), (1, -1, 1)])
def test_negative_urn_counts_are_refused(fn, kmn):
    # (2, -1, 3) used to fail as "negative probability for (0, 1)" and
    # (1, 1, -1) as "the urn is empty"; math.perm raised a bare ValueError.
    k, m, n = kmn
    with pytest.raises(ProbError, match="^urn counts must be non-negative, "
                                        f"got m={m}, n={n}$"):
        fn(k, m, n)


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


def _same_label(got, want):
    assert type(got) is type(want)
    if isinstance(want, SymbolicBound):
        assert got.expr == want.expr and str(got) == str(want)
        assert got.enclosure() == want.enclosure()
    else:
        assert got == want


def _param_grid():
    mus = [Fraction(-2), Fraction(0), Fraction(1, 3)]
    sigmas = [Fraction(1, 3), Fraction(1), Fraction(3, 2)]
    return [(k, mu1, s1, mu2, s2) for k in (1, 3) for mu1 in mus
            for s1 in sigmas for mu2 in mus for s2 in sigmas]


@pytest.mark.parametrize("grid", ["gaussian-grid", "mu-sigma"])
def test_gaussian_phi_equals_the_simplify_reference(grid):
    if grid == "gaussian-grid":
        params = [(1, *v) for v in _grid_values()]
    else:
        params = _param_grid()
    zeros = 0
    for args in params:
        got = gaussian_phi(*args)
        _same_label(got, reference_gaussian_phi(*args))
        zeros += got == 0
    # Exactly the equal pairs give zero, and there are some of both.
    assert zeros == sum(a[1:3] == a[3:] for a in params)
    assert 0 < zeros < len(params)


@pytest.mark.parametrize("args", [(0, 1, 1, 2, 3), (0, 1, 1, 1, 1),
                                  (-2, 1, 1, 1, 1), (-2, 0, 1, 1, 2),
                                  (1, 0, -1, 0, 1), (2, 1, 1, 1, 0)])
def test_gaussian_phi_outside_positive_k(args):
    want = _outcome(reference_gaussian_phi, *args)
    got = _outcome(gaussian_phi, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_label(got, want)


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


@pytest.mark.parametrize("cell", [
    (-1, Fraction(1, 2), 1, 1), (-1, 1, 1, Fraction(1, 2)),
    (1, Fraction(1, 2), -1, 1), (1, 1, -1, Fraction(1, 2))])
def test_gaussian_tv_numeric_against_mpmath(cell):
    # gaussian-grid cells on which adaptive Simpson was 4e-6 off.  The
    # reference integrates |f1 - f2| at 30 digits, split where the
    # densities cross.
    mu1, s1, mu2, s2 = (mpmath.mpf(x.numerator) / x.denominator
                        for x in map(Fraction, cell))
    with mpmath.workdps(30):
        a = 1 / (2 * s2 ** 2) - 1 / (2 * s1 ** 2)
        b = mu1 / s1 ** 2 - mu2 / s2 ** 2
        c = (mu2 ** 2 / (2 * s2 ** 2) - mu1 ** 2 / (2 * s1 ** 2)
             + mpmath.log(s2 / s1))
        root = mpmath.sqrt(b * b - 4 * a * c)
        crossings = sorted([(-b - root) / (2 * a), (-b + root) / (2 * a)])
        expected = mpmath.quad(
            lambda x: abs(mpmath.npdf(x, mu1, s1) - mpmath.npdf(x, mu2, s2)),
            [-mpmath.inf, *crossings, mpmath.inf]) / 2
    assert abs(gaussian_tv_numeric(*cell) - float(expected)) < 1e-12


def test_walk_endpoint():
    sign = replace_sampler(1, 1, 1)
    mag = point_mass((2,))
    d = walk_endpoint(sign, mag)
    assert d.as_dict() == {Fraction(-2): Fraction(1, 2),
                           Fraction(2): Fraction(1, 2)}
    with pytest.raises(ProbError, match="lengths"):
        walk_endpoint(replace_sampler(2, 1, 1), point_mass((1,)))


@pytest.mark.parametrize("sampler", [replace_sampler, no_replace_sampler])
def test_samplers_check_the_guard_first(monkeypatch, sampler):
    monkeypatch.setenv("GVLAM_GUARD", "8")
    assert len(sampler(3, 2, 2).probs) <= 8
    with pytest.raises(GuardExceeded, match="^4 draws have 2\\^4 sequences, "
                                            "over the 8 guard"):
        sampler(4, 2, 2)
