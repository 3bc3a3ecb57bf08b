"""Finite-support probabilistic semantics.

Distributions carry exact rational probabilities.  The two urn samplers,
total-variation distance and the walk-endpoint distribution are all
exact; floating point appears only in the Gaussian total-variation
oracle, which reads the normal CDF (`math.erfc`) between the density
crossings, so its error is float rounding.

The urn distance needs no draw sequences.  Both samplers are
exchangeable: a sequence of k draws with j ones has the probability
p_rep(j) = n^j m^(k-j) / N^k with replacement and
p_norep(j) = n^(j) m^(k-j) / N^(k) (falling powers) without, where
N = m + n, whatever the order of its draws.  So the total variation is
1/2 sum_j C(k, j) |p_rep(j) - p_norep(j)|, k + 1 exact terms in place
of 2 * 2^k sequences (`urn_tv`; Diaconis & Freedman, "Finite
exchangeable sequences", Ann. Probab. 1980).  The samplers still
enumerate their sequences for walks and for `oracle tv`, under
`GVLAM_GUARD`.

The Gaussian label needs no symbolic zero test.  With x = s2^2 / s1^2
and d = (mu1 - mu2)^2 / s1^2, its radicand is k (x - 1 - log x + d).
Since x - 1 - log x > 0 for every positive x other than 1, and d >= 0,
the radicand of k >= 1 draws is zero exactly when s1 = s2 and mu1 = mu2,
and never negative: a comparison of rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .metmodel import GuardExceeded, guard_limit
from .quantale import SymbolicBound


class ProbError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Distributions

@dataclass(frozen=True)
class FinDist:
    """Finite-support distribution over outcome tuples."""

    probs: tuple  # sorted tuple of (outcome, Fraction) pairs

    @staticmethod
    def from_dict(d: dict) -> "FinDist":
        # The total as integer numerators per denominator: a distribution
        # has few distinct denominators and many outcomes.
        sums = {}
        items = []
        for outcome, p in d.items():
            p = Fraction(p)
            num, den = p.numerator, p.denominator
            if num < 0:
                raise ProbError(f"negative probability for {outcome}")
            if num:
                items.append((outcome, p))
            sums[den] = sums.get(den, 0) + num
        total = sum((Fraction(num, den) for den, num in sums.items()),
                    Fraction(0))
        if total != 1:
            raise ProbError(f"probabilities sum to {total}, not 1")
        return FinDist(tuple(sorted(items)))

    def as_dict(self) -> dict:
        return dict(self.probs)

    def arity(self) -> int:
        outcome = self.probs[0][0]
        return len(outcome) if isinstance(outcome, tuple) else 1

    def support(self):
        return [o for o, _ in self.probs]

    def map(self, fn) -> "FinDist":
        out = {}
        for o, p in self.probs:
            key = fn(o)
            out[key] = out.get(key, Fraction(0)) + p
        return FinDist.from_dict(out)

    def product(self, other: "FinDist") -> "FinDist":
        out = {}
        for o1, p1 in self.probs:
            for o2, p2 in other.probs:
                out[(o1, o2)] = p1 * p2
        return FinDist.from_dict(out)


def point_mass(outcome) -> FinDist:
    return FinDist.from_dict({outcome: Fraction(1)})


def bernoulli(p: Fraction) -> FinDist:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ProbError(f"Bernoulli parameter {p} out of range")
    return FinDist.from_dict({(1,): p, (0,): 1 - p})


def replace_sampler(k: int, m: int, n: int) -> FinDist:
    """k independent draws with replacement from an urn with m zeros and
    n ones."""
    _check_urn(k, m, n)
    _guard_draws(k)
    p = Fraction(n, m + n)
    # p^j (1 - p)^(k - j) for a sequence of j ones, computed once per j.
    weights = [p ** j * (1 - p) ** (k - j) for j in range(k + 1)]
    return FinDist.from_dict({bits: weights[sum(bits)] for bits in
                              itertools.product((0, 1), repeat=k)})


def no_replace_sampler(k: int, m: int, n: int) -> FinDist:
    """k draws without replacement; requires k <= m + n."""
    _check_urn(k, m, n, without_replacement=True)
    _guard_draws(k)
    out = {}

    def go(prefix, prob, zeros, ones):
        if len(prefix) == k:
            out[prefix] = out.get(prefix, Fraction(0)) + prob
            return
        total = zeros + ones
        if zeros:
            go(prefix + (0,), prob * Fraction(zeros, total), zeros - 1, ones)
        if ones:
            go(prefix + (1,), prob * Fraction(ones, total), zeros, ones - 1)

    go((), Fraction(1), m, n)
    return FinDist.from_dict(out)


def _check_urn(k: int, m: int, n: int, without_replacement=False):
    """Refuse what no sampler can draw, then an empty urn with
    replacement or more draws than balls without."""
    if k < 1:
        raise ProbError("need at least one draw")
    if m < 0 or n < 0:
        raise ProbError(f"urn counts must be non-negative, got m={m}, "
                        f"n={n}")
    if without_replacement:
        if k > m + n:
            raise ProbError(f"cannot draw {k} times from an urn of {m + n}")
    elif m + n < 1:
        raise ProbError("the urn is empty")


def _guard_draws(k: int):
    """Refuse k draws before enumerating up to 2^k draw sequences.  The
    bit length of the guard decides, so a huge k builds no huge power."""
    limit = guard_limit()
    if k >= max(limit, 0).bit_length():  # 2^k > limit
        raise GuardExceeded(
            f"{k} draws have 2^{k} sequences, over the {limit} guard "
            f"(set GVLAM_GUARD to override)")


def tv_distance(p: FinDist, q: FinDist) -> Fraction:
    pd, qd = p.as_dict(), q.as_dict()
    sample_p, sample_q = next(iter(pd)), next(iter(qd))
    if isinstance(sample_p, tuple) != isinstance(sample_q, tuple) or (
            isinstance(sample_p, tuple) and len(sample_p) != len(sample_q)):
        raise ProbError("distributions have different outcome arities")
    total = Fraction(0)
    for outcome in set(pd) | set(qd):
        total += abs(pd.get(outcome, Fraction(0))
                     - qd.get(outcome, Fraction(0)))
    return total / 2


def urn_tv(k: int, m: int, n: int) -> Fraction:
    """Exact TV between k draws with and without replacement from an urn
    of m zeros and n ones, by the count of ones (see the module
    docstring).  Over the common denominator N^k N^(k), every term is an
    integer.  Refuses what either sampler refuses."""
    _check_urn(k, m, n)
    _check_urn(k, m, n, without_replacement=True)
    total = m + n
    rep_den, norep_den = total ** k, math.perm(total, k)
    diff = sum(math.comb(k, j) * abs(
        n ** j * m ** (k - j) * norep_den
        - math.perm(n, j) * math.perm(m, k - j) * rep_den)
        for j in range(k + 1))
    return Fraction(diff, 2 * rep_den * norep_den)


def check_diaconis(k: int, m: int, n: int):
    """Exact TV between the urn samplers against the 4k/(m+n) bound."""
    tv = urn_tv(k, m, n)
    bound = Fraction(4 * k, m + n)
    return tv, bound, tv <= bound


def diaconis_sweep(max_total: int = 8):
    """All (k, m, n) with 1 <= k <= m + n <= max_total, sorted."""
    rows = []
    for total in range(1, max_total + 1):
        for m in range(total + 1):
            n = total - m
            for k in range(1, total + 1):
                tv, bound, ok = check_diaconis(k, m, n)
                rows.append((k, m, n, tv, bound, ok))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


# ---------------------------------------------------------------------------
# Gaussians

def gaussian_phi(k, mu1, sigma1, mu2, sigma2):
    """The closed-form label relating two k-fold i.i.d. Gaussian samplers."""
    import sympy
    s1, s2 = sympy.Rational(sigma1), sympy.Rational(sigma2)
    m1, m2 = sympy.Rational(mu1), sympy.Rational(mu2)
    if s1 <= 0 or s2 <= 0:
        raise ProbError("standard deviations must be positive")
    # The radicand's sign is k's, or zero (see the module docstring).
    if k == 0 or (s1 == s2 and m1 == m2):
        return Fraction(0)
    radicand = sympy.Integer(k) * (
        (s2 ** 2 - s1 ** 2 + (m1 - m2) ** 2) / s1 ** 2
        - sympy.log(s2 ** 2 / s1 ** 2))
    if k < 0:
        raise ProbError(f"negative radicand {radicand}")
    expr = sympy.sqrt(radicand) / 2
    if expr.is_Rational:
        return Fraction(int(expr.p), int(expr.q))
    return SymbolicBound(expr)


def _density_crossings(mu1, sigma1, mu2, sigma2):
    """Real solutions of f1(x) = f2(x) for two Gaussian densities."""
    a = 1.0 / (2 * sigma2 ** 2) - 1.0 / (2 * sigma1 ** 2)
    b = mu1 / sigma1 ** 2 - mu2 / sigma2 ** 2
    c = (mu2 ** 2 / (2 * sigma2 ** 2) - mu1 ** 2 / (2 * sigma1 ** 2)
         + math.log(sigma2 / sigma1))
    if abs(a) < 1e-15:
        if abs(b) < 1e-15:
            return []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.sqrt(disc)
    return sorted([(-b - root) / (2 * a), (-b + root) / (2 * a)])


def _normal_cdf(x, mu, sigma):
    return math.erfc((mu - x) / (sigma * math.sqrt(2.0))) / 2


def gaussian_tv_numeric(mu1, sigma1, mu2, sigma2) -> float:
    """Half the L1 distance between two Gaussian densities, read off their
    CDFs.

    Between consecutive density crossings one density stays above the
    other, so each interval adds |(F1(b) - F1(a)) - (F2(b) - F2(a))| to
    the integral of |f1 - f2|; the error is float rounding.
    """
    mu1, sigma1 = float(mu1), float(sigma1)
    mu2, sigma2 = float(mu2), float(sigma2)
    if sigma1 <= 0 or sigma2 <= 0:
        raise ProbError("standard deviations must be positive")
    knots = [-math.inf, *_density_crossings(mu1, sigma1, mu2, sigma2),
             math.inf]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        total += abs(_normal_cdf(b, mu1, sigma1) - _normal_cdf(a, mu1, sigma1)
                     - _normal_cdf(b, mu2, sigma2)
                     + _normal_cdf(a, mu2, sigma2))
    return total / 2


# ---------------------------------------------------------------------------
# Walks

def walk_endpoint(sign: FinDist, mag: FinDist) -> FinDist:
    """Distribution of the endpoint sum((2 s_i - 1) * y_i) with independent
    sign and magnitude vectors."""
    if sign.arity() != mag.arity():
        raise ProbError("sign and magnitude vectors have different lengths")
    out = {}
    for bits, p1 in sign.probs:
        for mags, p2 in mag.probs:
            total = sum((2 * Fraction(s) - 1) * Fraction(y)
                        for s, y in zip(bits, mags))
            out[total] = out.get(total, Fraction(0)) + p1 * p2
    return FinDist.from_dict(out)
