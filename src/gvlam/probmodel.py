"""Finite-support probabilistic semantics.

Distributions carry exact rational probabilities.  The two urn samplers,
total-variation distance, the walk-endpoint distribution, and the
symmetrisation operator are all exact; floating point appears only in the
Gaussian quadrature oracle, whose error budget is stated explicitly.
"""

from __future__ import annotations

import itertools
import math
import random
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
        total = Fraction(0)
        items = []
        for outcome, p in d.items():
            p = Fraction(p)
            if p < 0:
                raise ProbError(f"negative probability for {outcome}")
            if p > 0:
                items.append((outcome, p))
            total += p
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
    if k < 1:
        raise ProbError("need at least one draw")
    if m + n < 1:
        raise ProbError("the urn is empty")
    _guard_draws(k)
    p = Fraction(n, m + n)
    out = {}
    for bits in itertools.product((0, 1), repeat=k):
        ones = sum(bits)
        out[bits] = p ** ones * (1 - p) ** (k - ones)
    return FinDist.from_dict(out)


def no_replace_sampler(k: int, m: int, n: int) -> FinDist:
    """k draws without replacement; requires k <= m + n."""
    if k < 1:
        raise ProbError("need at least one draw")
    if k > m + n:
        raise ProbError(f"cannot draw {k} times from an urn of {m + n}")
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


def check_diaconis(k: int, m: int, n: int):
    """Exact TV between the urn samplers against the 4k/(m+n) bound."""
    tv = tv_distance(replace_sampler(k, m, n), no_replace_sampler(k, m, n))
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
    radicand = sympy.Integer(k) * (
        (s2 ** 2 - s1 ** 2 + (m1 - m2) ** 2) / s1 ** 2
        - sympy.log(s2 ** 2 / s1 ** 2))
    if radicand.is_zero or sympy.simplify(radicand) == 0:
        return Fraction(0)
    if radicand.is_negative:
        raise ProbError(f"negative radicand {radicand}")
    expr = sympy.sqrt(radicand) / 2
    if expr.is_Rational:
        return Fraction(int(expr.p), int(expr.q))
    return SymbolicBound(expr)


def _gauss_pdf(mu, sigma):
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    inv = 1.0 / (2.0 * sigma * sigma)

    def f(x):
        return c * math.exp(-(x - mu) * (x - mu) * inv)

    return f


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


def _adaptive_simpson(f, a, b, eps):
    def simpson(x0, x2):
        x1 = (x0 + x2) / 2
        return (x2 - x0) / 6 * (f(x0) + 4 * f(x1) + f(x2)), x1

    def recurse(x0, x2, whole, eps, depth):
        x1 = (x0 + x2) / 2
        left, _ = simpson(x0, x1)
        right, _ = simpson(x1, x2)
        if depth <= 0 or abs(left + right - whole) <= 15 * eps:
            return left + right + (left + right - whole) / 15
        return (recurse(x0, x1, left, eps / 2, depth - 1)
                + recurse(x1, x2, right, eps / 2, depth - 1))

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, eps, 50)


def gaussian_tv_numeric(mu1, sigma1, mu2, sigma2) -> float:
    """Half the L1 distance between two Gaussian densities.

    Adaptive Simpson over [min(mu) - 10 max(sigma), max(mu) + 10 max(sigma)],
    split at the analytic density crossings; absolute error below 1e-6
    (the truncated tail mass is below 1e-20).
    """
    mu1, sigma1 = float(mu1), float(sigma1)
    mu2, sigma2 = float(mu2), float(sigma2)
    if sigma1 <= 0 or sigma2 <= 0:
        raise ProbError("standard deviations must be positive")
    f1, f2 = _gauss_pdf(mu1, sigma1), _gauss_pdf(mu2, sigma2)
    lo = min(mu1, mu2) - 10 * max(sigma1, sigma2)
    hi = max(mu1, mu2) + 10 * max(sigma1, sigma2)
    knots = [lo] + [x for x in _density_crossings(mu1, sigma1, mu2, sigma2)
                    if lo < x < hi] + [hi]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        total += _adaptive_simpson(lambda x: abs(f1(x) - f2(x)), a, b, 1e-9)
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


# ---------------------------------------------------------------------------
# Symmetrisation

def _perms(n: int):
    return itertools.permutations(range(n))


def symmetrise(tensor: dict, d: int, n: int) -> dict:
    """Average a d-dimensional order-n tensor over coordinate permutations."""
    if d ** n > guard_limit():
        raise ProbError(f"tensor with {d ** n} coefficients exceeds the "
                        f"{guard_limit()} guard")
    fact = math.factorial(n)
    out = {}
    for idx in itertools.product(range(d), repeat=n):
        acc = Fraction(0)
        for sigma in _perms(n):
            key = tuple(idx[sigma[i]] for i in range(n))
            acc += Fraction(tensor.get(key, 0))
        if acc:
            out[idx] = acc / fact
    return out


def is_symmetric(tensor: dict, d: int, n: int) -> bool:
    for idx in itertools.product(range(d), repeat=n):
        v = Fraction(tensor.get(idx, 0))
        for sigma in _perms(n):
            key = tuple(idx[sigma[i]] for i in range(n))
            if Fraction(tensor.get(key, 0)) != v:
                return False
    return True


def check_symmetrisation(d: int, n: int, trials: int = 20, seed: int = 0):
    """Exact checks: idempotence, fixing of symmetric tensors, linearity."""
    rng = random.Random(seed)

    def random_tensor():
        return {idx: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for idx in itertools.product(range(d), repeat=n)}

    results = []
    for i in range(trials):
        t = random_tensor()
        st = symmetrise(t, d, n)
        results.append((f"idempotent[{i}]", symmetrise(st, d, n) == st))
        results.append((f"output-symmetric[{i}]", is_symmetric(st, d, n)))
        results.append((f"retraction[{i}]", symmetrise(st, d, n) == st
                        and st == symmetrise(st, d, n)))
        u = random_tensor()
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        combo = {idx: a * t.get(idx, Fraction(0)) + b * u.get(idx, Fraction(0))
                 for idx in itertools.product(range(d), repeat=n)}
        su = symmetrise(u, d, n)
        lin = symmetrise(combo, d, n)
        expect = {idx: a * st.get(idx, Fraction(0))
                  + b * su.get(idx, Fraction(0))
                  for idx in itertools.product(range(d), repeat=n)}
        expect = {k: v for k, v in expect.items() if v}
        results.append((f"linear[{i}]", lin == expect))
    return results
