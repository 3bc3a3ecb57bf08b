"""Quantale and grade-semiring arithmetic.

Every bound that appears in a proof is a value of a quantale: the metric
quantale ([0, oo], min, +), the ultrametric quantale ([0, oo], min, max),
or the Boolean quantale ({0, 1}, or, and).  Metric values are exact
non-negative rationals (plus an infinity sentinel); an irrational quantity
entering through an axiom is wrapped in a SymbolicBound which carries the
exact expression together with a tight rational enclosure.  Rational
arithmetic never reaches sympy, so it is imported only by the functions
that build or compare a symbolic value.

The lattice order of the metric quantales is the *reverse* of the numeric
order: smaller numbers are higher in the lattice, the unit 0 is the top
element and infinity is the bottom.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union


class QuantaleError(ValueError):
    pass


class IndeterminateComparison(QuantaleError):
    """Raised when a symbolic comparison cannot be decided reliably."""


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


#: The single infinity sentinel, usable both as a quantale value and as the
#: sole grade of the trivial semiring.
INF = _Infinity()

# Enclosures are computed to 40 significant digits; comfortably below the
# 1e-9 widths required by callers.
_ENCLOSE_DIGITS = 40
_ENCLOSE_MARGIN = Fraction(1, 10**30)


def to_sympy(v):
    import sympy
    if v is INF:
        return sympy.oo
    if isinstance(v, SymbolicBound):
        return v.expr
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    if isinstance(v, int):
        return sympy.Integer(v)
    raise QuantaleError(f"not a quantale value: {v!r}")


def enclose(expr: sympy.Expr, width: Fraction = Fraction(1, 10**9)):
    """Rational interval (lo, hi) containing the value of a closed expr."""
    import sympy
    if expr.free_symbols:
        raise QuantaleError(f"cannot enclose open expression {expr}")
    approx = sympy.N(expr, _ENCLOSE_DIGITS)
    mid = Fraction(str(approx))
    lo, hi = mid - _ENCLOSE_MARGIN, mid + _ENCLOSE_MARGIN
    if hi - lo > width:
        raise QuantaleError(f"enclosure of {expr} wider than {width}")
    return lo, hi


def sym_sign(expr: sympy.Expr) -> int:
    """Sign of a closed sympy expression; raises when indeterminate."""
    import sympy
    if expr.is_zero:
        return 0
    for prec in (30, 60, 120):
        val = expr.evalf(prec)
        if val.is_comparable:
            threshold = sympy.Float(10) ** (-(prec - 10))
            if abs(val) > threshold:
                return 1 if val > 0 else -1
    simplified = sympy.simplify(expr)
    if simplified.is_zero:
        return 0
    val = simplified.evalf(200)
    if val.is_comparable and abs(val) > sympy.Float(10) ** (-150):
        return 1 if val > 0 else -1
    raise IndeterminateComparison(f"cannot decide the sign of {expr}")


class SymbolicBound:
    """An exact irrational bound with a rational enclosure on demand."""

    __slots__ = ("expr", "_enclosure")

    def __init__(self, expr):
        import sympy
        self.expr = sympy.sympify(expr)
        self._enclosure = None

    def enclosure(self, width: Fraction = Fraction(1, 10**9)):
        if self._enclosure is None:
            self._enclosure = enclose(self.expr, width)
        return self._enclosure

    def midpoint(self) -> Fraction:
        lo, hi = self.enclosure()
        return (lo + hi) / 2

    def __eq__(self, other):
        return isinstance(other, SymbolicBound) and self.expr == other.expr

    def __hash__(self):
        return hash(("SymbolicBound", self.expr))

    def __repr__(self):
        return f"SymbolicBound({self.expr})"


MetricValue = Union[Fraction, _Infinity, SymbolicBound]


def _simplify_symbolic(expr: sympy.Expr):
    import sympy
    if expr is sympy.oo:
        return INF
    if expr.is_Rational:
        return Fraction(int(expr.p), int(expr.q))
    return SymbolicBound(expr)


def num_add(a: MetricValue, b: MetricValue) -> MetricValue:
    if a is INF or b is INF:
        return INF
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _simplify_symbolic(to_sympy(a) + to_sympy(b))


def num_scale(n: int, v: MetricValue) -> MetricValue:
    if n == 0:
        return Fraction(0)
    if v is INF:
        return INF
    if isinstance(v, Fraction):
        return n * v
    return _simplify_symbolic(n * to_sympy(v))


def num_cmp(a: MetricValue, b: MetricValue) -> int:
    """Numeric three-way comparison; infinity is the largest value."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        # Cross-multiplied (denominators are positive): Fraction's own
        # comparison goes through the numbers-ABC dispatch.
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        return (x > y) - (x < y)
    if a is INF and b is INF:
        return 0
    if a is INF:
        return 1
    if b is INF:
        return -1
    return sym_sign(to_sympy(a) - to_sympy(b))


def num_min(vs: Iterable[MetricValue]) -> MetricValue:
    best = None
    for v in vs:
        if best is None or num_cmp(v, best) < 0:
            best = v
    if best is None:
        raise QuantaleError("numeric minimum of no values")
    return best


def num_max(vs: Iterable[MetricValue]) -> MetricValue:
    best = None
    for v in vs:
        if best is None or num_cmp(v, best) > 0:
            best = v
    if best is None:
        raise QuantaleError("numeric maximum of no values")
    return best


def value_repr(v) -> str:
    if isinstance(v, SymbolicBound):
        lo, hi = v.enclosure()
        mid = float((lo + hi) / 2)
        return f"{v.expr} ~ {mid:.12g}"
    return repr(v) if v is INF else str(v)


class Quantale:
    """Interface shared by the three shipped quantales."""

    kind: str
    unit = None  # top element (integral quantale)
    bottom = None

    def check(self, v):
        raise NotImplementedError

    def tensor(self, a, b):
        raise NotImplementedError

    def join(self, vs):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """Lattice order a <= b."""
        raise NotImplementedError

    def way_below(self, a, b) -> bool:
        """a is way-below b in the lattice order."""
        raise NotImplementedError

    def in_basis(self, v) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<quantale {self.kind}>"


class MetricQuantale(Quantale):
    kind = "metric"
    unit = Fraction(0)
    bottom = INF

    def check(self, v):
        if isinstance(v, int) and not isinstance(v, bool):
            v = Fraction(v)
        if v is INF or isinstance(v, SymbolicBound):
            return v
        if isinstance(v, Fraction):
            if v < 0:
                raise QuantaleError(f"negative metric value {v}")
            return v
        raise QuantaleError(f"not a metric quantale value: {v!r}")

    def tensor(self, a, b):
        return num_add(self.check(a), self.check(b))

    def join(self, vs):
        vs = [self.check(v) for v in vs]
        if not vs:
            return self.bottom
        return num_min(vs)

    def leq(self, a, b):
        return num_cmp(self.check(a), self.check(b)) >= 0

    def way_below(self, a, b):
        a, b = self.check(a), self.check(b)
        if a is INF and b is INF:
            return True
        return num_cmp(a, b) > 0

    def in_basis(self, v):
        v = self.check(v)
        # Basis: extended non-negative rationals.  A SymbolicBound stands in
        # for the rational interval around it, so it is admitted as well.
        return True


class UltrametricQuantale(MetricQuantale):
    kind = "ultrametric"

    def tensor(self, a, b):
        return num_max([self.check(a), self.check(b)])


class BooleanQuantale(Quantale):
    kind = "boolean"
    unit = 1
    bottom = 0

    def check(self, v):
        if isinstance(v, bool):
            return int(v)
        if v in (0, 1):
            return int(v)
        raise QuantaleError(f"not a Boolean quantale value: {v!r}")

    def tensor(self, a, b):
        return self.check(a) & self.check(b)

    def join(self, vs):
        vs = [self.check(v) for v in vs]
        out = 0
        for v in vs:
            out |= v
        return out

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def way_below(self, a, b):
        # On a finite lattice, way-below coincides with the order.
        return self.leq(a, b)

    def in_basis(self, v):
        self.check(v)
        return True


_QUANTALES = {
    "metric": MetricQuantale(),
    "ultrametric": UltrametricQuantale(),
    "boolean": BooleanQuantale(),
}


def get_quantale(kind: str) -> Quantale:
    try:
        return _QUANTALES[kind]
    except KeyError:
        raise QuantaleError(f"unknown quantale kind {kind!r}") from None


class Semiring:
    kind: str
    zero = None
    one = None

    def check(self, g):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.kind}>"


class NatSemiring(Semiring):
    kind = "nat"
    zero = 0
    one = 1

    def check(self, g):
        if isinstance(g, int) and not isinstance(g, bool) and g >= 0:
            return g
        raise QuantaleError(f"not a natural-number grade: {g!r}")

    def add(self, a, b):
        return self.check(a) + self.check(b)

    def mul(self, a, b):
        return self.check(a) * self.check(b)


class TrivialSemiring(Semiring):
    """The one-element semiring ({inf}, inf, inf, +, *)."""

    kind = "trivial"
    zero = INF
    one = INF

    def check(self, g):
        if g is INF:
            return g
        raise QuantaleError(f"trivial semiring has the single grade inf, got {g!r}")

    def add(self, a, b):
        self.check(a), self.check(b)
        return INF

    def mul(self, a, b):
        self.check(a), self.check(b)
        return INF


_SEMIRINGS = {"nat": NatSemiring(), "trivial": TrivialSemiring()}


def get_semiring(kind: str) -> Semiring:
    try:
        return _SEMIRINGS[kind]
    except KeyError:
        raise QuantaleError(f"unknown semiring kind {kind!r}") from None


def scalar_mul(semiring: Semiring, quantale: Quantale, r, q):
    """r-fold tensor power of q, with the 0-th power being the unit."""
    r = semiring.check(r)
    q = quantale.check(q)
    if semiring.kind == "nat":
        if r == 0:
            return quantale.unit
        if quantale.kind == "metric":
            return num_scale(r, q)
        # Idempotent tensors: q (x) ... (x) q = q for r >= 1.
        return q
    # Trivial semiring: the grade is an infinite multiplicity, so the result
    # is the limit of the tensor powers: the unit stays put, everything else
    # collapses to the bottom element.  Not pinned by the usual laws; see the
    # module notes.
    if quantale.kind == "boolean":
        return q
    if num_cmp(q, quantale.unit) == 0:
        return quantale.unit
    return INF


def grade_repr(g) -> str:
    return "inf" if g is INF else str(g)


def parse_grade(text: str):
    text = text.strip()
    if text == "inf":
        return INF
    if text.isdigit():
        return int(text)
    raise QuantaleError(f"unknown grade literal {text!r}")
