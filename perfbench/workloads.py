"""The benchmark's workloads: set-up, seeded query rounds, and the check
of every verdict against an answer computed outside the timed call.

A round is a fixed mix of queries; the seed chooses wait positions,
perturbation sites and parameters, never the mix, so rounds of any seed
stress the same layers in the same proportions.  Every query belongs to
one of the four query kinds, each mirroring a CLI subcommand: check,
bound, prove and model.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import terms as T

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "gvlam" / "data"

KINDS = ("check", "bound", "prove", "model")


class Mismatch(Exception):
    """A verdict that disagrees with the known answer."""


@dataclass
class Query:
    kind: str
    label: str                  # canonical text, hashed into the run record
    run: Callable[[], object]
    check: Callable[[object], None]   # raises Mismatch on a wrong verdict
    size: int | None = None     # ladder size, for the scaling exponents
    defect: Callable[[object], bool] | None = None   # known defect?
    item: dict = field(default_factory=dict)


def _outcome_error(out) -> None:
    if isinstance(out, BaseException):
        raise Mismatch(f"raised {type(out).__name__}: {out}")


def _equal(what, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Shared checks

def check_type(want):
    def check(out):
        _outcome_error(out)
        _equal("type", out.conclusion.type, want)
    return check


def check_equation(v, w, label):
    def check(out):
        _outcome_error(out)
        _equal("lhs", out.lhs, v)
        _equal("rhs", out.rhs, w)
        _equal("label", out.bound, label)
    return check


def check_bound(theory, item):
    """Synthesised label: equal to the perturbation's sum of |delta| (a
    proof at that label exists: the prove query of the same item builds
    one), at least the model distance of the same pair, and reproduced
    by validating the returned proof again."""
    from gvlam import vequation

    def check(out):
        if isinstance(out, vequation.SynthesisFailure):
            raise Mismatch(f"FAIL where a proof at label {item['delta']} "
                           f"exists ({out})")
        _outcome_error(out)
        eq, proof = out
        check_equation(item["v"], item["w"], item["delta"])(eq)
        _equal("re-validated equation", vequation.validate(theory, proof), eq)
        dist = item["outcomes"].get("model")
        if not isinstance(dist, Fraction) or not dist <= eq.bound:
            raise Mismatch(f"label {eq.bound} below model distance {dist}")
    return check


def check_distance(want):
    def check(out):
        _outcome_error(out)
        _equal("distance", out, Fraction(want))
    return check


def pair_queries(theory, model, ctx, v, w, delta, script, size, distance,
                 nested=False):
    """The four queries on one perturbed pair: check v, bound v w with
    normalisation allowed (`gvlam bound --normalize-first`), prove the
    benchmark's script for v = w, and the model distance of v and w.
    `distance` is the known model distance."""
    from gvlam import metmodel, proofscript, typecheck, vequation
    sig = theory.signature
    item = {"v": v, "w": w, "delta": delta, "outcomes": {}}
    text_v, text_w = T.show(v), T.show(w)
    return [
        Query("check", f"check|{text_v}",
              lambda: typecheck.infer(sig, ctx, v),
              check_type(T.X), size, item=item),
        Query("bound", f"bound|{text_v}|{text_w}",
              lambda: vequation.synthesize(theory, ctx, v, w,
                                           normalize_first=True),
              check_bound(theory, item), size,
              defect=_is_synthesis_failure if nested else None, item=item),
        Query("prove", f"prove|{script}",
              lambda: vequation.validate(theory,
                                         proofscript.parse_proof(script)),
              check_equation(v, w, delta), size, item=item),
        Query("model", f"model|{text_v}|{text_w}",
              lambda: metmodel.model_distance(model, sig, ctx, v, w),
              check_distance(distance), size, item=item),
    ]


def _is_synthesis_failure(out) -> bool:
    from gvlam import vequation
    return isinstance(out, vequation.SynthesisFailure)


def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# bound-beta

class BoundBeta:
    name = "bound-beta"
    # Even nest depths, closely spaced so that medians fall inside a smooth
    # distribution rather than between size clusters.  The top is set by
    # run time: at depth 40 one bound query normalises for about 1 s and
    # one prove query takes as long.
    RUNGS = tuple(range(8, 28, 2))
    # The rungs whose pairs differ in inner waits only, so congruence
    # succeeds without normalising.  They are chosen so that the middle
    # bound of a round (depth 12, normalised) is set apart in cost from the
    # bounds beside it; bound_p50_ms then stays inside one rung.
    DIRECT = (8, 14, 18, 26)
    MODEL_N = 8                 # > 2 + 3 (one site) and > 2 + 2 * 2
    CHAIN_SLACK = 10            # chain model N = n + slack > n - 1 + 2 * 3
    CHOICES = (0, 1, 2, 3, 4)   # wait indices a nested perturbation picks

    def setup(self):
        from gvlam import metmodel, theory
        th = theory.load_theory_text(_read(DATA / "timed.thy"), "timed.thy")
        sig = th.signature
        return {"theory": th,
                "model": metmodel.timed_model(sig, self.MODEL_N),
                "chain_models": {
                    2 * d: metmodel.timed_model(sig, 2 * d + self.CHAIN_SLACK)
                    for d in self.RUNGS}}

    def warmup(self, state):
        # Checks the operation tables of every model once, as a long-lived
        # process would have done before the queries it serves.
        from gvlam import metmodel
        sig = state["theory"].signature
        ctx = (("y", T.X),)
        for model in [state["model"], *state["chain_models"].values()]:
            metmodel.model_distance(model, sig, ctx, T.nest([0, 1]),
                                    T.nest_normal_form([0, 1]))

    def round(self, state, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        # Most pairs set a nest against a perturbed normal form, so direct
        # synthesis fails and both sides are normalised; at the DIRECT
        # depths two nests differ in inner waits.
        specs = [(d, d in self.DIRECT) for d in self.RUNGS]
        rng.shuffle(specs)
        queries = []
        for d, direct in specs:
            queries += self.item(state, rng, d, direct)
        # One wait chain a round, twice as long as a nest of the rotating
        # depth, has two nested sites perturbed.  Synthesis prints FAIL on
        # these today although a proof exists (a known defect): they count
        # as failures.
        queries += self.nested_chain(state, rng,
                                     2 * self.RUNGS[r % len(self.RUNGS)])
        return queries

    def item(self, state, rng, d, direct):
        ks = [0] * d
        for i in rng.sample(range(d), 2):
            ks[i] = 1
        v = T.nest(ks)
        ks2 = list(ks)
        for i in rng.sample(range(d), 2 if direct else 1):
            ks2[i] = rng.choice([c for c in ((0, 1, 2) if direct
                                             else (0, 1, 2, 3))
                                 if c != ks[i]])
        delta = Fraction(sum(abs(a - b) for a, b in zip(ks, ks2)))
        if direct:
            w = T.nest(ks2)
            script = T.congruence_script(v, w)
        else:
            w = T.nest_normal_form(ks2)
            script = T.beta_script(v, ks, w)
        sv, sw = sum(ks), sum(ks2)
        if max(sv, sw) >= self.MODEL_N:
            raise ValueError("model too small for the generated terms")
        return pair_queries(state["theory"], state["model"], (("y", T.X),),
                            v, w, delta, script, d, abs(sv - sw))

    def nested_chain(self, state, rng, n):
        v = T.chain(n, "y")
        w, delta = T.perturb(rng, v, 2, True, self.CHOICES)
        sv, sw = T.wait_sum(v), T.wait_sum(w)
        if max(sv, sw) >= n + self.CHAIN_SLACK:
            raise ValueError("model too small for the generated terms")
        return pair_queries(state["theory"], state["chain_models"][n],
                            (("y", T.X),), v, w, delta,
                            T.congruence_script(v, w), None, abs(sv - sw),
                            nested=True)


# ---------------------------------------------------------------------------
# models-exact

WALK_BODY = ("mul(sub(mul(real_2(unit), derelict x), real_1(unit)), "
             "derelict y)")
WALK_SCRIPT = """(cong-copy
  (cong-promote :r 3
    (axiom diaconis :k 3 :m {m} :n {n})
    (axiom gaussians :k 3 :mu1 {mu1} :sigma1 {s1} :mu2 {mu2} :sigma2 {s2})
    (refl :ctx "x : !1 real, y : !1 real" "{body}"))
  (refl :ctx "x1 : !1 real, z : !2 real"
    "copy[1,1] z as x2, x3 in add(derelict x1, add(derelict x2, derelict x3))"))"""
URN_BODY = ("mul(sub(mul(real_2(unit), derelict s), real_1(unit)), "
            "derelict y)")


def gaussian_label(k, mu1, s1, mu2, s2) -> float:
    """The closed-form Gaussian label, in floating point."""
    r = Fraction(s2, 1) ** 2 / Fraction(s1, 1) ** 2
    rad = k * (float(r) - 1 - math.log(float(r))
               + float(Fraction(mu1 - mu2) ** 2 / Fraction(s1) ** 2))
    return math.sqrt(max(rad, 0.0)) / 2


def check_enclosed(value: float):
    """out is (label, (lo, hi)): value lies in the enclosure, which is at
    most 1e-9 wide."""
    def check(out):
        _outcome_error(out)
        _, (lo, hi) = out
        if not (float(lo) - 1e-12 <= value <= float(hi) + 1e-12):
            raise Mismatch(f"{value} outside [{float(lo)}, {float(hi)}]")
        if hi - lo > Fraction(1, 10 ** 9):
            raise Mismatch(f"enclosure wider than 1e-9: {hi - lo}")
    return check


def _enclose(label):
    from gvlam import quantale
    if isinstance(label, quantale.SymbolicBound):
        return label.enclosure()
    return label, label


def _path_maps(n: int) -> int:
    """Non-expansive self-maps of the line 0..n, counted as walks whose
    steps are -1, 0 or 1 (a direct count, not an enumeration)."""
    ways = [1] * (n + 1)
    for _ in range(n):
        ways = [sum(ways[j] for j in (i - 1, i, i + 1) if 0 <= j <= n)
                for i in range(n + 1)]
    return sum(ways)


def ratio_class(s1: int, s2: int) -> int:
    """The cost class of a Gaussian label with deviations s1 and s2: 0
    when they are equal (the logarithm vanishes, well under 1 ms), 1 when
    the variance ratio is an integer or its reciprocal (about 10 ms), 2
    otherwise (about 18 ms)."""
    if s1 == s2:
        return 0
    return 1 if max(s1, s2) % min(s1, s2) == 0 else 2


class ParamStream:
    """Distinct parameter tuples in a seeded order.  sympy caches
    expressions globally, so a repeated Gaussian query would measure the
    cache; each tuple is used at most once per run, until all are used."""

    def __init__(self, tuples, rng):
        self.tuples = list(tuples)
        rng.shuffle(self.tuples)
        self.i = 0

    def next(self):
        out = self.tuples[self.i % len(self.tuples)]
        self.i += 1
        return out


class ModelsExact:
    name = "models-exact"
    HO_N = (3, 4, 5)            # function-space carriers of 68 to ~1000 maps
    # A lambda in timed(5) takes about 0.6 s, more than the rest of a
    # round together, so it runs only in the first two rounds of every
    # FIVE_EVERY (one traced and one not, in a traced run): rounds stay
    # short, a run holds ~100 of them, and every seed samples each
    # parameter stream widely enough to time the same mix of costs.  The
    # timed(5) queries stay well under 1 % of a run, so query_tail_ms (p99
    # at 1,000 to 9,999 queries) falls inside the timed(4) queries rather
    # than on the edge between the two.
    FIVE_EVERY = 40
    LAW_GRADES = range(6)

    def setup(self):
        from gvlam import metmodel, theory
        timed = theory.load_theory(str(DATA / "timed.thy"))
        prob = theory.load_theory(str(DATA / "prob.thy"))
        models = {n: metmodel.timed_model(timed.signature, n)
                  for n in self.HO_N}
        return {"timed": timed, "prob": prob, "models": models}

    def warmup(self, state):
        from gvlam import probmodel
        # The first symbolic query of a process pays sympy's lazy set-up.
        probmodel.gaussian_phi(1, Fraction(1, 7), 1, 0, 2).enclosure()
        check_function_spaces(self.HO_N)

    def streams(self, seed):
        rng = random.Random(f"{self.name}:{seed}:params")
        gauss = [(k, a, b, c, d) for k in range(1, 5)
                 for a, b, c, d in itertools.product(
                     range(-3, 4), range(1, 5), range(-3, 4), range(1, 5))
                 if (a, b) != (c, d)]
        walk = [(m, n, a, b, c, d) for m in range(13) for n in range(13)
                if 3 <= m + n <= 12
                for a, b, c, d in itertools.product(
                    range(4), range(1, 5), range(4), range(1, 5))
                if (a, b) != (c, d)]
        urns = [(k, m, n) for m in range(13) for n in range(13)
                for k in range(1, m + n + 1) if m + n <= 12]
        return {
            # Each round checks one urn from each class of draw counts:
            # the exact TV costs about 0.3, 2 and 15 ms across them.
            "diaconis": [ParamStream([u for u in urns if u[0] in ks], rng)
                         for ks in ((2, 3), (5, 6), (8, 9))],
            # Each round takes one Gaussian label and one walk from each
            # class of variance ratio (see ratio_class), so that every
            # seed times the same mix of costs.
            "gauss": [ParamStream([g for g in gauss
                                   if ratio_class(g[2], g[4]) == c], rng)
                      for c in range(3)],
            "walk": [ParamStream([t for t in walk
                                  if ratio_class(t[3], t[5]) == c], rng)
                     for c in range(3)],
            "urn": ParamStream([(m, n) for m in range(13) for n in range(13)
                                if 2 <= m + n <= 12], rng),
        }

    def round(self, state, seed, r):
        if state.get("seed") != seed:
            state["seed"], state["streams"] = seed, self.streams(seed)
        rng = random.Random(f"{self.name}:{seed}:{r}")
        streams = state["streams"]
        sizes = self.HO_N if r % self.FIVE_EVERY < 2 else self.HO_N[:2]
        queries = [self.ho_model(state, rng, n) for n in sizes]
        queries.append(self.laws(state, rng))
        for stream in streams["diaconis"]:
            queries.append(self.diaconis(stream.next()))
        for stream in streams["gauss"]:
            queries.append(self.gaussian(stream.next()))
        for stream in streams["walk"]:
            queries.append(self.walk(state, stream.next()))
        queries += self.urn_item(state, streams["urn"].next())
        rng.shuffle(queries)
        return queries

    def ho_model(self, state, rng, n):
        """fn f : X -o X => f (wait_a(x)) against wait_b: the model
        enumerates the non-expansive maps of timed(n) for the lambda."""
        from gvlam import metmodel
        a, b = rng.sample(range(n), 2)
        fx = T.S.LolliType(T.X, T.X)

        def term(k):
            return T.S.Lambda("f", fx, T.S.App(T.S.Var("f"),
                                               T.wait(k, T.S.Var("x"))))
        v, w = term(a), term(b)
        sig, model = state["timed"].signature, state["models"][n]
        return Query("model", f"model|timed({n})|{T.show(v)}|{T.show(w)}",
                     lambda: metmodel.model_distance(model, sig,
                                                     (("x", T.X),), v, w),
                     check_distance(abs(a - b)), n)

    def laws(self, state, rng):
        from gvlam import metmodel
        grades = sorted(rng.sample(self.LAW_GRADES, 3))
        spaces = _law_spaces()

        def check(out):
            _outcome_error(out)
            if not out.checks or out.failures:
                raise Mismatch(f"{len(out.failures)} law failures of "
                               f"{len(out.checks)}")
        return Query("model", f"laws|{grades}",
                     lambda: metmodel.check_comonad_laws(grades, spaces),
                     check)

    def diaconis(self, kmn):
        from gvlam import oracles, probmodel
        k, m, n = kmn

        def check(out):
            _outcome_error(out)
            tv, bound, ok = out
            _equal("bound", bound, Fraction(4 * k, m + n))
            ref = oracles.brute_tv(probmodel.replace_sampler(k, m, n),
                                   probmodel.no_replace_sampler(k, m, n))
            _equal("tv against oracles.brute_tv", tv, ref)
            _equal("tv against an enumeration of draw sequences", tv,
                   urn_tv(k, m, n))
            if not (ok is True and tv <= bound):
                raise Mismatch(f"tv {tv} above {bound} or verdict {ok}")
        return Query("model", f"diaconis|{k},{m},{n}",
                     lambda: probmodel.check_diaconis(k, m, n), check)

    def gaussian(self, params):
        from gvlam import probmodel

        def run():
            phi = probmodel.gaussian_phi(*params)
            return phi, _enclose(phi)
        return Query("model", f"gaussian|{params}", run,
                     check_enclosed(gaussian_label(*params)))

    def walk(self, state, params):
        from gvlam import proofscript, vequation
        m, n, mu1, s1, mu2, s2 = params
        script = WALK_SCRIPT.format(m=m, n=n, mu1=mu1, s1=s1, mu2=mu2,
                                    s2=s2, body=WALK_BODY)
        prob = state["prob"]

        def run():
            eq = vequation.validate(prob, proofscript.parse_proof(script))
            return eq.bound, _enclose(eq.bound)
        value = 12 / (m + n) + gaussian_label(3, mu1, s1, mu2, s2)
        return Query("prove", f"walk|{params}", run, check_enclosed(value))

    def urn_item(self, state, mn):
        """The two-step walk with urn signs and discrete magnitudes: its
        label is 8/(m+n) + 1, above the exact endpoint total variation."""
        from gvlam import (oracles, parser, probmodel, typecheck,
                           vequation)
        m, n = mn
        prob = state["prob"]
        v_text = (f"promote[2; 1,1](replace_2_{m}_{n}(unit), mag1_2(unit); "
                  f"s, y => {URN_BODY})")
        w_text = (f"promote[2; 1,1](no_replace_2_{m}_{n}(unit), "
                  f"mag2_2(unit); s, y => {URN_BODY})")
        label = Fraction(8, m + n) + 1

        def check_synth(out):
            _outcome_error(out)
            eq, proof = out
            _equal("label", eq.bound, label)
            _equal("re-validated equation", vequation.validate(prob, proof),
                   eq)
            one = probmodel.FinDist.from_dict({(1,): Fraction(1, 2),
                                               (2,): Fraction(1, 2)})
            skew = probmodel.FinDist.from_dict({(1,): Fraction(1, 4),
                                                (2,): Fraction(3, 4)})
            mag1 = one.product(one).map(lambda o: (o[0][0], o[1][0]))
            mag2 = skew.product(skew).map(lambda o: (o[0][0], o[1][0]))
            tv = oracles.brute_tv(
                probmodel.walk_endpoint(
                    probmodel.replace_sampler(2, m, n), mag1),
                probmodel.walk_endpoint(
                    probmodel.no_replace_sampler(2, m, n), mag2))
            if not tv <= eq.bound:
                raise Mismatch(f"label {eq.bound} below tv {tv}")

        # The terms are parsed outside the timed calls, once per item.
        v, w = parser.parse_term(v_text), parser.parse_term(w_text)
        bang2 = check_type(T.S.BangType(2, T.S.Ground("real")))
        return [
            Query("check", f"check|{v_text}",
                  lambda: typecheck.infer(prob.signature, (), v,
                                          prob.semiring), bang2),
            Query("check", f"check|{w_text}",
                  lambda: typecheck.infer(prob.signature, (), w,
                                          prob.semiring), bang2),
            Query("bound", f"bound|{v_text}|{w_text}",
                  lambda: vequation.synthesize(prob, (), v, w),
                  check_synth),
        ]


def urn_tv(k: int, m: int, n: int) -> Fraction:
    """Total variation between k draws with and without replacement
    from an urn of m zeros and n ones, over explicit draw sequences."""
    p = Fraction(n, m + n)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=k):
        ones = sum(bits)
        with_ = p ** ones * (1 - p) ** (k - ones)
        without, zeros_left, ones_left = Fraction(1), m, n
        for bit in bits:
            left = ones_left if bit else zeros_left
            if left == 0:
                without = Fraction(0)
                break
            without *= Fraction(left, zeros_left + ones_left)
            if bit:
                ones_left -= 1
            else:
                zeros_left -= 1
        total += abs(with_ - without)
    return total / 2


def _law_spaces():
    from gvlam import metmodel
    one = Fraction(1)
    return [
        metmodel.ExplicitSpace((0,), {}, name="pt"),
        metmodel.ExplicitSpace((0, 1), {(0, 1): Fraction(3, 2),
                                        (1, 0): Fraction(3, 2)},
                               name="pair"),
        metmodel.ExplicitSpace((0, 1, 2), {
            (0, 1): one, (1, 0): one, (1, 2): 2 * one, (2, 1): 2 * one,
            (0, 2): 3 * one, (2, 0): 3 * one}, name="path3"),
    ]


def check_function_spaces(ns) -> None:
    """The carriers the models-exact lambdas range over, against a direct
    count and, where it is small enough, oracles.enumerate_nonexpansive."""
    from gvlam import metmodel, oracles
    for n in ns:
        space = metmodel.timed_space(n)
        tables = metmodel.FuncSpace(space, space).points
        _equal(f"maps of timed({n})", len(tables), _path_maps(n))
        if n <= 4:
            ref = oracles.enumerate_nonexpansive(space, space)
            _equal(f"maps of timed({n}) against the oracle",
                   sorted(tables), sorted(ref))


WORKLOADS = {w.name: w for w in (BoundBeta(), ModelsExact())}
