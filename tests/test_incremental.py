"""Incremental typing along rewrite chains, against the from-scratch
references in gvlam.oracles."""

import random
from pathlib import Path

import pytest

import gvlam
from gvlam import syntax as S
from gvlam import oracles, rewrite, typecheck, vequation
from gvlam.oracles import reference_beta_normalize, reference_infer
from gvlam.parser import parse_context, parse_term
from gvlam.rewrite import (SchemaId, beta_normalize, positioned_subterms,
                           rewrite_term)
from gvlam.theory import load_theory
from gvlam.typecheck import TypeError_, infer

import support

SIG = support.test_signature()
X = support.X
TIMED = str(Path(gvlam.__file__).parent / "data" / "timed.thy")


def nest(ks, var="y"):
    """(fn x_d => wait_k(x_d)) (... ((fn x_0 => wait_k(x_0)) y))."""
    t = S.Var(var)
    for i, k in enumerate(ks):
        x = f"x{i}"
        t = S.App(S.Lambda(x, X, S.OpApp(f"wait_{k}", (S.Var(x),))), t)
    return t


def derivgen_terms(seed, count):
    rng = random.Random(seed)
    gen = support.DerivGen(rng)
    for _ in range(count):
        ty = rng.choice([X, support.I, support.XX, support.bang(1),
                         support.X2X])
        d = gen.term_of(ty, rng.randrange(1, 6))
        yield d.conclusion.context, d.conclusion.term


def cases():
    yield from derivgen_terms(31, 120)
    rng = random.Random(32)
    for depth in (1, 2, 5, 9):
        yield (("y", X),), nest([rng.randrange(3) for _ in range(depth)])
    # A left side of every schema row, so each oriented row has a redex.
    for schema in sorted(support.SCHEMA_BUILDERS, key=lambda s: s.value):
        ctx, lhs, _ = support.SCHEMA_BUILDERS[schema](rng)
        yield ctx, lhs


def test_infer_matches_reference():
    for ctx, term in cases():
        assert infer(SIG, ctx, term) == reference_infer(SIG, ctx, term)


def test_beta_normalize_matches_reference():
    normalised = 0
    for ctx, term in cases():
        d = infer(SIG, ctx, term)
        got = beta_normalize(SIG, d)
        assert got == reference_beta_normalize(SIG, d)
        normalised += bool(got[1])
        # Out of fuel part-way: the same prefix and the same flag.
        fuel = len(got[1]) // 2
        assert beta_normalize(SIG, d, fuel) \
            == reference_beta_normalize(SIG, d, fuel)
    assert normalised >= 20


def test_shared_memo_along_rewrite_chains():
    """Typing each term of a chain with one memo gives the fresh
    derivation, and reuses the derivations of the subterms the step left
    in place."""
    chains = 0
    for ctx, term in cases():
        d = infer(SIG, ctx, term)
        _, steps, _ = reference_beta_normalize(SIG, d)
        memo = {}
        before = infer(SIG, ctx, term, memo=memo)
        assert before == d
        for source, step in steps:
            assert source == term
            term = rewrite_term(term, step)
            after = infer(SIG, ctx, term, memo=memo)
            assert after == reference_infer(SIG, ctx, term)
            if step.position:
                # The step rewrote below the root; the root's other
                # children are the same objects and keep their derivations.
                i = step.position[0]
                old = [p for j, p in enumerate(before.premises) if j != i]
                new = [p for j, p in enumerate(after.premises) if j != i]
                if len(old) == len(new) and all(
                        a.conclusion.term is b.conclusion.term
                        for a, b in zip(old, new)):
                    assert all(a is b for a, b in zip(old, new))
            before = after
        chains += bool(steps)
    assert chains >= 20


def test_memo_types_only_the_rebuilt_spine(monkeypatch):
    """Normalising a 30-deep nest with one memo: the step at position p
    rebuilds the p nodes above the redex and the contractum's head, and
    only those are typed again; the rest are memo hits."""
    visits = []
    real = typecheck._infer

    def counted(sig, semiring, ctx, term, path, table):
        visits.append(term)
        return real(sig, semiring, ctx, term, path, table)

    ctx = (("y", X),)
    term = nest([1] * 30)
    _, steps, _ = reference_beta_normalize(SIG, infer(SIG, ctx, term))
    assert len(steps) == 30
    memo = {}
    infer(SIG, ctx, term, memo=memo)
    monkeypatch.setattr(typecheck, "_infer", counted)
    for _, step in steps:
        term = rewrite_term(term, step)
        visits.clear()
        assert infer(SIG, ctx, term, memo=memo).conclusion.type == X
        # The rebuilt nodes, then the one unchanged child below them.
        assert len(visits) == len(step.position) + 2


def test_beta_normalize_walks_no_term_for_free_variables(monkeypatch):
    """Normalising a 50-deep nest reads each free-variable set off its
    node: the walk behind free_var_counts never runs."""
    walked = []
    real = S._fv

    def counted(t, out, bound):
        walked.append(t)
        return real(t, out, bound)

    d = infer(SIG, (("y", X),), nest([1] * 50))
    monkeypatch.setattr(S, "_fv", counted)
    _, steps, _ = beta_normalize(SIG, d)
    assert len(steps) == 50
    assert walked == []


def test_normalise_and_validate_type_spines_only(monkeypatch):
    """beta_normalize types the nest once and then each step's spine;
    validate types the chain's first term once and then, at each schema
    leaf, the spines of its two sides."""
    theory = load_theory(TIMED)
    sig, ctx = theory.signature, (("y", X),)
    v = nest([1] * 30)
    w = S.Var("y")
    for k in [1] * 29 + [2]:
        w = S.OpApp(f"wait_{k}", (w,))
    d = infer(sig, ctx, v)
    _, steps, _ = reference_beta_normalize(sig, d)
    spines = sum(len(step.position) + 2 for _, step in steps)
    eq, proof = vequation.synthesize(theory, ctx, v, w, normalize_first=True)
    assert eq.bound == 1
    # The suite's validate also runs the oracle; its typings are not
    # counted.
    visits = []
    in_oracle = []
    infer_node, reference = typecheck._infer, oracles.reference_infer

    def counted(sig, semiring, ctx, term, path, table):
        if not in_oracle:
            visits.append(term)
        return infer_node(sig, semiring, ctx, term, path, table)

    def uncounted(*args):
        in_oracle.append(True)
        try:
            return reference(*args)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(typecheck, "_infer", counted)
    monkeypatch.setattr(oracles, "reference_infer", uncounted)
    infer(sig, ctx, v)
    full = len(visits)
    assert full == 121
    visits.clear()
    beta_normalize(sig, d)
    assert len(visits) <= full + spines
    visits.clear()
    vequation.validate(theory, proof)
    # The proof between the normal forms, the axiom instance and the root
    # add a few typings of the 31-node normal form.
    assert len(visits) <= full + 2 * spines + 4 * 31


def test_each_step_runs_its_row_once(monkeypatch):
    """The search applies each candidate step, so normalising a 20-deep
    nest runs the lolli-beta row once per step; synthesize runs it once
    more per step, in validate's schema leaves, and replays none."""
    theory = load_theory(TIMED)
    sig, ctx = theory.signature, (("y", X),)
    calls = []
    l2r, r2l = rewrite._ROWS[SchemaId.LOLLI_BETA]

    def counted(t, b, sr):
        # The suite's validate also runs the oracle and, given the
        # search's tables, validates again on fresh ones: their rows are
        # not counted.
        if not support.cross_checking:
            calls.append(t)
        return l2r(t, b, sr)

    monkeypatch.setitem(rewrite._ROWS, SchemaId.LOLLI_BETA, (counted, r2l))
    v = nest([1] * 20)
    w = S.Var("y")
    for k in [1] * 19 + [2]:
        w = S.OpApp(f"wait_{k}", (w,))
    _, steps, _ = beta_normalize(sig, infer(sig, ctx, v))
    assert len(steps) == len(calls) == 20
    calls.clear()
    eq, _ = vequation.synthesize(theory, ctx, v, w, normalize_first=True)
    assert eq.bound == 1
    assert len(calls) == 40


def test_memo_is_keyed_by_context():
    """One node typed in two contexts: each call gets its own context's
    derivation, and a context the node fails in still fails."""
    memo = {}
    term = parse_term("wait_1(x)")
    d1 = infer(SIG, parse_context("x : X"), term, memo=memo)
    with pytest.raises(TypeError_, match="unbound variable x"):
        infer(SIG, parse_context("y : X"), term, memo=memo)
    with pytest.raises(TypeError_, match="variable z unused by the term"):
        infer(SIG, parse_context("x : X, z : X"), term, memo=memo)
    assert infer(SIG, parse_context("x : X"), term, memo=memo) is d1


MESSAGES = [
    ("x : X", "plus(x, x)", "variable x used twice"),
    ("x : X", "wait_1(y)", "unbound variable y"),
    ("x : X, y : X", "wait_1(x)", "variable y unused by the term"),
    ("x : X", "c(x)", "argument 0 of c has type X, expected I"),
    ("x : X", "wait_1(c(x))",
     "at wait_1#0: argument 0 of c has type X, expected I"),
    # Ill-typed and using x twice: the variable-use message wins.
    ("x : X", "plus(c(x), x)", "variable x used twice"),
    # Ill-typed and with an unbound variable.
    ("x : X", "plus(c(x), y)", "unbound variable y"),
    ("x : X", "(fn z : X => plus(z, x)) unit",
     "function expects X, argument has type I"),
    ("x : X", "plus(x, (fn z : X => z) x)", "variable x used twice"),
]


@pytest.mark.parametrize("ctx, text, message", MESSAGES)
def test_error_messages_are_unchanged(ctx, text, message):
    ctx, term = parse_context(ctx), parse_term(text)
    for typer in (reference_infer, infer):
        with pytest.raises(TypeError_) as exc:
            typer(SIG, ctx, term)
        assert str(exc.value) == message
    # A memo that already holds derivations of the term's subterms.
    memo = {}
    for _, sub in positioned_subterms(term):
        try:
            infer(SIG, ctx, sub, memo=memo)
        except TypeError_:
            pass
    with pytest.raises(TypeError_) as exc:
        infer(SIG, ctx, term, memo=memo)
    assert str(exc.value) == message


def test_alpha_eq_on_shared_subterms():
    body = S.Var("x")
    assert S.alpha_eq(body, body)
    assert S.alpha_eq(S.Lambda("x", X, body), S.Lambda("x", X, body))
    # The same body object under binders of different names: x is bound
    # on one side and free on the other.
    assert not S.alpha_eq(S.Lambda("x", X, body), S.Lambda("y", X, body))
    shared = parse_term("wait_1(x)")
    assert S.alpha_eq(S.Lambda("x", X, shared), S.Lambda("x", X, shared))
    assert not S.alpha_eq(S.Lambda("x", X, shared),
                          S.Lambda("z", X, shared))


class CountedFamily(vequation.AxiomFamily):
    """Offers one parameter set at every pair; instantiating it fails."""

    name = "counted"

    def __init__(self):
        self.calls = 0

    def instantiate(self, theory, params):
        self.calls += 1
        raise vequation.ProofError("no such instance")

    def candidates(self, theory, v, w):
        return [{"p": 1}]


def test_synthesize_instantiates_each_axiom_once(monkeypatch):
    """A 40-deep wait chain differing at its innermost operation: the
    search tries the same axiom instances at every level and builds each
    once, a failed one included; validate reuses the instance the proof
    uses."""
    theory = load_theory(TIMED)
    failing = CountedFamily()
    theory.add_axiom(failing)
    calls = []
    real = vequation.axiom_instantiate

    def counted(theory, name, params, memo=None):
        # Not counted: the suite's validation again on fresh tables.
        if not support.cross_checking:
            calls.append((name, tuple(sorted(params.items()))))
        return real(theory, name, params, memo)

    monkeypatch.setattr(vequation, "axiom_instantiate", counted)
    v, w = S.Var("x"), S.OpApp("wait_2", (S.Var("x"),))
    v = S.OpApp("wait_1", (v,))
    for _ in range(39):
        v, w = S.OpApp("wait_1", (v,)), S.OpApp("wait_1", (w,))
    eq, proof = vequation.synthesize(theory, parse_context("x : X"), v, w)
    assert eq.bound == 1
    assert failing.calls == 1
    assert len(calls) == len(set(calls)) >= 3
    assert ("wait", (("m", 2), ("n", 1))) in calls
    # Validating the proof on its own builds the instance again.
    calls.clear()
    assert vequation.validate(theory, proof) == eq
    assert calls == [("wait", (("m", 2), ("n", 1)))]


def test_redex_search_reads_no_position_from_the_root(monkeypatch):
    """The search runs each row on the subterm it holds: on a 200-deep
    chain of applied function variables, which has no redex, neither
    get_subterm nor replace_subterm runs; on a nest, get_subterm does
    not run either."""
    calls = []

    def counted(name):
        real = getattr(rewrite, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("get_subterm", "replace_subterm"):
        monkeypatch.setattr(rewrite, name, counted(name))
    chain, ctx = S.Var("y"), [("y", X)]
    for i in range(200):
        chain = S.App(S.Var(f"f{i}"), chain)
        ctx.append((f"f{i}", support.X2X))
    d = infer(SIG, tuple(ctx), chain)
    out, steps, exhausted = beta_normalize(SIG, d)
    assert out is d and steps == [] and not exhausted
    assert calls == []
    _, steps, _ = beta_normalize(SIG, infer(SIG, (("y", X),),
                                            nest([1] * 10)))
    assert len(steps) == 10
    assert "get_subterm" not in calls


def test_seeded_memo_types_only_rebuilt_nodes(monkeypatch):
    """beta_normalize with the memo its input was inferred with: the first
    step of a 30-deep nest types only the one node it rebuilt, and the
    step at position p the p + 1 nodes it rebuilt."""
    missed = []
    infer_node = typecheck._infer

    def counted(sig, semiring, ctx, term, path, table):
        d = table.get(id(term))
        if d is None or d.conclusion.context != ctx:
            missed.append(term)
        return infer_node(sig, semiring, ctx, term, path, table)

    ctx = (("y", X),)
    memo = {}
    d = infer(SIG, ctx, nest([1] * 30), memo=memo)
    monkeypatch.setattr(typecheck, "_infer", counted)
    _, steps, _ = beta_normalize(SIG, d, memo=memo)
    assert len(steps) == 30
    assert len(missed) == sum(len(step.position) + 1 for _, step in steps)
    missed.clear()
    beta_normalize(SIG, d)
    # With a fresh memo the first step types its reduct whole: the
    # 121-node nest but the root redex's application, lambda, body and
    # bound variable.
    assert len(missed) == 121 - 4 + sum(len(step.position) + 1
                                        for _, step in steps)


def test_synthesize_seeds_both_normalisations(monkeypatch):
    """synthesize hands each normalisation the memo in which it inferred
    both sides, so the first step finds every side node typed."""
    theory = load_theory(TIMED)
    ctx = (("y", X),)
    v, w = nest([1] * 6), S.Var("y")
    for k in [1] * 5 + [2]:
        w = S.OpApp(f"wait_{k}", (w,))
    seeded = []
    real = vequation.beta_normalize

    def recorded(sig, d, fuel=None, semiring=None, memo=None):
        seeded.append(memo is not None and id(d.conclusion.term) in memo)
        return real(sig, d, fuel, semiring, memo)

    monkeypatch.setattr(vequation, "beta_normalize", recorded)
    eq, _ = vequation.synthesize(theory, ctx, v, w, normalize_first=True)
    assert eq.bound == 1
    assert seeded == [True, True]
