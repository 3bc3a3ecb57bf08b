"""parse_proof shares a script's terms: one object per distinct subterm
across the whole script, and validate proves the same equations, and
fails with the same messages, as on an unshared parse."""

import random
from pathlib import Path

import pytest

import gvlam
from gvlam import oracles, typecheck, vequation
from gvlam import syntax as S
from gvlam.proofscript import load_proof, parse_proof
from gvlam.theory import AxiomTemplate, load_theory
from gvlam.vequation import ProofError, validate

import support

DATA = Path(gvlam.__file__).parent / "data"
TIMED = load_theory(str(DATA / "timed.thy"))


def script_terms(proof):
    """Every term a parsed proof holds: leaf terms and schema bindings."""
    stack = [proof]
    while stack:
        p = stack.pop()
        stack.extend(p.premises)
        if "term" in p.info:
            yield p.info["term"]
        if "step" in p.info:
            yield from (v for v in p.info["step"].bindings.values()
                        if isinstance(v, S.Term))


def objects_per_subterm(proof):
    """For each distinct subterm (by value), the ids of its objects."""
    out = {}
    for t in script_terms(proof):
        for sub in S.subterms(t):
            out.setdefault(sub, set()).add(id(sub))
    return out


def unshared(text):
    """The proof parse_proof returned before it shared terms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "share", lambda t, table: t)
        return parse_proof(text)


SCRIPT_24 = support.random_beta_script(random.Random(24), 24)


@pytest.mark.parametrize("proof", [
    parse_proof(SCRIPT_24), load_proof(str(DATA / "walk.proof"))],
    ids=["beta-24", "walk"])
def test_one_object_per_distinct_subterm(proof):
    groups = objects_per_subterm(proof)
    assert len(groups) >= 20
    assert all(len(ids) == 1 for ids in groups.values())


def test_unshared_parse_has_copies():
    """The check above is not vacuous: without sharing the 24-deep script
    holds many copies of its nest."""
    groups = objects_per_subterm(unshared(SCRIPT_24))
    assert max(len(ids) for ids in groups.values()) >= 24


def test_share_keeps_binders_and_annotations_apart():
    table = {}
    a = S.share(S.Lambda("x", support.X, S.Var("x")), table)
    b = S.share(S.Lambda("y", support.X, S.Var("y")), table)
    c = S.share(S.Lambda("x", support.I, S.Var("x")), table)
    d = S.share(S.Lambda("x", support.X, S.Var("x")), table)
    assert a is d and a is not b and a is not c
    assert a.body is c.body
    # One value and body under binders in the other order: the two
    # terms are not alpha-equal.
    body = S.OpApp("f", (S.Var("u"), S.Var("v")))
    e = S.share(S.TensorLet(S.Var("p"), "u", "v", body), table)
    f = S.share(S.TensorLet(S.Var("p"), "v", "u", body), table)
    assert e is not f and e.body is f.body
    assert not S.alpha_eq(e, f)


def test_shared_parse_validates_as_unshared_and_oracle():
    rng = random.Random(7)
    for d in (2, 3, 5, 8, 13, 21, 30):
        text = support.random_beta_script(rng, d)
        shared = parse_proof(text)
        eq = validate(TIMED, shared)
        assert eq == validate(TIMED, unshared(text))
        assert eq == oracles.reinfer_validate(TIMED, shared)


BASE = support.beta_script([0, 1, 0, 0, 1, 0], [0, 1, 3, 0, 1, 0])


@pytest.mark.parametrize("old, new, message", [
    (":pos 0.0)", ":pos 0)",
     "schema step failed: expected (fn x : ty => v) w"),
    (':ctx "y : X"', ':ctx "y : I"',
     "schema: ill-typed conclusion: at app-arg/app-arg/app-arg/app-arg/"
     "app-arg: function expects X, argument has type I"),
    (':term "wait_0(wait_1(wait_0(', ':term "wait_2(wait_1(wait_0(',
     "trans premises do not share the middle term"),
], ids=["pos", "ill-typed-term", "middle-term"])
def test_broken_scripts_fail_as_before(old, new, message):
    assert old in BASE
    text = BASE.replace(old, new, 1)
    for proof in (parse_proof(text), unshared(text)):
        with pytest.raises(ProofError) as exc:
            validate(TIMED, proof)
        assert str(exc.value) == message


def typings(monkeypatch, proof):
    """The (table, node, context) triples validate types the proof's
    nodes at, memo hits left out."""
    typed = []
    held = []
    in_oracle = []
    infer_node, reference = typecheck._infer, oracles.reference_infer

    def counted(sig, semiring, ctx, term, path, table):
        d = table.get(id(term))
        hit = d is not None and d.conclusion.context == ctx
        if not hit and not in_oracle:
            typed.append((id(table), id(term), ctx))
            held.append((table, term))  # keeps ids unique while counting
        return infer_node(sig, semiring, ctx, term, path, table)

    def uncounted(*args):
        in_oracle.append(True)
        try:
            return reference(*args)
        finally:
            in_oracle.pop()

    with monkeypatch.context() as mp:
        mp.setattr(typecheck, "_infer", counted)
        # The suite's validate also runs the oracle; its typings are not
        # counted.
        mp.setattr(oracles, "reference_infer", uncounted)
        validate(TIMED, proof)
    return typed


def test_validate_types_each_node_once(monkeypatch):
    """On the 24-deep script, validate types no (node, context) pair
    twice in its memo, and a subterm the script repeats is typed where it
    first appears and is a memo hit everywhere else: each leaf types the
    spine its step rebuilt.  (An axiom instance is also typed once when
    the theory instantiates it, in a table of its own.)"""
    typed = typings(monkeypatch, parse_proof(SCRIPT_24))
    assert len(typed) == len(set(typed))
    # 715 typings against 1,843 on an unshared parse (validate alone
    # makes 711 and 1,839; the oracle instantiates the axiom once more).
    assert 2 * len(typed) < len(typings(monkeypatch, unshared(SCRIPT_24)))


def test_synthesis_shares_its_tables_with_validate(monkeypatch):
    """One bound --normalize-first on a 12-deep nest: each distinct axiom
    instance is built once, and validate, on the search's tables, types
    no (node, context) pair that the search typed, counted as above."""
    ks = [0] * 12
    ks[3] = ks[8] = 1
    ks2 = list(ks)
    ks2[5] = 2
    typed = {"search": [], "validate": []}
    phase, held, made = ["search"], [], []
    infer_node, instantiate = typecheck._infer, AxiomTemplate.instantiate
    suite_validate = vequation.validate  # runs the suite's cross-check

    # What the cross-check does (the oracle, validate again on fresh
    # tables) is not counted.
    def counted(sig, semiring, ctx, term, path, table):
        d = table.get(id(term))
        if not support.cross_checking and \
                (d is None or d.conclusion.context != ctx):
            typed[phase[-1]].append((id(term), ctx))
            held.append(term)  # keeps ids unique while counting
        return infer_node(sig, semiring, ctx, term, path, table)

    def checked(theory, proof, tables=None):
        phase.append("validate")
        try:
            return suite_validate(theory, proof, tables)
        finally:
            phase.pop()

    def built(family, theory, params):
        if not support.cross_checking:
            made.append((family.name, tuple(sorted(params.items()))))
        return instantiate(family, theory, params)

    monkeypatch.setattr(typecheck, "_infer", counted)
    monkeypatch.setattr(vequation, "validate", checked)
    monkeypatch.setattr(AxiomTemplate, "instantiate", built)
    eq, _ = vequation.synthesize(TIMED, (("y", support.X),),
                                 support.beta_nest(ks),
                                 support.wait_chain(ks2),
                                 normalize_first=True)
    assert eq.bound == 2
    assert made and len(made) == len(set(made))
    assert typed["search"] and typed["validate"]
    assert not set(typed["validate"]) & set(typed["search"])
