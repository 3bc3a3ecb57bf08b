"""Quantale-labelled equational proofs: validation and synthesis.

A proof is a tree of labelled rules.  Validation recomputes every node's
concluded equation-in-context and bound bottom-up, so a validated proof
cannot overstate its bound.  It typechecks compositionally: leaves infer
the types of their sides, each congruence lets the typechecker type the
one node it adds and requires the premises' judgements in its
derivation, and the root's sides are inferred once more (docs/proofs.md,
"Trust argument").  One table, CONGRUENCES, gives each term constructor
its congruence rule, for validation and synthesis alike.  Synthesis is a
compositional strategy: alpha-equality, axiom instances placed with the
substitution congruence, same-head congruences, and optionally a
normalize-and-retry fallback whose rewrite steps cost the unit bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import syntax as S
from .parser import print_context, print_term, print_type
from .quantale import Quantale, Semiring, scalar_mul, value_repr
from .typecheck import Derivation, TypeError_, infer
from .rewrite import (RewriteStep, MatchError, beta_normalize,
                      extract_plugs, rewrite_term, subst_parallel)


class ProofError(ValueError):
    pass


class TheoryError(ValueError):
    """A malformed theory file, or an axiom bound it cannot evaluate."""


class SynthesisFailure(Exception):
    pass


@dataclass(frozen=True)
class AxiomInstance:
    name: str
    context: S.Context
    lhs: S.Term
    rhs: S.Term
    bound: object


class AxiomFamily:
    """A (possibly schematic) named axiom; concrete axioms take no params."""

    name: str

    def instantiate(self, theory: "TheorySpec", params: dict) -> AxiomInstance:
        raise NotImplementedError

    def candidates(self, theory: "TheorySpec", v: S.Term, w: S.Term):
        """Parameter assignments worth trying when matching (v, w)."""
        return [{}]


@dataclass
class TheorySpec:
    quantale: Quantale
    semiring: Semiring
    symmetric: bool
    signature: S.Signature
    axioms: dict = field(default_factory=dict)  # name -> AxiomFamily

    def add_axiom(self, family: AxiomFamily):
        if family.name in self.axioms:
            raise TheoryError(f"duplicate axiom name {family.name}")
        self.axioms[family.name] = family


@dataclass(frozen=True)
class VEquation:
    context: S.Context
    lhs: S.Term
    rhs: S.Term
    bound: object

    def __str__(self):
        ctx = print_context(self.context)
        sep = f"{ctx} " if ctx else ""
        return (f"{sep}|- {print_term(self.lhs)} "
                f"=[{value_repr(self.bound)}] {print_term(self.rhs)}")


@dataclass(frozen=True)
class VProof:
    kind: str
    premises: tuple = ()
    info: dict = field(default_factory=dict, hash=False, compare=False)


class Congruence(NamedTuple):
    """The congruence rule of one term constructor.

    Its premises prove equations between the constructor's children, in
    field order, and make(info, children, binders, binder_types) builds
    the node from them.  The body premise, last, ends its context with
    the construct's binders: binds of them, or, for promotion (None), one
    per other premise and nothing else; unbound is the error when they
    are missing.  arity is the least and the most number of premises
    (None: no most).  info pairs each key of the proof node with the term
    node's field, and scale names the key whose grade scales the body
    premise's label.
    """

    kind: str
    make: Callable
    arity: tuple = (2, 2)
    binds: object = 0
    unbound: str = ""
    info: tuple = ()
    scale: str = None


CONGRUENCES = {
    S.OpApp: Congruence(
        "cong-op", lambda i, k, xs, tys: S.OpApp(i["op"], tuple(k)),
        arity=(0, None), info=(("op", "op"),)),
    S.UnitLet: Congruence(
        "cong-unit-let", lambda i, k, xs, tys: S.UnitLet(*k)),
    S.TensorPair: Congruence(
        "cong-pair", lambda i, k, xs, tys: S.TensorPair(*k)),
    S.TensorLet: Congruence(
        "cong-tensor-let",
        lambda i, k, xs, tys: S.TensorLet(k[0], *xs, k[1]), binds=2,
        unbound="the body premise must bind the two tensor variables"),
    S.Lambda: Congruence(
        "cong-lambda", lambda i, k, xs, tys: S.Lambda(xs[0], tys[0], k[0]),
        arity=(1, 1), binds=1,
        unbound="the premise must bind the lambda variable"),
    S.App: Congruence(
        "cong-app", lambda i, k, xs, tys: S.App(*k)),
    S.Promote: Congruence(
        "cong-promote",
        lambda i, k, xs, tys: S.Promote(
            i["r"], tuple(map(_bang_grade, tys)), tuple(k[:-1]), xs, k[-1]),
        arity=(1, None), binds=None,
        unbound="promotion congruence premise count does not match the "
                "body context",
        info=(("r", "grade"),), scale="r"),
    S.Derelict: Congruence(
        "cong-derelict", lambda i, k, xs, tys: S.Derelict(*k),
        arity=(1, 1)),
    S.Discard: Congruence(
        "cong-discard", lambda i, k, xs, tys: S.Discard(*k)),
    S.Copy: Congruence(
        "cong-copy",
        lambda i, k, xs, tys: S.Copy(*map(_bang_grade, tys), k[0], *xs,
                                     k[1]), binds=2,
        unbound="the body premise must bind the two copy variables"),
}

_BY_KIND = {c.kind: c for c in CONGRUENCES.values()}

# The least and the most number of premises of each kind of node.
ARITY = {
    "refl": (0, 0), "axiom": (0, 0), "schema": (0, 0),
    "weak": (1, 1), "sym": (1, 1), "perm": (1, 1),
    "trans": (2, 2), "join": (1, None), "cong-subst": (2, 2),
    **{c.kind: c.arity for c in CONGRUENCES.values()},
}


def check_arity(p: VProof):
    """Reject an unknown kind of node or a wrong number of premises."""
    if p.kind not in ARITY:
        raise ProofError(f"unknown proof node kind {p.kind!r}")
    least, most = ARITY[p.kind]
    n = len(p.premises)
    if most is None and n < least:
        raise ProofError(f"{p.kind} needs at least one premise")
    if most is not None and n != most:
        s = "" if most == 1 else "s"
        raise ProofError(f"{p.kind} takes {most} premise{s}, got {n}")


def axiom_instantiate(theory: TheorySpec, name: str, params: dict,
                      memo: dict = None) -> AxiomInstance:
    """The instance of an axiom family at params, both sides typed in
    memo (as typecheck.infer reads it)."""
    try:
        family = theory.axioms[name]
    except KeyError:
        raise ProofError(f"unknown axiom {name!r}") from None
    try:
        inst = family.instantiate(theory, dict(params))
    except TheoryError as exc:  # a theory file's bound expression fails
        given = "".join(f" :{p} {v}" for p, v in sorted(params.items()))
        raise ProofError(f"axiom {name}{given}: {exc}") from None
    if not theory.quantale.in_basis(inst.bound):
        raise ProofError(f"axiom {name} bound is not a basis element")
    # Both sides must typecheck with the same judgement.
    sig, sr = theory.signature, theory.semiring
    dl = infer(sig, inst.context, inst.lhs, sr, memo)
    dr = infer(sig, inst.context, inst.rhs, sr, memo)
    if dl.conclusion.type != dr.conclusion.type:
        raise ProofError(f"axiom {name} sides have different types")
    return inst


# ---------------------------------------------------------------------------
# Validation

def validate(theory: TheorySpec, proof: VProof,
             tables: tuple = None) -> VEquation:
    """Check a proof and return the equation-in-context it proves.

    Leaves infer the types of their two sides; a congruence infers the
    one node it adds to each side; the other nodes take their premises'
    types.  Both sides of the root conclusion are inferred once more at
    the end.  All these inferences share one typing memo, so a side whose
    subterms were typed before, as the premises' sides of a congruence and
    consecutive terms of a rewrite chain are, is typed only where it is
    new; each axiom instance is built once, its sides typed in the memo.

    tables is the (typing memo, axiom instances) pair of the search that
    built the proof (synthesize passes its own), so that validation
    neither types a node again nor rebuilds an instance; by default both
    tables are fresh.  An instance entry that is None, a failed
    instantiation, is instantiated again so that its error is raised.
    """
    memo, instances = ({}, {}) if tables is None else tables
    eq, ty = _validate(theory, proof, memo, instances)
    root_ty = _typecheck_eq(theory, eq.context, eq.lhs, eq.rhs, proof.kind,
                            memo)
    if root_ty != ty:
        raise ProofError(
            f"{proof.kind}: the sides have type {print_type(root_ty)}, "
            f"not the type {print_type(ty)} derived from the premises")
    return eq


def _typecheck_eq(theory, ctx, lhs, rhs, where, memo):
    """The common type of both sides in ctx."""
    sig, sr = theory.signature, theory.semiring
    try:
        tl = infer(sig, ctx, lhs, sr, memo).conclusion.type
        tr = tl if rhs is lhs else infer(sig, ctx, rhs, sr, memo) \
            .conclusion.type
    except Exception as exc:
        raise ProofError(f"{where}: ill-typed conclusion: {exc}") from exc
    if tl != tr:
        raise ProofError(
            f"{where}: the two sides have types "
            f"{print_type(tl)} and {print_type(tr)}")
    return tl


def _validate(theory: TheorySpec, p: VProof, memo: dict, instances: dict):
    """The proved equation and the type of its sides, bottom-up."""
    q = theory.quantale
    check_arity(p)
    sub = [_validate(theory, pr, memo, instances) for pr in p.premises]
    eqs = [eq for eq, _ in sub]
    types = [ty for _, ty in sub]
    info = p.info
    where = p.kind

    def leaf(ctx, lhs, rhs, bound):
        ty = _typecheck_eq(theory, ctx, lhs, rhs, where, memo)
        return VEquation(tuple(ctx), lhs, rhs, q.check(bound)), ty

    def out(ctx, lhs, rhs, bound, ty):
        return VEquation(tuple(ctx), lhs, rhs, q.check(bound)), ty

    def ill_typed(message):
        return ProofError(f"{where}: ill-typed conclusion: {message}")

    def same_type():
        for ty in types[1:]:
            if ty != types[0]:
                raise ProofError(
                    f"{where}: the two sides have types "
                    f"{print_type(types[0])} and {print_type(ty)}")
        return types[0]

    match p.kind:
        case "refl":
            ctx, term = info["ctx"], info["term"]
            return leaf(ctx, term, term, q.unit)

        case "trans":
            a, b = eqs
            if a.context != b.context:
                raise ProofError("trans premises have different contexts")
            if not S.alpha_eq(a.rhs, b.lhs):
                raise ProofError(
                    "trans premises do not share the middle term")
            return out(a.context, a.lhs, b.rhs, q.tensor(a.bound, b.bound),
                       same_type())

        case "weak":
            (a,) = eqs
            target = q.check(info["q"])
            if not q.leq(target, a.bound):
                raise ProofError(
                    f"weakening target {value_repr(target)} is not below "
                    f"the proved bound {value_repr(a.bound)}")
            if not q.in_basis(target):
                raise ProofError("weakening target is not a basis element")
            return out(a.context, a.lhs, a.rhs, target, types[0])

        case "join":
            first = eqs[0]
            for a in eqs[1:]:
                if a.context != first.context \
                        or not S.alpha_eq(a.lhs, first.lhs) \
                        or not S.alpha_eq(a.rhs, first.rhs):
                    raise ProofError("join premises prove different "
                                     "equations")
            return out(first.context, first.lhs, first.rhs,
                       q.join([a.bound for a in eqs]), same_type())

        case "sym":
            if not theory.symmetric:
                raise ProofError(
                    "the symmetry rule needs a symmetric theory")
            (a,) = eqs
            return out(a.context, a.rhs, a.lhs, a.bound, types[0])

        case "perm":
            (a,) = eqs
            new_ctx = tuple(info["ctx"])
            if sorted(map(repr, new_ctx)) != sorted(map(repr, a.context)):
                raise ProofError(
                    "permutation target is not a permutation of the "
                    "premise context")
            return out(new_ctx, a.lhs, a.rhs, a.bound, types[0])

        case "axiom":
            name, params = info["name"], info.get("params", {})
            key = (name, tuple(sorted(params.items())))
            inst = instances[key] = instances.get(key) or axiom_instantiate(
                theory, name, params, memo)
            ctx, lhs, rhs = inst.context, inst.lhs, inst.rhs
            for old, new in info.get("rename", {}).items():
                names = [x for x, _ in ctx]
                if old not in names:
                    raise ProofError(f"axiom has no context variable {old}")
                if new in names:
                    raise ProofError(f"rename target {new} already used")
                ctx = tuple((new if x == old else x, ty) for x, ty in ctx)
                lhs = S.substitute(lhs, {old: S.Var(new)})
                rhs = S.substitute(rhs, {old: S.Var(new)})
            return leaf(ctx, lhs, rhs, inst.bound)

        case "schema":
            ctx, term = info["ctx"], info["term"]
            step: RewriteStep = info["step"]
            try:
                result = rewrite_term(term, step, theory.semiring)
            except MatchError as exc:
                raise ProofError(f"schema step failed: {exc}") from exc
            if info.get("flip"):
                term, result = result, term
            return leaf(ctx, term, result, q.unit)

        case "cong-subst":
            a, b = eqs
            x = info["x"]
            names = [n for n, _ in a.context]
            if x not in names:
                raise ProofError(
                    f"substitution variable {x} not in the premise context")
            i = names.index(x)
            ctx = a.context[:i] + b.context + a.context[i + 1:]
            S.check_context(ctx)
            lhs = S.substitute(a.lhs, {x: b.lhs})
            rhs = S.substitute(a.rhs, {x: b.rhs})
            # The substitution lemma: replacing x : A by a term of type A
            # keeps the type of both sides.
            x_ty = a.context[i][1]
            if types[1] != x_ty:
                raise ill_typed(
                    f"substituting a term of type {print_type(types[1])} "
                    f"for {x} : {print_type(x_ty)}")
            return out(ctx, lhs, rhs, q.tensor(a.bound, b.bound), types[0])

    return _congruence(theory, p, eqs, types, memo)


def _congruence(theory, p, eqs, types, memo):
    """A constructor's congruence: rebuild both sides around the premises'
    sides and let the typechecker type the one new node of each; every
    premise judgement of its derivation must be the premise's own."""
    q, cong, where = theory.quantale, _BY_KIND[p.kind], p.kind
    n = len(eqs) - 1 if cong.binds is None else cong.binds
    body = eqs[-1].context if eqs else ()
    if len(body) < n or (cong.binds is None and len(body) != n):
        raise ProofError(cong.unbound)
    tail = body[len(body) - n:]
    ctxs = [a.context for a in eqs[:-1]] + [body[:len(body) - n]]
    xs = tuple(x for x, _ in tail)
    tys = tuple(ty for _, ty in tail)
    lhs = cong.make(p.info, [a.lhs for a in eqs], xs, tys)
    rhs = cong.make(p.info, [a.rhs for a in eqs], xs, tys)
    ctx = _concat_contexts(ctxs, where)
    for side in (lhs, rhs):
        try:
            d = infer(theory.signature, ctx, side, theory.semiring, memo)
        except Exception as exc:
            raise ProofError(f"{where}: ill-typed conclusion: {exc}") from exc
        for i, (dp, a, ty) in enumerate(zip(d.premises, eqs, types)):
            have = dp.conclusion.context
            if i == len(eqs) - 1:
                # Binders the typechecker renamed because they clashed
                # with the conclusion's context get their names back.
                k = len(have) - n
                have = have[:k] + tuple(zip(xs, (t for _, t in have[k:])))
            if have != a.context or dp.conclusion.type != ty:
                raise ProofError(
                    f"{where}: ill-typed conclusion: premise {i} is proved "
                    f"in context {print_context(a.context)} at type "
                    f"{print_type(ty)}, the typing rule gives it "
                    f"{print_context(have)} at type "
                    f"{print_type(dp.conclusion.type)}")
    bounds = [a.bound for a in eqs]
    if cong.scale is not None:
        bounds[-1] = scalar_mul(theory.semiring, q, p.info[cong.scale],
                                bounds[-1])
    return VEquation(ctx, lhs, rhs, q.check(_tensor_all(q, bounds))), \
        d.conclusion.type


def _concat_contexts(ctxs, where):
    out = []
    seen = set()
    for ctx in ctxs:
        for name, ty in ctx:
            if name in seen:
                raise ProofError(
                    f"{where}: premise contexts share the variable {name}")
            seen.add(name)
            out.append((name, ty))
    return tuple(out)


def _tensor_all(q: Quantale, bounds):
    out = q.unit
    for b in bounds:
        out = q.tensor(out, b)
    return out


def _bang_grade(ty: S.TypeExpr):
    match ty:
        case S.BangType(g, _):
            return g
    raise ProofError(f"expected a modality type, got {print_type(ty)}")


# ---------------------------------------------------------------------------
# Synthesis

def synthesize(theory: TheorySpec, ctx: S.Context, v: S.Term, w: S.Term,
               normalize_first: bool = False):
    """Search for a proof of an equation between v and w.

    Returns (VEquation, VProof); raises SynthesisFailure when the strategy
    finds nothing, and TypeError_ when the terms do not share a judgement.
    """
    sig, sr = theory.signature, theory.semiring
    # One typing memo for both sides and both normalisations, so the first
    # step of each types only what it rebuilds.
    memo = {}
    dv = infer(sig, ctx, v, sr, memo)
    dw = infer(sig, ctx, w, sr, memo)
    if dv.conclusion.type != dw.conclusion.type:
        raise ProofError("the terms have different types")
    # Axiom instances by (name, sorted params), failures included (None).
    # validate reads both tables, so it types no node and builds no
    # instance the search already has.
    tables = (memo, {})
    try:
        proof, pctx = _synth(theory, dv, w, tables)
        proof = _to_ctx(proof, pctx, tuple(ctx))
        return validate(theory, proof, tables), proof
    except SynthesisFailure:
        if not normalize_first:
            raise
    # Normalize both sides at the unit bound and retry on the normal forms;
    # each step is a schema leaf on the term it rewrote.
    dnv, steps_v, _ = beta_normalize(sig, dv, semiring=sr, memo=memo)
    dnw, steps_w, _ = beta_normalize(sig, dw, semiring=sr, memo=memo)
    proof, pctx = _synth(theory, dnv, dnw.conclusion.term, tables)
    proof = _to_ctx(proof, pctx, tuple(ctx))

    def schema(term, step, flip):
        return VProof("schema", (), {
            "ctx": tuple(ctx), "term": term, "step": step, "flip": flip})

    forward = [schema(term, step, False) for term, step in steps_v]
    back = [schema(term, step, True) for term, step in steps_w]
    full = functools.reduce(_trans, [*forward, proof, *reversed(back)])
    return validate(theory, full, tables), full


def _trans(a, b):
    return VProof("trans", (a, b))


def _to_ctx(proof: VProof, have: S.Context, want: S.Context) -> VProof:
    if tuple(have) == tuple(want):
        return proof
    return VProof("perm", (proof,), {"ctx": tuple(want)})


def _restrict(ctx: S.Context, names) -> S.Context:
    return tuple(e for e in ctx if e[0] in names)


def _synth(theory: TheorySpec, d: Derivation, w: S.Term, tables: tuple):
    """Core recursion on the derivation d of the left side; returns
    (proof, context-of-proof)."""
    ctx, v = d.conclusion.context, d.conclusion.term

    if S.alpha_eq(v, w):
        return VProof("refl", (), {"ctx": ctx, "term": v}), ctx

    ax = _try_axioms(theory, ctx, v, w, tables)
    if ax is not None:
        return ax

    if type(v) is not type(w):
        raise SynthesisFailure(
            f"no axiom matches and the heads differ: "
            f"{print_term(v)} vs {print_term(w)}")

    # A congruence: the premises of d give every premise's context and,
    # at the end of the body's, the binders the typechecker chose.
    cong = CONGRUENCES.get(type(v))
    shape = S.SHAPES[type(v)]
    kids, binders = shape.parts(w)
    if cong is None or shape.notes(v) != shape.notes(w) \
            or len(kids) != len(d.premises):
        raise SynthesisFailure(
            f"no strategy applies to {print_term(v)} vs {print_term(w)}")
    if binders:
        body_ctx = d.premises[-1].conclusion.context
        names = [x for x, _ in body_ctx[-len(binders):]]
        kids = kids[:-1] + (_rename2(kids[-1], binders, names),)
    premises = []
    for dp, kid in zip(d.premises, kids):
        proof, pctx = _synth(theory, dp, kid, tables)
        premises.append(_to_ctx(proof, pctx, dp.conclusion.context))
    info = {key: getattr(v, attr) for key, attr in cong.info}
    return VProof(cong.kind, tuple(premises), info), sum(d.splits, ())


def _rename2(term, old_names, new_names):
    for old, new in zip(old_names, new_names):
        if old != new:
            if new in S.free_vars(term):
                raise SynthesisFailure(
                    f"cannot align binders: {new} already free")
            term = S.substitute(term, {old: S.Var(new)})
    return term


def _try_axioms(theory: TheorySpec, ctx: S.Context, v: S.Term, w: S.Term,
                tables: tuple):
    memo, instances = tables
    for name in sorted(theory.axioms):
        family = theory.axioms[name]
        for params in family.candidates(theory, v, w):
            key = (name, tuple(sorted(params.items())))
            if key not in instances:
                try:
                    instances[key] = axiom_instantiate(theory, name, params,
                                                       memo)
                except (ProofError, TypeError_):  # no instance, or ill-typed
                    instances[key] = None
            inst = instances[key]
            if inst is None:
                continue
            got = _place_axiom(theory, ctx, v, w, name, params, inst)
            if got is not None:
                return got
    return None


def _place_axiom(theory, ctx, v, w, name, params, inst: AxiomInstance):
    """Match (v, w) against an axiom instance whose context variables act
    as linear holes; place it with the substitution congruence."""
    holes = tuple(x for x, _ in inst.context)
    try:
        plugs_l = extract_plugs(inst.lhs, holes, v)
        plugs_r = extract_plugs(inst.rhs, holes, w)
    except MatchError:
        return None
    for h in holes:
        if not S.alpha_eq(plugs_l[h], plugs_r[h]):
            return None
    if not S.alpha_eq(subst_parallel(inst.lhs, plugs_l), v) \
            or not S.alpha_eq(subst_parallel(inst.rhs, plugs_l), w):
        return None
    proof = VProof("axiom", (), {"name": name, "params": params})
    out_ctx = list(inst.context)
    for h in holes:
        plug = plugs_l[h]
        if S.alpha_eq(plug, S.Var(h)):
            continue
        plug_ctx = _restrict(ctx, S.free_vars(plug))
        clash = set(S.ctx_names(tuple(plug_ctx))) \
            & {x for x, _ in out_ctx if x != h}
        if clash:
            return None
        refl = VProof("refl", (), {"ctx": plug_ctx, "term": plug})
        proof = VProof("cong-subst", (proof, refl), {"x": h})
        i = [x for x, _ in out_ctx].index(h)
        out_ctx[i:i + 1] = list(plug_ctx)
    # Remaining axiom variables must line up with equally-named, equally
    # typed context entries.
    want = dict(ctx)
    for x, ty in out_ctx:
        if x not in want or want[x] != ty:
            return None
    return proof, tuple(out_ctx)
