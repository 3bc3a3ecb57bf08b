"""Quantale-labelled equational proofs: validation and synthesis.

A proof is a tree of labelled rules.  Validation recomputes every node's
concluded equation-in-context and bound bottom-up, so a validated proof
cannot overstate its bound.  It typechecks compositionally: leaves infer
the types of their sides, every other node checks its own typing rule
against its premises' types, and the root's sides are inferred once more
(docs/proofs.md, "Trust argument").  Synthesis
is a compositional strategy: alpha-equality, axiom instances placed with
the substitution congruence, same-head congruences, and optionally a
normalize-and-retry fallback whose rewrite steps cost the unit bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
from .parser import print_context, print_term, print_type
from .quantale import (Quantale, Semiring, grade_repr, scalar_mul,
                       value_repr)
from .typecheck import infer
from .rewrite import (RewriteStep, MatchError, beta_normalize,
                      extract_plugs, rewrite_term, subst_parallel)


class ProofError(ValueError):
    pass


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
            raise ProofError(f"duplicate axiom name {family.name}")
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


CONG_KINDS = {
    "cong-op", "cong-unit-let", "cong-pair", "cong-tensor-let",
    "cong-lambda", "cong-app", "cong-derelict", "cong-discard",
    "cong-copy", "cong-promote", "cong-subst",
}

ALL_KINDS = CONG_KINDS | {
    "refl", "trans", "weak", "join", "sym", "perm", "axiom", "schema",
}


def axiom_instantiate(theory: TheorySpec, name: str,
                      params: dict) -> AxiomInstance:
    try:
        family = theory.axioms[name]
    except KeyError:
        raise ProofError(f"unknown axiom {name!r}") from None
    inst = family.instantiate(theory, dict(params))
    if not theory.quantale.in_basis(inst.bound):
        raise ProofError(f"axiom {name} bound is not a basis element")
    # Both sides must typecheck with the same judgement.
    dl = infer(theory.signature, inst.context, inst.lhs, theory.semiring)
    dr = infer(theory.signature, inst.context, inst.rhs, theory.semiring)
    if dl.conclusion.type != dr.conclusion.type:
        raise ProofError(f"axiom {name} sides have different types")
    return inst


# ---------------------------------------------------------------------------
# Validation

def validate(theory: TheorySpec, proof: VProof) -> VEquation:
    """Check a proof and return the equation-in-context it proves.

    Leaves infer the types of their two sides; every other node checks its
    own typing rule against the types of its premises.  Both sides of the
    root conclusion are inferred once more at the end.  All these
    inferences share one typing memo, so a side that shares subterms with
    a side typed before, as consecutive terms of a rewrite chain do, is
    typed only where it differs.
    """
    memo = {}
    eq, ty = _validate(theory, proof, memo)
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


def _validate(theory: TheorySpec, p: VProof, memo: dict):
    """The proved equation and the type of its sides, bottom-up."""
    q, sr = theory.quantale, theory.semiring
    sub = [_validate(theory, pr, memo) for pr in p.premises]
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
            if not eqs:
                raise ProofError("join needs at least one premise")
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
            inst = axiom_instantiate(theory, info["name"],
                                     info.get("params", {}))
            ctx, lhs, rhs = inst.context, inst.lhs, inst.rhs
            for old, new in info.get("rename", {}).items():
                names = [x for x, _ in ctx]
                if old not in names:
                    raise ProofError(f"axiom has no context variable {old}")
                if new in names:
                    raise ProofError(f"rename target {new} already used")
                ctx = tuple((new if x == old else x, ty) for x, ty in ctx)
                lhs = S.substitute(lhs, S.Var(new), old)
                rhs = S.substitute(rhs, S.Var(new), old)
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

        case "cong-op":
            opname = info["op"]
            ctx = _concat_contexts([a.context for a in eqs], where)
            lhs = S.OpApp(opname, tuple(a.lhs for a in eqs))
            rhs = S.OpApp(opname, tuple(a.rhs for a in eqs))
            sort = theory.signature.lookup(opname)
            if sort is None:
                raise ill_typed(f"unknown operation symbol {opname}")
            arg_types, result = sort
            if len(eqs) != len(arg_types):
                raise ill_typed(
                    f"operation {opname} expects {len(arg_types)} "
                    f"arguments, got {len(eqs)}")
            for i, (ty, want) in enumerate(zip(types, arg_types)):
                if ty != want:
                    raise ill_typed(
                        f"argument {i} of {opname} has type "
                        f"{print_type(ty)}, expected {print_type(want)}")
            return out(ctx, lhs, rhs, _tensor_all(q, [a.bound for a in eqs]),
                       result)

        case "cong-unit-let":
            a, b = eqs
            ctx = _concat_contexts([a.context, b.context], where)
            if types[0] != S.UnitType():
                raise ill_typed("let unit scrutinee must have the unit type")
            return out(ctx, S.UnitLet(a.lhs, b.lhs), S.UnitLet(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound), types[1])

        case "cong-pair":
            a, b = eqs
            ctx = _concat_contexts([a.context, b.context], where)
            return out(ctx, S.TensorPair(a.lhs, b.lhs),
                       S.TensorPair(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound), S.TensorType(*types))

        case "cong-app":
            a, b = eqs
            ctx = _concat_contexts([a.context, b.context], where)
            match types[0]:
                case S.LolliType(arg_ty, result):
                    if types[1] != arg_ty:
                        raise ill_typed(
                            f"function expects {print_type(arg_ty)}, "
                            f"argument has type {print_type(types[1])}")
                case other:
                    raise ill_typed(f"applied term has non-function type "
                                    f"{print_type(other)}")
            return out(ctx, S.App(a.lhs, b.lhs), S.App(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound), result)

        case "cong-tensor-let":
            a, b = eqs
            if len(b.context) < 2:
                raise ProofError(
                    "the body premise must bind the two tensor variables")
            (x, xty), (y, yty) = b.context[-2], b.context[-1]
            ctx = _concat_contexts([a.context, b.context[:-2]], where)
            match types[0]:
                case S.TensorType(left, right):
                    if (left, right) != (xty, yty):
                        raise ill_typed(
                            f"the body binds {x} : {print_type(xty)} and "
                            f"{y} : {print_type(yty)}, the scrutinee has "
                            f"type {print_type(types[0])}")
                case other:
                    raise ill_typed(f"let-tensor scrutinee has non-tensor "
                                    f"type {print_type(other)}")
            return out(ctx, S.TensorLet(a.lhs, x, y, b.lhs),
                       S.TensorLet(a.rhs, x, y, b.rhs),
                       q.tensor(a.bound, b.bound), types[1])

        case "cong-lambda":
            (a,) = eqs
            if not a.context:
                raise ProofError("the premise must bind the lambda variable")
            x, ty = a.context[-1]
            return out(a.context[:-1], S.Lambda(x, ty, a.lhs),
                       S.Lambda(x, ty, a.rhs), a.bound,
                       S.LolliType(ty, types[0]))

        case "cong-derelict":
            (a,) = eqs
            match types[0]:
                case S.BangType(g, inner) if g == sr.one:
                    pass
                case other:
                    raise ill_typed(
                        f"dereliction requires modality grade "
                        f"{grade_repr(sr.one)}, got {print_type(other)}")
            return out(a.context, S.Derelict(a.lhs), S.Derelict(a.rhs),
                       a.bound, inner)

        case "cong-discard":
            a, b = eqs
            ctx = _concat_contexts([a.context, b.context], where)
            match types[0]:
                case S.BangType(g, _) if g == sr.zero:
                    pass
                case other:
                    raise ill_typed(
                        f"discard requires modality grade "
                        f"{grade_repr(sr.zero)}, got {print_type(other)}")
            return out(ctx, S.Discard(a.lhs, b.lhs), S.Discard(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound), types[1])

        case "cong-copy":
            a, b = eqs
            if len(b.context) < 2:
                raise ProofError(
                    "the body premise must bind the two copy variables")
            (x, xty), (y, yty) = b.context[-2], b.context[-1]
            n, m = _bang_grade(xty), _bang_grade(yty)
            ctx = _concat_contexts([a.context, b.context[:-2]], where)
            match types[0]:
                case S.BangType(g, inner) if g == sr.add(n, m):
                    if (xty, yty) != (S.BangType(n, inner),
                                      S.BangType(m, inner)):
                        raise ill_typed(
                            f"the body binds {x} : {print_type(xty)} and "
                            f"{y} : {print_type(yty)}, the scrutinee has "
                            f"type {print_type(types[0])}")
                case other:
                    raise ill_typed(
                        f"copy scrutinee must have modality grade "
                        f"{grade_repr(sr.add(n, m))}, got "
                        f"{print_type(other)}")
            return out(ctx, S.Copy(n, m, a.lhs, x, y, b.lhs),
                       S.Copy(n, m, a.rhs, x, y, b.rhs),
                       q.tensor(a.bound, b.bound), types[1])

        case "cong-promote":
            r = info["r"]
            *args, body = eqs
            binders = tuple(x for x, _ in body.context)
            grades = tuple(_bang_grade(ty) for _, ty in body.context)
            if len(args) != len(binders):
                raise ProofError(
                    "promotion congruence premise count does not match the "
                    "body context")
            ctx = _concat_contexts([a.context for a in args], where)
            bound = _tensor_all(q, [a.bound for a in args])
            bound = q.tensor(bound, scalar_mul(sr, q, r, body.bound))
            for i, (ty, s, (x, xty)) in enumerate(
                    zip(types, grades, body.context)):
                match ty:
                    case S.BangType(g, inner) if g == sr.mul(r, s):
                        if xty != S.BangType(s, inner):
                            raise ill_typed(
                                f"the body binds {x} : {print_type(xty)}, "
                                f"promotion argument {i} has type "
                                f"{print_type(ty)}")
                    case other:
                        raise ill_typed(
                            f"promotion argument {i} has type "
                            f"{print_type(other)}, expected modality of "
                            f"grade {grade_repr(sr.mul(r, s))}")
            lhs = S.Promote(r, grades, tuple(a.lhs for a in args), binders,
                            body.lhs)
            rhs = S.Promote(r, grades, tuple(a.rhs for a in args), binders,
                            body.rhs)
            return out(ctx, lhs, rhs, bound, S.BangType(r, types[-1]))

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
            lhs = S.substitute(a.lhs, b.lhs, x)
            rhs = S.substitute(a.rhs, b.rhs, x)
            # The substitution lemma: replacing x : A by a term of type A
            # keeps the type of both sides.
            x_ty = a.context[i][1]
            if types[1] != x_ty:
                raise ill_typed(
                    f"substituting a term of type {print_type(types[1])} "
                    f"for {x} : {print_type(x_ty)}")
            return out(ctx, lhs, rhs, q.tensor(a.bound, b.bound), types[0])

    raise ProofError(f"unknown proof node kind {p.kind!r}")


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
    dv = infer(sig, ctx, v, sr)
    dw = infer(sig, ctx, w, sr)
    if dv.conclusion.type != dw.conclusion.type:
        raise ProofError("the terms have different types")
    # Axiom instances by (name, sorted params), failures included; only the
    # search reads them, and validate instantiates every axiom again.
    instances = {}
    try:
        proof, pctx = _synth(theory, tuple(ctx), v, w, instances)
        proof = _to_ctx(proof, pctx, tuple(ctx))
        return validate(theory, proof), proof
    except SynthesisFailure:
        if not normalize_first:
            raise
    # Normalize both sides at the unit bound and retry on the normal forms.
    dnv, steps_v, _ = beta_normalize(sig, dv, semiring=sr)
    dnw, steps_w, _ = beta_normalize(sig, dw, semiring=sr)
    nv, nw = dnv.conclusion.term, dnw.conclusion.term
    proof, pctx = _synth(theory, tuple(ctx), nv, nw, instances)
    proof = _to_ctx(proof, pctx, tuple(ctx))
    chain = _step_chain(ctx, v, steps_v, flip=False)
    back = _step_chain(ctx, w, steps_w, flip=True)
    for node in [proof] + back:
        chain = _trans(chain, node) if chain is not None else node
    full = chain
    return validate(theory, full), full


def _trans(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return VProof("trans", (a, b))


def _step_chain(ctx, term, steps, flip: bool):
    """Schema-step nodes tracing a normalization; flipped when the chain
    must run from the normal form back to the source term."""
    nodes = []
    current = term
    for step in steps:
        nxt = rewrite_term(current, step)
        nodes.append(VProof("schema", (), {
            "ctx": tuple(ctx), "term": current, "step": step, "flip": flip}))
        current = nxt
    if flip:
        nodes.reverse()
        return nodes
    chain = None
    for n in nodes:
        chain = _trans(chain, n)
    return chain


def _to_ctx(proof: VProof, have: S.Context, want: S.Context) -> VProof:
    if tuple(have) == tuple(want):
        return proof
    return VProof("perm", (proof,), {"ctx": tuple(want)})


def _restrict(ctx: S.Context, names) -> S.Context:
    return tuple(e for e in ctx if e[0] in names)


def _synth(theory: TheorySpec, ctx: S.Context, v: S.Term, w: S.Term,
           instances: dict):
    """Core recursion; returns (proof, context-of-proof)."""
    sig, sr = theory.signature, theory.semiring

    if S.alpha_eq(v, w):
        return VProof("refl", (), {"ctx": ctx, "term": v}), ctx

    ax = _try_axioms(theory, ctx, v, w, instances)
    if ax is not None:
        return ax

    if type(v) is not type(w):
        raise SynthesisFailure(
            f"no axiom matches and the heads differ: "
            f"{print_term(v)} vs {print_term(w)}")

    def rec(sub_ctx, a, b):
        proof, pctx = _synth(theory, sub_ctx, a, b, instances)
        return _to_ctx(proof, pctx, sub_ctx)

    def split2(a1, a2, b1, b2):
        if S.free_vars(a1) != S.free_vars(b1) \
                or S.free_vars(a2) != S.free_vars(b2):
            raise SynthesisFailure("subterm variable usage differs between "
                                   "the sides")
        c1 = _restrict(ctx, S.free_vars(a1))
        c2 = _restrict(ctx, S.free_vars(a2))
        return c1, c2

    match v, w:
        case (S.OpApp(f, vs), S.OpApp(g, ws)) \
                if f == g and len(vs) == len(ws):
            parts = [_restrict(ctx, S.free_vars(a)) for a in vs]
            for a, b in zip(vs, ws):
                if S.free_vars(a) != S.free_vars(b):
                    raise SynthesisFailure("argument variable usage differs")
            premises = tuple(rec(c, a, b)
                             for c, a, b in zip(parts, vs, ws))
            out_ctx = _concat_contexts(parts, "cong-op")
            return VProof("cong-op", premises, {"op": f}), out_ctx

        case (S.UnitLet(v1, v2), S.UnitLet(w1, w2)):
            c1, c2 = split2(v1, v2, w1, w2)
            node = VProof("cong-unit-let",
                          (rec(c1, v1, w1), rec(c2, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-unit-let")

        case (S.TensorPair(v1, v2), S.TensorPair(w1, w2)):
            c1, c2 = split2(v1, v2, w1, w2)
            node = VProof("cong-pair", (rec(c1, v1, w1), rec(c2, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-pair")

        case (S.App(v1, v2), S.App(w1, w2)):
            c1, c2 = split2(v1, v2, w1, w2)
            node = VProof("cong-app", (rec(c1, v1, w1), rec(c2, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-app")

        case (S.TensorLet(v1, x, y, v2), S.TensorLet(w1, wx, wy, w2)):
            w2 = _rename2(w2, (wx, wy), (x, y))
            c1, c2 = split2(v1, v2, w1, w2)
            d1 = infer(sig, c1, v1, sr)
            match d1.conclusion.type:
                case S.TensorType(a, b):
                    inner = c2 + ((x, a), (y, b))
                case _:
                    raise SynthesisFailure("scrutinee is not a tensor")
            node = VProof("cong-tensor-let",
                          (rec(c1, v1, w1), rec(inner, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-tensor-let")

        case (S.Lambda(x, ty, v1), S.Lambda(wx, wty, w1)) if ty == wty:
            w1 = _rename2(w1, (wx,), (x,))
            inner = ctx + ((x, ty),)
            return VProof("cong-lambda", (rec(inner, v1, w1),)), ctx

        case (S.Derelict(v1), S.Derelict(w1)):
            return VProof("cong-derelict", (rec(ctx, v1, w1),)), ctx

        case (S.Discard(v1, v2), S.Discard(w1, w2)):
            c1, c2 = split2(v1, v2, w1, w2)
            node = VProof("cong-discard",
                          (rec(c1, v1, w1), rec(c2, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-discard")

        case (S.Copy(n, m, v1, x, y, v2), S.Copy(wn, wm, w1, wx, wy, w2)) \
                if n == wn and m == wm:
            w2 = _rename2(w2, (wx, wy), (x, y))
            c1, c2 = split2(v1, v2, w1, w2)
            d1 = infer(sig, c1, v1, sr)
            match d1.conclusion.type:
                case S.BangType(_, a):
                    inner = c2 + ((x, S.BangType(n, a)),
                                  (y, S.BangType(m, a)))
                case _:
                    raise SynthesisFailure("copy scrutinee has no modality")
            node = VProof("cong-copy",
                          (rec(c1, v1, w1), rec(inner, v2, w2)))
            return node, _concat_contexts([c1, c2], "cong-copy")

        case (S.Promote(r, ss, vs, xs, v2),
              S.Promote(wr, wss, ws, wxs, w2)) \
                if r == wr and ss == wss and len(vs) == len(ws):
            w2 = _rename2(w2, wxs, xs)
            parts = [_restrict(ctx, S.free_vars(a)) for a in vs]
            for a, b in zip(vs, ws):
                if S.free_vars(a) != S.free_vars(b):
                    raise SynthesisFailure("argument variable usage differs")
            body_ctx = []
            for part, a, s, x in zip(parts, vs, ss, xs):
                d = infer(sig, part, a, sr)
                match d.conclusion.type:
                    case S.BangType(_, inner_ty):
                        body_ctx.append((x, S.BangType(s, inner_ty)))
                    case _:
                        raise SynthesisFailure(
                            "promotion argument has no modality")
            premises = tuple(rec(c, a, b)
                             for c, a, b in zip(parts, vs, ws))
            premises += (rec(tuple(body_ctx), v2, w2),)
            node = VProof("cong-promote", premises, {"r": r})
            return node, _concat_contexts(parts, "cong-promote")

    raise SynthesisFailure(
        f"no strategy applies to {print_term(v)} vs {print_term(w)}")


def _rename2(term, old_names, new_names):
    for old, new in zip(old_names, new_names):
        if old != new:
            if new in S.free_vars(term):
                raise SynthesisFailure(
                    f"cannot align binders: {new} already free")
            term = S.substitute(term, S.Var(new), old)
    return term


def _try_axioms(theory: TheorySpec, ctx: S.Context, v: S.Term, w: S.Term,
                instances: dict):
    for name in sorted(theory.axioms):
        family = theory.axioms[name]
        for params in family.candidates(theory, v, w):
            key = (name, tuple(sorted(params.items())))
            if key not in instances:
                try:
                    instances[key] = axiom_instantiate(theory, name, params)
                except ProofError:
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
