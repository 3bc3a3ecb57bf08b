"""Deliberately naive reference implementations for cross-checking.

Nothing here shares the strategy of the primary implementations:
enumeration is by unpruned generate-and-filter, an axiom line's bound
expression is read by sympy, axiom instances are parsed from their
source text with the parameter values substituted, the total variation
is the excess mass of one distribution on the event where it exceeds
the other, the urn distance enumerates both samplers' draw sequences,
the Gaussian label leaves its radicand's sign to sympy, proofs are
validated by typechecking both sides of every node from scratch,
normalisation scans every position from the root and re-types every
step from scratch, and model interpretation builds a fresh space at
every use of a type, tabulates every lambda, walks the derivation at
every point and checks every pair of points, with distances computed as
Fractions by recursion over each space's structure rather than in
metmodel's integer units.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import syntax as S
from .metmodel import (ExplicitSpace, FinMetSpace, FuncSpace, GuardExceeded,
                       MetMap, ModelAssignment, ModelError, OnePointSpace,
                       ProductSpace, ScaledSpace, TimedSpace, guard_limit)
from .parser import parse_context, parse_term, print_type, subst_tokens
from .probmodel import (FinDist, ProbError, no_replace_sampler,
                        replace_sampler, tv_distance)
from .quantale import (NatSemiring, Semiring, SymbolicBound, num_cmp,
                       scalar_mul, value_repr)
from .rewrite import (_ROWS, ORIENTED, EngineError, MatchError, RewriteStep,
                      all_positions, get_subterm, rewrite_term, term_size)
from .theory import _int_param
from .typecheck import Derivation, _check_variable_use, _infer, check_grounds
from .vequation import (AxiomInstance, ProofError, TheoryError, TheorySpec,
                        VEquation, VProof, _bang_grade, _concat_contexts,
                        _tensor_all, axiom_instantiate, check_arity)


def reference_dist(space: FinMetSpace, a, b) -> Fraction:
    """The distance of a and b in space as a Fraction, by recursion over
    the space's structure, not through the integer distances of
    metmodel: the given table of an explicit space, |a - b| ticks, the
    sum over the factors of a product, n times the base of a scaled
    space, the sup over the entries of two maps."""
    match space:
        case OnePointSpace():
            return Fraction(0)
        case TimedSpace():
            return Fraction(abs(a - b))
        case ExplicitSpace():
            return Fraction(0) if a == b else Fraction(space._dist[(a, b)])
        case ProductSpace():
            return sum((reference_dist(f, x, y)
                        for f, x, y in zip(space.factors, a, b)), Fraction(0))
        case ScaledSpace():
            return space.n * reference_dist(space.base, a, b)
        case FuncSpace():
            return max((reference_dist(space.cod, x, y)
                        for x, y in zip(a, b)), default=Fraction(0))
    raise ModelError(f"no reference distance for the space {space!r}")


def enumerate_nonexpansive(x: FinMetSpace, y: FinMetSpace):
    """All non-expansive tables from x to y by exhaustive filtering, with
    the distances of reference_dist."""
    xs, ys = x.points, y.points
    if len(ys) ** len(xs) > guard_limit():
        raise GuardExceeded(
            f"{len(ys)}^{len(xs)} candidate tables exceed the guard")
    out = []
    for table in itertools.product(ys, repeat=len(xs)):
        ok = True
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                if num_cmp(reference_dist(y, table[i], table[j]),
                           reference_dist(x, a, b)) > 0:
                    ok = False
        if ok:
            out.append(table)
    return out


def brute_tv(p: FinDist, q: FinDist) -> Fraction:
    """Total-variation distance as the largest p(A) - q(A) over events A.

    The event {o : p(o) > q(o)} attains it at every support size
    (Scheffe, Ann. Math. Stat. 1947), so one pass over p's support sums
    the excess of p over q there.
    """
    qd = q.as_dict()
    return sum((pr - qd.get(o, 0) for o, pr in p.probs
                if pr > qd.get(o, 0)), Fraction(0))


def reference_urn_tv(k: int, m: int, n: int) -> Fraction:
    """The urn distance of `probmodel.urn_tv` over the 2^k draw sequences
    of each sampler (bounded by `GVLAM_GUARD`)."""
    return tv_distance(replace_sampler(k, m, n), no_replace_sampler(k, m, n))


def reference_gaussian_phi(k, mu1, sigma1, mu2, sigma2):
    """`probmodel.gaussian_phi` with the radicand's zero test and sign left
    to sympy."""
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


def reference_eval_bound(src: str, values: dict):
    """The value of an axiom line's bound expression src at the parameter
    values, as `theory`'s exact evaluator computes it, read by sympy."""
    import sympy
    locals_ = {p: sympy.Rational(v) for p, v in values.items()}
    locals_["abs"] = sympy.Abs
    try:
        expr = sympy.sympify(src, locals=locals_)
    except (sympy.SympifyError, TypeError) as exc:
        raise TheoryError(f"bad bound expression {src!r}: {exc}") from exc
    expr = sympy.nsimplify(expr)
    if not expr.is_Rational:
        raise TheoryError(f"bound expression {src!r} is not rational")
    value = Fraction(int(expr.p), int(expr.q))
    if value < 0:
        raise TheoryError(f"bound expression {src!r} is negative")
    return value


def reference_instantiate(family, theory: TheorySpec,
                          params: dict) -> AxiomInstance:
    """`theory.AxiomTemplate.instantiate` by substituting the parameter
    values into the template's source text and parsing it, as every
    instance was built before rewrite.fill wrote them into parsed sides."""
    values = {p: _int_param(params, p) for p in family.params}
    bound = family.bound(values)
    values.update((p, f(values)) for p, f in family.derived.items())
    ctx, lhs, rhs = (subst_tokens(src, values) for src in family.srcs)
    return AxiomInstance(family.name, parse_context(ctx), parse_term(lhs),
                         parse_term(rhs), bound)


# ---------------------------------------------------------------------------
# Typing and normalisation

def reference_infer(sig: S.Signature, ctx: S.Context, term: S.Term,
                    semiring: Semiring = NatSemiring()) -> Derivation:
    """The derivation of ctx |- term with no memo shared between calls.

    The reference for typecheck.infer: the variable-use checks run first,
    then the term is typed on a fresh table.
    """
    ctx = S.check_context(ctx)
    for _, ty in ctx:
        check_grounds(sig, ty)
    _check_variable_use(ctx, term)
    return _infer(sig, semiring, ctx, term, (), {})


def reference_beta_normalize(sig: S.Signature, d: Derivation,
                             fuel: int = None,
                             semiring: Semiring = NatSemiring()):
    """rewrite.beta_normalize, finding each redex by trying every oriented
    row at every position, each position looked up from the root, and
    typing every step's term from scratch.  Each step is paired with the
    term it rewrote."""

    def find(term):
        for pos in all_positions(term):
            sub = get_subterm(term, pos)
            for schema in ORIENTED:
                try:
                    _ROWS[schema].l2r(sub, {}, semiring)
                except MatchError:
                    continue
                return RewriteStep(schema, pos, "L2R")
        return None

    if fuel is None:
        fuel = 10 * term_size(d.conclusion.term)
    steps = []
    current = d
    for _ in range(fuel):
        step = find(current.conclusion.term)
        if step is None:
            return current, steps, False
        term = rewrite_term(current.conclusion.term, step, semiring)
        out = reference_infer(sig, current.conclusion.context, term,
                              semiring)
        if out.conclusion.type != current.conclusion.type:
            raise EngineError(
                f"rewrite by {step.schema.value} changed the type of the "
                f"judgement")
        steps.append((current.conclusion.term, step))
        current = out
    return current, steps, find(current.conclusion.term) is not None


# ---------------------------------------------------------------------------
# Model interpretation

def reference_interp(m, d: Derivation) -> MetMap:
    """metmodel.interp without its memo, its shortcut, its compiler and
    its edge check: each use of a type builds its space afresh, so a
    function space is enumerated again at every lambda, every lambda,
    applied or not, is tabulated over its whole domain, the derivation is
    walked again at every point, and the map is checked on every pair of
    points."""

    def space(ty):
        return ModelAssignment(m.sig, m.grounds, m._op_fn).space(ty)

    ctx = d.conclusion.context
    dom = ProductSpace(tuple(space(ty) for _, ty in ctx))
    cod = space(d.conclusion.type)
    names = [x for x, _ in ctx]
    table = {pt: _reference_eval(m, space, d, dict(zip(names, pt)))
             for pt in dom.points}
    pair = reference_nonexpansive(dom, cod, table)
    if pair is not None:
        raise ModelError(f"map is expansive on the pair {pair[0]}, {pair[1]}")
    return MetMap(dom, cod, table)


def reference_nonexpansive(dom: FinMetSpace, cod: FinMetSpace, table: dict):
    """The first pair of domain points, in point order, on which the table
    expands distances, or None: every pair is compared, not only the
    edges that MetMap checks, with the distances of reference_dist (a
    pair with equal images is at distance 0 in cod)."""
    pts = dom.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            fx, fy = table[x], table[y]
            if fx != fy and num_cmp(reference_dist(cod, fx, fy),
                                    reference_dist(dom, x, y)) > 0:
                return x, y
    return None


def _reference_eval(m, space, d: Derivation, env: dict):
    term = d.conclusion.term
    go = lambda p, e=env: _reference_eval(m, space, p, e)
    match term:
        case S.Var(x):
            return env[x]
        case S.Star():
            return ()
        case S.OpApp(op, _):
            fn = m.op(op)
            return fn(*(go(p) for p in d.premises))
        case S.UnitLet(_, _):
            go(d.premises[0])
            return go(d.premises[1])
        case S.TensorPair(_, _):
            return (go(d.premises[0]), go(d.premises[1]))
        case S.TensorLet(_, _, _, _):
            val = go(d.premises[0])
            body = d.premises[1]
            x, y = body.conclusion.context[-2][0], \
                body.conclusion.context[-1][0]
            return go(body, {**env, x: val[0], y: val[1]})
        case S.Lambda(_, ty, _):
            body = d.premises[0]
            x = body.conclusion.context[-1][0]
            return tuple(go(body, {**env, x: p}) for p in space(ty).points)
        case S.App(_, _):
            fval = go(d.premises[0])
            aval = go(d.premises[1])
            dom = space(d.premises[0].conclusion.type.arg)
            return fval[dom.index(aval)]
        case S.Promote(r, _, _, _, _):
            if r == 0:
                for p in d.premises[:-1]:
                    go(p)
                return ()
            body = d.premises[-1]
            inner = {body.conclusion.context[i][0]: go(p)
                     for i, p in enumerate(d.premises[:-1])}
            return go(body, inner)
        case S.Derelict(_):
            return go(d.premises[0])
        case S.Discard(_, _):
            go(d.premises[0])
            return go(d.premises[1])
        case S.Copy(n, k, _, _, _, _):
            val = go(d.premises[0])
            body = d.premises[1]
            x, y = body.conclusion.context[-2][0], \
                body.conclusion.context[-1][0]
            return go(body, {**env, x: () if n == 0 else val,
                             y: () if k == 0 else val})
    raise ModelError(f"unknown term node {term!r}")


# ---------------------------------------------------------------------------
# Proof validation

def _reinfer_eq(theory, ctx, lhs, rhs, where):
    try:
        dl = reference_infer(theory.signature, ctx, lhs, theory.semiring)
        dr = reference_infer(theory.signature, ctx, rhs, theory.semiring)
    except Exception as exc:
        raise ProofError(f"{where}: ill-typed conclusion: {exc}") from exc
    if dl.conclusion.type != dr.conclusion.type:
        raise ProofError(
            f"{where}: the two sides have types "
            f"{print_type(dl.conclusion.type)} and "
            f"{print_type(dr.conclusion.type)}")
    return dl


def reinfer_validate(theory: TheorySpec, p: VProof) -> VEquation:
    """The equation a proof proves, inferring both sides at every node.

    The reference for vequation.validate, which infers only at the leaves
    and the root.  The structural rules are shared; the typing is not.
    """
    q = theory.quantale
    check_arity(p)
    sub = [reinfer_validate(theory, pr) for pr in p.premises]
    info = p.info
    where = p.kind

    def out(ctx, lhs, rhs, bound):
        _reinfer_eq(theory, ctx, lhs, rhs, where)
        return VEquation(tuple(ctx), lhs, rhs, q.check(bound))

    match p.kind:
        case "refl":
            ctx, term = info["ctx"], info["term"]
            return out(ctx, term, term, q.unit)

        case "trans":
            a, b = sub
            if a.context != b.context:
                raise ProofError("trans premises have different contexts")
            if not S.alpha_eq(a.rhs, b.lhs):
                raise ProofError(
                    "trans premises do not share the middle term")
            return out(a.context, a.lhs, b.rhs, q.tensor(a.bound, b.bound))

        case "weak":
            (a,) = sub
            target = q.check(info["q"])
            if not q.leq(target, a.bound):
                raise ProofError(
                    f"weakening target {value_repr(target)} is not below "
                    f"the proved bound {value_repr(a.bound)}")
            if not q.in_basis(target):
                raise ProofError("weakening target is not a basis element")
            return out(a.context, a.lhs, a.rhs, target)

        case "join":
            first = sub[0]
            for a in sub[1:]:
                if a.context != first.context \
                        or not S.alpha_eq(a.lhs, first.lhs) \
                        or not S.alpha_eq(a.rhs, first.rhs):
                    raise ProofError("join premises prove different "
                                     "equations")
            return out(first.context, first.lhs, first.rhs,
                       q.join([a.bound for a in sub]))

        case "sym":
            if not theory.symmetric:
                raise ProofError(
                    "the symmetry rule needs a symmetric theory")
            (a,) = sub
            return out(a.context, a.rhs, a.lhs, a.bound)

        case "perm":
            (a,) = sub
            new_ctx = tuple(info["ctx"])
            if sorted(map(repr, new_ctx)) != sorted(map(repr, a.context)):
                raise ProofError(
                    "permutation target is not a permutation of the "
                    "premise context")
            return out(new_ctx, a.lhs, a.rhs, a.bound)

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
                lhs = S.substitute(lhs, {old: S.Var(new)})
                rhs = S.substitute(rhs, {old: S.Var(new)})
            return out(ctx, lhs, rhs, inst.bound)

        case "schema":
            ctx, term = info["ctx"], info["term"]
            step: RewriteStep = info["step"]
            try:
                result = rewrite_term(term, step, theory.semiring)
            except MatchError as exc:
                raise ProofError(f"schema step failed: {exc}") from exc
            if info.get("flip"):
                term, result = result, term
            return out(ctx, term, result, q.unit)

        case "cong-op":
            opname = info["op"]
            ctx = _concat_contexts([a.context for a in sub], where)
            lhs = S.OpApp(opname, tuple(a.lhs for a in sub))
            rhs = S.OpApp(opname, tuple(a.rhs for a in sub))
            return out(ctx, lhs, rhs, _tensor_all(q, [a.bound for a in sub]))

        case "cong-unit-let":
            a, b = sub
            ctx = _concat_contexts([a.context, b.context], where)
            return out(ctx, S.UnitLet(a.lhs, b.lhs),
                       S.UnitLet(a.rhs, b.rhs), q.tensor(a.bound, b.bound))

        case "cong-pair":
            a, b = sub
            ctx = _concat_contexts([a.context, b.context], where)
            return out(ctx, S.TensorPair(a.lhs, b.lhs),
                       S.TensorPair(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound))

        case "cong-app":
            a, b = sub
            ctx = _concat_contexts([a.context, b.context], where)
            return out(ctx, S.App(a.lhs, b.lhs), S.App(a.rhs, b.rhs),
                       q.tensor(a.bound, b.bound))

        case "cong-tensor-let":
            a, b = sub
            if len(b.context) < 2:
                raise ProofError(
                    "the body premise must bind the two tensor variables")
            (x, _), (y, _) = b.context[-2], b.context[-1]
            ctx = _concat_contexts([a.context, b.context[:-2]], where)
            return out(ctx, S.TensorLet(a.lhs, x, y, b.lhs),
                       S.TensorLet(a.rhs, x, y, b.rhs),
                       q.tensor(a.bound, b.bound))

        case "cong-lambda":
            (a,) = sub
            if not a.context:
                raise ProofError("the premise must bind the lambda variable")
            x, ty = a.context[-1]
            return out(a.context[:-1], S.Lambda(x, ty, a.lhs),
                       S.Lambda(x, ty, a.rhs), a.bound)

        case "cong-derelict":
            (a,) = sub
            return out(a.context, S.Derelict(a.lhs), S.Derelict(a.rhs),
                       a.bound)

        case "cong-discard":
            a, b = sub
            ctx = _concat_contexts([a.context, b.context], where)
            return out(ctx, S.Discard(a.lhs, b.lhs),
                       S.Discard(a.rhs, b.rhs), q.tensor(a.bound, b.bound))

        case "cong-copy":
            a, b = sub
            if len(b.context) < 2:
                raise ProofError(
                    "the body premise must bind the two copy variables")
            (x, xty), (y, yty) = b.context[-2], b.context[-1]
            n, m = _bang_grade(xty), _bang_grade(yty)
            ctx = _concat_contexts([a.context, b.context[:-2]], where)
            return out(ctx, S.Copy(n, m, a.lhs, x, y, b.lhs),
                       S.Copy(n, m, a.rhs, x, y, b.rhs),
                       q.tensor(a.bound, b.bound))

        case "cong-promote":
            r = info["r"]
            *args, body = sub
            binders = tuple(x for x, _ in body.context)
            grades = tuple(_bang_grade(ty) for _, ty in body.context)
            if len(args) != len(binders):
                raise ProofError(
                    "promotion congruence premise count does not match the "
                    "body context")
            ctx = _concat_contexts([a.context for a in args], where)
            bound = _tensor_all(q, [a.bound for a in args])
            bound = q.tensor(bound, scalar_mul(theory.semiring, q, r,
                                               body.bound))
            lhs = S.Promote(r, grades, tuple(a.lhs for a in args), binders,
                            body.lhs)
            rhs = S.Promote(r, grades, tuple(a.rhs for a in args), binders,
                            body.rhs)
            return out(ctx, lhs, rhs, bound)

        case "cong-subst":
            a, b = sub
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
            return out(ctx, lhs, rhs, q.tensor(a.bound, b.bound))

    raise ProofError(f"unknown proof node kind {p.kind!r}")
