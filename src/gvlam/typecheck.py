"""Typechecking: reconstruct the unique derivation of a judgement.

The context of a judgement must mention exactly the free variables of the
term, each used exactly once; grades account for non-linear use through the
modality.  At every term constructor the context is partitioned by
free-variable ownership of the subterms, which makes the premise contexts
order-preserving subsequences of the conclusion context and therefore a
valid shuffle by construction.  Free-variable ownership is read from
syntax.free_vars, which each node computes once.  A table maps each typed
node's id to its derivation, whose conclusion holds the node and the
context it was inferred in, so a caller that re-types a rewritten term
with the table of an earlier call visits only the nodes the rewrite
rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .parser import print_term, print_type, print_context
from .quantale import Semiring, NatSemiring, grade_repr


class TypeError_(ValueError):
    """path is where the error is: () at the root, else (parent, step),
    the parent node's path and the step from it; .path is the flat tuple
    of steps, outermost first."""

    def __init__(self, message, path=()):
        steps = []
        while path:
            path, step = path
            steps.append(step)
        self.path = tuple(reversed(steps))
        if self.path:
            message = f"at {'/'.join(self.path)}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Judgement:
    context: S.Context
    term: S.Term
    type: S.TypeExpr

    def __str__(self):
        ctx = print_context(self.context)
        return f"{ctx} |- {print_term(self.term)} : {print_type(self.type)}"


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Judgement
    premises: tuple
    splits: tuple  # premise contexts, as subsequences of the conclusion ctx


def _split_context(ctx: S.Context, owners, path):
    """Partition ctx into subsequences by free-variable ownership.

    owners is a list of variable-name sets, one per premise.  Every context
    variable must belong to exactly one owner.
    """
    parts = [[] for _ in owners]
    for entry in ctx:
        name = entry[0]
        hits = [i for i, fv in enumerate(owners) if name in fv]
        if not hits:
            raise TypeError_(f"variable {name} unused by the term", path)
        if len(hits) > 1:
            raise TypeError_(f"variable {name} used by several subterms",
                             path)
        parts[hits[0]].append(entry)
    return [tuple(p) for p in parts]


def _rename_binders(binders, body, taken):
    """Give fresh names to binders clashing with names in `taken`."""
    new, renames = [], {}
    for b in binders:
        if b in taken:
            nb = S.fresh_name(b, taken | set(new) | S.all_names(body))
            renames[b] = S.Var(nb)
            b = nb
        new.append(b)
    return tuple(new), S.substitute(body, renames)


def infer(sig: S.Signature, ctx: S.Context, term: S.Term,
          semiring: Semiring = NatSemiring(), memo: dict = None) -> Derivation:
    """The derivation of ctx |- term, or TypeError_.

    memo is the table of an earlier call with the same signature and
    semiring, for a caller that types a chain of terms sharing subterms;
    it must not outlive that caller.  Plain calls get a fresh table.
    """
    ctx = S.check_context(ctx)
    for _, ty in ctx:
        check_grounds(sig, ty)
    table = {} if memo is None else memo
    try:
        return _infer(sig, semiring, ctx, term, (), table)
    except Exception:
        # A successful _infer implies every check below: each context
        # variable reaches exactly one variable leaf, and every leaf's
        # variable is in its context.  They run only to report a failure
        # with the message of the first one that fails.
        _check_variable_use(ctx, term)
        raise


def check_grounds(sig: S.Signature, ty: S.TypeExpr, path=()):
    """Raise TypeError_ if ty names a ground type sig does not declare.

    infer checks the context and each lambda annotation: every other type
    in a derivation is built from those and from operation sorts.
    """
    match ty:
        case S.Ground(name) if name not in sig.grounds:
            raise TypeError_(f"undeclared ground type {name}", path)
        case S.TensorType(a, b) | S.LolliType(a, b):
            check_grounds(sig, a, path)
            check_grounds(sig, b, path)
        case S.BangType(_, body):
            check_grounds(sig, body, path)


def _check_variable_use(ctx, term):
    counts = S.free_var_counts(term)
    for name, n in counts.items():
        if n > 1:
            raise TypeError_(f"variable {name} used twice")
    extra = [x for x, _ in ctx if x not in counts]
    bound = dict(ctx)
    missing = [x for x in counts if x not in bound]
    if missing:
        raise TypeError_(f"unbound variable {missing[0]}")
    if extra:
        raise TypeError_(f"variable {extra[0]} unused by the term")


def check(sig: S.Signature, ctx: S.Context, term: S.Term, ty: S.TypeExpr,
          semiring: Semiring = NatSemiring()) -> Derivation:
    d = infer(sig, ctx, term, semiring)
    if d.conclusion.type != ty:
        raise TypeError_(
            f"type mismatch: inferred {print_type(d.conclusion.type)}, "
            f"expected {print_type(ty)}")
    return d


def _conclude(table, ctx, term, rule, ty, premises, splits) -> Derivation:
    """The derivation of ctx |- term : ty by rule, remembered in table."""
    d = Derivation(rule, Judgement(ctx, term, ty),
                   tuple(premises), tuple(splits))
    table[id(term)] = d
    return d


def _infer(sig, semiring, ctx, term, path, table) -> Derivation:
    """path is this node's place for error messages: () at the root, else
    (the parent's path, the step from the parent), as TypeError_ reads it."""
    d = table.get(id(term))
    if d is not None and d.conclusion.context == ctx:
        return d

    match term:
        case S.Var(name):
            if len(ctx) != 1 or ctx[0][0] != name:
                raise TypeError_(f"unbound variable {name}", path)
            return _conclude(table, ctx, term, "hp", ctx[0][1], (), ())

        case S.Star():
            if ctx:
                raise TypeError_(
                    f"variable {ctx[0][0]} unused by the term", path)
            return _conclude(table, ctx, term, "I_i", S.UnitType(), (), ())

        case S.OpApp(op, args):
            sort = sig.lookup(op)
            if sort is None:
                raise TypeError_(f"unknown operation symbol {op}", path)
            arg_types, result = sort
            if len(args) != len(arg_types):
                raise TypeError_(
                    f"operation {op} expects {len(arg_types)} arguments, "
                    f"got {len(args)}", path)
            parts = _split_context(
                ctx, [S.free_vars(a) for a in args], path)
            premises = []
            for i, (part, a, want) in enumerate(zip(parts, args, arg_types)):
                d = _infer(sig, semiring, part, a, (path, f"{op}#{i}"), table)
                if d.conclusion.type != want:
                    raise TypeError_(
                        f"argument {i} of {op} has type "
                        f"{print_type(d.conclusion.type)}, expected "
                        f"{print_type(want)}", path)
                premises.append(d)
            return _conclude(table, ctx, term, "ax", result, premises, parts)

        case S.UnitLet(value, body):
            gv, gb = _split_context(
                ctx, [S.free_vars(value), S.free_vars(body)], path)
            dv = _infer(sig, semiring, gv, value, (path, "let-unit-value"),
                        table)
            if dv.conclusion.type != S.UnitType():
                raise TypeError_(
                    "let unit scrutinee must have the unit type", path)
            db = _infer(sig, semiring, gb, body, (path, "let-unit-body"),
                        table)
            return _conclude(table, ctx, term, "I_e", db.conclusion.type,
                             (dv, db), (gv, gb))

        case S.TensorPair(left, right):
            gl, gr = _split_context(
                ctx, [S.free_vars(left), S.free_vars(right)], path)
            dl = _infer(sig, semiring, gl, left, (path, "pair-left"), table)
            dr_ = _infer(sig, semiring, gr, right, (path, "pair-right"),
                         table)
            ty = S.TensorType(dl.conclusion.type, dr_.conclusion.type)
            return _conclude(table, ctx, term, "tensor_i", ty, (dl, dr_),
                             (gl, gr))

        case S.TensorLet(value, x, y, body):
            (x, y), body = _rename_binders((x, y), body,
                                           set(S.ctx_names(ctx)))
            gv, gb = _split_context(
                ctx, [S.free_vars(value), S.free_vars(body) - {x, y}], path)
            dv = _infer(sig, semiring, gv, value, (path, "let-tensor-value"),
                        table)
            match dv.conclusion.type:
                case S.TensorType(a, b):
                    db = _infer(sig, semiring, gb + ((x, a), (y, b)), body,
                                (path, "let-tensor-body"), table)
                    return _conclude(table, ctx, term, "tensor_e",
                                     db.conclusion.type, (dv, db), (gv, gb))
                case other:
                    raise TypeError_(
                        f"let-tensor scrutinee has non-tensor type "
                        f"{print_type(other)}", path)

        case S.Lambda(x, ty, body):
            check_grounds(sig, ty, path)
            (x,), body = _rename_binders((x,), body, set(S.ctx_names(ctx)))
            db = _infer(sig, semiring, ctx + ((x, ty),), body,
                        (path, "fn-body"), table)
            return _conclude(table, ctx, term, "lolli_i",
                             S.LolliType(ty, db.conclusion.type), (db,),
                             (ctx,))

        case S.App(fn, arg):
            gf, ga = _split_context(
                ctx, [S.free_vars(fn), S.free_vars(arg)], path)
            df = _infer(sig, semiring, gf, fn, (path, "app-fn"), table)
            match df.conclusion.type:
                case S.LolliType(a, b):
                    da = _infer(sig, semiring, ga, arg, (path, "app-arg"),
                                table)
                    if da.conclusion.type != a:
                        raise TypeError_(
                            f"function expects {print_type(a)}, argument "
                            f"has type {print_type(da.conclusion.type)}",
                            path)
                    return _conclude(table, ctx, term, "lolli_e", b,
                                     (df, da), (gf, ga))
                case other:
                    raise TypeError_(
                        f"applied term has non-function type "
                        f"{print_type(other)}", path)

        case S.Promote(r, grades, args, binders, body):
            binders, body = _rename_binders(binders, body,
                                            set(S.ctx_names(ctx)))
            parts = _split_context(
                ctx, [S.free_vars(a) for a in args], path)
            premises = []
            body_ctx = []
            for i, (part, a, s) in enumerate(zip(parts, args, grades)):
                d = _infer(sig, semiring, part, a,
                           (path, f"promote-arg#{i}"), table)
                match d.conclusion.type:
                    case S.BangType(g, inner) if g == semiring.mul(r, s):
                        body_ctx.append((binders[i], S.BangType(s, inner)))
                        premises.append(d)
                    case other:
                        want = grade_repr(semiring.mul(r, s))
                        raise TypeError_(
                            f"promotion argument {i} has type "
                            f"{print_type(other)}, expected modality of "
                            f"grade {want}", path)
            db = _infer(sig, semiring, tuple(body_ctx), body,
                        (path, "promote-body"), table)
            premises.append(db)
            return _conclude(table, ctx, term, "bang_i",
                             S.BangType(r, db.conclusion.type), premises,
                             parts)

        case S.Derelict(value):
            dv = _infer(sig, semiring, ctx, value, (path, "derelict"), table)
            match dv.conclusion.type:
                case S.BangType(g, inner) if g == semiring.one:
                    return _conclude(table, ctx, term, "bang_e", inner,
                                     (dv,), (ctx,))
                case other:
                    raise TypeError_(
                        f"dereliction requires modality grade "
                        f"{grade_repr(semiring.one)}, got "
                        f"{print_type(other)}", path)

        case S.Discard(value, body):
            gv, gb = _split_context(
                ctx, [S.free_vars(value), S.free_vars(body)], path)
            dv = _infer(sig, semiring, gv, value, (path, "discard-value"),
                        table)
            match dv.conclusion.type:
                case S.BangType(g, _) if g == semiring.zero:
                    db = _infer(sig, semiring, gb, body,
                                (path, "discard-body"), table)
                    return _conclude(table, ctx, term, "bang_0",
                                     db.conclusion.type, (dv, db), (gv, gb))
                case other:
                    raise TypeError_(
                        f"discard requires modality grade "
                        f"{grade_repr(semiring.zero)}, got "
                        f"{print_type(other)}", path)

        case S.Copy(n, m, value, x, y, body):
            (x, y), body = _rename_binders((x, y), body,
                                           set(S.ctx_names(ctx)))
            gv, gb = _split_context(
                ctx, [S.free_vars(value), S.free_vars(body) - {x, y}], path)
            dv = _infer(sig, semiring, gv, value, (path, "copy-value"), table)
            match dv.conclusion.type:
                case S.BangType(g, inner) if g == semiring.add(n, m):
                    body_ctx = gb + ((x, S.BangType(n, inner)),
                                     (y, S.BangType(m, inner)))
                    db = _infer(sig, semiring, body_ctx, body,
                                (path, "copy-body"), table)
                    return _conclude(table, ctx, term, "bang_sum",
                                     db.conclusion.type, (dv, db), (gv, gb))
                case other:
                    want = grade_repr(semiring.add(n, m))
                    raise TypeError_(
                        f"copy scrutinee must have modality grade {want}, "
                        f"got {print_type(other)}", path)

    raise TypeError_(f"unknown term node {term!r}", path)


def exchange(sig: S.Signature, d: Derivation, i: int,
             semiring: Semiring = NatSemiring()) -> Derivation:
    ctx = d.conclusion.context
    if not (0 <= i < len(ctx) - 1):
        raise TypeError_(f"exchange position {i} out of range")
    swapped = ctx[:i] + (ctx[i + 1], ctx[i]) + ctx[i + 2:]
    out = infer(sig, swapped, d.conclusion.term, semiring)
    if out.conclusion.type != d.conclusion.type:
        raise TypeError_("exchange changed the synthesized type")
    return out


def subst_derivation(sig: S.Signature, d: Derivation, e: Derivation,
                     semiring: Semiring = NatSemiring()) -> Derivation:
    """Substitute e's term for the last context variable of d."""
    ctx = d.conclusion.context
    if not ctx:
        raise TypeError_("no context variable to substitute for")
    x, x_ty = ctx[-1]
    if x_ty != e.conclusion.type:
        raise TypeError_(
            f"substituting a term of type {print_type(e.conclusion.type)} "
            f"for a variable of type {print_type(x_ty)}")
    # Rename the substituend's context variables away from d's.
    e_ctx, e_term = e.conclusion.context, e.conclusion.term
    taken = set(S.ctx_names(ctx)) | S.all_names(d.conclusion.term)
    e_names = S.all_names(e_term)
    renamed, renames = [], {}
    for name, ty in e_ctx:
        if name in taken:
            fresh = S.fresh_name(name, taken | e_names)
            renames[name] = S.Var(fresh)
            name = fresh
        taken.add(name)
        renamed.append((name, ty))
    new_ctx = ctx[:-1] + tuple(renamed)
    e_term = S.substitute(e_term, renames)
    new_term = S.substitute(d.conclusion.term, {x: e_term})
    out = infer(sig, new_ctx, new_term, semiring)
    if out.conclusion.type != d.conclusion.type:
        raise TypeError_("substitution changed the synthesized type")
    return out


def derivation_sexpr(d: Derivation) -> str:
    """Render a derivation as an S-expression tree."""
    inner = " ".join(derivation_sexpr(p) for p in d.premises)
    head = f'({d.rule} "{d.conclusion}"'
    return f"{head} {inner})" if inner else f"{head})"
