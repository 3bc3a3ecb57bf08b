"""Seeded inputs for the benchmark, built without gvlam's own printer.

Terms are gvlam syntax trees built directly from ``gvlam.syntax``; the
benchmark prints them and writes proof scripts with the small printer
below, so a `prove` query does not depend on the code paths it times.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from gvlam import syntax as S

X = S.Ground("X")


def wait(k: int, t: S.Term) -> S.Term:
    return S.OpApp(f"wait_{k}", (t,))


def wait_index(t: S.Term):
    """The k of a wait_k node, or None."""
    if isinstance(t, S.OpApp) and t.op.startswith("wait_") \
            and t.op[5:].isdigit():
        return int(t.op[5:])
    return None


def nodes(t: S.Term) -> int:
    """Number of term nodes, counted from the dataclass fields."""
    n = 1
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if isinstance(v, S.Term):
            n += nodes(v)
        elif isinstance(v, tuple):
            n += sum(nodes(u) for u in v if isinstance(u, S.Term))
    return n


def show(t: S.Term) -> str:
    """Concrete syntax for the first-order and lambda terms built here."""
    match t:
        case S.Var(name):
            return name
        case S.OpApp(op, args):
            return f"{op}({', '.join(show(a) for a in args)})"
        case S.Lambda(x, ty, body):
            return f"(fn {x} : {_show_type(ty)} => {show(body)})"
        case S.App(f, a):
            return f"({show(f)}) ({show(a)})"
    raise ValueError(f"no printer for {t!r}")


def _show_type(ty) -> str:
    match ty:
        case S.Ground(name):
            return name
        case S.LolliType(a, b):
            return f"({_show_type(a)} -o {_show_type(b)})"
    raise ValueError(f"no printer for {ty!r}")


# ---------------------------------------------------------------------------
# Wait chains and their perturbation

def chain(n: int, var: str = "x") -> S.Term:
    """A chain of n nodes: n - 1 wait_1 nodes over a variable."""
    t = S.Var(var)
    for _ in range(n - 1):
        t = wait(1, t)
    return t


def positions(t: S.Term, path=()):
    """Pre-order (path, subterm) pairs through operation arguments."""
    yield path, t
    if isinstance(t, S.OpApp):
        for i, a in enumerate(t.args):
            yield from positions(a, path + (i,))


def replace(t: S.Term, path, new: S.Term) -> S.Term:
    if not path:
        return new
    args = list(t.args)
    args[path[0]] = replace(args[path[0]], path[1:], new)
    return S.OpApp(t.op, tuple(args))


def wait_sum(t: S.Term) -> int:
    """Sum of wait indices: the value at 0 in a timed model that does not
    saturate."""
    return sum(wait_index(s) or 0 for _, s in positions(t))


def perturb(rng, t: S.Term, sites: int, nested: bool, choices):
    """Change wait indices at up to `sites` positions: an antichain, or
    (nested) two sites on one path.  Returns the new term and the sum of
    |delta| over the changed sites."""
    waits = [p for p, s in positions(t) if wait_index(s) is not None]
    rng.shuffle(waits)
    chosen = []
    if nested:
        for p in waits:
            below = [q for q in waits if len(q) > len(p) and q[:len(p)] == p]
            if below:
                chosen = [p, rng.choice(below)]
                break
    else:
        for p in waits:
            if all(p[:len(q)] != q and q[:len(p)] != p for q in chosen):
                chosen.append(p)
            if len(chosen) == sites:
                break
    delta = 0
    for p in chosen:
        sub = _at(t, p)
        k = wait_index(sub)
        k2 = rng.choice([c for c in choices if c != k])
        t = replace(t, p, S.OpApp(f"wait_{k2}", sub.args))
        delta += abs(k2 - k)
    return t, Fraction(delta)


def _at(t, path):
    for i in path:
        t = t.args[i]
    return t


# ---------------------------------------------------------------------------
# Beta-redex nests: (fn x_d => wait(x_d)) ((fn x_(d-1) => ...) (... y))

def nest(ks, var: str = "y") -> S.Term:
    t = S.Var(var)
    for i, k in enumerate(ks):
        x = f"x{i}"
        t = S.App(S.Lambda(x, X, wait(k, S.Var(x))), t)
    return t


def nest_normal_form(ks, var: str = "y") -> S.Term:
    t = S.Var(var)
    for k in ks:
        t = wait(k, t)
    return t


# ---------------------------------------------------------------------------
# Proof scripts (docs/proofs.md), written from the perturbation

def _ctx(t: S.Term) -> str:
    free = sorted(_free(t))
    return ", ".join(f"{x} : X" for x in free)


def _free(t: S.Term, bound=frozenset()):
    match t:
        case S.Var(name):
            return set() if name in bound else {name}
        case S.OpApp(_, args):
            return set().union(*(_free(a, bound) for a in args))
        case S.Lambda(x, _, body):
            return _free(body, bound | {x})
        case S.App(f, a):
            return _free(f, bound) | _free(a, bound)
    raise ValueError(f"unexpected term {t!r}")


def _refl(t: S.Term) -> str:
    ctx = _ctx(t)
    head = f'(refl :ctx "{ctx}" ' if ctx else "(refl "
    return f'{head}"{show(t)}")'


def _wait_axiom(a: int, b: int, arg: S.Term) -> str:
    """wait_a(arg) = wait_b(arg), placed at arg by substitution."""
    ax = f"(axiom wait :n {a} :m {b})"
    if isinstance(arg, S.Var):
        if arg.name == "x":
            return ax
        return f'(axiom wait :n {a} :m {b} :rename "x={arg.name}")'
    return f"(cong-subst :x x {ax} {_refl(arg)})"


def congruence_script(v: S.Term, w: S.Term) -> str:
    """A proof of v = w for terms of one shape whose wait indices differ,
    from cong-op, cong-app, cong-lambda, axiom wait, trans and refl."""
    if v == w:
        return _refl(v)
    match v, w:
        case S.OpApp(f, vs), S.OpApp(g, ws) if f == g:
            inner = " ".join(congruence_script(a, b) for a, b in zip(vs, ws))
            return f"(cong-op {f} {inner})"
        case S.OpApp(f, (a,)), S.OpApp(g, (b,)):
            ka, kb = wait_index(v), wait_index(w)
            step = _wait_axiom(ka, kb, b)
            if a == b:
                return step
            return f"(trans (cong-op {f} {congruence_script(a, b)}) {step})"
        case S.App(f1, a1), S.App(f2, a2):
            return (f"(cong-app {congruence_script(f1, f2)} "
                    f"{congruence_script(a1, a2)})")
        case S.Lambda(x, _, b1), S.Lambda(_, _, b2):
            return f"(cong-lambda {congruence_script(b1, b2)})"
    raise ValueError(f"no congruence between {show(v)} and {show(w)}")


def beta_script(v: S.Term, ks, w: S.Term, var: str = "y") -> str:
    """Normalise the nest v by outermost lolli-beta steps, then prove the
    normal form equal to w by congruence."""
    steps = []
    current = v
    prefix = ()
    for i in range(len(ks)):
        pos = ".".join("0" * len(prefix)) if prefix else ""
        pos_arg = f" :pos {pos}" if pos else ""
        steps.append(f'(schema lolli-beta :ctx "{var} : X" '
                     f':term "{show(current)}"{pos_arg})')
        current = _beta_at(current, prefix)
        prefix = prefix + (0,)
    steps.append(congruence_script(current, w))
    return "(trans " + " ".join(steps) + ")"


def _beta_at(t: S.Term, path):
    if not path:
        if not (isinstance(t, S.App) and isinstance(t.fn, S.Lambda)):
            raise ValueError(f"no beta redex at the root of {show(t)}")
        return _subst_var(t.fn.body, t.fn.var, t.arg)
    return S.OpApp(t.op, (_beta_at(t.args[0], path[1:]),))


def _subst_var(t: S.Term, x: str, u: S.Term) -> S.Term:
    match t:
        case S.Var(name):
            return u if name == x else t
        case S.OpApp(op, args):
            return S.OpApp(op, tuple(_subst_var(a, x, u) for a in args))
    raise ValueError(f"unexpected lambda body {t!r}")
