"""Size ladder for gvlam's library entry points, and the fixed-size timings
reported beside it.

    python3 tools/ladder.py [--quick]

For each n of the ladder (25 … 400; --quick stops at 100 and repeats
less) it times parse, infer, synthesize (with and without
normalize_first), validate, beta_normalize and model_distance, and
prints the median and minimum time of each, the hot-path call counts of
one further run (typecheck._infer, syntax._aeq,
vequation.axiom_instantiate), the exponent of n fitted to each time and
count, and the src/gvlam line count.  Then it prints the fixed-size
figures: metric-space arithmetic, probability, normalisation, synthesis,
proof check and model distance time.  It gates nothing: every figure is
reported only.  A section that raises is reported with its traceback,
the sections after it still run, and the exit code is then 1.  Inputs
come from perfbench/terms.py:

- parse, infer, synthesize, validate, model_distance: a wait chain of n
  nodes, wait_1(… wait_1(y)), against the same chain with its innermost
  operation wait_2 (validate checks the proof synthesize found, on fresh
  tables; model_distance runs in timed(2n));
- beta_normalize and synthesize --normalize-first: a nest of n β-redexes
  (fn x : X => wait_1(x)) (…), the latter against its normal form with
  the innermost wait_2.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import io
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import terms as T  # noqa: E402  (perfbench/terms.py)
from gvlam import syntax as S  # noqa: E402
from gvlam import typecheck, vequation  # noqa: E402
from gvlam.metmodel import model_distance, timed_model  # noqa: E402
from gvlam.parser import parse_term  # noqa: E402
from gvlam.proofscript import parse_proof  # noqa: E402
from gvlam.rewrite import beta_normalize  # noqa: E402
from gvlam.theory import load_theory  # noqa: E402

TIMED = load_theory(str(ROOT / "src/gvlam/data/timed.thy"))
SIG = TIMED.signature
CTX = (("y", T.X),)
# (module, name) of each counted hot path; each calls itself through its
# module's global, so wrapping the global counts every visit.
COUNTED = {"_infer": (typecheck, "_infer"), "_aeq": (S, "_aeq"),
           "axiom_instantiate": (vequation, "axiom_instantiate")}


def chain_pair(n):
    v = T.chain(n, "y")
    w = T.S.Var("y")
    for k in [2] + [1] * (n - 2):
        w = T.wait(k, w)
    return v, w


def entry_points(n):
    """name -> a call of that entry point at size n, its input built."""
    v, w = chain_pair(n)
    text = T.show(v)
    _, proof = vequation.synthesize(TIMED, CTX, v, w)
    nest = T.nest([1] * n)
    normal = T.nest_normal_form([2] + [1] * (n - 1))
    d_nest = typecheck.infer(SIG, CTX, nest)
    model = timed_model(SIG, 2 * n)
    return {
        "parse": lambda: parse_term(text),
        "infer": lambda: typecheck.infer(SIG, CTX, v),
        "synthesize": lambda: vequation.synthesize(TIMED, CTX, v, w),
        "synthesize_normalize_first": lambda: vequation.synthesize(
            TIMED, CTX, nest, normal, normalize_first=True),
        "validate": lambda: vequation.validate(TIMED, proof),
        "beta_normalize": lambda: beta_normalize(SIG, d_nest),
        "model_distance": lambda: model_distance(model, SIG, CTX, v, w),
    }


@contextlib.contextmanager
def counting():
    """Count the calls of each COUNTED function while the block runs."""
    counts = dict.fromkeys(COUNTED, 0)
    saved = {}
    for key, (module, name) in COUNTED.items():
        real = saved[key] = getattr(module, name)

        def counted(*args, _key=key, _real=real, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)
        setattr(module, name, counted)
    try:
        yield counts
    finally:
        for key, (module, name) in COUNTED.items():
            setattr(module, name, saved[key])


def timed_runs(call, repeats, budget=1.0):
    """Wall times of up to repeats calls, stopping once budget seconds
    are spent (at least one call)."""
    times = []
    while len(times) < repeats and sum(times) < budget:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def exponent(ns, values):
    """The least-squares slope of log(value) against log(n)."""
    pts = [(math.log(n), math.log(v)) for n, v in zip(ns, values) if v > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def ladder(ns, repeats):
    rows = {}
    for n in ns:
        for name, call in entry_points(n).items():
            with counting() as counts:
                call()
            times = timed_runs(call, repeats)
            rows.setdefault(name, []).append({
                "n": n, "median_s": statistics.median(times),
                "min_s": min(times), "runs": len(times), **counts})
    fits = {}
    for name, rungs in rows.items():
        ns_ = [r["n"] for r in rungs]
        fits[name] = {key: exponent(ns_, [r[key] for r in rungs])
                      for key in ("median_s", "min_s", *COUNTED)}
    return rows, fits


def print_ladder(rows, fits):
    print(f"{'entry point':28s} {'n':>4s} {'median':>10s} {'min':>10s} "
          f"{'_infer':>8s} {'_aeq':>8s} {'instances':>9s}")
    for name, rungs in rows.items():
        for r in rungs:
            print(f"{name:28s} {r['n']:4d} {r['median_s'] * 1e3:8.2f}ms "
                  f"{r['min_s'] * 1e3:8.2f}ms {r['_infer']:8d} "
                  f"{r['_aeq']:8d} {r['axiom_instantiate']:9d}")
        shown = ", ".join(f"{k} {v:.2f}" for k, v in fits[name].items()
                          if v is not None)
        print(f"{name:28s} fitted exponents: {shown}")


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src/gvlam").glob("*.py"))


# ---------------------------------------------------------------------------
# Fixed-size figures

def best_of(n, call):
    return min(timed_runs(call, n, budget=math.inf))


def metric_space_arithmetic():
    from gvlam.cli import _law_spaces
    from gvlam.metmodel import check_comonad_laws
    argv = ["model", "verify-laws", "--grades", "0..5", "--max-space", "4"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "gvlam.cli", *argv],
                          env=env, stdout=subprocess.DEVNULL).returncode
    print(f"gvlam model verify-laws --grades 0..5 --max-space 4: "
          f"{(time.perf_counter() - start) * 1e3:.0f} ms of wall time, "
          f"exit {code}")

    def lam(k):
        return S.Lambda("f", S.LolliType(T.X, T.X),
                        S.App(S.Var("f"), T.wait(k, S.Var("x"))))

    m = timed_model(SIG, 5)
    ctx = (("x", T.X),)
    model_distance(m, SIG, ctx, lam(0), lam(1))  # enumerates the 950 maps
    t = best_of(3, lambda: model_distance(m, SIG, ctx, lam(1), lam(3)))
    print(f"model_distance on fn f : X -o X => f (wait_a(x)) at timed(5): "
          f"{t * 1e3:.2f} ms (best of 3)")
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and \
                frame.f_code.co_filename == fractions.__file__:
            calls += 1

    spaces = _law_spaces(3)  # the law spaces of models-exact
    sys.setprofile(hook)
    try:
        check_comonad_laws(range(6), spaces)
    finally:
        sys.setprofile(None)
    print(f"calls into fractions in one check_comonad_laws(range(6)) "
          f"audit: {calls}")


def probability():
    from gvlam.cli import main
    from gvlam.probmodel import check_diaconis, gaussian_phi
    gaussian_phi(1, 1, 1, 0, 2)  # sympy's lazy import and set-up
    t = best_of(3, lambda: check_diaconis(12, 6, 7))
    print(f"check_diaconis(12, 6, 7): {t * 1e3:.2f} ms (best of 3)")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["model", "prob-sweep", "--max", "12"])
    print(f"model prob-sweep --max 12: {time.perf_counter() - start:.3f} s, "
          f"exit {code}")
    # Parameters not met before in this process, so no sympy cache helps.
    start = time.perf_counter()
    for i in range(14):
        gaussian_phi(3, i - 7, 3, 1, 2)
    print(f"14 fresh Gaussian labels: "
          f"{(time.perf_counter() - start) * 1e3:.1f} ms")


def normalisation():
    for n in (100, 200):
        d = typecheck.infer(SIG, CTX, T.nest([1] * n))
        t = best_of(3, lambda: beta_normalize(SIG, d))
        print(f"beta_normalize on a {n}-deep beta nest: {t:.3f} s "
              f"(best of 3)")


def synthesis():
    for n in (50, 100):
        nest = T.nest([1] * n)
        normal = T.nest_normal_form([2] + [1] * (n - 1))
        t = best_of(3, lambda: vequation.synthesize(
            TIMED, CTX, nest, normal, normalize_first=True))
        print(f"synthesize --normalize-first on a {n}-deep beta nest: "
              f"{t:.3f} s (best of 3)")


def proof_check():
    # One lolli-beta leaf per outermost step, then the normal form proved
    # equal to a chain that differs at one wait node.
    for n in (12, 24, 48):
        ks = [1 if i in (n // 3, 2 * n // 3) else 0 for i in range(n)]
        target = list(ks)
        target[n // 2] = 3
        script = T.beta_script(T.nest(ks), ks, T.nest_normal_form(target))
        eqs = []
        t = best_of(3, lambda: eqs.append(
            vequation.validate(TIMED, parse_proof(script))))
        assert eqs[-1].bound == 3 - ks[n // 2], eqs[-1]
        print(f"parse_proof + validate on a {n}-deep beta script: "
              f"{t * 1e3:.1f} ms (best of 3)")


def model_distances():
    from gvlam.parser import parse_context
    X = T.X

    def higher_order(k):
        return S.Lambda("f", S.LolliType(X, X),
                        S.App(S.Var("f"), T.wait(k, S.Var("x"))))

    ctx = (("x", X),)
    for n in (4, 5):
        m = timed_model(SIG, n)
        first = best_of(1, lambda: model_distance(
            m, SIG, ctx, higher_order(0), higher_order(2)))
        again = best_of(3, lambda: model_distance(
            m, SIG, ctx, higher_order(1), higher_order(3)))
        print(f"model_distance on fn f : X -o X => f (wait_a(x)) at "
              f"timed({n}): first {first * 1e3:.1f} ms, then "
              f"{again * 1e3:.1f} ms (best of 3)")
    ks = [i % 2 for i in range(26)]
    nest, normal = T.nest(ks), T.nest_normal_form(ks)
    m = timed_model(SIG, 8)
    t = best_of(3, lambda: model_distance(m, SIG, CTX, nest, normal))
    print(f"model_distance on a 26-deep beta nest at timed(8): "
          f"{t * 1e3:.1f} ms (best of 3)")
    # x0 (*) ... (*) xk against wait_1(x0) (*) ...: 4^(k+1) points.
    m = timed_model(SIG, 3)
    for k in (3, 4):
        names = [f"x{i}" for i in range(k + 1)]
        kctx = parse_context(", ".join(f"{x} : X" for x in names))
        v = parse_term(" (*) ".join(names))
        w = parse_term(" (*) ".join([f"wait_1({names[0]})"] + names[1:]))
        t = best_of(3, lambda: model_distance(m, SIG, kctx, v, w))
        print(f"model_distance on a {4 ** (k + 1)}-point tensor context at "
              f"timed(3): {t * 1e3:.1f} ms (best of 3)")
    # 200 wait_1 nodes over y against the same chain, innermost wait_2.
    v, w = chain_pair(201)
    m = timed_model(SIG, 400)
    t = best_of(3, lambda: model_distance(m, SIG, CTX, v, w))
    print(f"model_distance on a 200-deep wait chain at timed(400): "
          f"{t * 1e3:.1f} ms (best of 3)")


FIXED = [("Metric-space arithmetic", metric_space_arithmetic),
         ("Probability time", probability),
         ("Normalisation time", normalisation),
         ("Synthesis time", synthesis),
         ("Proof check time", proof_check),
         ("Model distance time", model_distances)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="rungs 25, 50 and 100, at most 3 runs each")
    args = ap.parse_args(argv)
    # The parser takes about five frames per nesting level.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    ns, repeats = ((25, 50, 100), 3) if args.quick \
        else ((25, 50, 100, 200, 400), 5)
    sections = [(f"Size ladder (src/gvlam: {src_lines()} lines)",
                 lambda: print_ladder(*ladder(ns, repeats))), *FIXED]
    # A section that fails is reported and the rest still run.
    failed = []
    for title, section in sections:
        print(f"## {title}", flush=True)
        try:
            section()
        except Exception:
            traceback.print_exc(file=sys.stdout)
            failed.append(title)
    if failed:
        print(f"failed sections: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
