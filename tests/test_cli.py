from pathlib import Path

import pytest

import gvlam
from gvlam.cli import main

DATA = Path(gvlam.__file__).parent / "data"
TIMED = str(DATA / "timed.thy")
PROB = str(DATA / "prob.thy")
WALK = str(DATA / "walk.proof")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(capsys):
    code, out, _ = run(capsys, ["check", TIMED, "wait_1(x)",
                                "--context", "x : X"])
    assert code == 0
    assert out.strip() == "X"


def test_check_emit_derivation(capsys):
    code, out, _ = run(capsys, ["check", TIMED, "wait_1(x)",
                                "--context", "x : X", "--emit-derivation"])
    assert code == 0
    assert out.splitlines()[0] == "X"
    assert "(ax" in out


def test_check_type_error(capsys):
    code, _, err = run(capsys, ["check", TIMED, "x",
                                "--context", "x : X, y : X"])
    assert code == 1
    assert "type error" in err


@pytest.mark.parametrize("term, context, path", [
    ("fn y : Foo => y", None, ""),
    ("fn y : X => fn f : X -o !2 Foo => y", None, "at fn-body: "),
    ("y", "y : !2 (X * Foo)", ""),
])
def test_check_undeclared_ground_type(capsys, term, context, path):
    argv = ["check", TIMED, term] + (["--context", context] if context
                                     else [])
    assert run(capsys, argv) \
        == (1, "", f"gvlam: type error: {path}undeclared ground type Foo\n")


def test_prove_undeclared_ground_type(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text('(cong-lambda (refl :ctx "x : Y" "x"))')
    assert run(capsys, ["prove", TIMED, str(bad)]) \
        == (2, "", "gvlam: proof error: refl: ill-typed conclusion: "
                   "undeclared ground type Y\n")


# Two terms that differ only in which binder the pair reads first; the
# second `fn x` shadows the first, which an alpha check keyed by the size
# of its environment confused with the `fn w` below it.
SHADOW_A = "fn x : !0 X => discard x in fn x : X => fn w : X => x (*) w"
SHADOW_B = "fn x : !0 X => discard x in fn x : X => fn w : X => w (*) x"


def test_bound_is_not_fooled_by_shadowing_binders(capsys):
    assert run(capsys, ["model", "distance", TIMED, SHADOW_A, SHADOW_B,
                        "--model", "timed(3)"]) == (0, "6\n", "")
    assert run(capsys, ["bound", TIMED, SHADOW_A, SHADOW_B]) \
        == (3, "FAIL\n", "")


def test_trans_needs_alpha_equal_middle_terms(capsys, tmp_path):
    script = tmp_path / "shadow.proof"
    script.write_text(f'(trans (refl "{SHADOW_A}") (refl "{SHADOW_B}"))')
    assert run(capsys, ["prove", TIMED, str(script)]) \
        == (2, "", "gvlam: proof error: trans premises do not share the "
                   "middle term\n")


def test_cong_subst_does_not_capture_through_a_fresh_binder(capsys,
                                                            tmp_path):
    # Substituting a for a1 renames the binder a to a1, the substituted
    # variable; the bound occurrence must not then be replaced by a.
    script = tmp_path / "capture.proof"
    script.write_text('(cong-subst :x a1 (refl :ctx "a1 : X" '
                      '"(fn a : X => a) a1") (refl :ctx "a : X" "a"))')
    assert run(capsys, ["prove", TIMED, str(script)]) \
        == (0, "a : X |- (fn a1 : X => a1) a =[0] (fn a1 : X => a1) a : X\n"
               "bound: 0\n", "")


@pytest.mark.parametrize("decl, message", [
    ("op g : I -> Y\nop f : Y -> X", "operation g: undeclared ground type Y"),
    ("opfamily h_<n> : Z -> X", "operation family h: undeclared ground "
                                "type Z"),
])
def test_theory_rejects_undeclared_grounds_in_sorts(capsys, tmp_path, decl,
                                                     message):
    thy = tmp_path / "bad.thy"
    thy.write_text(f"quantale metric\nsemiring nat\nground X\n{decl}\n")
    assert run(capsys, ["check", str(thy), "f(g(unit))"]) \
        == (65, "", f"gvlam: error: {thy}:4: {message}\n")


@pytest.mark.parametrize("lineno, line, message", [
    (1, "quantale metrc", "unknown quantale kind 'metrc'"),
    (2, "semiring natt", "unknown semiring kind 'natt'"),
    (3, "ground X Y", "bad ground type name 'X Y'"),
    (3, "symmetric no", "symmetric takes no argument"),
    (4, "op f g : X -> X", "bad operation name 'f g'"),
])
def test_theory_directive_errors_name_their_line(capsys, tmp_path, lineno,
                                                 line, message):
    lines = ["quantale metric", "semiring nat", "ground X",
             "op f : X -> X"]
    lines[lineno - 1] = line
    thy = tmp_path / "bad.thy"
    thy.write_text("\n".join(lines) + "\n")
    assert run(capsys, ["check", str(thy), "unit"]) \
        == (65, "", f"gvlam: error: {thy}:{lineno}: {message}\n")


def test_prove_rejects_a_rename_that_is_not_old_equals_new(capsys,
                                                           tmp_path):
    script = tmp_path / "rename.proof"
    script.write_text('(axiom wait :n 1 :m 2 :rename "x")')
    assert run(capsys, ["prove", TIMED, str(script)]) \
        == (65, "", "gvlam: error: rename piece 'x' is not old=new with "
                    "two identifiers\n")


def test_prove_bundled_walk(capsys):
    code, out, _ = run(capsys, ["prove", PROB, WALK])
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("bound: sqrt(3)/2 + 3 ~ 3.866025403")
    assert lines[-1].startswith("enclosure: [")


def test_prove_proof_error(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text('(weak :q 0 (axiom wait :n 1 :m 2))')
    code, _, err = run(capsys, ["prove", TIMED, str(bad)])
    assert code == 2
    assert "proof error" in err


def test_bound(capsys):
    code, out, _ = run(capsys, ["bound", TIMED, "wait_1(x)", "wait_2(x)",
                                "--context", "x : X"])
    assert code == 0
    assert out.strip() == "1"


def test_bound_synthesis_failure(capsys):
    code, out, _ = run(capsys, ["bound", TIMED, "wait_1(x)", "x",
                                "--context", "x : X"])
    assert code == 3
    assert out.strip() == "FAIL"


def test_bound_normalize_first(capsys):
    argv = ["bound", TIMED, "(fn x : X => wait_1(x)) y", "wait_2(y)",
            "--context", "y : X"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    code, out, _ = run(capsys, argv + ["--normalize-first"])
    assert code == 0
    assert out.strip() == "1"


def test_bound_normalize_first_in_the_theory_semiring(capsys, tmp_path):
    # In the trivial semiring the grade inf is the unit, so bang-beta
    # fires here; the proof's steps must be read in that semiring too.
    thy = tmp_path / "trivial.thy"
    thy.write_text(Path(TIMED).read_text().replace("semiring nat",
                                                   "semiring trivial"))
    assert run(capsys, [
        "bound", str(thy),
        "derelict promote[inf; inf](x; z => wait_1(derelict z))",
        "wait_2(derelict x)", "--context", "x : !inf X",
        "--normalize-first"]) == (0, "1\n", "")


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 64
    assert run(capsys, ["frobnicate"])[0] == 64


def test_io_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["check", str(tmp_path / "no.thy"), "x"])
    assert code == 65
    code, _, err = run(capsys, ["check", TIMED, "((", "--context", "x : X"])
    assert code == 65


def test_model_eval(capsys):
    code, out, _ = run(capsys, ["model", "eval", TIMED, "wait_1(x)",
                                "--context", "x : X", "--model", "timed(2)"])
    assert code == 0
    assert out.splitlines() == ["(0,) |-> 1", "(1,) |-> 2", "(2,) |-> 2"]


def test_model_with_more_points_than_the_guard(capsys, monkeypatch):
    # timed(N) built its N + 1 points before any guard, so a huge N ended
    # in a MemoryError traceback (exit 1).
    monkeypatch.setenv("GVLAM_GUARD", "100")
    argv = ["model", "eval", TIMED, "wait_1(x)", "--context", "x : X",
            "--model"]
    code, out, err = run(capsys, argv + ["timed(100)"])
    assert (code, out, err) == (
        4, "", "gvlam: model error: timed(100) has 101 points, over the 100 "
        "guard (set GVLAM_GUARD to override)\n")
    code, out, _ = run(capsys, argv + ["timed(99)"])
    assert code == 0 and len(out.splitlines()) == 100


def test_model_distance(capsys):
    code, out, _ = run(capsys, ["model", "distance", TIMED,
                                "wait_1(x)", "wait_3(x)",
                                "--context", "x : X", "--model", "timed(2)"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, ["model", "distance", TIMED,
                                "wait_1(x)", "wait_3(x)",
                                "--context", "x : X"])
    assert code == 0 and out.strip() == "2"


def test_model_unknown_spec(capsys):
    code, _, err = run(capsys, ["model", "distance", TIMED, "x", "x",
                                "--context", "x : X", "--model", "cubical"])
    assert code == 65
    assert "unknown model" in err


def test_model_verify_axioms(capsys):
    code, out, _ = run(capsys, ["model", "verify-axioms", TIMED,
                                "--max", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "failures: 0"
    assert "ok   wait[m=0,n=0]" in out
    assert "FAIL" not in out


def test_model_verify_axioms_skips_schematic(capsys):
    code, out, _ = run(capsys, ["model", "verify-axioms", PROB,
                                "--max", "2"])
    assert code == 0
    assert "skip" in out
    assert out.splitlines()[-1] == "failures: 0"
    # The builtins are schematic families like the file's own axioms.
    assert out.splitlines() == [
        "skip diaconis (schematic family without a default grid)",
        "skip gaussians (schematic family without a default grid)",
        "skip magpair (schematic family without a default grid)",
        "instances checked: 0 (nothing was verified)",
        "failures: 0"]


TICK = """\
quantale metric
semiring nat
symmetric
ground X
opfamily tick_<n> : X -> X
opfamily tock_<n> : X -> X
axiom tickd[n,m] : [x : X] tick_n(x) =[abs(n-m)] tick_m(x)
axiom tt[n,m] : [x : X] tick_n(x) =[abs(n-m)] tock_m(x)
"""


@pytest.mark.parametrize("a, b", [
    ("tick_1(x)", "tick_3(x)"),
    ("tick_1(tock_2(x))", "tock_3(tock_2(x))"),
])
def test_bound_reads_axiom_parameters_by_position(capsys, tmp_path, a, b):
    # Both printed FAIL while a proof script validated at 2: parameters
    # were taken from the first matching name anywhere in the goal.
    theory = tmp_path / "tick.thy"
    theory.write_text(TICK)
    code, out, _ = run(capsys, ["bound", str(theory), a, b,
                                "--context", "x : X"])
    assert (code, out) == (0, "2\n")


def test_bound_reads_a_parameter_only_in_grade_position(capsys, tmp_path):
    # n sits in no operation name, only in the promotion's grade; bound
    # reads it there and prints the label the script below validates.
    theory = tmp_path / "grade.thy"
    theory.write_text(
        "quantale metric\nsemiring nat\nground X\n"
        "opfamily tick_<n> : X -> X\nopfamily tock_<n> : X -> X\n"
        "axiom gp[n] : [x : !n X] promote[n; 1](x; y => tick_1(derelict y))"
        " =[n] promote[n; 1](x; y => tock_1(derelict y))\n"
        "axiom gs[n] : [x : !n X] promote[1; n](x; y => y) =[0] "
        "promote[1; n](x; y => y)\n")
    lhs = "promote[2; 1](x; y => tick_1(derelict y))"
    rhs = "promote[2; 1](x; y => tock_1(derelict y))"
    code, out, _ = run(capsys, ["bound", str(theory), lhs, rhs,
                                "--context", "x : !2 X"])
    assert (code, out) == (0, "2\n")
    script = tmp_path / "gp.proof"
    script.write_text("(axiom gp :n 2)")
    assert run(capsys, ["prove", str(theory), str(script)]) \
        == (0, f"x : !2 X |- {lhs} =[2] {rhs} : !2 X\nbound: 2\n", "")


def _timed_plus(tmp_path, line):
    """timed.thy with one more line; returns its path and that line's
    number."""
    text = Path(TIMED).read_text()
    theory = tmp_path / "extra.thy"
    theory.write_text(text + line + "\n")
    return str(theory), len(text.splitlines()) + 1


@pytest.mark.parametrize("line, message", [
    ("axiom bad : [x : X] wait_1(x =[0] x",
     "1:9: expected ')', found 'end of input'"),
    ("axiom ab : [x : Y] wait_1(x) =[0] x",
     "axiom ab: undeclared ground type Y"),
])
def test_bad_axiom_line_is_a_located_load_error(capsys, tmp_path, line,
                                                message):
    # These loaded, then failed an unrelated query (exit 65 unlocated, or
    # exit 1 as a type error).
    theory, lineno = _timed_plus(tmp_path, line)
    code, out, err = run(capsys, ["bound", theory, "wait_1(x)", "wait_2(x)",
                                  "--context", "x : X"])
    assert (code, out) == (65, "")
    assert err == f"gvlam: error: {theory}:{lineno}: {message}\n"


@pytest.mark.parametrize("line, message", [
    # sympy ran this bound as Python: the query created the file, printed
    # 1 and exited 0.
    ("axiom ev : [x : X] x =[__import__('pathlib').Path('EVALED').touch() "
     "or 1] x",
     "bad bound expression \"__import__('pathlib').Path('EVALED').touch() "
     "or 1\": \"__import__('pathlib').Path('EVALED').touch() or 1\" is not "
     "allowed"),
    # This one ended in an AttributeError traceback (exit 1).
    ("axiom lt[n, m] : [x : X] wait_n(x) =[n<m] wait_m(x)",
     "bad bound expression 'n<m': 'n < m' is not allowed"),
], ids=["python-call", "comparison"])
def test_bound_expression_outside_the_grammar_fails_at_load(
        capsys, tmp_path, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    theory, lineno = _timed_plus(tmp_path, line)
    code, out, err = run(capsys, ["bound", theory, "wait_1(x)", "wait_2(x)",
                                  "--context", "x : X"])
    assert (code, out) == (65, "")
    assert err == f"gvlam: error: {theory}:{lineno}: {message}\n"
    assert not (tmp_path / "EVALED").exists()


@pytest.mark.parametrize("lines, lineno, message", [
    (["builtin wait"] * 2, 6, "duplicate axiom name wait"),
    (["builtin wait", "axiom wait[n] : [x : X] wait_n(x) =[0] x"], 6,
     "duplicate axiom name wait"),
    (["axiom wait[n] : [x : X] wait_n(x) =[0] x", "builtin wait"], 6,
     "duplicate axiom name wait"),
    (["op f : X -> X", "op f : X -> X"], 6, "duplicate operation f"),
], ids=["builtin-twice", "builtin-then-axiom", "axiom-then-builtin",
        "op-twice"])
def test_duplicate_declarations_name_their_line(capsys, tmp_path, lines,
                                                lineno, message):
    # A duplicate axiom exited 2 as a proof error, and a duplicate
    # operation named no line.
    thy = tmp_path / "dup.thy"
    thy.write_text("\n".join(["quantale metric", "semiring nat", "ground X",
                              "opfamily wait_<n> : X -> X", *lines]) + "\n")
    assert run(capsys, ["check", str(thy), "wait_1(x)", "--context",
                        "x : X"]) \
        == (65, "", f"gvlam: error: {thy}:{lineno}: {message}\n")


@pytest.mark.parametrize("line, skip", [
    ("axiom ad : [x : X] wait_1(x) =[0] unit",
     "skip ad[] (variable x unused by the term)"),
    # Synthesis tries this one (ad2 sorts before wait) and skips it.
    ("axiom ad2 : [x : X] wait_1(x) =[0] wait_2(z)",
     "skip ad2[] (unbound variable z)"),
])
def test_ill_typed_axiom_leaves_other_queries_alone(capsys, tmp_path, line,
                                                    skip):
    # bound exited 1 on these, and verify-axioms stopped mid-report.
    theory, _ = _timed_plus(tmp_path, line)
    code, out, _ = run(capsys, ["bound", theory, "wait_1(x)", "wait_2(x)",
                                "--context", "x : X"])
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, ["model", "verify-axioms", theory,
                                "--max", "0"])
    assert code == 0
    assert out.splitlines()[0] == skip
    assert out.splitlines()[-1] == "failures: 0"


def test_model_verify_laws(capsys):
    code, out, _ = run(capsys, ["model", "verify-laws", "--grades", "0..2",
                                "--max-space", "2"])
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("checks: ") and last.endswith("failures: 0")


def test_model_prob_sweep(capsys):
    code, out, _ = run(capsys, ["model", "prob-sweep", "--max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m,n,tv,bound,ok"
    assert all(line.endswith(",true") for line in lines[1:])
    code, out2, _ = run(capsys, ["model", "prob-sweep", "--max", "4"])
    assert out2 == out  # byte-identical across runs
    code, text, _ = run(capsys, ["model", "prob-sweep", "--max", "2",
                                 "--format", "text"])
    assert code == 0 and text.splitlines()[0].startswith("ok")


def test_model_prob_sweep_does_not_enumerate(capsys, monkeypatch):
    # Up to 2^22 draw sequences per row, over the guard from k = 20 on,
    # if the sweep enumerated them.
    from gvlam import probmodel

    def refuse(*args):
        raise AssertionError("prob-sweep enumerated draw sequences")

    monkeypatch.setattr(probmodel, "replace_sampler", refuse)
    monkeypatch.setattr(probmodel, "no_replace_sampler", refuse)
    code, out, err = run(capsys, ["model", "prob-sweep", "--max", "22"])
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert len(lines) == 1 + sum(t * (t + 1) for t in range(1, 23))
    assert all(line.endswith(",true") for line in lines[1:])
    assert lines[-1] == "22,22,0,0,4,true"


def test_model_gaussian_grid(capsys):
    code, out, _ = run(capsys, ["model", "gaussian-grid"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu1,sigma1,mu2,sigma2,tv,phi_lo,phi_hi,ok"
    assert len(lines) == 82
    assert all(line.endswith(",true") for line in lines[1:])


def test_oracle_tv(capsys):
    code, out, _ = run(capsys, ["oracle", "tv", "2", "1", "1"])
    assert code == 0
    assert "primary:   1/2" in out
    assert "MISMATCH" not in out


def test_oracle_nonexpansive(capsys):
    code, out, _ = run(capsys, ["oracle", "nonexpansive", "2", "2"])
    assert code == 0
    assert "MISMATCH" not in out
    lines = out.splitlines()
    assert lines[0].split()[-1] == lines[1].split()[-1]


@pytest.mark.parametrize("argv, message", [
    (["tv", "x", "1", "1"], "argument k: invalid int value: 'x'"),
    (["nonexpansive", "2"], "the following arguments are required: cod"),
    (["nonexpansive", "-1", "2"], "argument dom: must be at least 0, got -1"),
    (["nonexpansive", "2", "-1"], "argument cod: must be at least 0, got -1"),
    # These two exited 4, with "negative probability for (0, 1)" and
    # "the urn is empty" about an urn that was not.
    (["tv", "2", "-1", "3"], "argument m: must be at least 0, got -1"),
    (["tv", "1", "1", "-1"], "argument n: must be at least 0, got -1"),
])
def test_oracle_rejects_out_of_range_arguments(capsys, argv, message):
    # Each is a usage error; out-of-range counts used to end in a
    # traceback (exit 1) or print an empty line.
    code, out, err = run(capsys, ["oracle", *argv])
    assert (code, out) == (64, "")
    assert err == f"gvlam: error: {message}\n"


def test_oracle_arguments_at_their_smallest(capsys):
    code, out, _ = run(capsys, ["oracle", "nonexpansive", "0", "0"])
    assert (code, out) == (0, "primary:   1\nreference: 1\n")


@pytest.mark.parametrize("argv", [["30", "30", "30"],
                                  ["1000000000", "30", "30"]])
def test_oracle_tv_checks_the_guard_first(capsys, argv):
    # 2^30 draw sequences: the guard stops the samplers before they
    # enumerate, where gvlam oracle tv 30 30 30 used to run without end.
    code, out, err = run(capsys, ["oracle", "tv", *argv])
    assert (code, out) == (4, "")
    assert err == (f"gvlam: model error: {argv[0]} draws have 2^{argv[0]} "
                   f"sequences, over the 1000000 guard (set GVLAM_GUARD to "
                   f"override)\n")


def test_oracle_tv_under_a_small_guard(capsys, monkeypatch):
    monkeypatch.setenv("GVLAM_GUARD", "8")
    code, out, _ = run(capsys, ["oracle", "tv", "3", "2", "2"])
    assert code == 0 and "MISMATCH" not in out
    code, out, err = run(capsys, ["oracle", "tv", "4", "2", "2"])
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("gvlam: model error: 4 ")


def test_oracle_nonexpansive_checks_the_guard_first(capsys, monkeypatch):
    # 13^13 candidate tables: the guard stops it before any enumeration,
    # where it used to run without end.
    code, out, err = run(capsys, ["oracle", "nonexpansive", "12", "12"])
    assert (code, out) == (4, "")
    assert err.startswith("gvlam: model error: function space")
    monkeypatch.setenv("GVLAM_GUARD", "100")
    code, out, err = run(capsys, ["oracle", "nonexpansive", "3", "3"])
    assert code == 4 and "exceeds the 100-candidate guard" in err


def test_failing_axiom_bound_spoils_no_other_query(capsys, tmp_path):
    # The axiom's template variable matches any goal.  Its bound used to
    # escape synthesis as an unlocated exit 65 on unrelated queries.
    thy = tmp_path / "neg.thy"
    thy.write_text(Path(TIMED).read_text()
                   + "\naxiom neg : [x : X] x =[-1] x\n")
    code, out, err = run(capsys, ["bound", str(thy), "wait_1(x)",
                                  "wait_2(x)", "--context", "x : X"])
    assert (code, out, err) == (0, "1\n", "")
    proof = tmp_path / "neg.proof"
    proof.write_text("(axiom neg)\n")
    code, out, err = run(capsys, ["prove", str(thy), str(proof)])
    assert (code, out) == (2, "")
    assert err == ("gvlam: proof error: axiom neg: bound expression '-1' "
                   "is negative\n")


def test_deep_input_exits_with_io_code(capsys):
    term = "wait_1(" * 600 + "x" + ")" * 600
    code, out, err = run(capsys, ["check", TIMED, term, "--context", "x : X"])
    assert code == 65
    assert out == ""
    assert err == "gvlam: error: input is nested too deeply\n"


def test_bound_under_shadowing_binders(capsys):
    # The binders x shadow the scrutinee's context variable x.
    code, out, _ = run(capsys, [
        "bound", TIMED, "let x (*) y = x in wait_1(x) (*) y",
        "let x (*) y = x in wait_2(x) (*) y", "--context", "x : X * X"])
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, [
        "bound", TIMED,
        "copy [1,1] x as x, y in wait_1(derelict x) (*) derelict y",
        "copy [1,1] x as x, y in wait_3(derelict x) (*) derelict y",
        "--context", "x : !2 X"])
    assert (code, out) == (0, "2\n")


MALFORMED_SCRIPTS = [
    "(sym)",
    "(weak :q 1)",
    '(cong-app (refl :ctx "x : X" "x"))',
    "(cong-lambda)",
    "(cong-promote :r 1)",
    '(perm (refl :ctx "x : X" "x"))',
    '(cong-promote (refl :ctx "a : !1 X" "a") (refl :ctx "x : !1 X" "x"))',
    '(cong-subst (axiom wait :n 1 :m 2) (refl :ctx "u : X" "u"))',
    '(schema lolli-beta :ctx "y : X")',
    '(schema lolli-beta :ctx "y : X" :term "(fn x : X => wait_1(x)) y" '
    ':pos a)',
    '(schema lolli-beta :ctx "y : X" :term "(fn x : X => wait_1(x)) y" '
    ':pos -1)',
    '(schema lolli-beta :ctx "y : X" :term "wait_1(y)" :pos 3)',
    '(schema promote-assoc :ctx "y : X" :term "y" :ss "a,b")',
    "(cong-op wait_1)",
]


@pytest.mark.parametrize("script", MALFORMED_SCRIPTS)
def test_malformed_scripts_exit_with_documented_codes(capsys, tmp_path,
                                                      script):
    path = tmp_path / "bad.proof"
    path.write_text(script)
    code, out, err = run(capsys, ["prove", TIMED, str(path)])
    assert code in (2, 65)
    assert out == ""
    assert err.startswith("gvlam: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("script, key", [
    ('(schema promote-symm :ctx "a : !1 X, b : !1 X" :term "promote[1; 1,1]'
     '(a, b; x, y => plus(derelict x, derelict y))" :i inf)', "i"),
    ('(schema copy-promote :ctx "a : !2 X" :term "wait_1(x)" :dir R2L '
     ':u "plus(derelict y, derelict z)" :y y :z z :n 1 :m 1 :o inf)', "o"),
])
def test_schema_index_and_copy_count_are_not_grades(capsys, tmp_path,
                                                    script, key):
    # inf was read for every integer key: promote-symm compared it with an
    # index and copy-promote passed it to range, each a TypeError (exit 1).
    path = tmp_path / "inf.proof"
    path.write_text(script)
    code, out, err = run(capsys, ["prove", TIMED, str(path)])
    assert (code, out, err) == (
        65, "", f"gvlam: error: {key} must be an integer, got 'inf'\n")


@pytest.mark.parametrize("option, message", [
    (":dir foo", "dir must be L2R or R2L, got 'foo'"),
    (":flip maybe", "flip must be no or yes, got 'maybe'"),
])
def test_schema_dir_and_flip_are_checked_at_parse(capsys, tmp_path, option,
                                                  message):
    # Unchecked, :dir foo would fail only at the step, as a proof error
    # (exit 2), and :flip maybe would flip the sides as :flip yes does.
    path = tmp_path / "option.proof"
    path.write_text('(schema lolli-beta :ctx "y : X" '
                    f':term "(fn x : X => wait_1(x)) y" {option})')
    code, out, err = run(capsys, ["prove", TIMED, str(path)])
    assert (code, out, err) == (65, "", f"gvlam: error: {message}\n")


def test_schema_step_that_would_capture_fails(capsys, tmp_path):
    # cc-tensor would move the free x of u under the let that binds x; the
    # step is refused before either side is typed.
    theory = tmp_path / "plus.thy"
    theory.write_text("quantale metric\nsemiring nat\nground X\n"
                      "op plus : X, X -> X\n")
    path = tmp_path / "capture.proof"
    path.write_text('(schema cc-tensor :ctx "p : X * X, x : X" '
                    ':term "plus(let x (*) y = p in y, x)" '
                    ':u "plus(z, x)" :z z)')
    code, out, err = run(capsys, ["prove", str(theory), str(path)])
    assert (code, out, err) == (2, "", (
        "gvlam: proof error: schema step failed: cc-tensor needs x not free "
        "in u, but x is free in plus(z, x)\n"))


@pytest.mark.parametrize("argv", [
    ["verify-laws", "--grades", "x"],
    ["verify-laws", "--grades", "5..2"],
    ["verify-laws", "--grades", ""],
    ["verify-laws", "--grades=-1,2"],
    ["verify-laws", "--max-space", "0"],
    ["verify-laws", "--max-space", "5"],
    ["verify-axioms", TIMED, "--max", "-2"],
    ["prob-sweep", "--max", "-3"],
    ["prob-sweep", "--max", "0"],
])
def test_model_audits_reject_empty_or_malformed_ranges(capsys, argv):
    # Each of these used to run an empty audit and exit 0, or die with a
    # traceback: they are usage errors.
    code, out, err = run(capsys, ["model", *argv])
    assert (code, out) == (64, "")
    assert err.startswith("gvlam: error: argument --")


def test_model_audit_ranges_at_their_smallest(capsys):
    code, out, _ = run(capsys, ["model", "verify-laws", "--grades", "3",
                                "--max-space", "1"])
    assert code == 0 and out.splitlines()[-1] == "checks: 10  failures: 0"
    code, out, _ = run(capsys, ["model", "verify-axioms", TIMED,
                                "--max", "0"])
    assert code == 0 and "ok   wait[m=0,n=0]" in out
    code, out, _ = run(capsys, ["model", "prob-sweep", "--max", "1"])
    assert code == 0 and len(out.splitlines()) == 3
