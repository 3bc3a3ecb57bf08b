"""The table of schema rows in gvlam.rewrite: against the row functions it
replaced (support.REFERENCE_ROWS), against the row list in
docs/proofs.md, and against the scopes its own sides give each term
metavariable."""

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import gvlam
from gvlam import rewrite
from gvlam import syntax as S
from gvlam.parser import parse_term
from gvlam.proofscript import parse_proof
from gvlam.rewrite import (MatchError, RewriteStep, SchemaId, Sub,
                           positioned_subterms, replace_subterm,
                           rewrite_term)

import support

ROOT = Path(__file__).resolve().parent.parent

# The captures the reference rows let through and the table refuses:
# (row, term, bindings), each read left to right.
CAPTURES = [
    ("cc-tensor", "plus(let x (*) y = p in y, x)",
     {"u": "plus(z, x)", "z": "z"}),
    ("cc-copy", "plus(copy[1,1] s as x,y in plus(derelict x, derelict y), x)",
     {"u": "plus(z, x)", "z": "z"}),
    ("copy-unit-left", "copy[0,1] a as x,y in discard x in "
     "plus(derelict y, c(discard x in unit))", {}),
    ("copy-unit-right", "copy[1,0] a as x,y in discard y in "
     "plus(derelict x, c(discard y in unit))", {}),
    ("promote-discard", "promote[1; 0, 1](a, b; x, w => discard x in "
     "plus(derelict w, c(discard x in unit)))", {}),
]


def _step(row, bindings, direction="L2R"):
    return RewriteStep(SchemaId(row), (), direction, {
        k: parse_term(v) if k == "u" else v for k, v in bindings.items()})


def _outcome(rewrite_fn, term, step):
    try:
        return rewrite_fn(term, step)
    except MatchError:
        return MatchError


def _is_capture(term, step):
    return any(SchemaId(row) is step.schema and step.direction == "L2R"
               and S.alpha_eq(parse_term(src), rewrite.get_subterm(
                   term, step.position))
               for row, src, _ in CAPTURES)


def agree(term, step) -> bool:
    """Check that the table and the reference rows both rewrite term by
    step to alpha-equal terms, or both raise MatchError, except that the
    table refuses a listed capture; whether the step applied."""
    got = _outcome(rewrite_term, term, step)
    want = _outcome(support.reference_rewrite_term, term, step)
    if got is MatchError and want is not MatchError \
            and _is_capture(term, step):
        return False
    if got is MatchError or want is MatchError:
        assert got is want, (term, step, got, want)
        return False
    assert S.alpha_eq(got, want), (term, step, got, want)
    return True


def both_ways(source, step) -> int:
    """agree on step, and on the step back right to left from its reduct
    with the bindings a script would write; the number that applied."""
    if not agree(source, step):
        return 0
    reduct = rewrite_term(source, step)
    sub = rewrite.get_subterm(source, step.position)
    back = RewriteStep(step.schema, step.position, "R2L",
                       support.row_bindings(step.schema, sub, step))
    return 1 + agree(reduct, back)


@pytest.mark.parametrize("row, src, bindings", CAPTURES,
                         ids=[c[0] for c in CAPTURES])
def test_captures_are_refused(row, src, bindings):
    term, step = parse_term(src), _step(row, bindings)
    with pytest.raises(MatchError, match=f"{row} needs"):
        rewrite_term(term, step)
    support.reference_rewrite_term(term, step)  # what the table refuses


@pytest.mark.parametrize("row, src, bindings", [
    ("copy-comm", "copy[10,11] s as x,y in plus(derelict x, derelict y)",
     {}),
    ("copy-assoc", "copy[21,12] s as x,y in copy[10,11] x as a,b in "
     "plus(derelict a, plus(derelict b, derelict y))", {}),
    ("cc-copy", "plus(copy[10,11] s as x,y in plus(derelict x, derelict y), "
     "k)", {"u": "plus(z, k)", "z": "z"}),
])
def test_grades_written_as_the_row_writes_them_still_bind(row, src,
                                                          bindings):
    """A grade equal to a digit that a row's grade metavariables parse to
    binds the metavariable as any other grade does."""
    assert both_ways(parse_term(src), _step(row, bindings)) == 2


def test_table_matches_the_reference_on_the_builders():
    applied = 0
    for seed in range(40):
        rng = random.Random(seed)
        for schema, builder in support.SCHEMA_BUILDERS.items():
            _, lhs, step = builder(rng)
            applied += both_ways(lhs, step)
            agree(lhs, RewriteStep(schema, (), "R2L", step.bindings))
    assert applied == 40 * 22 * 2


def test_table_matches_the_reference_on_derivgen_terms():
    """Every row at every position of random derivations, left to right
    with no bindings and with a commuting conversion's context taken from
    the node above, and right to left with the bindings the rows that
    need no context read."""
    applied = Counter()
    rb = {"ty": support.X, "r": 1, "n": 1, "x": "q1", "y": "q2"}
    for seed in range(150):
        gen = support.DerivGen(random.Random(seed))
        term = gen.term_X(4).conclusion.term
        for pos, sub in positioned_subterms(term):
            kids = S.children(sub)
            for schema in SchemaId:
                applied[schema] += both_ways(term, RewriteStep(schema, pos))
                agree(term, RewriteStep(schema, pos, "R2L", rb))
                for i in range(len(kids)) if schema.value.startswith(
                        "cc-") else ():
                    u = replace_subterm(sub, (i,), S.Var("hole"))
                    applied[schema] += both_ways(term, RewriteStep(
                        schema, pos, "L2R", {"u": u, "z": "hole"}))
    assert len(+applied) >= 12 and sum(applied.values()) > 500


def _suite_scripts():
    """Every proof script of the suite: the shipped and golden .proof
    files, and each string constant of a test module that parses as a
    script with a schema leaf."""
    texts = [p.read_text(encoding="utf-8") for p in
             [*(ROOT / "tests/golden").glob("*.proof"),
              Path(gvlam.__file__).parent / "data/walk.proof"]]
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "(schema" in node.value:
                texts.append(node.value)
    rng = random.Random(3)
    texts += [support.random_beta_script(rng, d) for d in (1, 4, 12)]
    for text in texts:
        try:
            yield parse_proof(text)
        except ValueError:  # a malformed script a test feeds the parser
            continue


def _leaves(proof):
    if proof.kind == "schema":
        yield proof.info["term"], proof.info["step"]
    for p in proof.premises:
        yield from _leaves(p)


def test_table_matches_the_reference_on_every_script():
    leaves = [leaf for proof in _suite_scripts() for leaf in _leaves(proof)]
    assert len(leaves) > 30
    for term, step in leaves:
        agree(term, step)
        other = "R2L" if step.direction == "L2R" else "L2R"
        agree(term, RewriteStep(step.schema, step.position, other,
                                step.bindings))


# ---------------------------------------------------------------------------
# The row list in docs/proofs.md

_DOC_ROW = re.compile(r"- `(?P<name>[a-z-]+): (?P<text>[^`]*)` "
                      r"L2R: (?P<l2r>none|`[^`]*`); "
                      r"R2L: (?P<r2l>none|`[^`]*`)\.")


def _doc_rows():
    text = (ROOT / "docs/proofs.md").read_text(encoding="utf-8")
    section = text.split("## Schema rows", 1)[1].split("\n## ", 1)[0]
    bullets = [" ".join(b.split()) for b in section.split("\n- ")[1:]]
    rows = [_DOC_ROW.fullmatch("- " + b) for b in bullets]
    assert all(rows), [b for b, r in zip(bullets, rows) if not r]
    return rows


def _needs(spec):
    """(required, optional) binding keys of a doc row's list; the optional
    ones are in brackets."""
    required, _, optional = spec.partition("[")
    return re.findall(r":(\w+)", required), re.findall(r":(\w+)", optional)


def test_doc_row_list_is_the_table():
    rows = _doc_rows()
    assert [r["name"] for r in rows] == [
        *(row.name for row in rewrite.TABLE.values()),
        *(s.value for s in rewrite._ROWS if s not in rewrite.TABLE)]
    assert set(r["name"] for r in rows) == {s.value for s in rewrite._ROWS}
    table = {line.partition(": ")[0]: line for line in rewrite._TABLE}
    for r in rows:
        if r["name"] in table:
            assert f"{r['name']}: {r['text']}" == table[r["name"]]


@pytest.mark.parametrize("doc", _doc_rows(), ids=lambda r: r["name"])
def test_doc_row_bindings_are_what_the_row_needs(doc):
    """Read each way with exactly the documented bindings, a row applies;
    without any one required binding, it asks for it; and a fresh name
    for an optional one is taken."""
    schema = SchemaId(doc["name"])
    _, lhs, step = support.SCHEMA_BUILDERS[schema](random.Random(1))
    rhs = rewrite_term(lhs, step)
    pool = {**step.bindings, **support.row_bindings(schema, lhs, step)}
    for direction, term, spec in (("L2R", lhs, doc["l2r"]),
                                  ("R2L", rhs, doc["r2l"])):
        required, optional = _needs(spec)
        given = {k: pool[k] for k in required}
        rewrite_term(term, RewriteStep(schema, (), direction, given))
        names = {k: f"q{i}" for i, k in enumerate(sorted(optional))}
        rewrite_term(term, RewriteStep(schema, (), direction,
                                       {**given, **names}))
        for k in required:
            less = {j: v for j, v in given.items() if j != k}
            with pytest.raises(MatchError, match=f"needs the '{k}' binding"):
                rewrite_term(term, RewriteStep(schema, (), direction, less))


# ---------------------------------------------------------------------------
# The freshness conditions each row states

def _scopes(pattern, bound=frozenset(), out=None):
    """Each term metavariable of a side and the names bound above it: by
    the side's binders and by the substitutions applied to it."""
    out = {} if out is None else out
    if type(pattern) is Sub:
        out[pattern.term] = bound | {x for x, _ in pattern.pairs}
        for _, p in pattern.pairs:
            _scopes(p, bound, out)
    elif type(pattern) is S.Var:
        if pattern.name in rewrite._TERM_METAS:
            out[pattern.name] = bound
    else:
        kids, xs = S.SHAPES[type(pattern)].parts(pattern)
        for i, k in enumerate(kids):
            _scopes(k, bound | set(xs) if xs and i == len(kids) - 1
                    else bound, out)
    return out


@pytest.mark.parametrize("schema", list(rewrite.TABLE),
                         ids=lambda s: s.value)
def test_freshness_conditions_are_the_scope_changes(schema):
    """Filling a term metavariable in literally keeps its meaning only if
    no name binds over it on one side and not the other; each such name
    is a stated x ∉ fv(u), and no other condition is stated."""
    row = rewrite.TABLE[schema]
    left, right = (_scopes(side.pattern) for side in row.sides)
    assert left.keys() == right.keys()
    changes = {(x, u) for u in left for x in left[u] ^ right[u]}
    assert changes == set(row.fresh)
