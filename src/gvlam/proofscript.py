"""S-expression proof scripts.

One node kind per head symbol; keyword arguments use :key value pairs;
embedded terms, types, and contexts are double-quoted strings in the
concrete syntax.  Documented with examples in docs/proofs.md.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import syntax as S
from .parser import is_identifier, parse_context, parse_term, parse_type
from .quantale import INF
from .rewrite import RewriteStep, SchemaId
from .vequation import CONGRUENCES, VProof


class ScriptError(ValueError):
    pass


# A ; outside a string comments out the rest of its line.
_TOKEN_RE = re.compile(r'''\s+|;.*|(?P<lp>\()|(?P<rp>\))
                           |(?P<str>"(?:[^"\\]|\\.)*")
                           |(?P<atom>[^\s()";]+)''', re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ScriptError(f"bad character {text[pos]!r} at offset {pos}")
        if m.lastgroup == "lp":
            out.append("(")
        elif m.lastgroup == "rp":
            out.append(")")
        elif m.lastgroup == "str":
            raw = m.group()[1:-1]
            out.append(("str", raw.replace('\\"', '"').replace("\\\\", "\\")))
        elif m.lastgroup == "atom":
            out.append(("atom", m.group()))
        pos = m.end()
    return out


def _parse_sexpr(tokens, i=0):
    if i >= len(tokens):
        raise ScriptError("unexpected end of script")
    tok = tokens[i]
    if tok == "(":
        items = []
        i += 1
        while i < len(tokens) and tokens[i] != ")":
            item, i = _parse_sexpr(tokens, i)
            items.append(item)
        if i >= len(tokens):
            raise ScriptError("missing closing parenthesis")
        return items, i + 1
    if tok == ")":
        raise ScriptError("unexpected closing parenthesis")
    return tok, i + 1


def parse_bound_literal(text: str):
    text = text.strip()
    if text == "inf":
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScriptError(f"bad bound literal {text!r}") from exc


# Schema bindings read as numbers: grades may be inf, a swap index (i) and
# a copy count (o) may not.
_SCHEMA_GRADE_KEYS = {"n", "m", "r"}
_SCHEMA_INT_KEYS = {"i", "o"}

# The congruence heads that take nothing but their premises.
_PLAIN_CONGRUENCES = {c.kind for c in CONGRUENCES.values() if not c.info}


def _split_args(items):
    """Separate keyword arguments from positional children."""
    kwargs = {}
    children = []
    i = 0
    while i < len(items):
        item = items[i]
        if isinstance(item, tuple) and item[0] == "atom" \
                and item[1].startswith(":"):
            key = item[1][1:]
            if i + 1 >= len(items):
                raise ScriptError(f"keyword :{key} needs a value")
            kwargs[key] = items[i + 1]
            i += 2
        else:
            children.append(item)
            i += 1
    return kwargs, children


def _as_text(value, what):
    if isinstance(value, tuple):
        return value[1]
    raise ScriptError(f"{what} must be an atom or string")


def _as_grade(value, what):
    """An integer grade, or inf."""
    if _as_text(value, what) == "inf":
        return INF
    return _as_int(value, what)


def _as_int(value, what):
    text = _as_text(value, what)
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ScriptError(f"{what} must be an integer, got {text!r}")
    return int(text)


def _choice(kwargs, key, options):
    """The value of :key, one of options; the first if :key is absent."""
    text = _as_text(kwargs.get(key, ("atom", options[0])), key)
    if text not in options:
        raise ScriptError(f"{key} must be {' or '.join(options)}, "
                          f"got {text!r}")
    return text


def _required(kwargs, key, head):
    if key not in kwargs:
        raise ScriptError(f"{head} needs a :{key} argument")
    return kwargs[key]


def _position(value):
    """A dotted position such as 0.1; the empty text is the root."""
    pieces = [p for p in _as_text(value, "pos").split(".") if p != ""]
    for p in pieces:
        if not re.fullmatch(r"[0-9]+", p):
            raise ScriptError(f"pos must be dot-separated non-negative "
                              f"integers, got {p!r}")
    return tuple(int(p) for p in pieces)


def build_proof(sexpr, table: dict) -> VProof:
    """The proof an S-expression writes; its terms are shared through
    table (syntax.share), one node for each distinct subterm."""
    if not isinstance(sexpr, list) or not sexpr:
        raise ScriptError("a proof node must be a parenthesized list")
    head = _as_text(sexpr[0], "node head")
    kwargs, children = _split_args(sexpr[1:])

    def premises():
        return tuple(build_proof(c, table) for c in children)

    def shared_term(value, what):
        return S.share(parse_term(_as_text(value, what)), table)

    if head == "refl":
        if len(children) != 1:
            raise ScriptError("refl takes exactly one term")
        ctx = parse_context(_as_text(kwargs.get("ctx", ("str", "")), "ctx"))
        term = shared_term(children[0], "refl term")
        return VProof("refl", (), {"ctx": ctx, "term": term})

    if head == "trans":
        prems = premises()
        if len(prems) < 2:
            raise ScriptError("trans needs at least two premises")
        node = prems[0]
        for p in prems[1:]:
            node = VProof("trans", (node, p))
        return node

    if head == "weak":
        if "q" not in kwargs:
            raise ScriptError("weak needs a :q bound")
        return VProof("weak", premises(),
                      {"q": parse_bound_literal(_as_text(kwargs["q"], "q"))})

    if head == "join":
        return VProof("join", premises())

    if head == "sym":
        return VProof("sym", premises())

    if head == "perm":
        ctx = parse_context(_as_text(_required(kwargs, "ctx", head), "ctx"))
        return VProof("perm", premises(), {"ctx": ctx})

    if head == "axiom":
        if len(children) != 1:
            raise ScriptError("axiom takes the axiom name")
        name = _as_text(children[0], "axiom name")
        rename = {}
        if "rename" in kwargs:
            for piece in _as_text(kwargs["rename"], "rename").split(","):
                old, eq, new = (s.strip() for s in piece.partition("="))
                if not (eq and is_identifier(old) and is_identifier(new)):
                    raise ScriptError(f"rename piece {piece.strip()!r} is "
                                      f"not old=new with two identifiers")
                rename[old] = new
        params = {k: _as_grade(vv, k) for k, vv in kwargs.items()
                  if k != "rename"}
        return VProof("axiom", (),
                      {"name": name, "params": params, "rename": rename})

    if head == "schema":
        if len(children) != 1:
            raise ScriptError("schema takes the row name")
        row_name = _as_text(children[0], "schema row")
        try:
            schema = SchemaId(row_name)
        except ValueError:
            raise ScriptError(f"unknown schema row {row_name!r}") from None
        ctx = parse_context(_as_text(kwargs.get("ctx", ("str", "")), "ctx"))
        term = shared_term(_required(kwargs, "term", head), "term")
        pos = _position(kwargs["pos"]) if "pos" in kwargs else ()
        direction = _choice(kwargs, "dir", ("L2R", "R2L"))
        flip = _choice(kwargs, "flip", ("no", "yes")) == "yes"
        bindings = {}
        for key, value in kwargs.items():
            if key in ("ctx", "term", "pos", "dir", "flip"):
                continue
            if key in ("u", "w", "v"):
                bindings[key] = shared_term(value, key)
            elif key == "ty":
                bindings[key] = parse_type(_as_text(value, key))
            elif key in ("ss",):
                bindings[key] = tuple(
                    _as_grade(("atom", s.strip()), key)
                    for s in _as_text(value, key).split(",") if s)
            elif key in ("xs",):
                bindings[key] = tuple(
                    s.strip() for s in _as_text(value, key).split(",") if s)
            elif key in _SCHEMA_GRADE_KEYS:
                bindings[key] = _as_grade(value, key)
            elif key in _SCHEMA_INT_KEYS:
                bindings[key] = _as_int(value, key)
            else:
                bindings[key] = _as_text(value, key)
        step = RewriteStep(schema, pos, direction, bindings)
        return VProof("schema", (),
                      {"ctx": ctx, "term": term, "step": step, "flip": flip})

    if head == "cong-op":
        if not children:
            raise ScriptError("cong-op needs the operation name")
        op = _as_text(children[0], "operation name")
        prems = tuple(build_proof(c, table) for c in children[1:])
        return VProof("cong-op", prems, {"op": op})

    if head == "cong-promote":
        r = _as_grade(_required(kwargs, "r", head), "r")
        return VProof("cong-promote", premises(), {"r": r})

    if head == "cong-subst":
        x = _as_text(_required(kwargs, "x", head), "x")
        return VProof("cong-subst", premises(), {"x": x})

    if head in _PLAIN_CONGRUENCES:
        return VProof(head, premises())

    raise ScriptError(f"unknown proof node head {head!r}")


def parse_proof(text: str) -> VProof:
    """The proof a script writes.  Equal subterms anywhere in the script
    are one object, so validate types each once and compares shared
    middle terms by identity."""
    tokens = _tokenize(text)
    sexpr, i = _parse_sexpr(tokens, 0)
    if i != len(tokens):
        raise ScriptError("trailing input after the proof")
    return build_proof(sexpr, {})


def load_proof(path: str) -> VProof:
    with open(path, encoding="utf-8") as fh:
        return parse_proof(fh.read())

