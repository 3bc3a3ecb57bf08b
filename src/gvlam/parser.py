"""Concrete syntax: tokenizer, parser, and printer.

Grammar summary (full EBNF in docs/grammar.ebnf):

    type   := tensor_ty ("-o" type)?            -o right-associative
    tensor := bang_ty ("*" bang_ty)*             * left-associative
    bang   := "!" grade bang | atom_ty
    atom   := "I" | IDENT | "(" type ")"

    term   := "fn" x ":" type "=>" term
            | "let" "unit" "=" term "in" term
            | "let" x "(*)" y "=" term "in" term
            | "discard" term "in" term
            | "copy" "[" grade "," grade "]" term "as" x "," y "in" term
            | tensor
    tensor := appterm ("(*)" appterm)*           (*) left-associative
    app    := prefix prefix*                     juxtaposition, left-assoc
    prefix := "derelict" prefix | atom
    atom   := "unit" | "(" term ")"
            | "!" grade "(" term ")"             sugar for promote[g;](; => t)
            | "promote" "[" grade ";" grades "]"
                        "(" terms ";" idents "=>" term ")"
            | IDENT ("(" term,... ")")?          call iff "(" touches the name
"""

from __future__ import annotations

import itertools
import re

from .quantale import parse_grade, grade_repr
from . import syntax as S


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# One token, longest alternative first where two share a prefix; each
# match of _TOKENS_RE is the whitespace before a token and the token.
_TOKENS_RE = re.compile(
    r"""(\s*)(
        \(\*\)
      | =>|-o|->
      | [A-Za-z_][A-Za-z0-9_']*
      | [0-9]+
      | [()\[\];:,=*!.]
    )""",
    re.VERBOSE,
)
_SPACE_RE = re.compile(r"\s*")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "abcdefghijklmnopqrstuvwxyz_")

KEYWORDS = {
    "fn", "let", "in", "unit", "promote", "derelict", "discard",
    "copy", "as", "I", "inf",
}


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def is_identifier(text: str) -> bool:
    """Whether text is one identifier that is not a keyword."""
    return IDENT_RE.fullmatch(text) is not None and text not in KEYWORDS


def subst_tokens(src: str, params: dict) -> str:
    """Substitute parameter values into identifier segments and bare
    tokens, so wait_n becomes wait_3 under {n: 3}."""

    def repl(m):
        name = m.group(0)
        segments = name.split("_")
        segments = [str(params[s]) if s in params else s for s in segments]
        return "_".join(segments)

    return IDENT_RE.sub(repl, src)


def markers(params, text: str) -> dict:
    """A digit string for each parameter, each found nowhere in text.
    Written in place of its parameter by subst_tokens, a marker parses
    wherever a value can stand (a name segment or a grade), and the
    parsed tree shows where the parameter was."""
    marks = (str(i) for i in itertools.count(10) if str(i) not in text)
    return dict(zip(params, marks))


def tokenize(text: str):
    """(texts, glued): the token texts, then "" for the end of input, and
    for each whether no whitespace separates it from the token before.

    findall skips what it cannot match, so the matched length is compared
    with the input and the first gap reported as a ParseError."""
    pairs = _TOKENS_RE.findall(text)
    spaces = [ws for ws, _ in pairs]
    texts = [tok for _, tok in pairs]
    n = len("".join(spaces)) + len("".join(texts))
    if n != len(text) and not _SPACE_RE.fullmatch(text, n):
        pos = 0
        for m in _TOKENS_RE.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        pos = _SPACE_RE.match(text, pos).end()
        raise ParseError(f"unexpected character {text[pos]!r}",
                         *_line_col(text, pos))
    texts.append("")
    glued = [not ws for ws in spaces]
    glued.append(False)
    return texts, glued


def _line_col(text: str, offset: int):
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.texts, self.glued = tokenize(text)
        self.i = 0

    # -- token plumbing

    def peek(self) -> str:
        return self.texts[self.i]

    def next(self) -> str:
        tok = self.texts[self.i]
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i, located by line and column."""
        if i == len(self.texts) - 1:
            offset = len(self.text)
        else:
            offset = next(itertools.islice(
                _TOKENS_RE.finditer(self.text), i, None)).start(2)
        return ParseError(message, *_line_col(self.text, offset))

    def found(self, message: str, i: int) -> ParseError:
        """message, then the text of token i, found there."""
        shown = self.texts[i] or "end of input"
        return self.error(f"{message}, found {shown!r}", i)

    def expect(self, text: str) -> str:
        tok = self.next()
        if tok != text:
            raise self.found(f"expected {text!r}", self.i - 1)
        return tok

    def ident(self) -> str:
        tok = self.next()
        if not _is_ident(tok) or tok in KEYWORDS:
            raise self.found("expected an identifier", self.i - 1)
        return tok

    def grade(self):
        tok = self.next()
        if tok.isdigit() or tok == "inf":
            return parse_grade(tok)
        raise self.error(f"unknown grade literal {tok!r}", self.i - 1)

    def done(self):
        if self.peek():
            raise self.error(
                f"trailing input starting at {self.peek()!r}", self.i)

    # -- types

    def type_(self) -> S.TypeExpr:
        left = self.type_tensor()
        if self.at("-o"):
            self.next()
            return S.LolliType(left, self.type_())
        return left

    def type_tensor(self) -> S.TypeExpr:
        out = self.type_bang()
        while self.at("*"):
            self.next()
            out = S.TensorType(out, self.type_bang())
        return out

    def type_bang(self) -> S.TypeExpr:
        if self.at("!"):
            self.next()
            g = self.grade()
            return S.BangType(g, self.type_bang())
        return self.type_atom()

    def type_atom(self) -> S.TypeExpr:
        tok = self.peek()
        if tok == "I":
            self.next()
            return S.UnitType()
        if tok == "(":
            self.next()
            out = self.type_()
            self.expect(")")
            return out
        if _is_ident(tok) and tok not in KEYWORDS:
            self.next()
            return S.Ground(tok)
        raise self.found("expected a type", self.i)

    # -- terms

    def term(self) -> S.Term:
        tok = self.peek()
        if tok == "fn":
            self.next()
            x = self.ident()
            self.expect(":")
            ty = self.type_()
            self.expect("=>")
            return S.Lambda(x, ty, self.term())
        if tok == "let":
            self.next()
            if self.at("unit"):
                self.next()
                self.expect("=")
                value = self.term_tensor()
                self.expect("in")
                return S.UnitLet(value, self.term())
            x = self.ident()
            self.expect("(*)")
            y = self.ident()
            self.expect("=")
            value = self.term_tensor()
            self.expect("in")
            return S.TensorLet(value, x, y, self.term())
        if tok == "discard":
            self.next()
            value = self.term_tensor()
            self.expect("in")
            return S.Discard(value, self.term())
        if tok == "copy":
            self.next()
            self.expect("[")
            n = self.grade()
            self.expect(",")
            m = self.grade()
            self.expect("]")
            value = self.term_tensor()
            self.expect("as")
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect("in")
            return S.Copy(n, m, value, x, y, self.term())
        return self.term_tensor()

    def term_tensor(self) -> S.Term:
        out = self.term_app()
        while self.at("(*)"):
            self.next()
            out = S.TensorPair(out, self.term_app())
        return out

    def term_app(self) -> S.Term:
        out = self.term_prefix()
        while self._starts_atom():
            out = S.App(out, self.term_prefix())
        return out

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok in ("(", "unit", "promote", "derelict", "!"):
            return True
        return _is_ident(tok) and tok not in KEYWORDS

    def term_prefix(self) -> S.Term:
        if self.at("derelict"):
            self.next()
            return S.Derelict(self.term_prefix())
        return self.term_atom()

    def term_atom(self) -> S.Term:
        tok = self.peek()
        if tok == "unit":
            self.next()
            return S.Star()
        if tok == "(":
            self.next()
            out = self.term()
            self.expect(")")
            return out
        if tok == "!":
            self.next()
            g = self.grade()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return S.Promote(g, (), (), (), body)
        if tok == "promote":
            return self.term_promote()
        if _is_ident(tok) and tok not in KEYWORDS:
            self.next()
            if self.at("(") and self.glued[self.i]:
                self.next()
                args = [self.term()]
                while self.at(","):
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return S.OpApp(tok, tuple(args))
            return S.Var(tok)
        raise self.found("expected a term", self.i)

    def term_promote(self) -> S.Term:
        self.expect("promote")
        self.expect("[")
        r = self.grade()
        self.expect(";")
        grades = []
        if not self.at("]"):
            grades.append(self.grade())
            while self.at(","):
                self.next()
                grades.append(self.grade())
        self.expect("]")
        self.expect("(")
        args = []
        if not self.at(";"):
            args.append(self.term())
            while self.at(","):
                self.next()
                args.append(self.term())
        self.expect(";")
        binders = []
        if not self.at("=>"):
            binders.append(self.ident())
            while self.at(","):
                self.next()
                binders.append(self.ident())
        self.expect("=>")
        body = self.term()
        self.expect(")")
        if not (len(grades) == len(args) == len(binders)):
            raise ParseError("promote vectors must have equal length")
        return S.Promote(r, tuple(grades), tuple(args), tuple(binders), body)

    # -- contexts

    def context(self) -> S.Context:
        entries = []
        if self.peek():
            entries.append(self.context_entry())
            while self.at(","):
                self.next()
                entries.append(self.context_entry())
        return S.check_context(tuple(entries))

    def context_entry(self):
        x = self.ident()
        self.expect(":")
        return (x, self.type_())


def parse_term(text: str) -> S.Term:
    p = _Parser(text)
    out = p.term()
    p.done()
    return out


def parse_type(text: str) -> S.TypeExpr:
    p = _Parser(text)
    out = p.type_()
    p.done()
    return out


def parse_context(text: str) -> S.Context:
    p = _Parser(text)
    out = p.context()
    p.done()
    return out


# ---------------------------------------------------------------------------
# Printer

def print_type(ty: S.TypeExpr, prec: int = 0) -> str:
    # prec: 0 = lolli position, 1 = tensor, 2 = atom/bang
    match ty:
        case S.Ground(name):
            return name
        case S.UnitType():
            return "I"
        case S.TensorType(a, b):
            out = f"{print_type(a, 2)} * {print_type(b, 2)}"
            return f"({out})" if prec >= 2 else out
        case S.LolliType(a, b):
            out = f"{print_type(a, 1)} -o {print_type(b, 0)}"
            return f"({out})" if prec >= 1 else out
        case S.BangType(g, a):
            return f"!{grade_repr(g)} {print_type(a, 2)}"
    raise ValueError(f"unknown type node {ty!r}")


def print_term(t: S.Term, prec: int = 0) -> str:
    # prec levels: 0 = statement, 1 = tensor operand, 2 = application
    # operand, 3 = atom.
    match t:
        case S.Var(name):
            return name
        case S.Star():
            return "unit"
        case S.OpApp(op, args):
            inner = ", ".join(print_term(a, 0) for a in args)
            return f"{op}({inner})"
        case S.UnitLet(v, b):
            out = f"let unit = {print_term(v, 1)} in {print_term(b, 0)}"
            return f"({out})" if prec > 0 else out
        case S.TensorPair(l, r):
            out = f"{print_term(l, 2)} (*) {print_term(r, 2)}"
            return f"({out})" if prec > 1 else out
        case S.TensorLet(v, x, y, b):
            out = (f"let {x} (*) {y} = {print_term(v, 1)} in "
                   f"{print_term(b, 0)}")
            return f"({out})" if prec > 0 else out
        case S.Lambda(x, ty, b):
            out = f"fn {x} : {print_type(ty)} => {print_term(b, 0)}"
            return f"({out})" if prec > 0 else out
        case S.App(f, a):
            out = f"{print_term(f, 2)} {print_term(a, 3)}"
            return f"({out})" if prec > 2 else out
        case S.Promote(r, grades, args, binders, b) if not grades:
            return f"!{grade_repr(r)} ({print_term(b, 0)})"
        case S.Promote(r, grades, args, binders, b):
            gs = ",".join(grade_repr(g) for g in grades)
            vs = ", ".join(print_term(a, 0) for a in args)
            xs = ", ".join(binders)
            return f"promote[{grade_repr(r)}; {gs}]({vs}; {xs} => {print_term(b, 0)})"
        case S.Derelict(v):
            out = f"derelict {print_term(v, 3)}"
            return f"({out})" if prec > 2 else out
        case S.Discard(v, b):
            out = f"discard {print_term(v, 1)} in {print_term(b, 0)}"
            return f"({out})" if prec > 0 else out
        case S.Copy(n, m, v, x, y, b):
            out = (f"copy[{grade_repr(n)},{grade_repr(m)}] {print_term(v, 1)} "
                   f"as {x},{y} in {print_term(b, 0)}")
            return f"({out})" if prec > 0 else out
    raise ValueError(f"unknown term node {t!r}")


def print_context(ctx: S.Context) -> str:
    return ", ".join(f"{x} : {print_type(ty)}" for x, ty in ctx)
