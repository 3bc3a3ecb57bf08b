"""The one-pass term tokenizer against the token-by-token reference in
support.py, and the line:col of the parser's errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gvlam import parser
from gvlam.parser import (ParseError, parse_context, parse_term, parse_type,
                          tokenize)

import support

# Characters that make tokens, whitespace the tokenizer skips (a line
# separator among it: whitespace that is not a newline), and characters
# no token starts with.
ALPHABET = ("abfnxyzI_'019" "()[];:,=*!.-o>" " \t\n\r " '#"@é')
FRAGMENTS = ["fn", "x", " ", "\n", "\t", ":", "X", "=>", "-o", "->", "(*)",
             "(", ")", "wait_1", "!", "2", "[", "]", ";", ",", "promote",
             "#", '"', "@", "let", "  \n ", "é", "1x", "x'"]
TEXTS = st.one_of(st.text(alphabet=ALPHABET, max_size=40),
                  st.lists(st.sampled_from(FRAGMENTS), max_size=25)
                  .map("".join))


@given(TEXTS)
def test_tokenize_matches_reference(text):
    try:
        ref = support.reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(exc)
        assert (got.value.line, got.value.col) == (exc.line, exc.col)
        return
    texts, glued = tokenize(text)
    assert texts == [t.text for t in ref]
    assert glued == [t.glued for t in ref]
    # Each token's place, computed from the offset only for an error.
    p = parser._Parser(text)
    for i, t in enumerate(ref):
        err = p.error("message", i)
        assert (err.line, err.col) == (t.line, t.col)
        assert str(err) == f"{t.line}:{t.col}: message"


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "", "1:1: expected a term, found 'end of input'"),
    (parse_term, "fn x : X =>\n  \t",
     "2:4: expected a term, found 'end of input'"),
    (parse_term, "wait_1(x) @", "1:11: unexpected character '@'"),
    (parse_term, "x\n  #", "2:3: unexpected character '#'"),
    (parse_term, '"x"', "1:1: unexpected character '\"'"),
    (parse_term, "f (x", "1:5: expected ')', found 'end of input'"),
    (parse_term, "plus(x,\n\ty) z )",
     "2:7: trailing input starting at ')'"),
    (parse_type, "X -o", "1:5: expected a type, found 'end of input'"),
    (parse_context, "x : X,\n y X", "2:4: expected ':', found 'X'"),
    (parse_term, "copy[1,a] x as a, b in a",
     "1:8: unknown grade literal 'a'"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_trailing_whitespace_and_glued_calls():
    assert parse_term("x \t\n ") == parse_term("x")
    texts, glued = tokenize("wait_1(x) f (x)")
    assert texts == ["wait_1", "(", "x", ")", "f", "(", "x", ")", ""]
    assert glued == [True, True, True, True, False, False, True, True,
                     False]
    assert tokenize("") == ([""], [False])
