"""The flat-list lexer (`sill.surface._lex`) against the regex lexer it
replaced (`reference_surface.regex_lex`).

On every input, both give the same (kind, text, line, col) tokens, or both
raise `ParseError` with the same message at the same line and column."""
from __future__ import annotations

import pytest
import reference_surface as ref
from conftest import FIXTURES
from hypothesis import given, settings
from hypothesis import strategies as st

from sill import surface
from sill.surface import ParseError


def _tokens(lex, src: str):
    try:
        return lex(src, "<src>")
    except ParseError as e:
        return e.message, e.loc


def _assert_same(src: str) -> None:
    new, old = _tokens(surface._lex, src), _tokens(ref.regex_lex, src)
    if isinstance(old, list):
        assert len(new) == 4 and list(zip(*new)) == old, src
    else:
        assert new == old, src


CORPUS = [
    "proc A : w:1 =\r\n\tnew x:1 (x[].0 |\r\n\tx().w[].0)\r\n",  # CRLF line endings and tabs
    "proc A : w:1 = w[].0--c", "proc A : w:1 = w[].0--c\n",  # a comment glued to a token
    "proc A : w:1 = w[].0\n-- end", "proc A : w:1 = w[].0 -- end",  # a comment on the last line, no newline
    "-- only a comment", "-- a comment\n-- and another\n", "", "\n", "\n\n  \t\r",  # comment-only and empty files
    "01", "1²", "w²", "λ", "ª", "_x", "x'", "w[].1²", "w[].0²", "0proc", "1x", "0'", "0_", "x:10",
    "<-", "x <- y", "x<-->y", "@", "proc A : w:1 = w[].0 @", "x<->y", "-", "->", "<", "\ufeffproc",
    "²w", "٣", "Ⅻ", "aⅫ", "x٣", "'w", "new x:1*1 (x[y].(y[].0 | x[].0) | x(y).y().x().w[].0)",
    "x?{inl: x[].0; inr: x[].0}", "x?{}", "x!inl.x!inr.0", "1 + 1 & top par bot * ~0",
]


@pytest.mark.parametrize("src", CORPUS)
def test_corpus(src):
    _assert_same(src)


def test_fixtures():
    for path in sorted(FIXTURES.glob("*.sill")):
        _assert_same(path.read_text(encoding="utf-8"))


# Pieces of sources: every token, blanks and line ends, comment starts, and
# the characters that start no token or only start one in some places.
_PIECES = ["<->", "(", ")", "[", "]", ".", "|", ":", ",", "=", "!", "?", "{", "}", ";", "*", "+", "&", "~",
           "0", "1", "2", "01", "x", "y'", "_", "x1", "proc", "hproc", "new", "inl", "inr", "par", "bot", "top",
           " ", "\t", "\r", "\n", "\r\n", "--", "-- c\n", "-", "<", ">", "<-", "λ", "ª", "²", "é", "٣", "Ⅻ", "'",
           "@", "\ufeff", "\x0b", "\u00a0"]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_token_strings(src):
    _assert_same(src)


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet="".join(sorted(set("".join(_PIECES)))), max_size=40))
def test_character_strings(src):
    _assert_same(src)
