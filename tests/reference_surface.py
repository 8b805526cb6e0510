"""Two earlier front ends of `sill.surface`, kept for differential tests.

The recursive-descent lexer and parser as they were before `sill.surface`
read terms through the printer's form table (tests/test_surface_reference.py):
the old `sill.surface`'s code, verbatim from `KEYWORDS` to `parse_file`,
except that `ParseError`, `Decl` and `SessionFile` come from `sill.surface`,
so that both parsers raise and return the same classes.

After them, `regex_lex`: the lexer that ran one `re.finditer` per line and
built one `(kind, text, line, col)` tuple per token, before `sill.surface`
split lines into flat token lists (tests/test_lexer_reference.py).  It is
verbatim but for its name and the `_RX` prefix of its regex and groups.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from sill import cp, hcp
from sill import types as ty
from sill.names import Loc, Name, fresh
from sill.surface import Decl, ParseError, SessionFile

KEYWORDS = {"new", "proc", "hproc", "inl", "inr", "par", "bot", "top"}
_PUNCT = ["<->", "(", ")", "[", "]", ".", "|", ":", ",", "=", "!", "?", "{", "}", ";", "*", "+", "&", "~"]


@dataclass
class Token:
    kind: str  # 'ident', 'kw', '0', '1', punct literal, 'eof'
    text: str
    loc: Loc


def _lex(src: str, filename: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        loc = Loc(line, col)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            toks.append(Token("kw" if word in KEYWORDS else "ident", word, loc))
            col += j - i
            i = j
            continue
        if c in "01":
            if i + 1 < n and src[i + 1].isdigit():
                raise ParseError(f"unexpected number starting {src[i:i+2]!r}", loc, filename)
            toks.append(Token(c, c, loc))
            i += 1
            col += 1
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(Token(p, p, loc))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", loc, filename)
    toks.append(Token("eof", "", Loc(line, col)))
    return toks


class _Scope:
    """Lexical scoping for term names: binders shadow, free names are shared."""

    def __init__(self, free: dict[str, Name]):
        self.free = free
        self.stack: list[dict[str, Name]] = []

    def push(self, surface: str) -> Name:
        n = fresh(surface)
        self.stack.append({surface: n})
        return n

    def pop(self) -> None:
        self.stack.pop()

    def lookup(self, surface: str) -> Name:
        for frame in reversed(self.stack):
            if surface in frame:
                return frame[surface]
        if surface not in self.free:
            self.free[surface] = fresh(surface)
        return self.free[surface]


class _Parser:
    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.pos = 0
        self.filename = filename

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            expected = what or repr(kind)
            found = repr(t.text) if t.text else "end of input"
            raise self.err(f"expected {expected}, found {found}")
        return self.next()

    def err(self, message: str, loc: Loc | None = None) -> ParseError:
        return ParseError(message, loc or self.peek().loc, self.filename)

    # -- types ------------------------------------------------------------

    def type_(self) -> ty.Type:
        return self._type_additive()

    def _type_additive(self) -> ty.Type:
        parts = [self._type_mult()]
        op = None
        while self.peek().kind in ("+", "&"):
            t = self.next()
            if op is None:
                op = t.kind
            elif t.kind != op:
                raise self.err("cannot mix '+' and '&' without parentheses", t.loc)
            parts.append(self._type_mult())
        if op is None:
            return parts[0]
        cls = ty.Plus if op == "+" else ty.With
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = cls(p, out)
        return out

    def _type_mult(self) -> ty.Type:
        parts = [self._type_atom()]
        op = None
        while self.peek().kind == "*" or (self.peek().kind == "kw" and self.peek().text == "par"):
            t = self.next()
            kind = "*" if t.kind == "*" else "par"
            if op is None:
                op = kind
            elif kind != op:
                raise self.err("cannot mix '*' and 'par' without parentheses", t.loc)
            parts.append(self._type_atom())
        if op is None:
            return parts[0]
        cls = ty.Tensor if op == "*" else ty.Par
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = cls(p, out)
        return out

    def _type_atom(self) -> ty.Type:
        t = self.peek()
        if t.kind == "~":
            self.next()
            return ty.dual(self._type_atom())
        if t.kind == "1":
            self.next()
            return ty.ONE
        if t.kind == "0":
            self.next()
            return ty.ZERO
        if t.kind == "kw" and t.text == "bot":
            self.next()
            return ty.BOT
        if t.kind == "kw" and t.text == "top":
            self.next()
            return ty.TOP
        if t.kind == "(":
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        found = repr(t.text) if t.text else "end of input"
        raise self.err(f"expected a type, found {found}")

    # -- terms ------------------------------------------------------------

    def term(self, dialect: str, scope: _Scope):
        t = self.peek()
        if t.kind == "(":
            if dialect == "cp":
                raise self.err("bare parallel composition '(P | Q)' is not a CP construct (use 'new x:A (P | Q)')", t.loc)
            self.next()
            p = self.term(dialect, scope)
            self.expect("|")
            q = self.term(dialect, scope)
            self.expect(")")
            return hcp.Par(p, q, loc=t.loc)
        if t.kind == "0":
            if dialect == "cp":
                raise self.err("the inert process '0' is not a CP construct", t.loc)
            self.next()
            return hcp.Inert(loc=t.loc)
        if t.kind == "kw" and t.text == "new":
            return self._new(dialect, scope, self.next().loc)
        if t.kind == "ident":
            return self._action(dialect, scope)
        found = repr(t.text) if t.text else "end of input"
        raise self.err(f"expected a {dialect} term, found {found}")

    def _new(self, dialect: str, scope: _Scope, loc: Loc):
        name_tok = self.expect("ident", "a channel name")
        self.expect(":")
        a = self.type_()
        x = scope.push(name_tok.text)
        try:
            if dialect == "cp":
                if self.peek().kind == ".":
                    raise self.err("CP cut is written 'new x:A (P | Q)', not 'new x:A. P'")
                self.expect("(", "'(' opening the cut body")
                p = self.term("cp", scope)
                self.expect("|")
                q = self.term("cp", scope)
                self.expect(")")
                return cp.Cut(x, a, p, q, loc=loc)
            self.expect(".", "'.' after the restriction type")
            return hcp.New(x, a, self.term("hcp", scope), loc=loc)
        finally:
            scope.pop()

    def _action(self, dialect: str, scope: _Scope):
        name_tok = self.next()
        loc = name_tok.loc
        t = self.peek()
        if t.kind == "<->":
            self.next()
            other = self.expect("ident", "a channel name")
            x, y = scope.lookup(name_tok.text), scope.lookup(other.text)
            return (cp.Link if dialect == "cp" else hcp.Link)(x, y, loc=loc)
        x = scope.lookup(name_tok.text)
        if t.kind == "[":
            self.next()
            if self.accept("]"):
                self.expect(".")
                if dialect == "cp":
                    self.expect("0", "'0' (CP halt is 'x[].0')")
                    return cp.Halt(x, loc=loc)
                return hcp.OutUnit(x, self.term("hcp", scope), loc=loc)
            payload_tok = self.expect("ident", "a channel name")
            self.expect("]")
            self.expect(".")
            y = scope.push(payload_tok.text)
            if dialect == "cp":
                try:
                    if self.peek().kind != "(":
                        raise self.err("CP output requires a '(P | Q)' body: the payload and continuation are separate processes")
                    self.next()
                    p = self.term("cp", scope)
                    self.expect("|")
                finally:
                    scope.pop()
                q = self.term("cp", scope)
                self.expect(")")
                return cp.Send(x, y, p, q, loc=loc)
            try:
                body = self.term("hcp", scope)
            finally:
                scope.pop()
            return hcp.BoundOut(x, y, body, loc=loc)
        if t.kind == "(":
            self.next()
            if self.accept(")"):
                self.expect(".")
                body = self.term(dialect, scope)
                return (cp.Wait if dialect == "cp" else hcp.InUnit)(x, body, loc=loc)
            payload_tok = self.expect("ident", "a channel name")
            self.expect(")")
            self.expect(".")
            y = scope.push(payload_tok.text)
            try:
                body = self.term(dialect, scope)
            finally:
                scope.pop()
            return (cp.Recv if dialect == "cp" else hcp.In)(x, y, body, loc=loc)
        if t.kind == "!":
            self.next()
            sel = self.expect("kw", "'inl' or 'inr'")
            if sel.text not in ("inl", "inr"):
                raise self.err("expected 'inl' or 'inr'", sel.loc)
            self.expect(".")
            body = self.term(dialect, scope)
            if dialect == "cp":
                cls = cp.Inl if sel.text == "inl" else cp.Inr
            else:
                cls = hcp.Inl if sel.text == "inl" else hcp.Inr
            return cls(x, body, loc=loc)
        if t.kind == "?":
            self.next()
            self.expect("{")
            if self.accept("}"):
                return (cp.Absurd if dialect == "cp" else hcp.Absurd)(x, loc=loc)
            sel = self.expect("kw", "'inl'")
            if sel.text != "inl":
                raise self.err("offer branches must be written inl first, then inr", sel.loc)
            self.expect(":")
            p = self.term(dialect, scope)
            self.expect(";")
            sel = self.expect("kw", "'inr'")
            if sel.text != "inr":
                raise self.err("offer branches must be written inl first, then inr", sel.loc)
            self.expect(":")
            q = self.term(dialect, scope)
            self.expect("}")
            return (cp.Case if dialect == "cp" else hcp.Case)(x, p, q, loc=loc)
        found = repr(t.text) if t.text else "end of input"
        raise self.err(f"expected an action after {name_tok.text!r}, found {found}")

    # -- declarations -----------------------------------------------------

    def env(self, scope: _Scope) -> dict[Name, ty.Type]:
        out: dict[Name, ty.Type] = {}
        if self.peek().kind != "ident":
            return out
        while True:
            name_tok = self.expect("ident", "a channel name")
            if any(n.surface == name_tok.text for n in out):
                raise self.err(f"duplicate name {name_tok.text!r} in environment", name_tok.loc)
            self.expect(":")
            t = self.type_()
            out[scope.lookup(name_tok.text)] = t
            if not self.accept(","):
                return out

    def file(self) -> "SessionFile":
        decls: list[Decl] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            kw = self.peek()
            if not (kw.kind == "kw" and kw.text in ("proc", "hproc")):
                raise self.err("expected a 'proc' or 'hproc' declaration")
            self.next()
            dialect = "cp" if kw.text == "proc" else "hcp"
            name_tok = self.expect("ident", "a declaration name")
            if name_tok.text in seen:
                raise self.err(f"duplicate declaration {name_tok.text!r}", name_tok.loc)
            seen.add(name_tok.text)
            self.expect(":")
            scope = _Scope({})
            declared = self.env(scope)
            self.expect("=")
            term = self.term(dialect, scope)
            decls.append(Decl(name_tok.text, dialect, declared, term, kw.loc))
        return SessionFile(decls, self.filename)


def parse_type(src: str, filename: str = "<input>") -> ty.Type:
    p = _Parser(_lex(src, filename), filename)
    out = p.type_()
    p.expect("eof", "end of input")
    return out


def parse_term(src: str, dialect: str, filename: str = "<input>"):
    if dialect not in ("cp", "hcp"):
        raise ValueError(f"dialect must be 'cp' or 'hcp', not {dialect!r}")
    p = _Parser(_lex(src, filename), filename)
    out = p.term(dialect, _Scope({}))
    p.expect("eof", "end of input")
    return out


def parse_file(src: str, filename: str = "<input>") -> SessionFile:
    return _Parser(_lex(src, filename), filename).file()


# -- the regex lexer ----------------------------------------------------------

# After blanks and a comment: a punctuation mark, a word, the digit 0 or 1,
# any other character (an error), or the end of the line.
_RX_TOKEN = re.compile(r"[ \t\r]*(?:--.*)?(?:(<->|[][().|:,=!?{};*+&~])|([^\W\d][\w']*)|([01])|(.)|\Z)")
_RX_PUNCT, _RX_WORD, _RX_DIGIT = range(1, 4)


def regex_lex(src: str, filename: str) -> list[tuple]:
    """src as (kind, text, line, col) tokens, ending with an "eof" token.  A
    word is a letter or "_" and then letters, digits, "_" and "'"; its kind
    is "ident" unless it is a keyword.  Any other token's kind is its text."""
    toks: list[tuple] = []
    for line, text in enumerate(src.split("\n"), 1):
        for m in _RX_TOKEN.finditer(text):
            group = m.lastindex
            if group is None:
                break
            tok, col, end = m.group(group), m.start(group) + 1, m.end()
            if group == _RX_WORD and (tok[0].isalpha() or tok[0] == "_"):
                toks.append((tok if tok in KEYWORDS else "ident", tok, line, col))
            elif group == _RX_PUNCT or group == _RX_DIGIT and not text[end:end + 1].isdigit():
                toks.append((tok, tok, line, col))
            else:
                bad = f"number starting {text[end - 1:end + 1]!r}" if group == _RX_DIGIT else f"character {tok[0]!r}"
                raise ParseError(f"unexpected {bad}", Loc(line, col), filename)
    end = text.find("--")  # a comment on the last line does not move the end
    toks.append(("eof", "", line, (len(text) if end < 0 else end) + 1))
    return toks
