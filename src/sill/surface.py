"""Concrete syntax for types, terms, environments, and .sill session files.

ASCII mapping: * for tensor, par, + and & for the additives, bot/top/0/1 for
units, ~A for duality (expanded eagerly).  CP terms write the cut as
`new x:A (P | Q)`; HCP terms write `new x:A. P` and bare `(P | Q)`, `0`.
Line comments start with --.  parse(print(v)) returns a structurally equal
value (terms: alpha-equal with the same surface names).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import cp, hcp
from . import types as ty
from .names import Loc, Name, fresh
from .terms import SCHEMA

KEYWORDS = {"new", "proc", "hproc", "inl", "inr", "par", "bot", "top"}
_PUNCT = ["<->", "(", ")", "[", "]", ".", "|", ":", ",", "=", "!", "?", "{", "}", ";", "*", "+", "&", "~"]


class ParseError(Exception):
    def __init__(self, message: str, loc: Loc, filename: str = "<input>"):
        self.message = message
        self.loc = loc
        self.filename = filename
        super().__init__(f"{filename}:{loc}: syntax error: {message}")


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


@dataclass
class Decl:
    name: str
    dialect: str  # 'cp' | 'hcp'
    env: dict[Name, ty.Type]
    term: object
    loc: Loc


@dataclass
class SessionFile:
    decls: list[Decl]
    filename: str = "<input>"

    def get(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)


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


# -- printing ---------------------------------------------------------------

print_type = ty.render


# Each constructor's printed form: its field names ("x", "y", "ty" and its
# subterm fields) and the literal text between them.
_FORM_PIECES = [
    ((cp.Link, hcp.Link), ("x", "<->", "y")),
    ((cp.Recv, hcp.In), ("x", "(", "y", ").", "body")),
    ((cp.Wait, hcp.InUnit), ("x", "().", "body")),
    ((cp.Inl, hcp.Inl), ("x", "!inl.", "body")),
    ((cp.Inr, hcp.Inr), ("x", "!inr.", "body")),
    ((cp.Case, hcp.Case), ("x", "?{inl: ", "left", "; inr: ", "right", "}")),
    ((cp.Absurd, hcp.Absurd), ("x", "?{}")),
    ((cp.Cut,), ("new ", "x", ":", "ty", " (", "left", " | ", "right", ")")),
    ((cp.Send,), ("x", "[", "y", "].(", "payload", " | ", "cont", ")")),
    ((cp.Halt,), ("x", "[].0")),
    ((hcp.Inert,), ("0",)),
    ((hcp.New,), ("new ", "x", ":", "ty", ". ", "body")),
    ((hcp.Par,), ("(", "left", " | ", "right", ")")),
    ((hcp.BoundOut,), ("x", "[", "y", "].", "body")),
    ((hcp.OutUnit,), ("x", "[].", "body")),
]
_LITERAL, _NAME, _TYPE, _TERM = range(4)


def _form(cls, pieces: tuple) -> tuple:
    """The (kind, text or field) pieces of a printed form, last piece first."""
    shape = SCHEMA[cls]

    def kind(piece: str) -> int:
        if piece in shape.subterms:
            return _TERM
        if piece in shape.names or piece == shape.binder:
            return _NAME
        return _TYPE if shape.typed and piece == "ty" else _LITERAL

    return tuple((kind(p), p) for p in reversed(pieces))


_FORMS = {cls: _form(cls, pieces) for classes, pieces in _FORM_PIECES for cls in classes}


# what the name choice reads of each term class: its subject-name fields, its
# binder field (or None), and its subterms inside and outside the binder's
# scope, each last first
_SCOPING = {cls: (s.names, s.binder, s.inside[::-1], s.outside[::-1]) for cls, s in SCHEMA.items()}


def _print_names(t) -> dict[Name, str]:
    """Choose printed spellings: keep surfaces, renaming only binders whose
    scope contains a distinct free name of the same surface (which a reparse
    would capture).

    One walk decides every clash.  Per surface, the binders in scope form a
    stack.  A use of a name whose binder sits at index i of that stack (-1
    when it is free) is a distinct free name in the scope of every binder
    above i, so it lowers the innermost binder's `low` to i; when a scope
    ends, its `low` passes to the binder below.  A binder clashes iff its
    `low` ends below its own index."""
    taken: set[str] = set()
    scopes: dict[str, list] = {}  # surface -> binders in scope, as [name, low, index, shadowed]
    at: dict[Name, int] = {}  # bound name -> index of its innermost binder in scopes[surface]
    order: list[list] = []  # every binder entry, in pre-order
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is list:  # the scope of binder entry t ends
            b, low, i, shadowed = t
            scope = scopes[b.surface]
            scope.pop()
            if shadowed is None:
                del at[b]
            else:
                at[b] = shadowed
            if scope and low < scope[-1][1]:
                scope[-1][1] = low
            continue
        scoping = _SCOPING.get(type(t))
        if scoping is None:
            raise TypeError(f"not a term: {t!r}")
        uses, binder, inside, outside = scoping
        for f in uses:
            n = getattr(t, f)
            taken.add(n.surface)
            scope = scopes.get(n.surface)
            if scope:
                i = at.get(n, -1)
                if i < scope[-1][1]:
                    scope[-1][1] = i
        for f in outside:
            stack.append(getattr(t, f))
        if binder is not None:
            b = getattr(t, binder)
            taken.add(b.surface)
            scope = scopes.setdefault(b.surface, [])
            entry = [b, len(scope), len(scope), at.get(b)]
            at[b] = len(scope)
            scope.append(entry)
            order.append(entry)
            stack.append(entry)
            for f in inside:
                stack.append(getattr(t, f))

    def pick(surface: str) -> str:
        if surface not in taken:
            return surface
        i = 1
        while f"{surface}{i}" in taken:
            i += 1
        return f"{surface}{i}"

    out: dict[Name, str] = {}
    for b, low, i, _ in order:
        if low < i and b not in out:
            s = pick(b.surface)
            taken.add(s)
            out[b] = s
    return out


def print_terms(terms) -> list[str]:
    """`[print_term(t) for t in terms]`, printing each shared node once.

    A root whose name choice renames nothing prints every binder with its
    own surface, so its text is a plain concatenation and each node's span
    in it is that node's text.  The emitter records those spans (for every
    root but the last) and, from the next root on, emits any node already
    recorded as a slice of the text it was met in: a root met before costs
    no name walk, and a new root runs `_print_names` once and slices the
    nodes it shares.  That is sound because a binder clashes iff a use in
    its scope refers to a distinct name with the same surface that is bound
    outside the binder or free, in any context; a subterm holds each of its
    binders with the whole scope, so every subterm of a root that renames
    nothing also renames nothing when printed alone.  A root that does
    rename something prints from scratch and records nothing, since the
    spellings inside its subterms depend on it.  Memo entries keep their
    node alive, so no `id` is reused."""
    terms = list(terms)
    out: list[str] = []
    memo: dict[int, tuple] = {}  # id(node) -> (node, text it was met in, start, end)
    last = len(terms) - 1
    for k, root in enumerate(terms):
        hit = memo.get(id(root))
        if hit is not None:
            out.append(hit[1][hit[2]:hit[3]])
            continue
        names = _print_names(root)
        lookup = memo.get if memo and not names else None
        spans: list[list] | None = [] if k < last and not names else None  # [node, first part, end part]
        parts: list[str] = []
        stack = [root]
        while stack:
            t = stack.pop()
            cls = type(t)
            if cls is str:
                parts.append(t)
                continue
            if cls is int:  # the node spans[t] ends
                spans[t].append(len(parts))
                continue
            if lookup is not None:
                hit = lookup(id(t))
                if hit is not None:
                    parts.append(hit[1][hit[2]:hit[3]])
                    continue
            if spans is not None:
                stack.append(len(spans))
                spans.append([t, len(parts)])
            for kind, piece in _FORMS[cls]:
                if kind is _LITERAL:
                    stack.append(piece)
                elif kind is _TERM:
                    stack.append(getattr(t, piece))
                elif kind is _NAME:
                    n = getattr(t, piece)
                    stack.append(names.get(n, n.surface))
                else:
                    stack.append(ty.render(getattr(t, piece)))
        text = "".join(parts)
        out.append(text)
        if spans:
            at = [0, *accumulate(map(len, parts))]  # part index -> text offset
            for t, a, b in spans:
                memo[id(t)] = (t, text, at[a], at[b])
    return out


def print_term(t) -> str:
    return print_terms([t])[0]


def print_env(env: dict[Name, ty.Type]) -> str:
    if not env:
        return "·"
    return ", ".join(f"{n.surface}:{ty.render(a)}" for n, a in env.items())


def print_hyper_env(part) -> str:
    if not part:
        return "·"
    return " | ".join(print_env(e) for e in part)


def print_file(f: SessionFile) -> str:
    lines = []
    for d in f.decls:
        kw = "proc" if d.dialect == "cp" else "hproc"
        head = f"{kw} {d.name} :"
        if d.env:
            head += f" {print_env(d.env)}"
        lines.append(f"{head} = {print_term(d.term)}")
    return "\n".join(lines) + "\n"
