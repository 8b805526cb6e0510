"""Concrete syntax for types, terms, environments, and .sill session files.

ASCII mapping: * for tensor, par, + and & for the additives, bot/top/0/1 for
units, ~A for duality (expanded eagerly).  CP terms write the cut as
`new x:A (P | Q)`; HCP terms write `new x:A. P` and bare `(P | Q)`, `0`.
Line comments start with --.  parse(print(v)) returns a structurally equal
value (terms: alpha-equal with the same surface names).

The lexer does its per-token work in C: it cuts each line at its first
`--`, splits the rest with one compiled regex into blanks and tokens, takes
the tokens' kinds by dictionary lookup and their columns by summing the
lengths of the parts before them, and checks each distinct word once.  It
returns four flat lists, the tokens' kinds, texts, lines and columns, which
the reader indexes by token position; a node's `Loc` is made from its
first token's line and column when the node is built.

`_FORM_PIECES` is the one table of term syntax: the printer emits each form
in it, and a trie per dialect built from it reads them back.  Neither
recurses, so neither has a depth limit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice, repeat

from . import cp, hcp
from . import types as ty
from .names import Loc, Name, fresh
from .terms import SCHEMA

KEYWORDS = {"new", "proc", "hproc", "inl", "inr", "par", "bot", "top"}


class ParseError(Exception):
    def __init__(self, message: str, loc: Loc, filename: str = "<input>"):
        self.message = message
        self.loc = loc
        self.filename = filename
        super().__init__(f"{filename}:{loc}: syntax error: {message}")


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
_LITERAL, _NAME, _BINDER, _TYPE, _TERM = range(5)


def _form(cls, pieces: tuple) -> tuple:
    """The (kind, text or field) pieces of a printed form, last piece first."""
    shape = SCHEMA[cls]

    def kind(piece: str) -> int:
        if piece in shape.subterms:
            return _TERM
        if piece == shape.binder:
            return _BINDER
        if piece in shape.names:
            return _NAME
        return _TYPE if shape.typed and piece == "ty" else _LITERAL

    return tuple((kind(p), p) for p in reversed(pieces))


_FORMS = {cls: _form(cls, pieces) for classes, pieces in _FORM_PIECES for cls in classes}


# -- lexing -----------------------------------------------------------------

_MARKS = "()[].|:,=!?{};*+&~"  # the one-character punctuation marks; the other one is "<->"
# A keyword, a punctuation mark or the digit 0 or 1 is its own token kind;
# any other word is an "ident".
_KINDS = {tok: tok for tok in (*KEYWORDS, "<->", *_MARKS, "0", "1")}

# A line without its comment, as [blanks, token, blanks, token, ..., blanks]:
# a token is a punctuation mark, a run of word characters and "'", or any
# other character but a blank (an error).
_SPLIT = re.compile(f"(<->|[{re.escape(_MARKS)}]|[\\w']+|[^ \\t\\r])").split


def _lex(src: str, filename: str) -> tuple[list, list, list, list]:
    """src as four flat lists, one entry per token: its kind, its text, its
    line and its column, ending with an "eof" token.  A line comment starts
    at the line's first "--".  A word is a letter or "_" and then letters,
    digits, "_" and "'"; its kind is "ident" unless it is a keyword.  Any
    other token's kind is its text.

    Each line is split in C, and each distinct word is checked once: a
    run of word characters that is no single token is taken apart by
    `_odd_word`, which raises on the first character that starts none."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    words_ok = set(_KINDS)  # runs known to be one token each
    for line, text in enumerate(src.split("\n"), 1):
        end = text.find("--")
        if end >= 0:
            text = text[:end]
        parts = _SPLIT(text)
        words = parts[1::2]
        if not words:
            continue
        at = list(islice(accumulate(map(len, parts), initial=1), 1, len(parts), 2))
        odd = set()
        for word in set(words).difference(words_ok):
            (words_ok if word[0].isalpha() or word[0] == "_" else odd).add(word)
        if odd:
            pairs = [tok for word, col in zip(words, at)
                     for tok in (_odd_word(word, line, col, filename) if word in odd else ((word, col),))]
            words, at = [w for w, _ in pairs], [c for _, c in pairs]
        kinds += map(_KINDS.get, words, repeat("ident"))
        texts += words
        lines += repeat(line, len(words))
        cols += at
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(len(text) + 1)  # a comment on the last line does not move the end
    return kinds, texts, lines, cols


def _odd_word(word: str, line: int, col: int, filename: str) -> list[tuple[str, int]]:
    """The (text, column) tokens of a part that the split took for one token
    but that starts with no letter or "_" (a run of word characters and "'",
    or one other character, but not the single tokens 0 and 1): a digit 0
    or 1 not followed by a digit, then one word."""
    out = []
    if word[0] in "01":  # not a token alone, so a second character follows; a digit there raises
        if word[1].isdigit():
            raise ParseError(f"unexpected number starting {word[:2]!r}", Loc(line, col), filename)
        out.append((word[0], col))
        word, col = word[1:], col + 1
    if not (word[0].isalpha() or word[0] == "_"):
        raise ParseError(f"unexpected character {word[0]!r}", Loc(line, col), filename)
    out.append((word, col))
    return out


# -- the term reader ----------------------------------------------------------


class _Node:
    """A state of a dialect's term reader.  It reads a token (`edges`: its kind
    -> what the token is and the next state; `read` is `edges.get`), or takes
    a `step`: a type or a subterm, then `then`; or a term class, the form
    read.  `hints` replace the error message for a token kind (None: for any
    token)."""

    def __init__(self):
        self.edges: dict[str, tuple] = {}
        self.read = self.edges.get
        self.hints: dict = {}
        self.step = self.then = None
        self.ends_scope = False  # after the subterm, the form's binder goes out of scope

    def grow(self, key, what, ends_scope: bool) -> _Node:
        """The state after key (a token kind, or a step), added if new."""
        if isinstance(key, str) and self.step is None:
            was, node = self.edges.setdefault(key, (what, _Node()))
            if was == what:
                return node
        elif self.step is None and not self.edges:
            self.step, self.ends_scope, self.then = key, ends_scope, _Node()
            return self.then
        elif (self.step, self.ends_scope) == (key, ends_scope):
            return self.then
        raise ValueError(f"two forms of the table clash at {key!r}")


def _items(cls):
    """Reading a form of cls: (token kind, what it is, False) per token, and
    (_TYPE or _TERM, None, whether the binder's scope ends after it)."""
    inside = SCHEMA[cls].inside
    for kind, piece in reversed(_FORMS[cls]):
        if kind is _LITERAL:
            for tok in _lex(piece, "<forms>")[0][:-1]:
                yield tok, _LITERAL, False
        elif kind is _NAME or kind is _BINDER:
            yield "ident", kind, False
        else:
            yield kind, None, bool(inside) and piece == inside[-1]


# What the CP reader says where it stops reading an HCP-only form.
_CP_HINTS = {
    hcp.Par: "bare parallel composition '(P | Q)' is not a CP construct (use 'new x:A (P | Q)')",
    hcp.Inert: "the inert process '0' is not a CP construct",
    hcp.New: "CP cut is written 'new x:A (P | Q)', not 'new x:A. P'",
    hcp.BoundOut: "CP output requires a '(P | Q)' body: the payload and continuation are separate processes",
    hcp.OutUnit: "expected '0' (CP halt is 'x[].0'), found {found}",
}


def _reader(base: type, hints: dict) -> _Node:
    """The trie of the forms of base's subclasses, with each hint's message
    where the trie stops reading the form of the hint's class."""
    root = _Node()
    for cls in (c for c in _FORMS if issubclass(c, base)):
        node = root
        for item in _items(cls):
            node = node.grow(*item)
        node.grow(cls, None, False)
    for cls, message in hints.items():
        node = root
        for key, _, _ in _items(cls):
            if key in node.edges:
                node = node.edges[key][1]
            elif key == node.step:
                node = node.then
            else:
                node.hints[key if isinstance(key, str) else None] = message
                break
    return root


_READERS = {"cp": _reader(cp.CpTerm, _CP_HINTS), "hcp": _reader(hcp.HcpTerm, {})}


# -- parsing ----------------------------------------------------------------

# The binary type connectives, one level per row from the loosest: a level's
# operators associate to the right and never mix without parentheses.
_TYPE_LEVELS = ({"+": ty.Plus, "&": ty.With}, {"*": ty.Tensor, "par": ty.Par})
_LEVEL_OF = {op: i for i, level in enumerate(_TYPE_LEVELS) for op in level}
_TYPE_UNITS = {"1": ty.ONE, "0": ty.ZERO, "bot": ty.BOT, "top": ty.TOP}


class _Scope:
    """Lexical scoping for term names: per surface, its free name (None until
    used) and then its binders in scope, innermost last."""

    def __init__(self):
        self.names: dict[str, list] = {}
        self.order: list[str] = []  # the surfaces of the binders in scope, innermost last

    def push(self, surface: str) -> Name:
        n = fresh(surface)
        names = self.names.get(surface)
        if names is None:
            self.names[surface] = [None, n]
        else:
            names.append(n)
        self.order.append(surface)
        return n

    def pop(self) -> None:
        self.names[self.order.pop()].pop()

    def lookup(self, surface: str) -> Name:
        names = self.names.get(surface)
        if names is None:
            n = fresh(surface)
            self.names[surface] = [n]
            return n
        if names[-1] is None:
            names[-1] = fresh(surface)
        return names[-1]


_loc = partial(tuple.__new__, Loc)  # Loc(line, col) from the pair, without a Python-level call


class _Parser:
    """A reader of the lexer's token lists; `pos` is the index of the next
    token, and a token is named by its index."""

    def __init__(self, src: str, filename: str):
        self.kinds, self.texts, self.lines, self.cols = _lex(src, filename)
        self.pos = 0
        self.filename = filename

    def whole(self, read, *args):
        """read(self, *args), which must take every token."""
        out = read(self, *args)
        self.expect("eof", "end of input")
        return out

    def next(self) -> int:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos += 1
        return i

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> int:
        if self.kinds[self.pos] != kind:
            raise self.unexpected(what or repr(kind), self.pos)
        return self.next()

    def loc(self, i: int) -> Loc:
        return Loc(self.lines[i], self.cols[i])

    def err(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.loc(i), self.filename)

    def unexpected(self, what: str, i: int, message: str | None = None) -> ParseError:
        found = repr(self.texts[i]) if self.texts[i] else "end of input"
        return self.err((message or "expected {what}, found {found}").format(what=what, found=found), i)

    def type_(self) -> ty.Type:
        """A type, read with an explicit stack of open parentheses."""
        kinds = self.kinds
        a = _TYPE_UNITS.get(kinds[self.pos])
        if a is not None and kinds[self.pos + 1] not in _LEVEL_OF:  # a lone unit, read as the loop below would
            self.pos += 1
            return a
        stack = []  # per open parenthesis: the runs outside it and the '~'s before it
        runs = [[None] for _ in _TYPE_LEVELS]  # per level: its operator so far, then its operands
        while True:
            duals = 0
            while self.accept("~"):
                duals += 1
            i = self.next()
            if kinds[i] == "(":
                stack.append((runs, duals))
                runs = [[None] for _ in _TYPE_LEVELS]
                continue
            a = _TYPE_UNITS.get(kinds[i])
            if a is None:
                raise self.unexpected("a type", i)
            while True:  # a is a whole operand: an atom, or a closed parenthesis
                if duals % 2:
                    a = a.dual
                op = kinds[self.pos]
                level = _LEVEL_OF.get(op, -1)
                for k in range(len(runs) - 1, level, -1):  # the runs that a ends
                    run = runs[k]
                    for b in reversed(run[1:]):
                        a = _TYPE_LEVELS[k][run[0]](b, a)
                    runs[k] = [None]
                if level >= 0:
                    run = runs[level]
                    if run[0] not in (None, op):
                        ops = " and ".join(map(repr, _TYPE_LEVELS[level]))
                        raise self.err(f"cannot mix {ops} without parentheses", self.pos)
                    run[0] = op
                    run.append(a)
                    self.next()
                    break
                if not stack:
                    return a
                self.expect(")")
                runs, duals = stack.pop()

    def process(self, dialect: str, scope: _Scope):
        """A term of the dialect, read by walking its trie, with an explicit
        stack of the forms whose subterm is being read."""
        root = _READERS[dialect]
        kinds, texts, lines, cols = self.kinds, self.texts, self.lines, self.cols
        names, lookup, push = scope.names, scope.lookup, scope.push
        pos = self.pos
        frames = []  # per form being read: the state reading its subterm, its fields so far, its first token
        node, values, first = root, [], pos
        while True:
            hit = node.read(kinds[pos])
            if hit is not None:  # a token
                what, node = hit
                if what:  # not _LITERAL
                    if what is _NAME:
                        bound = names.get(texts[pos])  # scope.lookup, inlined where the name is drawn already
                        values.append(bound[-1] if bound and bound[-1] is not None else lookup(texts[pos]))
                    else:
                        values.append(push(texts[pos]))
                pos += 1
                continue
            step = node.step
            if step is _TERM:
                frames.append((node, values, first))
                node, values, first = root, [], pos
            elif step is _TYPE:
                self.pos = pos
                values.append(self.type_())
                pos = self.pos
                node = node.then
            elif step is None:
                hint = node.hints.get(kinds[pos]) or node.hints.get(None)
                expected = " or ".join("a channel name" if k == "ident" else repr(k) for k in node.edges)
                raise self.unexpected(f"a {dialect} term" if node is root else expected, pos, hint)
            else:  # step is the class of the form read
                t = step(*values, loc=_loc((lines[first], cols[first])))
                if not frames:
                    self.pos = pos
                    return t
                node, values, first = frames.pop()  # the form waiting for t
                values.append(t)
                if node.ends_scope:
                    scope.pop()
                node = node.then

    # -- declarations -----------------------------------------------------

    def env(self, scope: _Scope) -> dict[Name, ty.Type]:
        out: dict[Name, ty.Type] = {}
        if self.kinds[self.pos] != "ident":
            return out
        while True:
            i = self.expect("ident", "a channel name")
            n = scope.lookup(self.texts[i])  # the one name of that spelling: no binder is in scope
            if n in out:
                raise self.err(f"duplicate name {self.texts[i]!r} in environment", i)
            self.expect(":")
            out[n] = self.type_()
            if not self.accept(","):
                return out

    def file(self) -> "SessionFile":
        decls: list[Decl] = []
        seen: set[str] = set()
        kinds, texts = self.kinds, self.texts
        while kinds[self.pos] != "eof":
            kw = self.next()
            if kinds[kw] not in ("proc", "hproc"):
                raise self.unexpected("a 'proc' or 'hproc' declaration", kw)
            dialect = "cp" if kinds[kw] == "proc" else "hcp"
            i = self.expect("ident", "a declaration name")
            name = texts[i]
            if name in seen:
                raise self.err(f"duplicate declaration {name!r}", i)
            seen.add(name)
            self.expect(":")
            scope = _Scope()
            declared = self.env(scope)
            self.expect("=")
            term = self.process(dialect, scope)
            decls.append(Decl(name, dialect, declared, term, self.loc(kw)))
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
    return _Parser(src, filename).whole(_Parser.type_)


def parse_term(src: str, dialect: str, filename: str = "<input>"):
    if dialect not in ("cp", "hcp"):
        raise ValueError(f"dialect must be 'cp' or 'hcp', not {dialect!r}")
    return _Parser(src, filename).whole(_Parser.process, dialect, _Scope())


def parse_file(src: str, filename: str = "<input>") -> SessionFile:
    return _Parser(src, filename).whole(_Parser.file)


# -- printing ---------------------------------------------------------------

# what the name choice reads of each term class: its subject-name fields, its
# binder field (or None), and its subterms inside and outside the binder's
# scope, each last first
_SCOPING = {cls: (s.names, s.binder, s.inside[::-1], s.outside[::-1]) for cls, s in SCHEMA.items()}


def _print_names(t, memo: dict | None = None) -> dict[Name, str]:
    """Choose printed spellings: keep surfaces, renaming only binders whose
    scope contains a distinct free name of the same surface (which a reparse
    would capture).

    One walk decides every clash.  Per surface, the binders in scope form a
    stack.  A use of a name whose binder sits at index i of that stack (-1
    when it is free) is a distinct free name in the scope of every binder
    above i, so it lowers the innermost binder's `low` to i; when a scope
    ends, its `low` passes to the binder below.  A binder clashes iff its
    `low` ends below its own index.

    With memo (`print_terms`' table of the nodes met in roots that rename
    nothing, by id), the walk does not enter a memo node that keeps its
    free-name set (`_fv`): it counts each name of that set as a use where
    it would have entered the node, and decides the same clashes.  Whether
    a binder clashes depends only on the uses in its scope, so no binder
    inside a memo node clashes in any context, and one that does not clash
    passes down no `low` below its own index: the uses of the node's bound
    names lower no binder outside it.  At each use of one of its free
    names, the innermost binder with the same surface lies outside the
    node (one inside would clash), so the use lowers the same binder to the
    same index as a use at the node's entry would.  The surfaces inside a
    skipped node are missing from `taken`, so if a binder does clash the
    walk runs again without memo, so that renaming sees every surface."""
    taken: set[str] = set()
    scopes: dict[str, list] = {}  # surface -> binders in scope, as [name, low, index, shadowed]
    at: dict[Name, int] = {}  # bound name -> index of its innermost binder in scopes[surface]
    order: list[list] = []  # every binder entry, in pre-order
    root = t
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
        fv = t.__dict__.get("_fv") if memo is not None and id(t) in memo else None
        if fv is not None:  # a skipped node: its free names are its uses
            uses, binder, outside = fv, None, ()
        for f in uses:
            n = f if fv is not None else getattr(t, f)
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
    if memo is not None and any(low < i for _, low, i, _ in order):
        return _print_names(root)

    out: dict[Name, str] = {}
    for b, low, i, _ in order:
        if low < i and b not in out:  # b.surface is taken: the walk met b
            k = 1
            while f"{b.surface}{k}" in taken:
                k += 1
            out[b] = f"{b.surface}{k}"
            taken.add(out[b])
    return out


def print_terms(terms) -> list[str]:
    """`[print_term(t) for t in terms]`, printing each shared node once.

    A root whose name choice renames nothing prints every binder with its
    own surface, so its text is a plain concatenation and each node's span
    in it is that node's text.  The emitter records those spans (for every
    root but the last) and, from the next root on, emits any node already
    recorded as a slice of the text it was met in: a root met before costs
    no name walk, and a new root runs `_print_names` once and slices the
    nodes it shares.  The name walk, too, stops at a recorded node that
    keeps its free-name set and takes the set as the node's uses, so a new
    root costs time in its new nodes, not in its size.  That is sound
    because a binder clashes iff a use in its scope refers to a distinct
    name with the same surface that is bound outside the binder or free, in
    any context; a subterm holds each of its binders with the whole scope,
    so every subterm of a root that renames nothing also renames nothing
    when printed alone (`_print_names` gives the argument for its walk).  A
    root that does rename something prints from scratch and records
    nothing, since the spellings inside its subterms depend on it.  Memo
    entries keep their node alive, so no `id` is reused."""
    terms = list(terms)
    out: list[str] = []
    memo: dict[int, tuple] = {}  # id(node) -> (node, text it was met in, start, end)
    last = len(terms) - 1
    for k, root in enumerate(terms):
        hit = memo.get(id(root))
        if hit is not None:
            out.append(hit[1][hit[2]:hit[3]])
            continue
        names = _print_names(root, memo or None)
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
                elif kind is _TYPE:
                    stack.append(ty.render(getattr(t, piece)))
                else:
                    n = getattr(t, piece)
                    stack.append(names.get(n, n.surface))
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


