"""Concrete syntax for `.gpi` programs, plus the pretty-printers.

A program is a sequence of `chan NAME : TYPE ;` declarations followed by
`run PROCESS`.  The grammar is LL(1): prefix operators bind tighter than
`+`, which binds tighter than `|`; both binary operators associate to the
right; `--` starts a line comment; a trailing `.0` after a prefix may be
omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from .syntax import (
    Capability,
    CastChannel,
    CastProcess,
    ChanType,
    Choice,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
    CTypeError,
    DYN,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Process,
    Replicate,
    Restrict,
    ReverseOutput,
    Span,
    SurfaceProcess,
    Type,
    TypeEnv,
    free_names,
    free_occurrences,
)


class GpiParseError(Exception):
    """Any rejection of input text; always carries a source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: {message}")


class GpiSyntaxError(GpiParseError):
    pass


class UndeclaredChannelError(GpiParseError):
    def __init__(self, name: Name, line: int, col: int):
        super().__init__(f"channel {name} is used but not declared", line, col)
        self.name = name


class DuplicateDeclarationError(GpiParseError):
    def __init__(self, name: Name, line: int, col: int):
        super().__init__(f"channel {name} is declared twice", line, col)
        self.name = name


@dataclass(frozen=True)
class Program:
    """A parsed `.gpi` file: declared channel types and the process to run."""

    env: TypeEnv
    proc: SurfaceProcess
    source: Optional[str] = field(default=None, compare=False)


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_KEYWORDS = {"chan", "run", "new", "dyn"}

# Blanks, then one of: a newline, a `--` comment, an identifier or keyword,
# a punctuation token (`0` only when no identifier character follows it),
# any other character (an error), or the end of the text.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|(--[^\n]*)|([A-Za-z_][A-Za-z0-9_']*)"
    r"|(0(?![A-Za-z0-9_'])|!!|[()<>:;,.!?+|])|(.)|\Z)"
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    end_col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    new = tuple.__new__
    line, start = 1, 0  # start: index of the current line's first character
    eof = len(text)
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:  # the end of the text
            break
        i = m.start(group)
        if group == 3:
            word = m[3]
            col = i - start + 1
            append(new(_Token, (word if word in _KEYWORDS else "ident", word, line, col, col + len(word))))
        elif group == 4:
            punct = m[4]
            col = i - start + 1
            append(new(_Token, (punct, punct, line, col, col + len(punct))))
        elif group == 1:
            line += 1
            start = i + 1
        elif group == 2:
            if m.end() == eof:  # after a final comment, eof sits where the comment starts
                eof = i
        else:
            raise GpiSyntaxError(f"unexpected character {m[5]!r}", line, i - start + 1)
    col = eof - start + 1
    append(new(_Token, ("eof", "", line, col, col)))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail((kind,))
        return self.next()

    def fail(self, expected: tuple[str, ...]) -> None:
        tok = self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        want = ", ".join(repr(e) for e in expected)
        raise GpiSyntaxError(f"unexpected {shown!r}, expected one of: {want}", tok.line, tok.col, expected)

    # -- types ------------------------------------------------------------

    def parse_type(self) -> Type:
        tok = self.peek()
        if tok.kind == "dyn":
            self.next()
            return DYN
        if tok.kind == "ident" and tok.text in ("i", "o"):
            self.next()
            cap = Capability.IN if tok.text == "i" else Capability.OUT
            self.expect("(")
            args: list[Type] = []
            if self.peek().kind != ")":
                args.append(self.parse_type())
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.parse_type())
            self.expect(")")
            return ChanType(cap, tuple(args))
        self.fail(("dyn", "i", "o"))
        raise AssertionError  # unreachable

    # -- processes ---------------------------------------------------------

    def parse_process(self) -> SurfaceProcess:
        """`choice ('|' choice)*` with `choice` = `prefix ('+' prefix)*`,
        both folded to the right.

        The open `|` and `+` chains, the prefixes still waiting for their
        body and the parenthesised groups enclosing them are kept on
        explicit stacks, so nesting is limited by memory alone.
        """
        groups = []  # per open `(`: its token and the enclosing state
        pars: list[SurfaceProcess] = []  # finished operands of the open `|` chain
        choices: list[SurfaceProcess] = []  # finished operands of the open `+` chain
        pending: list = []  # prefixes waiting for their body: (node, fields, start token)
        while True:
            tok = self.peek()
            kind = tok.kind
            if kind == "(":
                self.pos += 1
                groups.append((tok, pars, choices, pending))
                pars, choices, pending = [], [], []
                continue
            if kind == "!" or kind == "!!":
                # '!!P' is two replications; the reverse-output '!!' only follows a name.
                self.pos += 1
                pending += [(Replicate, (), tok)] * len(kind)
                continue
            if kind == "new":
                self.pos += 1
                self.expect("(")
                name_tok = self.expect("ident")
                self.expect(":")
                ty = self.parse_type()
                self.expect(")")
                pending.append((Restrict, (Name(name_tok.text), ty), tok))
                continue
            if kind == "ident":
                node, fields, close = self.parse_action()
                pending.append((node, fields, tok))
                if self.peek().kind == ".":
                    self.pos += 1
                    continue
                proc = Nil(Span(close.line, close.end_col, close.line, close.end_col))  # omitted trailing .0
            elif kind == "0":
                self.pos += 1
                proc = Nil(Span(tok.line, tok.col, tok.line, tok.end_col))
            else:
                self.fail(("0", "!", "new", "(", "channel name"))
            # `proc` ends a prefix chain: close its prefixes, then every chain and group it ends.
            while True:
                end = self.tokens[self.pos - 1]
                for node, fields, start in reversed(pending):
                    proc = node(*fields, proc, Span(start.line, start.col, end.line, end.end_col))
                kind = self.peek().kind
                if kind == "+" or kind == "|":
                    break
                proc = _fold_chain(Par, pars, _fold_chain(Choice, choices, proc, end), end)
                if not groups:
                    return proc
                close = self.expect(")")
                tok, pars, choices, pending = groups.pop()
                proc = replace(proc, span=Span(tok.line, tok.col, close.line, close.end_col))
            self.pos += 1
            if kind == "+":
                choices.append(proc)
            else:
                pars.append(_fold_chain(Choice, choices, proc, end))
                choices = []
            pending = []

    def parse_action(self) -> tuple[type, tuple, _Token]:
        """`name?(binders)` or `name!<args>` or `name!!<args>`: the node
        class, its fields before the body, and the closing token."""
        subject = Name(self.next().text)
        tok = self.peek()
        if tok.kind == "?":
            self.next()
            self.expect("(")
            binders: list[tuple[Name, Type]] = []
            seen: set[Name] = set()
            if self.peek().kind != ")":
                binders.append(self.parse_binder(seen))
                while self.peek().kind == ",":
                    self.next()
                    binders.append(self.parse_binder(seen))
            return Input, (subject, tuple(binders)), self.expect(")")
        if tok.kind in ("!", "!!"):
            self.next()
            self.expect("<")
            args: list[Name] = []
            if self.peek().kind != ">":
                args.append(Name(self.expect("ident").text))
                while self.peek().kind == ",":
                    self.next()
                    args.append(Name(self.expect("ident").text))
            close = self.expect(">")
            return (Output if tok.kind == "!" else ReverseOutput), (subject, tuple(args)), close
        self.fail(("?", "!", "!!"))
        raise AssertionError

    def parse_binder(self, seen: set[Name]) -> tuple[Name, Type]:
        tok = self.expect("ident")
        name = Name(tok.text)
        if name in seen:
            raise GpiSyntaxError(f"binder {name} repeated in one input", tok.line, tok.col)
        seen.add(name)
        self.expect(":")
        return name, self.parse_type()

    # -- programs ----------------------------------------------------------

    def parse_program(self, source: Optional[str]) -> Program:
        decls: list[tuple[Name, Type]] = []
        declared: set[Name] = set()
        while self.peek().kind == "chan":
            self.next()
            tok = self.expect("ident")
            name = Name(tok.text)
            if name in declared:
                raise DuplicateDeclarationError(name, tok.line, tok.col)
            declared.add(name)
            self.expect(":")
            ty = self.parse_type()
            self.expect(";")
            decls.append((name, ty))
        self.expect("run")
        proc = self.parse_process()
        self.expect("eof")
        _check_declared(proc, frozenset(declared))
        return Program(TypeEnv(tuple(decls)), proc, source)


def _fold_chain(node, operands: list[SurfaceProcess], last: SurfaceProcess, end: _Token) -> SurfaceProcess:
    """`operands` then `last`, folded to the right; each node's span runs
    from its left operand's start to ``end``, the end of the chain."""
    for left in reversed(operands):
        last = node(left, last, Span(left.span.line, left.span.col, end.line, end.end_col))
    return last


def _check_declared(proc: SurfaceProcess, declared: frozenset[Name]) -> None:
    for name, prefix in free_occurrences(proc):
        if name not in declared:
            span = prefix.span
            line, col = (span.line, span.col) if span else (0, 0)
            raise UndeclaredChannelError(name, line, col)


def parse(text: str, source: Optional[str] = None) -> Program:
    """Parse a `.gpi` program; every rejection raises a positioned error."""
    return _Parser(_lex(text)).parse_program(source)


def parse_process(text: str) -> SurfaceProcess:
    """Parse a bare process (no declarations); used by tests."""
    parser = _Parser(_lex(text))
    proc = parser.parse_process()
    parser.expect("eof")
    return proc


# --------------------------------------------------------------------------
# Pretty-printers
# --------------------------------------------------------------------------

_PAR, _CHOICE, _PREFIX = 0, 1, 2
_SHARED = object()  # owner of a text that two distinct free names render


def format_channel(c: CastChannel) -> str:
    """Collapsed chain notation, e.g. `(x : o(o()) => dyn => o(o()))`.

    Stacks whose frames do not chain are printed as nested groups.
    """
    return _cast_chain(str(c.base), c.casts)


def _cast_chain(out: str, casts: tuple[tuple[Type, Type], ...]) -> str:
    if not casts:
        return out
    chain: list[Type] = [casts[0][0], casts[0][1]]
    for source, target in casts[1:]:
        if source == chain[-1]:
            chain.append(target)
        else:
            out = f"({out} : {' => '.join(str(t) for t in chain)})"
            chain = [source, target]
    return f"({out} : {' => '.join(str(t) for t in chain)})"


def print_surface(p: SurfaceProcess) -> str:
    """Deterministic text that re-parses to an alpha-equivalent process.

    A binder whose text another name in its scope already renders, such as
    a renamed `x'1` next to a written `x'1`, prints with a bumped index.
    """
    return _print(p)


def print_cast(p: CastProcess) -> str:
    """Deterministic text for cast-calculus terms; `typeError` prints as such."""
    return _print(p)


class _Env:
    """The text of the names in one printed term.

    Only a name with an index or a quote in its base renders like another
    (`Name("x", 1)` and `Name("x'1")` both print `x'1`), so only such
    binders are checked.  `text` maps each of them in scope to its text;
    `owner` maps each text in use to its name: those binders and the free
    names of the whole term, collected when the first of them is met.
    """

    __slots__ = ("root", "text", "owner")

    def __init__(self, root: Process):
        self.root = root
        self.text: dict[Name, str] = {}
        self.owner: Optional[dict[str, object]] = None

    def show(self, n: Name) -> str:
        return (self.text.get(n) or str(n)) if self.text else str(n)

    def bind(self, binders: tuple[tuple[Name, Type], ...]) -> tuple[str, list]:
        """Bring `binders` into scope; returns their text and the undo log.

        A binder keeps `str(name)` unless another visible name renders that
        text; then its index is bumped until the text is unused.
        """
        undo = []
        for n, _ in binders:
            if not n.index and "'" not in n.base:
                continue
            owner = self.owner
            if owner is None:
                owner = self.owner = {}
                for free in free_names(self.root):
                    owner[str(free)] = _SHARED if str(free) in owner else free
            m, s = n, str(n)
            while (held := owner.get(s, n)) is not n and held != n:
                m = Name(m.base, m.index + 1)
                s = str(m)
            undo += ((self.text, n, self.text.get(n)), (owner, s, owner.get(s)))
            self.text[n] = s
            owner[s] = n
        return ", ".join(f"{self.show(n)}:{t}" for n, t in binders), undo

    @staticmethod
    def unbind(undo: list) -> None:
        for table, key, old in reversed(undo):
            if old is None:
                del table[key]
            else:
                table[key] = old


def _print(root: Process) -> str:
    """The text of ``root``, from an explicit stack of terms (each with the
    loosest operator it may show unparenthesised), literal pieces and scope
    exits, joined once."""
    env = _Env(root)
    out: list[str] = []
    stack: list = [(root, _PAR)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is list:  # the undo log of a scope that ends here
            env.unbind(item)
            continue
        p, want = item
        level = _PAR if isinstance(p, (Par, CPar)) else _CHOICE if isinstance(p, (Choice, CChoice)) else _PREFIX
        if level < want:
            out.append("(")
            stack.append(")")
        match p:
            case Nil() | CNil():
                out.append("0")
            case CTypeError():
                out.append("typeError")
            case Input(a, binders, body) | CInput(a, binders, body):
                subject = env.show(a) if isinstance(p, Input) else _cast_chain(env.show(a.base), a.casts)
                binder_list, undo = env.bind(binders)
                out.append(f"{subject}?({binder_list}).")
                stack += (undo, (body, _PREFIX))
            case Output(a, args, body) | ReverseOutput(a, args, body):
                inner = ", ".join(env.show(x) for x in args)
                bang = "!" if isinstance(p, Output) else "!!"
                out.append(f"{env.show(a)}{bang}<{inner}>.")
                stack.append((body, _PREFIX))
            case COutput(c, args, body):
                inner = ", ".join(_cast_chain(env.show(x.base), x.casts) for x in args)
                out.append(f"{_cast_chain(env.show(c.base), c.casts)}!<{inner}>.")
                stack.append((body, _PREFIX))
            case Par(l, r) | CPar(l, r):
                stack += ((r, _PAR), " | ", (l, _CHOICE))
            case Choice(l, r) | CChoice(l, r):
                stack += ((r, _CHOICE), " + ", (l, _PREFIX))
            case Restrict(x, t, body) | CRestrict(x, t, body):
                binder, undo = env.bind(((x, t),))
                out.append(f"new ({binder}) ")
                stack += (undo, (body, _PREFIX))
            case Replicate(body) | CReplicate(body):
                if isinstance(body, (Replicate, CReplicate)):
                    out.append("!(")
                    stack += (")", (body, _PREFIX))
                else:
                    out.append("!")
                    stack.append((body, _PREFIX))
            case _:
                raise TypeError(f"not a process: {p!r}")
    return "".join(out)
