from __future__ import annotations

import random

import pytest

from conftest import CORPUS, corpus_run_threads, load
from gen import random_party_set, random_program, random_surface
from hypothesis import given, settings, strategies as st
from oracles import reference_lex, reference_parse, reference_print, renders_injectively
from gradualpi.castinsert import insert_casts
from gradualpi.parser import (
    DuplicateDeclarationError,
    GpiParseError,
    GpiSyntaxError,
    UndeclaredChannelError,
    _Parser,
    _lex,
    format_channel,
    parse,
    parse_process,
    print_cast,
    print_surface,
)
from gradualpi.syntax import (
    Capability,
    CastChannel,
    ChanType,
    Choice,
    CTypeError,
    DYN,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Replicate,
    Restrict,
    ReverseOutput,
    Span,
    TypeEnv,
    alpha_equal,
    free_names,
)
from gradualpi.typecheck import check

T = ChanType(Capability.OUT, ())


def test_parse_empty_program():
    program = parse("run 0")
    assert program.env.bindings == ()
    assert program.proc == Nil()


def test_parse_client_shape():
    program = load("client.gpi")
    r, b, m100, s = Name("r"), Name("b"), Name("m100"), Name("s")
    assert program.env.lookup(r) == ChanType(Capability.IN, (DYN,))
    assert program.env.lookup(m100) == T
    expected = Input(
        r,
        ((b, DYN),),
        Choice(Output(b, (m100,), Nil()), Input(b, ((s, T),), Nil())),
    )
    assert program.proc == expected


def test_parse_reverse_output_and_sugar():
    proc = parse_process("r!!<x>")
    assert proc == ReverseOutput(Name("r"), (Name("x"),), Nil())
    assert print_surface(proc) == "r!!<x>.0"


def test_parse_precedence_and_associativity():
    proc = parse_process("a!<>.0 + b!<>.0 | c!<>.0")
    assert isinstance(proc, Par)
    assert isinstance(proc.left, Choice)
    right = parse_process("a!<> | b!<> | c!<>")
    assert isinstance(right, Par) and isinstance(right.right, Par)
    plus = parse_process("a!<> + b!<> + c!<>")
    assert isinstance(plus, Choice) and isinstance(plus.right, Choice)
    for chain in (right, plus):  # each node spans from its first operand to the end of the chain
        assert (chain.span, chain.right.span) == (Span(1, 1, 1, 19), Span(1, 8, 1, 19))


def test_parse_prefix_binds_tighter_than_choice():
    proc = parse_process("new (x:dyn) a!<>.0 + b!<>.0")
    assert isinstance(proc, Choice)
    assert isinstance(proc.left, Restrict)


def test_parse_replication_forms():
    assert parse_process("!a?(x:dyn).0") == Replicate(Input(Name("a"), ((Name("x"), DYN),), Nil()))
    assert parse_process("!!0") == Replicate(Replicate(Nil()))
    assert print_surface(Replicate(Replicate(Nil()))) == "!(!0)"


def test_parse_zero_arity_forms():
    proc = parse_process("a?().a!<>.0")
    assert proc == Input(Name("a"), (), Output(Name("a"), (), Nil()))


def test_parse_errors_carry_positions():
    with pytest.raises(GpiSyntaxError) as err:
        parse("chan a : i(;\nrun 0")
    assert err.value.line == 1 and err.value.col == 12
    assert err.value.expected


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateDeclarationError):
        parse("chan a : o(); chan a : o(); run 0")
    many = "".join(f"chan c{k} : o();\n" for k in range(1999)) + "chan c0 : o();\nrun 0"
    with pytest.raises(DuplicateDeclarationError) as err:
        parse(many)
    assert (err.value.message, err.value.line, err.value.col) == ("channel c0 is declared twice", 2000, 6)


def test_undeclared_free_name_rejected():
    with pytest.raises(UndeclaredChannelError) as err:
        parse("chan a : o(); run a!<b>.0")
    assert err.value.name == Name("b")


class _WalkAlone(_Parser):
    """The parser with the declaration walk run on every program: a name
    that no program can declare ('#' is not an identifier character) counts
    as used."""

    def __init__(self, tokens):
        super().__init__(tokens)
        self.used.add(Name("#undeclared"))


def _declaration_outcome(parser: type, text: str):
    try:
        parser(_lex(text)).parse_program(None)
    except GpiParseError as exc:
        return type(exc), getattr(exc, "name", None), exc.line, exc.col, exc.message
    return "parsed"


def test_declaration_precheck_reports_what_the_walk_alone_reports():
    rng = random.Random(61)
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.gpi"))]
    programs = [random_program(rng, dyn_free=k % 2 == 0) for k in range(150)]
    programs += [party for _ in range(60) for party in random_party_set(rng, allow_dyn=True, allow_new=True)]
    for env, proc in programs:  # each declaration dropped with probability 1/3
        kept = "".join(f"chan {n} : {t};\n" for n, t in env.bindings if rng.random() < 2 / 3)
        texts.append(f"{kept}run {print_surface(proc)}\n")
    chain = "a?(x:dyn).x!<a>." * 5000
    cases = [
        "chan a : dyn;\nrun a!<> | (b!<>.0)",  # a parenthesised prefix: the error takes its group's span
        "chan a : dyn;\nrun a!<> | ((a?(x:dyn).0 + b!<a>.0))",
        "chan a : dyn;\nchan x : dyn;\nrun a?(x:dyn).x!<>.0 | x!<a>",  # a bound name shadows a declared one
        "chan a : dyn;\nrun a?(x:dyn).x!<>.0 | x!<a>",  # ... or an undeclared one, then used free
        "chan a : dyn;\nrun new (b:dyn) b!<a>.0 | b?().0",  # bound by a `new` on the left only
        "chan a : dyn;\nrun b!<>.0 |\n a!<",  # a syntax error after the undeclared name still wins
        f"chan a : dyn;\nrun {chain}0",  # 10,000 prefixes deep
        f"chan a : dyn;\nrun {chain}y!<>.0",
    ]
    outcomes = []
    skipped = 0
    for text in texts + cases:
        outcomes.append(_declaration_outcome(_Parser, text))
        assert outcomes[-1] == _declaration_outcome(_WalkAlone, text), text[:200]
        parser = _Parser(_lex(text))
        if outcomes[-1] == "parsed":
            skipped += parser.used <= {name for name, _ in parser.parse_program(None).env.bindings}
    undeclared = sum(outcome[0] is UndeclaredChannelError for outcome in outcomes if outcome != "parsed")
    assert len(texts) >= 200 and undeclared >= 50 and skipped >= 100, (len(texts), undeclared, skipped)
    assert [outcome if outcome == "parsed" else outcome[:4] for outcome in outcomes[-8:]] == [
        (UndeclaredChannelError, Name("b"), 2, 12),
        (UndeclaredChannelError, Name("b"), 2, 28),
        "parsed",
        (UndeclaredChannelError, Name("x"), 2, 24),
        (UndeclaredChannelError, Name("b"), 2, 27),
        (GpiSyntaxError, None, 3, 5),
        "parsed",
        (UndeclaredChannelError, Name("y"), 2, 5 + len(chain)),
    ]
    assert free_names(parse_process("b!<>.0 | (c?().0)")) == {Name("b"), Name("c")}  # the bare form checks nothing


def test_binder_repetition_rejected():
    with pytest.raises(GpiSyntaxError):
        parse_process("a?(x:dyn, x:dyn).0")


def test_capability_letters_are_usable_as_channel_names():
    proc = parse_process("i?(o:dyn).o!<>.0")
    assert proc == Input(Name("i"), ((Name("o"), DYN),), Output(Name("o"), (), Nil()))


def test_reserved_words_are_not_channel_names():
    with pytest.raises(GpiSyntaxError):
        parse("chan dyn : o(); run 0")
    with pytest.raises(GpiSyntaxError):
        parse_process("new!<>.0")


def _tokens_or_error(lex, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col, t.end_col) for t in lex(text)]
    except GpiSyntaxError as exc:
        return (exc.message, exc.line, exc.col)


# Pieces the two lexers could split differently: comments, blanks, `0`
# next to identifier characters, runs of `!`, quotes, digits, non-ASCII.
# Half the soups leave out the pieces that are errors outside a comment,
# so that token positions deep into a text are compared too.
_SOUP_LEXES = (
    "--", "\r", "\t", "\n", " ", "0", "!!!", "!!", "!", "_", "a", "x1", "y'2",
    "chan", "run", "new", "dyn", "runx", "i", "o", "(", ")", "<", ">", ":", ";", ",", ".", "?", "+", "|",
)
_SOUP = _SOUP_LEXES + ("-", "0x", "0'", "00", "'", "1", "7", "9", "é", "λ")


def _texts() -> list[str]:
    """The corpus, 300 printed random programs and terms, and 3,000 token soups."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.gpi"))]
    rng = random.Random(43)
    for k in range(300):
        if k % 2:
            env, proc = random_program(rng, dyn_free=rng.random() < 0.5)
            decls = "".join(f"chan {n} : {t};\n" for n, t in env.bindings)
            texts.append(f"{decls}run {print_surface(proc)}\n")
        else:
            texts.append(print_surface(random_surface(rng, 6)))
    for k in range(3000):
        pieces = _SOUP if k % 2 else _SOUP_LEXES
        texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(0, 30))))
    return texts


def test_lexer_matches_the_reference_lexer():
    texts = _texts()
    errors = 0
    for text in texts:
        got = _tokens_or_error(_lex, text)
        assert got == _tokens_or_error(reference_lex, text), repr(text)
        errors += isinstance(got, tuple)
    assert 1000 <= errors <= len(texts) - 1000, errors  # both outcomes are well represented


def _spans(p) -> list[Span]:
    """Every node's span in pre-order; spans take no part in equality."""
    spans, stack = [], [p]
    while stack:
        p = stack.pop()
        spans.append(p.span)
        stack += [getattr(p, attr) for attr in ("right", "left", "body") if hasattr(p, attr)]
    return spans


def _parsed_or_error(parser, text: str):
    try:
        program = parser(text)
    except GpiParseError as exc:
        return type(exc), exc.message, exc.line, exc.col, exc.expected
    return program.env, program.proc, _spans(program.proc)


def _declared(proc) -> str:
    """A program text that declares every free name of ``proc``."""
    names = sorted({str(n) for n in free_names(proc)})
    return "".join(f"chan {n} : dyn;\n" for n in names) + f"run {print_surface(proc)}\n"


def test_parser_matches_the_reference_parser():
    rng = random.Random(53)
    texts = [variant for text in _texts() for variant in (text, f"run {text}")]
    texts += [_declared(random_surface(rng, 8)) for _ in range(300)]
    # undeclared names inside parentheses and deep inside chains
    deep = "a?(x:dyn)." * 60
    texts += [
        "chan a : dyn; run (a!<> | (b!<>))",
        "chan a : dyn; run ((a!<>.0 + a?(x:dyn).(x!<b>)) | a!<>)",
        f"chan a : dyn; run {deep}x!<>.(a!<x> | {deep}(a!<> + y!<x>))",
        f"chan a : dyn; run !({deep}0) | new (y:dyn) {deep}(a!<y>.z?().0)",
        f"chan a : dyn; run {'(' * 50}a!<> | {deep}b!<>{')' * 50}",
    ]
    outcomes = {"parsed": 0, "undeclared": 0, "syntax": 0}
    for text in texts:
        got = _parsed_or_error(parse, text)
        assert got == _parsed_or_error(reference_parse, text), repr(text)
        if isinstance(got[0], TypeEnv):
            outcomes["parsed"] += 1
        else:
            outcomes["undeclared" if got[0] is UndeclaredChannelError else "syntax"] += 1
    assert min(outcomes.values()) >= 100, outcomes  # every outcome is well represented


_FUZZ_PIECES = st.sampled_from(_SOUP) | st.integers(1, 3000).map(lambda k: "(" * k)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(("", "run ", "chan a : dyn;\nrun ")), st.lists(_FUZZ_PIECES, max_size=40))
def test_parse_of_token_soup_returns_or_raises_a_parse_error(head, pieces):
    text = head + "".join(pieces)
    try:
        parse(text)
    except GpiParseError as exc:
        assert exc.line >= 1 and exc.col >= 1


def test_eof_after_a_final_comment_sits_at_the_comment():
    for text in ("chan a : o(); -- note", "chan a : o();   -- note", "chan a : o(); --"):
        with pytest.raises(GpiSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, text.index("--") + 1)
        assert "end of input" in err.value.message
    with pytest.raises(GpiSyntaxError) as err:
        parse("chan a : o(); -- note\n  ")
    assert (err.value.line, err.value.col) == (2, 3)


def test_parse_totality_fuzz():
    rng = random.Random(23)
    alphabet = "chan run new dyn io?!<>():;,.|+01xyz'_\"\\\n\t $éλ"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse(text)
        except GpiParseError as exc:
            assert exc.line >= 0 and exc.col >= 0


def test_roundtrip_parse_print_surface():
    rng = random.Random(29)
    for _ in range(300):
        proc = random_surface(rng, 6)
        text = print_surface(proc)
        again = parse_process(text)
        assert alpha_equal(proc, again), f"{text!r} reparsed differently"


def test_print_is_deterministic():
    rng = random.Random(31)
    for _ in range(50):
        proc = random_surface(rng, 5)
        assert print_surface(proc) == print_surface(proc)


def test_printers_match_the_reference_wherever_names_render_injectively():
    rng = random.Random(37)
    surface = [random_surface(rng, 6) for _ in range(300)]
    programs = [load(path.name) for path in sorted(CORPUS.glob("*.gpi"))]
    compiled = [insert_casts(p.env, p.proc).proc for p in programs if check(p.env, p.proc).ok]
    threads = corpus_run_threads()
    for printer, terms, least in (
        (print_surface, surface + [p.proc for p in programs], 300),
        (print_cast, compiled, len(programs) // 2),
        (print_cast, threads, 200),
    ):
        compared = [term for term in terms if renders_injectively(term)]
        assert len(compared) >= least
        for term in compared:
            assert printer(term) == reference_print(term)


# Binders and literal identifiers that render alike: Name("x", 1) and
# Name("x'1") both print as x'1, and Name("x'1", 1) as x'1'1.
_CLASH_BINDERS = (Name("x"), Name("x", 1), Name("x'1"), Name("x", 2), Name("x'1", 1), Name("x'2"))
_CLASH_FREE = (Name("a"), Name("x"), Name("x'1"), Name("x'2"), Name("x'1'1"))


def _count_renamed_binders(p, again, scope, counts) -> None:
    """Walk a term and its re-parse together, counting binders printed
    under another text and binders whose text an enclosing binder renders."""
    if isinstance(p, (Input, Restrict)):
        if isinstance(p, Input):
            pairs = [(n, m) for (n, _), (m, _) in zip(p.binders, again.binders)]
        else:
            pairs = [(p.name, again.name)]
        for n, m in pairs:
            counts[type(p).__name__] += str(n) != m.base
            counts["nested"] += scope.get(str(n), n) != n
        scope = {**scope, **{str(n): n for n, _ in pairs}}
    for attr in ("body", "left", "right"):
        child = getattr(p, attr, None)
        if child is not None:
            _count_renamed_binders(child, getattr(again, attr), scope, counts)


def test_print_renames_binder_clashing_with_free_rendering():
    rng = random.Random(41)
    counts = {"Input": 0, "Restrict": 0, "nested": 0}
    for _ in range(400):
        proc = random_surface(rng, 7, free_pool=_CLASH_FREE, binder_pool=_CLASH_BINDERS)
        text = print_surface(proc)
        again = parse_process(text)
        assert alpha_equal(proc, again), f"{text!r} reparsed differently"
        _count_renamed_binders(proc, again, {}, counts)
    assert min(counts.values()) >= 20, counts
    # a scope ends with its term: binders in sibling branches may render alike
    siblings = Par(*(Input(Name("a"), ((n, DYN),), Output(n, (), Nil())) for n in _CLASH_BINDERS[1:3]))
    assert print_surface(siblings) == "a?(x'1:dyn).x'1!<>.0 | a?(x'1:dyn).x'1!<>.0"


def _prefix_chain(pairs: int, quote: str) -> str:
    """`a?(x0:dyn).x0!<m>. ...`, the benchmark's long front-end program."""
    rng = random.Random(0)
    steps = []
    for _ in range(pairs):
        x = f"{rng.choice('xyz')}{quote}{rng.randrange(4)}"
        steps.append(f"a?({x}:dyn).{x}!<{rng.choice('mn')}>.")
    return "chan a : dyn; chan m : o(); chan n : o();\nrun " + "".join(steps) + "0\n"


def test_printing_takes_at_most_one_free_name_pass(monkeypatch):
    """Printing may take one free-name pre-pass per term and never substitutes."""
    import gradualpi.parser as parser
    from gradualpi.syntax import substitute

    calls = {"free_names": 0, "substitute": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(parser, "free_names", counted("free_names", parser.free_names))
    monkeypatch.setattr(parser, "substitute", counted("substitute", substitute), raising=False)
    for quote in ("", "'"):  # a quoted binder such as x'1 could render like another name
        program = parse(_prefix_chain(80, quote))
        compiled = insert_casts(program.env, program.proc).proc
        for printer, term in ((print_surface, program.proc), (print_cast, compiled)):
            calls.update(free_names=0, substitute=0)
            assert printer(term).count("?(") == 80
            assert calls["free_names"] <= 1 and calls["substitute"] == 0, (printer.__name__, quote, calls)


def test_spans_cover_and_nest():
    def contains(outer, inner) -> bool:
        start, end = (inner.line, inner.col), (inner.end_line, inner.end_col)
        return (outer.line, outer.col) <= start and end <= (outer.end_line, outer.end_col)

    for name in ("client.gpi", "agency.gpi", "sneaky_client.gpi"):
        program = load(name)

        def walk(p, parent):
            assert p.span is not None
            if parent is not None:
                assert contains(parent, p.span), f"{name}: child span escapes parent"
            for attr in ("body", "left", "right"):
                child = getattr(p, attr, None)
                if child is not None:
                    walk(child, p.span)

        walk(program.proc, None)


def test_format_channel_collapses_chains():
    oT = ChanType(Capability.OUT, (T,))
    chan = CastChannel(Name("x"), ((oT, DYN), (DYN, oT)))
    assert format_channel(chan) == "(x : o(o()) => dyn => o(o()))"


def test_format_channel_breaks_at_seams():
    chan = CastChannel(Name("v"), ((T, DYN), (T, DYN)))
    assert format_channel(chan) == "((v : o() => dyn) : o() => dyn)"


def test_print_cast_type_error():
    assert print_cast(CTypeError()) == "typeError"


def test_corpus_files_parse():
    for path in sorted(CORPUS.glob("*.gpi")):
        program = parse(path.read_text(encoding="utf-8"), source=path.name)
        declared = {n for n, _ in program.env.bindings}
        assert free_names(program.proc) <= declared
