import dataclasses
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BARE_SURROGATES
from mvsum import ntriples
from mvsum.ntriples import (
    _ROW,
    _ROW_ANY,
    RDF_TYPE,
    ParseError,
    Triple,
    _tokenize_line,
    normalize_bnode_label,
    parse_ntriples,
    triple_line,
)

ESCAPES = Path(__file__).parent / "data" / "escapes.nt"


def parse_one(line: str) -> Triple:
    (t,) = parse_ntriples([line])
    return t


def _single_line(text: str, line: int) -> Triple:
    """`parse_ntriples`'s path for one line read on its own: `_ROW_ANY`, or the tokenizer on a miss."""
    return ntriples._line_triple(text, line, {})


def round_trip(triples: list[Triple]) -> list[Triple]:
    """Write each triple as its canonical line, then parse the lines back."""
    return list(parse_ntriples(triple_line(t) + "\n" for t in triples))


def _assert_exact_types(t) -> None:
    # A Triple equals the plain 3-tuple of its fields, and a str subclass
    # equals its text, so equality cannot tell them apart; the types must be exact.
    assert type(t) is Triple
    assert all(type(term) is str for term in t)


def _lit(value: str, suffix: str = "") -> str:
    """A literal's canonical text, spelled here independently of the parser."""
    for ch, esc in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
        value = value.replace(ch, esc)
    value = re.sub(r"[\x00-\x1f]", lambda m: "\\u%04X" % ord(m.group()), value)
    return f'"{value}"{suffix}'


def test_parse_plain_iri_triple():
    t = parse_one("<urn:a> <urn:p> <urn:b> .")
    assert t == Triple("<urn:a>", "urn:p", "<urn:b>")


def test_parse_datatyped_literal():
    t = parse_one('<urn:a> <urn:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert t.object == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_parse_langtag_literal():
    t = parse_one('<urn:a> <urn:p> "hi"@en-GB .')
    assert t.object == '"hi"@en-GB'


def test_parse_blank_nodes():
    t = parse_one("_:a <urn:p> _:b1 .")
    assert t.subject == "_:a"
    assert t.object == "_:b1"


def test_missing_object_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_one("<urn:a> <urn:p> .")
    assert exc.value.line == 1
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("bad", [
    "<urn:a> <urn:p> <urn:b>",          # missing dot
    "<urn:a> <urn:p> <urn:b> . extra",  # trailing garbage
    '"lit" <urn:p> <urn:b> .',          # literal subject
    "<urn:a> _:b <urn:c> .",            # blank predicate
    '<urn:a> <urn:p> "x"^^bad .',       # datatype not an IRI
    "<urn:a> <urn:p> <urn:b> ..",
])
def test_malformed_lines(bad):
    with pytest.raises(ParseError):
        parse_one(bad)


def test_escapes_unescaped():
    # Decoded, then spelled once: ECHARs as they came, UCHARs as characters.
    t = parse_one(r'<urn:a> <urn:p> "a\"b\\c\nd\teAf\U0001F600" .')
    assert t.object == _lit('a"b\\c\nd\teAf\N{GRINNING FACE}')
    t = parse_one(r'<urn:\u0061> <urn:p\U00000071> "\u0041\u0009\u0022"^^<urn:\u0064> .')
    assert t == Triple("<urn:a>", "urn:pq", '"A\\t\\""^^<urn:d>')


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12))
@settings(max_examples=200)
def test_uchar_escaped_literal_is_spelled_canonically(value):
    # Every character written as a UCHAR escape parses to the canonical text.
    escaped = "".join("\\U%08X" % ord(ch) for ch in value)
    line = f'<urn:a> <urn:p> "{escaped}" .'
    assert parse_one(line).object == _lit(value)
    assert _tokenize_line(line, 1).object == _lit(value)


def test_bad_escape_is_error():
    with pytest.raises(ParseError):
        parse_one(r'<urn:a> <urn:p> "a\qb" .')


@pytest.mark.parametrize("line, col, char", [
    (r"<urn:a\u0020b> <urn:p> <urn:b> .", 7, " "),
    (r"<urn:a> <urn:p\u003C> <urn:b> .", 15, "<"),
    (r"<urn:a> <urn:p> <urn:\U0000005Cb> .", 22, "\\"),
    (r'<urn:a> <urn:p> "x"^^<urn:d\u0022t> .', 28, '"'),
])
def test_escaped_iri_character_the_writer_refuses_is_parse_error(line, col, char):
    with pytest.raises(ParseError) as exc:
        parse_one(line)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert exc.value.reason == f"escaped character {char!r} not allowed in IRI"


@pytest.mark.parametrize("line, col", [
    (r"<urn:a\uD800> <urn:p> <urn:b> .", 7),
    (r"<urn:a> <urn:p\udfff> <urn:b> .", 15),
    (r"<urn:a> <urn:p> <urn:\U0000DBFF> .", 22),
    (r'<urn:a> <urn:p> "x\uDC00" .', 19),
    (r'<urn:a> <urn:p> "x"^^<urn:d\uD800> .', 28),
    (r'<urn:a> <urn:p> "x\U0000D800" .   junk', 19),  # the tokenizer path
])
def test_surrogate_escape_is_parse_error(line, col):
    for parse in (_single_line, _tokenize_line):
        with pytest.raises(ParseError) as exc:
            parse(line, 1)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert exc.value.reason.startswith("escape of a surrogate code point")


_TYPE = f"<{RDF_TYPE}>"


@pytest.mark.parametrize("line, col", [
    (f'<urn:a> {_TYPE} "x" .', 59),
    (f'<urn:a> {_TYPE} "x"@en .', 59),
    (f'<urn:a> {_TYPE} "x"^^<urn:d> .', 59),
    (f"<urn:a>  {_TYPE}\t_:c .", 60),
    ("<urn:a> " + _TYPE.replace("#", "\\u0023") + ' "x" .', 64),  # escaped '#'
    (f'<urn:a> {_TYPE} "x" .   junk', 59),  # the tokenizer path
])
def test_rdf_type_object_must_be_iri(line, col):
    for parse in (_single_line, _tokenize_line):
        with pytest.raises(ParseError) as exc:
            parse(line, 1)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert exc.value.reason == "rdf:type object must be an IRI"
    assert parse_one(f"<urn:a> {_TYPE} <urn:C> .").object == "<urn:C>"


def test_comments_and_blank_lines_skipped():
    text = "# header\n\n   \n<urn:a> <urn:p> <urn:b> . # trailing comment\n"
    triples = list(parse_ntriples(io.StringIO(text)))
    assert len(triples) == 1


def test_error_carries_line_number():
    lines = ["<urn:a> <urn:p> <urn:b> .", "broken", "<urn:c> <urn:p> <urn:d> ."]
    with pytest.raises(ParseError) as exc:
        list(parse_ntriples(lines))
    assert exc.value.line == 2


def test_skip_and_count_mode():
    lines = ["<urn:a> <urn:p> <urn:b> .", "broken", "<urn:c> <urn:p> <urn:d> .", "<bad"]
    errors = []
    triples = list(parse_ntriples(lines, on_error=errors.append))
    assert len(triples) == 2
    assert [e.line for e in errors] == [2, 4]


def test_invalid_utf8_reported_with_line():
    errors = []
    # As a file opened with errors="surrogateescape" yields them.
    data = [b"<urn:a> <urn:p> \xff .\n", b'<urn:\xc3\xa9> <urn:p> "\xff" .\n']
    lines = [line.decode("utf-8", "surrogateescape") for line in data]
    out = list(parse_ntriples(lines, on_error=errors.append))
    assert out == []
    # The column counts characters, not bytes.
    assert [(e.line, e.col) for e in errors] == [(1, 17), (2, 18)]


# The check runs before the comment skip and before any pattern, so it names
# the surrogate on both paths; `_NEVER` sends every statement to the tokenizer.
_NEVER = re.compile(r"(?!)")


@pytest.mark.parametrize("line, col", BARE_SURROGATES, ids=["iri", "literal", "trailing comment", "comment line"])
@pytest.mark.parametrize("pattern", [_ROW_ANY, _NEVER], ids=["pattern", "tokenizer"])
def test_bare_surrogate_is_parse_error(monkeypatch, pattern, line, col):
    monkeypatch.setattr(ntriples, "_ROW_ANY", pattern)
    for text in (line, line + "\n"):
        with pytest.raises(ParseError) as exc:
            list(parse_ntriples([text]))
        assert (exc.value.line, exc.value.col, exc.value.reason) == (1, col, "lone surrogate U+D800")
    errors = []
    assert list(parse_ntriples(["<urn:a> <urn:p> <urn:b> .", line], on_error=errors.append)) == [parse_one("<urn:a> <urn:p> <urn:b> .")]
    assert [(e.line, e.col) for e in errors] == [(2, col)]


def test_surrogate_escaped_bytes_are_invalid_utf8():
    # What a file opened with errors="surrogateescape" yields for a bad byte.
    line = b'<urn:\xc3\xa9> <urn:p> "\xe6\x97" .\n'.decode("utf-8", "surrogateescape")
    with pytest.raises(ParseError) as exc:
        list(parse_ntriples([line]))
    assert (exc.value.col, exc.value.reason) == (18, "invalid UTF-8: invalid continuation byte")
    # At the end of the line, as when the bytes are split at their line ends.
    with pytest.raises(ParseError, match="^line 1, col 9: invalid UTF-8: unexpected end of data$"):
        list(parse_ntriples(["<urn:a> \udce6\udc97\r\n"]))
    # Escaped bytes that would form a character are still a surrogate.
    with pytest.raises(ParseError, match="^line 1, col 6: lone surrogate U\\+DCC3$"):
        list(parse_ntriples(['<urn:\udcc3\udca9> <urn:p> <urn:b> .']))


def test_parsing_is_streaming():
    # The parser holds one batch of lines, whether the batch takes `findall`
    # (ended lines) or is read line by line (bare lines).
    for end in ("\n", ""):
        consumed = []

        def lines():
            for i in range(1000):
                consumed.append(i)
                yield f"<urn:s{i}> <urn:p> <urn:o{i}> .{end}"

        it = parse_ntriples(lines())
        assert next(it) == Triple("<urn:s0>", "urn:p", "<urn:o0>")
        assert len(consumed) <= ntriples._BATCH
        for _ in range(ntriples._BATCH - 1):
            next(it)
        # A full batch read; the next triple may read one more, and no further.
        assert next(it) == Triple(f"<urn:s{ntriples._BATCH}>", "urn:p", f"<urn:o{ntriples._BATCH}>")
        assert len(consumed) <= 2 * ntriples._BATCH


def test_serialize_literal_quote_escaped():
    line = triple_line(parse_one(r'<urn:a> <urn:p> "say \u0022hi\u0022" .'))
    assert line == '<urn:a> <urn:p> "say \\"hi\\"" .'


def test_round_trip_corpus():
    triples = [
        Triple("<urn:a>", "urn:p", "<urn:b>"),
        Triple("_:x1", "urn:p", _lit("plain")),
        Triple("<urn:a>", "urn:q", _lit("5", "^^<urn:dt>")),
        Triple("<urn:a>", "urn:q", _lit("hallo", "@de")),
        Triple("<urn:a>", "urn:q", _lit('tab\t "q" \\ \n ü \x01')),
        Triple("<urn:a>", "urn:q", "_:y2"),
    ]
    assert round_trip(triples) == triples


# --- blank node label normalization -------------------------------------------

def test_plain_labels_pass_through():
    assert normalize_bnode_label("abc09Z") == "abc09Z"
    assert normalize_bnode_label("x7831") == "x7831"


def test_odd_labels_are_encoded_alphanumeric():
    encoded = normalize_bnode_label("a.b-c_d")
    assert encoded.isalnum()
    assert encoded != "a.b-c_d"


def test_blank_labels_are_global_across_files():
    # No per-file namespace: one label read from two files is one term.
    view1 = list(parse_ntriples(["_:b <urn:p> _:a.b .\n"]))
    view2 = list(parse_ntriples(["_:a.b <urn:q> _:b .\n"]))
    assert view1[0].subject == view2[0].object == "_:b"
    assert view1[0].object == view2[0].subject == "_:" + normalize_bnode_label("a.b")


@given(st.text(alphabet="abcXYZ019._-", min_size=1, max_size=12))
@settings(max_examples=200)
def test_normalization_idempotent(label):
    once = normalize_bnode_label(label)
    assert once.isalnum()
    assert normalize_bnode_label(once) == once


@given(st.lists(st.text(alphabet="abcXYZ019._-", min_size=1, max_size=8).filter(
    lambda s: not s.isalnum()), min_size=2, max_size=6, unique=True))
@settings(max_examples=200)
def test_encoding_injective_on_odd_labels(labels):
    normalized = [normalize_bnode_label(l) for l in labels]
    assert len(set(normalized)) == len(labels)


# --- property-based round trip -------------------------------------------------

_safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=20
)
_iris = st.text(alphabet="abcz:/#09%?&-_.~", min_size=1, max_size=24).map(lambda s: "urn:" + s)
_iri_terms = _iris.map(lambda i: f"<{i}>")

_terms = st.one_of(
    _iri_terms,
    st.text(alphabet="abcRST019", min_size=1, max_size=8).map(lambda l: "_:" + l),
    st.builds(_lit, _safe_text),
    st.builds(lambda v, d: _lit(v, f"^^<{d}>"), _safe_text, _iris),
    st.builds(lambda v, l: _lit(v, "@" + l), _safe_text, st.sampled_from(["en", "de", "en-GB", "x-a1"])),
)
_subjects = st.one_of(_iri_terms, st.text(alphabet="abc019", min_size=1, max_size=6).map(lambda l: "_:" + l))


@given(st.lists(st.builds(Triple, _subjects, _iris, _terms), max_size=20))
@settings(max_examples=200)
def test_round_trip_property(triples):
    assert round_trip(triples) == triples


# --- row patterns against the term tokenizer ----------------------------------
#
# `parse_ntriples` takes a row's groups as its triple and tokenizes only the
# lines the rows reject. A row must be the tokenizer's triple on every line
# it matches: generated ones from the grammar, mutated ones, and the fixture
# lines.

@st.composite
def _uchar(draw):
    if draw(st.booleans()):
        special = st.sampled_from([0x20, 0x22, 0x3C, 0x3E, 0x5C, 0x7B, 0x0A, 0x41, 0xE9, 0xD800])
        cp = draw(st.one_of(special, st.integers(0, 0xFFFF)))
        return "\\u" + format(cp, draw(st.sampled_from(["04X", "04x"])))
    special = st.sampled_from([0x20, 0x1F600, 0x10FFFF, 0x110000, 0xFFFFFFFF])
    cp = draw(st.one_of(special, st.integers(0, 0x11FFFF)))
    return "\\U" + format(cp, draw(st.sampled_from(["08X", "08x"])))


def _joined(*parts):
    return st.lists(st.one_of(*parts), max_size=4).map("".join)


_ws = st.text(alphabet=" \t", max_size=2)
_iri_body = _joined(st.text(alphabet="az09:/#%?&-_.~éü東", min_size=1, max_size=5), _uchar())
_iri_ref = _iri_body.map(lambda b: f"<{b}>")
_bnode_ref = st.text(alphabet="aZ09_.-", min_size=1, max_size=6).map(lambda l: "_:" + l)
_str_body = _joined(
    st.text(alphabet=st.characters(exclude_characters='"\\\n\r', exclude_categories=("Cs",)), min_size=1, max_size=5),
    st.sampled_from([r"\t", r"\b", r"\n", r"\r", r"\f", r"\"", r"\'", r"\\", r"\q", r"\u12"]),
    _uchar(),
)
_lang = st.one_of(
    st.from_regex(r"[A-Za-z]{1,3}(-[A-Za-z0-9]{1,3}){0,2}", fullmatch=True),
    st.sampled_from(["en-", "1a", "-x", "de--a"]),
)
_literal = st.one_of(
    _str_body.map(lambda b: f'"{b}"'),
    st.builds(lambda b, d: f'"{b}"^^{d}', _str_body, _iri_ref),
    st.builds(lambda b, t: f'"{b}"@{t}', _str_body, _lang),
)
# rdf:type, also with an escaped '#', so that a literal or blank class is met
# after unescaping on both paths.
_predicate = st.one_of(
    _iri_ref,
    st.sampled_from([f"<{RDF_TYPE}>", "<" + RDF_TYPE.replace("#", "\\u0023") + ">"]),
)
_comment = st.one_of(
    st.just(""),
    st.text(alphabet=st.one_of(st.characters(), st.sampled_from("\r\n")), max_size=6).map(lambda c: "#" + c),
)


@st.composite
def _grammar_lines(draw):
    subject = draw(st.one_of(_iri_ref, _bnode_ref))
    obj = draw(st.one_of(_iri_ref, _bnode_ref, _literal))
    parts = [subject, draw(_predicate), obj, ".", draw(_comment)]
    return "".join(draw(_ws) + part for part in parts)


@st.composite
def _mutated_lines(draw):
    line = draw(_grammar_lines())
    i = draw(st.integers(0, len(line)))
    how = draw(st.sampled_from(["delete", "insert", "truncate"]))
    if how == "delete":
        return line[:i] + line[i + 1:]
    if how == "insert":
        return line[:i] + draw(st.sampled_from(list('<>"{|`_:.@^\\# \t\x00x'))) + line[i:]
    return line[:i]


_fixture_lines = ESCAPES.read_text(encoding="utf-8").splitlines()


def _outcome(parse, line):
    try:
        return parse(line, 1)
    except ParseError as err:
        return ("error", err.line, err.col, err.reason)


@given(st.one_of(_grammar_lines(), _mutated_lines(), st.sampled_from(_fixture_lines)))
@example("_:b <p> <o> .\r")  # a comment's CR left at the end by a deletion
@settings(max_examples=1000)
def test_line_pattern_agrees_with_tokenizer(line):
    # A run of CR and LF at the end is the line end, which `parse_ntriples`
    # strips before it tokenizes.
    expected = _outcome(_tokenize_line, line.rstrip("\r\n"))
    row, ascii_row = _ROW_ANY.fullmatch(line), _ROW.fullmatch(line)
    for m in (row, ascii_row):
        if m is not None:
            assert m.groups() == expected
    # `_ROW` spells the ASCII subset of `_ROW_ANY`'s IRIs.
    if ascii_row is not None or line.isascii():
        assert (ascii_row is None) == (row is None)
    if isinstance(expected, Triple):
        _assert_exact_types(expected)
        # What it yields writes back, as a row.
        assert _tokenize_line(triple_line(expected), 1) == expected
        assert _ROW_ANY.fullmatch(triple_line(expected)).groups() == expected


def test_predicate_string_shared_within_one_parse_only():
    # Bare lines are read line by line, ended ones by one `findall`.
    for end in ("", "\n"):
        lines = [line + end for line in ['<urn:a> <urn:p> <urn:b> .', '_:x <urn:p> "v" .', '<urn:c> <urn:q> <urn:b> .']]
        first = list(parse_ntriples(lines))
        second = list(parse_ntriples(list(lines)))
        assert first == second
        for triples in (first, second):
            for t in triples:
                _assert_exact_types(t)
            # Equal predicates of one parse are one object.
            assert triples[0].predicate is triples[1].predicate
        # A second parse builds its own: nothing is cached across calls.
        assert second[0].predicate is not first[0].predicate
        assert second[2].predicate is not first[2].predicate


# --- the raw line first ----------------------------------------------------------
#
# `parse_ntriples` matches each raw line, line end included, and strips,
# skips or tokenizes only a line the pattern rejects. Whatever path a line
# takes, the result must be the stripped line's through the tokenizer.

_LINE_ENDS = st.sampled_from(["", "\n", "\r\n", "\r", "\r\r\n"])
_skipped_lines = st.one_of(
    _ws,
    st.builds(lambda w, c: w + c, _ws, _comment.filter(bool)),
)


@given(
    st.one_of(_grammar_lines(), _mutated_lines(), st.sampled_from(_fixture_lines), _skipped_lines),
    _LINE_ENDS,
)
@settings(max_examples=1000)
def test_raw_line_parses_as_its_stripped_line(line, end):
    errors = []
    got = list(parse_ntriples([line + end], on_error=errors.append))
    stripped = (line + end).rstrip("\r\n")
    # A surrogate, even in a comment, is refused before any pattern.
    checked = _outcome(ntriples._checked_text, line + end)
    if not isinstance(checked, str):
        expected = checked
    elif stripped.lstrip(" \t")[:1] in ("", "#"):
        assert (got, errors) == ([], [])
        return
    else:
        expected = _outcome(_tokenize_line, stripped)
    if isinstance(expected, Triple):
        assert (got, errors) == ([expected], [])
        _assert_exact_types(got[0])
    else:
        assert got == []
        assert [("error", e.line, e.col, e.reason) for e in errors] == [expected]


def _no_tokenizer(text, line):
    raise AssertionError(f"line {line} left the pattern: {text!r}")


@given(st.lists(st.builds(Triple, _subjects, _iris, _terms), max_size=20))
@settings(max_examples=200)
def test_written_lines_take_the_pattern(triples):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ntriples, "_tokenize_line", _no_tokenizer)
        assert round_trip(triples) == triples


# Lines `_ROW` refuses for their IRIs, and literals with each escape the
# writer spells: read on their own, each is one `_ROW_ANY` match.
@pytest.mark.parametrize("line", [
    "<urn:é> <urn:p> <urn:東> .",
    '_:b <http://例え.jp/ü> "x"^^<urn:dt\x7f> .',
    r'<urn:a> <urn:p> "a\\b\"c\nd\re\tf\u0000g\u001Fh\u000B" .',
    r'<urn:a> <urn:π> "\"\\\t"@en-GB . # note',
    r'<urn:a> <urn:p> "\u0008\u000C\u001B" .',
])
def test_non_ascii_iris_and_written_escapes_skip_the_tokenizer(monkeypatch, line):
    expected = _tokenize_line(line, 1)
    monkeypatch.setattr(ntriples, "_tokenize_line", _no_tokenizer)
    for end in ("", "\n", "\r\n"):
        assert ntriples._line_triple(line + end, 1, {}) == expected
        assert list(parse_ntriples([line + end])) == [expected]


def _benchmark_lines(monkeypatch):
    """(tag, lines) of small views of the benchmark's `ingest` and `fold` graph shapes."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import gen
    import run

    for shape, tag in ((run.INGEST, "ingest"), (run.FOLD, "fold")):
        small = dataclasses.replace(shape, edges=600, vertices=200)
        yield tag, io.StringIO(gen.make_view(small, 1, tag, 0).text).readlines()


def test_benchmark_lines_take_the_pattern(monkeypatch):
    # IRIs, plain, tagged and typed literals, and rdf:type statements.
    _, lines = next(_benchmark_lines(monkeypatch))
    expected = [_tokenize_line(line.rstrip("\n"), 1) for line in lines]
    monkeypatch.setattr(ntriples, "_tokenize_line", _no_tokenizer)
    assert list(parse_ntriples(lines)) == expected
    assert any(t.object.startswith('"') for t in expected)


def test_benchmark_lines_take_the_batch_path(monkeypatch):
    def per_line(raw, line, predicates):
        raise AssertionError(f"line {line} was read on its own: {raw!r}")

    for tag, lines in _benchmark_lines(monkeypatch):
        expected = [_tokenize_line(line.rstrip("\n"), 1) for line in lines]
        assert len(lines) > 2 * ntriples._BATCH and len(lines) % ntriples._BATCH, tag
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ntriples, "_line_triple", per_line)
            assert list(parse_ntriples(lines)) == expected, tag


# --- batches against the per-line reader ---------------------------------------
#
# `parse_ntriples` reads `_BATCH` lines with one `findall` of `_ROW` when
# every line is one it takes, and otherwise reads the batch line by line.
# Either way a caller must see what the per-line reader alone gives.

def _canonical_line(rng: random.Random, k: int) -> str:
    s = rng.choice([f"<urn:s{k % 97}>", f"_:b{k % 13}"])
    p = f"<urn:p{rng.randrange(5)}>"
    return rng.choice([
        f"{s} {p} <urn:o{k}> .\n",
        f'{s} {p} "value {k}" .\n',
        f'{s} {p} "{k}"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
        f'{s} {p} "label"@en-GB .\n',
        f"{s} {p} _:b{k % 7} .\n",
        f"{s} <{RDF_TYPE}> <urn:c{k % 3}> .\n",
    ])


_LINE_A, _LINE_B = "<urn:a> <urn:p> <urn:b> .", '_:c <urn:p> "d" .'
# Lines off the canonical mix, each ended as it stands: the per-line reader
# takes some, skips some and refuses the rest; `_ROW` takes almost none.
_ODD_LINES = [
    "# a comment\n", "\n", " \t\n", "", _LINE_A, _LINE_A + "\r", _LINE_A + "\r\n", _LINE_A + " # note\r\n",
    f"{_LINE_A}\n{_LINE_B}", f"{_LINE_A}\n{_LINE_B}\n", f"{_LINE_A}\nx", f"{_LINE_A} # a\n{_LINE_B}\n",
    "_:a.b <urn:p> <urn:o> .\n", "_:a_b <urn:p> <urn:o> .\n", "<urn:a> <urn:p> _:a-b .\n", "<urn:a> <urn:p> _:a_b .\n",
    '<urn:a> <urn:p> "x\ty" .\n', '<urn:a> <urn:p> "x\x01y" .\n', '<urn:a> <urn:p> "x\x7fy" .\n',
    r'<urn:\u0061> <urn:p> "a\nb" .' + "\n", '<urn:é> <urn:p> "東" .\n', '<urn:a> <urn:p> "é" .\n',
    '<urn:a> <urn:p> <urn:\udcff> .\n',
    f'<urn:a> <{RDF_TYPE}> "c" .\n', f"<urn:a> <{RDF_TYPE}> _:c .\n",
    "<urn:a> <urn:p> .\n", "<urn:a> <urn:p> <urn:b>\n", "<urn:a> <urn:p> <urn:b> . x\n", '"l" <urn:p> <urn:b> .\n',
    "<urn:a b> <urn:p> <urn:c> .\n", r"<urn:a> <urn:p> <urn:\u0020> ." + "\n", "x <urn:a> <urn:p> <urn:b> .\n",
]


def _source(n: int, seed: int, faults: list[tuple[int, str]], ended: bool = True) -> list[str]:
    rng = random.Random(seed)
    lines = [_canonical_line(rng, k) for k in range(n)]
    for at, line in faults:
        lines[at % n] = line
    if not ended:
        lines[-1] = lines[-1].rstrip("\n")
    return lines


@st.composite
def _sources(draw):
    n = draw(st.integers(1, 600))
    faults = draw(st.lists(st.tuples(st.integers(0, 599), st.sampled_from(_ODD_LINES)), max_size=6))
    return _source(n, draw(st.integers(0, 2**16)), faults, draw(st.booleans()))


def _per_line(lines, on_error=None):
    predicates = {}
    for lineno, raw in enumerate(lines, 1):
        try:
            t = ntriples._line_triple(raw, lineno, predicates)
        except ParseError as err:
            if on_error is None:
                raise
            on_error(err)
            continue
        if t is not None:
            yield t


def _seen(parse, lines, skip):
    """Triples and errors in the order the caller meets them."""
    seen = []
    handler = (lambda err: seen.append(("error", err.line, err.col, err.reason))) if skip else None
    try:
        for t in parse(lines, handler):
            _assert_exact_types(t)
            seen.append(t)
    except ParseError as err:
        seen.append(("raised", err.line, err.col, err.reason))
    return seen


# Faults at lines 255, 256 and 257, about the end of the first batch, then
# strings that are not one line each.
@given(_sources(), st.booleans())
@example(_source(600, 1, [(254, "<urn:a> <urn:p> .\n")]), False)
@example(_source(600, 1, [(255, "<urn:a> <urn:p> .\n")]), False)
@example(_source(600, 1, [(256, "<urn:a> <urn:p> .\n")]), True)
@example(_source(600, 1, [(254, "<urn:a> <urn:p> .\n"), (256, "# c\n")]), True)
@example([f"{_LINE_A}\n{_LINE_B}", "\n"], False)
@example([f"{_LINE_A}\n{_LINE_B}\n", "\n"], True)
@example([_LINE_A + "\n", "", _LINE_B + "\n"], False)
@settings(max_examples=1000, deadline=None)
def test_batch_and_per_line_parses_agree(lines, skip):
    assert _seen(parse_ntriples, lines, skip) == _seen(_per_line, lines, skip)


# A row keeps a literal's matched text. These characters are control
# characters, not printable or not ASCII: each must still be spelled as the
# writer spells it, on lines with and without a `\`.
_SPELLED = ["\t", "\x01", "\x7f", "\u0085", "\u00a0", "\u2028", "é", "東", "a b"]


@pytest.mark.parametrize("suffix", ["", "@en-GB", "^^<urn:dt>"])
@pytest.mark.parametrize("subject", ["<urn:a>", r"<urn:\u0061>"], ids=["plain", "escaped"])
@pytest.mark.parametrize("char", _SPELLED)
def test_literal_kept_as_matched_is_canonical(char, subject, suffix):
    value = f"x{char}y{char}"
    line = f'{subject} <urn:p> "{value}"{suffix} .'
    expected = Triple("<urn:a>", "urn:p", _lit(value, suffix))
    for end in ("", "\n", "\r\n"):
        assert parse_one(line + end) == expected
    assert _tokenize_line(line, 1) == expected
