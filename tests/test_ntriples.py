import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BARE_SURROGATES
from mvsum import ntriples
from mvsum.ntriples import (
    _LINE,
    RDF_TYPE,
    ParseError,
    Term,
    Triple,
    _parse_line,
    _tokenize_line,
    normalize_bnode_label,
    parse_ntriples,
    triple_line,
)

ESCAPES = Path(__file__).parent / "data" / "escapes.nt"


def parse_one(line: str) -> Triple:
    (t,) = parse_ntriples([line])
    return t


def _pattern_path(text: str, line: int) -> Triple:
    """`_parse_line` with a fresh predicate dict, as a new `parse_ntriples` call has."""
    return _parse_line(text, line, {})


def round_trip(triples: list[Triple]) -> list[Triple]:
    """Write each triple as its canonical line, then parse the lines back."""
    return list(parse_ntriples(triple_line(t) + "\n" for t in triples))


def _assert_exact_types(t) -> None:
    # A Term equals the plain 4-tuple of its fields, so equality cannot tell
    # them apart; the types must be exact.
    assert type(t) is Triple
    assert all(type(term) is Term for term in t)


def test_parse_plain_iri_triple():
    t = parse_one("<urn:a> <urn:p> <urn:b> .")
    assert t == Triple(Term.iri("urn:a"), Term.iri("urn:p"), Term.iri("urn:b"))


def test_parse_datatyped_literal():
    t = parse_one('<urn:a> <urn:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert t.object == Term.literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")


def test_parse_langtag_literal():
    t = parse_one('<urn:a> <urn:p> "hi"@en-GB .')
    assert t.object == Term.literal("hi", lang="en-GB")


def test_parse_blank_nodes():
    t = parse_one("_:a <urn:p> _:b1 .")
    assert t.subject == Term.blank("a")
    assert t.object == Term.blank("b1")


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
    t = parse_one(r'<urn:a> <urn:p> "a\"b\\c\nd\teAf\U0001F600" .')
    assert t.object.value == 'a"b\\c\nd\teAf\N{GRINNING FACE}'


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
    for parse in (_pattern_path, _tokenize_line):
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
    for parse in (_pattern_path, _tokenize_line):
        with pytest.raises(ParseError) as exc:
            parse(line, 1)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert exc.value.reason == "rdf:type object must be an IRI"
    assert parse_one(f"<urn:a> {_TYPE} <urn:C> .").object == Term.iri("urn:C")


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


def test_bytes_input_decoded():
    triples = list(parse_ntriples([b"<urn:a> <urn:p> <urn:b> .\n"]))
    assert triples[0].subject.value == "urn:a"


def test_invalid_utf8_reported_with_line():
    errors = []
    lines = [b"<urn:a> <urn:p> \xff .\n", b'<urn:\xc3\xa9> <urn:p> "\xff" .\n']
    out = list(parse_ntriples(lines, on_error=errors.append))
    assert out == []
    # The column counts characters, not bytes.
    assert [(e.line, e.col) for e in errors] == [(1, 17), (2, 18)]


# The check runs before the comment skip and before any pattern, so it names
# the surrogate on both paths; `_NEVER` sends every statement to the tokenizer.
_NEVER = re.compile(r"(?!)")


@pytest.mark.parametrize("line, col", BARE_SURROGATES, ids=["iri", "literal", "trailing comment", "comment line"])
@pytest.mark.parametrize("pattern", [_LINE, _NEVER], ids=["pattern", "tokenizer"])
def test_bare_surrogate_is_parse_error(monkeypatch, pattern, line, col):
    monkeypatch.setattr(ntriples, "_LINE", pattern)
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
    consumed = []

    def lines():
        for i in range(1000):
            consumed.append(i)
            yield f"<urn:s{i}> <urn:p> <urn:o{i}> ."

    it = parse_ntriples(lines())
    next(it)
    assert len(consumed) == 1


def test_serialize_literal_quote_escaped():
    line = triple_line(Triple(Term.iri("urn:a"), Term.iri("urn:p"), Term.literal('say "hi"')))
    assert line == '<urn:a> <urn:p> "say \\"hi\\"" .'


def test_serialize_rejects_invalid_terms():
    with pytest.raises(ValueError):
        triple_line(Triple(Term.literal("x"), Term.iri("urn:p"), Term.iri("urn:b")))
    with pytest.raises(ValueError):
        triple_line(Triple(Term.iri("urn:a"), Term.blank("b"), Term.iri("urn:b")))
    with pytest.raises(ValueError):
        triple_line(Triple(Term.iri("urn:a b"), Term.iri("urn:p"), Term.iri("urn:b")))


def test_round_trip_corpus():
    triples = [
        Triple(Term.iri("urn:a"), Term.iri("urn:p"), Term.iri("urn:b")),
        Triple(Term.blank("x1"), Term.iri("urn:p"), Term.literal("plain")),
        Triple(Term.iri("urn:a"), Term.iri("urn:q"), Term.literal("5", datatype="urn:dt")),
        Triple(Term.iri("urn:a"), Term.iri("urn:q"), Term.literal("hallo", lang="de")),
        Triple(Term.iri("urn:a"), Term.iri("urn:q"), Term.literal('tab\t "q" \\ \n ü')),
        Triple(Term.iri("urn:a"), Term.iri("urn:q"), Term.blank("y2")),
    ]
    assert round_trip(triples) == triples


def test_literal_with_one_of_datatype_lang():
    with pytest.raises(ValueError):
        Term.literal("x", datatype="urn:dt", lang="en")


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
    assert view1[0].subject == view2[0].object == Term.blank("b")
    assert view1[0].object == view2[0].subject == Term.blank(normalize_bnode_label("a.b"))


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

_terms = st.one_of(
    _iris.map(Term.iri),
    st.text(alphabet="abcRST019", min_size=1, max_size=8).map(Term.blank),
    st.builds(Term.literal, _safe_text),
    st.builds(lambda v, d: Term.literal(v, datatype=d), _safe_text, _iris),
    st.builds(lambda v, l: Term.literal(v, lang=l), _safe_text, st.sampled_from(["en", "de", "en-GB", "x-a1"])),
)
_subjects = st.one_of(_iris.map(Term.iri), st.text(alphabet="abc019", min_size=1, max_size=6).map(Term.blank))


@given(st.lists(st.builds(Triple, _subjects, _iris.map(Term.iri), _terms), max_size=20))
@settings(max_examples=200)
def test_round_trip_property(triples):
    assert round_trip(triples) == triples


# --- whole-line pattern against the term tokenizer -----------------------------
#
# `_parse_line` matches a line with one pattern and falls back to the term
# tokenizer only for lines the pattern rejects. The two must give equal
# triples, or equal errors, on every line: generated ones from the grammar,
# mutated ones, and the fixture lines.

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
        return parse(line, 3)
    except ParseError as err:
        return ("error", err.line, err.col, err.reason)


@given(st.one_of(_grammar_lines(), _mutated_lines(), st.sampled_from(_fixture_lines)))
@settings(max_examples=1000)
def test_line_pattern_agrees_with_tokenizer(line):
    expected = _outcome(_tokenize_line, line)
    got = _outcome(_pattern_path, line)
    assert got == expected
    if isinstance(expected, Triple):
        _assert_exact_types(expected)
        _assert_exact_types(got)
        # Every valid line takes the pattern, and what it yields writes back.
        assert _LINE.fullmatch(line) is not None
        assert _tokenize_line(triple_line(expected), 1) == expected


def test_predicate_term_shared_within_one_parse_only():
    lines = ['<urn:a> <urn:p> <urn:b> .', '_:x <urn:p> "v" .', '<urn:c> <urn:q> <urn:b> .']
    first = list(parse_ntriples(lines))
    second = list(parse_ntriples(line.encode("utf-8") for line in lines))
    assert first == second
    for triples in (first, second):
        for t in triples:
            _assert_exact_types(t)
        # Equal predicates of one parse are one object.
        assert triples[0].predicate is triples[1].predicate
    # A second parse builds its own: nothing is cached across calls.
    assert second[0].predicate is not first[0].predicate
    assert second[2].predicate is not first[2].predicate
