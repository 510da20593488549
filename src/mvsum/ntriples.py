"""Streaming N-Triples reader, and the canonical statement line.

This is the exchange format for both input graphs and summary files: one
statement per line, UTF-8, `#` comment lines ignored. Only the N-Triples
subset is supported (no Turtle prefixes); parsing is single-pass and holds
one batch of `_BATCH` (256) lines, so files can be arbitrarily large. Input is
decoded with `errors="surrogateescape"`, and one check, `_checked_text`,
refuses a line that holds a surrogate before any pattern sees it. A row
pattern reads each line spelled as `triple_line` writes it, and the term
tokenizer, the one decoder of escapes, reads any other.

A malformed line raises a ParseError with its line, column and reason. So
does an IRI escape that decodes to a character the writer refuses (such as
`\\u0020`) or to a lone surrogate, so that every statement the parser
accepts can be written back, and an `rdf:type` statement whose object is
not an IRI, since the graph model has no place for a literal or blank
class.

`parse_ntriples` yields each triple as an exact tuple of three strings, a
batch at a time. The subject and the object are N-Triples term text: `<iri>`
with its escapes decoded, `_:label` with the label normalized, or a literal
spelled as `triple_line` writes it. The predicate is its bare IRI, the label
the graph keeps; `build_graph`, not the parser, keeps one string per
predicate. `Triple` is the named form of the same tuple, for triples built
in code.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from mvsum.errors import DataError

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


class ParseError(DataError):
    """Malformed N-Triples input, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


# --- blank node labels -------------------------------------------------------
#
# Labels are normalized to plain alphanumerics: already-plain labels pass
# through unchanged (so normalization is idempotent and serialized output
# re-parses to equal terms), anything else becomes `x` plus the UTF-8 hex of
# the whole label. Labels are global: `_:b` in two files is one node.

def normalize_bnode_label(label: str) -> str:
    if label.isascii() and label.isalnum():
        return label
    return "x" + label.encode("utf-8").hex()


def _blank(label: str) -> str:
    return f"_:{normalize_bnode_label(label)}"


# --- tokenizing --------------------------------------------------------------
# One spelling per grammar piece, for every pattern here and `_STATEMENT`;
# only `_ROW` spells its IRIs by the ASCII characters `_IRI_CHAR` admits, and
# only the row patterns spell their literal bodies as the writer does.
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_IRI_CHAR = f"[^{_IRI_EXCLUDED}]"
_IRI_FORBIDDEN = re.compile(f"[{_IRI_EXCLUDED}]")
_H = "[0-9A-Fa-f]"
_UCHAR = rf"u{_H}{{4}}|U{_H}{{8}}"
# Escape bodies are unrolled as a branch, `plain*(?:\\esc(?:plain|\\esc)*|)`, so
# an escape-free body sets up no general repeat. Possessive `*+` is at most a
# few percent faster, and it is a syntax error before Python 3.11.
_IRI_BODY = rf"{_IRI_CHAR}*(?:\\(?:{_UCHAR})(?:{_IRI_CHAR}|\\(?:{_UCHAR}))*|)"
_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_LANG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"

_WS = re.compile(r"[ \t]+")
_IRIREF = re.compile(f"<({_IRI_BODY})>")
_BNODE = re.compile(f"_:({_LABEL})")
# Lenient on escapes, so that `_unescape` names a bad one at its column.
_STRING = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
_LANGTAG = re.compile(f"@({_LANG})")

_UNESCAPE = re.compile(rf"\\(?:u({_H}{{4}})|U({_H}{{8}})|(.))", re.DOTALL)
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape(raw: str, line: int, col: int, iri: bool = False) -> str:
    def repl(m: re.Match) -> str:
        if m.group(1) is not None:
            cp = int(m.group(1), 16)
        elif m.group(2) is not None:
            cp = int(m.group(2), 16)
            if cp > 0x10FFFF:
                raise ParseError(f"\\U escape out of range: {m.group(0)}", line, col + m.start())
        elif m.group(3) in _ECHAR:
            return _ECHAR[m.group(3)]
        else:
            raise ParseError(f"bad escape \\{m.group(3)}", line, col + m.start())
        # A lone surrogate is not a character: UTF-8 cannot encode it, so the
        # writer could not write the term back.
        if 0xD800 <= cp <= 0xDFFF:
            raise ParseError(f"escape of a surrogate code point: {m.group(0)}", line, col + m.start())
        ch = chr(cp)
        if iri and _IRI_FORBIDDEN.match(ch):
            raise ParseError(f"escaped character {ch!r} not allowed in IRI", line, col + m.start())
        return ch

    return _UNESCAPE.sub(repl, raw) if "\\" in raw else raw


def _skip_ws(text: str, pos: int) -> int:
    m = _WS.match(text, pos)
    return m.end() if m else pos


def _parse_term(text: str, pos: int, line: int, *, as_subject: bool, as_predicate: bool) -> tuple[str, int]:
    """The term at `pos` as its N-Triples text, and the position after it."""
    m = _IRIREF.match(text, pos)
    if m:
        return f"<{_unescape(m.group(1), line, pos + 2, iri=True)}>", m.end()
    if as_predicate:
        raise ParseError("expected IRI predicate", line, pos + 1)
    m = _BNODE.match(text, pos)
    if m:
        return _blank(m.group(1)), m.end()
    if as_subject:
        raise ParseError("expected IRI or blank node subject", line, pos + 1)
    m = _STRING.match(text, pos)
    if m:
        value = _unescape(m.group(1), line, pos + 2)
        pos = m.end()
        if text.startswith("^^", pos):
            m = _IRIREF.match(text, pos + 2)
            if not m:
                raise ParseError("expected datatype IRI after ^^", line, pos + 3)
            return _literal(value, _unescape(m.group(1), line, pos + 4, iri=True), None), m.end()
        m = _LANGTAG.match(text, pos)
        if m:
            return _literal(value, None, m.group(1)), m.end()
        return _literal(value, None, None), pos
    raise ParseError("expected IRI, blank node, or literal object", line, pos + 1)


# A class is an IRI: the graph model turns `rdf:type` statements into vertex
# labels and has no place for a literal or blank class.
_TYPE_OBJECT = "rdf:type object must be an IRI"


def _tokenize_line(text: str, line: int) -> tuple[str, str, str]:
    """Parse one statement term by term, decoding escapes: slower than a row,
    but it knows where parsing stopped, so its ParseError has the exact column.
    """
    pos = _skip_ws(text, 0)
    subj, pos = _parse_term(text, pos, line, as_subject=True, as_predicate=False)
    pos = _skip_ws(text, pos)
    pred, pos = _parse_term(text, pos, line, as_subject=False, as_predicate=True)
    pos = _skip_ws(text, pos)
    obj_col = pos + 1
    obj, pos = _parse_term(text, pos, line, as_subject=False, as_predicate=False)
    pred = pred[1:-1]
    if obj[0] != "<" and pred == RDF_TYPE:
        raise ParseError(_TYPE_OBJECT, line, obj_col)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ".":
        raise ParseError("expected '.' statement terminator", line, pos + 1)
    pos = _skip_ws(text, pos + 1)
    if pos < len(text) and not text.startswith("#", pos):
        raise ParseError("trailing garbage after '.'", line, pos + 1)
    return subj, pred, obj


# One line whose groups are its triple's text, IRIs spelled by `iri`: plain
# blank labels, literal bodies with exactly the escapes `_literal` writes, an
# IRI `rdf:type` object. `_ROW`'s ASCII IRIs are faster on batches; `_ROW_ANY`
# reads single lines, and matches every line `triple_line` writes.
_LITERAL_ESC = r'\\(?:[\\"nrt]|u00(?:0[0-8BCEF]|1[0-9A-F]))'
_LITERAL_BODY = rf'[^"\\\x00-\x1f]*(?:{_LITERAL_ESC}(?:[^"\\\x00-\x1f]|{_LITERAL_ESC})*|)'


def _row(iri: str) -> re.Pattern[str]:
    return re.compile(
        rf"^[ \t]*(<{iri}*>|_:[A-Za-z0-9]+)"
        rf"[ \t]*<({iri}*)>(?:(?<!<{re.escape(RDF_TYPE)}>)|(?=[ \t]*<))"
        rf'[ \t]*(<{iri}*>|_:[A-Za-z0-9]+|"{_LITERAL_BODY}"(?:\^\^<{iri}*>|@{_LANG})?)'
        r"[ \t]*\.[ \t]*(?:#[^\n]*)?\r*(?:\n|\Z)",
        re.M,
    )


_ROW = _row(r"[!#-;=?-\[\]_a-z~\x7f]")
_ROW_ANY = _row(_IRI_CHAR)


def _checked_text(raw: str, line: int) -> str:
    """`raw`, or a ParseError at its first surrogate; callers skip ASCII lines."""
    try:
        raw.encode("utf-8")
        return raw
    except UnicodeEncodeError as exc:
        col = exc.start
    try:  # the text before `col` is UTF-8, so the line's bytes fail here or not at all
        raw[col:].rstrip("\r\n").encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as exc:  # or a lone surrogate further on fails the encode
        if isinstance(exc, UnicodeDecodeError) and exc.start == 0:
            raise ParseError(f"invalid UTF-8: {exc.reason}", line, col + 1) from None
    raise ParseError(f"lone surrogate U+{ord(raw[col]):04X}", line, col + 1)


def _line_triple(raw: str, line: int) -> tuple[str, str, str] | None:
    """The triple of one raw line, None for a blank or comment line."""
    if not raw.isascii():
        raw = _checked_text(raw, line)
    if (m := _ROW_ANY.fullmatch(raw)) is not None:
        return m.groups()
    if (text := raw.rstrip("\r\n")).lstrip(" \t")[:1] in ("", "#"):
        return None
    return _tokenize_line(text, line)


def _line_triples(lines: list[str], on_error: Callable[[ParseError], None] | None, start: int) -> Iterator[tuple[str, str, str]]:
    for lineno, raw in enumerate(lines, start):
        try:
            if (t := _line_triple(raw, lineno)) is not None:
                yield t
        except ParseError as err:
            if on_error is None:
                raise
            on_error(err)


# Lines per `findall`, in both readers: the fastest of the sizes tried.
_BATCH = 256


def _batch_rows(lines: list[str], pattern: re.Pattern[str]) -> list | None:
    """`pattern.findall` of the joined `lines`, `pattern` matching one whole
    line; None unless the text is UTF-8 and each string is one line that
    matches. A batch whose first line fails (another spelling) costs no `findall`.
    """
    text = "".join(lines)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    if pattern.match(text) and (newlines := text.count("\n")) == len(lines) - (not text.endswith("\n")):
        rows = pattern.findall(text)
        # With every `\n` at the end of a string, a row per string is a row per line.
        if len(rows) == len(lines) and "".join(map(itemgetter(slice(-1, None)), lines)).count("\n") == newlines:
            return rows
    return None


def _batches(source: Iterable[str], on_error: Callable[[ParseError], None] | None) -> Iterator[Iterable[tuple[str, str, str]]]:
    """Each `_BATCH` lines of `source`: their `_ROW` rows, or else their triples read line by line."""
    it = iter(source)
    start = 1
    while lines := list(islice(it, _BATCH)):
        yield _batch_rows(lines, _ROW) or _line_triples(lines, on_error, start)
        start += len(lines)


def parse_ntriples(source: Iterable[str], on_error: Callable[[ParseError], None] | None = None) -> Iterator[tuple[str, str, str]]:
    """Yield triples from N-Triples text, one statement per line.

    `source` is any iterable of lines, such as a file opened with
    `errors="surrogateescape"`; it is read `_BATCH` lines at a time. A
    malformed line raises ParseError after the triples of the lines before
    it; passing `on_error` switches to skip-and-count mode, where the
    handler receives each error and parsing continues with the next line.
    Blank node labels are not namespaced: `_:b` names one node in every
    source. Each triple is an exact tuple of three `str` (module docstring).
    """
    return chain.from_iterable(_batches(source, on_error))


# --- writing -----------------------------------------------------------------

_LITERAL_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}
for _cp in range(0x20):
    _LITERAL_ESCAPES.setdefault(_cp, "\\u%04X" % _cp)


def _literal(value: str, datatype: str | None, lang: str | None) -> str:
    """A literal's canonical text: escaped value, then `@lang` or `^^<datatype>`."""
    out = f'"{value.translate(_LITERAL_ESCAPES)}"'
    if lang is not None:
        return f"{out}@{lang}"
    if datatype is not None:
        return f"{out}^^<{datatype}>"
    return out


def _checked_iri(value: str) -> str:
    m = _IRI_FORBIDDEN.search(value)
    if m:
        raise ValueError(f"character {m.group(0)!r} not allowed in IRI: {value!r}")
    return value


def triple_line(t: tuple[str, str, str]) -> str:
    """One statement in canonical form, without the newline.

    `t` holds text as `parse_ntriples` yields it, so it is written as it is.
    """
    s, p, o = t
    return f"{s} <{p}> {o} ."
