"""Streaming N-Triples reader, and the canonical statement line.

This is the exchange format for both input graphs and summary files: one
statement per line, UTF-8, `#` comment lines ignored. Only the N-Triples
subset is supported (no Turtle prefixes); parsing is single-pass and keeps
at most one line in memory, so files can be arbitrarily large. Input is
decoded with `errors="surrogateescape"`, and one check, `_checked_text`,
refuses a line that holds a surrogate before any pattern sees it.

Each statement line is matched by one compiled whole-line pattern that
covers the whole accepted grammar; only groups that hold a `\\` are
unescaped. A line the pattern rejects goes to the term-by-term tokenizer,
which finds where parsing stopped and raises a ParseError with the line,
the column and the reason. An IRI escape that decodes to a character the
writer refuses (such as `\\u0020`), or to a lone surrogate (U+D800 to
U+DFFF), is a ParseError too, so every statement the parser accepts can be
written back. So is an `rdf:type` statement whose object is not an IRI,
since the graph model has no place for a literal or blank class.

A matched line builds its Terms and its Triple with `tuple.__new__`, which
skips the NamedTuple constructor's Python frame, and yields exact `Term`
and `Triple` instances. Each `parse_ntriples` call keeps its own dict of
predicate Terms, so the statements of one parse share one Term per
predicate; nothing is cached across calls.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, NamedTuple

from mvsum.errors import DataError

IRI = "iri"
BLANK = "blank"
LITERAL = "literal"

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


class ParseError(DataError):
    """Malformed N-Triples input, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class Term(NamedTuple):
    """An RDF term: IRI, blank node, or literal.

    IRI values are stored without the surrounding angle brackets; blank node
    labels are normalized to ``[A-Za-z0-9]+``. A literal carries at most one
    of `datatype` (an IRI) and `lang`. A Term is a tuple, so it hashes and
    compares in C and equals the plain 4-tuple of its fields.
    """

    kind: str
    value: str
    datatype: str | None = None
    lang: str | None = None

    @staticmethod
    def iri(value: str) -> "Term":
        return Term(IRI, value)

    @staticmethod
    def blank(label: str) -> "Term":
        return Term(BLANK, normalize_bnode_label(label))

    @staticmethod
    def literal(value: str, datatype: str | None = None, lang: str | None = None) -> "Term":
        if datatype is not None and lang is not None:
            raise ValueError("a literal has at most one of datatype/lang")
        return Term(LITERAL, value, datatype, lang)

    def nt(self) -> str:
        """The term in N-Triples syntax."""
        if self.kind == IRI:
            return f"<{_checked_iri(self.value)}>"
        if self.kind == BLANK:
            if not _BNODE_PLAIN.fullmatch(self.value):
                raise ValueError(f"blank node label not alphanumeric: {self.value!r}")
            return f"_:{self.value}"
        out = f'"{_escape_literal(self.value)}"'
        if self.lang is not None:
            return f"{out}@{self.lang}"
        if self.datatype is not None:
            return f"{out}^^<{_checked_iri(self.datatype)}>"
        return out


class Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


# --- blank node labels -------------------------------------------------------
#
# Labels are normalized to plain alphanumerics: already-plain labels pass
# through unchanged (so normalization is idempotent and serialized output
# re-parses to equal terms), anything else becomes `x` plus the UTF-8 hex of
# the whole label. Labels are global: `_:b` in two files is one node.

_BNODE_PLAIN = re.compile(r"[A-Za-z0-9]+\Z")


def normalize_bnode_label(label: str) -> str:
    if _BNODE_PLAIN.fullmatch(label):
        return label
    return "x" + label.encode("utf-8").hex()


# --- tokenizing --------------------------------------------------------------
# One spelling per grammar piece, for every pattern here and `_STATEMENT`.
# The writer refuses the characters IRIs exclude. An unescaped IRIREF body
# cannot hold one; a UCHAR escape can, and is rejected at parse time so that
# everything the parser accepts can be written back.
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_IRI_CHAR = f"[^{_IRI_EXCLUDED}]"
_IRI_FORBIDDEN = re.compile(f"[{_IRI_EXCLUDED}]")
_H = "[0-9A-Fa-f]"
_UCHAR = rf"u{_H}{{4}}|U{_H}{{8}}"
# Escape bodies are unrolled (`plain*(?:\\escape plain*)*`).
_IRI_BODY = rf"{_IRI_CHAR}*(?:\\(?:{_UCHAR}){_IRI_CHAR}*)*"
_STR_BODY = rf'[^"\\\n\r]*(?:\\(?:[tbnrf"\'\\]|{_UCHAR})[^"\\\n\r]*)*'
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

    return _UNESCAPE.sub(repl, raw)


def _skip_ws(text: str, pos: int) -> int:
    m = _WS.match(text, pos)
    return m.end() if m else pos


def _parse_term(text: str, pos: int, line: int, *, as_subject: bool, as_predicate: bool) -> tuple[Term, int]:
    m = _IRIREF.match(text, pos)
    if m:
        return Term(IRI, _unescape(m.group(1), line, pos + 2, iri=True)), m.end()
    if as_predicate:
        raise ParseError("expected IRI predicate", line, pos + 1)
    m = _BNODE.match(text, pos)
    if m:
        return Term(BLANK, normalize_bnode_label(m.group(1))), m.end()
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
            return Term(LITERAL, value, datatype=_unescape(m.group(1), line, pos + 4, iri=True)), m.end()
        m = _LANGTAG.match(text, pos)
        if m:
            return Term(LITERAL, value, lang=m.group(1)), m.end()
        return Term(LITERAL, value), pos
    raise ParseError("expected IRI, blank node, or literal object", line, pos + 1)


# A class is an IRI: the graph model turns `rdf:type` statements into vertex
# labels and has no place for a literal or blank class.
_TYPE_OBJECT = "rdf:type object must be an IRI"


def _tokenize_line(text: str, line: int) -> Triple:
    """Parse one statement term by term; the reference for `_parse_line`.

    Slower than the whole-line pattern, but it knows where parsing stopped,
    so its ParseError carries the exact column and reason.
    """
    pos = _skip_ws(text, 0)
    subj, pos = _parse_term(text, pos, line, as_subject=True, as_predicate=False)
    pos = _skip_ws(text, pos)
    pred, pos = _parse_term(text, pos, line, as_subject=False, as_predicate=True)
    pos = _skip_ws(text, pos)
    obj_col = pos + 1
    obj, pos = _parse_term(text, pos, line, as_subject=False, as_predicate=False)
    if obj.kind != IRI and pred.value == RDF_TYPE:
        raise ParseError(_TYPE_OBJECT, line, obj_col)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ".":
        raise ParseError("expected '.' statement terminator", line, pos + 1)
    pos = _skip_ws(text, pos + 1)
    if pos < len(text) and not text.startswith("#", pos):
        raise ParseError("trailing garbage after '.'", line, pos + 1)
    return Triple(subj, pred, obj)


# The whole statement grammar `_tokenize_line` accepts, as one pattern, with
# the same groups and the same parts in the same order. Its escape bodies
# admit only UCHAR and ECHAR escapes; `_unescape` then raises, at the
# tokenizer's column, for a \U beyond U+10FFFF or an escaped IRI character
# the writer refuses. A blank node label or language tag cannot end where the
# next part begins, so backtracking never finds a split the tokenizer would
# not. Groups: subject IRI | subject label, predicate, object IRI | object
# label | literal body, then datatype | language tag.
_LINE = re.compile(
    rf"[ \t]*(?:<({_IRI_BODY})>|_:({_LABEL}))"
    rf"[ \t]*<({_IRI_BODY})>"
    rf'[ \t]*(?:<({_IRI_BODY})>|_:({_LABEL})|"({_STR_BODY})"(?:\^\^<({_IRI_BODY})>|@({_LANG}))?)'
    r"[ \t]*\.[ \t]*(?:#.*)?",
    re.DOTALL,
)


# Builds an exact Term or Triple without the NamedTuple constructor's frame.
_new = tuple.__new__


def _parse_line(text: str, line: int, predicates: dict[str, Term]) -> Triple:
    """Parse one statement; `predicates` maps predicate IRIs to shared Terms.

    The caller owns `predicates`, so equal predicates share one Term for as
    long as the caller keeps the dict, and no longer.
    """
    m = _LINE.fullmatch(text)
    if m is None:
        return _tokenize_line(text, line)
    s_iri, s_label, p_iri, o_iri, o_label, lit, dt, lang = m.groups()
    if "\\" in text:
        # Only group contents are unescaped, in the tokenizer's order, so the
        # first bad IRI escape is reported where the tokenizer reports it.
        if s_iri is not None and "\\" in s_iri:
            s_iri = _unescape(s_iri, line, m.start(1) + 1, iri=True)
        if "\\" in p_iri:
            p_iri = _unescape(p_iri, line, m.start(3) + 1, iri=True)
        if o_iri is not None and "\\" in o_iri:
            o_iri = _unescape(o_iri, line, m.start(4) + 1, iri=True)
        if lit is not None and "\\" in lit:
            lit = _unescape(lit, line, m.start(6) + 1)
        if dt is not None and "\\" in dt:
            dt = _unescape(dt, line, m.start(7) + 1, iri=True)
    if o_iri is None and p_iri == RDF_TYPE:
        raise ParseError(_TYPE_OBJECT, line, m.start(6) if lit is not None else m.start(5) - 1)
    if s_iri is not None:
        subj = _new(Term, (IRI, s_iri, None, None))
    else:
        subj = _new(Term, (BLANK, normalize_bnode_label(s_label), None, None))
    pred = predicates.get(p_iri)
    if pred is None:
        pred = predicates[p_iri] = _new(Term, (IRI, p_iri, None, None))
    if o_iri is not None:
        obj = _new(Term, (IRI, o_iri, None, None))
    elif o_label is not None:
        obj = _new(Term, (BLANK, normalize_bnode_label(o_label), None, None))
    else:
        obj = _new(Term, (LITERAL, lit, dt, lang))
    return _new(Triple, (subj, pred, obj))


def _checked_text(raw: str | bytes, line: int) -> str:
    """`raw` as text, or a ParseError at its first surrogate; callers skip ASCII str."""
    raw = raw.decode("utf-8", "surrogateescape") if isinstance(raw, bytes) else raw
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


def parse_ntriples(
    source: Iterable[str | bytes],
    on_error: Callable[[ParseError], None] | None = None,
    start: int = 1,
) -> Iterator[Triple]:
    """Yield triples from N-Triples text, one statement per line.

    `source` is any iterable of lines, such as a file opened with
    `errors="surrogateescape"`. Blank and `#` comment lines are skipped after
    `_checked_text`, which also decodes bytes lines. A malformed line raises
    ParseError; passing `on_error` switches to skip-and-count mode, where the
    handler receives each error and parsing continues with the next line.
    `start` is the line number of the first line, for a caller that has
    already read the lines before it. Blank node labels are not namespaced:
    `_:b` names one node in every source.
    """
    predicates: dict[str, Term] = {}
    for lineno, raw in enumerate(source, start=start):
        try:
            if isinstance(raw, bytes) or not raw.isascii():
                raw = _checked_text(raw, lineno)
            text = raw.rstrip("\r\n")
            stripped = text.lstrip(" \t")
            if stripped and not stripped.startswith("#"):
                yield _parse_line(text, lineno, predicates)
        except ParseError as err:
            if on_error is None:
                raise
            on_error(err)


# --- writing -----------------------------------------------------------------

_LITERAL_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}
for _cp in range(0x20):
    _LITERAL_ESCAPES.setdefault(_cp, "\\u%04X" % _cp)

def _escape_literal(value: str) -> str:
    return value.translate(_LITERAL_ESCAPES)


def _checked_iri(value: str) -> str:
    m = _IRI_FORBIDDEN.search(value)
    if m:
        raise ValueError(f"character {m.group(0)!r} not allowed in IRI: {value!r}")
    return value


def triple_line(t: Triple) -> str:
    """One statement in canonical form, without the newline."""
    if t.subject.kind == LITERAL:
        raise ValueError("subject is never a literal")
    if t.predicate.kind != IRI:
        raise ValueError("predicate is always an IRI")
    return f"{t.subject.nt()} {t.predicate.nt()} {t.object.nt()} ."
