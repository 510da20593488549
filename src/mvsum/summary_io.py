"""Summary files: N-Triples with a fixed `urn:mvs:` vocabulary.

Line 1 is a comment header carrying the model, so that a reader can refuse
unsafe merges, and the digest name, always `sha256`. The reader refuses a
file that names any other at line 1, verified or not: its ids would never
equal those of the same schemas in another file. Every other line is a
plain N-Triples statement.
Statements are emitted sorted, so equal summaries serialize to equal bytes.

    # mvs-summary v1 model=ACC digest=sha256
    <urn:mvs:eqc:HEX> <urn:mvs:attribute> <pred-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:class> <class-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:payload> <urn:mvs:payload:HEX> .
    <urn:mvs:payload:HEX> <urn:mvs:member> <member> .
    <urn:mvs:payload:HEX> <urn:mvs:count> "n"^^<...#integer> .

The writer builds that order instead of sorting the whole file. It sorts
the EQC subjects `<urn:mvs:eqc:ID>` as whole strings and emits, subject by
subject, that subject's lines (attributes, classes, `payload`) sorted; then,
for the same subjects in the same order, each payload subject's lines
(`count`, members) sorted. This is the order of one sort of all lines:
no IRI holds `>`, so no subject is a prefix of another and lines group by
subject; `<urn:mvs:eqc:` sorts before `<urn:mvs:payload:`; and a payload
subject holds its EQC's id, so the payload subjects sort like the EQC
subjects. Whole lines and whole subjects are compared, never bare IRIs:
`<urn:a/b> .` sorts before `<urn:a> .`, and the subject of id `ab!` before
that of `ab`. Bare ids sort like their subjects unless one id is a prefix
of another, and then some id is a prefix of the id after it in bare order;
so the writer sorts the bare ids and, only when it finds such a neighbour,
sorts them again as `ID>`, the subject's tail. The lines are joined into
chunks of about a thousand, and `save_summary` writes each chunk as it
comes, so the writer holds one chunk and one subject's lines, never the
whole file. It writes to a temporary file beside the target and renames
that onto the target at the end, so the target holds the old file or the
new one, never a part.

The reader matches each line, as the writer formats it, against one
compiled pattern for these five shapes; a member IRI or a plain `_:` label
is the only part that becomes a `Term`, and the rest is grouped by the EQC
or payload id string. A line the pattern rejects (a comment, a blank line,
other spacing, an escape, a non-plain blank label, CRLF, a foreign
statement or garbage) goes, on its own, through `parse_ntriples`,
and its triple is mapped onto the same shape, so one set of checks serves
both paths. An error in one statement names its physical line, the header
being line 1: so do an attribute under CC, a class under AC and a second,
differing count of one payload. An error found after the last line names
the EQC's `payload` statement or its payload's `count` statement, the first
statement of an EQC without a payload, or the first `member` or `count`
statement of a payload attached to no EQC. `load_summary` reads its file
once; lines that are not ASCII pass `ntriples._checked_text` first.

Within one `read_summary` call each id and each label is one string: a
local dict maps every copy a line brings to the first one, so an EQC's id
is the same object in `eqcs`, in `payloads` and in the loader's own dicts,
and a predicate named on thousands of attribute lines is one string. Each
schema side is collected in a list, then deduplicated, sorted and made a
tuple when its EQC is built, so statements may come in any order and any
number of times. Nothing is kept across calls.

`read_summary`, `format_summary` and `save_summary` run with the cyclic
collector paused (see `mvsum._collector`): their Terms, id strings, lines,
sets and dicts hold no cycles, so a collection there would free nothing.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import stat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from mvsum._collector import paused
from mvsum.errors import DataError
from mvsum.ntriples import BLANK, IRI, LITERAL, XSD_INTEGER, _IRI_CHAR, ParseError, Term, Triple, _checked_iri, _checked_text, _new, parse_ntriples, triple_line
from mvsum.summary import Model, Summary, eqc_id

EQC_NS = "urn:mvs:eqc:"
PAYLOAD_NS = "urn:mvs:payload:"
P_ATTRIBUTE = "urn:mvs:attribute"
P_CLASS = "urn:mvs:class"
P_PAYLOAD = "urn:mvs:payload"
P_MEMBER = "urn:mvs:member"
P_COUNT = "urn:mvs:count"

_DIGEST = "sha256"
_HEADER = re.compile(r"# mvs-summary v1 model=(AC|CC|ACC) digest=(\S+)\s*\Z")
# Lines per chunk the writer yields: a chunk is about a hundred kilobytes,
# so the writer's memory does not grow with the file.
_CHUNK_LINES = 1024

# `int()` alone would also take signs, spaces, underscores and non-ASCII digits.
_COUNT = re.compile(r"[0-9]+")

# The five statement shapes exactly as `_blocks` writes them. Group
# 2 is the subject's id, and the last group to match names the shape:
# `attribute`, `class` or `payload` after an EQC subject (group 1 set), `iri`
# or `blank` (the member's Term kind) or `count` after a payload subject. An
# IRI here holds no escape, so its text is its value.
_PLAIN_IRI = f"{_IRI_CHAR}*"
_STATEMENT = re.compile(
    rf"<urn:mvs:(?:(eqc)|payload):({_PLAIN_IRI})> <urn:mvs:(?(1)(?:"
    rf"attribute> <(?P<attribute>{_PLAIN_IRI})>"
    rf"|class> <(?P<class>{_PLAIN_IRI})>"
    rf"|payload> <urn:mvs:payload:(?P<payload>{_PLAIN_IRI})>"
    rf")|(?:"
    rf"member> (?:<(?P<{IRI}>{_PLAIN_IRI})>|_:(?P<{BLANK}>[A-Za-z0-9]+))"
    rf'|count> "(?P<count>[0-9]+)"\^\^<{re.escape(XSD_INTEGER)}>'
    r")) \.\n?"
)


class SummaryFormatError(DataError):
    """A summary file that violates the format or its invariants."""


def header_line(summary: Summary) -> str:
    return f"# mvs-summary v1 model={summary.model.value} digest={_DIGEST}"


def is_summary_header(line: str) -> bool:
    return _HEADER.match(line) is not None


def _blocks(summary: Summary) -> Iterator[list[str]]:
    """Each subject's statement lines, sorted and LF-terminated, in file order.

    First every EQC subject, then every payload subject in the same order;
    the module docstring says why this is the order of one global sort.
    """
    # Every IRI is still checked: a Summary built through the API may hold
    # IRIs that were never parsed. The payload IRI holds the same id as the
    # checked EQC IRI.
    cids = sorted(summary.eqcs)
    if any(b.startswith(a) for a, b in zip(cids, cids[1:])):
        cids.sort(key=lambda cid: cid + ">")
    for cid in cids:
        eqc = f"<{_checked_iri(EQC_NS + cid)}>"
        attributes, classes = summary.eqcs[cid]
        block = [f"{eqc} <{P_ATTRIBUTE}> <{_checked_iri(a)}> .\n" for a in attributes]
        block += [f"{eqc} <{P_CLASS}> <{_checked_iri(c)}> .\n" for c in classes]
        block.append(f"{eqc} <{P_PAYLOAD}> <{PAYLOAD_NS}{cid}> .\n")
        block.sort()
        yield block
    for cid in cids:
        pay = f"<{PAYLOAD_NS}{cid}>"
        members = summary.payloads[cid]
        block = [f"{pay} <{P_MEMBER}> {m.nt()} .\n" for m in members]
        block.append(f'{pay} <{P_COUNT}> "{len(members):d}"^^<{XSD_INTEGER}> .\n')
        block.sort()
        yield block


def _statement_chunks(summary: Summary) -> Iterator[str]:
    """The statements in file order, joined into chunks of at least `_CHUNK_LINES` lines.

    Only the last chunk may be shorter, and a summary without EQCs has none.
    """
    chunk: list[str] = []
    for block in _blocks(summary):
        chunk += block
        if len(chunk) >= _CHUNK_LINES:
            yield "".join(chunk)
            chunk = []
    if chunk:
        yield "".join(chunk)


@paused()
def format_summary(summary: Summary) -> str:
    """The full file text: header plus sorted statements, LF-terminated."""
    return f"{header_line(summary)}\n" + "".join(_statement_chunks(summary))


def _write(fh: TextIO, summary: Summary) -> None:
    fh.write(f"{header_line(summary)}\n")
    for chunk in _statement_chunks(summary):
        fh.write(chunk)


@paused()
def save_summary(summary: Summary, path: str | Path) -> None:
    """Write `format_summary(summary)` to `path` as UTF-8, a chunk at a time.

    A regular or new file is replaced atomically: the text goes to a sibling
    temporary file, created exclusively with mode 0o666 less the umask, which
    then replaces the target. A target that already exists keeps its
    permission bits, and a symlinked target is written through the link. On
    any error the temporary file is removed, so a summary that cannot be
    written leaves no new file and the old one intact. A target that exists
    but is not a regular file (a FIFO, `/dev/stdout`) is written to
    directly. An `OSError` names `path`, never the temporary file.
    """
    try:
        st = os.stat(path)
    except OSError:  # a new file, or an error that creating it reports
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, summary)
        return
    target = os.path.realpath(path)
    # A short name of its own: the target's name plus a suffix could exceed
    # the file system's name limit.
    tmp = os.path.join(os.path.dirname(target), f".mvsum-{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                _write(fh, summary)
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is not None and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _generic_shape(raw: str, lineno: int) -> tuple[str, str, str] | None:
    """(shape, subject id, value) of a line `_STATEMENT` rejects, or None.

    The line goes through the generic parser; None means a blank or comment
    line. Its triple is mapped onto the shape the pattern would have matched,
    and a triple that has none is an unexpected statement.
    """
    try:
        triple = next(parse_ntriples((raw,), start=lineno), None)
    except ParseError as exc:
        raise SummaryFormatError(f"bad statement: {exc}") from exc
    if triple is None:
        return None
    s, p, o = triple
    if s.kind == IRI and s.value.startswith(EQC_NS) and o.kind == IRI:
        sid = s.value[len(EQC_NS):]
        if p.value == P_ATTRIBUTE:
            return "attribute", sid, o.value
        if p.value == P_CLASS:
            return "class", sid, o.value
        if p.value == P_PAYLOAD and o.value.startswith(PAYLOAD_NS):
            return "payload", sid, o.value[len(PAYLOAD_NS):]
    elif s.kind == IRI and s.value.startswith(PAYLOAD_NS):
        sid = s.value[len(PAYLOAD_NS):]
        if p.value == P_MEMBER and o.kind != LITERAL:
            return o.kind, sid, o.value
        if p.value == P_COUNT and o.kind == LITERAL and o.datatype == XSD_INTEGER:
            return "count", sid, o.value
    raise SummaryFormatError(f"line {lineno}: unexpected statement: {triple_line(triple)}")


@paused()
def read_summary(source: Iterable[str], verify: bool = True) -> Summary:
    """Rebuild a summary from its file lines.

    With `verify` (the default), every EQC id is recomputed from its schema
    and must match byte-for-byte. A header naming a digest other than
    SHA-256 is refused either way.
    """
    it = iter(source)
    first = next(it, None)
    if first is None:
        raise SummaryFormatError("line 1: empty input: missing summary header")
    try:
        first = _checked_text(first, 1)
    except ParseError as exc:
        raise SummaryFormatError(str(exc)) from exc
    m = _HEADER.match(first)
    if m is None:
        raise SummaryFormatError(f"line 1: missing summary header, got: {first.rstrip()!r}")
    if m.group(2) != _DIGEST:
        raise SummaryFormatError(f"line 1: unsupported digest {m.group(2)!r}")
    model = Model(m.group(1))

    # Keyed by the EQC id, or by the payload id (the text after PAYLOAD_NS).
    # `payload_of` and `counts` keep their statement's line, `eqc_line` and
    # `member_line` the line an id is first seen on, for the later checks.
    # `one` maps each id and label string to its first copy, so all of these
    # dicts and the schemas hold one object per value, and a line's own
    # copies are freed with the line. A schema side is a list, deduplicated
    # when its tuple is built below.
    want_attrs, want_classes = model.wants_attributes, model.wants_classes
    one: dict[str, str] = {}
    attrs: dict[str, list[str]] = {}
    classes: dict[str, list[str]] = {}
    payload_of: dict[str, tuple[str, int]] = {}
    eqc_line: dict[str, int] = {}
    members: dict[str, set[Term]] = {}
    member_line: dict[str, int] = {}
    counts: dict[str, tuple[str, int]] = {}
    match = _STATEMENT.fullmatch
    for lineno, raw in enumerate(it, start=2):
        if not raw.isascii():
            try:
                raw = _checked_text(raw, lineno)
            except ParseError as exc:
                raise SummaryFormatError(f"bad statement: {exc}") from exc
        m = match(raw)
        if m is not None:
            shape = m.lastgroup
            sid, value = m.group(2, shape)
        else:
            parsed = _generic_shape(raw, lineno)
            if parsed is None:
                continue
            shape, sid, value = parsed
        sid = one.setdefault(sid, sid)
        if shape == "attribute":
            if not want_attrs:
                raise SummaryFormatError(f"line {lineno}: EQC {sid} has attributes under model {model.value}")
            eqc_line.setdefault(sid, lineno)
            attrs.setdefault(sid, []).append(one.setdefault(value, value))
        elif shape == IRI or shape == BLANK:
            ms = members.get(sid)
            if ms is None:
                ms = members[sid] = set()
                member_line[sid] = lineno
            ms.add(_new(Term, (shape, value, None, None)))
        elif shape == "count":
            if not _COUNT.fullmatch(value):
                t = Triple(Term(IRI, PAYLOAD_NS + sid), Term(IRI, P_COUNT), Term(LITERAL, value, XSD_INTEGER))
                raise SummaryFormatError(f"line {lineno}: count is not a plain decimal: {triple_line(t)}")
            # Kept as canonical text: `int()` refuses more than a few thousand digits.
            count = value.lstrip("0") or "0"
            if counts.setdefault(sid, (count, lineno))[0] != count:
                raise SummaryFormatError(f"line {lineno}: payload {PAYLOAD_NS}{sid} has two counts: {counts[sid][0]} and {count}")
        elif shape == "payload":
            eqc_line.setdefault(sid, lineno)
            value = one.setdefault(value, value)
            if payload_of.setdefault(value, (sid, lineno))[0] != sid:
                raise SummaryFormatError(f"line {lineno}: payload vertex {PAYLOAD_NS}{value} attached to two EQCs")
        else:
            if not want_classes:
                raise SummaryFormatError(f"line {lineno}: EQC {sid} has classes under model {model.value}")
            eqc_line.setdefault(sid, lineno)
            classes.setdefault(sid, []).append(one.setdefault(value, value))

    missing = eqc_line.keys() - {hexid for hexid, _ in payload_of.values()}
    if missing:
        line = min(eqc_line[hexid] for hexid in missing)
        raise SummaryFormatError(f"line {line}: EQCs without payloads: {sorted(missing)}")

    summary = Summary(model=model)
    for hexid in sorted(eqc_line):
        schema = tuple(sorted(set(attrs.pop(hexid, ())))), tuple(sorted(set(classes.pop(hexid, ()))))
        if verify and eqc_id(model, schema) != hexid:
            line = min(n for c, n in payload_of.values() if c == hexid)
            raise SummaryFormatError(f"line {line}: EQC id {hexid} does not match its schema")
        summary.eqcs[hexid] = schema

    owner: dict[Term, str] = {}
    for pid, (hexid, line) in payload_of.items():
        if hexid in summary.payloads:
            raise SummaryFormatError(f"line {line}: EQC {hexid} has a second payload {PAYLOAD_NS}{pid}")
        ms = members.get(pid)
        if not ms:
            raise SummaryFormatError(f"line {line}: EQC {hexid} has an empty payload")
        if pid not in counts:
            raise SummaryFormatError(f"line {line}: payload of EQC {hexid} has no count")
        count, count_line = counts[pid]
        if count != str(len(ms)):
            raise SummaryFormatError(f"line {count_line}: EQC {hexid}: count {count} != {len(ms)} members")
        summary.payloads[hexid] = ms
        for m in ms:
            other = owner.setdefault(m, hexid)
            if other != hexid:
                raise SummaryFormatError(f"line {line}: member {m.nt()} of EQC {hexid} already appears in EQC {other}")

    stray = (members.keys() | counts.keys()) - payload_of.keys()
    if stray:
        line = min([member_line[pid] for pid in stray if pid in member_line]
                   + [counts[pid][1] for pid in stray if pid in counts])
        stray_iris = sorted(PAYLOAD_NS + pid for pid in stray)
        raise SummaryFormatError(f"line {line}: payload vertices never attached to an EQC: {stray_iris}")
    return summary


def load_summary(path: str | Path, verify: bool = True) -> Summary:
    """`read_summary` on a file, read once; every format error names the file first."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return read_summary(fh, verify=verify)
    except SummaryFormatError as exc:
        raise SummaryFormatError(f"{path}: {exc}") from None
