"""Summary files: N-Triples with a fixed `urn:mvs:` vocabulary.

Line 1 is a comment header naming the model, so that a reader can refuse
unsafe merges, and the digest, always `sha256`. A file naming any other is
refused at line 1, verified or not: its ids would never equal those of the
same schemas in another file. Every other line is one statement:

    # mvs-summary v1 model=ACC digest=sha256
    <urn:mvs:eqc:HEX> <urn:mvs:attribute> <pred-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:class> <class-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:payload> <urn:mvs:payload:HEX> .
    <urn:mvs:payload:HEX> <urn:mvs:member> <member> .
    <urn:mvs:payload:HEX> <urn:mvs:count> "n"^^<...#integer> .

The writer emits the statements in the order of one sort of all lines, so
equal summaries serialize to equal bytes. It checks every id, label and
member in file order, as the API may give it text never parsed, so the
first bad one is named. It holds one chunk of about `_CHUNK_LINES` lines,
never the whole file, and `save_summary` replaces its target atomically.

The reader takes the statements in any order, any number of times and in
any spelling `parse_ntriples` accepts, but an EQC's `payload` statement
must name `urn:mvs:payload:` and the EQC's own id. An error in one
statement names its physical line, the header being line 1: so do an
attribute under CC, a class under AC, a count that is not a plain decimal
and a second, differing count of one payload. After the last line come, in
this order: EQCs without a payload, named at the first statement of the
first such EQC; then, EQC by EQC in id order, an id that does not match its
schema, an empty payload, a payload without a count, a count that disagrees
with the members and a member already in another EQC, named at the EQC's
`payload` statement or, for the count, its payload's `count` statement;
last, payloads attached to no EQC, named at their first `member` or `count`
statement. One call holds what it has read so far, grouped, and keeps
nothing once it returns; equal ids and labels of one file are one string in
its result.

`read_summary`, `format_summary` and `save_summary` run with the cyclic
collector paused (see `mvsum._collector`).
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from mvsum._collector import paused
from mvsum.errors import DataError
from mvsum.ntriples import XSD_INTEGER, _BATCH, _IRI_CHAR, _IRI_FORBIDDEN, ParseError, _batch_rows, _checked_iri, _checked_text, _line_triple, triple_line
from mvsum.summary import Model, Summary, as_payload, eqc_id

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

# The five statement shapes exactly as the writer spells them, which is how
# `triple_line` joins a parsed line: one match is one whole line. Its groups
# are (EQC id, side word, label, payload id, member, `count` word, count
# body). An id, a label or a count body may be empty, so a shape is told by
# the groups that never are. A count is any unescaped literal body, so that
# the count check, not the pattern, refuses one that is not a plain decimal.
_PLAIN_IRI = f"{_IRI_CHAR}*"
_MEMBER = re.compile(rf"<{_PLAIN_IRI}>|_:[A-Za-z0-9]+")
_STATEMENT = re.compile(
    rf"^<urn:mvs:(?:eqc:({_PLAIN_IRI})> <urn:mvs:(?:"
    rf"(attribute|class)> <({_PLAIN_IRI})>"
    rf"|payload> <urn:mvs:payload:\1>"
    rf")|payload:({_PLAIN_IRI})> <urn:mvs:(?:"
    rf"member> ({_MEMBER.pattern})"
    rf'|(count)> "([^"\\\x00-\x1f]*)"\^\^<{re.escape(XSD_INTEGER)}>'
    r")) \.(?:\n|\Z)",
    re.M,
)


class SummaryFormatError(DataError):
    """A summary file that violates the format or its invariants."""


def header_line(summary: Summary) -> str:
    return f"# mvs-summary v1 model={summary.model.value} digest={_DIGEST}"


def is_summary_header(line: str) -> bool:
    return _HEADER.match(line) is not None


def _bad_member(m: str) -> ValueError:
    return ValueError(f"member is not <iri> or _:[A-Za-z0-9]+: {m!r}")


def _statement_chunks(summary: Summary) -> Iterator[str]:
    """The file text: the header, then chunks of at least `_CHUNK_LINES`
    lines, cut only between subjects; only the last may be shorter.
    """
    yield f"{header_line(summary)}\n"
    # Ids sort as their subjects' tails (`ID>`) when one is a prefix of the
    # next; the writer's order test says why. `EQC_NS` holds no character an
    # IRI excludes, so a bare id is searched.
    cids = sorted(summary.eqcs)
    if any(b.startswith(a) for a, b in zip(cids, cids[1:])):
        cids.sort(key=lambda cid: cid + ">")
    forbidden = _IRI_FORBIDDEN.search
    checked: set[str] = set()
    chunk: list[str] = []
    for cid in cids:
        if forbidden(cid):
            _checked_iri(EQC_NS + cid)
        eqc = f"<{EQC_NS}{cid}>"
        attributes, classes = summary.eqcs[cid]
        for label in attributes + classes:
            if label not in checked:
                checked.add(_checked_iri(label))
        if len(checked) >= _CHUNK_LINES:
            checked.clear()
        # `attribute` sorts before `class`, and both before `payload`.
        block = [f"{eqc} <{P_ATTRIBUTE}> <{a}> .\n" for a in attributes]
        block += [f"{eqc} <{P_CLASS}> <{c}> .\n" for c in classes]
        block.sort()
        chunk += block
        chunk.append(f"{eqc} <{P_PAYLOAD}> <{PAYLOAD_NS}{cid}> .\n")
        if len(chunk) >= _CHUNK_LINES:
            yield "".join(chunk)
            chunk = []
    for cid in cids:
        pay = f"<{PAYLOAD_NS}{cid}>"
        members = summary.payloads[cid]
        if len(members) == 1:
            # `count` sorts before `member`.
            (m,) = members
            if not _MEMBER.fullmatch(m):
                raise _bad_member(m)
            chunk.append(f'{pay} <{P_COUNT}> "1"^^<{XSD_INTEGER}> .\n')
            chunk.append(f"{pay} <{P_MEMBER}> {m} .\n")
        else:
            for m in members:
                if not _MEMBER.fullmatch(m):
                    raise _bad_member(m)
            block = [f"{pay} <{P_MEMBER}> {m} .\n" for m in members]
            block.append(f'{pay} <{P_COUNT}> "{len(members):d}"^^<{XSD_INTEGER}> .\n')
            block.sort()
            chunk += block
        if len(chunk) >= _CHUNK_LINES:
            yield "".join(chunk)
            chunk = []
    if chunk:
        yield "".join(chunk)


@paused()
def format_summary(summary: Summary) -> str:
    """The full file text: header plus sorted statements, LF-terminated."""
    return "".join(_statement_chunks(summary))


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
            fh.writelines(_statement_chunks(summary))
        return
    target = os.path.realpath(path)
    # A short name of its own: the target's name plus a suffix could exceed
    # the file system's name limit.
    tmp = os.path.join(os.path.dirname(target), f".mvsum-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(_statement_chunks(summary))
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


def _respelled(raw: str, lineno: int) -> str | None:
    """A line `_STATEMENT` rejects, parsed and joined by `triple_line`; None if blank or a comment."""
    try:
        triple = _line_triple(raw, lineno, {})
    except ParseError as exc:
        raise SummaryFormatError(f"bad statement: {exc}") from exc
    return None if triple is None else triple_line(triple)


def _line_rows(lines: list[str], start: int) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line number, `_STATEMENT` row) of each statement in `lines`, one line at a time.

    `start` is the first line's number; a blank or comment line gives no
    row. A line's error comes after the rows of the lines before it.
    """
    match = _STATEMENT.fullmatch
    for lineno, raw in enumerate(lines, start):
        if not raw.isascii():
            try:
                raw = _checked_text(raw, lineno)
            except ParseError as exc:
                raise SummaryFormatError(f"bad statement: {exc}") from exc
        m = match(raw)
        if m is None:
            raw = _respelled(raw, lineno)
            if raw is None:
                continue
            m = match(raw)
            if m is None:
                raise SummaryFormatError(f"line {lineno}: unexpected statement: {raw}")
        yield lineno, m.groups("")


@paused()
def read_summary(source: Iterable[str], verify: bool = True) -> Summary:
    """Rebuild a summary from its file lines.

    `source` yields lines, as a text file does; a line holding a `\n` before
    its end is a format error. With `verify` (the default), every EQC id is
    recomputed from its schema and must match byte-for-byte. A header naming
    a digest other than SHA-256 is refused either way.
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

    # Keyed by the EQC id, which is also its payload's id. The `*_line` dicts
    # keep the lines the checks after the last line name. `one` maps each id
    # and label to its first copy, looked up only where the subject changes.
    want_attrs, want_classes = model.wants_attributes, model.wants_classes
    one: dict[str, str] = {}
    attrs: dict[str, list[str]] = {}
    classes: dict[str, list[str]] = {}
    eqc_line: dict[str, int] = {}
    payload_line: dict[str, int] = {}
    members: dict[str, list[str]] = {}
    member_line: dict[str, int] = {}
    counts: dict[str, tuple[str, int]] = {}
    last = None
    start = 2
    while lines := list(islice(it, _BATCH)):
        rows = _batch_rows(lines, _STATEMENT)
        for lineno, (eid, word, label, pid, member, counted, value) in _line_rows(lines, start) if rows is None else enumerate(rows, start):
            sid = eid or pid
            if sid != last:
                last = one.setdefault(sid, sid)
            sid = last
            if word:
                if word == "attribute":
                    sides, wanted, plural = attrs, want_attrs, "attributes"
                else:
                    sides, wanted, plural = classes, want_classes, "classes"
                if not wanted:
                    raise SummaryFormatError(f"line {lineno}: EQC {sid} has {plural} under model {model.value}")
                side = sides.get(sid)
                if side is None:
                    sides[sid] = [one.setdefault(label, label)]
                    eqc_line.setdefault(sid, lineno)
                else:
                    side.append(one.setdefault(label, label))
            elif member:
                ms = members.get(sid)
                if ms is None:
                    members[sid] = [member]
                    member_line[sid] = lineno
                else:
                    ms.append(member)
            elif counted:
                if not _COUNT.fullmatch(value):
                    line = f'<{PAYLOAD_NS}{sid}> <{P_COUNT}> "{value}"^^<{XSD_INTEGER}> .'
                    raise SummaryFormatError(f"line {lineno}: count is not a plain decimal: {line}")
                # Kept as canonical text: `int()` refuses more than a few thousand digits.
                count = value.lstrip("0") or "0"
                if counts.setdefault(sid, (count, lineno))[0] != count:
                    raise SummaryFormatError(f"line {lineno}: payload {PAYLOAD_NS}{sid} has two counts: {counts[sid][0]} and {count}")
            else:
                payload_line.setdefault(sid, lineno)
        start += len(lines)

    missing = eqc_line.keys() - payload_line.keys()
    if missing:
        line = min(eqc_line[hexid] for hexid in missing)
        raise SummaryFormatError(f"line {line}: EQCs without payloads: {sorted(missing)}")

    summary = Summary(model=model)
    owner: dict[str, str] = {}
    for hexid in sorted(payload_line):
        line = payload_line[hexid]
        a, c = attrs.pop(hexid, ()), classes.pop(hexid, ())
        schema = tuple(sorted(set(a)) if len(a) > 1 else a), tuple(sorted(set(c)) if len(c) > 1 else c)
        if verify and eqc_id(model, schema) != hexid:
            raise SummaryFormatError(f"line {line}: EQC id {hexid} does not match its schema")
        ms = members.pop(hexid, None)
        if ms is None:
            raise SummaryFormatError(f"line {line}: EQC {hexid} has an empty payload")
        if hexid not in counts:
            raise SummaryFormatError(f"line {line}: payload of EQC {hexid} has no count")
        count, count_line = counts.pop(hexid)
        ms = as_payload(ms)
        if count != str(len(ms)):
            raise SummaryFormatError(f"line {count_line}: EQC {hexid}: count {count} != {len(ms)} members")
        summary.eqcs[hexid] = schema
        summary.payloads[hexid] = ms
        for m in ms:
            other = owner.setdefault(m, hexid)
            if other != hexid:
                raise SummaryFormatError(f"line {line}: member {m} of EQC {hexid} already appears in EQC {other}")

    if members or counts:
        line = min([member_line[pid] for pid in members] + [n for _, n in counts.values()])
        stray_iris = sorted(PAYLOAD_NS + pid for pid in members.keys() | counts.keys())
        raise SummaryFormatError(f"line {line}: payload vertices never attached to an EQC: {stray_iris}")
    return summary


def load_summary(path: str | Path, verify: bool = True) -> Summary:
    """`read_summary` on a file, read once; every format error names the file first."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return read_summary(fh, verify=verify)
    except SummaryFormatError as exc:
        raise SummaryFormatError(f"{path}: {exc}") from None
