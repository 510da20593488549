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
sorts them again as `ID>`, the subject's tail. `save_summary` writes the
lines in chunks of about a thousand, so the writer holds one chunk and one
subject's lines, never the whole file, and renames a temporary file beside
the target onto it at the end, so the target is never a part. The writer
checks every IRI and member, as the API may give it text never parsed, in
file order, so the first bad id, label or member is named. An id is
searched bare, as `urn:mvs:eqc:` holds no character an IRI excludes. A
label is checked only when first met, in a set emptied at `_CHUNK_LINES`
labels, so a predicate on thousands of lines is checked about once per
chunk. A payload of one member, the most common, is written as its `count`
line and then its member line, which sorts after it, with no list and no
sort; each subject's lines go straight into the chunk.

The reader takes the lines `_BATCH` at a time and reads each batch, joined,
with one `findall` of one compiled pattern for these five shapes as the
writer formats them: a row of groups per line, built in C. A match is one
whole line, and a line holds no `\n` but its last character, so as many
matches as lines means every line matched. Its member is `_MEMBER`, the
writer's rule, kept as the text it is; the rest is grouped by the EQC id
string, which is also its payload's id: an EQC's `payload` statement must
name `urn:mvs:payload:` and the EQC's own id, as every writer has. A batch
with fewer matches, whose first line does not match (so a file in another
spelling costs no `findall`) or whose text is not UTF-8 is read line by
line, each line matched on its own into the same row. A line the pattern
rejects (a comment, a blank line, other spacing, an escape, a non-plain
blank label, CRLF, a foreign statement or garbage) goes, on its own,
through `parse_ntriples`, whose terms come out as the writer spells them;
`triple_line` joins them into a line that meets the same pattern, so one
grammar and one set of checks serve every path; a line it still rejects is
an unexpected statement. One loop reads the rows of both paths, and an
error in one statement names its physical line, the header being line 1:
so do an attribute under CC, a class under AC, a count that is not a plain
decimal and a second, differing count of one payload. After the last line
come, in this order: EQCs without a payload, named at the first statement
of the first such EQC; then, EQC by EQC in id order, an id that does not
match its schema, an empty payload, a payload without a count, a count
that disagrees with the members and a member already in another EQC, named
at the EQC's `payload` statement or, for the count, its payload's `count`
statement; last, payloads attached to no EQC, named at their first
`member` or `count` statement. `load_summary` reads its file once; on the
per-line path, lines that are not ASCII pass `ntriples._checked_text`
first.

Within one `read_summary` call each id and each label is one string: a
local dict, read only where the subject changes, maps every copy to the
first, so an EQC's id is one object in `eqcs`, `payloads` and the loader's
dicts, and a predicate on thousands of lines is one string. A schema side
is a list, made a tuple (sorted and deduplicated if it holds two or more
labels) when its EQC is built, and a payload's members a list, made its
payload (`summary.as_payload`) where the count is checked; so statements
may come in any order and any number of times. Nothing is kept across calls.

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
from mvsum.ntriples import XSD_INTEGER, _IRI_CHAR, _IRI_FORBIDDEN, ParseError, _checked_iri, _checked_text, parse_ntriples, triple_line
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
# `triple_line` joins a parsed line, as a row: a match is one whole line,
# from `^` (under `re.M`) to its `\n` or the end of the text, and its groups
# are (EQC id, side word, label, payload id, member, `count` word, count
# body). `findall` gives a group that took no part as "", and an id, a label
# or a count body may be empty too, so the shape is told by the groups that
# never are: the side word (`attribute` or `class`) on an EQC's label line,
# the member, the `count` word, and none of them on an EQC's `payload` line,
# whose object is `urn:mvs:payload:` and the EQC's own id (`\1`). An IRI
# here holds no escape, so its text is its value, and a member's text is the
# member. A count is any literal body the parser spells unescaped, so that
# the count check, not the pattern, refuses a body that is not a plain
# decimal.
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
# Lines per `findall`: the fastest of the sizes tried.
_BATCH = 256


class SummaryFormatError(DataError):
    """A summary file that violates the format or its invariants."""


def header_line(summary: Summary) -> str:
    return f"# mvs-summary v1 model={summary.model.value} digest={_DIGEST}"


def is_summary_header(line: str) -> bool:
    return _HEADER.match(line) is not None


def _bad_member(m: str) -> ValueError:
    return ValueError(f"member is not <iri> or _:[A-Za-z0-9]+: {m!r}")


def _statement_chunks(summary: Summary) -> Iterator[str]:
    """The file text: the header line, then the statements in file order.

    Each subject's lines are sorted: first every EQC subject, then every
    payload subject in the same order; the module docstring says why this
    is the order of one global sort. The statements are joined into chunks
    of at least `_CHUNK_LINES` lines, cut only between subjects; only the
    last chunk may be shorter, and a summary without EQCs yields the header
    alone.
    """
    yield f"{header_line(summary)}\n"
    # The checks of the module docstring. `EQC_NS` holds no character an
    # IRI excludes, so a bare id is searched, and the payload IRI holds the
    # same id as the checked EQC IRI.
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
    """A line `_STATEMENT` rejects, parsed and joined by `triple_line`.

    None means a blank or comment line.
    """
    try:
        triple = next(parse_ntriples((raw,), start=lineno), None)
    except ParseError as exc:
        raise SummaryFormatError(f"bad statement: {exc}") from exc
    return None if triple is None else triple_line(triple)


def _line_rows(lines: list[str], start: int) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line number, `_STATEMENT` row) of each statement in `lines`, one line at a time.

    `start` is the first line's number. A line the pattern rejects is
    spelled again by `_respelled`; a blank or comment line gives no row.
    Rows come as the lines are read, so a line's error comes after the rows
    of the lines before it.
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


def _batch_rows(lines: list[str], start: int) -> Iterable[tuple[int, tuple[str, ...]]]:
    """The rows of `_line_rows(lines, start)`, read with one `findall` when it can.

    A match is one whole line of the joined text, and a line holds no `\n`
    but its last character, so as many matches as lines means every line
    matched. A text with a line the pattern
    rejects, or one that is not UTF-8 (a lone surrogate), is read line by
    line. So is one whose first line the pattern rejects, without a
    `findall`: in a file of another spelling (CRLF lines, other spacing)
    every line is rejected.
    """
    text = "".join(lines)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return _line_rows(lines, start)
    if _STATEMENT.match(text):
        rows = _STATEMENT.findall(text)
        if len(rows) == len(lines):
            return enumerate(rows, start)
    return _line_rows(lines, start)


@paused()
def read_summary(source: Iterable[str], verify: bool = True) -> Summary:
    """Rebuild a summary from its file lines.

    `source` yields lines, as a text file does: a line holds no `\n` but the
    one that may end it. With `verify` (the default), every EQC id is
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

    # Keyed by the EQC id, which is also its payload's id (the text after
    # PAYLOAD_NS). `counts` keeps its statement's line, and the `*_line`
    # dicts the line of an id's first `payload` statement, first attribute or
    # class, and first member, for the later checks. `one` maps each id and
    # label string to its first copy (see the module docstring), and `last`
    # is the line before's id. A side's list is deduplicated below.
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
        for lineno, (eid, word, label, pid, member, counted, value) in _batch_rows(lines, start):
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
