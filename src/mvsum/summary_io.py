"""Summary files: N-Triples with a fixed `urn:mvs:` vocabulary.

Line 1 is a comment header carrying the model and digest name so a reader
can refuse unsafe merges; every other line is a plain N-Triples statement.
Statements are emitted sorted, so equal summaries serialize to equal bytes.

    # mvs-summary v1 model=ACC digest=sha256
    <urn:mvs:eqc:HEX> <urn:mvs:attribute> <pred-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:class> <class-IRI> .
    <urn:mvs:eqc:HEX> <urn:mvs:payload> <urn:mvs:payload:HEX> .
    <urn:mvs:payload:HEX> <urn:mvs:member> <member> .
    <urn:mvs:payload:HEX> <urn:mvs:count> "n"^^<...#integer> .
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from mvsum.ntriples import IRI, LITERAL, XSD_INTEGER, ParseError, Term, Triple, _checked_iri, parse_ntriples, triple_line
from mvsum.summary import EqcSchema, Model, Payload, Summary, check_digest, eqc_id

EQC_NS = "urn:mvs:eqc:"
PAYLOAD_NS = "urn:mvs:payload:"
P_ATTRIBUTE = "urn:mvs:attribute"
P_CLASS = "urn:mvs:class"
P_PAYLOAD = "urn:mvs:payload"
P_MEMBER = "urn:mvs:member"
P_COUNT = "urn:mvs:count"

_HEADER = re.compile(r"# mvs-summary v1 model=(AC|CC|ACC) digest=(\S+)\s*\Z")
# `int()` alone would also take signs, spaces, underscores and non-ASCII digits.
_COUNT = re.compile(r"[0-9]+")


class SummaryFormatError(ValueError):
    """A summary file that violates the format or its invariants."""


def header_line(summary: Summary) -> str:
    return f"# mvs-summary v1 model={summary.model.value} digest={summary.digest}"


def is_summary_header(line: str | bytes) -> bool:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return False
    return _HEADER.match(line.rstrip("\r\n")) is not None


def summary_triples(summary: Summary) -> list[Triple]:
    """The summary as triples, in serialization (sorted-line) order."""
    lines = _statement_lines(summary)
    return list(parse_ntriples(iter(lines)))


def _statement_lines(summary: Summary) -> list[str]:
    # Lines are formatted directly, but every IRI is still checked: a Summary
    # built through the API may hold IRIs that were never parsed. The payload
    # IRI holds the same id as the checked EQC IRI.
    lines = []
    append = lines.append
    for cid, schema in summary.eqcs.items():
        eqc = f"<{_checked_iri(EQC_NS + cid)}>"
        pay = f"<{PAYLOAD_NS}{cid}>"
        for a in schema.attributes or ():
            append(f"{eqc} <{P_ATTRIBUTE}> <{_checked_iri(a)}> .")
        for c in schema.classes or ():
            append(f"{eqc} <{P_CLASS}> <{_checked_iri(c)}> .")
        append(f"{eqc} <{P_PAYLOAD}> {pay} .")
        payload = summary.payloads[cid]
        for m in payload.members:
            append(f"{pay} <{P_MEMBER}> {m.nt()} .")
        append(f'{pay} <{P_COUNT}> "{payload.count:d}"^^<{XSD_INTEGER}> .')
    lines.sort()
    return lines


def format_summary(summary: Summary) -> str:
    """The full file text: header plus sorted statements, LF-terminated."""
    lines = [header_line(summary)]
    lines.extend(_statement_lines(summary))
    lines.append("")
    return "\n".join(lines)


def save_summary(summary: Summary, path: str | Path) -> None:
    # Encode before opening the target, so a summary that cannot be written
    # leaves no file behind.
    Path(path).write_bytes(format_summary(summary).encode("utf-8"))


def read_summary(source: Iterable[str | bytes], verify: bool = True) -> Summary:
    """Rebuild a summary from its file lines.

    With `verify` (the default), every EQC id is recomputed from its schema
    under the header's digest and must match byte-for-byte.
    """
    it = iter(source)
    try:
        first = next(it)
    except StopIteration:
        raise SummaryFormatError("empty input: missing summary header") from None
    if isinstance(first, bytes):
        try:
            first = first.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SummaryFormatError(f"summary header is not valid UTF-8: {exc}") from None
    m = _HEADER.match(first.rstrip("\r\n"))
    if m is None:
        raise SummaryFormatError(f"missing summary header, got: {first.rstrip()!r}")
    model = Model(m.group(1))
    digest = m.group(2)
    if verify:
        check_digest(digest)

    attrs: dict[str, set[str]] = {}
    classes: dict[str, set[str]] = {}
    payload_of: dict[str, str] = {}
    eqc_ids: set[str] = set()
    members: dict[str, set[Term]] = {}
    counts: dict[str, int] = {}
    try:
        for s, p, o in parse_ntriples(it):
            if p.kind != IRI or s.kind != IRI:
                raise SummaryFormatError(f"unexpected statement: {triple_line(Triple(s, p, o))}")
            if s.value.startswith(EQC_NS):
                hexid = s.value[len(EQC_NS):]
                eqc_ids.add(hexid)
                if p.value == P_ATTRIBUTE and o.kind == IRI:
                    attrs.setdefault(hexid, set()).add(o.value)
                elif p.value == P_CLASS and o.kind == IRI:
                    classes.setdefault(hexid, set()).add(o.value)
                elif p.value == P_PAYLOAD and o.kind == IRI and o.value.startswith(PAYLOAD_NS):
                    if payload_of.setdefault(o.value, hexid) != hexid:
                        raise SummaryFormatError(f"payload vertex {o.value} attached to two EQCs")
                else:
                    raise SummaryFormatError(f"unexpected statement: {triple_line(Triple(s, p, o))}")
            elif s.value.startswith(PAYLOAD_NS):
                if p.value == P_MEMBER and o.kind != LITERAL:
                    members.setdefault(s.value, set()).add(o)
                elif p.value == P_COUNT and o.kind == LITERAL and o.datatype == XSD_INTEGER:
                    if not _COUNT.fullmatch(o.value):
                        raise SummaryFormatError(f"count is not a plain decimal: {triple_line(Triple(s, p, o))}")
                    counts[s.value] = int(o.value)
                else:
                    raise SummaryFormatError(f"unexpected statement: {triple_line(Triple(s, p, o))}")
            else:
                raise SummaryFormatError(f"unexpected statement: {triple_line(Triple(s, p, o))}")
    except ParseError as exc:
        raise SummaryFormatError(f"bad statement: {exc}") from exc

    summary = Summary(model=model, digest=digest)
    for hexid in sorted(eqc_ids):
        schema = EqcSchema(
            model,
            tuple(sorted(attrs.get(hexid, ()))) if model.wants_attributes else None,
            tuple(sorted(classes.get(hexid, ()))) if model.wants_classes else None,
        )
        if (hexid in attrs) and not model.wants_attributes:
            raise SummaryFormatError(f"EQC {hexid} has attributes under model {model.value}")
        if (hexid in classes) and not model.wants_classes:
            raise SummaryFormatError(f"EQC {hexid} has classes under model {model.value}")
        if verify and eqc_id(schema, digest) != hexid:
            raise SummaryFormatError(f"EQC id {hexid} does not match its schema under digest {digest}")
        summary.eqcs[hexid] = schema

    for payload_iri, hexid in payload_of.items():
        ms = members.get(payload_iri, set())
        if not ms:
            raise SummaryFormatError(f"EQC {hexid} has an empty payload")
        if payload_iri not in counts:
            raise SummaryFormatError(f"payload of EQC {hexid} has no count")
        if counts[payload_iri] != len(ms):
            raise SummaryFormatError(
                f"EQC {hexid}: count {counts[payload_iri]} != {len(ms)} members"
            )
        summary.payloads[hexid] = Payload(ms, len(ms))
        for m in ms:
            if summary.member_index.setdefault(m, hexid) != hexid:
                raise SummaryFormatError(f"member {m.nt()} appears in two EQCs")

    missing = eqc_ids - set(summary.payloads)
    if missing:
        raise SummaryFormatError(f"EQCs without payloads: {sorted(missing)}")
    orphans = set(payload_of.values()) - eqc_ids
    if orphans:
        raise SummaryFormatError(f"payloads for unknown EQCs: {sorted(orphans)}")
    stray = (set(members) | set(counts)) - set(payload_of)
    if stray:
        raise SummaryFormatError(f"payload vertices never attached to an EQC: {sorted(stray)}")
    return summary


def load_summary(path: str | Path, verify: bool = True) -> Summary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_summary(fh, verify=verify)
    except UnicodeDecodeError as exc:
        raise SummaryFormatError(f"{path}: not valid UTF-8: {exc}") from None
