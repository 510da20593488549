"""Expected ACC summary bytes, computed independently of mvsum.

The rules come from the docstrings of `mvsum.summary` and `mvsum.summary_io`:
vertices group by (sorted predicates, sorted classes); an EQC id is the
first 32 hex digits of SHA-256 over the canonical schema string
("ACC\\n", one "<attr>\\n" per attribute, "|\\n", one "<class>\\n" per class);
the file is a header line plus the `urn:mvs:` statements sorted by code
point, LF-terminated.

    python3 perfbench/oracle.py GRAPH.nt GOLDEN.nt

checks that the oracle reproduces GOLDEN.nt from GRAPH.nt byte for byte.
"""

from __future__ import annotations

import hashlib
import re
import sys

HEADER = "# mvs-summary v1 model=ACC digest=sha256"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def eqc_hex(attrs: tuple[str, ...], classes: tuple[str, ...]) -> str:
    canon = "ACC\n" + "".join(f"<{a}>\n" for a in attrs) + "|\n" + "".join(f"<{c}>\n" for c in classes)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def summary_bytes(schema: dict[str, tuple[set[str], set[str]]]) -> bytes:
    """The ACC summary file of a graph given as vertex IRI -> (attrs, classes)."""
    groups: dict[tuple[tuple[str, ...], tuple[str, ...]], list[str]] = {}
    for v, (attrs, classes) in schema.items():
        groups.setdefault((tuple(sorted(attrs)), tuple(sorted(classes))), []).append(v)
    lines = []
    for (attrs, classes), members in groups.items():
        h = eqc_hex(attrs, classes)
        eqc = f"<urn:mvs:eqc:{h}>"
        pay = f"<urn:mvs:payload:{h}>"
        lines.extend(f"{eqc} <urn:mvs:attribute> <{a}> ." for a in attrs)
        lines.extend(f"{eqc} <urn:mvs:class> <{c}> ." for c in classes)
        lines.append(f"{eqc} <urn:mvs:payload> {pay} .")
        lines.extend(f"{pay} <urn:mvs:member> <{m}> ." for m in members)
        lines.append(f'{pay} <urn:mvs:count> "{len(members)}"^^<{XSD_INTEGER}> .')
    lines.sort()
    return ("\n".join([HEADER, *lines]) + "\n").encode("utf-8")


# IRI subject, IRI predicate, IRI or escape-free literal object: enough for
# the golden-file check, not a general N-Triples parser.
_LINE = re.compile(r'<([^>]*)> <([^>]*)> (?:<([^>]*)>|"[^"\\]*"(?:@[A-Za-z-]+|\^\^<[^>]*>)?) \.\s*\Z')


def schema_of_text(text: str) -> dict[str, tuple[set[str], set[str]]]:
    schema: dict[str, tuple[set[str], set[str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unsupported statement {line!r}")
        s, p, o = m.groups()
        attrs, classes = schema.setdefault(s, (set(), set()))
        if p == RDF_TYPE:
            if o is None:
                raise ValueError(f"line {lineno}: rdf:type object must be an IRI")
            classes.add(o)
            continue
        attrs.add(p)
        if o is not None:
            schema.setdefault(o, (set(), set()))
    return schema


def check_golden(graph_path: str, golden_path: str) -> None:
    """Raise ValueError unless the oracle reproduces the golden summary file."""
    with open(graph_path, encoding="utf-8") as fh:
        got = summary_bytes(schema_of_text(fh.read()))
    with open(golden_path, "rb") as fh:
        want = fh.read()
    if got != want:
        raise ValueError(f"oracle output differs from {golden_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} GRAPH.nt GOLDEN.nt")
    check_golden(sys.argv[1], sys.argv[2])
    print(f"oracle reproduces {sys.argv[2]}")
