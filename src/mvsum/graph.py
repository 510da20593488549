"""In-memory multi-relational labeled graph.

The summary models read two things per vertex: its outgoing edge labels
and its classes, so that is all a graph keeps. `rdf:type` triples with IRI
objects become vertex labels (classes); every other statement becomes an
outgoing label of its subject, not an edge, so the two label alphabets stay
disjoint by construction. An IRI or blank object becomes a vertex; a
literal object does not, and a literal subject is refused.

A vertex is its N-Triples term text, `<iri>` or `_:label`, the string a
summary holds as a member. A built graph is immutable: each vertex's labels
are a tuple sorted by code point, the very schema side that `summarize`
groups on. Each vertex text, class IRI and label tuple is one object,
shared by `vertices` and both label maps.

`build_graph` runs with the cyclic collector paused (see `mvsum._collector`),
and so does the parser generator it drives, since the parser's work runs
inside `build_graph`'s loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from mvsum._collector import paused
from mvsum.errors import DataError
from mvsum.ntriples import RDF_TYPE, Triple


@dataclass
class Graph:
    vertices: set[str] = field(default_factory=set)
    vertex_labels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    out_labels: dict[str, tuple[str, ...]] = field(default_factory=dict)


@paused()
def build_graph(triples: Iterable[Triple]) -> Graph:
    """Build a graph from text triples, splitting `rdf:type` off into vertex labels.

    A triple (s, rdf:type, <c>) adds class c to s's label set; any other
    triple (s, p, o) adds p to s's outgoing labels. Subjects and objects
    that are not literals are registered as vertices. A literal subject, or
    an `rdf:type` object that is not an IRI, raises DataError.
    """
    vertex_labels: dict[str, set[str]] = {}
    out_labels: dict[str, set[str]] = {}
    # `vertex` maps each vertex text to its first copy and is the vertex set,
    # `klass` each class IRI; `vertices` and both label maps share them.
    vertex: dict[str, str] = {}
    klass = {}.setdefault
    one = vertex.setdefault
    for s, p, o in triples:
        if s[0] == '"':
            raise DataError(f"subject must be an IRI or blank node, got {s}")
        s = one(s, s)
        if p == RDF_TYPE:
            if o[0] != "<":
                raise DataError(f"rdf:type object must be an IRI, got {o}")
            c = o[1:-1]
            c = klass(c, c)
            side = vertex_labels.get(s)
            if side is None:
                vertex_labels[s] = {c}
            else:
                side.add(c)
            continue
        side = out_labels.get(s)
        if side is None:
            out_labels[s] = {p}
        else:
            side.add(p)
        if o[0] != '"':
            one(o, o)
    # Equal label sets become one tuple.
    interned = {}.setdefault
    for labels in (vertex_labels, out_labels):
        for v, side in labels.items():
            side = tuple(sorted(side))
            labels[v] = interned(side, side)
    return Graph(set(vertex), vertex_labels, out_labels)
