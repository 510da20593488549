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
groups on. Within one `build_graph` call each vertex text, each class IRI
and each label tuple is one object, shared by `vertices` and both label
maps. Local dicts map each to its first copy and are dropped on return.

`build_graph` runs with the cyclic collector paused (see `mvsum._collector`),
and so does the parser generator it drives, since the parser's work runs
inside `build_graph`'s loop. Triples, strings, label sets and tuples hold no
cycles, so a collection there would free nothing.
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
    vertices: set[str] = set()
    vertex_labels: dict[str, set[str]] = {}
    out_labels: dict[str, set[str]] = {}
    # Maps each vertex text and class IRI to its first copy, so that
    # `vertices` and both label maps share one string per vertex and per class.
    one = {}.setdefault
    for s, p, o in triples:
        if s[0] == '"':
            raise DataError(f"subject must be an IRI or blank node, got {s}")
        s = one(s, s)
        vertices.add(s)
        if p == RDF_TYPE:
            if o[0] != "<":
                raise DataError(f"rdf:type object must be an IRI, got {o}")
            c = o[1:-1]
            vertex_labels.setdefault(s, set()).add(one(c, c))
            continue
        out_labels.setdefault(s, set()).add(p)
        if o[0] != '"':
            vertices.add(one(o, o))
    # Equal label sets become one tuple.
    interned = {}.setdefault
    for labels in (vertex_labels, out_labels):
        for v, side in labels.items():
            side = tuple(sorted(side))
            labels[v] = interned(side, side)
    return Graph(vertices, vertex_labels, out_labels)
