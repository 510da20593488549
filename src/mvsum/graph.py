"""In-memory multi-relational labeled graph.

The summary models read two things per vertex: its outgoing edge labels
and its classes, so that is all a graph keeps. `rdf:type` triples with IRI
objects become vertex labels (classes); every other statement becomes an
outgoing label of its subject, not an edge, so the two label alphabets stay
disjoint by construction. An IRI or blank object becomes a vertex; a
literal object does not, and a literal subject is refused.

A built graph is immutable: each vertex's labels are a tuple sorted by code
point, the very schema side that `summarize` groups on. Within one
`build_graph` call each value has one object: the Term held in `vertices`
is the key it has in `vertex_labels` and `out_labels`, each class IRI is
one string, and equal label tuples are one tuple. Local dicts map each
Term and each tuple to its first copy and are dropped on return; nothing
is cached across calls.

`build_graph` runs with the cyclic collector paused (see `mvsum._collector`),
and so does the parser generator it drives, since the parser's work runs
inside `build_graph`'s loop. Terms, Triples, label sets and tuples hold no
cycles, so a collection there would free nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from mvsum._collector import paused
from mvsum.errors import DataError
from mvsum.ntriples import IRI, LITERAL, RDF_TYPE, Term, Triple


@dataclass
class Graph:
    vertices: set[Term] = field(default_factory=set)
    vertex_labels: dict[Term, tuple[str, ...]] = field(default_factory=dict)
    out_labels: dict[Term, tuple[str, ...]] = field(default_factory=dict)


@paused()
def build_graph(triples: Iterable[Triple]) -> Graph:
    """Build a graph from triples, splitting `rdf:type` off into vertex labels.

    A triple (s, rdf:type, c) with c an IRI adds class c to s's label set; any
    other triple (s, p, o) adds p to s's outgoing labels. Subjects and
    non-literal objects are registered as vertices. A literal subject, or an
    `rdf:type` object that is not an IRI, raises DataError.
    """
    vertices: set[Term] = set()
    vertex_labels: dict[Term, set[str]] = {}
    out_labels: dict[Term, set[str]] = {}
    # Maps each vertex and class Term to its first copy, so that `vertices`
    # and both label maps share one Term per vertex and one string per class.
    one = {}.setdefault
    for s, p, o in triples:
        s = one(s, s)
        vertices.add(s)
        if p.value == RDF_TYPE:
            if o.kind != IRI:
                raise DataError(f"rdf:type object must be an IRI, got {o.nt()}")
            vertex_labels.setdefault(s, set()).add(one(o, o).value)
            continue
        out_labels.setdefault(s, set()).add(p.value)
        if o.kind != LITERAL:
            vertices.add(one(o, o))
    # Every subject is a key of a label map, so this pass also sees each
    # subject once. Equal label sets become one tuple.
    interned = {}.setdefault
    for labels in (vertex_labels, out_labels):
        for v, side in labels.items():
            if v.kind == LITERAL:
                raise DataError(f"subject must be an IRI or blank node, got {v.nt()}")
            side = tuple(sorted(side))
            labels[v] = interned(side, side)
    return Graph(vertices, vertex_labels, out_labels)
