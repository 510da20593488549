"""In-memory multi-relational labeled graph.

The summary models read two things per vertex: its outgoing edge labels
and its classes, so that is all a graph keeps. `rdf:type` triples with IRI
objects become vertex labels (classes); every other statement becomes an
outgoing label of its subject, not an edge, so the two label alphabets stay
disjoint by construction. An IRI or blank object becomes a vertex; a
literal object does not. Graphs are treated as immutable once built;
`union` returns a new value.

Within one `build_graph` call each vertex has one Term: the Term held in
`vertices` is the key it has in `vertex_labels` and `out_labels`, and each
class IRI is one string, however many statements repeat them. A local dict
maps each Term to its first copy and is dropped on return; nothing is
cached across calls.

`build_graph` runs with the cyclic collector paused (see `mvsum._collector`),
and so does the parser generator it drives, since the parser's work runs
inside `build_graph`'s loop. Terms, Triples and label sets hold no cycles,
so a collection there would free nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from mvsum._collector import paused
from mvsum.ntriples import IRI, LITERAL, RDF_TYPE, Term, Triple


@dataclass
class Graph:
    vertices: set[Term] = field(default_factory=set)
    vertex_labels: dict[Term, set[str]] = field(default_factory=dict)
    out_labels: dict[Term, set[str]] = field(default_factory=dict)


@paused()
def build_graph(triples: Iterable[Triple]) -> Graph:
    """Build a graph from triples, splitting `rdf:type` off into vertex labels.

    A triple (s, rdf:type, c) with c an IRI adds class c to s's label set; any
    other triple (s, p, o) adds p to s's outgoing labels. Subjects and
    non-literal objects are registered as vertices.
    """
    g = Graph()
    vertices, vertex_labels, out_labels = g.vertices, g.vertex_labels, g.out_labels
    # Maps each vertex and class Term to its first copy, so that `vertices`
    # and both label maps share one Term per vertex and one string per class.
    one = {}.setdefault
    for s, p, o in triples:
        s = one(s, s)
        vertices.add(s)
        if p.value == RDF_TYPE:
            if o.kind != IRI:
                raise ValueError(f"rdf:type object must be an IRI, got {o.nt()}")
            vertex_labels.setdefault(s, set()).add(one(o, o).value)
            continue
        out_labels.setdefault(s, set()).add(p.value)
        if o.kind != LITERAL:
            vertices.add(one(o, o))
    return g


def union(g1: Graph, g2: Graph) -> Graph:
    """Set union of two graphs (vertices, per-vertex label unions)."""
    g = Graph(vertices=g1.vertices | g2.vertices)
    for src in (g1, g2):
        for v, labels in src.vertex_labels.items():
            g.vertex_labels.setdefault(v, set()).update(labels)
        for v, labels in src.out_labels.items():
            g.out_labels.setdefault(v, set()).update(labels)
    return g
