"""Shared test helpers: independent oracles, graph generators and a heap probe."""

from __future__ import annotations

import os
import random
import tracemalloc
from pathlib import Path

import mvsum
from mvsum.analytics import GenParams, view_id, view_triples
from mvsum.graph import Graph, build_graph
from mvsum.merge import CaseStats
from mvsum.ntriples import BLANK, LITERAL, RDF_TYPE, XSD_INTEGER, Term, Triple, _checked_iri, normalize_bnode_label
from mvsum.summary import Model, Schema, Summary, eqc_id, summarize
from mvsum.summary_io import (
    EQC_NS,
    P_ATTRIBUTE,
    P_CLASS,
    P_COUNT,
    P_MEMBER,
    P_PAYLOAD,
    PAYLOAD_NS,
    format_summary,
    header_line,
)


def iri(name: str) -> Term:
    return Term.iri(f"urn:x:{name}")


def p(name: str) -> Term:
    return Term.iri(f"urn:p:{name}")


def cls(name: str) -> Term:
    return Term.iri(f"urn:c:{name}")


RDF_TYPE_TERM = Term.iri(RDF_TYPE)


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child Python process that imports the mvsum under test.

    The parent's environment, with the absolute directory that holds this
    process's `mvsum` package first on PYTHONPATH, then `overrides`. The child
    then imports the same mvsum whatever its working directory and whether or
    not a copy is installed.
    """
    env = dict(os.environ)
    src = str(Path(mvsum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def traced(f):
    """(f(), peak, retained), in bytes above the heap `f` starts on.

    `peak` is the most `f` held at once; `retained` is what it still holds
    when it returns, its result alive.
    """
    tracemalloc.start()
    try:
        result = f()
        retained, peak = tracemalloc.get_traced_memory()
        return result, peak, retained
    finally:
        tracemalloc.stop()


def graph_of(*triples: tuple) -> Graph:
    """Build a graph from (subject, predicate, object) Term triples."""
    return build_graph(Triple(s, pr, o) for s, pr, o in triples)


# --- independent O(|V|^2) partition oracle ------------------------------------
#
# Recomputes the vertices and each vertex's features straight from the raw
# triples (not from a built graph), then groups vertices by pairwise feature
# comparison. Deliberately naive; used to check build_graph and summarize.

def naive_vertices(triples) -> set[Term]:
    vertices = set()
    for s, pr, o in triples:
        vertices.add(s)
        if pr != RDF_TYPE_TERM and o.kind != "literal":
            vertices.add(o)
    return vertices


def naive_features(triples, v: Term, model: Model):
    attrs = frozenset(pr.value for (s, pr, _) in triples if s == v and pr != RDF_TYPE_TERM)
    classes = frozenset(o.value for (s, pr, o) in triples if s == v and pr == RDF_TYPE_TERM)
    if model is Model.AC:
        return ("AC", attrs)
    if model is Model.CC:
        return ("CC", classes)
    return ("ACC", attrs, classes)


def naive_partition(triples, model: Model) -> set[frozenset]:
    groups: list[tuple[object, set[Term]]] = []
    for v in naive_vertices(triples):
        features = naive_features(triples, v, model)
        for existing, members in groups:
            if existing == features:
                members.add(v)
                break
        else:
            groups.append((features, {v}))
    return {frozenset(members) for _, members in groups}


def partition_of(s: Summary) -> set[frozenset]:
    return {frozenset(members) for members in s.payloads.values()}


# --- reference oracles, one vertex or one member at a time ---------------------

def union(g1: Graph, g2: Graph) -> Graph:
    """The union graph: every vertex, and per vertex the union of its labels.

    Each label side is a sorted tuple, as `build_graph` makes it, so the
    graph of two statement lists concatenated equals the union of their graphs.
    """
    g = Graph(vertices=g1.vertices | g2.vertices)
    for side in ("vertex_labels", "out_labels"):
        merged = getattr(g, side)
        for src in (g1, g2):
            for v, labels in getattr(src, side).items():
                merged[v] = tuple(sorted(set(merged.get(v, ())) | set(labels)))
    return g


def schema_of(v: Term, g: Graph, model: Model) -> Schema:
    """The schema of one vertex under a model, read from the built graph."""
    if v not in g.vertices:
        raise KeyError(f"unknown vertex {v.nt()}")
    attrs = tuple(sorted(g.out_labels.get(v, ()))) if model.wants_attributes else ()
    classes = tuple(sorted(g.vertex_labels.get(v, ()))) if model.wants_classes else ()
    return attrs, classes


def inverse(s: Summary) -> dict[Term, str]:
    """Each member's EQC, one member at a time: the reference for `Summary.member_index`."""
    index = {}
    for cid, members in s.payloads.items():
        for m in members:
            index[m] = cid
    return index


def classify_cases(s1: Summary, s2: Summary) -> CaseStats:
    """Count, for every member of S1, which merge case it falls into.

    Case 1: not in S2 and its EQC unknown to S2, or in S2 under the same
    EQC. Case 2: not in S2 but its EQC exists in S2. Case 3: in S2 under a
    different EQC. `merge` gathers the same counts while it merges.
    """
    index1, index2 = inverse(s1), inverse(s2)
    case1 = case2 = case3 = 0
    for m, cid in index1.items():
        other = index2.get(m)
        if other is None:
            if cid in s2.eqcs:
                case2 += 1
            else:
                case1 += 1
        elif other == cid:
            case1 += 1
        else:
            case3 += 1
    return CaseStats(case1, case2, case3, len(index1))


# --- seeded random graphs ------------------------------------------------------

def random_triples(rng: random.Random, max_vertices: int = 12, max_edges: int = 20,
                   n_predicates: int = 4, n_classes: int = 3, type_prob: float = 0.4,
                   blank_prob: float = 0.2, literal_prob: float = 0.15) -> list[Triple]:
    """Seeded random triples over a small vertex pool, repeats allowed."""
    n = rng.randint(0, max_vertices)
    vertices = []
    for i in range(n):
        if rng.random() < blank_prob:
            vertices.append(Term.blank(f"b{i}"))
        else:
            vertices.append(iri(f"v{i}"))
    triples = []
    if vertices:
        for _ in range(rng.randint(0, max_edges)):
            s = rng.choice(vertices)
            pr = p(str(rng.randrange(n_predicates)))
            if rng.random() < literal_prob:
                o = Term.literal(f"lit{rng.randrange(3)}")
            else:
                o = rng.choice(vertices)
            triples.append(Triple(s, pr, o))
        for v in vertices:
            if rng.random() < type_prob:
                triples.append(Triple(v, RDF_TYPE_TERM, cls(str(rng.randrange(n_classes)))))
    return triples


def random_graph(rng: random.Random, **kw) -> Graph:
    """The graph of `random_triples(rng, **kw)`."""
    return build_graph(random_triples(rng, **kw))


def generate_view(params: GenParams, index: int) -> Graph:
    """The graph of `analytics.view_triples(params, index)`."""
    return build_graph(view_triples(params, index))


def generate_views(params: GenParams) -> list[tuple[str, Graph]]:
    """Seeded random views over a partially shared vertex pool, as (id, graph).

    Deterministic in (params, seed): view i is a pure function of the
    per-view seed, so regenerating with the same parameters reproduces every
    view byte for byte.
    """
    return [(view_id(i), generate_view(params, i)) for i in range(params.views)]


def reference_format(summary: Summary) -> str:
    """The one-sort writer: build every statement line, sort them all once.

    The reference for `format_summary`, which builds the same order subject
    by subject. Checks every IRI as the writer does.
    """
    lines = []
    for cid, (attributes, classes) in summary.eqcs.items():
        eqc = f"<{_checked_iri(EQC_NS + cid)}>"
        pay = f"<{PAYLOAD_NS}{cid}>"
        for a in attributes:
            lines.append(f"{eqc} <{P_ATTRIBUTE}> <{_checked_iri(a)}> .")
        for c in classes:
            lines.append(f"{eqc} <{P_CLASS}> <{_checked_iri(c)}> .")
        lines.append(f"{eqc} <{P_PAYLOAD}> {pay} .")
        members = summary.payloads[cid]
        for m in members:
            lines.append(f"{pay} <{P_MEMBER}> {m.nt()} .")
        lines.append(f'{pay} <{P_COUNT}> "{len(members):d}"^^<{XSD_INTEGER}> .')
    lines.sort()
    return "\n".join([header_line(summary), *lines, ""])


def canonical_bytes(s: Summary) -> bytes:
    return format_summary(s).encode("utf-8")


def oracle_merged(g1: Graph, g2: Graph, model: Model) -> Summary:
    """The merge oracle: summarize the union graph directly."""
    return summarize(union(g1, g2), model)


def validate(summary: Summary) -> None:
    """The invariant oracle: check every invariant `Summary` states; ValueError on a violation."""
    if set(summary.eqcs) != set(summary.payloads):
        raise ValueError("eqcs and payloads must have identical key sets")
    seen: dict[Term, str] = {}
    for cid, members in summary.payloads.items():
        if not members:
            raise ValueError(f"EQC {cid} has no members")
        for m in members:
            # The loader reads IRI and blank members only, and the writer
            # refuses a blank label the loader would normalize.
            if m.kind == LITERAL:
                raise ValueError(f"EQC {cid} has a literal member {m.nt()}")
            if m.kind == BLANK and normalize_bnode_label(m.value) != m.value:
                raise ValueError(f"EQC {cid} has a blank member _:{m.value} whose label is not alphanumeric")
            if m in seen:
                raise ValueError(f"member {m.nt()} appears in {seen[m]} and {cid}")
            seen[m] = cid
    model = summary.model
    for cid, (attributes, classes) in summary.eqcs.items():
        if attributes and not model.wants_attributes:
            raise ValueError(f"EQC {cid} has attributes under model {model.value}")
        if classes and not model.wants_classes:
            raise ValueError(f"EQC {cid} has classes under model {model.value}")
        # The loader sorts each side before it digests it, so a side out
        # of order, or with a repeat, would write a file that cannot load.
        for name, side in (("attributes", attributes), ("classes", classes)):
            if any(a >= b for a, b in zip(side, side[1:])):
                raise ValueError(f"EQC {cid} has {name} that are not strictly increasing")
        if eqc_id(model, (attributes, classes)) != cid:
            raise ValueError(f"EQC id {cid} does not match its schema digest")


# A str line can hold a surrogate that no byte stands for: in an IRI, in a
# literal, in a trailing comment and in a comment line, each at its column.
BARE_SURROGATES = [
    ("<urn:a\ud800> <urn:p> <urn:b> .", 7),
    ('<urn:a> <urn:p> "x\ud800" .', 19),
    ("<urn:a> <urn:p> <urn:b> . # \ud800", 29),
    ("# \ud800", 3),
]


def first_undecodable_line(data: bytes) -> tuple[int, int, str] | None:
    """(line, column, reason) of the first line strict UTF-8 decoding refuses.

    Lines end at LF, CRLF and a lone CR, as `bytes.splitlines` ends them, and
    the column counts the characters before the first bad byte, plus one.
    """
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return lineno, len(raw[:exc.start].decode("utf-8")) + 1, exc.reason
    return None
