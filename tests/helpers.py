"""Shared test helpers: independent oracles, graph generators and a heap probe."""

from __future__ import annotations

import functools
import itertools
import os
import random
import tracemalloc
from pathlib import Path

import mvsum
from mvsum.analytics import GenParams, view_id, view_triples
from mvsum.graph import Graph, build_graph
from mvsum.merge import CaseStats
from mvsum.ntriples import RDF_TYPE, XSD_INTEGER, Triple, _checked_iri
from mvsum.summary import Model, Schema, Summary, eqc_id, summarize
from mvsum.summary_io import (
    EQC_NS,
    P_ATTRIBUTE,
    P_CLASS,
    P_COUNT,
    P_MEMBER,
    P_PAYLOAD,
    PAYLOAD_NS,
    _MEMBER,
    format_summary,
    header_line,
)


# A triple is text, as `parse_ntriples` yields it: a vertex or class is its
# N-Triples term, a predicate its bare IRI.

def iri(name: str) -> str:
    return f"<urn:x:{name}>"


def p(name: str) -> str:
    return f"urn:p:{name}"


def cls(name: str) -> str:
    return f"<urn:c:{name}>"


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
    """Build a graph from (subject, predicate, object) text triples."""
    return build_graph(Triple(s, pr, o) for s, pr, o in triples)


# --- independent O(|V|^2) partition oracle ------------------------------------
#
# Recomputes the vertices and each vertex's features straight from the raw
# triples (not from a built graph), then groups vertices by pairwise feature
# comparison. Deliberately naive; used to check build_graph and summarize.
# A vertex is named by its N-Triples text, as the graph and summaries name it.

def naive_vertices(triples) -> set[str]:
    vertices = set()
    for s, pr, o in triples:
        vertices.add(s)
        if pr != RDF_TYPE and not o.startswith('"'):
            vertices.add(o)
    return vertices


def naive_features(triples, v: str, model: Model):
    attrs = frozenset(pr for (s, pr, _) in triples if s == v and pr != RDF_TYPE)
    classes = frozenset(o[1:-1] for (s, pr, o) in triples if s == v and pr == RDF_TYPE)
    if model is Model.AC:
        return ("AC", attrs)
    if model is Model.CC:
        return ("CC", classes)
    return ("ACC", attrs, classes)


def naive_partition(triples, model: Model) -> set[frozenset]:
    groups: list[tuple[object, set[str]]] = []
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


def schema_of(v: str, g: Graph, model: Model) -> Schema:
    """The schema of one vertex under a model, read from the built graph."""
    if v not in g.vertices:
        raise KeyError(f"unknown vertex {v}")
    attrs = tuple(sorted(g.out_labels.get(v, ()))) if model.wants_attributes else ()
    classes = tuple(sorted(g.vertex_labels.get(v, ()))) if model.wants_classes else ()
    return attrs, classes


def inverse(s: Summary) -> dict[str, str]:
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


def least_merge_work(sizes) -> int:
    """The least total work of any binary merge tree over `sizes`, by trying every tree.

    Under cost(a, b) = a + b a merge costs the size it yields, and a tree's
    work does not depend on the order its merges run in, so trying every
    pair at every step tries every tree. Exponential: meant for n <= 6.
    """
    @functools.cache
    def least(pool: tuple[int, ...]) -> int:
        if len(pool) < 2:
            return 0
        costs = []
        for i, j in itertools.combinations(range(len(pool)), 2):
            merged = pool[i] + pool[j]
            rest = [size for k, size in enumerate(pool) if k != i and k != j]
            costs.append(merged + least(tuple(sorted(rest + [merged]))))
        return min(costs)

    return least(tuple(sorted(sizes)))


# --- seeded random graphs ------------------------------------------------------

def random_triples(rng: random.Random, max_vertices: int = 12, max_edges: int = 20,
                   n_predicates: int = 4, n_classes: int = 3, type_prob: float = 0.4,
                   blank_prob: float = 0.2, literal_prob: float = 0.15) -> list[Triple]:
    """Seeded random triples over a small vertex pool, repeats allowed."""
    n = rng.randint(0, max_vertices)
    vertices = []
    for i in range(n):
        if rng.random() < blank_prob:
            vertices.append(f"_:b{i}")
        else:
            vertices.append(iri(f"v{i}"))
    triples = []
    if vertices:
        for _ in range(rng.randint(0, max_edges)):
            s = rng.choice(vertices)
            pr = p(str(rng.randrange(n_predicates)))
            if rng.random() < literal_prob:
                o = f'"lit{rng.randrange(3)}"'
            else:
                o = rng.choice(vertices)
            triples.append(Triple(s, pr, o))
        for v in vertices:
            if rng.random() < type_prob:
                triples.append(Triple(v, RDF_TYPE, cls(str(rng.randrange(n_classes)))))
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
    by subject. Checks every IRI as the writer does; writes members as they are.
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
            lines.append(f"{pay} <{P_MEMBER}> {m} .")
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
    seen: dict[str, str] = {}
    for cid, members in summary.payloads.items():
        if not members:
            raise ValueError(f"EQC {cid} has no members")
        # The canonical payload: a 1-tuple for one member, else a frozenset.
        if type(members) is tuple:
            canonical = len(members) == 1
        else:
            canonical = type(members) is frozenset and len(members) > 1
        if not canonical:
            raise ValueError(f"EQC {cid} has a payload that is not a 1-tuple or a frozenset of two or more members: {members!r}")
        for m in members:
            # The member rule the writer and the loader share.
            if not _MEMBER.fullmatch(m):
                raise ValueError(f"EQC {cid} has a member that is not <iri> or _:[A-Za-z0-9]+: {m!r}")
            if m in seen:
                raise ValueError(f"member {m} appears in {seen[m]} and {cid}")
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
