import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cls, graph_of, iri, naive_vertices, p, random_graph, random_triples, traced, union
from mvsum.analytics import GenParams, view_triples
from mvsum.graph import build_graph
from mvsum.ntriples import RDF_TYPE, Triple, parse_ntriples, triple_line
from mvsum.summary import Model, summarize


def test_type_triple_becomes_vertex_label():
    g = graph_of((iri("a"), RDF_TYPE, cls("C")))
    assert g.vertices == {"<urn:x:a>"}
    assert g.vertex_labels == {"<urn:x:a>": ("urn:c:C",)}
    assert g.out_labels == {}


def test_plain_triple_becomes_out_label():
    g = graph_of((iri("a"), p("p"), iri("b")))
    assert g.vertices == {"<urn:x:a>", "<urn:x:b>"}
    assert g.out_labels == {"<urn:x:a>": (p("p"),)}
    assert g.vertex_labels == {}


def test_literal_object_is_not_a_vertex():
    lit = '"lit"'
    g = graph_of((iri("a"), p("p"), lit))
    assert g.vertices == {"<urn:x:a>"}
    assert g.out_labels == {"<urn:x:a>": (p("p"),)}


def test_type_with_literal_object_rejected():
    with pytest.raises(ValueError):
        graph_of((iri("a"), RDF_TYPE, '"C"'))


@pytest.mark.parametrize("pred", [p("p"), RDF_TYPE], ids=["attribute", "class"])
def test_literal_subject_rejected(pred):
    # The parser refuses a literal subject; a Triple built in code is checked here.
    with pytest.raises(ValueError, match=r'^subject must be an IRI or blank node, got "L"$'):
        build_graph([Triple(iri("a"), p("p"), iri("b")), Triple('"L"', pred, cls("C"))])


def test_type_with_blank_object_rejected():
    with pytest.raises(ValueError):
        graph_of((iri("a"), RDF_TYPE, "_:c"))


def test_each_vertex_is_one_string():
    # Each parsed statement brings its own strings, so equal texts arrive as
    # separate copies. `a` and `_:c` are objects before they are subjects,
    # and `urn:c:C` is the class of three vertices. Lines without an end are
    # read one by one; ended, they are one batch of rows.
    lines = [
        "<urn:x:b> <urn:p:p> <urn:x:a> .",
        "<urn:x:a> <urn:p:q> _:c .",
        f"<urn:x:a> <{RDF_TYPE}> <urn:c:C> .",
        f"_:c <{RDF_TYPE}> <urn:c:C> .",
        '_:c <urn:p:p> "lit" .',
        f"<urn:x:b> <{RDF_TYPE}> <urn:c:C> .",
    ]
    for end in ("", "\n"):
        g = build_graph(parse_ntriples([line + end for line in lines]))
        assert g.vertices == {"<urn:x:a>", "<urn:x:b>", "_:c"}
        assert all(type(v) is str for v in g.vertices)
        held = {id(v) for v in g.vertices}
        assert len(held) == 3
        for labels in (g.out_labels, g.vertex_labels):
            assert len(labels) == 3 and {id(v) for v in labels} == held
        assert len({id(c) for classes in g.vertex_labels.values() for c in classes}) == 1
        # Equal label sets are one tuple: `b` and `_:c` have {p}, all three {C}.
        b, c = "<urn:x:b>", "_:c"
        assert g.out_labels[b] == (p("p"),) and g.out_labels[b] is g.out_labels[c]
        assert len({id(classes) for classes in g.vertex_labels.values()}) == 1
        # The graph's tuples are the schema sides, and its strings the members,
        # not copies of them.
        s = summarize(g, Model.ACC)
        assert {id(m) for members in s.payloads.values() for m in members} == held
        index = s.member_index
        for v in g.vertices:
            attributes, classes = s.eqcs[index[v]]
            assert attributes is g.out_labels[v] and classes is g.vertex_labels[v]


def test_build_peak_stays_near_the_result(tmp_path):
    # The `merge-files` benchmark's view shape, read from a file. Building a
    # Triple per statement and a set per label side peaked at 159.8, 153.6
    # and 150.8 bytes per line (Python 3.10, 3.11, 3.12-3.13); reading the
    # batch rows and collecting labels in lists, at 86.5, 80.3 and 77.5. The
    # graph returned holds 64.7, 60.9 and 58.5 either way. These are first
    # builds in a fresh process: tuples taken from the free lists that an
    # earlier build filled are not counted, so later reads are lower.
    params = GenParams(views=1, vertices_per_view=10667, edges_per_view=32000, predicate_alphabet=320,
                       class_alphabet=6, overlap=0.5, type_prob=0.4, seed=5)
    path = tmp_path / "g.nt"
    path.write_text("".join(triple_line(t) + "\n" for t in view_triples(params, 0)), encoding="utf-8")
    lines = path.read_bytes().count(b"\n")

    def build():
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return build_graph(parse_ntriples(fh))

    g, peak, retained = traced(build)
    assert peak / lines < 91
    assert retained / lines < 68
    # Each predicate is one string in every label tuple, and each subject
    # the vertex's own string.
    held = [label for labels in g.out_labels.values() for label in labels]
    assert len({id(label) for label in held}) == len(set(held)) == params.predicate_alphabet
    vertices = {id(v) for v in g.vertices}
    assert all(id(v) in vertices for labels in (g.out_labels, g.vertex_labels) for v in labels)


def test_parsed_and_generated_triples_hold_only_strings():
    with open(Path(__file__).parent / "data" / "escapes.nt", encoding="utf-8") as fh:
        parsed = list(parse_ntriples(fh))
    generated = view_triples(GenParams(1, 20, 40, 4, 3, 0.5, 0.5, seed=1), 0)
    assert parsed and generated
    assert all(type(t) is tuple and all(type(x) is str for x in t) for t in parsed)
    assert all(type(t) is Triple and all(type(x) is str for x in t) for t in generated)


def test_union_spec_examples():
    g = graph_of((iri("x"), p("p"), iri("a")))
    empty = build_graph([])
    assert union(g, empty) == g
    assert union(g, g) == g
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    merged = union(g, g2)
    assert merged.vertices == {iri("x"), iri("a"), iri("b")}
    assert merged.out_labels == {iri("x"): (p("p"), p("q"))}


@st.composite
def graphs(draw):
    seed = draw(st.integers(0, 10**9))
    return random_graph(random.Random(seed))


@st.composite
def triple_lists(draw):
    seed = draw(st.integers(0, 10**9))
    return random_triples(random.Random(seed))


# The union-graph oracle's own laws, which the merge tests rely on.

@given(graphs(), graphs())
@settings(max_examples=60, deadline=None)
def test_union_commutative(g1, g2):
    assert union(g1, g2) == union(g2, g1)


@given(graphs(), graphs(), graphs())
@settings(max_examples=60, deadline=None)
def test_union_associative(g1, g2, g3):
    assert union(union(g1, g2), g3) == union(g1, union(g2, g3))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_union_idempotent(g):
    assert union(g, g) == g


@given(triple_lists(), triple_lists())
@settings(max_examples=60, deadline=None)
def test_build_distributes_over_union(t1, t2):
    assert build_graph(t1 + t2) == union(build_graph(t1), build_graph(t2))


@given(triple_lists())
@settings(max_examples=60, deadline=None)
def test_graph_invariants(triples):
    g = build_graph(triples)
    assert g.vertices == naive_vertices(triples)
    edges = [(s, pred) for s, pred, _ in triples if pred != RDF_TYPE]
    types = [(s, o[1:-1]) for s, pred, o in triples if pred == RDF_TYPE]
    assert g.out_labels == {v: tuple(sorted({pred for s, pred in edges if s == v})) for v, _ in edges}
    assert g.vertex_labels == {v: tuple(sorted({c for s, c in types if s == v})) for v, _ in types}
    for labels in (*g.out_labels.values(), *g.vertex_labels.values()):
        assert type(labels) is tuple and all(a < b for a, b in zip(labels, labels[1:]))
    # label alphabets disjoint: classes come from rdf:type only
    edge_labels = set().union(*g.out_labels.values())
    vertex_labels = set().union(*g.vertex_labels.values())
    assert not (edge_labels & vertex_labels)
