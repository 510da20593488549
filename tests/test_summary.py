import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RDF_TYPE_TERM,
    cls,
    generate_views,
    graph_of,
    inverse,
    iri,
    naive_partition,
    naive_vertices,
    p,
    partition_of,
    random_triples,
    schema_of,
    traced,
    validate,
)
from mvsum.analytics import GenParams
from mvsum.graph import build_graph
from mvsum.merge import merge
from mvsum.ntriples import BLANK, Term, Triple
from mvsum.summary import Model, Summary, canonical_string, eqc_id, summarize, union_side
from mvsum.summary_io import SummaryFormatError, format_summary, read_summary

MODELS = [Model.AC, Model.CC, Model.ACC]


def test_schema_of_ac():
    g = graph_of((iri("v"), p("p"), iri("a")), (iri("v"), p("q"), iri("b")))
    assert schema_of(iri("v"), g, Model.AC) == ((p("p").value, p("q").value), ())


def test_schema_of_cc_untyped_vertex_is_empty_schema():
    g = graph_of((iri("v"), p("p"), iri("a")))
    assert schema_of(iri("v"), g, Model.CC) == ((), ())


def test_schema_of_acc():
    g = graph_of((iri("v"), p("p"), iri("a")), (iri("v"), RDF_TYPE_TERM, cls("C")))
    assert schema_of(iri("v"), g, Model.ACC) == ((p("p").value,), (cls("C").value,))


def test_schema_of_unknown_vertex():
    g = graph_of((iri("v"), p("p"), iri("a")))
    with pytest.raises(KeyError):
        schema_of(iri("nope"), g, Model.AC)


def test_canonical_string_formats():
    assert canonical_string(Model.AC, (("urn:p", "urn:q"), ())) == "AC\n<urn:p>\n<urn:q>\n|\n"
    assert canonical_string(Model.CC, ((), ())) == "CC\n|\n"
    assert canonical_string(Model.ACC, (("urn:p",), ("urn:C",))) == "ACC\n<urn:p>\n|\n<urn:C>\n"


def _one_eqc_summary(model, schema):
    # Built through the API, with the id of the schema it holds, so only the
    # side/model check can refuse it.
    cid = eqc_id(model, schema)
    return Summary(model, eqcs={cid: schema}, payloads={cid: {iri("v")}})


def test_schema_sides_match_model():
    validate(_one_eqc_summary(Model.ACC, (("urn:p",), ("urn:C",))))
    validate(_one_eqc_summary(Model.AC, (("urn:p",), ())))
    validate(_one_eqc_summary(Model.CC, ((), ("urn:C",))))
    s = _one_eqc_summary(Model.AC, (("urn:p",), ("urn:C",)))
    with pytest.raises(ValueError, match=f"^EQC {next(iter(s.eqcs))} has classes under model AC$"):
        validate(s)
    s = _one_eqc_summary(Model.CC, (("urn:p",), ("urn:C",)))
    with pytest.raises(ValueError, match=f"^EQC {next(iter(s.eqcs))} has attributes under model CC$"):
        validate(s)


@pytest.mark.parametrize("model, schema, side", [
    (Model.AC, (("urn:q", "urn:p"), ()), "attributes"),
    (Model.AC, (("urn:p", "urn:p"), ()), "attributes"),
    (Model.CC, ((), ("urn:D", "urn:C")), "classes"),
    (Model.ACC, (("urn:p",), ("urn:C", "urn:C")), "classes"),
    # Code-point order, not the order of the lines the writer sorts.
    (Model.AC, (("urn:a/b", "urn:a"), ()), "attributes"),
])
def test_validate_refuses_a_side_not_strictly_increasing(model, schema, side):
    # Each summary carries the id of the very schema it holds, so only the
    # order check can refuse it; the sorted side is accepted.
    s = _one_eqc_summary(model, schema)
    with pytest.raises(ValueError, match=f"^EQC {next(iter(s.eqcs))} has {side} that are not strictly increasing$"):
        validate(s)
    validate(_one_eqc_summary(model, tuple(tuple(sorted(set(part))) for part in schema)))


def test_eqc_id_matches_independent_digest():
    # Oracle: hash the hand-written canonical strings with hashlib directly.
    for text, model, schema in [
        ("AC\n<urn:p>\n|\n", Model.AC, (("urn:p",), ())),
        ("AC\n<urn:q>\n|\n", Model.AC, (("urn:q",), ())),
        ("ACC\n<urn:p>\n|\n", Model.ACC, (("urn:p",), ())),
    ]:
        expected = hashlib.sha256(text.encode()).hexdigest()[:32]
        assert eqc_id(model, schema) == expected


def test_distinct_schemas_distinct_ids():
    a = eqc_id(Model.AC, (("urn:p",), ()))
    b = eqc_id(Model.AC, (("urn:q",), ()))
    c = eqc_id(Model.ACC, (("urn:p",), ()))
    assert len({a, b, c}) == 3
    assert all(len(x) == 32 for x in (a, b, c))


def test_eqc_id_deterministic():
    s = (("urn:p",), ("urn:C",))
    assert eqc_id(Model.ACC, s) == eqc_id(Model.ACC, (("urn:p",), ("urn:C",)))


def test_summarize_empty_graph():
    s = summarize(build_graph([]), Model.ACC)
    assert s.eqcs == {} and s.payloads == {} and s.member_index == {}
    assert s.edge_count() == 0


def test_summarize_peak_stays_near_the_result():
    # The `merge-files` benchmark's input shape. Grouping the vertices in
    # lists and copying each into its payload set peaks at about 1.24 times
    # the summary returned; grouping straight into the payload sets, 1.08.
    params = GenParams(views=2, vertices_per_view=10667, edges_per_view=32000, predicate_alphabet=320,
                       class_alphabet=6, overlap=0.5, type_prob=0.4, seed=3)
    for _, g in generate_views(params):
        _, peak, retained = traced(lambda: summarize(g, Model.ACC))
        assert peak / retained < 1.15


def test_summarize_single_edge_ac():
    g = graph_of((iri("x"), p("p"), iri("a")))
    s = summarize(g, Model.AC)
    by_schema = {schema: s.payloads[cid] for cid, schema in s.eqcs.items()}
    assert by_schema == {((p("p").value,), ()): {iri("x")}, ((), ()): {iri("a")}}
    validate(s)


def test_summarize_acc_example():
    triples = [
        Triple(iri("x"), p("p"), iri("a")),
        Triple(iri("y"), p("p"), iri("b")),
        Triple(iri("x"), RDF_TYPE_TERM, cls("C")),
    ]
    s = summarize(build_graph(triples), Model.ACC)
    assert partition_of(s) == naive_partition(triples, Model.ACC)
    by_schema = {schema: s.payloads[cid] for cid, schema in s.eqcs.items()}
    assert by_schema == {
        ((p("p").value,), (cls("C").value,)): {iri("x")},
        ((p("p").value,), ()): {iri("y")},
        ((), ()): {iri("a"), iri("b")},
    }


def test_union_side_unions_sorted_sides():
    (a1, c1), (a2, c2) = (("urn:q",), ("urn:C",)), (("urn:p", "urn:q"), ())
    assert (union_side(a1, a2), union_side(c1, c2)) == (("urn:p", "urn:q"), ("urn:C",))
    assert union_side((), ()) == ()
    assert union_side(("urn:p",), ("urn:p",)) == ("urn:p",)


def test_validate_rejects_bad_summaries():
    g = graph_of((iri("x"), p("p"), iri("a")))
    # A payload whose EQC has no schema.
    s = summarize(g, Model.AC)
    s.payloads["0" * 32] = {iri("zz")}
    with pytest.raises(ValueError, match="^eqcs and payloads must have identical key sets$"):
        validate(s)
    # An EQC whose id is not the digest of its schema.
    s = summarize(g, Model.AC)
    cid = next(iter(s.eqcs))
    s.eqcs[cid] = (("urn:other",), ())
    with pytest.raises(ValueError, match=f"^EQC id {cid} does not match its schema digest$"):
        validate(s)
    # Members that would not load back as written: the loader refuses a
    # literal member, and would read `_:a.b` back as `_:x612e62`.
    s = summarize(g, Model.AC)
    cid = s.member_index[iri("a")]
    s.payloads[cid].add(Term.literal("x"))
    with pytest.raises(ValueError, match=f'^EQC {cid} has a literal member "x"$'):
        validate(s)
    with pytest.raises(SummaryFormatError, match="unexpected statement"):
        read_summary(format_summary(s).splitlines())
    s = summarize(g, Model.AC)
    s.payloads[cid].add(Term(BLANK, "a.b"))
    with pytest.raises(ValueError, match=rf"^EQC {cid} has a blank member _:a\.b whose label is not alphanumeric$"):
        validate(s)
    # The writer refuses the label rather than write a file that loads back
    # with `_:x612e62` in its place.
    with pytest.raises(ValueError, match=r"^blank node label not alphanumeric: 'a\.b'$"):
        format_summary(s)


def test_validate_rejects_empty_payload():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    cid = s.member_index[iri("x")]
    s.payloads[cid].clear()
    with pytest.raises(ValueError, match="no members"):
        validate(s)


def test_validate_rejects_member_in_two_eqcs():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s.payloads[s.member_index[iri("a")]].add(iri("x"))
    with pytest.raises(ValueError, match="appears in"):
        validate(s)


def test_member_index_names_the_eqc_of_each_vertex_schema():
    g = graph_of((iri("v"), p("p"), iri("a")), (iri("v"), p("q"), iri("a")))
    for model in MODELS:
        s = summarize(g, model)
        assert set(s.member_index) == g.vertices
        for v in g.vertices:
            cid = s.member_index[v]
            assert cid == eqc_id(model, schema_of(v, g, model))
            assert v in s.payloads[cid]
    s = summarize(g, Model.AC)
    assert s.eqcs[s.member_index[iri("v")]] == ((p("p").value, p("q").value), ())
    assert s.eqcs[s.member_index[iri("a")]] == ((), ())


@st.composite
def triple_lists(draw):
    seed = draw(st.integers(0, 10**9))
    return random_triples(random.Random(seed))


@given(triple_lists(), triple_lists(), st.sampled_from(MODELS))
@settings(max_examples=100, deadline=None)
def test_member_index_is_a_fresh_inverse(triples1, triples2, model):
    s1, s2 = summarize(build_graph(triples1), model), summarize(build_graph(triples2), model)
    loaded = read_summary(format_summary(s1).splitlines())
    merged = merge(s1, s2)[0]
    for s in (s1, s2, loaded, merged):
        index = s.member_index
        assert index == inverse(s)
        assert index is not s.member_index
        # The returned dict is the caller's: changing it leaves s as it was.
        payloads = {cid: set(members) for cid, members in s.payloads.items()}
        index.clear()
        index[iri("new")] = "0" * 32
        assert s.payloads == payloads and s.member_index == inverse(s)
        validate(s)


@given(triple_lists(), st.sampled_from(MODELS))
@settings(max_examples=100, deadline=None)
def test_partition_properties(triples, model):
    g = build_graph(triples)
    s = summarize(g, model)
    validate(s)
    # partition: pairwise disjoint (validate checks) and covers all vertices
    assert set().union(*s.payloads.values()) == naive_vertices(triples)
    # psi-soundness: same EQC iff same schema
    for cid, members in s.payloads.items():
        for m in members:
            assert schema_of(m, g, model) == s.eqcs[cid]
    assert partition_of(s) == naive_partition(triples, model)


def test_brute_force_equivalence_seeded():
    rng = random.Random(20240901)
    for _ in range(40):
        triples = random_triples(rng, max_vertices=50, max_edges=120)
        g = build_graph(triples)
        for model in MODELS:
            assert partition_of(summarize(g, model)) == naive_partition(triples, model)
