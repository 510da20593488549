import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
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
from mvsum.ntriples import RDF_TYPE, Triple
from mvsum.summary import Model, Summary, canonical_string, eqc_id, summarize, union_side
from mvsum.summary_io import SummaryFormatError, format_summary, read_summary

MODELS = [Model.AC, Model.CC, Model.ACC]


def test_schema_of_ac():
    g = graph_of((iri("v"), p("p"), iri("a")), (iri("v"), p("q"), iri("b")))
    assert schema_of(iri("v"), g, Model.AC) == ((p("p"), p("q")), ())


def test_schema_of_cc_untyped_vertex_is_empty_schema():
    g = graph_of((iri("v"), p("p"), iri("a")))
    assert schema_of(iri("v"), g, Model.CC) == ((), ())


def test_schema_of_acc():
    g = graph_of((iri("v"), p("p"), iri("a")), (iri("v"), RDF_TYPE, cls("C")))
    assert schema_of(iri("v"), g, Model.ACC) == ((p("p"),), ("urn:c:C",))


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
    return Summary(model, eqcs={cid: schema}, payloads={cid: (iri("v"),)})


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


def _spelled(model, attributes, classes):
    # The canonical string by hand, one piece at a time.
    text = model.value + "\n"
    for a in attributes:
        text += "<" + a + ">\n"
    text += "|\n"
    for c in classes:
        text += "<" + c + ">\n"
    return text


_SIDE = st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
                 unique=True, max_size=6).map(sorted).map(tuple)


@st.composite
def _model_schemas(draw):
    model = draw(st.sampled_from(MODELS))
    attributes = draw(_SIDE) if model.wants_attributes else ()
    classes = draw(_SIDE) if model.wants_classes else ()
    return model, (attributes, classes)


@given(_model_schemas())
@example((Model.AC, ((), ())))
@example((Model.CC, ((), ())))
@example((Model.ACC, ((), ())))
@example((Model.AC, (("urn:p",), ())))
@example((Model.CC, ((), ("urn:C",))))
@example((Model.ACC, (("urn:p",), ())))
@example((Model.ACC, ((), ("urn:C",))))
@example((Model.ACC, (("urn:p", "urn:q", "urn:r"), ("urn:C",))))
@example((Model.ACC, (("urn:p",), ("urn:A", "urn:B", "urn:C", "urn:\u00e9"))))
@settings(max_examples=300, deadline=None)
def test_canonical_string_and_eqc_id_match_an_independent_speller(model_schema):
    model, (attributes, classes) = model_schema
    text = _spelled(model, attributes, classes)
    assert canonical_string(model, (attributes, classes)) == text
    assert eqc_id(model, (attributes, classes)) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


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
    # With 1-tuple and frozenset payloads the result is smaller: grouping in
    # lists and popping each as it becomes its payload peaks at 1.13-1.145
    # times it, and the peak falls from 3.97 to 2.4-2.6 MB. That left the
    # emptied grouping table on top of the result, 1.15 times it on Python
    # 3.12; moving the groups left to a table sized for them each time three
    # quarters are popped reads 1.06-1.09 on 3.10-3.13.
    params = GenParams(views=2, vertices_per_view=10667, edges_per_view=32000, predicate_alphabet=320,
                       class_alphabet=6, overlap=0.5, type_prob=0.4, seed=3)
    for _, g in generate_views(params):
        _, peak, retained = traced(lambda: summarize(g, Model.ACC))
        assert peak / retained < 1.15


def test_summarize_single_edge_ac():
    g = graph_of((iri("x"), p("p"), iri("a")))
    s = summarize(g, Model.AC)
    by_schema = {schema: s.payloads[cid] for cid, schema in s.eqcs.items()}
    assert by_schema == {((p("p"),), ()): ("<urn:x:x>",), ((), ()): ("<urn:x:a>",)}
    validate(s)


def test_summarize_acc_example():
    triples = [
        Triple(iri("x"), p("p"), iri("a")),
        Triple(iri("y"), p("p"), iri("b")),
        Triple(iri("x"), RDF_TYPE, cls("C")),
    ]
    s = summarize(build_graph(triples), Model.ACC)
    assert partition_of(s) == naive_partition(triples, Model.ACC)
    by_schema = {schema: s.payloads[cid] for cid, schema in s.eqcs.items()}
    assert by_schema == {
        ((p("p"),), ("urn:c:C",)): ("<urn:x:x>",),
        ((p("p"),), ()): ("<urn:x:y>",),
        ((), ()): frozenset({"<urn:x:a>", "<urn:x:b>"}),
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
    s.payloads["0" * 32] = (iri("zz"),)
    with pytest.raises(ValueError, match="^eqcs and payloads must have identical key sets$"):
        validate(s)
    # An EQC whose id is not the digest of its schema.
    s = summarize(g, Model.AC)
    cid = next(iter(s.eqcs))
    s.eqcs[cid] = (("urn:other",), ())
    with pytest.raises(ValueError, match=f"^EQC id {cid} does not match its schema digest$"):
        validate(s)
    # Members that would not load back as written: the loader refuses a
    # literal member, and would read `_:a.b` back as `_:x612e62`. The writer
    # refuses both rather than write such a file.
    cid = summarize(g, Model.AC).member_index["<urn:x:a>"]
    for bad in ['"x"', "_:a.b"]:
        s = summarize(g, Model.AC)
        s.payloads[cid] = frozenset({*s.payloads[cid], bad})
        with pytest.raises(ValueError, match=rf"^EQC {cid} has a member that is not <iri> or _:\[A-Za-z0-9\]\+: {re.escape(repr(bad))}$"):
            validate(s)
        with pytest.raises(ValueError, match=rf"^member is not <iri> or _:\[A-Za-z0-9\]\+: {re.escape(repr(bad))}$"):
            format_summary(s)
    # What the writer would have written for the literal member, the loader refuses.
    text = format_summary(summarize(g, Model.AC)).replace("<urn:x:a> .", '"x" .')
    with pytest.raises(SummaryFormatError, match="unexpected statement"):
        read_summary(text.splitlines())


def test_validate_rejects_empty_payload():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    cid = s.member_index["<urn:x:x>"]
    s.payloads[cid] = frozenset()
    with pytest.raises(ValueError, match="no members"):
        validate(s)


def test_validate_refuses_a_payload_that_is_not_canonical():
    # One member is exactly the 1-tuple `(m,)`, more a frozenset.
    s = summarize(graph_of((iri("x"), p("p"), iri("a")), (iri("y"), p("p"), iri("a"))), Model.AC)
    one, two = s.member_index["<urn:x:a>"], s.member_index["<urn:x:x>"]
    assert s.payloads[one] == ("<urn:x:a>",) and s.payloads[two] == frozenset({"<urn:x:x>", "<urn:x:y>"})
    validate(s)
    for cid, bad in [
        (one, {"<urn:x:a>"}),
        (one, frozenset({"<urn:x:a>"})),
        (one, ["<urn:x:a>"]),
        (two, {"<urn:x:x>", "<urn:x:y>"}),
        (two, ("<urn:x:x>", "<urn:x:y>")),
    ]:
        t = Summary(s.model, eqcs=s.eqcs, payloads={**s.payloads, cid: bad})
        with pytest.raises(ValueError, match=f"^EQC {cid} has a payload that is not a 1-tuple or a frozenset of two or more members: "):
            validate(t)


def test_validate_rejects_member_in_two_eqcs():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s.payloads[s.member_index["<urn:x:a>"]] = frozenset({"<urn:x:a>", "<urn:x:x>"})
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
    assert s.eqcs[s.member_index["<urn:x:v>"]] == ((p("p"), p("q")), ())
    assert s.eqcs[s.member_index["<urn:x:a>"]] == ((), ())


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
        payloads = dict(s.payloads)
        index.clear()
        index["<urn:x:new>"] = "0" * 32
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
