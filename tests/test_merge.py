import dataclasses
import gc
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RDF_TYPE_TERM,
    canonical_bytes,
    cls,
    graph_of,
    iri,
    oracle_merged,
    p,
    random_graph,
)
from mvsum.analytics import correlate_times, linfit
from mvsum.graph import build_graph, union
from mvsum.merge import (
    CorruptSummaryError,
    MergeConfigError,
    adapt_payload,
    classify_cases,
    combine_eqcs,
    get_eqc,
    get_members,
    has_members,
    merge,
    remove_empty_eqc,
)
from mvsum.ntriples import Term, Triple
from mvsum.summary import EqcSchema, Model, Payload, Summary, eqc_id, merge_schemas, schema_of, summarize
from mvsum.summary_io import format_summary

MODELS = [Model.AC, Model.CC, Model.ACC]
EMPTY = summarize(build_graph([]), Model.AC)


def summaries_equal(a, b):
    return canonical_bytes(a) == canonical_bytes(b)


def test_merge_with_empty_is_identity():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    merged, record = merge(s, EMPTY)
    assert summaries_equal(merged, s)
    assert record.stats.case1 == len(get_members(s))
    assert record.stats.case2 == record.stats.case3 == 0
    # and the other way around
    merged, record = merge(EMPTY, s)
    assert summaries_equal(merged, s)
    assert record.stats.members_s1 == 0


def test_merge_idempotent():
    s = summarize(graph_of((iri("x"), p("p"), iri("a")), (iri("y"), p("q"), iri("x"))), Model.AC)
    merged, record = merge(s, s)
    assert summaries_equal(merged, s)
    assert record.stats.case1 == record.stats.members_s1 == 3
    assert record.edges_union == record.edges_s1 == record.edges_s2


def test_case3_example_with_drained_eqcs():
    g1 = graph_of((iri("x"), p("p"), iri("a")))
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    merged, record = merge(s1, s2)
    assert summaries_equal(merged, oracle_merged(g1, g2, Model.AC))
    merged.validate()
    schemas = {schema.attributes for schema in merged.eqcs.values()}
    assert schemas == {(p("p").value, p("q").value), ()}
    combined = eqc_id(EqcSchema(Model.AC, (p("p").value, p("q").value), None))
    assert merged.payloads[combined].members == {iri("x")}
    assert merged.payloads[eqc_id(EqcSchema(Model.AC, (), None))].members == {iri("a"), iri("b")}
    # EQC{p} and EQC{q} were drained and removed
    assert eqc_id(EqcSchema(Model.AC, (p("p").value,), None)) not in merged.eqcs
    assert eqc_id(EqcSchema(Model.AC, (p("q").value,), None)) not in merged.eqcs
    assert record.stats.case1 == 0
    assert record.stats.case2 == 1  # a
    assert record.stats.case3 == 1  # x


def test_payload_count_updated_one_plus_two():
    # One member in S1's green EQC, two in S2's; the merged count is three.
    g1 = graph_of((iri("w"), p("g"), iri("a")))
    g2 = graph_of((iri("y"), p("g"), iri("a")), (iri("z"), p("g"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    green = eqc_id(EqcSchema(Model.AC, (p("g").value,), None))
    assert s1.payloads[green].count == 1
    assert s2.payloads[green].count == 2
    merged, record = merge(s1, s2)
    assert merged.payloads[green].count == 3
    assert merged.payloads[green].members == {iri("w"), iri("y"), iri("z")}
    assert summaries_equal(merged, oracle_merged(g1, g2, Model.AC))
    assert record.stats.case2 >= 1  # w is only in G1 but green exists in both


def test_get_members():
    assert get_members(EMPTY) == set()
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    assert get_members(s) == {iri("x"), iri("a")}


def test_get_eqc():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    assert get_eqc(s, iri("x")) == eqc_id(EqcSchema(Model.AC, (p("p").value,), None))
    assert get_eqc(s, iri("a")) == eqc_id(EqcSchema(Model.AC, (), None))
    with pytest.raises(KeyError):
        get_eqc(s, iri("zz"))


def test_members_unique_after_combine():
    g1 = graph_of((iri("x"), p("p"), iri("a")))
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    merged, _ = merge(summarize(g1, Model.AC), summarize(g2, Model.AC))
    members = [m for pl in merged.payloads.values() for m in pl.members]
    assert len(members) == len(set(members))
    assert get_members(merged) == {iri("x"), iri("a"), iri("b")}


def test_has_members_and_remove_empty():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    cid = get_eqc(s, iri("x"))
    assert has_members(s, cid)
    with pytest.raises(KeyError):
        has_members(s, "f" * 32)
    with pytest.raises(ValueError):
        remove_empty_eqc(s, cid)  # still has members
    s.payloads[cid].members.clear()
    assert not has_members(s, cid)
    remove_empty_eqc(s, cid)
    assert cid not in s.eqcs and cid not in s.payloads


def test_remove_only_eqc_leaves_empty_summary():
    s = summarize(graph_of((iri("a"), p("t"), Term.literal("x"))), Model.CC)
    assert len(s.eqcs) == 1
    cid = next(iter(s.eqcs))
    s.payloads[cid].members.clear()
    remove_empty_eqc(s, cid)
    assert s.eqcs == {} and s.payloads == {}


def test_adapt_payload():
    s = summarize(graph_of((iri("w"), p("p"), iri("z"))), Model.CC)
    cid = get_eqc(s, iri("w"))
    s.payloads[cid].count = 99
    adapt_payload(s, cid)
    assert s.payloads[cid].count == len(s.payloads[cid].members)
    s.payloads[cid].members.clear()
    with pytest.raises(ValueError):
        adapt_payload(s, cid)


def test_combine_eqcs_matches_union_graph_schema():
    g1 = graph_of((iri("m"), p("p"), iri("a")))
    g2 = graph_of((iri("m"), p("q"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    work, _ = _step1_union(s1, s2)
    c1, c2 = get_eqc(s1, iri("m")), get_eqc(s2, iri("m"))
    combine_eqcs(work, c1, c2, iri("m"))
    expected = schema_of(iri("m"), union(g1, g2), Model.AC)
    target = get_eqc(work, iri("m"))
    assert work.eqcs[target] == expected
    assert iri("m") in work.payloads[target].members
    assert iri("m") not in work.payloads[c1].members
    assert iri("m") not in work.payloads[c2].members
    # c1/c2 retained (possibly empty) until step 3
    assert c1 in work.eqcs and c2 in work.eqcs


def test_combine_eqcs_acc():
    g1 = graph_of((iri("m"), p("p"), iri("a")), (iri("m"), Term.iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), cls("C")))
    g2 = graph_of((iri("m"), p("q"), iri("b")))
    s1, s2 = summarize(g1, Model.ACC), summarize(g2, Model.ACC)
    work, _ = _step1_union(s1, s2)
    combine_eqcs(work, get_eqc(s1, iri("m")), get_eqc(s2, iri("m")), iri("m"))
    assert work.eqcs[get_eqc(work, iri("m"))] == schema_of(iri("m"), union(g1, g2), Model.ACC)


def test_combine_eqcs_same_eqc_is_noop():
    s = summarize(graph_of((iri("m"), p("p"), iri("a"))), Model.AC)
    cid = get_eqc(s, iri("m"))
    combine_eqcs(s, cid, cid, iri("m"))
    assert s.payloads[cid].members == {iri("m")}
    assert get_eqc(s, iri("m")) == cid
    with pytest.raises(KeyError):
        combine_eqcs(s, cid, "f" * 32, iri("m"))


def _step1_union(s1, s2):
    """A working summary as after step 1 (union of schemas and payloads)."""
    work = Summary(model=s1.model, digest=s1.digest, eqcs=dict(s1.eqcs))
    for cid, schema in s2.eqcs.items():
        work.eqcs.setdefault(cid, schema)
    for cid in work.eqcs:
        members = set()
        if cid in s1.payloads:
            members |= s1.payloads[cid].members
        if cid in s2.payloads:
            members |= s2.payloads[cid].members
        work.payloads[cid] = Payload(members, len(members))
    work.member_index = dict(s1.member_index)
    work.member_index.update(s2.member_index)
    return work, None


def test_classify_disjoint_graphs_all_case1():
    g1 = graph_of((iri("u"), p("p"), iri("a")), (iri("u"), p("r"), iri("a")))
    g2 = graph_of((iri("v"), p("q"), Term.literal("x")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    # avoid the shared empty-schema EQC: G2's only vertex has out labels {q}
    stats = classify_cases(s1, s2)
    assert (stats.case1, stats.case2, stats.case3) == (2, 0, 0)
    assert stats.case1 + stats.case2 + stats.case3 == stats.members_s1


def test_classify_case2_example():
    g1 = graph_of((iri("w"), p("p"), iri("a")))
    g2 = graph_of((iri("z"), p("p"), iri("b")))
    stats = classify_cases(summarize(g1, Model.AC), summarize(g2, Model.AC))
    assert (stats.case1, stats.case2, stats.case3) == (0, 2, 0)


def test_case3_symmetric():
    g1 = graph_of((iri("x"), p("p"), iri("a")))
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    assert classify_cases(s1, s2).case3 == classify_cases(s2, s1).case3 == 1


def test_model_mismatch_rejected():
    s1 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s2 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.CC)
    with pytest.raises(MergeConfigError):
        merge(s1, s2)
    s3 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC, digest="sha512")
    with pytest.raises(MergeConfigError):
        merge(s1, s3)
    with pytest.raises(MergeConfigError):
        merge(s1, s1, model=Model.CC)


def test_duplicate_id_with_different_schema_is_corruption():
    s1 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s2 = summarize(graph_of((iri("y"), p("q"), iri("b"))), Model.AC)
    cid = [c for c in s2.eqcs if s2.eqcs[c].attributes][0]
    # simulate a digest collision: same id, different schema in s1
    s1.eqcs[cid] = EqcSchema(Model.AC, ("urn:other",), None)
    s1.payloads[cid] = Payload({iri("q")}, 1)
    s1.member_index[iri("q")] = cid
    with pytest.raises(CorruptSummaryError):
        merge(s1, s2)


def test_record_edge_accounting():
    g1 = random_graph(random.Random(1), max_vertices=20, max_edges=40)
    g2 = random_graph(random.Random(2), max_vertices=20, max_edges=40)
    s1, s2 = summarize(g1, Model.ACC), summarize(g2, Model.ACC)
    _, record = merge(s1, s2)
    assert record.edges_s1 == s1.edge_count()
    assert record.edges_s2 == s2.edge_count()
    assert record.edges_sum == record.edges_s1 + record.edges_s2
    assert max(record.edges_s1, record.edges_s2) <= record.edges_union <= record.edges_sum
    assert record.wall_ms >= 0.0


@st.composite
def graph_pairs(draw):
    # overlapping vertex pools make all three cases reachable
    seed = draw(st.integers(0, 10**9))
    rng = random.Random(seed)
    return random_graph(rng), random_graph(rng)


@given(graph_pairs(), st.sampled_from(MODELS))
@settings(max_examples=120, deadline=None)
def test_merge_equals_summary_of_union(pair, model):
    g1, g2 = pair
    s1, s2 = summarize(g1, model), summarize(g2, model)
    merged, record = merge(s1, s2)
    merged.validate()
    assert canonical_bytes(merged) == canonical_bytes(oracle_merged(g1, g2, model))
    # result symmetry, case partition, case3 symmetry
    merged_ba, record_ba = merge(s2, s1)
    assert canonical_bytes(merged_ba) == canonical_bytes(merged)
    stats, stats_ba = record.stats, record_ba.stats
    assert stats.case1 + stats.case2 + stats.case3 == stats.members_s1 == len(s1.member_index)
    assert stats_ba.case1 + stats_ba.case2 + stats_ba.case3 == len(s2.member_index)
    assert stats.case3 == stats_ba.case3
    assert max(record.edges_s1, record.edges_s2) <= record.edges_union <= record.edges_sum


@given(graph_pairs(), graph_pairs(), st.sampled_from(MODELS))
@settings(max_examples=60, deadline=None)
def test_merge_associative(pair1, pair2, model):
    a, b = (summarize(g, model) for g in pair1)
    c = summarize(pair2[0], model)
    left = merge(merge(a, b)[0], c)[0]
    right = merge(a, merge(b, c)[0])[0]
    assert canonical_bytes(left) == canonical_bytes(right)


# A pair where x conflicts ({p} in G1, {q} in G2) and the combined EQC {p, q}
# already exists in G1 only, held by y. Merging must not add x to y's payload
# in S1.
_ONE_SIDED_TARGET = (
    graph_of((iri("x"), p("p"), iri("a")), (iri("y"), p("p"), iri("a")), (iri("y"), p("q"), iri("a"))),
    graph_of((iri("x"), p("q"), iri("b"))),
)


def _has_one_sided_target(s1, s2):
    for m, c1 in s1.member_index.items():
        c2 = s2.member_index.get(m)
        if c2 is not None and c2 != c1:
            target = eqc_id(merge_schemas(s1.eqcs[c1], s2.eqcs[c2]), s1.digest)
            if (target in s1.eqcs) != (target in s2.eqcs):
                return True
    return False


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_ONE_SIDED_TARGET, Model.AC)
@settings(max_examples=120, deadline=None)
def test_merge_does_not_mutate_inputs(pair, model):
    g1, g2 = pair
    s1, s2 = summarize(g1, model), summarize(g2, model)
    if pair is _ONE_SIDED_TARGET:
        assert _has_one_sided_target(s1, s2)
    b1, b2 = canonical_bytes(s1), canonical_bytes(s2)
    merge(s1, s2)
    merge(s2, s1)
    assert canonical_bytes(s1) == b1 and canonical_bytes(s2) == b2
    s1.validate()
    s2.validate()


def _statement_lines(s):
    return set(format_summary(s).splitlines()[1:])


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_ONE_SIDED_TARGET, Model.AC)
@settings(max_examples=120, deadline=None)
def test_merge_accounting_matches_reference(pair, model):
    # merge gathers its case counts and |E1 ∪ E2| while it merges; here they
    # are computed apart: the cases member by member, the union from the
    # serialized statement lines.
    s1, s2 = (summarize(g, model) for g in pair)
    for a, b in ((s1, s2), (s2, s1)):
        record = merge(a, b)[1]
        assert record.stats == classify_cases(a, b)
        assert record.edges_union == len(_statement_lines(a) | _statement_lines(b))


def _dense_pair(target_edges):
    """Two ACC summaries of about target_edges/2 members each.

    Coarse EQCs at every size, as on a fold of many views: attributes are
    subsets of four predicates and classes one of three, so a view has at
    most 61 EQCs (one is the sink's). Half the members are in both views, and the second view
    always adds predicate q, so each shared member conflicts (case 3) and
    moves to a combined EQC.
    """
    rng = random.Random(target_edges)
    k = max(8, target_edges // 2)
    sink = Term.iri("urn:dense:sink")
    preds = [Term.iri(f"urn:dense:p{i}") for i in range(4)]
    q = Term.iri("urn:dense:q")
    classes = [Term.iri(f"urn:dense:c{i}") for i in range(3)]

    def triples(v, extra):
        chosen = rng.sample(preds, rng.randint(1, 4)) + extra
        out = [Triple(v, pr, sink) for pr in chosen]
        if rng.random() < 0.4:
            out.append(Triple(v, RDF_TYPE_TERM, rng.choice(classes)))
        return out

    t1, t2 = [], []
    for i in range(k):
        v1 = Term.iri(f"urn:dense:s{i}") if i % 2 == 0 else Term.iri(f"urn:dense:a{i}")
        v2 = Term.iri(f"urn:dense:s{i}") if i % 2 == 0 else Term.iri(f"urn:dense:b{i}")
        t1 += triples(v1, [])
        t2 += triples(v2, [q])
    return summarize(build_graph(t1), Model.ACC), summarize(build_graph(t2), Model.ACC)


def test_merge_linear_where_conflicts_are_dense():
    # Criterion 6's statistic and bounds, on inputs where step 2 does most
    # of the work: r(E) >= 0.9 and a log-log slope of at most 1.5.
    records = []
    for exp in range(10, 17):
        s1, s2 = _dense_pair(2 ** exp)
        gc.collect()
        merge(s1, s2)  # warm-up, untimed
        runs = [merge(s1, s2)[1] for _ in range(3)]
        stats = runs[-1].stats
        assert stats.case3 * 3 >= stats.members_s1  # about half the members conflict
        wall = statistics.median(r.wall_ms for r in runs)
        records.append(dataclasses.replace(runs[-1], wall_ms=wall))
    r_e = correlate_times(records, "E", "sum").r
    slope = linfit([math.log(r.edges_sum) for r in records], [math.log(r.wall_ms) for r in records]).slope
    assert r_e >= 0.9 and slope <= 1.5, f"r(E)={r_e:.4f}, log-log slope={slope:.3f}"
