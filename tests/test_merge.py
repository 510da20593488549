import dataclasses
import gc
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_bytes,
    cls,
    graph_of,
    iri,
    oracle_merged,
    classify_cases,
    generate_views,
    p,
    random_graph,
    schema_of,
    traced,
    union,
    validate,
)
from mvsum.analytics import GenParams, correlate_times, linfit
from mvsum.graph import build_graph
from mvsum.merge import CorruptSummaryError, MergeConfigError, check_compatible, merge
from mvsum.ntriples import RDF_TYPE, Triple, parse_ntriples
from mvsum.summary import Model, eqc_id, summarize, union_side
from mvsum.summary_io import format_summary, read_summary

MODELS = [Model.AC, Model.CC, Model.ACC]
EMPTY = summarize(build_graph([]), Model.AC)


def summaries_equal(a, b):
    return canonical_bytes(a) == canonical_bytes(b)


def test_merge_with_empty_is_identity():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    merged, record = merge(s, EMPTY)
    assert summaries_equal(merged, s)
    assert record.stats.case1 == len(s.member_index)
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
    validate(merged)
    assert set(merged.eqcs.values()) == {((p("p"), p("q")), ()), ((), ())}
    combined = eqc_id(Model.AC, ((p("p"), p("q")), ()))
    assert merged.payloads[combined] == (iri("x"),)
    assert merged.payloads[eqc_id(Model.AC, ((), ()))] == frozenset({iri("a"), iri("b")})
    # EQC{p} and EQC{q} were drained and removed
    assert eqc_id(Model.AC, ((p("p"),), ())) not in merged.eqcs
    assert eqc_id(Model.AC, ((p("q"),), ())) not in merged.eqcs
    assert record.stats.case1 == 0
    assert record.stats.case2 == 1  # a
    assert record.stats.case3 == 1  # x


def test_payload_count_updated_one_plus_two():
    # One member in S1's green EQC, two in S2's; the merged count is three.
    g1 = graph_of((iri("w"), p("g"), iri("a")))
    g2 = graph_of((iri("y"), p("g"), iri("a")), (iri("z"), p("g"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    green = eqc_id(Model.AC, ((p("g"),), ()))
    assert len(s1.payloads[green]) == 1
    assert len(s2.payloads[green]) == 2
    merged, record = merge(s1, s2)
    assert merged.payloads[green] == frozenset({iri("w"), iri("y"), iri("z")})
    assert f'<urn:mvs:payload:{green}> <urn:mvs:count> "3"^^' in format_summary(merged)
    assert summaries_equal(merged, oracle_merged(g1, g2, Model.AC))
    assert record.stats.case2 >= 1  # w is only in G1 but green exists in both


def test_members_unique_after_combine():
    g1 = graph_of((iri("x"), p("p"), iri("a")))
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    merged, _ = merge(summarize(g1, Model.AC), summarize(g2, Model.AC))
    members = [m for ms in merged.payloads.values() for m in ms]
    assert len(members) == len(set(members))
    assert set(merged.member_index) == {iri("x"), iri("a"), iri("b")}


def test_conflicting_member_gets_its_union_graph_schema():
    # m is {p} with class C in G1 and {q} in G2: a case-3 member whose
    # target EQC exists in neither input.
    g1 = graph_of((iri("m"), p("p"), iri("a")), (iri("m"), RDF_TYPE, cls("C")))
    g2 = graph_of((iri("m"), p("q"), iri("b")))
    for model in (Model.AC, Model.ACC):
        s1, s2 = summarize(g1, model), summarize(g2, model)
        merged, record = merge(s1, s2)
        assert record.stats.case3 == 1
        target = merged.member_index[iri("m")]
        assert target not in s1.eqcs and target not in s2.eqcs
        assert merged.eqcs[target] == schema_of(iri("m"), union(g1, g2), model)
        assert merged.payloads[target] == (iri("m"),)
        # m's EQCs in the inputs held only m, so step 3 dropped them
        assert s1.member_index[iri("m")] not in merged.eqcs
        assert s2.member_index[iri("m")] not in merged.eqcs


def test_shared_blank_label_is_one_member():
    # `_:b` in two views is one vertex, so one member with the union schema.
    g1 = build_graph(parse_ntriples(["_:b <urn:p> <urn:a> .\n"]))
    g2 = build_graph(parse_ntriples(["_:b <urn:q> <urn:a> .\n"]))
    merged, record = merge(summarize(g1, Model.AC), summarize(g2, Model.AC))
    b = "_:b"
    assert merged.eqcs[merged.member_index[b]] == (("urn:p", "urn:q"), ())
    assert sum(b in members for members in merged.payloads.values()) == 1
    assert summaries_equal(merged, summarize(union(g1, g2), Model.AC))
    assert record.stats.case3 == 1


def test_member_in_same_eqc_in_both_stays_put():
    # m is {p} in both graphs: a shared member, not a conflict, so step 2
    # leaves it where step 1 put it and creates no EQC.
    g1 = graph_of((iri("m"), p("p"), iri("a")))
    g2 = graph_of((iri("m"), p("p"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    cid = s1.member_index[iri("m")]
    assert s2.member_index[iri("m")] == cid
    merged, record = merge(s1, s2)
    assert record.stats.case3 == 0
    assert set(merged.eqcs) == set(s1.eqcs) | set(s2.eqcs)
    assert merged.member_index[iri("m")] == cid
    assert merged.payloads[cid] == (iri("m"),)
    validate(merged)


def test_partly_drained_eqc_is_kept():
    # x and y are {p} in G1; only x conflicts in G2. Only an EQC with no
    # members left is dropped, so EQC{p} keeps y.
    g1 = graph_of((iri("x"), p("p"), iri("a")), (iri("y"), p("p"), iri("a")))
    g2 = graph_of((iri("x"), p("q"), iri("b")))
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    merged, record = merge(s1, s2)
    assert record.stats.case3 == 1
    green = eqc_id(Model.AC, ((p("p"),), ()))
    assert merged.payloads[green] == (iri("y"),)
    assert merged.member_index[iri("y")] == green
    # EQC{q} held only x, so it was drained and dropped
    assert eqc_id(Model.AC, ((p("q"),), ())) not in merged.eqcs
    validate(merged)
    assert summaries_equal(merged, oracle_merged(g1, g2, Model.AC))


# x is {p, q} in G1 and moves to {p, q, r}; y is {p} in G1 and {q} in G2,
# so it moves to {p, q}: EQC{p, q} drains and becomes a target. The sink a
# is {} in both, so EQC{} is held by both inputs.
_DRAIN_THEN_TARGET = (
    graph_of((iri("x"), p("p"), iri("a")), (iri("x"), p("q"), iri("a")), (iri("y"), p("p"), iri("a"))),
    graph_of((iri("x"), p("r"), iri("a")), (iri("y"), p("q"), iri("a"))),
)


@pytest.mark.parametrize("pq_first", [True, False])
def test_drained_eqc_comes_back_as_a_target(pq_first):
    # EQC{p, q} loses x and gains y whichever of its EQCs is scanned first,
    # and step 3 builds its payload once, in either direction of the merge.
    g1, g2 = _DRAIN_THEN_TARGET
    s1, s2 = summarize(g1, Model.AC), summarize(g2, Model.AC)
    pq = eqc_id(Model.AC, ((p("p"), p("q")), ()))
    s1.payloads = dict(sorted(s1.payloads.items(), key=lambda item: (item[0] == pq) != pq_first))
    for a, b in ((s1, s2), (s2, s1)):
        merged, record = merge(a, b)
        assert record.stats.case3 == 2
        assert merged.payloads[pq] == (iri("y"),)
        validate(merged)
        assert summaries_equal(merged, oracle_merged(g1, g2, Model.AC))


def test_merge_peak_stays_near_the_result():
    # The `merge-files` benchmark's input shape: fine-grained EQCs, most
    # conflicting pairs of them met once. The peak is taken per input
    # statement, which the payload shape does not move: a merge that copies
    # every input payload into a set peaks at 61.7 bytes per statement; one
    # that shares the unchanged 1-tuple and frozenset payloads and rebuilds
    # only the touched ones after step 2, 46.2 (52.9 on Python 3.10). With
    # the new EQCs kept out of the union's tables and each table copied
    # once at the end, sized to what survives, the peak reads 39.5 (3.10),
    # 35.1 (3.11) and 34.8 (3.12, 3.13), and the result 21.4, 18.5-18.6 and
    # 18.2-18.3, where tables grown for every new EQC and kept through
    # step 3's deletions read 32.6, 27.0 and 26.7.
    params = GenParams(views=2, vertices_per_view=10667, edges_per_view=32000, predicate_alphabet=320,
                       class_alphabet=6, overlap=0.5, type_prob=0.4, seed=3)
    s1, s2 = (summarize(g, Model.ACC) for _, g in generate_views(params))
    statements = s1.edge_count() + s2.edge_count()
    _, peak, retained = traced(lambda: merge(s1, s2))
    assert peak / statements < 42
    assert retained / statements < 24


def test_classify_disjoint_graphs_all_case1():
    g1 = graph_of((iri("u"), p("p"), iri("a")), (iri("u"), p("r"), iri("a")))
    g2 = graph_of((iri("v"), p("q"), '"x"'))
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
    with pytest.raises(MergeConfigError) as exc:
        merge(s1, s2)
    assert str(exc.value) == "cannot merge: S1 is model=AC, S2 is model=CC"


def test_check_compatible_names_first_mismatch():
    g = graph_of((iri("x"), p("p"), iri("a")))
    ac, ac2, cc = summarize(g, Model.AC), summarize(g, Model.AC), summarize(g, Model.CC)
    assert check_compatible("x", [("a", ac), ("b", ac2)]) is None
    assert check_compatible("x", [("a", ac)]) is None
    with pytest.raises(MergeConfigError) as exc:
        check_compatible("cannot merge", [("a", ac), ("b", ac2), ("c", cc), ("d", cc)])
    assert str(exc.value) == "cannot merge: a is model=AC, c is model=CC"


def test_duplicate_id_with_different_schema_is_corruption():
    s1 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s2 = summarize(graph_of((iri("y"), p("q"), iri("b"))), Model.AC)
    cid = [c for c, (attributes, _) in s2.eqcs.items() if attributes][0]
    # simulate a hash collision: same id, different schema in s1
    s1.eqcs[cid] = (("urn:other",), ())
    s1.payloads[cid] = (iri("q"),)
    with pytest.raises(CorruptSummaryError):
        merge(s1, s2)
    # The same collision on the combined schema of a conflicting member: x is
    # {p} in s1 and {q} in s2, and s1 already holds {p, q}'s id under another
    # schema.
    s1 = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    s2 = summarize(graph_of((iri("x"), p("q"), iri("b"))), Model.AC)
    cid = eqc_id(Model.AC, ((p("p"), p("q")), ()))
    s1.eqcs[cid] = (("urn:other",), ())
    s1.payloads[cid] = (iri("q"),)
    with pytest.raises(CorruptSummaryError, match=f"^EqcId {cid} maps to two different schemas$"):
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


def _pair_of(rng, **kw):
    """Two graphs drawn in turn from one generator: vertex names overlap by index."""
    return random_graph(rng, **kw), random_graph(rng, **kw)


@st.composite
def graph_pairs(draw):
    # overlapping vertex pools make all three cases reachable
    return _pair_of(random.Random(draw(st.integers(0, 10**9))))


# A coarse pair: under ACC, 275 case-3 members move into 80 merged EQCs, so
# pairs of schema sides recur, and merge's memo of side unions must key on
# both sides of each pair.
_COARSE_PAIR = _pair_of(random.Random(0), max_vertices=600, max_edges=1500)


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_COARSE_PAIR, Model.ACC)
@settings(max_examples=120, deadline=None)
def test_merge_equals_summary_of_union(pair, model):
    g1, g2 = pair
    s1, s2 = summarize(g1, model), summarize(g2, model)
    merged, record = merge(s1, s2)
    validate(merged)
    assert canonical_bytes(merged) == canonical_bytes(oracle_merged(g1, g2, model))
    # result symmetry, case partition, case3 symmetry
    merged_ba, record_ba = merge(s2, s1)
    assert canonical_bytes(merged_ba) == canonical_bytes(merged)
    stats, stats_ba = record.stats, record_ba.stats
    assert stats.case1 + stats.case2 + stats.case3 == stats.members_s1 == len(s1.member_index)
    assert stats_ba.case1 + stats_ba.case2 + stats_ba.case3 == len(s2.member_index)
    assert stats.case3 == stats_ba.case3
    assert max(record.edges_s1, record.edges_s2) <= record.edges_union <= record.edges_sum
    if pair is _COARSE_PAIR:
        assert stats.case3 > len(merged.eqcs)


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
            (attrs1, classes1), (attrs2, classes2) = s1.eqcs[c1], s2.eqcs[c2]
            combined = (union_side(attrs1, attrs2), union_side(classes1, classes2))
            target = eqc_id(s1.model, combined)
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
    validate(s1)
    validate(s2)


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_DRAIN_THEN_TARGET, Model.AC)
@example(_ONE_SIDED_TARGET, Model.AC)
@example(_COARSE_PAIR, Model.ACC)
@settings(max_examples=120, deadline=None)
def test_every_payload_is_canonical(pair, model):
    # `validate` refuses any payload but a 1-tuple for one member and a
    # frozenset for more: after summarize, after a load, and after a merge
    # in each direction, with EQCs both inputs hold and EQCs that drain.
    s1, s2 = (summarize(g, model) for g in pair)
    if pair is _DRAIN_THEN_TARGET:
        assert s1.eqcs.keys() & s2.eqcs.keys()
    for s in (s1, s2):
        validate(s)
        validate(read_summary(format_summary(s).splitlines()))
    for a, b in ((s1, s2), (s2, s1)):
        validate(merge(a, b)[0])


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_DRAIN_THEN_TARGET, Model.AC)
@example(_ONE_SIDED_TARGET, Model.AC)
@example(_COARSE_PAIR, Model.ACC)
@settings(max_examples=120, deadline=None)
def test_merge_shares_every_payload_no_move_touches(pair, model):
    # An EQC that one input holds, that no member leaves and none enters,
    # keeps that input's payload object: the merge copies nothing it keeps.
    s1, s2 = (summarize(g, model) for g in pair)
    for a, b in ((s1, s2), (s2, s1)):
        merged, _ = merge(a, b)
        index_a, index_b, index_out = a.member_index, b.member_index, merged.member_index
        moved = [m for m, cid in index_a.items() if index_b.get(m, cid) != cid]
        touched = {index_a[m] for m in moved} | {index_b[m] for m in moved} | {index_out[m] for m in moved}
        for x, y in ((a, b), (b, a)):
            for cid, payload in x.payloads.items():
                if cid not in y.payloads and cid not in touched:
                    assert merged.payloads[cid] is payload


def _statement_lines(s):
    return set(format_summary(s).splitlines()[1:])


@given(graph_pairs(), st.sampled_from(MODELS))
@example(_ONE_SIDED_TARGET, Model.AC)
@example(_COARSE_PAIR, Model.ACC)
@settings(max_examples=120, deadline=None)
def test_merge_accounting_matches_reference(pair, model):
    # merge gathers its case counts and |E1 ∪ E2| while it merges; here they
    # are computed apart: the cases member by member, the union from the
    # serialized statement lines. `edges_out` is not bounded by the union:
    # case 3 can add EQCs neither input has.
    s1, s2 = (summarize(g, model) for g in pair)
    for a, b in ((s1, s2), (s2, s1)):
        merged, record = merge(a, b)
        if pair is _COARSE_PAIR:
            assert record.stats.case3 > len(merged.eqcs)
        assert record.stats == classify_cases(a, b)
        assert record.edges_union == len(_statement_lines(a) | _statement_lines(b))
        assert record.edges_out == merged.edge_count()


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
    sink = "<urn:dense:sink>"
    preds = [f"urn:dense:p{i}" for i in range(4)]
    q = "urn:dense:q"
    classes = [f"<urn:dense:c{i}>" for i in range(3)]

    def triples(v, extra):
        chosen = rng.sample(preds, rng.randint(1, 4)) + extra
        out = [Triple(v, pr, sink) for pr in chosen]
        if rng.random() < 0.4:
            out.append(Triple(v, RDF_TYPE, rng.choice(classes)))
        return out

    t1, t2 = [], []
    for i in range(k):
        v1 = f"<urn:dense:s{i}>" if i % 2 == 0 else f"<urn:dense:a{i}>"
        v2 = f"<urn:dense:s{i}>" if i % 2 == 0 else f"<urn:dense:b{i}>"
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
