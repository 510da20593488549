"""The cyclic collector is paused over the bulk stages and restored after.

`build_graph`, `summarize`, `read_summary`, `format_summary`,
`save_summary` and `merge` run with cyclic GC disabled. After any of them,
with a normal return or an exception, `gc.isenabled()` must read what it
read before; a caller's own code between parsed items runs with the
caller's setting, and `merge_all` pauses once per pairwise merge.
"""

import gc

import pytest

from mvsum import multimerge, summary_io
from mvsum.graph import build_graph
from mvsum.merge import MergeConfigError, merge
from mvsum.ntriples import ParseError, parse_ntriples
from mvsum.summary import Model, Summary, eqc_id, summarize
from mvsum.summary_io import SummaryFormatError, format_summary, load_summary, read_summary, save_summary

GRAPH = [
    "<urn:x:a> <urn:p:p> <urn:x:b> .",
    "<urn:x:a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:c:C> .",
    "<urn:x:b> <urn:p:q> \"v\" .",
]
BAD_STATEMENT = "<urn:x:a> <urn:p:p> garbage ."


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """Run the test with the caller's collector on, then off; restore it after."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


def _summary():
    return summarize(build_graph(parse_ntriples(GRAPH)), Model.ACC)


def _bad_summary():
    # A member IRI the writer refuses, in a summary built through the API.
    schema = (("urn:p",), ())
    cid = eqc_id(Model.AC, schema)
    return Summary(Model.AC, eqcs={cid: schema}, payloads={cid: ("<urn:a b>",)})


def _file_lines():
    return format_summary(_summary()).splitlines(keepends=True)


def test_graph_build_restores_collector(caller_gc):
    g = build_graph(parse_ntriples(GRAPH))
    assert len(g.vertices) == 2
    assert gc.isenabled() is caller_gc
    with pytest.raises(ParseError):
        build_graph(parse_ntriples([GRAPH[0], BAD_STATEMENT, GRAPH[1]]))
    assert gc.isenabled() is caller_gc


def test_graph_build_pauses_the_parser_it_drives(caller_gc):
    seen = []

    def recording(triples):
        for t in triples:
            seen.append(gc.isenabled())
            yield t

    build_graph(recording(parse_ntriples(GRAPH)))
    assert seen == [False] * len(GRAPH)
    assert gc.isenabled() is caller_gc


def test_callers_own_parse_loop_keeps_its_setting(caller_gc):
    seen = [gc.isenabled() for _ in parse_ntriples(GRAPH)]
    assert seen == [caller_gc] * len(GRAPH)
    with pytest.raises(ParseError):
        for _ in parse_ntriples([GRAPH[0], BAD_STATEMENT]):
            assert gc.isenabled() is caller_gc
    assert gc.isenabled() is caller_gc


def test_summarize_restores_collector(caller_gc, monkeypatch):
    g = build_graph(parse_ntriples(GRAPH))
    assert len(summarize(g, Model.ACC).eqcs) == 2
    assert gc.isenabled() is caller_gc

    def failing_eqc_id(model, schema):
        raise RuntimeError("eqc_id failed")

    monkeypatch.setattr("mvsum.summary.eqc_id", failing_eqc_id)
    with pytest.raises(RuntimeError, match="eqc_id failed"):
        summarize(g, Model.ACC)
    assert gc.isenabled() is caller_gc


def test_summary_reader_restores_collector(caller_gc, tmp_path):
    lines = _file_lines()
    assert read_summary(lines) == _summary()
    assert gc.isenabled() is caller_gc
    with pytest.raises(SummaryFormatError, match="line 3"):
        read_summary([lines[0], lines[1], "garbage\n", *lines[2:]])
    assert gc.isenabled() is caller_gc
    good, bad = tmp_path / "good.nt", tmp_path / "bad.nt"
    good.write_text("".join(lines), encoding="utf-8")
    bad.write_text("".join(lines[:2]) + "garbage\n" + "".join(lines[2:]), encoding="utf-8")
    assert load_summary(good) == _summary()
    assert gc.isenabled() is caller_gc
    with pytest.raises(SummaryFormatError, match="bad.nt: .*line 3"):
        load_summary(bad)
    assert gc.isenabled() is caller_gc


def test_summary_writer_restores_collector(caller_gc, tmp_path, monkeypatch):
    assert format_summary(_summary()).splitlines(keepends=True) == _file_lines()
    assert gc.isenabled() is caller_gc
    # The chunk generator (the header, then one chunk per subject here) never
    # pauses: between chunks the caller's own code runs under the caller's
    # setting.
    monkeypatch.setattr(summary_io, "_CHUNK_LINES", 1)
    seen = [gc.isenabled() for _ in summary_io._statement_chunks(_summary())]
    assert seen == [caller_gc] * 5
    assert gc.isenabled() is caller_gc
    save_summary(_summary(), tmp_path / "s.nt")
    assert gc.isenabled() is caller_gc
    with pytest.raises(ValueError, match="^member is not <iri>"):
        format_summary(_bad_summary())
    assert gc.isenabled() is caller_gc
    with pytest.raises(ValueError, match="^member is not <iri>"):
        save_summary(_bad_summary(), tmp_path / "bad.nt")
    assert gc.isenabled() is caller_gc


def test_merge_restores_collector(caller_gc):
    s1 = _summary()
    s2 = summarize(build_graph(parse_ntriples(["<urn:x:a> <urn:p:r> <urn:x:c> ."])), Model.ACC)
    assert merge(s1, s2)[0].eqcs
    assert gc.isenabled() is caller_gc
    with pytest.raises(MergeConfigError):
        merge(s1, _bad_summary())
    assert gc.isenabled() is caller_gc


def test_merge_pauses_the_collector_once_per_call(caller_gc, monkeypatch, tmp_path):
    s1 = _summary()
    s2 = summarize(build_graph(parse_ntriples(["<urn:x:a> <urn:p:r> <urn:x:c> ."])), Model.ACC)
    lines = _file_lines()
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    # Each paused call re-enables only a collector that was enabled.
    once = ["disable", "enable"] if caller_gc else ["disable"]
    merge(s1, s2)
    assert calls == once
    # `merge_all` pauses once per pairwise merge, never around the whole fold.
    for strategy in multimerge.Strategy.smallest_first(), multimerge.Strategy.greedy_parallel(2):
        calls.clear()
        _, schedule = multimerge.merge_all([s1, s2, s1], strategy)
        assert len(schedule.steps) == 2
        assert calls == once * 2
    # The same spies see each of the six paused stages once.
    calls.clear()
    g = build_graph(parse_ntriples(GRAPH))
    summarize(g, Model.ACC)
    read_summary(lines)
    format_summary(s1)
    save_summary(s1, tmp_path / "s.nt")
    merge(s1, s2)
    assert calls == once * 6
