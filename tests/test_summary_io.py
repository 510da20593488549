import hashlib
import random

import pytest

from helpers import RDF_TYPE_TERM, cls, graph_of, iri, p, random_graph
from mvsum.graph import build_graph
from mvsum.ntriples import Term, parse_ntriples
from mvsum.summary import EqcSchema, Model, Payload, Summary, eqc_id, summarize
from mvsum.summary_io import (
    SummaryFormatError,
    format_summary,
    is_summary_header,
    load_summary,
    read_summary,
    save_summary,
)


def reload(s):
    return read_summary(format_summary(s).splitlines())


def test_header_round_trip():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.ACC, digest="sha512")
    text = format_summary(s)
    assert text.startswith("# mvs-summary v1 model=ACC digest=sha512\n")
    assert is_summary_header(text.splitlines()[0])
    loaded = reload(s)
    assert loaded.model is Model.ACC and loaded.digest == "sha512"


def test_golden_text_for_known_summary():
    # Golden content derived by hand: one vertex with attribute urn:p:p,
    # one empty-schema vertex; ids are sha256 of the canonical strings.
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    id_p = hashlib.sha256(b"AC\n<urn:p:p>\n|\n").hexdigest()[:32]
    id_empty = hashlib.sha256(b"AC\n|\n").hexdigest()[:32]
    lines = [
        "# mvs-summary v1 model=AC digest=sha256",
        f"<urn:mvs:eqc:{id_empty}> <urn:mvs:payload> <urn:mvs:payload:{id_empty}> .",
        f"<urn:mvs:eqc:{id_p}> <urn:mvs:attribute> <urn:p:p> .",
        f"<urn:mvs:eqc:{id_p}> <urn:mvs:payload> <urn:mvs:payload:{id_p}> .",
        f"<urn:mvs:payload:{id_empty}> <urn:mvs:count> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        f"<urn:mvs:payload:{id_empty}> <urn:mvs:member> <urn:x:a> .",
        f"<urn:mvs:payload:{id_p}> <urn:mvs:count> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        f"<urn:mvs:payload:{id_p}> <urn:mvs:member> <urn:x:x> .",
    ]
    expected = lines[0] + "\n" + "\n".join(sorted(lines[1:])) + "\n"
    assert format_summary(s) == expected


def test_statements_sorted():
    rng = random.Random(7)
    s = summarize(random_graph(rng, max_vertices=20, max_edges=40), Model.ACC)
    body = format_summary(s).splitlines()[1:]
    assert body == sorted(body)


def test_reload_preserves_everything():
    rng = random.Random(99)
    for model in (Model.AC, Model.CC, Model.ACC):
        s = summarize(random_graph(rng, max_vertices=25, max_edges=60), model)
        loaded = reload(s)
        assert loaded.eqcs == s.eqcs
        assert loaded.member_index == s.member_index
        assert {c: pl.members for c, pl in loaded.payloads.items()} == {c: pl.members for c, pl in s.payloads.items()}
        assert set(loaded.eqcs) == set(s.eqcs)  # EqcIds byte-identical
        loaded.validate()
        assert format_summary(loaded) == format_summary(s)


def test_edge_count_matches_serialized_statements():
    rng = random.Random(3)
    s = summarize(random_graph(rng, max_vertices=30, max_edges=70), Model.ACC)
    assert s.edge_count() == len(format_summary(s).splitlines()) - 1


def test_parser_accepts_own_output(tmp_path):
    s = summarize(random_graph(random.Random(5), max_vertices=15, max_edges=30), Model.ACC)
    path = tmp_path / "s.nt"
    save_summary(s, path)
    with open(path, encoding="utf-8") as fh:
        triples = list(parse_ntriples(fh))
    assert len(triples) == s.edge_count()
    assert load_summary(path).eqcs == s.eqcs


def test_missing_header_rejected():
    with pytest.raises(SummaryFormatError):
        read_summary(["<urn:a> <urn:p> <urn:b> ."])
    with pytest.raises(SummaryFormatError):
        read_summary([])
    # A binary header that is not UTF-8 is a format error, not a decode error.
    with pytest.raises(SummaryFormatError, match="not valid UTF-8"):
        read_summary([b"# mvs-summary v1 model=ACC digest=sha256\xff\n"])


def test_tampered_id_rejected():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    text = format_summary(s)
    cid = next(iter(s.eqcs))
    bad = text.replace(cid, "0" * 32)
    with pytest.raises(SummaryFormatError):
        read_summary(bad.splitlines())
    # but loads fine without verification
    loaded = read_summary(bad.splitlines(), verify=False)
    assert "0" * 32 in loaded.eqcs


def test_tampered_count_rejected():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    bad = format_summary(s).replace('"1"', '"7"')
    with pytest.raises(SummaryFormatError):
        read_summary(bad.splitlines())


@pytest.mark.parametrize("count", ["x1", "0_1", "+1", " 1", "\u0661", ""])
def test_count_must_be_plain_digits(count):
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    bad = format_summary(s).replace('"1"', f'"{count}"', 1)
    with pytest.raises(SummaryFormatError, match="count is not a plain decimal"):
        read_summary(bad.splitlines())


def _summary_with(attribute="urn:p:p", klass="urn:c:C", member="urn:x:a", cid=None):
    schema = EqcSchema(Model.ACC, (attribute,), (klass,))
    cid = cid or eqc_id(schema)
    s = Summary(model=Model.ACC)
    s.eqcs[cid] = schema
    s.payloads[cid] = Payload({Term.iri(member)}, 1)
    s.member_index[Term.iri(member)] = cid
    return s


@pytest.mark.parametrize("bad", [
    {"attribute": "urn:p:a b"},
    {"klass": "urn:c:<C>"},
    {"member": "urn:x:a\\b"},
    {"cid": "not hex"},
])
def test_writer_rejects_forbidden_iri_characters(bad):
    format_summary(_summary_with())  # the same summary without the bad IRI writes
    with pytest.raises(ValueError, match="not allowed in IRI"):
        format_summary(_summary_with(**bad))


def test_save_refuses_surrogate_and_leaves_no_file(tmp_path):
    path = tmp_path / "s.nt"
    with pytest.raises(UnicodeEncodeError):
        save_summary(_summary_with(member="urn:x:a\ud800"), path)
    assert not path.exists()


def test_foreign_statement_rejected():
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    lines = format_summary(s).splitlines() + ["<urn:other> <urn:p> <urn:b> ."]
    with pytest.raises(SummaryFormatError):
        read_summary(lines)


def test_empty_summary_file():
    s = summarize(build_graph([]), Model.CC)
    text = format_summary(s)
    assert text == "# mvs-summary v1 model=CC digest=sha256\n"
    loaded = read_summary(text.splitlines())
    assert loaded.eqcs == {}


def test_serialization_stable_across_runs(tmp_path):
    g = graph_of(
        (iri("x"), p("p"), iri("a")),
        (iri("x"), RDF_TYPE_TERM, cls("C")),
        (iri("y"), p("q"), iri("x")),
    )
    a = format_summary(summarize(g, Model.ACC))
    b = format_summary(summarize(g, Model.ACC))
    assert a == b
