import contextlib
import hashlib
import os
import random
import re
import stat
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BARE_SURROGATES, cls, generate_views, graph_of, iri, oracle_merged, p, random_graph, reference_format, traced, validate
from mvsum import analytics, summary_io
from mvsum.graph import build_graph
from mvsum.merge import merge
from mvsum.ntriples import RDF_TYPE, parse_ntriples
from mvsum.summary import Model, Summary, eqc_id, summarize
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


@pytest.mark.parametrize("model", list(Model))
def test_header_round_trip(model):
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), model)
    text = format_summary(s)
    assert text.startswith(f"# mvs-summary v1 model={model.value} digest=sha256\n")
    assert is_summary_header(text.splitlines()[0])
    loaded = reload(s)
    assert loaded.model is model and loaded.eqcs == s.eqcs and loaded.payloads == s.payloads


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
        assert loaded.payloads == s.payloads
        assert set(loaded.eqcs) == set(s.eqcs)  # EqcIds byte-identical
        validate(loaded)
        assert format_summary(loaded) == format_summary(s)


def test_an_iri_spelled_like_a_blank_label_stays_its_own_member(tmp_path):
    # The IRI `_:b` and the blank node `_:b` are two vertices, `<_:b>` and
    # `_:b`: the brackets keep their texts apart through every stage.
    g1 = graph_of(("<_:b>", p("p"), iri("a")), ("_:b", p("q"), iri("a")))
    g2 = graph_of(("_:b", p("p"), iri("a")))
    s1 = summarize(g1, Model.AC)
    assert s1.member_index == {
        "<_:b>": eqc_id(Model.AC, (("urn:p:p",), ())),
        "_:b": eqc_id(Model.AC, (("urn:p:q",), ())),
        "<urn:x:a>": eqc_id(Model.AC, ((), ())),
    }
    path = tmp_path / "s1.nt"
    save_summary(s1, path)
    loaded = load_summary(path)
    assert loaded == s1
    merged, record = merge(loaded, summarize(g2, Model.AC))
    index = merged.member_index
    assert len(index) == 3
    assert merged.eqcs[index["<_:b>"]] == (("urn:p:p",), ())
    assert merged.eqcs[index["_:b"]] == (("urn:p:p", "urn:p:q"), ())
    # `<_:b>` meets the EQC of `_:b` in S2 (case 2); `_:b` conflicts (case 3).
    assert (record.stats.case1, record.stats.case2, record.stats.case3) == (1, 1, 1)
    assert format_summary(merged) == format_summary(oracle_merged(g1, g2, Model.AC))


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
    with pytest.raises(SummaryFormatError, match="^line 1: missing summary header, got: '<urn:a>"):
        read_summary(["<urn:a> <urn:p> <urn:b> ."])
    with pytest.raises(SummaryFormatError, match="^line 1: empty input: missing summary header$"):
        read_summary([])
    # A header byte that is not UTF-8 is a format error, not a decode error.
    with pytest.raises(SummaryFormatError, match="^line 1, col 41: invalid UTF-8: invalid start byte$"):
        read_summary([b"# mvs-summary v1 model=ACC digest=sha256\xff\n".decode("utf-8", "surrogateescape")])


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_load_names_line_and_column_of_invalid_utf8(tmp_path, eol):
    # Far past the first decode chunk, after a character of two bytes, and
    # with each line end text mode knows.
    s = _summary_with()
    [(cid, members)] = s.payloads.items()
    s.payloads[cid] = frozenset([*members, *(f"<urn:x:\u00e9{i}>" for i in range(2000))])
    lines = format_summary(s).encode("utf-8").splitlines()
    n = 1500
    lines[n - 1] = lines[n - 1].replace("\u00e9".encode(), "\u00e9".encode() + b"\xff", 1)
    col = len(lines[n - 1].split(b"\xff")[0].decode("utf-8")) + 1
    path = tmp_path / "s.nt"
    path.write_bytes(eol.encode().join(lines))
    assert path.stat().st_size > 100_000
    with pytest.raises(SummaryFormatError, match=f"^{re.escape(str(path))}: bad statement: line {n}, col {col}: invalid UTF-8: invalid start byte$"):
        load_summary(path)
    # A bad header byte is on line 1.
    path.write_bytes(b"# mvs-summary v1 model=ACC\xff digest=sha256\n")
    with pytest.raises(SummaryFormatError, match=f"^{re.escape(str(path))}: line 1, col 27: invalid UTF-8: invalid start byte$"):
        load_summary(path)


def test_load_piped_summary_names_line_of_invalid_utf8(tmp_path):
    # A pipe can be read only once, so the line must come from that one read.
    s = _summary_with()
    [(cid, members)] = s.payloads.items()
    members = s.payloads[cid] = frozenset([*members, *(f"<urn:x:{i:04d}>" for i in range(2999))])
    lines = format_summary(s).encode("utf-8").splitlines(keepends=True)
    assert len(members) == 3000 and len(lines) > 3000
    # `<urn:mvs:payload:ID> <urn:mvs:member> <urn:x:` is 75 characters.
    assert lines[1999].startswith(b"<urn:mvs:payload:") and b"> <urn:x:" in lines[1999]
    lines[1999] = lines[1999].replace(b"<urn:x:", b"<urn:x:\xff")
    path = tmp_path / "fifo"
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.writelines(lines)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(SummaryFormatError, match=f"^{re.escape(str(path))}: bad statement: line 2000, col 76: invalid UTF-8: invalid start byte$"):
        load_summary(path)
    writer.join(timeout=10)
    assert not writer.is_alive()


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
    # More digits than `int()` converts by default: a data error, and with
    # leading zeros the count it spells.
    bad = format_summary(s).replace('"1"', f'"{"9" * 5000}"')
    with pytest.raises(SummaryFormatError, match=f"count {'9' * 5000} != 1 members$"):
        read_summary(bad.splitlines())
    assert reload(s) == read_summary(format_summary(s).replace('"1"', f'"{"0" * 5000}1"').splitlines())


@pytest.mark.parametrize("count", ["x1", "0_1", "+1", " 1", "\u0661", ""])
def test_count_must_be_plain_digits(count):
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    bad = format_summary(s).replace('"1"', f'"{count}"', 1)
    with pytest.raises(SummaryFormatError, match="count is not a plain decimal"):
        read_summary(bad.splitlines())


def _summary_with(attribute="urn:p:p", klass="urn:c:C", member="<urn:x:a>", cid=None):
    schema = ((attribute,), (klass,))
    cid = cid or eqc_id(Model.ACC, schema)
    s = Summary(model=Model.ACC)
    s.eqcs[cid] = schema
    s.payloads[cid] = (member,)
    return s


@pytest.mark.parametrize("bad", [
    {"attribute": "urn:p:a b"},
    {"klass": "urn:c:<C>"},
    {"member": "<urn:x:a\\b>"},
    {"cid": "not hex"},
    # A member is `<iri>` or `_:` and an alphanumeric label, and nothing else.
    {"member": "urn:a"},
    {"member": "<urn:a b>"},
    {"member": "<urn:a"},
    {"member": "<urn:a>x"},
    {"member": "_:a-b"},
    {"member": '"lit"'},
])
def test_writer_rejects_forbidden_iri_characters(bad):
    format_summary(_summary_with())  # the same summary without the bad IRI writes
    if "member" in bad:
        error = rf"^member is not <iri> or _:\[A-Za-z0-9\]\+: {re.escape(repr(bad['member']))}$"
    else:
        error = "not allowed in IRI"
    with pytest.raises(ValueError, match=error):
        format_summary(_summary_with(**bad))


@pytest.mark.parametrize("member, error", [
    ("<urn:x:z\ud800>", UnicodeEncodeError),
    ("<urn:x:z b>", ValueError),
    # A line with `_:a b` would not load back.
    ("_:a b", ValueError),
    ("urn:a", ValueError),
    ("<urn:a", ValueError),
    ("<urn:a>x", ValueError),
    ("_:a-b", ValueError),
    ('"lit"', ValueError),
], ids=["surrogate", "forbidden", "blank-label", "bare-iri", "unclosed", "trailing", "blank-dash", "literal"])
def test_save_that_fails_leaves_no_file(tmp_path, monkeypatch, member, error):
    # One line per chunk, so the bad member, which sorts last, fails after
    # earlier chunks reached the temporary file.
    monkeypatch.setattr(summary_io, "_CHUNK_LINES", 1)
    s = _summary_with(member=member)
    with pytest.raises(error):
        save_summary(s, tmp_path / "s.nt")
    assert list(tmp_path.iterdir()) == []
    # A failed overwrite leaves the old file's bytes.
    path = tmp_path / "old.nt"
    save_summary(_summary_with(), path)
    old = path.read_bytes()
    with pytest.raises(error):
        save_summary(s, path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


# The writer's checks item by item, in file order: every EQC subject's id,
# attributes and classes, then every payload's members. A reference for the
# writer, whose set of checked labels must not change the first error.
_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_GOOD_MEMBER = re.compile(r'<[^\x00-\x20<>"{}|^`\\]*>|_:[A-Za-z0-9]+')


def _first_fault(s):
    cids = sorted(s.eqcs, key=lambda cid: cid + ">")
    for cid in cids:
        attributes, classes = s.eqcs[cid]
        for value in ("urn:mvs:eqc:" + cid, *attributes, *classes):
            bad = _FORBIDDEN.search(value)
            if bad:
                return f"character {bad.group(0)!r} not allowed in IRI: {value!r}"
    for cid in cids:
        for m in s.payloads[cid]:
            if not _GOOD_MEMBER.fullmatch(m):
                return f"member is not <iri> or _:[A-Za-z0-9]+: {m!r}"
    return None


def _many_eqcs(n=3000, shared=40):
    """n EQCs and their ids in file order: labels from a small shared
    alphabet plus one of the EQC's own, and one member each, five on every
    seventh EQC, so the writer empties its set of checked labels several
    times."""
    s = Summary(model=Model.ACC)
    for i in range(n):
        schema = (f"urn:p:{i % shared}", f"urn:p:own{i}"), (f"urn:c:{i % 3}",)
        cid = eqc_id(Model.ACC, schema)
        s.eqcs[cid] = schema
        s.payloads[cid] = frozenset(f"_:b{i}x{k}" for k in range(5)) if i % 7 == 0 else (f"<urn:x:{i}>",)
    return s, sorted(s.eqcs)


def _put_fault(s, what, cid):
    """Put one fault in EQC `cid`. A bad id keeps its EQC's place in file
    order: `^` sorts between the digits and the letters."""
    attributes, classes = s.eqcs[cid]
    if what == "label":
        s.eqcs[cid] = ("urn:p:bad label", *attributes), classes
    elif what == "class":
        s.eqcs[cid] = attributes, ("urn:c:<late>",)
    elif what == "id":
        s.eqcs[cid[:31] + "^"] = s.eqcs.pop(cid)
        s.payloads[cid[:31] + "^"] = s.payloads.pop(cid)
    elif what == "member":
        s.payloads[cid] = ("<urn:x:bad member>",)
    elif what == "late-member":
        s.payloads[cid] = frozenset(["<urn:x:a>", "_:late-member"])
    else:
        # Two valid members as one string.
        assert what == "newline-member"
        s.payloads[cid] = ("<urn:x:a>\n<urn:x:b>",)


@pytest.mark.parametrize("faults, message", [
    ([("label", -1)], "character ' ' not allowed in IRI: 'urn:p:bad label'"),
    ([("class", -1)], "character '<' not allowed in IRI: 'urn:c:<late>'"),
    ([("id", -1)], "character '^' not allowed in IRI: 'urn:mvs:eqc:{}^'"),
    ([("member", -1)], "member is not <iri> or _:[A-Za-z0-9]+: '<urn:x:bad member>'"),
    ([("newline-member", -1)], "member is not <iri> or _:[A-Za-z0-9]+: '<urn:x:a>\\n<urn:x:b>'"),
    # The label error comes first: EQC blocks precede payload blocks.
    ([("member", 0), ("class", -1)], "character '<' not allowed in IRI: 'urn:c:<late>'"),
    ([("label", 1), ("id", -1)], "character ' ' not allowed in IRI: 'urn:p:bad label'"),
    ([("id", 1), ("label", -1)], "character '^' not allowed in IRI: 'urn:mvs:eqc:{}^'"),
    ([("label", 5), ("class", -1)], "character ' ' not allowed in IRI: 'urn:p:bad label'"),
    ([("member", 5), ("late-member", -1)], "member is not <iri> or _:[A-Za-z0-9]+: '<urn:x:bad member>'"),
    ([("newline-member", 1500), ("member", -1)], "member is not <iri> or _:[A-Za-z0-9]+: '<urn:x:a>\\n<urn:x:b>'"),
])
def test_writer_raises_the_first_fault_in_file_order(tmp_path, faults, message):
    s, order = _many_eqcs()
    assert len(s.eqcs) >= 3000 and sum(map(len, s.payloads.values())) > 3 * summary_io._CHUNK_LINES
    for what, at in faults:
        _put_fault(s, what, order[at])
    ids = [order[at][:31] for what, at in faults if what == "id"]
    message = message.format(*ids)
    assert _first_fault(s) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        format_summary(s)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_summary(s, tmp_path / "s.nt")
    assert list(tmp_path.iterdir()) == []


def test_writer_passes_what_the_item_checks_pass():
    s, _ = _many_eqcs()
    assert _first_fault(s) is None
    assert format_summary(s) == reference_format(s)
    assert reload(s) == s


@pytest.mark.parametrize("empty", [(), frozenset()], ids=["tuple", "frozenset"])
def test_empty_payload_from_the_api_writes_a_zero_count(empty):
    # The writer writes what it is given; the loader refuses the result.
    s = _summary_with()
    [cid] = s.eqcs
    s.payloads[cid] = empty
    assert format_summary(s) == (
        "# mvs-summary v1 model=ACC digest=sha256\n"
        f"<urn:mvs:eqc:{cid}> <urn:mvs:attribute> <urn:p:p> .\n"
        f"<urn:mvs:eqc:{cid}> <urn:mvs:class> <urn:c:C> .\n"
        f"<urn:mvs:eqc:{cid}> <urn:mvs:payload> <urn:mvs:payload:{cid}> .\n"
        f'<urn:mvs:payload:{cid}> <urn:mvs:count> "0"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    with pytest.raises(SummaryFormatError, match=f"^line 4: EQC {cid} has an empty payload$"):
        reload(s)
    # Among thousands of EQCs it is written the same way.
    s, order = _many_eqcs()
    s.payloads[order[1500]] = empty
    assert format_summary(s) == reference_format(s)


def test_save_passes_an_oserror_without_errno_through(tmp_path, monkeypatch):
    # An OSError with an errno is raised again naming the target; one
    # without (here from the chunks, after a first chunk was written) is
    # raised as it is, and the temporary file is still removed.
    error = OSError("no errno")
    chunks = summary_io._statement_chunks

    def failing(summary):
        it = chunks(summary)
        yield next(it)
        raise error

    monkeypatch.setattr(summary_io, "_statement_chunks", failing)
    with pytest.raises(OSError) as exc:
        save_summary(_summary_with(), tmp_path / "s.nt")
    assert exc.value is error and exc.value.errno is None
    assert list(tmp_path.iterdir()) == []


def test_save_new_file_mode_is_that_of_write_bytes(tmp_path):
    umask = os.umask(0o027)
    try:
        (tmp_path / "ref").write_bytes(b"")
        save_summary(_summary_with(), tmp_path / "s.nt")
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "ref").stat().st_mode)
    assert mode == 0o640
    assert stat.S_IMODE((tmp_path / "s.nt").stat().st_mode) == mode


def test_save_overwrite_keeps_permission_bits(tmp_path):
    path = tmp_path / "s.nt"
    path.write_bytes(b"old")
    path.chmod(0o600)
    save_summary(_summary_with(), path)
    assert path.read_text(encoding="utf-8") == format_summary(_summary_with())
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_save_takes_a_name_of_the_longest_length(tmp_path):
    path = tmp_path / ("s" * 255)
    save_summary(_summary_with(), path)
    assert list(tmp_path.iterdir()) == [path]


def test_save_writes_through_a_symlink(tmp_path):
    real, link = tmp_path / "real.nt", tmp_path / "link.nt"
    real.write_bytes(b"old")
    link.symlink_to(real.name)
    save_summary(_summary_with(), link)
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text(encoding="utf-8") == format_summary(_summary_with())
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_save_writes_into_a_fifo(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    save_summary(_summary_with(), path)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [format_summary(_summary_with()).encode("utf-8")]
    assert stat.S_ISFIFO(path.stat().st_mode)
    assert list(tmp_path.iterdir()) == [path]


def test_save_memory_does_not_grow_with_the_file(tmp_path):
    # The writer holds one chunk and one payload's lines, not the whole file,
    # so each extra file byte costs it well under one byte of memory. A
    # writer that builds the file in memory costs a few bytes per file byte.
    points = []
    for vertices, edges in ((2500, 6000), (10000, 25000)):
        params = analytics.GenParams(views=1, vertices_per_view=vertices, edges_per_view=edges,
                                     predicate_alphabet=20, class_alphabet=8, overlap=0.5,
                                     type_prob=0.3, seed=5)
        (_, g), = generate_views(params)
        s = summarize(g, Model.ACC)
        path = tmp_path / f"s{vertices}.nt"
        _, peak, _ = traced(lambda: save_summary(s, path))
        points.append((s.edge_count(), peak, path.stat().st_size))
    (e1, peak1, size1), (e2, peak2, size2) = points
    assert 8_000 < e1 < 12_000 and 35_000 < e2 < 45_000
    assert (peak2 - peak1) / (size2 - size1) < 0.5


def test_save_memory_with_distinct_labels_does_not_grow_with_the_file(tmp_path):
    # Every label is met once, so the writer's set of checked labels would
    # grow with the file if it were never emptied: such a writer reads 0.35
    # here, against 0.02 for one that empties it, so the bound is tighter
    # than the 0.5 of the shared-label test above.
    points = []
    for n in 3000, 12000:
        s, _ = _many_eqcs(n, shared=n)
        path = tmp_path / f"s{n}.nt"
        _, peak, _ = traced(lambda: save_summary(s, path))
        points.append((peak, path.stat().st_size))
    (peak1, size1), (peak2, size2) = points
    assert (peak2 - peak1) / (size2 - size1) < 0.15


def test_load_peak_stays_near_the_result(tmp_path):
    # The `merge-files` benchmark's input shape: fine-grained EQCs, each id
    # on up to five lines and 320 predicates on ~30k attribute lines. A
    # loader that keeps every line's own copy of its id and label, and sets
    # for the schema sides, peaks at 2.20 times the summary it returns; one
    # that keeps one string per value and lists peaks at 1.77 times. The
    # peak is taken per statement line, which the payload shape does not
    # move: member sets peak at 158 bytes per line, member lists made
    # 1-tuple or frozenset payloads at 133.
    params = analytics.GenParams(views=1, vertices_per_view=10667, edges_per_view=32000,
                                 predicate_alphabet=320, class_alphabet=6, overlap=0.5,
                                 type_prob=0.4, seed=5)
    (_, g), = generate_views(params)
    path = tmp_path / "s.nt"
    save_summary(summarize(g, Model.ACC), path)
    lines = path.read_bytes().count(b"\n") - 1
    _, peak, _ = traced(lambda: load_summary(path))
    assert peak / lines < 140


def test_loaded_ids_and_labels_are_one_object_each():
    # Every label is on two EQCs, and an EQC's id is on its attribute or
    # class lines before its payload line.
    g = graph_of(
        (iri("x"), p("p"), iri("a")),
        (iri("x"), p("q"), iri("a")),
        (iri("y"), p("p"), iri("x")),
        (iri("y"), p("q"), iri("b")),
        (iri("x"), RDF_TYPE, cls("C")),
        (iri("a"), RDF_TYPE, cls("C")),
        (iri("a"), RDF_TYPE, cls("D")),
        (iri("b"), RDF_TYPE, cls("D")),
    )
    s = summarize(g, Model.ACC)
    loaded = reload(s)
    assert loaded == s
    labels: dict[str, set[int]] = {}
    for attributes, classes in loaded.eqcs.values():
        for label in attributes + classes:
            labels.setdefault(label, set()).add(id(label))
    assert sorted(labels) == ["urn:c:C", "urn:c:D", "urn:p:p", "urn:p:q"]
    assert all(len(ids) == 1 for ids in labels.values())
    assert sorted(map(id, loaded.eqcs)) == sorted(map(id, loaded.payloads))


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
        (iri("x"), RDF_TYPE, cls("C")),
        (iri("y"), p("q"), iri("x")),
    )
    a = format_summary(summarize(g, Model.ACC))
    b = format_summary(summarize(g, Model.ACC))
    assert a == b


HEADER = "# mvs-summary v1 model=AC digest=sha256\n"
EQC_STATEMENT = "<urn:mvs:eqc:e> <urn:mvs:payload> <urn:mvs:payload:e> .\n"


def test_parse_error_names_physical_line():
    # The header is line 1, so the garbage is on line 3.
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER, EQC_STATEMENT, "garbage here\n"])
    assert str(exc.value) == "bad statement: line 3, col 1: expected IRI or blank node subject"
    assert (exc.value.__cause__.line, exc.value.__cause__.col) == (3, 1)
    with pytest.raises(SummaryFormatError, match=r"^bad statement: line 4, col 1: invalid UTF-8"):
        read_summary([HEADER, "# comment\n", EQC_STATEMENT, b"\xff\n".decode("utf-8", "surrogateescape")])


@pytest.mark.parametrize("line, col", BARE_SURROGATES + [
    ("<urn:mvs:payload:e> <urn:mvs:member> <urn:x:\ud800> .\n", 45),
], ids=["iri", "literal", "trailing comment", "comment line", "summary statement"])
def test_bare_surrogate_is_refused(line, col):
    # The canonical member line goes through `_STATEMENT`, the rest through
    # the parser; the check runs before either.
    with pytest.raises(SummaryFormatError, match=f"^bad statement: line 3, col {col}: lone surrogate U\\+D800$"):
        read_summary([HEADER, EQC_STATEMENT, line])
    with pytest.raises(SummaryFormatError, match="^line 1, col 40: lone surrogate U\\+D800$"):
        read_summary([HEADER.replace("\n", "\ud800\n"), EQC_STATEMENT])


@pytest.mark.parametrize("line, message", [
    ('<urn:mvs:eqc:e> <urn:mvs:attribute> "lit" .\n',
     'line 3: unexpected statement: <urn:mvs:eqc:e> <urn:mvs:attribute> "lit" .'),
    ("<urn:mvs:eqc:f> <urn:mvs:payload> <urn:mvs:payload:e> .\n",
     "line 3: unexpected statement: <urn:mvs:eqc:f> <urn:mvs:payload> <urn:mvs:payload:e> ."),
    ('<urn:mvs:payload:e> <urn:mvs:count> "+1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
     'line 3: count is not a plain decimal: '
     '<urn:mvs:payload:e> <urn:mvs:count> "+1"^^<http://www.w3.org/2001/XMLSchema#integer> .'),
])
@pytest.mark.parametrize("verify", [True, False])
def test_statement_errors_name_their_line(line, message, verify):
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER, EQC_STATEMENT, line], verify=verify)
    assert str(exc.value) == message


@pytest.mark.parametrize("spacing", [" ", "  "], ids=["canonical", "extra-spaces"])
@pytest.mark.parametrize("model, predicate, message", [
    ("AC", "class", "line 3: EQC e has classes under model AC"),
    ("CC", "attribute", "line 3: EQC e has attributes under model CC"),
    ("ACC", "class", "line 2: EQC id e does not match its schema"),
    ("ACC", "attribute", "line 2: EQC id e does not match its schema"),
])
def test_a_side_the_model_omits_names_its_line(model, predicate, message, spacing):
    # The canonical line takes the statement pattern and the spaced one the
    # generic parser; both reach the same check. Under ACC either side is
    # legal, so the first error is the one after the last line.
    line = f"<urn:mvs:eqc:e>{spacing}<urn:mvs:{predicate}> <urn:v> .\n"
    assert (summary_io._STATEMENT.fullmatch(line) is not None) == (spacing == " ")
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER.replace("model=AC", f"model={model}"), EQC_STATEMENT, line])
    assert str(exc.value) == message


def test_members_out_of_order_and_repeated_load_as_the_canonical_payload():
    # Every line reversed, then every member line again: a loaded payload is
    # a 1-tuple or a frozenset of its distinct members, as `summarize` makes it.
    g = graph_of((iri("x"), p("p"), iri("a")), (iri("y"), p("p"), iri("a")), (iri("z"), p("q"), iri("a")))
    s = summarize(g, Model.AC)
    header, *body = format_summary(s).splitlines()
    members = [line for line in body if " <urn:mvs:member> " in line]
    loaded = read_summary([header, *reversed(body), *members])
    validate(loaded)
    assert loaded.payloads == s.payloads
    assert sorted(map(len, loaded.payloads.values())) == [1, 1, 2]
    assert format_summary(loaded) == format_summary(s)


def test_a_second_count_must_agree():
    count = '<urn:mvs:payload:e> <urn:mvs:count> "%s"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    member = "<urn:mvs:payload:e> <urn:mvs:member> <urn:x> .\n"
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER, EQC_STATEMENT, count % "7", member, count % "1"])
    assert str(exc.value) == "line 5: payload urn:mvs:payload:e has two counts: 7 and 1"
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER, EQC_STATEMENT, count % "1", member, count.replace("> <", ">  <") % "2"])
    assert str(exc.value) == "line 5: payload urn:mvs:payload:e has two counts: 1 and 2"
    # A repeated statement with an equal count is legal N-Triples.
    s = read_summary([HEADER, EQC_STATEMENT, count % "1", member, count % "1", count % "01"], verify=False)
    assert s.payloads == {"e": ("<urn:x>",)}


# Checks made after the last line name the line of the EQC's `payload`
# statement, or of its payload's `count` statement. Of the EQCs without a
# payload, and of the payloads attached to no EQC, they name the earliest
# statement. A `payload` statement that names another EQC's payload is an
# unexpected statement at its own line, found before any of these checks.
_INT = "<http://www.w3.org/2001/XMLSchema#integer>"
_E = eqc_id(Model.AC, (("urn:p",), ()))
_F = eqc_id(Model.AC, (("urn:q",), ()))


def _eqc_lines(cid, attribute, members, count=None, payload=None):
    payload = payload or cid
    lines = [
        f"<urn:mvs:eqc:{cid}> <urn:mvs:attribute> <{attribute}> .",
        f"<urn:mvs:eqc:{cid}> <urn:mvs:payload> <urn:mvs:payload:{payload}> .",
    ]
    lines.append(f'<urn:mvs:payload:{payload}> <urn:mvs:count> "{count or len(members)}"^^{_INT} .')
    lines += [f"<urn:mvs:payload:{payload}> <urn:mvs:member> <{m}> ." for m in members]
    return lines


@pytest.mark.parametrize("body, message", [
    (_eqc_lines(_E, "urn:p", ["urn:x"], count="7"),
     f"line 4: EQC {_E}: count 7 != 1 members"),
    (_eqc_lines(_E, "urn:p", []),
     f"line 3: EQC {_E} has an empty payload"),
    ([line for line in _eqc_lines(_E, "urn:p", ["urn:x"]) if "urn:mvs:count" not in line],
     f"line 3: payload of EQC {_E} has no count"),
    (_eqc_lines(_E, "urn:q", ["urn:x"]),
     f"line 3: EQC id {_E} does not match its schema"),
    (_eqc_lines(_E, "urn:p", ["urn:x"]) + _eqc_lines(_F, "urn:q", ["urn:y", "urn:x"]),
     f"line 7: member <urn:x> of EQC {_F} already appears in EQC {_E}"),
    ([f"<urn:mvs:eqc:{_F}> <urn:mvs:payload> <urn:mvs:payload:{_E}> ."] + _eqc_lines(_E, "urn:p", ["urn:x"]),
     f"line 2: unexpected statement: <urn:mvs:eqc:{_F}> <urn:mvs:payload> <urn:mvs:payload:{_E}> ."),
    (_eqc_lines(_E, "urn:p", ["urn:x"]) + [f"<urn:mvs:eqc:{_F}> <urn:mvs:attribute> <urn:q> ."],
     f"line 6: EQCs without payloads: ['{_F}']"),
    (["<urn:mvs:eqc:b> <urn:mvs:attribute> <urn:q> .", "<urn:mvs:eqc:a> <urn:mvs:attribute> <urn:p> ."],
     "line 2: EQCs without payloads: ['a', 'b']"),
    (_eqc_lines(_E, "urn:p", ["urn:x"]) + _eqc_lines(_F, "urn:q", ["urn:y"], payload="P")[2:],
     "line 6: payload vertices never attached to an EQC: ['urn:mvs:payload:P']"),
    (["<urn:mvs:payload:q> <urn:mvs:member> <urn:y> .", f'<urn:mvs:payload:p> <urn:mvs:count> "1"^^{_INT} .',
      "<urn:mvs:payload:p> <urn:mvs:member> <urn:x> ."],
     "line 2: payload vertices never attached to an EQC: ['urn:mvs:payload:p', 'urn:mvs:payload:q']"),
])
def test_checks_after_the_last_line_name_a_line(body, message):
    with pytest.raises(SummaryFormatError) as exc:
        read_summary([HEADER, *body])
    assert str(exc.value) == message


@pytest.mark.parametrize("body, message", [
    (["<urn:mvs:eqc:c> <urn:mvs:class> <urn:C> ."], "line 2: EQCs without payloads: ['c']"),
    (["<urn:mvs:eqc:c> <urn:mvs:class> <urn:C> .", "<urn:mvs:eqc:c> <urn:mvs:attribute> <urn:p> ."],
     "line 2: EQCs without payloads: ['c']"),
    (["<urn:mvs:eqc:c> <urn:mvs:attribute> <urn:p> .", "<urn:mvs:eqc:c> <urn:mvs:class> <urn:C> ."],
     "line 2: EQCs without payloads: ['c']"),
    (["<urn:mvs:eqc:d> <urn:mvs:attribute> <urn:p> .", "<urn:mvs:eqc:c> <urn:mvs:class> <urn:C> ."],
     "line 2: EQCs without payloads: ['c', 'd']"),
    (["<urn:mvs:eqc:d> <urn:mvs:payload> <urn:mvs:payload:d> .", "<urn:mvs:eqc:c> <urn:mvs:class> <urn:C> ."],
     "line 3: EQCs without payloads: ['c']"),
])
def test_an_eqc_without_payload_is_named_at_its_first_attribute_or_class(body, message):
    # Under ACC either side may name an EQC first; the earliest line is named.
    with pytest.raises(SummaryFormatError) as exc:
        read_summary(["# mvs-summary v1 model=ACC digest=sha256\n", *body])
    assert str(exc.value) == message


@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("digest", ["sha512", "md5", "nosuch"])
def test_header_naming_another_digest_is_format_error(digest, verify):
    # Every id is a SHA-256 digest. A file whose header names another digest
    # may hold ids that would never meet those of the same schemas, so it is
    # refused even when no id is recomputed.
    s = summarize(graph_of((iri("x"), p("p"), iri("a"))), Model.AC)
    text = format_summary(s).replace("digest=sha256", f"digest={digest}")
    assert is_summary_header(text.splitlines()[0])
    with pytest.raises(SummaryFormatError) as exc:
        read_summary(text.splitlines(), verify=verify)
    assert str(exc.value) == f"line 1: unsupported digest '{digest}'"


# --- the statement pattern and the per-line fallback --------------------------
#
# `read_summary` reads `_BATCH` lines at a time with one `findall` of
# `_STATEMENT`. A batch with a line the pattern rejects is read line by line
# (`_line_rows`), and only the lines the pattern rejects go through
# `_respelled`, whose canonical spelling meets the same pattern. Canonical
# files must never need either fallback, and the paths must agree on every
# input. Lines without their `\n` always take the per-line path: joined,
# they are one line.

def _sample_summaries():
    rng = random.Random(21)
    out = [summarize(build_graph([]), model) for model in Model]
    for model in Model:
        for _ in range(8):
            out.append(summarize(random_graph(rng, max_vertices=20, max_edges=40, blank_prob=0.3), model))
    return out


def test_canonical_files_never_take_the_fallback(tmp_path, monkeypatch):
    def fallback(raw, lineno):
        raise AssertionError(f"line {lineno} took the fallback: {raw!r}")

    monkeypatch.setattr(summary_io, "_respelled", fallback)
    summaries = _sample_summaries()
    kinds = {m[0] for s in summaries for m in s.member_index}
    assert kinds == {"<", "_"}
    path = tmp_path / "s.nt"
    for s in summaries:
        assert read_summary(format_summary(s).splitlines()) == s
        save_summary(s, path)
        assert load_summary(path) == s


def _batched_summary(n=190):
    """A valid ACC summary of 1,216 statement lines, more than four batches,
    the last one part full, with non-ASCII IRIs and members, blank members
    and payloads of one and of three members."""
    s = Summary(model=Model.ACC)
    for i in range(n):
        schema = (f"urn:p:{i % 7}", f"urn:p:é{i}"), (f"urn:c:{i % 3}",)
        cid = eqc_id(Model.ACC, schema)
        s.eqcs[cid] = schema
        s.payloads[cid] = frozenset([f"_:b{i}", f"<urn:x:ü{i}>", f"<urn:x:{i}>"]) if i % 5 == 0 else (f"<urn:x:é{i}>",)
    return s


def test_canonical_files_never_leave_the_batch_path(tmp_path, monkeypatch):
    def per_line(lines, start):
        raise AssertionError(f"lines {start}-{start + len(lines) - 1} were read one by one")

    def fallback(raw, lineno):
        raise AssertionError(f"line {lineno} took the fallback: {raw!r}")

    s = _batched_summary()
    path = tmp_path / "s.nt"
    save_summary(s, path)
    text = path.read_text(encoding="utf-8")
    assert not text.isascii() and text.count("\n") > 3 * summary_io._BATCH + 1
    monkeypatch.setattr(summary_io, "_line_rows", per_line)
    monkeypatch.setattr(summary_io, "_respelled", fallback)
    assert load_summary(path) == s
    assert read_summary(text.splitlines(keepends=True)) == s


def _edge_cases():
    """(name, line, whether its batch is read line by line, the error or
    None) for lines put into `_batched_summary()`'s file: a repeat of a
    valid statement, a line the pattern rejects, a line that is not UTF-8,
    and lines the pattern takes whose values are empty."""
    s = _batched_summary()
    cid = sorted(s.eqcs)[1]
    member = next(iter(s.payloads[cid]))
    eqc, pay = f"<urn:mvs:eqc:{cid}>", f"<urn:mvs:payload:{cid}>"
    return [
        ("non-ASCII member", f"{pay} <urn:mvs:member> {member} .", False, None),
        ("comment", "# a comment", True, None),
        ("surrogate", f"{pay} <urn:mvs:member> <urn:x:\udcff> .", True,
         f"line {{n}}, col {len(pay) + 26}: invalid UTF-8"),
        ("empty id", "<urn:mvs:eqc:> <urn:mvs:payload> <urn:mvs:payload:> .", False, "line {n}: EQC id  does not match"),
        ("empty label", f"{eqc} <urn:mvs:attribute> <> .", False, f"EQC id {cid} does not match"),
        ("empty count", f'{pay} <urn:mvs:count> ""^^<http://www.w3.org/2001/XMLSchema#integer> .', False,
         "line {n}: count is not a plain decimal"),
    ]


_EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("where", ["first of a batch", "last of a batch", "last of the file"])
@pytest.mark.parametrize("line, by_line, error", [case[1:] for case in _EDGE_CASES], ids=[case[0] for case in _EDGE_CASES])
def test_faults_at_batch_edges_read_as_line_by_line(monkeypatch, where, line, by_line, error):
    text = format_summary(_batched_summary())
    lines = text.splitlines(keepends=True)
    # Lines 2 to 257 are the first batch; the file's last line is not the
    # first of its batch.
    n = {"first of a batch": 2 + summary_io._BATCH, "last of a batch": 1 + 2 * summary_io._BATCH,
         "last of the file": len(lines) + 1}[where]
    assert (len(lines) - 1) % summary_io._BATCH != 0
    lines.insert(n - 1, line + "\n")
    if where == "last of the file":
        lines[-1] = line
    per_line = [raw.rstrip("\n") for raw in lines]
    # Only the batch holding a line the pattern rejects is read line by line.
    starts = []
    line_rows = summary_io._line_rows

    def spy(batch, start):
        starts.append(start)
        return line_rows(batch, start)

    monkeypatch.setattr(summary_io, "_line_rows", spy)
    outcome = _load_outcome(lines, True)
    assert starts == ([n - (n - 2) % summary_io._BATCH] if by_line else [])
    monkeypatch.undo()
    assert outcome == _load_outcome(per_line, True)
    if error is None:
        assert outcome == read_summary(text.splitlines())
    else:
        assert outcome[0] is SummaryFormatError and error.format(n=n) in outcome[1]
    assert _load_outcome(lines, False) == _load_outcome(per_line, False)


def _variants(text):
    lines = text.splitlines()
    head, body = lines[0], lines[1:]
    yield "tabs and spaces", [head] + [" \t" + line.replace(" ", "\t  ") + "\t" for line in body]
    yield "comments", [head, "", "# note"] + [line + " # trailing" for line in body] + ["  "]
    yield "escaped member", [head] + [line.replace("<urn:x:A>", r"<urn:x:\u0041>") for line in body]
    yield "crlf", [line + "\r\n" for line in lines]
    yield "every statement twice", [head] + [line for line in body for _ in range(2)]
    shuffled = body[:]
    random.Random(7).shuffle(shuffled)
    yield "statements shuffled", [head] + shuffled


def test_non_canonical_lines_load_equal():
    # `A` has two attributes and `_:b` two classes, which a shuffle parts.
    g = graph_of(
        (iri("A"), p("p"), "_:b"),
        (iri("A"), p("q"), iri("y")),
        ("_:b", RDF_TYPE, cls("C")),
        ("_:b", RDF_TYPE, cls("D")),
        (iri("y"), p("q"), iri("A")),
    )
    for model in Model:
        s = summarize(g, model)
        text = format_summary(s)
        assert read_summary(text.splitlines()) == s
        for name, lines in _variants(text):
            assert lines != text.splitlines(), name
            assert read_summary(lines) == s, name


_MVS_PREDICATES = [f"<urn:mvs:{name}>" for name in ("attribute", "class", "payload", "member", "count")]


@st.composite
def _summary_files(draw):
    seed = draw(st.integers(0, 10**9))
    model = draw(st.sampled_from(list(Model)))
    g = random_graph(random.Random(seed), max_vertices=10, max_edges=16, blank_prob=0.3)
    return format_summary(summarize(g, model)).splitlines(keepends=draw(st.booleans()))


@st.composite
def _mutated_files(draw):
    lines = list(draw(_summary_files()))
    if len(lines) == 1:
        return lines
    k = draw(st.integers(1, len(lines) - 1))
    line = lines[k]
    i = draw(st.integers(0, len(line)))
    how = draw(st.sampled_from(["delete", "insert", "truncate", "predicate", "count"]))
    if how == "delete":
        line = line[:i] + line[i + 1:]
    elif how == "insert":
        line = line[:i] + draw(st.sampled_from(list('<>"_:.^@# \t\\'))) + line[i:]
    elif how == "truncate":
        line = line[:i]
    elif how == "predicate":
        old = line.split(" ")[1]
        line = line.replace(old, draw(st.sampled_from(_MVS_PREDICATES + ["<urn:other>"])), 1)
    else:
        line = re.sub(r'"[0-9]+"', '"%s"' % draw(st.sampled_from(["+1", "-1", "x", "1a", "\u0661", " 1", ""])), line)
    lines[k] = line
    return lines


def _load_outcome(lines, verify):
    try:
        return read_summary(lines, verify=verify)
    except ValueError as exc:
        return (type(exc), str(exc))


def _one_member_file(member, count='"1"'):
    return [
        HEADER,
        EQC_STATEMENT,
        f"<urn:mvs:payload:e> <urn:mvs:count> {count}^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        f"<urn:mvs:payload:e> <urn:mvs:member> {member} .\n",
    ]


@given(st.one_of(_summary_files(), _mutated_files()), st.booleans())
@example(_one_member_file("_:b_1"), False)
@example(_one_member_file("_:b1", r'"\u0031"'), False)
@example(_one_member_file("_:b1", '"1\t"'), False)
@example(_one_member_file(r"<urn:x:\u0041>"), False)
@settings(max_examples=1000, deadline=None)
def test_statement_pattern_agrees_with_generic_parse(lines, verify):
    # A tab for the first space sends every body line through the fallback
    # and keeps every column, so a parse error reads the same.
    generic = lines[:1] + [line.replace(" ", "\t", 1) for line in lines[1:]]
    assert _load_outcome(lines, verify) == _load_outcome(generic, verify)


@given(st.one_of(_summary_files(), _mutated_files()), st.sampled_from([1, 2, 3, 256]), st.booleans())
@example([HEADER, EQC_STATEMENT + "<", EQC_STATEMENT], 1, False)
@example([HEADER, EQC_STATEMENT + "<", EQC_STATEMENT], 2, False)
@settings(max_examples=1000, deadline=None)
def test_batch_and_per_line_reads_agree(lines, batch, verify):
    # Ended lines take `findall` a batch at a time, down to one line;
    # without their ends every batch of two or more is read line by line.
    bare = [line[:-1] if line.endswith("\n") else line for line in lines]
    with mock.patch.object(summary_io, "_BATCH", batch):
        assert _load_outcome([line + "\n" for line in bare], verify) == _load_outcome(bare, verify)



@pytest.mark.parametrize("batch", [1, 256])
def test_a_string_of_two_lines_fails_in_a_batch(batch):
    # The blank line after it keeps the batch's `\n` count equal to its
    # strings, yet the string is not one line, so it fails at its line.
    head, eqc, count, member = _one_member_file("<urn:x:a>")
    lines = [head, eqc + count.rstrip("\n"), "\n", member]
    with mock.patch.object(summary_io, "_BATCH", batch):
        with pytest.raises(SummaryFormatError, match="^bad statement: line 2, col 56: trailing garbage after '.'$"):
            read_summary(lines)

# --- the writer's order against one global sort ----------------------------------
#
# The writer emits each EQC subject's sorted lines, then each payload
# subject's, with the subjects in sorted order. That is one sort of all lines
# because no IRI holds `>`, so no subject is a prefix of another, and
# `<urn:mvs:eqc:` sorts before `<urn:mvs:payload:`, whose subjects hold the
# same ids. Whole subjects and lines are compared, never bare ids or IRIs:
# `<urn:a/b> .` sorts before `<urn:a> .`, and the subject of id `ab!` before
# that of `ab`, so the writer sorts the ids as `ID>` once one is a prefix of
# the next. The summaries below are built through the API and never
# validated, from pools of such ids and IRIs.

_IDS = ["abc", "abc1", "ab", "ab!", "ab=", "ab/", "abd", "a", ""]
_IRIS = ["urn:a", "urn:a/b", "urn:a!", "urn:a=", "urn:a;", "urn:ab", "urn:a0", "urn:é"]
_MEMBERS = [f"<{i}>" for i in _IRIS] + [f"_:{b}" for b in ("b", "b1", "B", "b0")]


@st.composite
def _adversarial_summaries(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), unique=True))
    side = st.lists(st.sampled_from(_IRIS), max_size=4).map(tuple)
    s = Summary(model=draw(st.sampled_from(list(Model))))
    for cid in ids:
        s.eqcs[cid] = (draw(side), draw(side))
        s.payloads[cid] = draw(st.sets(st.sampled_from(_MEMBERS), max_size=6))
    return s


@given(_adversarial_summaries())
@example(Summary(model=Model.AC))
@example(Summary(model=Model.ACC, eqcs={"abc": (("urn:a", "urn:a/b"), ()), "abc1": ((), ()), "ab": ((), ())},
                 payloads={"abc": {"<urn:a>", "<urn:a!>"}, "abc1": {"_:b"}, "ab": set()}))
@settings(max_examples=500, deadline=None)
def test_writer_order_is_one_global_sort(s):
    assert format_summary(s) == reference_format(s)


@st.composite
def _api_summaries(draw):
    # Valid in most respects, but a side may be out of order, repeat an IRI
    # or be one the model omits; each EQC carries the id of what it holds.
    model = draw(st.sampled_from(list(Model)))
    side = st.lists(st.sampled_from(_IRIS), max_size=3).map(tuple)
    members = draw(st.lists(st.sampled_from(_MEMBERS), unique=True))
    s = Summary(model=model)
    while members:
        schema = draw(side), draw(side)
        cid = eqc_id(model, schema)
        if cid in s.eqcs:
            continue
        k = draw(st.integers(1, len(members)))
        s.eqcs[cid] = schema
        s.payloads[cid] = (members[0],) if k == 1 else frozenset(members[:k])
        members = members[k:]
    return s


@given(_api_summaries())
@settings(max_examples=300, deadline=None)
def test_every_valid_summary_reads_back_equal(s):
    try:
        validate(s)
    except ValueError:
        return
    assert reload(s) == s
