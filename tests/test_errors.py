"""The error taxonomy, and `mvsum` runs on mutated input files.

Every exception class mvsum defines is a `DataError` (exit 1) or a
`UsageError` (exit 2), never both. The mutation tests feed `mvsum.cli.main`
graph and summary files with flipped bytes; dropped, duplicated or swapped
lines; edited ids and counts; and edited headers. No run may end in a
traceback, an exit 1 must name the file and a line, and an exit 2 is
allowed only where both summary headers parse and differ in model.
The agreement tests insert a byte that is not UTF-8, or cut a character, in
a graph and a summary with LF, CRLF or CR line ends: the run must name the
line, column and reason that strict decoding of each line gives.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsum
from helpers import first_undecodable_line, graph_of, iri, p
from mvsum import DataError, Model, UsageError, cli, merge_all, summarize
from mvsum.analytics import GenParams, pearson
from mvsum.graph import build_graph
from mvsum.merge import CorruptSummaryError, MergeConfigError
from mvsum.multimerge import Strategy
from mvsum.ntriples import RDF_TYPE, ParseError, Triple
from mvsum.summary_io import SummaryFormatError, load_summary


def test_every_error_class_is_a_data_or_a_usage_error():
    classes = set()
    for info in pkgutil.iter_modules(mvsum.__path__):
        module = importlib.import_module(f"mvsum.{info.name}")
        classes |= {
            c for _, c in inspect.getmembers(module, inspect.isclass)
            if issubclass(c, BaseException) and c.__module__.startswith("mvsum.")
        }
    classes -= {DataError, UsageError}
    assert classes >= {ParseError, SummaryFormatError, CorruptSummaryError, MergeConfigError}
    for c in classes:
        assert issubclass(c, DataError) != issubclass(c, UsageError), c
    assert issubclass(DataError, ValueError) and issubclass(UsageError, ValueError)


def test_library_checks_raise_by_kind():
    with pytest.raises(UsageError, match="views must be positive"):
        GenParams(0, 1, 1, 1, 1, 0.5, 0.5, 0)
    with pytest.raises(UsageError, match="requires an explicit seed"):
        Strategy("random")
    with pytest.raises(UsageError, match="zero-variance"):
        pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(DataError, match="rdf:type object must be an IRI"):
        build_graph([Triple(iri("a"), RDF_TYPE, '"x"')])
    with pytest.raises(DataError, match="subject must be an IRI or blank node"):
        build_graph([Triple('"x"', p("p"), iri("a"))])
    g = graph_of((iri("a"), p("p"), iri("b")))
    with pytest.raises(MergeConfigError, match="^all summaries must share one model: in0 is model=AC, in1 is model=CC$"):
        merge_all([summarize(g, Model.AC), summarize(g, Model.CC)], Strategy.smallest_first())


# Two overlapping views: IRIs, blank nodes, literals and classes, so their
# summaries have members of both kinds and their merge has case-3 members.
# The fixture adds an empty graph.
GRAPHS = [
    f"""<urn:x:a> <urn:p:p> <urn:x:b> .
<urn:x:a> <{RDF_TYPE}> <urn:c:C> .
<urn:x:b> <urn:p:q> "lit" .
_:n1 <urn:p:p> <urn:x:a> .
<urn:x:c> <urn:p:q> _:n2 .
<urn:x:c> <{RDF_TYPE}> <urn:c:D> .
<urn:x:d> <urn:p:r> "x"@en .
# a comment
<urn:x:e> <urn:p:p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
""",
    f"""<urn:x:a> <urn:p:q> <urn:x:c> .
<urn:x:b> <{RDF_TYPE}> <urn:c:C> .
_:n1 <urn:p:r> "y" .
<urn:x:f> <urn:p:p> <urn:x:e> .
<urn:x:e> <{RDF_TYPE}> <urn:c:D> .
""",
]

MODELS = ["AC", "CC", "ACC", "XYZ"]
DIGESTS = ["sha256", "sha512", "md5", "sha1", "nosuch", "shake_128"]
COUNTS = ["0", "2", "007", "-1", "+1", "1.0", "", "x", "٣", "9" * 5000]
_ID = re.compile(rb"[0-9a-f]{32}")
_COUNT = re.compile(rb'"[^"]*"\^\^')


@st.composite
def mutated(draw, text: bytes, summary: bool, min_size: int = 1):
    """`text` after `min_size` to 3 mutations; ids, counts and the header only in a summary."""
    lines = text.splitlines(keepends=True)
    kinds = ["flip", "drop", "dup", "swap"] + (["id", "rename", "count", "header"] if summary else [])
    for _ in range(draw(st.integers(min_size, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(kinds))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "flip":
            line = bytearray(lines[i])
            j = draw(st.integers(0, len(line) - 1))
            line[j] ^= draw(st.integers(1, 255))
            lines[i] = bytes(line)
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("id", "rename"):
            ids = _ID.findall(b"".join(lines))
            if not ids:
                continue
            old = draw(st.sampled_from(ids))
            k = draw(st.integers(0, 31))
            new = old[:k] + bytes([draw(st.sampled_from(b"0123456789abcdef".replace(old[k:k + 1], b"")))]) + old[k + 1:]
            if kind == "id":  # one line only
                lines[i] = lines[i].replace(old, new)
            else:  # the whole file, consistently
                lines = [line.replace(old, new) for line in lines]
        elif kind == "count":
            counted = [n for n, line in enumerate(lines) if _COUNT.search(line)]
            if not counted:
                continue
            n = draw(st.sampled_from(counted))
            value = draw(st.sampled_from(COUNTS)).encode("utf-8")
            edited = _COUNT.sub(b'"' + value + b'"^^', lines[n], count=1)
            if draw(st.booleans()):
                lines[n] = edited
            else:  # a second count statement for the same payload
                lines.insert(n + 1, edited)
        else:
            model, digest = draw(st.sampled_from(MODELS)), draw(st.sampled_from(DIGESTS))
            lines[0] = f"# mvs-summary v1 model={model} digest={digest}\n".encode()
    return b"".join(lines)


def _main(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _assert_names_file_and_line(err: str, path) -> None:
    assert err.startswith(f"error: {path}: "), err
    assert re.search(r"\bline [1-9][0-9]*\b", err), err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutation")
    for i, text in enumerate(GRAPHS + [""]):
        (d / f"g{i}.nt").write_text(text)
        assert _main("summarize", d / f"g{i}.nt", "-o", d / f"s{i}.nt") == (0, "")
    return d


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_summarize_mutated_graph(work, data):
    path, out = work / "graph.nt", work / "graph_summary.nt"
    path.write_bytes(data.draw(mutated(GRAPHS[0].encode(), summary=False)))
    code, err = _main("summarize", path, "-o", out)
    assert code in (0, 1), err
    if code == 1:
        _assert_names_file_and_line(err, path)
    else:
        load_summary(out)  # what the parser accepts is written back loadably


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_merge_mutated_summaries(work, data):
    left, right, out = work / "left.nt", work / "right.nt", work / "merged.nt"
    # An empty summary on the left stays valid under an edited header.
    originals = [(work / f"s{data.draw(st.sampled_from([0, 2]))}.nt").read_bytes(), (work / "s1.nt").read_bytes()]
    left.write_bytes(data.draw(mutated(originals[0], summary=True, min_size=0)))
    right.write_bytes(data.draw(mutated(originals[1], summary=True)))
    code, err = _main("merge", left, right, "-o", out)
    if code == 0:
        load_summary(out)
    elif code == 1:
        named = [(path, original) for path, original in zip((left, right), originals) if err.startswith(f"error: {path}: ")]
        assert len(named) == 1, err
        path, original = named[0]
        assert path.read_bytes() != original, err
        _assert_names_file_and_line(err, path)
    else:
        assert code == 2, err
        s1, s2 = load_summary(left), load_summary(right)
        assert s1.model != s2.model, err
        assert err.startswith(f"error: cannot merge: {left} is model="), err


# Characters of two, three and four bytes in IRIs, a literal, a language-
# tagged literal, a class and a comment, so that a summary holds them too.
UTF8_GRAPH = f"""<urn:x:caf\u00e9> <urn:p:\u00fcber> <urn:x:\u65e5\u672c> .
<urn:x:\u65e5\u672c> <{RDF_TYPE}> <urn:c:\u00c4\u00df> .
_:b1 <urn:p:p> "na\u00efve \U0001F600"@en .
# a comment: \u00e9t\u00e9
<urn:x:a> <urn:p:\u00fcber> <urn:x:caf\u00e9> .
<urn:x:\U0001F600> <urn:p:p> "\u20ac" .
"""


@st.composite
def undecodable(draw, text: str) -> bytes:
    """`text` with LF, CRLF or CR line ends and one byte inserted or one character cut."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = "".join(line + eol for line in text.splitlines()).encode("utf-8")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        return data[:i] + bytes([draw(st.integers(0x80, 0xFF))]) + data[i:]
    start = draw(st.sampled_from([i for i, b in enumerate(data) if b >= 0xC0]))
    size = 2 if data[start] < 0xE0 else 3 if data[start] < 0xF0 else 4
    a = draw(st.integers(start, start + size - 1))
    b = draw(st.integers(a + 1, start + size - (a == start)))
    return data[:a] + data[b:]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=undecodable(UTF8_GRAPH))
def test_summarize_names_the_first_undecodable_byte(work, data):
    path, out = work / "utf8.nt", work / "utf8_summary.nt"
    path.write_bytes(data)
    line, col, reason = first_undecodable_line(data)
    assert _main("summarize", path, "-o", out) == (1, f"error: {path}: line {line}, col {col}: invalid UTF-8: {reason}\n")
    # Skipping malformed lines skips exactly that one.
    assert _main("summarize", path, "-o", out, "--skip-malformed") == (0, f"{path}: skipped 1 malformed line(s)\n")
    without, expected = work / "utf8_without.nt", work / "utf8_without_summary.nt"
    without.write_bytes(b"".join(text for n, text in enumerate(data.splitlines(keepends=True), 1) if n != line))
    assert _main("summarize", without, "-o", expected) == (0, "")
    assert out.read_bytes() == expected.read_bytes()


@pytest.fixture(scope="module")
def utf8_summary(work):
    (work / "utf8_graph.nt").write_text(UTF8_GRAPH, encoding="utf-8")
    assert _main("summarize", work / "utf8_graph.nt", "-o", work / "utf8_s.nt") == (0, "")
    return (work / "utf8_s.nt").read_text(encoding="utf-8")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_merge_names_the_first_undecodable_byte(work, utf8_summary, data):
    right, out = work / "utf8_right.nt", work / "utf8_merged.nt"
    mutated = data.draw(undecodable(utf8_summary))
    right.write_bytes(mutated)
    line, col, reason = first_undecodable_line(mutated)
    where = f"line {line}, col {col}" if line == 1 else f"bad statement: line {line}, col {col}"
    assert _main("merge", work / "utf8_s.nt", right, "-o", out) == (1, f"error: {right}: {where}: invalid UTF-8: {reason}\n")
