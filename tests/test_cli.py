import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env
from mvsum.cli import main
from mvsum.ntriples import RDF_TYPE
from mvsum.summary_io import load_summary

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def test_summarize_golden_tiny_graph(tmp_path):
    # Expected file derived independently: partition {a},{b} by hand (a has
    # attribute urn:p:p and class urn:c:C; b has the attribute only), ids
    # hashed straight from the canonical strings.
    out = tmp_path / "tiny.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "--model", "ACC", "-o", out) == 0
    id_a = hashlib.sha256(b"ACC\n<urn:p:p>\n|\n<urn:c:C>\n").hexdigest()[:32]
    id_b = hashlib.sha256(b"ACC\n<urn:p:p>\n|\n").hexdigest()[:32]
    body = sorted([
        f"<urn:mvs:eqc:{id_a}> <urn:mvs:attribute> <urn:p:p> .",
        f"<urn:mvs:eqc:{id_a}> <urn:mvs:class> <urn:c:C> .",
        f"<urn:mvs:eqc:{id_a}> <urn:mvs:payload> <urn:mvs:payload:{id_a}> .",
        f"<urn:mvs:payload:{id_a}> <urn:mvs:member> <urn:x:a> .",
        f"<urn:mvs:payload:{id_a}> <urn:mvs:count> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        f"<urn:mvs:eqc:{id_b}> <urn:mvs:attribute> <urn:p:p> .",
        f"<urn:mvs:eqc:{id_b}> <urn:mvs:payload> <urn:mvs:payload:{id_b}> .",
        f"<urn:mvs:payload:{id_b}> <urn:mvs:member> <urn:x:b> .",
        f"<urn:mvs:payload:{id_b}> <urn:mvs:count> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
    ])
    expected = "# mvs-summary v1 model=ACC digest=sha256\n" + "\n".join(body) + "\n"
    assert out.read_text() == expected
    # committed golden copy stays byte-stable
    assert out.read_bytes() == (DATA / "tiny_graph_acc.golden.nt").read_bytes()


def test_summarize_empty_file(tmp_path):
    empty = tmp_path / "empty.nt"
    empty.write_text("")
    out = tmp_path / "s.nt"
    assert run("summarize", empty, "-o", out) == 0
    assert out.read_text() == "# mvs-summary v1 model=ACC digest=sha256\n"
    assert load_summary(out).eqcs == {}


def test_summarize_malformed_fail_fast(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text("<urn:a> <urn:p> <urn:b> .\nbroken line\n")
    assert run("summarize", bad, "-o", tmp_path / "s.nt") == 1
    assert "line 2" in capsys.readouterr().err


def test_summarize_skip_mode(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text("<urn:a> <urn:p> <urn:b> .\nbroken line\n")
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out, "--skip-malformed") == 0
    assert "skipped 1" in capsys.readouterr().err
    assert len(load_summary(out).member_index) == 2


def test_summarize_escaped_forbidden_iri_character_is_data_error(tmp_path, capsys):
    # Parsed, this IRI holds a space, which the summary writer would refuse.
    bad = tmp_path / "bad.nt"
    bad.write_text("<urn:a> <urn:p> <urn:b> .\n<urn:a\\u0020b> <urn:p> <urn:b> .\n")
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out) == 1
    assert "line 2, col 7" in capsys.readouterr().err
    assert not out.exists()
    assert run("summarize", bad, "-o", out, "--skip-malformed") == 0
    assert len(load_summary(out).member_index) == 2


@pytest.mark.parametrize("line, col", [
    ("<urn:a\\uD800> <urn:p> <urn:b> .", 7),
    ('<urn:a> <urn:p> "x\\U0000DFFF" .', 19),
])
def test_summarize_surrogate_escape_is_data_error(tmp_path, capsys, line, col):
    bad = tmp_path / "bad.nt"
    bad.write_text(line + "\n")
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out) == 1
    assert f"line 1, col {col}: escape of a surrogate code point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("obj, col", [('"x"', 59), ("_:c", 59)])
def test_summarize_rdf_type_object_not_iri_is_data_error(tmp_path, capsys, obj, col):
    bad = tmp_path / "bad.nt"
    bad.write_text(f"<urn:a> <urn:p> <urn:b> .\n<urn:a> <{RDF_TYPE}> {obj} .\n")
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out) == 1
    assert f"line 2, col {col}: rdf:type object must be an IRI" in capsys.readouterr().err
    assert not out.exists()


def test_summarize_rdf_type_object_not_iri_is_skipped(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text(f'<urn:a> <urn:p> <urn:b> .\n<urn:a> <{RDF_TYPE}> "x" .\n<urn:a> <{RDF_TYPE}> <urn:C> .\n')
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out, "--skip-malformed") == 0
    assert "skipped 1" in capsys.readouterr().err
    s = load_summary(out)
    assert len(s.member_index) == 2
    assert [schema.classes for schema in s.eqcs.values() if schema.classes] == [("urn:C",)]


def test_summarize_invalid_utf8_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(b'<urn:a> <urn:p> <urn:b> .\n<urn:\xc3\xa9> <urn:p> "\xff" .\n')
    out = tmp_path / "s.nt"
    assert run("summarize", bad, "-o", out) == 1
    assert "line 2, col 18: invalid UTF-8" in capsys.readouterr().err
    assert not out.exists()
    assert run("summarize", bad, "-o", out, "--skip-malformed") == 0
    assert "skipped 1" in capsys.readouterr().err
    assert len(load_summary(out).member_index) == 2


def test_summarize_line_ends(tmp_path, capsys):
    # LF, CRLF and a lone CR all end a line, also after a comment.
    lines = ["<urn:a> <urn:p> <urn:b> . # c", "<urn:c> <urn:p> <urn:d> .", "bad"]
    outputs = []
    for eol in ("\n", "\r\n", "\r"):
        g = tmp_path / "g.nt"
        g.write_bytes(eol.join(lines).encode("utf-8"))
        out = tmp_path / "s.nt"
        assert run("summarize", g, "-o", out) == 1
        assert "line 3, col 1" in capsys.readouterr().err
        assert run("summarize", g, "-o", out, "--skip-malformed") == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    assert len(load_summary(out).member_index) == 4


def test_summarize_digest_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MVSUM_DIGEST", "sha512")
    out = tmp_path / "s.nt"
    assert subprocess_run_ok(["summarize", str(DATA / "tiny_graph.nt"), "-o", str(out)])
    assert out.read_text().startswith("# mvs-summary v1 model=ACC digest=sha512\n")


def subprocess_run_ok(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "mvsum.cli", *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return True


def test_summarize_unknown_digest(tmp_path):
    assert run("summarize", DATA / "tiny_graph.nt", "-o", tmp_path / "s.nt", "--digest", "nope") == 2


def test_merge_with_itself_is_identity(tmp_path):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    merged = tmp_path / "m.nt"
    stats = tmp_path / "stats.csv"
    assert run("merge", s, s, "-o", merged, "--stats", stats) == 0
    assert merged.read_bytes() == s.read_bytes()
    with open(stats, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["case1"] == "2" and rows[0]["case3"] == "0"


def test_merge_header_mismatch_exits_2(tmp_path):
    a = tmp_path / "a.nt"
    b = tmp_path / "b.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "--model", "AC", "-o", a) == 0
    assert run("summarize", DATA / "tiny_graph.nt", "--model", "CC", "-o", b) == 0
    assert run("merge", a, b, "-o", tmp_path / "m.nt") == 2


@pytest.mark.parametrize("count", ["x1", "0_1"])
def test_merge_non_digit_count_is_data_error(tmp_path, capsys, count):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    bad = tmp_path / "bad.nt"
    bad.write_text(s.read_text().replace('"1"', f'"{count}"', 1))
    assert run("merge", s, bad, "-o", tmp_path / "m.nt") == 1
    assert "count is not a plain decimal" in capsys.readouterr().err


def test_merge_invalid_utf8_summary_is_data_error(tmp_path, capsys):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    bad = tmp_path / "bad.nt"
    bad.write_bytes(s.read_bytes().replace(b"urn:x:a", b"urn:x:\xff"))
    out = tmp_path / "m.nt"
    assert run("merge", s, bad, "-o", out) == 1
    assert "not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_merge_case3_fixture(tmp_path):
    g1 = tmp_path / "g1.nt"
    g2 = tmp_path / "g2.nt"
    g1.write_text("<urn:x> <urn:p> <urn:a> .\n")
    g2.write_text("<urn:x> <urn:q> <urn:b> .\n")
    s1, s2 = tmp_path / "s1.nt", tmp_path / "s2.nt"
    assert run("summarize", g1, "--model", "AC", "-o", s1) == 0
    assert run("summarize", g2, "--model", "AC", "-o", s2) == 0
    stats = tmp_path / "stats.csv"
    assert run("merge", s1, s2, "-o", tmp_path / "m.nt", "--stats", stats) == 0
    with open(stats, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["case3"] == "1"


def test_merge_all_single_file(tmp_path):
    d = tmp_path / "dir"
    d.mkdir()
    assert run("summarize", DATA / "tiny_graph.nt", "-o", d / "only.nt") == 0
    out = tmp_path / "all.nt"
    sched = tmp_path / "sched.csv"
    assert run("merge-all", d, "-o", out, "--schedule", sched) == 0
    assert out.read_bytes() == (d / "only.nt").read_bytes()
    assert sched.read_text().count("\n") == 1  # header only


def test_merge_all_strategies_identical(tmp_path):
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "4", "--vertices", "30", "--edges", "60", "--seed", "5") == 0
    d = tmp_path / "sums"
    d.mkdir()
    for f in sorted(views.glob("view*.nt")):
        assert run("summarize", f, "--model", "ACC", "-o", d / f.name) == 0
    outputs = []
    for i, strat in enumerate(["smallest-first", "largest-first", "random", "greedy-parallel"]):
        out = tmp_path / f"out{i}.nt"
        argv = ["merge-all", d, "--strategy", strat, "-o", out]
        if strat == "random":
            argv += ["--seed", "3"]
        if strat == "greedy-parallel":
            argv += ["--workers", "3"]
        assert run(*argv) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1


def test_merge_all_random_needs_seed(tmp_path):
    d = tmp_path / "dir"
    d.mkdir()
    assert run("summarize", DATA / "tiny_graph.nt", "-o", d / "a.nt") == 0
    assert run("merge-all", d, "--strategy", "random", "-o", tmp_path / "m.nt") == 2


def test_merge_all_empty_dir(tmp_path):
    d = tmp_path / "dir"
    d.mkdir()
    assert run("merge-all", d, "-o", tmp_path / "m.nt") == 2


def test_gen_writes_views_and_manifest(tmp_path):
    d = tmp_path / "views"
    assert run("gen", "-o", d, "--views", "3", "--seed", "9") == 0
    files = sorted(f.name for f in d.iterdir())
    assert files == ["manifest.json", "view0.nt", "view1.nt", "view2.nt"]
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["params"]["seed"] == 9
    assert len(manifest["views"]) == 3
    assert manifest["views"][0]["seed"] == "9:0"
    assert manifest["views"][0]["vertices"] > 0


def test_gen_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run("gen", "-o", d, "--views", "2", "--seed", "4") == 0
    for name in ("view0.nt", "view1.nt", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_invalid_fraction(tmp_path):
    assert run("gen", "-o", tmp_path / "x", "--overlap", "1.5") == 2


def test_bench_generated_views(tmp_path):
    records = tmp_path / "records.csv"
    fits = tmp_path / "fits.csv"
    assert run("bench", "--gen", "--views", "3", "--seed", "2", "--repeats", "1",
               "-o", records, "--fits", fits) == 0
    with open(records, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # n(n-1)
    with open(fits, newline="") as fh:
        fit_rows = list(csv.DictReader(fh))
    assert len(fit_rows) == 6  # 3 functions x 2 measures
    assert {r["function"] for r in fit_rows} == {"E", "ElogE", "E2"}
    assert {r["edge_measure"] for r in fit_rows} == {"sum", "union"}


@pytest.mark.parametrize("repeats", ["0", "-1", "x"])
def test_bench_repeats_must_be_positive(tmp_path, capsys, repeats):
    with pytest.raises(SystemExit) as exc:
        run("bench", "--gen", "--repeats", repeats, "-o", tmp_path / "r.csv")
    assert exc.value.code == 2
    assert "argument --repeats" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3", "x"])
def test_merge_all_workers_must_be_positive(tmp_path, capsys, workers):
    d = tmp_path / "dir"
    d.mkdir()
    assert run("summarize", DATA / "tiny_graph.nt", "-o", d / "a.nt") == 0
    with pytest.raises(SystemExit) as exc:
        run("merge-all", d, "--workers", workers, "-o", tmp_path / "m.nt")
    assert exc.value.code == 2
    assert "argument --workers" in capsys.readouterr().err
    assert not (tmp_path / "m.nt").exists()


def test_bench_zero_overlap_no_case3(tmp_path):
    records = tmp_path / "records.csv"
    assert run("bench", "--gen", "--views", "3", "--overlap", "0", "--seed", "8",
               "--repeats", "1", "-o", records) == 0
    with open(records, newline="") as fh:
        assert all(row["case3"] == "0" for row in csv.DictReader(fh))


def test_bench_on_directory_of_graphs(tmp_path):
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "3", "--seed", "6") == 0
    records = tmp_path / "records.csv"
    assert run("bench", views, "--repeats", "1", "-o", records) == 0
    with open(records, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 6


def test_bench_on_directory_of_summaries(tmp_path):
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "2", "--seed", "6") == 0
    d = tmp_path / "sums"
    d.mkdir()
    for f in sorted(views.glob("view*.nt")):
        assert run("summarize", f, "--model", "AC", "-o", d / f.name) == 0
    records = tmp_path / "records.csv"
    assert run("bench", d, "--repeats", "1", "-o", records) == 0
    with open(records, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_bench_needs_inputs_xor_gen(tmp_path):
    assert run("bench", "-o", tmp_path / "r.csv") == 2
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "2") == 0
    assert run("bench", views, "--gen", "-o", tmp_path / "r.csv") == 2


def test_bench_too_few_inputs(tmp_path):
    d = tmp_path / "one"
    d.mkdir()
    assert run("summarize", DATA / "tiny_graph.nt", "-o", d / "a.nt") == 0
    assert run("bench", d, "-o", tmp_path / "r.csv") == 2


def test_missing_input_file_is_data_error(tmp_path):
    assert run("summarize", tmp_path / "nope.nt", "-o", tmp_path / "s.nt") == 1


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mvsum.cli", "summarize", str(DATA / "tiny_graph.nt"),
         "-o", str(tmp_path / "s.nt")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
