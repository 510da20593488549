import csv
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env
from mvsum.cli import main
from mvsum.ntriples import RDF_TYPE
from mvsum.summary_io import load_summary

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


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
    assert capsys.readouterr().err == f"error: {bad}: line 2, col 1: expected IRI or blank node subject\n"


def test_summarize_into_a_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "out.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", out) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


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
    assert [classes for _, classes in s.eqcs.values() if classes] == [("urn:C",)]


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


def test_summarize_ignores_digest_env(tmp_path):
    # Every id is a SHA-256 digest; MVSUM_DIGEST is not read.
    out = tmp_path / "s.nt"
    proc = subprocess.run(
        [sys.executable, "-m", "mvsum.cli", "summarize", str(DATA / "tiny_graph.nt"), "-o", str(out)],
        capture_output=True, text=True, env=child_env(MVSUM_DIGEST="sha512"),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("# mvs-summary v1 model=ACC digest=sha256\n")


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


def test_merge_statement_error_names_line(tmp_path, capsys):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    lines = s.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("<urn:p:p>", '"urn:p:p"')
    assert '<urn:mvs:attribute> "urn:p:p" .' in lines[1]
    bad = tmp_path / "bad.nt"
    bad.write_text("".join(lines))
    assert run("merge", s, bad, "-o", tmp_path / "m.nt") == 1
    err = capsys.readouterr().err
    assert "line 2: unexpected statement" in err


def test_merge_unknown_header_digest_is_data_error(tmp_path, capsys):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    bad = tmp_path / "bad.nt"
    bad.write_text(s.read_text().replace("digest=sha256", "digest=nosuch", 1))
    out = tmp_path / "m.nt"
    assert run("merge", s, bad, "-o", out) == 1
    assert "line 1: unsupported digest 'nosuch'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, old, new", [
    (2, "<urn:p:p> .", '"urn:p:p" .'),
    (1, "digest=sha256", "digest=nosuch"),
])
@pytest.mark.parametrize("command", ["merge", "merge-all"])
def test_summary_data_error_names_file(tmp_path, capsys, command, line, old, new):
    d = tmp_path / "sums"
    d.mkdir()
    s = d / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    lines = s.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    bad = d / "bad.nt"
    bad.write_text("".join(lines))
    argv = ["merge", s, bad] if command == "merge" else ["merge-all", d]
    assert run(*argv, "-o", tmp_path / "m.nt") == 1
    err = capsys.readouterr().err
    assert f"{bad}: line {line}: " in err


def test_merge_invalid_utf8_summary_is_data_error(tmp_path, capsys):
    s = tmp_path / "s.nt"
    assert run("summarize", DATA / "tiny_graph.nt", "-o", s) == 0
    bad = tmp_path / "bad.nt"
    bad.write_bytes(s.read_bytes().replace(b"urn:x:a", b"urn:x:\xff"))
    line = next(n for n, text in enumerate(bad.read_bytes().splitlines(), 1) if b"\xff" in text)
    out = tmp_path / "m.nt"
    assert run("merge", s, bad, "-o", out) == 1
    # `<urn:mvs:payload:ID> <urn:mvs:member> <urn:x:` is 75 characters.
    assert f"{bad}: bad statement: line {line}, col 76: invalid UTF-8: invalid start byte" in capsys.readouterr().err
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


def test_merge_all_mixed_models_is_usage_error(tmp_path, capsys):
    d = tmp_path / "dir"
    d.mkdir()
    for name, model in [("a.nt", "AC"), ("b.nt", "AC"), ("c.nt", "CC"), ("d.nt", "ACC")]:
        assert run("summarize", DATA / "tiny_graph.nt", "--model", model, "-o", d / name) == 0
    capsys.readouterr()
    assert run("merge-all", d, "-o", tmp_path / "m.nt") == 2
    err = capsys.readouterr().err
    assert "all summaries must share one model" in err
    # The first file that differs from the first file, with both models.
    assert f"{d / 'a.nt'} is model=AC, {d / 'c.nt'} is model=CC" in err
    assert "d.nt" not in err
    # A header naming another digest is no mismatch to report but a data
    # error in that file, at line 1.
    e = tmp_path / "digests"
    e.mkdir()
    assert run("summarize", DATA / "tiny_graph.nt", "-o", e / "a.nt") == 0
    text = (e / "a.nt").read_text()
    (e / "b.nt").write_text(text.replace("digest=sha256", "digest=sha512", 1))
    capsys.readouterr()
    assert run("merge-all", e, "-o", tmp_path / "m.nt") == 1
    err = capsys.readouterr().err
    assert f"{e / 'b.nt'}: line 1: unsupported digest 'sha512'" in err


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


def test_gen_seed_9_pinned_bytes(tmp_path):
    # Pinned SHA-256 of each file: the generator's distinct triples, sorted,
    # and a manifest that counts them. Only a deliberate change to the
    # generator or the writer may change these.
    d = tmp_path / "views"
    assert run("gen", "-o", d, "--seed", "9") == 0
    expected = {
        "manifest.json": "e6c35c112854e91a8395a6ba05dd99b0b0886a9e7825dfbe9bc4cf3813103697",
        "view0.nt": "a61b5fe0793100eb52bd2cdcbf7d7d1ce235b6f36442c9896a48e3dce4ec0630",
        "view1.nt": "5f6bc9251a5b71e7ee9b2c11e709aa73d1d7c0f38f760ae496260c8412c08cef",
        "view2.nt": "58f124070e5ce49e11d106057fba68cfd90862b9651043425cfc5e242416b457",
    }
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in d.iterdir()} == expected
    for view in json.loads((d / "manifest.json").read_text())["views"]:
        lines = (d / view["file"]).read_text().splitlines()
        types = sum(f"<{RDF_TYPE}>" in line for line in lines)
        assert (view["edges"], view["type_assertions"]) == (len(lines) - types, types)


def test_summaries_of_seed_9_pinned_bytes(tmp_path):
    # Pinned SHA-256 of the summary files built from `gen --seed 9`: view0
    # under every model, a pairwise merge and a smallest-first fold. Every id
    # is a digest of a canonical schema string, so only a deliberate change
    # to the schema, the digest or the writer may change these.
    views, sums = tmp_path / "views", tmp_path / "sums"
    assert run("gen", "-o", views, "--seed", "9") == 0
    sums.mkdir()
    for model in ("AC", "CC", "ACC"):
        assert run("summarize", views / "view0.nt", "--model", model, "-o", tmp_path / f"view0_{model}.nt") == 0
    for i in range(3):
        assert run("summarize", views / f"view{i}.nt", "--model", "ACC", "-o", sums / f"view{i}.nt") == 0
    assert run("merge", sums / "view0.nt", sums / "view1.nt", "-o", tmp_path / "merged.nt") == 0
    assert run("merge-all", sums, "--strategy", "smallest-first", "-o", tmp_path / "all.nt") == 0
    expected = {
        "view0_AC.nt": "64881526383a329e0c2cea58971a56f61b24ba8bb2b2accbecb4d2b0dbb55c14",
        "view0_CC.nt": "fc58cc27e1829e5683d7f8985b571808db4e20c214b9e957d4a8bce1ccf15671",
        "view0_ACC.nt": "2dbd47bfcf636474990e0b4a618a0e7e7c1877490efb27467e853b29f7980860",
        "merged.nt": "aa7e680f33e615194c2900b90040f524851bd561e27d6cca7eb30393b2b80a84",
        "all.nt": "1b67999e8e5b357cf21b88ad809908b55213f74c3000aade25bf82cfe2859c8b",
    }
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected} == expected


def test_gen_invalid_fraction(tmp_path):
    assert run("gen", "-o", tmp_path / "x", "--overlap", "1.5") == 2


def test_bench_generated_views(tmp_path):
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "3", "--seed", "2") == 0
    records = tmp_path / "records.csv"
    fits = tmp_path / "fits.csv"
    assert run("bench", views, "--repeats", "1", "-o", records, "--fits", fits) == 0
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
        run("bench", tmp_path, "--repeats", repeats, "-o", tmp_path / "r.csv")
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
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "3", "--overlap", "0", "--seed", "8") == 0
    records = tmp_path / "records.csv"
    assert run("bench", views, "--repeats", "1", "-o", records) == 0
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


def test_bench_mixed_models_names_the_file(tmp_path, capsys):
    d = tmp_path / "dir"
    d.mkdir()
    # A graph, summarized under --model ACC, beside a summary file under AC.
    (d / "g.nt").write_bytes((DATA / "tiny_graph.nt").read_bytes())
    assert run("summarize", DATA / "tiny_graph.nt", "--model", "AC", "-o", d / "s.nt") == 0
    capsys.readouterr()
    assert run("bench", d, "-o", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert "bench inputs must share one model" in err
    assert f"{d / 'g.nt'} is model=ACC, {d / 's.nt'} is model=AC" in err


def test_bench_needs_a_directory(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("bench", "-o", tmp_path / "r.csv")
    assert exc.value.code == 2
    assert "the following arguments are required: directory" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_graph_error_names_the_file(tmp_path, capsys):
    views = tmp_path / "views"
    assert run("gen", "-o", views, "--views", "3", "--seed", "6") == 0
    lines = (views / "view1.nt").read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace("<urn:", "urn:", 1)
    (views / "view1.nt").write_text("".join(lines))
    capsys.readouterr()
    assert run("bench", views, "-o", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err.startswith(f"error: {views / 'view1.nt'}: line 5, col 1: ")


@pytest.mark.parametrize("graphs", [
    ["<urn:a> <urn:p> <urn:b> .\n", "<urn:a> <urn:p> <urn:b> .\n<urn:b> <urn:q> <urn:c> .\n"],
    ["", "", ""],
], ids=["two-sizes-one-pair", "three-of-one-size"])
def test_bench_fits_needs_inputs_of_two_sizes(tmp_path, capsys, graphs):
    # Two inputs make one pair, merged both ways, and inputs of one size make
    # merges of one size: either way every fit would have one x.
    d = tmp_path / "graphs"
    d.mkdir()
    for i, text in enumerate(graphs):
        (d / f"g{i}.nt").write_text(text)
    assert run("bench", d, "-o", tmp_path / "r.csv", "--fits", tmp_path / "f.csv") == 2
    assert capsys.readouterr().err == "error: --fits needs at least three inputs, of at least two different sizes\n"
    assert not (tmp_path / "r.csv").exists()


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


def test_readme_command_block(tmp_path, monkeypatch):
    # The first `sh` block under "## Command line", run line by line as written.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[:2] == ["mkdir", "-p"] and len(words) == 3:
            Path(words[2]).mkdir(parents=True, exist_ok=True)
        elif words[0] == "mvsum":
            assert main(words[1:]) == 0, line
            commands += 1
        else:
            pytest.fail(f"README command line is neither `mkdir -p DIR` nor `mvsum ...`: {line}")
    assert commands, "no `mvsum` line in the block"
