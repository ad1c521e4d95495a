import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS_DIR

import dlcheck
from dlcheck.cli import main
from dlcheck.corpus import notebook_bytes, synthetic_notebook
from dlcheck.fuzz import generate_program
from dlcheck.lang import program_text
from dlcheck.report import analyze_path, bench_notebook, score_corpus

MOTIVATING = """data = read("data.csv")
X = data.select[][{"X_1", "X_2", "y"}]
X_norm = normalize(X)
X_train = X_norm.select[[s + 1 .. R]][]
X_test = X_norm.select[[0 .. s]][]
train(X_train)
test(X_test)
"""

CLEAN = """data = read("data.csv")
a = data.select[[0 .. 1]][]
b = data.select[[2 .. 3]][]
tr = normalize(a)
te = normalize(b)
train(tr)
test(te)
"""


@pytest.fixture
def motivating_dfl(tmp_path):
    p = tmp_path / "motivating.dfl"
    p.write_text(MOTIVATING)
    return p


def test_analyze_program_report(motivating_dfl):
    report = analyze_path(motivating_dfl)
    assert report.exit_code == 1
    assert [f["kind"] for f in report.findings] == ["taint"]
    assert "parse" in report.timing_ms and "analyze" in report.timing_ms


def test_text_and_json_list_same_findings(motivating_dfl):
    report = analyze_path(motivating_dfl)
    doc = json.loads(report.to_json())
    assert doc["schema"] == "dlcheck-report/1"
    for f in doc["findings"]:
        assert f"train {f['train_var']!r}" in report.to_text()


def test_dump_state_matches_worked_example(motivating_dfl):
    report = analyze_path(motivating_dfl, dump_state=True)
    states = report.states
    assert len(states) == 7
    m1 = states[0]["env"]
    assert m1 == {"data": {"sources": [
        {"file": "data.csv", "cols": "top", "rows": ["0", "inf"]}],
        "tainted": False}}
    m2 = states[1]["env"]
    assert m2["X"] == {"sources": [
        {"file": "data.csv", "cols": ["X_1", "X_2", "y"], "rows": ["0", "inf"]}],
        "tainted": False}
    assert states[2]["env"]["X_norm"]["tainted"] is True
    # the two use statements leave the state unchanged
    assert states[5]["env"] == states[4]["env"] == states[6]["env"]


def test_dump_state_shows_an_empty_list_select_with_no_sources(tmp_path, capsys):
    p = tmp_path / "empty.dfl"
    p.write_text('a = read("f.csv")\nb = a.select[[]][]\n')
    assert main(["analyze", str(p), "--format", "json", "--dump-state"]) == 0
    states = json.loads(capsys.readouterr().out)["states"]
    assert states[1]["env"]["b"] == {"sources": [], "tainted": False}


def test_cli_exit_codes(tmp_path, capsys):
    leak = tmp_path / "leak.dfl"
    leak.write_text(MOTIVATING)
    clean = tmp_path / "clean.dfl"
    clean.write_text(CLEAN)
    assert main(["analyze", str(leak)]) == 1
    assert main(["analyze", str(clean)]) == 0
    assert main(["analyze", str(tmp_path / "missing.dfl")]) == 2
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    p = tmp_path / "leak.dfl"
    p.write_text(MOTIVATING)
    assert main(["analyze", str(p), "--format", "json", "--dump-state"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"][0]["kind"] == "taint"
    assert len(doc["states"]) == 7


def test_cli_notebook_analysis(capsys):
    assert main(["analyze", str(CORPUS_DIR / "o1_off_by_one_split.ipynb")]) == 1
    out = capsys.readouterr().out
    assert "OVERLAP" in out and "X_train" in out


def test_cli_unknown_start_cell_names_the_cell_ids(tmp_path, capsys):
    nb = tmp_path / "nb.ipynb"
    nb.write_bytes(notebook_bytes(['df = pd.read_csv("a.csv")', "x = df.dropna()"]))
    assert main(["analyze", str(nb), "--start-cell", "99"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no cell 99: the notebook's cell ids are 1 to 2\n"


def test_cli_analyze_rejects_a_code_cell_with_no_source(tmp_path, capsys):
    """A truncated notebook is an error, not a notebook with no leak."""
    nb = tmp_path / "nb.ipynb"
    nb.write_text(json.dumps({"nbformat": 4, "cells": [
        {"cell_type": "markdown", "metadata": {}},
        {"cell_type": "code", "metadata": {}, "outputs": []},
    ]}))
    assert main(["analyze", str(nb)]) == 2
    captured = capsys.readouterr()
    assert "cells[1]: code cell has no source" in captured.err
    assert "no data leakage" not in captured.out


def test_cli_rejects_dump_state_on_a_notebook(capsys):
    nb = CORPUS_DIR / "o1_off_by_one_split.ipynb"
    assert main(["analyze", str(nb), "--dump-state"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("analyze: --dump-state applies to .dfl programs, "
                       "not to an .ipynb notebook\n")


def test_cli_start_cell_on_a_program_names_cell_1(motivating_dfl, capsys):
    """A program is the one cell, id 1, of a notebook."""
    assert main(["analyze", str(motivating_dfl), "--format", "json"]) == 1
    plain = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(motivating_dfl), "--format", "json",
                 "--start-cell", "1"]) == 1
    started = json.loads(capsys.readouterr().out)
    assert plain.pop("timing_ms").keys() == started.pop("timing_ms").keys()
    assert started == plain
    assert main(["analyze", str(motivating_dfl), "--start-cell", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: no cell 2: the notebook's cell ids are 1 to 1\n"


def test_cli_k_inf_and_no_halt(capsys):
    nb = CORPUS_DIR / "o1_off_by_one_split.ipynb"
    assert main(["analyze", str(nb), "--k", "inf", "--no-halt-on-finding"]) == 1
    capsys.readouterr()


def test_cli_custom_kb_via_env(tmp_path, capsys, monkeypatch):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"entries": [
        {"namespace": "*", "function": "read_csv", "class": "source"},
        {"namespace": "*", "function": "leak_all", "class": "normalize"},
        {"namespace": "*", "function": "train_test_split", "class": "split"},
        {"namespace": "*", "function": "fit", "class": "train"},
        {"namespace": "*", "function": "predict", "class": "test"},
    ]}))
    nb = tmp_path / "nb.ipynb"
    nb.write_bytes(notebook_bytes([
        'df = pd.read_csv("d.csv")',
        "z = leak_all(df)",
        "a, b = train_test_split(z)",
        "m = M()\nm.fit(a)\nm.predict(b)",
    ]))
    monkeypatch.setenv("DLCHECK_KB", str(kb))
    assert main(["analyze", str(nb)]) == 1
    assert "TAINT" in capsys.readouterr().out


@pytest.mark.parametrize("content, reason", [
    (b'{"entries": [{"namespace": "*", "function": "f" "class": "source"}]}',
     "Expecting ',' delimiter"),
    (b'{"entries": [], "note": "caf\xe9"}', "codec can't decode"),
])
def test_cli_names_a_broken_kb(tmp_path, capsys, content, reason):
    kb = tmp_path / "broken.json"
    kb.write_bytes(content)
    nb = tmp_path / "nb.ipynb"
    nb.write_bytes(notebook_bytes(['df = pd.read_csv("d.csv")']))
    assert main(["analyze", str(nb), "--kb", str(kb)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: knowledge base {kb}: ")
    assert reason in err and "Traceback" not in err


# -- corpus scoring ------------------------------------------------------------

def test_corpus_perfect_score():
    summary = score_corpus(CORPUS_DIR, CORPUS_DIR / "labels.json")
    assert summary.precision == 1.0 and summary.recall == 1.0
    kinds = summary.kind_counts()
    assert kinds["taint"] >= 5 and kinds["overlap"] >= 5
    assert sum(summary.histogram().values()) == sum(r.tp for r in summary.rows)


def test_checked_in_corpus_labels_every_notebook_once():
    summary = score_corpus(CORPUS_DIR, CORPUS_DIR / "labels.json")
    assert len(summary.rows) == 20 and summary.warnings == []


def test_corpus_empty(tmp_path):
    labels = tmp_path / "labels.json"
    labels.write_text("[]")
    summary = score_corpus(tmp_path, labels)
    assert summary.totals() == (0, 0, 0)
    assert summary.precision == 1.0 and summary.recall == 1.0


def test_corpus_missing_notebook_warns(tmp_path):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([{"notebook": "ghost.ipynb", "expected": []}]))
    summary = score_corpus(tmp_path, labels)
    assert summary.warnings and "missing notebook" in summary.warnings[0]


O1 = {"notebook": "o1_off_by_one_split.ipynb", "expected": [
    {"kind": "overlap", "train_var": "X_train", "test_var": "X_test"}]}


@pytest.mark.parametrize("entries, unlabeled, message", [
    ([O1, O1], [], "o1_off_by_one_split.ipynb: duplicate label entry"),
    ([O1], ["c2_plain_split.ipynb"], "c2_plain_split.ipynb: unlabeled notebook"),
])
def test_corpus_flags_duplicate_and_unlabeled_notebooks(
        tmp_path, capsys, entries, unlabeled, message):
    for name in ["o1_off_by_one_split.ipynb", *unlabeled]:
        (tmp_path / name).write_bytes((CORPUS_DIR / name).read_bytes())
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(entries))
    summary = score_corpus(tmp_path, labels)
    assert summary.totals() == (1, 0, 0)
    assert summary.warnings == [message]
    assert main(["corpus", str(tmp_path)]) == 2
    name, _, error = message.partition(": ")
    assert f"{name}: ERROR {error}" in capsys.readouterr().out


def test_corpus_scores_the_rest_past_a_malformed_notebook(tmp_path):
    (tmp_path / "bad.ipynb").write_text(json.dumps(
        {"nbformat": 4, "cells": [{"cell_type": "code", "source": 5}]}))
    (tmp_path / "good.ipynb").write_bytes(notebook_bytes([
        "import pandas as pd\ndf = pd.read_csv('d.csv')",
        "tr = df.iloc[:10]\nte = df.iloc[5:]\nm.fit(tr)\nm.predict(te)",
    ]))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([
        {"notebook": "bad.ipynb", "expected": []},
        {"notebook": "good.ipynb",
         "expected": [{"kind": "overlap", "train_var": "tr", "test_var": "te"}]},
    ]))
    bad, good = score_corpus(tmp_path, labels).rows
    assert bad.notebook == "bad.ipynb" and "cells[0]: source" in bad.error
    assert good.error is None and good.tp == 1


DEEP_CELL = "x = df" + " + 0" * 1000


def test_cli_analyze_names_a_cell_too_deep_to_translate(tmp_path, capsys):
    nb = tmp_path / "nb.ipynb"
    nb.write_bytes(notebook_bytes(["df = pd.read_csv('d.csv')", DEEP_CELL]))
    assert main(["analyze", str(nb)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: cell 2: expression nested too deeply to translate\n"


def test_cli_corpus_scores_the_rest_past_a_cell_too_deep_to_translate(
        tmp_path, capsys):
    (tmp_path / "deep.ipynb").write_bytes(notebook_bytes(
        ["import pandas as pd\ndf = pd.read_csv('d.csv')", DEEP_CELL]))
    (tmp_path / "good.ipynb").write_bytes(notebook_bytes([
        "import pandas as pd\ndf = pd.read_csv('d.csv')",
        "tr = df.iloc[:10]\nte = df.iloc[5:]\nm.fit(tr)\nm.predict(te)",
    ]))
    (tmp_path / "labels.json").write_text(json.dumps([
        {"notebook": "deep.ipynb", "expected": []},
        {"notebook": "good.ipynb",
         "expected": [{"kind": "overlap", "train_var": "tr", "test_var": "te"}]},
    ]))
    assert main(["corpus", str(tmp_path), "--format", "json"]) == 2
    deep, good = json.loads(capsys.readouterr().out)["rows"]
    assert deep["notebook"] == "deep.ipynb"
    assert deep["error"] == "cell 2: expression nested too deeply to translate"
    assert good["error"] is None and good["tp"] == 1


@pytest.mark.parametrize("doc, message", [
    ({}, "labels: not a list of entries"),
    ([5], "labels[0] is not an object"),
    ([{"expected": []}], "labels[0]: 'notebook' is missing"),
    ([{"notebook": "a.ipynb", "expected": []}, {"notebook": "b.ipynb"}],
     "labels[1]: 'expected' is missing"),
    ([{"notebook": "a.ipynb", "expected": {}}], "labels[0]: 'expected' is missing"),
    ([{"notebook": "a.ipynb", "expected": ["x"]}],
     "labels[0].expected[0] is not an object"),
    ([{"notebook": "a.ipynb",
       "expected": [{"kind": "overlap", "test_var": "te"}]}],
     "labels[0].expected[0]: 'train_var' is missing"),
])
def test_corpus_rejects_malformed_label_entries(tmp_path, capsys, doc, message):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as e:
        score_corpus(tmp_path, labels)
    assert message in str(e.value)
    assert main(["corpus", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"[{notebook: 1}]", "Expecting property name enclosed in double quotes"),
    (b"[\xff]", "codec can't decode byte 0xff"),
], ids=["json", "utf-8"])
def test_corpus_names_a_labels_file_it_cannot_decode(tmp_path, capsys, content,
                                                     message):
    labels = tmp_path / "broken.json"
    labels.write_bytes(content)
    with pytest.raises(ValueError) as e:
        score_corpus(tmp_path, labels)
    assert str(e.value).startswith(f"labels {labels}: ")
    assert message in str(e.value)
    assert main(["corpus", str(tmp_path), "--labels", str(labels)]) == 2
    assert f"error: labels {labels}: " in capsys.readouterr().err


def test_cli_corpus(capsys):
    assert main(["corpus", str(CORPUS_DIR), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision"] == 1.0 and doc["recall"] == 1.0


# -- oracle and bench ------------------------------------------------------------

def test_cli_oracle_program(tmp_path, capsys):
    p = tmp_path / "norm_first.dfl"
    p.write_text("""data = read("data.csv")
n = normalize(data)
tr = n.select[[0 .. 1]][]
te = n.select[[2 .. 3]][]
train(tr)
test(te)
""")
    rc = main(["oracle", str(p), "--shape", "data.csv=4x1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["independent"] is False
    assert doc["lemma1"] is False
    assert doc["witnesses"]


@pytest.mark.parametrize("values, code", [("3", 2), ("3,3", 2), ("1,2,3", 1)])
def test_cli_oracle_needs_two_distinct_values(tmp_path, capsys, values, code):
    p = tmp_path / "split_after_normalize.dfl"
    p.write_text('a = read("f.csv")\nb = normalize(a)\nc = b.select[[0 .. 0]][]\n'
                 'd = b.select[[1 .. 2]][]\ntrain(c)\ntest(d)\n')
    assert main(["oracle", str(p), "--shape", "f.csv=3x1", "--values", values]) == code
    out = capsys.readouterr()
    if code == 2:
        assert out.out == ""
        assert out.err == ("error: a value domain needs at least two distinct "
                           "values, got 1\n")
    else:
        assert json.loads(out.out)["independent"] is False


def test_cli_oracle_fuzz(capsys):
    assert main(["oracle", "--fuzz", "30", "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["programs"] == 30 and doc["violations"] == []


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_oracle_fuzz_rejects_counts_below_one(capsys, count):
    assert main(["oracle", "--fuzz", count]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"oracle: --fuzz must be at least 1, got {count}\n"


@pytest.mark.parametrize("args, message", [
    (["oracle", "--shape", "data.csv"],
     "oracle: --shape expects FILE=RxC, got 'data.csv'"),
    (["oracle", "--shape", "data.csv=2xq"],
     "oracle: --shape expects FILE=RxC, got 'data.csv=2xq'"),
    (["oracle", "--values", "3,x"],
     "oracle: --values expects comma-separated integers, got '3,x'"),
    (["analyze", "--k", "abc"],
     "analyze: --k expects a number or 'inf', got 'abc'"),
    (["analyze", "--k", "none"],
     "analyze: --k expects a number or 'inf', got 'none'"),
])
def test_cli_names_the_option_of_a_malformed_value(
        motivating_dfl, capsys, args, message):
    assert main([args[0], str(motivating_dfl), *args[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == message + "\n"


def test_cli_parse_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.dfl"
    for line, message in [
        ("bogus line", "unrecognized statement 'bogus line'"),
        ("b = a.select[[5 .. 2]][]", "interval [5, 2] is provably empty"),
        ("b = a.select[[inf .. inf]][]", "lower bound cannot be inf"),
    ]:
        path.write_text(f'a = read("f")\n{line}\n')
        assert main(["analyze", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("command, target, k", [
    ("analyze", "motivating", "0"),
    ("corpus", "corpus", "-2"),
])
def test_cli_names_the_k_option_below_one(motivating_dfl, capsys, command, target, k):
    path = motivating_dfl if target == "motivating" else CORPUS_DIR
    assert main([command, str(path), "--k", k]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{command}: --k must be at least 1, got {k}\n"


def test_cli_oracle_fuzz_mutated(capsys):
    assert main(["oracle", "--fuzz", "200", "--seed", "11",
                 "--mutate-normalize"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"]


def test_importing_the_analysis_loads_no_oracle_or_fuzzer():
    """Every CLI call imports the package, the engine and the report
    layer; none of them loads the oracle, the fuzzer or ``fractions``."""
    script = ("import sys\n"
              "import dlcheck, dlcheck.engine, dlcheck.report\n"
              "print(sorted(m for m in ('dlcheck.oracle', 'dlcheck.fuzz', 'fractions')\n"
              "             if m in sys.modules))\n")
    src = str(Path(dlcheck.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_bench_single_run():
    res = bench_notebook(synthetic_notebook(20, seed=1), runs=1)
    assert res.runs == 1
    assert res.per_event_ms and res.median_ms >= 0


def test_bench_empty_notebook():
    res = bench_notebook(notebook_bytes([]), runs=2)
    assert res.events == 0 and res.median_ms == 0.0


def test_cli_bench_synthetic(capsys):
    assert main(["bench", "--synthetic", "30", "--runs", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["median_ms"] < 1000


@pytest.mark.parametrize("args, option", [
    (["--synthetic", "5", "--runs", "0"], "--runs"),
    (["--synthetic", "5", "--runs", "-3"], "--runs"),
    (["--synthetic", "0"], "--synthetic"),
    (["--synthetic", "-1", "--runs", "2"], "--synthetic"),
])
def test_cli_bench_rejects_sizes_below_one(capsys, args, option):
    assert main(["bench", *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"bench: {option} must be at least 1" in out.err


def test_exit_code_is_independent_of_timing(tmp_path):
    p = tmp_path / "clean.dfl"
    p.write_text(CLEAN)
    for _ in range(3):
        assert analyze_path(p).exit_code == 0


PROGRAM_REPORTS_DIGEST = "c9a6730a3ffa9eead5545c1eb19dcc1a02b099402ee6b94abc9a7873424a95cc"


def _program_reports_digest(tmp_path) -> str:
    """One sha256 over the JSON and text reports, with states, of the
    ``.dfl`` corpus and 300 seeded generated programs.  The JSON drops
    ``timing_ms`` and names the target by its file name; the text drops its
    timing line."""
    rng = random.Random(23)
    paths = sorted((CORPUS_DIR.parent / "dfl").glob("*.dfl"))
    for i in range(300):
        p = tmp_path / f"gen{i:03}.dfl"
        p.write_text(program_text(generate_program(rng)[0]) + "\n")
        paths.append(p)
    h = hashlib.sha256()
    for path in paths:
        report = analyze_path(path, dump_state=True)
        doc = json.loads(report.to_json())
        del doc["timing_ms"]
        doc["target"] = path.name
        text = report.to_text().replace(str(path), path.name)
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update("\n".join(line for line in text.splitlines()
                           if not line.startswith("timing: ")).encode())
    return h.hexdigest()


def test_program_reports_are_unchanged(tmp_path):
    assert _program_reports_digest(tmp_path) == PROGRAM_REPORTS_DIGEST
