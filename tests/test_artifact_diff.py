import json
import shutil
from collections import Counter
from pathlib import Path

from dnls import __version__
from dnls.cli import main
from dnls.lattice import profile_from_csv

ROOT = Path(__file__).resolve().parents[1]


def corpus(root, sigma, wall_time, rows, code, extra=()):
    """A collected corpus of one command: a manifest, a wave record, a summary table."""
    (root / "sweep-s0").mkdir(parents=True)
    (root / "sweep-s0" / "run.manifest.json").write_text(
        json.dumps({"command": "sweep", "wall_time": wall_time, "tool_version": "0.1.0"}))
    (root / "sweep-s0" / "run.rho=2.json").write_text(
        json.dumps({"config": {"rho": 2.0}, "sigma": sigma, "t_values": [2.5, sigma],
                    "verdict": "localized"}))
    (root / "sweep-s0" / "run.summary.csv").write_text(
        "param,sigma\n" + "".join(f"{p!r},{s!r}\n" for p, s in rows))
    for name in extra:
        (root / "sweep-s0" / name).write_text("x")
    (root / "runs.json").write_text(json.dumps(
        {"sweep-s0": {"argv": ["sweep"], "exit": code, "stdout": "", "stderr": ""}}))


def test_a_corpus_against_itself_reads_identical_but_its_wall_time(tool, tmp_path):
    rows = [(2.0, 3.1), (2.1, 3.2)]
    corpus(tmp_path / "a", 3.1, 0.5, rows, 0)
    corpus(tmp_path / "b", 3.1, 0.7, rows, 0)
    report = tool.compare(tmp_path / "a", tmp_path / "b")
    assert report["groups"] == {"sweep-s0": (3, 0)}
    assert report["fields"] == {} and report["runs"] == [] and report["only"] == []
    assert "3 of 3 files identical" in tool.format_report(report, tmp_path, tmp_path)


def test_each_differing_field_column_and_run_is_reported_with_its_size(tool, tmp_path):
    sigma = 3.1
    corpus(tmp_path / "a", sigma, 0.5, [(2.0, sigma), (2.1, 3.2)], 0, ["old.csv"])
    corpus(tmp_path / "b", sigma * (1 + 1e-15), 0.5, [(2.0, sigma * (1 + 1e-15)), (2.1, 3.2)],
           2, ["new.csv"])
    report = tool.compare(tmp_path / "a", tmp_path / "b")
    fields = report["fields"]
    assert set(fields) == {"sigma", "t_values[]", "summary.csv:sigma"}
    for key in fields:
        assert fields[key]["count"] == 1 and fields[key]["files"] == 1
        assert fields[key]["max_abs"] == abs(sigma * (1 + 1e-15) - sigma) > 0
        assert 0 < fields[key]["max_rel"] < 2e-15
    assert report["groups"] == {"sweep-s0": (5, 2)}
    assert report["only"] == [("change", "sweep-s0/new.csv"), ("parent", "sweep-s0/old.csv")]
    assert report["runs"] == [("sweep-s0", "exit", 0, 2)]
    text = tool.format_report(report, tmp_path, tmp_path)
    assert "0 of 1 commands ran alike" in text and "sweep-s0 exit: 0 -> 2" in text


def test_a_non_numeric_change_gives_an_example(tool, tmp_path):
    corpus(tmp_path / "a", 3.1, 0.5, [], 0)
    corpus(tmp_path / "b", 3.1, 0.5, [], 0)
    path = tmp_path / "b" / "sweep-s0" / "run.rho=2.json"
    path.write_text(path.read_text().replace("localized", "undetermined"))
    stat = tool.compare(tmp_path / "a", tmp_path / "b")["fields"]["verdict"]
    assert stat["example"] == ("sweep-s0/run.rho=2.json", "localized", "undetermined")


def test_the_corpus_holds_each_tiny_cell_oracle_answer(tool, tmp_path, monkeypatch):
    # seed 0: the oracle answers that tests/data/tiny_cells_seed0.json pins, bit for bit
    monkeypatch.chdir(tmp_path)
    tool.write_tiny_cells(tool.load_workloads(ROOT), 0)
    want = json.loads((ROOT / "tests" / "data" / "tiny_cells_seed0.json").read_text())
    cells = tmp_path / "tiny_cells-s0"
    assert len(list(cells.iterdir())) == 4 * len(want) == 4 * 48
    for k, cell in enumerate(want):
        answer = json.loads((cells / f"job{k}.oracle.json").read_text())
        assert answer == {"oracle_p": float.fromhex(cell["oracle"]["p"])}
        profile = profile_from_csv(cells / f"job{k}.oracle.csv")
        assert [float(x).hex() for x in profile.values] == cell["oracle"]["profile"]
    # an oracle answer that moves is reported by its own field and column
    for side in ("a", "b"):
        shutil.copytree(cells, tmp_path / side / "tiny_cells-s0")
        (tmp_path / side / "runs.json").write_text("{}")
    moved = tmp_path / "b" / "tiny_cells-s0"
    (moved / "job5.oracle.json").write_text(json.dumps({"oracle_p": answer["oracle_p"] * 2}))
    (moved / "job5.oracle.csv").write_text((moved / "job6.oracle.csv").read_text())
    report = tool.compare(tmp_path / "a", tmp_path / "b")
    assert report["groups"] == {"tiny_cells-s0": (192, 2)}
    assert set(report["fields"]) == {"oracle_p", "oracle.csv:u"}  # jobs 5 and 6: N=2 on-site


def test_each_refusal_of_the_corpus_is_a_usage_error(tool, tmp_path, monkeypatch, capsys):
    for k, argv in enumerate(tool.REFUSALS):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert list(Path.cwd().iterdir()) == [], argv


def test_each_parser_invocation_of_the_corpus_answers_before_any_work(tool, tmp_path,
                                                                      monkeypatch, capsys):
    # help and version on stdout with exit 0; a usage error on stderr with exit 1
    monkeypatch.chdir(tmp_path)
    answers = Counter()
    for argv in tool.PARSES:
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            assert out and not err, argv
            answers["version" if out == f"{__version__}\n" else "help"] += 1
        else:
            assert code == 1 and not out, argv
            assert err.startswith("usage: dnls") and "error: " in err, argv
            answers["usage error"] += 1
    assert answers == {"help": 8, "version": 1, "usage error": 27}
    assert list(tmp_path.iterdir()) == []
    # every command meets its help, an unknown flag, a missing flag or value, a bad value
    # and the root's --version
    commands = Counter(argv[0] for argv in tool.PARSES[6:])
    assert commands == dict.fromkeys(tool._PARSE_CASES, 5)


def test_the_corpus_runs_each_parser_invocation_under_its_own_label(tool):
    commands = tool.corpus_commands(ROOT, tool.load_workloads(ROOT))
    labels = [label for label, _ in commands]
    assert len(set(labels)) == len(labels)
    assert [argv for label, argv in commands if label.startswith("parse-")] == tool.PARSES
