"""tools/bench_ab.py's summary, on synthetic result lines, and its runs' errors."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", REPO / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def record(side, seed, p50, ops, failed=0):
    # one run as the tool keeps it: perfbench's result line under "result"
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"},
               "ops_per_s": {"value": ops, "unit": "1/s"}}
    result = {"correct": not failed, "attempted": 100, "failed": failed,
              "metrics": metrics}
    return {"side": side, "seed": seed, "ran": 1, "meta": {}, "result": result}


def test_summary_gives_medians_quartiles_and_pairs_won():
    parent = [20.0, 22.0, 24.0, 26.0, 28.0]
    change = [19.0, 23.0, 21.0, 25.0, 20.0]  # better in four pairs of five
    runs = [record("parent", 10 + k, p, 1000 / p) for k, p in enumerate(parent)]
    runs += [record("change", 10 + k, c, 1000 / c, failed=k == 2)
             for k, c in enumerate(change)]
    summary = bench_ab.summarize(runs, {"latency_p50_ms": "lower", "ops_per_s": "higher"})
    assert (summary["pairs"], summary["failed_parent"], summary["failed_change"]) == (5, 0, 1)
    p50 = summary["latency_p50_ms"]
    assert p50["parent"] == {"median": 24.0, "q1": 21.0, "q3": 27.0}
    assert p50["change"] == {"median": 21.0, "q1": 19.5, "q3": 24.0}
    assert (p50["better"], p50["change_won"]) == ("lower", 4)
    ops = summary["ops_per_s"]
    assert ops["change"]["median"] == pytest.approx(1000 / 21)
    assert (ops["better"], ops["change_won"]) == ("higher", 4)


def test_summary_keeps_only_whole_pairs_and_one_run_is_its_own_quartiles():
    runs = [record("parent", 1, 10.0, 100.0), record("change", 1, 10.0, 100.0),
            record("parent", 2, 9.0, 111.0)]  # seed 2 has no change run
    summary = bench_ab.summarize(runs, {"latency_p50_ms": "lower"})
    assert summary["pairs"] == 1
    p50 = summary["latency_p50_ms"]
    assert p50["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert p50["change_won"] == 0  # a tie is no win


def test_an_existing_file_is_not_overwritten(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_x.json").write_text("kept")
    argv = ["--parent", "HEAD", "--label", "x", "--workloads", "solve-int",
            "--pairs", "1", "--seconds", "1", "--first-seed", "1"]
    assert bench_ab.main(argv) == 2
    assert (tmp_path / "BENCH_x.json").read_text() == "kept"
    assert "not overwritten" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_exit_2_before_any_export(tmp_path, monkeypatch, capsys, pairs):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_ab, "export", lambda *a: pytest.fail("exported a tree"))
    argv = ["--parent", "HEAD", "--label", "x", "--workloads", "solve-int",
            "--pairs", pairs, "--seconds", "1", "--first-seed", "1"]
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(argv)
    assert exc.value.code == 2
    assert f"argument --pairs: {pairs} is below 1" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()


def test_a_run_that_dies_after_its_meta_line_names_its_exit_and_stderr(tmp_path):
    # a stub perfbench/run.py that writes its meta line and then fails
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('meta {\"seed\": 1}', flush=True)\n"
        "sys.exit('boom: the workload crashed')\n"
    )
    with pytest.raises(RuntimeError, match=r"exited 1 with no result:\nboom: the workload"):
        bench_ab.run_side(str(tmp_path), "solve-int", 1, 1.0)


def test_a_run_that_exits_nonzero_after_its_result_line_is_not_kept(tmp_path):
    # perfbench writes a result line with "correct": false and then exits 1
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('meta {\"seed\": 1}')\n"
        "print('{\"correct\": false, \"failed\": 1}', flush=True)\n"
        "sys.exit('wrong: op 3 disagreed with Bareiss')\n"
    )
    with pytest.raises(RuntimeError, match=r"exited 1 with no result:\nwrong: op 3"):
        bench_ab.run_side(str(tmp_path), "solve-int", 1, 1.0)
