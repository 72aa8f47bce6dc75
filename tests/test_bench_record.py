"""The script that condenses benchmark records into a tracked BENCH_<n>.json."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _record(commit, sha, workload, p50, rss, trace=0):
    return {
        "host": "box",
        "platform": "Linux",
        "python": "CPython 3.11.7",
        "nproc": 2,
        "commit": commit,
        "source_sha256": sha,
        "workload": workload,
        "seed": 0,
        "seconds": 40.0,
        "trace": trace,
        "metrics": {"op_p50_ms": [p50, "ms"], "peak_rss_mb": [rss, "MB"]},
        "times": [p50 / 1e3],
    }


def _write(tmp_path, name, record):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_parent_and_change_records_condense_to_medians(tmp_path, monkeypatch):
    main = runpy.run_path(str(SCRIPT))["main"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = [
        _write(tmp_path, "p1", _record("aaa", "s1", "shell_sweep", 700.0, 30.0)),
        _write(tmp_path, "p2", _record("aaa", "s1", "shell_sweep", 600.0, 31.0)),
        _write(tmp_path, "p3", _record("aaa", "s1", "shell_sweep", 650.0, 29.0)),
        _write(tmp_path, "p4", _record("aaa", "s1", "verify", 1400.0, 23.0)),
    ]
    change = [_write(tmp_path, "c1", _record("bbb", "s2", "shell_sweep", 450.0, 30.5))]
    out = tmp_path / "BENCH.json"
    assert main(["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["PYTHONDONTWRITEBYTECODE"] == "1"
    assert (record["parent"]["commit"], record["change"]["commit"]) == ("aaa", "bbb")
    assert (record["parent"]["source_sha256"], record["change"]["source_sha256"]) == ("s1", "s2")
    assert record["parent"]["host"] == "box" and record["parent"]["python"] == "CPython 3.11.7"
    assert record["parent"]["workloads"] == {
        "shell_sweep": {
            "op_p50_ms": {"unit": "ms", "median": 650.0, "quartiles": [625.0, 675.0], "runs": [600.0, 650.0, 700.0]},
            "peak_rss_mb": {"unit": "MB", "median": 30.0, "quartiles": [29.5, 30.5], "runs": [29.0, 30.0, 31.0]},
        },
        "verify": {
            "op_p50_ms": {"unit": "ms", "median": 1400.0, "quartiles": [1400.0, 1400.0], "runs": [1400.0]},
            "peak_rss_mb": {"unit": "MB", "median": 23.0, "quartiles": [23.0, 23.0], "runs": [23.0]},
        },
    }
    assert record["change"]["workloads"]["shell_sweep"]["op_p50_ms"]["median"] == 450.0
    # Only the workload that both sides ran is compared, over the pairs there are.
    assert record["comparison"] == {
        "shell_sweep": {
            "op_p50_ms": {"pairs": 1, "change_won": 1, "median_gap": 200.0, "parent_iqr": 50.0},
            "peak_rss_mb": {"pairs": 1, "change_won": 0, "median_gap": -0.5, "parent_iqr": 1.0},
        },
    }


def test_records_are_paired_in_the_order_given(tmp_path):
    main = runpy.run_path(str(SCRIPT))["main"]
    # Sorted, every change run would beat its parent run; in the order
    # the runs alternated, only the first pair is won.
    parent = [
        _write(tmp_path, f"p{i}", _record("aaa", "s1", "shell_sweep", p50, 30.0))
        for i, p50 in enumerate((700.0, 600.0, 650.0))
    ]
    change = [
        _write(tmp_path, f"c{i}", _record("bbb", "s2", "shell_sweep", p50, 30.0))
        for i, p50 in enumerate((590.0, 640.0, 660.0))
    ]
    out = tmp_path / "BENCH.json"
    assert main(["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["comparison"]["shell_sweep"]["op_p50_ms"] == {
        "pairs": 3, "change_won": 1, "median_gap": 10.0, "parent_iqr": 50.0,
    }
    assert record["comparison"]["shell_sweep"]["peak_rss_mb"]["change_won"] == 0


@pytest.mark.parametrize(
    "second, message",
    [
        (_record("aaa", "other", "verify", 1.0, 1.0), "records disagree on source_sha256"),
        (_record("aaa", "s1", "verify", 1.0, 1.0, trace=1), "not an end-to-end record"),
        (_record("aaa", "s1", "all", 1.0, 1.0), "record one --workload <name> run per workload"),
    ],
)
def test_records_of_mixed_sources_or_traced_runs_are_refused(tmp_path, capsys, second, message):
    main = runpy.run_path(str(SCRIPT))["main"]
    first = _write(tmp_path, "a", _record("aaa", "s1", "verify", 1.0, 1.0))
    other = _write(tmp_path, "b", second)
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(first), str(other), "--change", str(first), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_records_of_a_workload_all_run_take_the_workload_from_their_file_name(tmp_path):
    main = runpy.run_path(str(SCRIPT))["main"]
    # Such a run labels every record "all" and writes <workload>-seed<s>-trace0.json.
    paths = {}
    for side, commit, sha, p50 in (("p", "aaa", "s1", 700.0), ("c", "bbb", "s2", 600.0)):
        run = tmp_path / side
        run.mkdir()
        paths[side] = [
            _write(run, f"{workload}-seed0-trace0", _record(commit, sha, "all", p50 + offset, 30.0))
            for workload, offset in (("verify", 500.0), ("shell_sweep", 0.0))
        ]
    out = tmp_path / "BENCH.json"
    assert main(["--parent", *map(str, paths["p"]), "--change", *map(str, paths["c"]), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record["parent"]["workloads"]) == ["shell_sweep", "verify"]
    assert record["parent"]["workloads"]["verify"]["op_p50_ms"]["runs"] == [1200.0]
    assert record["change"]["workloads"]["shell_sweep"]["op_p50_ms"]["runs"] == [600.0]
    assert record["comparison"]["verify"]["op_p50_ms"]["median_gap"] == 100.0
