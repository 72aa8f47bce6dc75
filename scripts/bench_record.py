#!/usr/bin/env python3
"""Condense benchmark records of a parent and a change into one BENCH_<n>.json.

``perfbench/run.py --trace 0`` writes one JSON record per run into
``.bench_out/``: the run's host, interpreter, commit and source sha256,
and its end-to-end ``metrics`` as name -> [value, unit].  That directory
is not tracked, and each run overwrites the last record of its workload
and seed, so copy the records aside between runs.  Give the parent's
records and the change's; each metric of each workload is reported as
the median over that workload's runs, with its quartiles and the sorted
values of the runs.  A ``--workload all`` run labels each of its records
"all" but names its file ``<workload>-seed<s>-trace0.json``, so such a
record is taken to be of the workload its file name says; an "all"
record under any other name is refused (record one ``--workload <name>``
run per workload, or keep the names the run wrote).

The records of the two sides are paired in the order given (the first
parent record of a workload with its first change record, and so on), so
give them in the order the runs alternated.  Per workload and metric,
``comparison`` counts the pairs and the pairs the change won, and gives
the gap between the medians beside the parent's interquartile range.
Every end-to-end metric of the benchmark is better lower, so the change
wins a pair when its value is the lower one.

    python scripts/bench_record.py --parent p1/*.json p2/*.json \\
        --change c1/*.json c2/*.json --out BENCH_11.json

Run it in the environment the benchmark ran in: it records that
environment's PYTHONDONTWRITEBYTECODE, which decides whether every fresh
process compiles the package from source (and so shifts set-up and
cold-request times).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

#: Fields of a record that must agree across all runs of one side.
_SIDE_FIELDS = ("host", "platform", "python", "nproc", "commit", "source_sha256")


def condense(paths: list[Path]) -> tuple[dict, dict[str, list[dict]]]:
    """One side: its shared meta fields and per workload the summary of each metric,
    with the metrics of each workload's runs in the order given."""
    records = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    if not records:
        raise ValueError("no records given")
    side = {}
    for field in _SIDE_FIELDS:
        values = {json.dumps(record.get(field)) for record in records}
        if len(values) != 1:
            raise ValueError(f"records disagree on {field}: {', '.join(sorted(values))}")
        side[field] = records[0].get(field)
    runs: dict[str, list[dict]] = {}
    for path, record in zip(paths, records):
        if record.get("trace") != 0:
            raise ValueError(f"{path}: not an end-to-end record (--trace 0)")
        runs.setdefault(_workload(path, record), []).append(record["metrics"])
    side["workloads"] = {
        workload: {name: _summary([m[name][0] for m in metrics], unit) for name, (_, unit) in metrics[0].items()}
        for workload, metrics in sorted(runs.items())
    }
    return side, runs


def _workload(path: Path, record: dict) -> str:
    """The record's workload; for an "all" record, the one its file name carries."""
    if record["workload"] != "all":
        return record["workload"]
    named = re.fullmatch(rf"(\w+)-seed{record['seed']}-trace0\.json", path.name)
    if named is None:
        raise ValueError(
            f"{path}: a --workload all record not named <workload>-seed<s>-trace0.json; "
            "record one --workload <name> run per workload"
        )
    return named[1]


def _summary(values: list[float], unit: str) -> dict:
    return {"unit": unit, "median": statistics.median(values), "quartiles": _quartiles(values), "runs": sorted(values)}


def _quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles, interpolated between the runs."""
    if len(values) < 2:
        return [values[0], values[0]]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return [first, third]


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> dict:
    """Per workload that both sides ran, and per metric: pairs, pairs won, median gap, parent IQR."""
    out = {}
    for workload in sorted(parent.keys() & change.keys()):
        out[workload] = {}
        for name in parent[workload][0].keys() & change[workload][0].keys():
            before = [metrics[name][0] for metrics in parent[workload]]
            after = [metrics[name][0] for metrics in change[workload]]
            first, third = _quartiles(before)
            out[workload][name] = {
                "pairs": min(len(before), len(after)),
                "change_won": sum(b > a for b, a in zip(before, after)),
                "median_gap": statistics.median(before) - statistics.median(after),
                "parent_iqr": third - first,
            }
        out[workload] = dict(sorted(out[workload].items()))
    return out


def bench_record(parent: list[Path], change: list[Path]) -> dict:
    parent_side, parent_runs = condense(parent)
    change_side, change_runs = condense(change)
    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "parent": parent_side,
        "change": change_side,
        "comparison": compare(parent_runs, change_runs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", type=Path, required=True, help="records of the parent commit")
    parser.add_argument("--change", nargs="+", type=Path, required=True, help="records of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    try:
        record = bench_record(args.parent, args.change)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
