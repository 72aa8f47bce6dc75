#!/usr/bin/env python3
"""Benchmark of conelines: end-to-end runs and a traced per-module run.

Run from the root of a checkout; the program is the checkout's ``src``.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-test

Workloads (all single-threaded, one program process at a time):

* ``verify``: closed loop, one client; each operation is a fresh
  ``python -m conelines.cli verify --format json --seed <s>``.
* ``shell_sweep``: the realizability scan over all eleven types at depth
  -10; one operation is one full sweep of 76 539 vectors, timed inside a
  fresh driver process once its caches are warm.
* ``cli_lookup``: closed loop, one client, a fresh process per request
  (``tables``, ``classify``, ``act`` and ``act --mod2``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured without tracing; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run (see ``driver.py``).  The lines above it
repeat every metric by name with its unit, and a record with host,
interpreter, nproc, commit, seeds and raw samples goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import expected
from tracer import LEAVES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: Fresh ``import conelines.cli`` processes timed before each step of a
#: ``verify`` or ``cli_lookup`` run (median reported).
SETUP_PER_STEP = 4
#: Fresh processes timed for each module's import time (median reported).
IMPORT_REPEATS = 11
#: Fewest operations per timed run.
MIN_VERIFY_OPS = 5
MIN_SWEEPS = 5
MIN_CLI_ROUNDS = 6  # 120 requests: 12 lie beyond the nearest-rank p90
#: A run never lasts longer than this, whatever the program does.
RUN_LIMIT_S = 170.0

#: Modules whose ``-X importtime`` self time is reported.
IMPORT_MODULES = (
    "conelines",
    "lattices",
    "intlinalg",
    "mapping_class",
    "homology_action",
    "mod2",
    "translations",
    "tritangents",
    "tables",
    "verify",
    "cli",
)

#: The package's lru_caches, as ``module.qualname``.
CACHES = (
    "lattices._build",
    "lattices.enumerate_roots",
    "lattices._square_completion",
    "mod2.radical",
    "mod2.radical_elements",
    "mod2.strata_profile",
    "mod2._lift_table",
    "tritangents._enumerate",
    "mapping_class._basis_images",
    "mapping_class._analysis",
    "translations._radical_list",
)

#: Leaves that must record calls on each workload (the traced run fails
#: otherwise, which catches a binding the patcher missed).
_SWEEP_LEAVES = (
    "lattices.pair",
    "lattices.norm",
    "lattices.vectors_with_norm_at_least",
    "mod2.reduce_mod2",
    "mod2.q0",
    "translations.coset_representative",
)


def _cli_leaves(request: dict) -> set[str]:
    kind = request["kind"]
    if kind == "tables":
        leaves = set()
        if request["which"] in ("mw", "all"):
            leaves |= {"intlinalg.smith_normal_form", "intlinalg.row_hermite_form"}
        if request["which"] in ("tritangents", "all"):
            leaves.add("tritangents.classify_root")
        return leaves
    if kind == "classify":
        return {"tritangents.classify_root"} if expected.CENSUS_TOTALS[request["type"]] else set()
    if request["mod2"]:
        return {"mapping_class.translation_class", "translations.mw_act_h1_mod2"}
    return {"mapping_class.translation_class", "homology_action.action_matrix"}


def expected_leaves(workload: str, seed: int) -> set[str]:
    if workload == "verify":
        return set(LEAVES)
    if workload == "shell_sweep":
        return set(_SWEEP_LEAVES)
    requests = expected.cli_requests(seed, expected.TRACED_CLI_ROUNDS)
    return set().union(*(_cli_leaves(request) for request in requests))


# ---------------------------------------------------------------------------
# processes


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def program_env(**extra: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


def run_process(argv: list[str], limit_s: float, env: dict | None = None) -> Outcome:
    """Run one program process; wall time and peak RSS from ``os.wait4``.

    Output goes to unlinked files inside the checkout, so no pipe can
    fill and block the child.  A process past ``limit_s`` is killed and
    reported with a negative exit code.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or program_env(), cwd=ROOT)
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            wall,
            usage.ru_maxrss,
        )


def last_json(outcome: Outcome, what: str) -> dict:
    if outcome.code != 0:
        raise RuntimeError(f"{what} exited with {outcome.code}: {outcome.stderr[-2000:]}")
    return json.loads(outcome.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


# ---------------------------------------------------------------------------
# timed workloads


class Timed:
    """One timed run: times of the operations that passed, failures, RSS, inputs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.maxrss_kb = 0
        self.inputs: list = []
        self.setup_samples: list[float] = []
        self.named: dict[str, tuple[float, str]] = {}

    def record(self, outcome: Outcome, reason: str | None) -> None:
        """Book one checked operation; only an operation that passed gives a time."""
        self.attempted += 1
        self.maxrss_kb = max(self.maxrss_kb, outcome.maxrss_kb)
        if reason:
            self.failures.append(reason)
        else:
            self.times.append(outcome.wall_s)

    def closed_loop(
        self, steps, least: int, seconds: float, deadline: float, setup_argv, setup_per_step: int, do_step
    ) -> None:
        """Run ``do_step`` over ``steps`` until ``seconds`` would be overrun by half a step.

        At least ``least`` steps are made.  Before each step,
        ``setup_per_step`` fresh set-up processes are timed, so that the
        set-up samples spread over the whole run and its drifts in machine
        speed, like the operations do.  One untimed set-up process first
        writes the bytecode caches, which every later process finds in place.
        """
        run_process(setup_argv, min(60.0, deadline - perf_counter()))
        step_times: list[float] = []
        start = perf_counter()
        for step in steps:
            elapsed = perf_counter() - start
            if perf_counter() > deadline or (
                len(step_times) >= least and elapsed + 0.5 * statistics.median(step_times) >= seconds
            ):
                break
            for _ in range(setup_per_step):
                outcome = run_process(setup_argv, min(60.0, deadline - perf_counter()))
                if outcome.code != 0:
                    raise RuntimeError(f"set-up process failed: {outcome.stderr[-2000:]}")
                self.setup_samples.append(outcome.wall_s)
            t0 = perf_counter()
            do_step(step)
            step_times.append(perf_counter() - t0)

    def generic(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics every workload reports (BENCHMARK.json)."""
        return {
            "setup_s": (statistics.median(self.setup_samples) if self.setup_samples else 0.0, "s"),
            "op_p50_ms": (statistics.median(self.times) * 1e3 if self.times else 0.0, "ms"),
            "op_p90_ms": (p90(self.times) * 1e3 if self.times else 0.0, "ms"),
            "peak_rss_mb": (self.maxrss_kb / 1024, "MB"),
        }

    def failed_frac(self) -> tuple[float, str]:
        return (len(self.failures) / self.attempted if self.attempted else 1.0, "frac")


IMPORT_CLI = [sys.executable, "-c", "import conelines.cli"]
CLI = [sys.executable, "-m", "conelines.cli"]
DRIVER = [sys.executable, str(HERE / "driver.py")]


def timed_verify(seed: int, seconds: float, deadline: float) -> tuple[Timed, dict]:
    run = Timed()

    def one_verify(op_seed: int) -> None:
        run.inputs.append(op_seed)
        argv = CLI + ["verify", "--format", "json", "--seed", str(op_seed)]
        outcome = run_process(argv, deadline - perf_counter())
        run.record(outcome, expected.check_verify(outcome.code, outcome.stdout, op_seed))

    run.closed_loop(
        expected.verify_seeds(seed, 1000), MIN_VERIFY_OPS, seconds, deadline, IMPORT_CLI, SETUP_PER_STEP, one_verify
    )
    metrics = run.generic()
    run.named = {
        "setup_s": metrics["setup_s"],
        "verify_s": (metrics["op_p50_ms"][0] / 1e3, "s"),
        "verifies": (len(run.times), "count"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": run.failed_frac(),
    }
    return run, metrics


def timed_sweep(seed: int, seconds: float, deadline: float) -> tuple[Timed, dict]:
    """An operation is one sweep, timed inside a fresh driver process after its set-up.

    Each swept type is one checked item.  The set-up sample of a sweep is
    the process's wall time minus its in-process sweep time: interpreter
    start, imports, and building the eleven lattices and their roots.  A
    fresh process per sweep keeps peak RSS a property of one sweep: in one
    long-lived process it grew from sweep to sweep with allocator
    fragmentation, by an amount that depended on the type order.
    """
    run = Timed()
    sweeps = []

    def one_sweep(order: tuple[str, ...]) -> None:
        run.inputs.append(order)
        outcome = run_process(DRIVER + ["sweep", "--order", ",".join(order)], deadline - perf_counter())
        run.maxrss_kb = max(run.maxrss_kb, outcome.maxrss_kb)
        run.attempted += len(order)
        if outcome.code != 0:
            run.failures += [f"{key}: sweep driver exited with {outcome.code}" for key in order]
            return
        item = last_json(outcome, "sweep driver")
        sweeps.append(item)
        run.failures += item["failures"]
        run.setup_samples.append(outcome.wall_s - item["s"])
        if not item["failures"]:
            run.times.append(item["s"])

    run.closed_loop(expected.sweep_orders(seed, 1000), MIN_SWEEPS, seconds, deadline, DRIVER + ["setup"], 0, one_sweep)
    metrics = run.generic()
    rates = [item["vectors"] / item["s"] for item in sweeps if not item["failures"]]
    run.named = {
        "setup_s": metrics["setup_s"],
        "sweep_vectors_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "sweeps": (len(run.times), "count"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": run.failed_frac(),
    }
    return run, metrics


def timed_cli(seed: int, seconds: float, deadline: float) -> tuple[Timed, dict]:
    run = Timed()
    requests = expected.cli_requests(seed, 200)
    rounds = [requests[i : i + 20] for i in range(0, len(requests), 20)]

    def one_round(batch: list[dict]) -> None:
        for request in batch:
            argv = expected.cli_argv(request)
            run.inputs.append(argv)
            outcome = run_process(CLI + argv, deadline - perf_counter())
            reason = expected.check_cli(request, outcome.code, outcome.stdout)
            run.record(outcome, reason and f"{expected.request_label(request)}: {reason}")

    run.closed_loop(rounds, MIN_CLI_ROUNDS, seconds, deadline, IMPORT_CLI, SETUP_PER_STEP, one_round)
    metrics = run.generic()
    run.named = {
        "setup_s": metrics["setup_s"],
        "cli_p50_ms": metrics["op_p50_ms"],
        "cli_p90_ms": metrics["op_p90_ms"],
        "requests": (len(run.times), "count"),
        "beyond_p90": (len(run.times) - math.ceil(0.9 * len(run.times)), "count"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": run.failed_frac(),
    }
    return run, metrics


TIMED = {"verify": timed_verify, "shell_sweep": timed_sweep, "cli_lookup": timed_cli}


# ---------------------------------------------------------------------------
# traced run


def import_times(deadline: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Median ``-X importtime`` self time of each module, over fresh processes."""
    argv = [sys.executable, "-X", "importtime", "-c", "import conelines.cli"]
    run_process(argv, min(60.0, deadline - perf_counter()))
    samples: dict[str, list[float]] = {module: [] for module in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        outcome = run_process(argv, min(60.0, deadline - perf_counter()))
        self_s = {}
        for line in outcome.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                self_s[fields[2].strip()] = int(fields[0]) / 1e6
        for module in IMPORT_MODULES:
            full = module if module == "conelines" else f"conelines.{module}"
            samples[module].append(self_s.get(full, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}, samples


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, after checking the trace itself."""
    import_s, import_samples = import_times(deadline)
    failures = []
    if workload == "verify":
        # The untraced reference: a fresh process, as users run it.
        verify_seed = expected.verify_seeds(seed, 1)[0]
        argv = CLI + ["verify", "--format", "json", "--seed", str(verify_seed)]
        fresh = run_process(argv, deadline - perf_counter())
        fresh_sha = hashlib.sha256(fresh.stdout.encode()).hexdigest()
        reason = expected.check_verify(fresh.code, fresh.stdout, verify_seed)
        if reason:
            failures.append(f"fresh-process verify: {reason}")
    argv = DRIVER + ["trace", "--workload", workload, "--seed", str(seed)]
    outcome = run_process(argv, deadline - perf_counter(), program_env(PYTHONHASHSEED="0"))
    data = last_json(outcome, "trace driver")
    failures += data["failures"]
    if workload == "verify":
        for name, sha in data["digests"].items():
            if sha != fresh_sha:
                failures.append(f"{name} in-process verify report differs from the fresh-process one")
    leaves = data["leaves"]
    silent = sorted(
        name
        for name in expected_leaves(workload, seed) - set(data["missing"])
        if leaves.get(name, [0])[0] == 0
    )
    if silent:
        raise RuntimeError(f"traced {workload} recorded no calls of {', '.join(silent)}")

    metrics: dict[str, tuple[float, str]] = {}
    for leaf in LEAVES:
        calls, _, self_s, _ = leaves.get(leaf, (0, 0.0, 0.0, 0))
        metrics[f"{leaf}.calls"] = (calls, "count")
        metrics[f"{leaf}.self_s"] = (self_s, "s")
    metrics["lattices.vectors_with_norm_at_least.vectors"] = (
        leaves.get("lattices.vectors_with_norm_at_least", (0, 0, 0, 0))[3],
        "count",
    )
    for name, value in data["cold"].items():
        metrics[name] = (value, "s")
    for number in range(1, 12):
        name = f"verify.criterion_{number:02d}"
        metrics[f"{name}.s"] = (data["criteria"].get(name, 0.0), "s")
    for module in IMPORT_MODULES:
        metrics[f"{module}.import_s"] = (import_s[module], "s")
    bases = {}
    for cache in CACHES:
        hits, misses = data["caches"].get(cache, (0, 0))
        bases[cache] = {"hits": hits, "misses": misses}
        metrics[f"{cache}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
    metrics["trace.overhead_frac"] = (data["traced_s"] / data["untraced_s"] - 1.0, "frac")
    for name, value in data["sanity"].items():
        metrics[name] = (value, "count")
    record = {
        "failures": failures,
        "attempted": data["attempted"],
        "missing": data["missing"],
        "unknown_caches": sorted(set(data["caches"]) - set(CACHES)),
        "cache_bases": bases,
        "import_samples": import_samples,
        "untraced_s": data["untraced_s"],
        "traced_s": data["traced_s"],
        "verify_seed": data["verify_seed"],
        "leaves": leaves,
        "spans": data["spans"],
    }
    return metrics, record


# ---------------------------------------------------------------------------
# reporting


def run_meta(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit}")


def write_record(name: str, record: dict) -> Path:
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, default=list) + "\n", encoding="utf-8")
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_workload(args: argparse.Namespace, meta: dict) -> tuple[Timed, dict]:
    run, metrics = TIMED[args.workload](args.seed, args.seconds, perf_counter() + RUN_LIMIT_S)
    print_metrics(f"{args.workload}, seed {args.seed}, {run.attempted} operations", run.named)
    for reason in run.failures[:20]:
        print(f"FAILED {reason}")
    record = dict(meta, named=run.named, metrics=metrics, times=run.times, failures=run.failures,
                  attempted=run.attempted, maxrss_kb=run.maxrss_kb, setup_samples=run.setup_samples,
                  inputs=run.inputs)
    path = write_record(f"{args.workload}-seed{args.seed}-trace0", record)
    print(f"# record: {path.relative_to(ROOT)}")
    return run, metrics


def self_test() -> int:
    """Show that the checks turn broken output into failures, not times."""
    ok = True
    run = Timed()
    outcome = run_process(CLI + ["verify", "--format", "json", "--seed", "0", "--fault", "gram"], 150.0)
    run.record(outcome, expected.check_verify(outcome.code, outcome.stdout, 0))
    frac = run.failed_frac()[0]
    print(f"verify --fault gram: exit {outcome.code}, failed_frac {frac} ({len(run.failures)}/{run.attempted})")
    ok &= outcome.code != 0 and frac > 0

    classes = {bits: {0} for bits in range(256)}
    reason = expected.check_sweep_type("4|0", expected.SHELL_SIZES["4|0"] - 1, classes)
    print(f"sweep with a short shell: {reason}")
    ok &= reason is not None

    request = {"kind": "act", "surface": "K#T2", "vector": (-3, -1, 1, 0, 0), "class": (1, 0, 1, 1), "mod2": False}
    outcome = run_process(CLI + expected.cli_argv(request), 60.0)
    genuine = expected.check_cli(request, outcome.code, outcome.stdout)
    report = json.loads(outcome.stdout)
    report["rows"][-1][1] = "(0, 0, 0, 2)"
    doctored = expected.check_cli(request, 0, json.dumps(report))
    print(f"act output: genuine {genuine or 'passes'}; doctored class out: {doctored}")
    ok &= genuine is None and doctored is not None

    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*TIMED, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that faults count as failures")
    args = parser.parse_args()

    if not (SRC / "conelines" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'conelines'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    meta = run_meta(args)
    print("# " + json.dumps(meta))

    try:
        if args.trace:
            if args.workload == "all":
                parser.error("--trace 1 takes a single workload")
            metrics, record = traced(args.workload, args.seed, perf_counter() + RUN_LIMIT_S)
            print_metrics(f"traced {args.workload}, seed {args.seed}", metrics)
            for reason in record["failures"]:
                print(f"FAILED {reason}")
            path = write_record(f"{args.workload}-seed{args.seed}-trace1", dict(meta, metrics=metrics, **record))
            print(f"# record: {path.relative_to(ROOT)}")
            failed = len(record["failures"])
            print(result_line(not failed, record["attempted"], failed, metrics))
            return 1 if failed else 0

        if args.workload != "all":
            run, metrics = run_workload(args, meta)
            print(result_line(not run.failures, run.attempted, len(run.failures), metrics))
            return 1 if run.failures else 0

        combined, attempted, failures = {}, 0, 0
        for workload in TIMED:
            run, _ = run_workload(argparse.Namespace(**dict(vars(args), workload=workload)), meta)
            attempted += run.attempted
            failures += len(run.failures)
            for name, value in run.named.items():
                shared = name in ("setup_s", "peak_rss_mb", "failed_frac")
                combined[f"{workload}.{name}" if shared else name] = value
        print_metrics("all workloads", combined)
        print(result_line(not failures, attempted, failures, combined))
        return 1 if failures else 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
