"""In-process driver of the benchmark: the shell sweep and the traced runs.

Run by ``run.py`` in a child process whose ``PYTHONPATH`` is the
checkout's ``src``; it prints one JSON object as its last stdout line.

    python perfbench/driver.py setup
    python perfbench/driver.py sweep --order '4|0,3|0,2|0'
    python perfbench/driver.py trace --workload verify --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import expected
from tracer import LEAVES, CacheLedger, Tracer, clear_caches, find_caches, patched

from conelines import (
    cli,
    homology_action,
    lattices,
    mapping_class,
    mod2,
    tables,
    translations,
    tritangents,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Each cold cost is the median of this many repetitions.
COLD_REPEATS = 5


def setup() -> None:
    """Build the eleven lattices and their roots (the sweep's set-up)."""
    for key in expected.TYPES:
        lattices.enumerate_roots(lattices.build_lattice(lattices.SexticType.from_key(key)))


# ---------------------------------------------------------------------------
# shell sweep


def sweep(order, tracer: Tracer | None = None) -> dict:
    """The realizability scan of scripts/scan_realizability.py over ``order``.

    Returns per type the shell size, the attained fiber bits per coset,
    the vectors whose fiber bit disagrees with the refinement, and the
    time of the enumerate and classify phases.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    out = {}
    for key in order:
        lattice = lattices.build_lattice(lattices.SexticType.from_key(key))
        slug = expected.type_slug(key)
        start = perf_counter()
        with span(f"sweep.{slug}.enumerate"):
            shell = lattices.vectors_with_norm_at_least(lattice, expected.SHELL_FLOOR)
        middle = perf_counter()
        with span(f"sweep.{slug}.classify"):
            hits: Counter = Counter()
            violations = 0
            for w in shell:
                mu = (lattices.norm(lattice, w) // 2) % 2
                rep = translations.coset_representative(mod2.reduce_mod2(lattice, w))
                hits[(mu, rep.bits)] += 1
                if mu != mod2.q0(rep):
                    violations += 1
        end = perf_counter()
        classes = defaultdict(set)
        for mu, bits in hits:
            classes[bits].add(mu)
        out[key] = {
            "size": len(shell),
            "classes": classes,
            "violations": violations,
            "enumerate_s": middle - start,
            "classify_s": end - middle,
        }
    return out


def sweep_failures(result: dict) -> list[str]:
    reasons = (
        expected.check_sweep_type(key, r["size"], r["classes"], r["violations"])
        for key, r in result.items()
    )
    return [reason for reason in reasons if reason]


def cmd_sweep(order: list[str]) -> dict:
    """One timed sweep after the set-up, as one operation of ``shell_sweep``."""
    setup()
    start = perf_counter()
    result = sweep(order)
    return {
        "s": perf_counter() - start,
        "vectors": sum(r["size"] for r in result.values()),
        "types": len(result),
        "enumerate_s": sum(r["enumerate_s"] for r in result.values()),
        "classify_s": sum(r["classify_s"] for r in result.values()),
        "failures": sweep_failures(result),
    }


# ---------------------------------------------------------------------------
# traced runs


def call_main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process, as ``conelines <argv>`` would."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


class Pass:
    """One pass over a workload's operations, with or without leaf counters.

    Every pass records the coarse spans; only the traced pass installs
    the leaf counters, so the time ratio of the two kinds is the overhead
    of tracing the hot leaves.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.outputs: list = []
        self.missing: list[str] = []
        self.seconds = 0.0  # CPU time, which time spent waiting on other processes leaves out


def run_pass(body, leaves: bool, caches: dict) -> tuple[Pass, CacheLedger]:
    """Run ``body(run, ledger)`` on cleared caches, with the leaf counters if ``leaves``."""
    run = Pass()
    clear_caches(caches)
    ledger = CacheLedger(caches)
    counters = {name: (lambda fn, name=name: run.tracer.leaf(name, fn)) for name in LEAVES} if leaves else {}
    with patched(counters) as run.missing:
        start = process_time()
        body(run, ledger)
        run.seconds = process_time() - start
    ledger.clear()
    return run, ledger


def verify_pass(seed: int, leaves: bool, caches: dict) -> tuple[Pass, CacheLedger]:
    """One in-process ``conelines verify``, with a span around each criterion."""
    argv = ["verify", "--format", "json", "--seed", str(seed)]

    def body(run, ledger):
        def criterion_span(fn):
            return run.tracer.span_wrapper(fn, lambda number, *_, **__: f"verify.criterion_{number:02d}")

        with patched({"verify.run_criterion": criterion_span}) as missing:
            run.outputs.append(call_main(argv))
        run.missing += missing

    return run_pass(body, leaves, caches)


def _median_time(fn, before=lambda: None) -> float:
    times = []
    for _ in range(COLD_REPEATS):
        before()
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def cold_costs(caches: dict) -> dict:
    """Time of each layer's public entry over all eleven types, caches cleared first."""
    sextics = [lattices.SexticType.from_key(key) for key in expected.TYPES]

    def cold(fn):
        return _median_time(fn, before=lambda: clear_caches(caches))

    costs = {
        "lattices.enumerate_roots.cold_s": cold(
            lambda: [lattices.enumerate_roots(lattices.build_lattice(s)) for s in sextics]
        ),
        "mod2.strata_profile.cold_s": cold(
            lambda: [mod2.strata_profile(lattices.build_lattice(s)) for s in sextics]
        ),
        "tritangents.enumerate_tritangents.cold_s": cold(
            lambda: [tritangents.enumerate_tritangents(s) for s in sextics]
        ),
        "mapping_class.translation_analysis.cold_s": cold(
            lambda: [mapping_class.translation_analysis(lattices.build_lattice(s)) for s in sextics]
        ),
        "homology_action.count_line_classes.cold_s": cold(
            lambda: [homology_action.count_line_classes(s.surface()) for s in sextics]
        ),
        "tables.all_tables.cold_s": cold(tables.all_tables),
    }
    tables.all_tables()
    costs["tables.all_tables.warm_s"] = _median_time(tables.all_tables)
    return costs


def sanity_counts() -> tuple[dict, list[str]]:
    counts, failures = {}, []
    for key in expected.TYPES:
        sextic = lattices.SexticType.from_key(key)
        slug = expected.type_slug(key)
        roots = len(lattices.enumerate_roots(lattices.build_lattice(sextic)))
        total = sum(tritangents.type_census(sextic).values())
        counts[f"lattices.enumerate_roots.roots.{slug}"] = roots
        counts[f"tritangents.census_total.{slug}"] = total
        if roots != expected.ROOT_COUNTS[key] or total != expected.CENSUS_TOTALS[key]:
            failures.append(f"{key}: {roots} roots, {total} tritangents")
    return counts, failures


def _criterion_times(run: Pass) -> dict:
    return {
        span["name"]: span["end"] - span["start"]
        for span in run.tracer.spans
        if span["name"].startswith("verify.criterion_")
    }


def _verify_failures(run: Pass, seed: int) -> list[str]:
    reason = expected.check_verify(*run.outputs[0], seed)
    return [f"verify: {reason}"] if reason else []


def cmd_trace(workload: str, seed: int) -> dict:
    caches = find_caches()
    verify_seed = expected.verify_seeds(seed, 1)[0]
    if workload == "verify":
        attempted = 1

        def one_pass(leaves):
            return verify_pass(verify_seed, leaves, caches)

        def check(run):
            return _verify_failures(run, verify_seed)

        def result(run):
            return run.outputs[0][1]

    elif workload == "shell_sweep":
        order = expected.sweep_orders(seed, 1)[0]
        attempted = len(order)

        def one_pass(leaves):
            def body(run, ledger):
                setup()
                run.outputs.append(sweep(order, run.tracer))

            return run_pass(body, leaves, caches)

        def check(run):
            return sweep_failures(run.outputs[0])

        def result(run):
            return json.dumps({key: r["size"] for key, r in run.outputs[0].items()})

    else:
        requests = expected.cli_requests(seed, expected.TRACED_CLI_ROUNDS)
        attempted = len(requests)

        def requests_body(run, ledger):
            for i, request in enumerate(requests):
                ledger.clear()  # each request starts as cold as a fresh process
                with run.tracer.span(f"request.{i:03d}.{expected.request_label(request)}"):
                    run.outputs.append(call_main(expected.cli_argv(request)))

        def one_pass(leaves):
            return run_pass(requests_body, leaves, caches)

        def check(run):
            return [
                f"{expected.request_label(request)}: {reason}"
                for request, (code, text) in zip(requests, run.outputs)
                if (reason := expected.check_cli(request, code, text))
            ]

        def result(run):
            return json.dumps(run.outputs)

    # The traced pass sits between two untraced ones, and the overhead
    # compares it with their mean, which cancels a drift in machine speed
    # that is linear over the three passes.  The first pass also pays
    # one-time costs such as lazy imports, as a fresh process would.
    first, _ = one_pass(False)
    traced, ledger = one_pass(True)
    again, _ = one_pass(False)
    failures = []
    digests = {}
    for name, run in (("untraced", first), ("traced", traced), ("untraced again", again)):
        failures += [f"{name} pass: {reason}" for reason in check(run)]
        digests[name] = hashlib.sha256(result(run).encode()).hexdigest()
    if len(set(digests.values())) != 1:
        failures.append(f"pass outputs differ: {digests}")
    criteria_pass = first
    if workload != "verify":
        criteria_pass, _ = verify_pass(verify_seed, False, caches)
        failures += [f"criterion-timing pass: {r}" for r in _verify_failures(criteria_pass, verify_seed)]
    counts, sanity_failures = sanity_counts()
    return {
        "verify_seed": verify_seed,
        "attempted": 3 * attempted,
        "failures": failures + sanity_failures,
        "missing": traced.missing,
        "leaves": traced.tracer.leaves,
        "caches": {name: [ledger.hits[name], ledger.misses[name]] for name in caches},
        "criteria": _criterion_times(criteria_pass),
        "cold": cold_costs(caches),
        "sanity": counts,
        "untraced_s": (first.seconds + again.seconds) / 2,
        "traced_s": traced.seconds,
        "digests": digests,
        "spans": {"untraced": again.tracer.spans, "traced": traced.tracer.spans},
    }


def main() -> int:
    if not Path(lattices.__file__).resolve().is_relative_to(SRC):
        print(f"error: conelines imported from {lattices.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "sweep", "trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", help="comma-separated curve types of one sweep")
    parser.add_argument("--workload", choices=("verify", "shell_sweep", "cli_lookup"))
    args = parser.parse_args()
    if args.mode == "setup":
        setup()
        return 0
    if args.mode == "sweep":
        payload = cmd_sweep(args.order.split(","))
    else:
        payload = cmd_trace(args.workload, args.seed)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
