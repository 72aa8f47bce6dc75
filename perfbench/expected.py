"""Frozen expectations, output checks and input generators of the benchmark.

Everything the benchmark treats as a correct answer lives here, together
with the source of each number, so that a broken program shows up as a
failed operation rather than as a time.  The module imports nothing from
``conelines`` at import time: the orchestrator and the in-process driver
both use it, and only the mod-2 ``act`` check reads a Gram matrix from
the library (the lattice definition itself is the specification there).
"""

from __future__ import annotations

import ast
import functools
import json
import random
from itertools import product

#: The eleven curve types, in the library's census column order.
TYPES = ("4|0", "3|0", "2|0", "1|0", "0|0", "1|1", "|||", "0|1", "0|2", "0|3", "0|4")

#: Surface attached to each curve type, with its lattice rank and handle count.
SURFACES = {
    "K#4T2": (8, 4),
    "K#3T2": (7, 3),
    "K#2T2": (6, 2),
    "K#T2": (5, 1),
    "K": (4, 0),
    "K#T2+S2": (4, 1),
    "K+K": (4, 0),
    "K+S2": (3, 0),
    "K+2S2": (2, 0),
    "K+3S2": (1, 0),
    "K+4S2": (0, 0),
}

#: The integral action is undefined on the two-Klein-bottle locus (exit 2),
#: so integral ``act`` requests use the other ten surfaces.
INTEGRAL_SURFACES = tuple(s for s in SURFACES if s != "K+K")

#: Positive-tritangent totals per type (the published census; 0|4 has none).
CENSUS_TOTALS = dict(zip(TYPES, (120, 63, 30, 13, 4, 12, 12, 3, 2, 1, 0)))

#: Root counts per type: E8 240, E7 126, D6 60, D4+A1 24+2, 4A1 8, D4 24,
#: kA1 2k, and none for the rank-0 lattice.
ROOT_COUNTS = dict(zip(TYPES, (240, 126, 60, 26, 8, 24, 24, 6, 4, 2, 0)))

#: Shell depth of the sweep: every vector v with v.v >= SHELL_FLOOR.
SHELL_FLOOR = -10

#: Number of lattice vectors of self-pairing >= -10, one independent source each:
#: E8: 1 + sum_{n=1..5} 240 sigma_3(n) = 1 + 240 * 237 = 56881 (theta series);
#: E7: 1 + 126 + 756 + 2072 + 4158 + 7560 = 14673 (theta series coefficients);
#: D6, D4: integer vectors of even coordinate sum with |x|^2 <= 10;
#: D4+A1: the same with |x|^2 + 2m^2 <= 10;
#: kA1: integer vectors with 2|x|^2 <= 10 in Z^k (137, 57, 21, 5, 1).
SHELL_SIZES = dict(zip(TYPES, (56881, 14673, 3437, 701, 137, 313, 313, 57, 21, 5, 1)))

#: Cosets of the radical in the mod-2 quotient: |V| / |R| from the strata table.
COSETS = dict(zip(TYPES, (256, 64, 16, 4, 1, 4, 4, 1, 1, 1, 1)))

#: Types whose quadratic refinement vanishes on the radical: there the
#: fiber bit of a lattice vector is forced, so each coset is attained with
#: exactly one fiber bit; on every other type both bits occur at depth -10.
PARITY_BOUND = frozenset({"4|0", "1|1", "|||", "0|4"})

TABLE_CHOICES = ("tritangents", "lattices", "mw", "line-classes", "all")

_TABLE_TITLES = {
    "tritangents": "positive tritangent counts by type",
    "lattices": "mod-2 strata sizes by sextic type",
    "mw": "translation homomorphism analysis by surface",
    "line-classes": "homology classes of real lines",
}

#: Kernel rank of the translation homomorphism, in surface order.
_KERNEL_RANKS = (0, 1, 2, 3, 4, 3, 4, 3, 2, 1, 0)

#: Row of the line-class table (infinite for the handle families).
_LINE_CLASS_ROW = ["infinity", "infinity", 4, 2, 1]


def type_slug(key: str) -> str:
    """Metric-name form of a curve type: ``4|0`` -> ``4_0``, ``|||`` -> ``bands``."""
    return "bands" if key == "|||" else key.replace("|", "_")


# ---------------------------------------------------------------------------
# inputs


def verify_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the successive ``verify`` operations of one run."""
    rng = random.Random(f"verify:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def sweep_orders(seed: int, count: int) -> list[tuple[str, ...]]:
    """Type order of each sweep: the seed only permutes the eleven types."""
    rng = random.Random(f"sweep:{seed}")
    return [tuple(rng.sample(TYPES, len(TYPES))) for _ in range(count)]


def cli_round(rng: random.Random) -> list[dict]:
    """Twenty requests: every table once, five classify, five act of each kind.

    Fixing the mix per round keeps the share of heavy requests (``tables
    all``, ``classify 4|0``) the same on every seed; only the parameters
    and the order vary.
    """
    requests = [{"kind": "tables", "which": which} for which in TABLE_CHOICES]
    requests += [{"kind": "classify", "type": rng.choice(TYPES)} for _ in range(5)]
    for mod2 in (False, True):
        for _ in range(5):
            surface = rng.choice(tuple(SURFACES) if mod2 else INTEGRAL_SURFACES)
            rank, handles = SURFACES[surface]
            vector = tuple(rng.randint(-3, 3) for _ in range(rank))
            if mod2:
                klass = tuple(rng.randint(0, 1) for _ in range(rank + 2))
            else:
                klass = (rng.randint(0, 1),) + tuple(
                    rng.randint(-3, 3) for _ in range(2 * handles + 1)
                )
            requests.append(
                {"kind": "act", "surface": surface, "vector": vector, "class": klass, "mod2": mod2}
            )
    rng.shuffle(requests)
    return requests


#: Rounds in one traced ``cli_lookup`` pass: two, so every table and every
#: request kind occurs on every seed.
TRACED_CLI_ROUNDS = 2


def cli_requests(seed: int, rounds: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    return [request for _ in range(rounds) for request in cli_round(rng)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def cli_argv(request: dict) -> list[str]:
    """Command-line arguments of one request, positionals after ``--``.

    Vectors keep their negative leading coordinates; without the ``--``
    argparse would read ``-3,-1,...`` as an unknown option and exit 2.
    """
    kind = request["kind"]
    if kind == "tables":
        return ["tables", request["which"], "--format", "json"]
    if kind == "classify":
        return ["classify", "--format", "json", "--", request["type"]]
    argv = ["act", "--format", "json"]
    if request["mod2"]:
        argv.append("--mod2")
    return argv + ["--", request["surface"], _csv(request["vector"]), _csv(request["class"])]


def request_label(request: dict) -> str:
    if request["kind"] == "tables":
        return f"tables {request['which']}"
    if request["kind"] == "classify":
        return f"classify {request['type']}"
    return "act --mod2" if request["mod2"] else "act"


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _malformed_is_failure(check):
    """Output too broken to parse is a failed operation, not a crash of the benchmark."""

    @functools.wraps(check)
    def guarded(*args):
        try:
            return check(*args)
        except (AttributeError, IndexError, KeyError, SyntaxError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    return guarded


@_malformed_is_failure
def check_verify(code: int, stdout: str, seed: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    report = json.loads(stdout)
    if report.get("title") != "acceptance checks" or report.get("meta", {}).get("seed") != seed:
        return "report title or seed differs"
    rows = report.get("rows", [])
    failing = [row[0] for row in rows if row[1] != "PASS"]
    if failing or not rows or rows[-1][0] != "summary":
        return f"failing checks: {failing[:5]}"
    return None


def check_sweep_type(key: str, size: int, classes: dict, violations: int = 0) -> str | None:
    """Shell size and attained (fiber bit, coset) pairs of one swept type.

    ``classes`` maps each attained coset representative to the set of
    fiber bits seen on it; ``violations`` counts vectors whose fiber bit
    differs from the refinement, which the parity-bound types forbid.
    """
    if key in PARITY_BOUND and violations:
        return f"{key}: {violations} vectors break the forced fiber bit"
    if size != SHELL_SIZES[key]:
        return f"{key}: shell size {size}, expected {SHELL_SIZES[key]}"
    if len(classes) != COSETS[key]:
        return f"{key}: {len(classes)} cosets attained, expected {COSETS[key]}"
    want = 1 if key in PARITY_BOUND else 2
    wrong = sum(1 for bits in classes.values() if len(bits) != want)
    if wrong:
        return f"{key}: {wrong} cosets without exactly {want} fiber bit(s)"
    return None


def _check_table(report: dict) -> str | None:
    title = report.get("title")
    rows = report.get("rows", [])
    if title == _TABLE_TITLES["tritangents"]:
        totals = dict(zip(report["columns"][1:], rows[-1][1:]))
        if rows[-1][0] != "total" or totals != CENSUS_TOTALS:
            return f"tritangent totals {totals}"
    elif title == _TABLE_TITLES["lattices"]:
        # |V1 - R1| counts the +/- root pairs, one per positive tritangent.
        by_label = {row[0]: dict(zip(report["columns"][1:], row[1:])) for row in rows}
        for key in TYPES:
            size_v, size_r = by_label["|V|"][key], by_label["|R|"][key]
            if size_v != COSETS[key] * size_r or by_label["|V1 - R1|"][key] != CENSUS_TOTALS[key]:
                return f"strata of {key}"
    elif title == _TABLE_TITLES["mw"]:
        if tuple(row[4] for row in rows) != _KERNEL_RANKS:
            return f"kernel ranks {[row[4] for row in rows]}"
    elif title == _TABLE_TITLES["line-classes"]:
        if rows != [_LINE_CLASS_ROW]:
            return f"line classes {rows}"
    else:
        return f"unexpected table {title!r}"
    return None


def _parse_tuple(text: str) -> tuple[int, ...]:
    value = ast.literal_eval(text)
    return tuple(value) if isinstance(value, tuple) else (value,)


def _mod2_action(gram, vector, klass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expected (class in, class out) of the mod-2 transvection, from the Gram matrix.

    The radical is found by brute force over GF(2)^n (n <= 8), and a
    vanishing part is stored by its least representative modulo it.
    """
    n = len(gram)
    radical = [
        x
        for x in product((0, 1), repeat=n)
        if all(sum(gram[i][j] * x[j] for j in range(n)) % 2 == 0 for i in range(n))
    ]

    def least(bits):
        return min(tuple(a ^ b for a, b in zip(bits, r)) for r in radical)

    mu, v, nu = klass[0], least(klass[1:-1]), klass[-1]
    wbar = tuple(x & 1 for x in vector)
    vw = sum(v[i] * gram[i][j] * wbar[j] for i in range(n) for j in range(n)) % 2
    k = (sum(vector[i] * gram[i][j] * vector[j] for i in range(n) for j in range(n)) // 2) % 2
    moved = least(tuple(a ^ (b & nu) for a, b in zip(v, wbar)))
    return (mu, *v, nu), ((mu + vw + k * nu) % 2, *moved, nu)


def _check_act(request: dict, report: dict, gram) -> str | None:
    fields = {row[0]: row[1] for row in report.get("rows", [])}
    if fields.get("surface") != request["surface"]:
        return "surface differs"
    if _parse_tuple(fields["vector"]) != tuple(request["vector"]):
        return "vector differs"
    got_in, got_out = _parse_tuple(fields["class in"]), _parse_tuple(fields["class out"])
    if request["mod2"]:
        want_in, want_out = _mod2_action(gram, request["vector"], request["class"])
        if (got_in, got_out) != (want_in, want_out):
            return f"mod-2 class out {got_out}, expected {want_out}"
        return None
    matrix = [_parse_tuple(fields[f"matrix[{i}]"]) for i in range(len(got_in))]
    if got_in != tuple(request["class"]):
        return "class in differs"
    want = [sum(a * b for a, b in zip(row, got_in)) for row in matrix]
    want[0] %= 2
    if got_out != tuple(want):
        return f"class out {got_out}, expected {tuple(want)}"
    return None


@functools.cache
def gram_of(surface_key: str) -> tuple:
    """Gram matrix of a surface's lattice, read from the library being measured."""
    from conelines.lattices import SurfaceType, build_lattice

    return build_lattice(SurfaceType.from_key(surface_key).sextic()).gram


@_malformed_is_failure
def check_cli(request: dict, code: int, stdout: str) -> str | None:
    """Check one request's exit code and output."""
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(stdout)
    reports = payload if isinstance(payload, list) else [payload]
    kind = request["kind"]
    if kind == "tables":
        count = 4 if request["which"] == "all" else 1
        if len(reports) != count:
            return f"{len(reports)} tables, expected {count}"
        for report in reports:
            reason = _check_table(report)
            if reason:
                return reason
        return None
    (report,) = reports
    if kind == "classify":
        want = CENSUS_TOTALS[request["type"]]
        if len(report.get("rows", [])) != want:
            return f"{len(report.get('rows', []))} tritangents, expected {want}"
        return None
    gram = gram_of(request["surface"]) if request["mod2"] else None
    return _check_act(request, report, gram)
