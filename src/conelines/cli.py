"""Command-line front end: census tables, classification listings, checks.

Four subcommands share one report pipeline.  Each subparser names its
handler (``set_defaults(run=...)``), which reads the parsed arguments and
imports the library layers it needs, so a request loads only its own:

* ``tables`` renders the census/analysis tables (always recomputed);
* ``classify`` lists every positive tritangent of one curve type;
* ``verify`` runs the acceptance checks and exits nonzero on failure;
* ``act`` applies a translation to a homology class and prints the
  matrix, with ``--mod2`` switching to the mod-2 action.

Reports render as markdown (default), csv, or json; json documents carry
``{title, columns, rows, meta{version, seed}}`` with sorted keys.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  Every bad input
is decided in ``main``: argparse prints its usage message, and any
``ValueError`` (the library's error for bad input) or ``OSError`` becomes
one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Iterator, Sequence

from . import __version__, lattices
from .lattices import SexticType, SurfaceType, build_lattice
from .tables import TABLES, Report, all_tables

if TYPE_CHECKING:
    from .mapping_class import ModSElement


# ---------------------------------------------------------------------------
# rendering


def _md_cell(value: object) -> str:
    return str(value).replace("|", "\\|")


def _render_md(reports: Sequence[Report]) -> str:
    blocks = []
    for report in reports:
        lines = [f"## {report.title}", ""]
        lines.append("| " + " | ".join(_md_cell(c) for c in report.columns) + " |")
        lines.append("| " + " | ".join("---" for _ in report.columns) + " |")
        for row in report.rows:
            lines.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_csv(reports: Sequence[Report]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i, report in enumerate(reports):
        if i:
            out.write("\n")
        out.write(f"# {report.title}\n")
        writer.writerow(report.columns)
        writer.writerows(report.rows)
    return out.getvalue()


def _render_json(reports: Sequence[Report], meta: dict) -> str:
    objects = [
        {"title": r.title, "columns": list(r.columns), "rows": [list(row) for row in r.rows], "meta": meta}
        for r in reports
    ]
    payload = objects[0] if len(objects) == 1 else objects
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(reports: Sequence[Report], fmt: str, meta: dict) -> str:
    if fmt == "json":
        return _render_json(reports, meta)
    if fmt == "csv":
        return _render_csv(reports)
    return _render_md(reports)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers of ASCII digits, each part and the whole
    text with ASCII blanks around them ignored; "" or "-" is no integer."""
    if text.strip(lattices._BLANKS) in ("", "-"):
        return ()
    parts = [part.strip(lattices._BLANKS) for part in text.split(",")]
    if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
        raise ValueError(f"{what} must be comma-separated integers: {text!r}")
    return tuple(map(int, parts))


def _fmt_set(s: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _fmt_mods(g: ModSElement) -> str:
    from .mapping_class import _slots

    return " ".join(f"{slot.split('_')[0]}={getattr(g, slot)}" for slot in _slots(g.surface))


# ---------------------------------------------------------------------------
# subcommands


def cmd_tables(args: argparse.Namespace) -> tuple[Sequence[Report], int]:
    return (all_tables() if args.which == "all" else (TABLES[args.which](),)), 0


def cmd_classify(args: argparse.Namespace) -> tuple[Sequence[Report], int]:
    from .tritangents import TritangentType, enumerate_tritangents

    sextic = SexticType.from_key(args.type)
    order = {t: i for i, t in enumerate(TritangentType)}
    listing = sorted(
        enumerate_tritangents(sextic),
        key=lambda t: (order[t.ttype], t.code.serialize() if t.code else "", t.root_pair[0]),
    )
    rows = tuple(
        (
            str(t.root_pair[0]),
            _fmt_set(t.s_in),
            _fmt_set(t.s_tan),
            str(t.ttype),
            t.code.serialize() if t.code else "",
        )
        for t in listing
    )
    report = Report(
        title=f"positive tritangents of type {sextic.key}",
        columns=("root", "inner", "tangent", "type", "code"),
        rows=rows,
    )
    return (report,), 0


@contextmanager
def gram_fault() -> Iterator[None]:
    """Corrupt the rank-8 lattice while the body runs: its O1-B12 edge is gone.

    The censuses must then fail.  The body's context sees a copy of the
    lattice table holding the faulted lattice; the shared table is never
    written, so other threads keep the clean one.  Every table derived
    from the faulted lattice lives on it and dies with it, so nothing
    needs clearing.
    """
    table = lattices._LATTICES.get()
    faulted = dataclasses.replace(table["4|0"], edges=table["4|0"].edges[1:])
    token = lattices._LATTICES.set({**table, "4|0": faulted})
    try:
        yield
    finally:
        lattices._LATTICES.reset(token)


def cmd_verify(args: argparse.Namespace) -> tuple[Sequence[Report], int]:
    from .verify import run_all

    with gram_fault() if args.fault else nullcontext():
        results = run_all(args.seed)
    failed = sum(1 for r in results if not r.passed)
    rows = [
        (r.name, "PASS" if r.passed else "FAIL", r.observed, r.expected)
        for r in results
    ]
    rows.append(
        (
            "summary",
            "PASS" if failed == 0 else "FAIL",
            f"{len(results) - failed}/{len(results)} checks passed",
            "all checks pass",
        )
    )
    report = Report(
        title="acceptance checks",
        columns=("check", "status", "observed", "expected"),
        rows=tuple(rows),
    )
    return (report,), (1 if failed else 0)


def cmd_act(args: argparse.Namespace) -> tuple[Sequence[Report], int]:
    from .mapping_class import translation_class

    surface = SurfaceType.from_key(args.surface)
    lattice = build_lattice(surface.sextic())
    vector = _parse_ints(args.vector, "the translation vector")
    if len(vector) != lattice.rank:
        raise ValueError(
            f"translation vector has {len(vector)} coordinates, "
            f"but the {surface.key} lattice has rank {lattice.rank}"
        )
    coords = _parse_ints(args.klass, "the class")
    g = translation_class(lattice, vector)
    rows: list[tuple[str, str]] = [
        ("surface", surface.key),
        ("vector", str(vector)),
        ("translation", _fmt_mods(g)),
    ]

    if args.mod2:
        from .mod2 import Mod2Vector
        from .translations import H1Mod2Class, mw_act_h1_mod2

        if len(coords) != lattice.rank + 2:
            raise ValueError(
                f"a mod-2 class on {surface.key} takes {lattice.rank + 2} coordinates "
                "(fiber bit, one bit per lattice direction, section bit)"
            )
        x = H1Mod2Class(coords[0], Mod2Vector(coords[1:-1], lattice), coords[-1])
        y = mw_act_h1_mod2(lattice, vector, x)
        rows.append(("class in", str((x.mu, *x.v_part.bits, x.nu))))
        rows.append(("class out", str((y.mu, *y.v_part.bits, y.nu))))
    else:
        from .homology_action import action_matrix, class_coords, class_from_coords, section_delta

        matrix = action_matrix(surface, section_delta(g))
        dim = len(matrix.entries)
        if len(coords) != dim:
            raise ValueError(
                f"a homology class on {surface.key} takes {dim} coordinates "
                "(fiber bit, one bridge/oval pair per handle, section coefficient)"
            )
        x = class_from_coords(coords)
        y = matrix.apply(x)
        for i, matrix_row in enumerate(matrix.entries):
            rows.append((f"matrix[{i}]", str(tuple(matrix_row))))
        rows.append(("class in", str(class_coords(x))))
        rows.append(("class out", str(class_coords(y))))

    report = Report(
        title=f"translation action on {surface.key}",
        columns=("field", "value"),
        rows=tuple(rows),
    )
    return (report,), 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "md"), default="md")
    common.add_argument("--seed", type=int, default=0, metavar="U64")
    common.add_argument("--out", default=None, metavar="PATH")

    parser = argparse.ArgumentParser(
        prog="conelines",
        description="census of real lines and tritangents, and the translation action",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", parents=[common], help="render census tables")
    p_tables.add_argument("which", choices=(*TABLES, "all"))
    p_tables.set_defaults(run=cmd_tables)

    p_classify = sub.add_parser(
        "classify", parents=[common], help="list the positive tritangents of one type"
    )
    p_classify.add_argument("type", help="curve type such as 4|0, 1|1, 0|2, or |||")
    p_classify.set_defaults(run=cmd_classify)

    p_verify = sub.add_parser("verify", parents=[common], help="run all acceptance checks")
    p_verify.add_argument(
        "--fault", choices=("gram",), default=None, help="corrupt one lattice, so the checks fail"
    )
    p_verify.set_defaults(run=cmd_verify)

    p_act = sub.add_parser(
        "act", parents=[common], help="apply a translation to a homology class"
    )
    p_act.add_argument("surface", help="surface type such as K#2T2, K+S2, or K+K")
    p_act.add_argument("vector", help="comma-separated lattice coordinates")
    p_act.add_argument("klass", metavar="class", help="comma-separated class coordinates")
    p_act.add_argument("--mod2", action="store_true", help="act on mod-2 classes")
    p_act.set_defaults(run=cmd_act)
    return parser


_NEGATIVE_LIST = re.compile(r"-\d+(?:,-?\d+)+")

#: The spellings of ``--out`` argparse accepts (no other option starts with "--o").
_OUT_SPELLINGS = ("--o", "--ou", "--out")


def _shield_negative_lists(argv: Sequence[str]) -> list[str]:
    """Prefix each comma-separated list of integers that starts with "-" with a space.

    argparse reads a token that starts with "-" as an option unless it is a
    single negative number, so ``-3,-1,1,0,0`` would be an unknown option.
    No option of this command starts with a digit, so such a token is
    always a positional; with the space argparse takes it as one, and
    ``_parse_ints`` ignores the space.  ``act 'K#T2' -3,-1,1,0,0 1,0,1,1``
    thus parses like its ``--`` form while options may still stand anywhere.
    The one exception is the value of ``--out``, a file name, which is
    attached to the option as ``--out=-3,1`` instead.
    """
    out: list[str] = []
    for arg in argv:
        if _NEGATIVE_LIST.fullmatch(arg):
            if out and out[-1] in _OUT_SPELLINGS:
                out[-1] = f"--out={arg}"
                continue
            arg = " " + arg
        out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_shield_negative_lists(sys.argv[1:] if argv is None else argv))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    # argparse before Python 3.13 reads a second "--" as an empty list in a positional's place.
    if any(isinstance(value, list) for value in vars(args).values()):
        parser.error('"--" may stand only once')

    try:
        reports, code = args.run(args)
        text = render(reports, args.format, {"version": __version__, "seed": args.seed})
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
