"""Recomputed summary tables: censuses, strata sizes, group analyses.

Every entry is computed on the spot from root enumeration and integer
linear algebra; nothing in this module stores expected numbers.  The
frozen expectations live with the verification checks instead, so that a
regression in the computational core cannot hide behind its own output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology_action import count_line_classes
from .lattices import ALL_SEXTIC_TYPES, SexticType, build_lattice
from .mapping_class import mods_group_structure, translation_analysis
from .mod2 import strata_profile
from .tritangents import TritangentType, type_census

#: Column order of the census grid: the order of ``ALL_SEXTIC_TYPES``.
CENSUS_COLUMN_ORDER: tuple[str, ...] = tuple(s.key for s in ALL_SEXTIC_TYPES)

#: Column order of the strata grid, as published: the oval-free type
#: moves behind the band types.
STRATA_COLUMN_ORDER: tuple[str, ...] = (
    "4|0",
    "3|0",
    "2|0",
    "1|0",
    "1|1",
    "|||",
    "0|0",
    "0|1",
    "0|2",
    "0|3",
    "0|4",
)


@dataclass(frozen=True)
class Report:
    """A rendered-agnostic table: title, column headers, and data rows."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]


def tritangent_table() -> Report:
    """Count grid of positive tritangents by type and sextic type."""
    censuses = {
        key: type_census(SexticType.from_key(key)) for key in CENSUS_COLUMN_ORDER
    }
    rows = []
    for ttype in TritangentType:
        rows.append(
            (ttype.value,)
            + tuple(censuses[key].get(ttype, 0) for key in CENSUS_COLUMN_ORDER)
        )
    rows.append(
        ("total",) + tuple(sum(censuses[key].values()) for key in CENSUS_COLUMN_ORDER)
    )
    return Report(
        title="positive tritangent counts by type",
        columns=("tritangent type",) + CENSUS_COLUMN_ORDER,
        rows=tuple(rows),
    )


def strata_table() -> Report:
    """Sizes of the mod-2 strata of each root lattice."""
    profiles = {
        key: (
            build_lattice(SexticType.from_key(key)),
            strata_profile(build_lattice(SexticType.from_key(key))),
        )
        for key in STRATA_COLUMN_ORDER
    }
    field_rows: tuple[tuple[str, object], ...] = (
        ("lattice", lambda lat, prof: lat.name),
        ("|V|", lambda lat, prof: prof.size_v),
        ("|R|", lambda lat, prof: prof.size_r),
        ("|V1|", lambda lat, prof: prof.size_v1),
        ("|R1|", lambda lat, prof: prof.size_r1),
        ("|V1 - R1|", lambda lat, prof: prof.size_v1_minus_r1),
    )
    rows = tuple(
        (label,) + tuple(get(*profiles[key]) for key in STRATA_COLUMN_ORDER)
        for label, get in field_rows
    )
    return Report(
        title="mod-2 strata sizes by sextic type",
        columns=("quantity",) + STRATA_COLUMN_ORDER,
        rows=rows,
    )


def mw_table() -> Report:
    """Group, image, kernel and cokernel of the translation homomorphism."""
    rows = []
    for sextic in ALL_SEXTIC_TYPES:
        lattice = build_lattice(sextic)
        surface = sextic.surface()
        analysis = translation_analysis(lattice)
        rows.append(
            (
                surface.key,
                lattice.name,
                str(mods_group_structure(surface)),
                str(analysis.image),
                len(analysis.kernel_basis),
                str(analysis.cokernel),
            )
        )
    return Report(
        title="translation homomorphism analysis by surface",
        columns=(
            "surface",
            "lattice",
            "mapping class group",
            "image",
            "kernel rank",
            "cokernel",
        ),
        rows=tuple(rows),
    )


#: The five surface families sharing one line-class count each.
_LINE_CLASS_FAMILIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("K#pT2, 0<p<=4", ("4|0", "3|0", "2|0", "1|0")),
    ("K#T2+S2", ("1|1",)),
    ("K+K", ("|||",)),
    ("K+qS2, 0<=q<4", ("0|0", "0|1", "0|2", "0|3")),
    ("K+4S2", ("0|4",)),
)


def line_class_table() -> Report:
    """Number of section homology classes realized by real lines."""
    cells = []
    for _, keys in _LINE_CLASS_FAMILIES:
        counts = {
            count_line_classes(SexticType.from_key(key).surface()).finite
            for key in keys
        }
        if len(counts) != 1:
            raise AssertionError(f"line-class count differs inside family {keys}")
        value = counts.pop()
        cells.append("infinity" if value is None else value)
    return Report(
        title="homology classes of real lines",
        columns=tuple(label for label, _ in _LINE_CLASS_FAMILIES),
        rows=(tuple(cells),),
    )


def all_tables() -> tuple[Report, ...]:
    return (tritangent_table(), strata_table(), mw_table(), line_class_table())
