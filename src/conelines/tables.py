"""Recomputed summary tables: censuses, strata sizes, group analyses.

Every entry is computed on the spot from root enumeration and integer
linear algebra; nothing in this module stores expected numbers.  The
frozen expectations live with the verification checks instead, so that a
regression in the computational core cannot hide behind its own output.
Each table imports its own layer when it is built, so importing this
module loads only ``lattices``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from types import MappingProxyType

from .lattices import ALL_SEXTIC_TYPES, SexticType, SurfaceType, build_lattice

#: The types in the published column order of the strata grid: a stable
#: sort of ``ALL_SEXTIC_TYPES`` that moves the oval-free ``0|q`` types
#: behind the band type.
_STRATA_TYPES: tuple[SexticType, ...] = tuple(
    sorted(ALL_SEXTIC_TYPES, key=lambda s: not (s.pos_ovals or s.bands))
)


@dataclass(frozen=True)
class Report:
    """A rendered-agnostic table: title, column headers, and data rows."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]


def tritangent_table() -> Report:
    """Count grid of positive tritangents by type and sextic type."""
    from .tritangents import TritangentType, type_census

    censuses = [type_census(sextic) for sextic in ALL_SEXTIC_TYPES]
    rows = [(ttype.value, *(census[ttype] for census in censuses)) for ttype in TritangentType]
    rows.append(("total", *(sum(census.values()) for census in censuses)))
    return Report(
        title="positive tritangent counts by type",
        columns=("tritangent type", *(s.key for s in ALL_SEXTIC_TYPES)),
        rows=tuple(rows),
    )


def strata_table() -> Report:
    """Sizes of the mod-2 strata of each root lattice."""
    from .mod2 import strata_profile

    lattices = [build_lattice(sextic) for sextic in _STRATA_TYPES]
    sizes = [astuple(strata_profile(lattice))[:5] for lattice in lattices]
    labels = ("|V|", "|R|", "|V1|", "|R1|", "|V1 - R1|")
    return Report(
        title="mod-2 strata sizes by sextic type",
        columns=("quantity", *(s.key for s in _STRATA_TYPES)),
        rows=(("lattice", *(lattice.name for lattice in lattices)), *zip(labels, *sizes)),
    )


def mw_table() -> Report:
    """Group, image, kernel and cokernel of the translation homomorphism."""
    from .mapping_class import mods_group_structure, translation_analysis

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


def _line_class_family(surface: SurfaceType) -> str:
    """The column of the line-class table that holds ``surface``: the five
    published families share one line-class count each."""
    if surface.double_klein:
        return "K+K"
    if surface.handles:
        return "K#T2+S2" if surface.spheres else "K#pT2, 0<p<=4"
    return "K+4S2" if surface.spheres == 4 else "K+qS2, 0<=q<4"


def line_class_table() -> Report:
    """Number of section homology classes realized by real lines.

    The families come in the order of their first type in the strata grid,
    and each shows the count of that first surface.
    """
    from .homology_action import count_line_classes

    families: dict[str, SurfaceType] = {}
    for sextic in _STRATA_TYPES:
        surface = sextic.surface()
        families.setdefault(_line_class_family(surface), surface)
    counts = [count_line_classes(surface).finite for surface in families.values()]
    return Report(
        title="homology classes of real lines",
        columns=tuple(families),
        rows=(tuple("infinity" if value is None else value for value in counts),),
    )


#: Every table by name, in report order.
TABLES = MappingProxyType({
    "tritangents": tritangent_table,
    "lattices": strata_table,
    "mw": mw_table,
    "line-classes": line_class_table,
})


def all_tables() -> tuple[Report, ...]:
    return tuple(build() for build in TABLES.values())
