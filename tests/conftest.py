import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import conelines
from conelines.cli import gram_fault
from conelines.lattices import ALL_SEXTIC_TYPES, SexticType, build_lattice
from conelines.mod2 import all_residues, in_radical, q0, q_on_R

TYPE_KEYS = tuple(s.key for s in ALL_SEXTIC_TYPES)

HANDLE_KEYS = tuple(s.key for s in ALL_SEXTIC_TYPES if s.surface().handles)


@pytest.fixture(scope="session")
def e8():
    return build_lattice(SexticType(4, 0))


@pytest.fixture(scope="session")
def d6():
    return build_lattice(SexticType(2, 0))


@pytest.fixture(scope="session")
def d4_band():
    return build_lattice(SexticType.from_key("|||"))


def lattice_for(key: str):
    return build_lattice(SexticType.from_key(key))


@st.composite
def lattice_and_vectors(draw, count: int, bound: int):
    """A lattice of some type, then ``count`` integer vectors on it with
    entries in [-bound, bound]."""
    lattice = lattice_for(draw(st.sampled_from(TYPE_KEYS)))
    vec = st.lists(st.integers(-bound, bound), min_size=lattice.rank, max_size=lattice.rank)
    return (lattice, *(tuple(draw(vec)) for _ in range(count)))


#: Test ids of ``lattices_and_a_faulted_e8()``, in its order.
FAULTED_IDS = (*TYPE_KEYS, "faulted-4|0")


def lattices_and_a_faulted_e8() -> list:
    """Every lattice, then the E8 that ``--fault gram`` builds (A1 + E7: its O1-B12 edge is gone)."""
    with gram_fault():
        faulted = lattice_for("4|0")
    return [*(lattice_for(key) for key in TYPE_KEYS), faulted]


def odd_residues_outside_r1(lattice) -> set:
    """W, found without a root: the residues of q0 = 1 off the radical and
    the radical ones of Z/4 value 3 (the strata table's V1 - R1)."""
    return {x for x in all_residues(lattice) if (q_on_R(x) == 3 if in_radical(x) else q0(x))}


def assert_rejected(call, error: type[Exception], message: str) -> None:
    """``call()`` raises exactly ``error`` (not a subclass) with exactly ``message``."""
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = str(Path(conelines.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
