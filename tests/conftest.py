import os
from pathlib import Path

import pytest

import conelines
from conelines.lattices import ALL_SEXTIC_TYPES, SexticType, build_lattice

TYPE_KEYS = tuple(s.key for s in ALL_SEXTIC_TYPES)

HANDLE_KEYS = ("4|0", "3|0", "2|0", "1|0", "1|1")


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


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = str(Path(conelines.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
