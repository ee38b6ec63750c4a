"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The frozen generator-dispatch oracle (``tests/ssd/_generator_oracle.py``)
# imports by module name from every test directory.
sys.path.insert(0, str(Path(__file__).parent / "ssd"))

from repro.bch.params import BCHCodeSpec, design_code
from repro.gf.field import GF2m, get_field
from repro.nand.program import PageProgrammer


@pytest.fixture(scope="session")
def gf16() -> GF2m:
    """GF(2^4): small enough for exhaustive checks."""
    return get_field(4)


@pytest.fixture(scope="session")
def gf256() -> GF2m:
    """GF(2^8)."""
    return get_field(8)


@pytest.fixture(scope="session")
def small_spec() -> BCHCodeSpec:
    """A small code for fast decode round-trips: k = 64, t = 3."""
    return design_code(64, 3)


@pytest.fixture(scope="session")
def medium_spec() -> BCHCodeSpec:
    """A medium code: k = 1024 bits, t = 8."""
    return design_code(1024, 8)


@pytest.fixture(scope="session")
def page_spec() -> BCHCodeSpec:
    """The paper's page-sized code at a moderate capability."""
    return design_code(32768, 8)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def programmer(rng: np.random.Generator) -> PageProgrammer:
    """Page programmer with a deterministic RNG."""
    return PageProgrammer(rng=rng)


def flip_bits(codeword: bytes, positions: list[int]) -> bytes:
    """Return a copy of ``codeword`` with the given bit positions flipped."""
    corrupted = bytearray(codeword)
    for pos in positions:
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted)
