"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running performance tests (deselect with "
        "-m 'not slow')")

from repro.cells.library import default_library
from repro.netlist import builders
from repro.scan.testview import ScanDesign, TestVector
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


@pytest.fixture(autouse=True)
def _reset_session_runtime_options():
    """Clear the session-default runtime options after every test.

    ``repro.cli.main`` installs process-global session defaults (one
    :class:`repro.runtime.RuntimeOptions`); without this reset a CLI
    test running e.g. ``--stream-budget 64`` would leak the override
    into later tests and make the suite order-dependent.
    """
    yield
    from repro.runtime import RuntimeOptions, set_session_defaults
    set_session_defaults(RuntimeOptions())


@pytest.fixture(autouse=True)
def _shutdown_shared_pool():
    """Close the process-wide shared worker pool after every test.

    A pool-less ``sharded`` backend that splits a fault list starts the
    shared pool and leaves it running for later calls; without this
    teardown a pool forked in one test would serve later tests and make
    the suite order-dependent.
    """
    yield
    from repro.campaign.pool import shutdown_shared_pool
    shutdown_shared_pool()


@pytest.fixture
def s27():
    """The real ISCAS89 s27 circuit (4 PI, 1 PO, 3 DFF)."""
    return builders.s27()


@pytest.fixture
def s27_mapped(s27):
    """s27 technology-mapped to NAND/NOR/INV."""
    return technology_map(s27)


@pytest.fixture
def c17():
    """The combinational ISCAS85 c17 circuit."""
    return builders.c17()


@pytest.fixture
def toy():
    """The 6-flop toy scan circuit (mixed gate types)."""
    return builders.toy_scan_circuit()


@pytest.fixture
def toy_mapped(toy):
    return technology_map(toy)


@pytest.fixture
def library():
    """The default calibrated cell library (shared instance)."""
    return default_library()


@pytest.fixture
def rng():
    """A deterministic RNG for tests that need randomness."""
    return make_rng(12345)


@pytest.fixture
def s27_design(s27_mapped):
    """Full-scan design over mapped s27."""
    return ScanDesign.full_scan(s27_mapped)


def random_vectors(design: ScanDesign, n: int, seed: int = 0
                   ) -> list[TestVector]:
    """Deterministic random test vectors for a design (test helper)."""
    gen = make_rng(seed)
    vectors = []
    for _ in range(n):
        pi_values = {pi: int(gen.integers(2))
                     for pi in design.circuit.inputs}
        state = tuple(int(gen.integers(2))
                      for _ in range(design.chain.length))
        vectors.append(TestVector(pi_values=pi_values, scan_state=state))
    return vectors


@pytest.fixture
def make_vectors():
    """Factory fixture: ``make_vectors(design, n, seed)``."""
    return random_vectors
