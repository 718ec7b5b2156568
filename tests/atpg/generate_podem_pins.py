"""Regenerate ``tests/atpg/podem_pins.json`` from the current code.

Run from the repo root::

    PYTHONPATH=src python tests/atpg/generate_podem_pins.py

The file pins PODEM's observable behaviour: per-fault verdict,
backtrack and decision counts and the partial assignment over the full
collapsed universe of s27 and the six circuits of the cold Table-I
campaign, plus the compacted test set of that campaign at seed 1 (which
also depends on the SAT prover: its models are the tests of PODEM
screen aborts).  The
implication core may be rewritten freely; these pins must not move.
Only commit a regenerated file for an *intentional* change of the
decision procedure.

The ``sat`` section pins the SAT redundancy prover's classification of
every fault PODEM aborts in those universes: how many it proves
redundant, finds testable or leaves unknown, and a digest of the sorted
redundant faults.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import all_faults
from repro.atpg.generate import generate_tests
from repro.atpg.podem import PodemEngine, generate_test
from repro.atpg.sat import REDUNDANT, TESTABLE, UNKNOWN, RedundancyProver
from repro.benchgen import generate_circuit
from repro.core.config import FlowConfig
from repro.netlist import builders
from repro.scan.testview import ScanDesign
from repro.techmap.mapper import technology_map

PINS = Path(__file__).parent / "podem_pins.json"

#: Circuits whose whole collapsed universe goes through PODEM.
PODEM_CIRCUITS = ("s27", "s344", "s382", "s444", "s510", "s641",
                  "s713")
#: The six Table-I rows of the cold campaign benchmark.
TESTSET_CIRCUITS = ("s344", "s382", "s444", "s510", "s641", "s713")
SEED = 1
MAX_BACKTRACKS = 100


def mapped_circuit(name: str):
    """The mapped netlist the flow runs ATPG on.

    Synthetic netlists come from the generator directly (seed 1), so a
    real-netlist directory in the environment cannot change the pins.
    """
    if name == "s27":
        return technology_map(builders.s27())
    return technology_map(generate_circuit(name, SEED))


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def universe(circuit) -> list:
    """The collapsed fault universe, in PODEM order."""
    return collapse_faults(circuit, all_faults(circuit))


@functools.lru_cache(maxsize=None)
def cached_records(name: str) -> list[dict]:
    """:func:`podem_records` of the mapped circuit ``name``, computed
    once per process (several test modules read them)."""
    return podem_records(mapped_circuit(name))


def podem_records(circuit) -> list[dict]:
    """Per-fault PODEM outcome over the collapsed universe, in order."""
    engine = PodemEngine(circuit)
    records = []
    for fault in universe(circuit):
        result = generate_test(circuit, fault, MAX_BACKTRACKS,
                               engine=engine)
        records.append({
            "fault": f"{fault.line}/{fault.stuck_at}",
            "status": result.status,
            "backtracks": result.backtracks,
            "decisions": result.decisions,
            "assignment": sorted(result.assignment.items()),
        })
    return records


def podem_line(record: dict) -> str:
    return json.dumps([record["fault"], record["status"],
                       record["backtracks"], record["decisions"],
                       record["assignment"]])


def podem_pin(records: list[dict]) -> dict:
    statuses = [r["status"] for r in records]
    return {
        "n_faults": len(records),
        "detected": statuses.count("detected"),
        "untestable": statuses.count("untestable"),
        "aborted": statuses.count("aborted"),
        "backtracks": sum(r["backtracks"] for r in records),
        "decisions": sum(r["decisions"] for r in records),
        "digest": _digest([podem_line(r) for r in records]),
    }


def sat_pin(circuit, records: list[dict]) -> dict:
    """SAT classification of the faults PODEM aborted (``records``)."""
    prover = RedundancyProver(PodemEngine(circuit))
    verdicts = {record["fault"]: prover.prove(fault).status
                for fault, record in zip(universe(circuit), records)
                if record["status"] == "aborted"}
    statuses = list(verdicts.values())
    return {
        "aborted": len(verdicts),
        "redundant": statuses.count(REDUNDANT),
        "testable": statuses.count(TESTABLE),
        "unknown": statuses.count(UNKNOWN),
        "redundant_digest": _digest(sorted(
            fault for fault, status in verdicts.items()
            if status == REDUNDANT)),
    }


def testset_pin(name: str) -> dict:
    design = ScanDesign.full_scan(mapped_circuit(name))
    test_set = generate_tests(design, FlowConfig(seed=SEED).atpg_config())
    lines = [json.dumps([sorted(v.pi_values.items()), list(v.scan_state)])
             for v in test_set.vectors]
    return {
        "n_vectors": len(test_set.vectors),
        "n_faults": test_set.n_faults,
        "n_detected": test_set.n_detected,
        "n_untestable": test_set.n_untestable,
        "digest": _digest(lines),
    }


def build_pins() -> dict:
    return {
        "podem": {name: podem_pin(cached_records(name))
                  for name in PODEM_CIRCUITS},
        "sat": {name: sat_pin(mapped_circuit(name), cached_records(name))
                for name in PODEM_CIRCUITS},
        "testsets": {name: testset_pin(name) for name in TESTSET_CIRCUITS},
    }


if __name__ == "__main__":
    PINS.write_text(json.dumps(build_pins(), indent=2, sort_keys=True)
                    + "\n")
    print(f"wrote {PINS}")
