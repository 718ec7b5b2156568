"""PODEM behaviour pins: verdicts, effort counts and test sets.

``podem_pins.json`` was recorded before each rewrite of the implication
core: the s27/s344/s382 universes and the test sets with the original
(heap, re-propagate) implication, the s444/s510/s641/s713 universes with
the incremental two-list engine that preceded the pair-code engine.  The
decision procedure is unchanged, so every per-fault verdict, backtrack
and decision count and assignment, and every compacted test set of the
cold Table-I campaign must match it bit for bit.  The SAT screen of
PODEM's aborts first only turned proven-redundant aborts into
"untestable", and only the test sets' ``n_untestable`` counts were
re-recorded.  Since a "testable" answer's model is used as the fault's
test in place of a full-budget PODEM re-run, the ``testsets`` section
was re-recorded (vectors and ``n_detected``) while the ``podem`` and
``sat`` sections stayed as they were.  The implication stage of the
prover's fast path re-recorded ``testsets`` once more (vectors only: a
fault it settles runs no SAT search, so later models move); the
detected and untestable counts and the ``podem`` and ``sat`` sections
did not move.  The ``sat`` pins hold the redundancy prover's
classification of every PODEM abort.  Regenerate with
``tests/atpg/generate_podem_pins.py`` only for an intentional change of
the decision procedure.
"""

from __future__ import annotations

import json

import pytest

import generate_podem_pins as pins_module

PINS = json.loads(pins_module.PINS.read_text())


@pytest.mark.parametrize("name", pins_module.PODEM_CIRCUITS)
def test_podem_universe_pinned(name):
    records = pins_module.cached_records(name)
    assert pins_module.podem_pin(records) == PINS["podem"][name]


@pytest.mark.parametrize("name", pins_module.PODEM_CIRCUITS)
def test_sat_classification_of_aborts_pinned(name):
    records = pins_module.cached_records(name)
    pin = pins_module.sat_pin(pins_module.mapped_circuit(name), records)
    assert pin == PINS["sat"][name]


@pytest.mark.parametrize("name", pins_module.TESTSET_CIRCUITS)
def test_table1_test_set_pinned(name):
    assert pins_module.testset_pin(name) == PINS["testsets"][name]
