"""The logic engine's input checks and per-gate packed evaluation.

``eval_gate_packed`` is exercised for every :class:`GateType` — including
the degenerate 0/1-input reductions the variadic types allow — pinned
against the scalar reference evaluator and against the row evaluator
``eval_row`` behind the engine and the fault replay.
"""

import pytest

from repro.errors import SimulationError
from repro.netlist.gates import GateType, eval_gate
from repro.simulation.backends import replay, simulate_state
from repro.simulation.bitsim import eval_gate_packed, simulate_packed
from repro.simulation.schedule import OPCODES, eval_row
from repro.simulation.values import bit_at, mask, pack_bits
from repro.utils.rng import make_rng

#: Arities exercised per gate type (variadic types include the degenerate
#: 0- and 1-input reductions the packed evaluators support).
ARITIES = {
    GateType.AND: (0, 1, 2, 3, 4),
    GateType.NAND: (0, 1, 2, 3, 4),
    GateType.OR: (0, 1, 2, 3, 4),
    GateType.NOR: (0, 1, 2, 3, 4),
    GateType.XOR: (0, 1, 2, 3, 4),
    GateType.XNOR: (0, 1, 2, 3, 4),
    GateType.NOT: (1,),
    GateType.BUFF: (1,),
    GateType.DFF: (1,),
    GateType.MUX2: (3,),
    GateType.CONST0: (0,),
    GateType.CONST1: (0,),
}

N_PATTERNS = 77  # deliberately not a multiple of 64

#: The engine's name, which the parametrized test ids carry.
ENGINES = ["bigint"]


def _random_words(k: int, n: int, seed: int) -> list[int]:
    rng = make_rng(seed)
    full = mask(n)
    return [int.from_bytes(rng.bytes((n + 7) // 8), "little") & full
            for _ in range(k)]


class TestEvalGatePacked:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "gtype,arity",
        [(g, a) for g, arities in ARITIES.items() for a in arities],
        ids=lambda v: str(v))
    def test_matches_scalar_reference(self, engine, gtype, arity):
        words = _random_words(arity, N_PATTERNS, seed=hash((gtype.value,
                                                            arity)) % 2**32)
        got = eval_gate_packed(gtype, words, mask(N_PATTERNS))
        expected = pack_bits(
            eval_gate(gtype, [bit_at(w, t) for w in words])
            for t in range(N_PATTERNS))
        assert got == expected

    @pytest.mark.parametrize(
        "gtype,arity",
        [(g, a) for g, arities in ARITIES.items() for a in arities
         if g in OPCODES],
        ids=lambda v: str(v))
    def test_backends_agree(self, gtype, arity):
        """The two packed evaluators agree on every gate row:
        ``eval_row`` (behind the engine and the fault replay) and
        ``eval_gate_packed``, degenerate arities included."""
        words = _random_words(arity, N_PATTERNS, seed=arity + 17)
        got = eval_row(OPCODES[gtype], tuple(range(arity)), words,
                       mask(N_PATTERNS))
        assert got == eval_gate_packed(gtype, words, mask(N_PATTERNS))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_is_masked(self, engine):
        # Inverting gates must not leak ones above bit n-1.
        for gtype in (GateType.NOT, GateType.NAND, GateType.NOR,
                      GateType.XNOR, GateType.CONST1):
            arity = ARITIES[gtype][-1]
            words = [0] * arity
            got = eval_gate_packed(gtype, words, mask(5))
            assert 0 <= got <= mask(5)


#: Every entry point that settles packed input words.
SETTLERS = [simulate_state, simulate_packed, replay]


class TestSimulatePackedDispatch:
    """Each engine entry point rejects bad stimulus the same way."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_missing_input_raises(self, engine, s27_mapped):
        for settle in SETTLERS:
            with pytest.raises(SimulationError,
                               match="missing packed input"):
                settle(s27_mapped, {}, 8)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_word_raises(self, engine, s27_mapped):
        from repro.simulation.eval2 import comb_input_lines
        words = {line: 0 for line in comb_input_lines(s27_mapped)}
        words[s27_mapped.inputs[0]] = 1 << 8  # above the 8-pattern mask
        for settle in SETTLERS:
            with pytest.raises(SimulationError, match="out of range"):
                settle(s27_mapped, words, 8)
