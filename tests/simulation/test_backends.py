"""Backend resolution and per-gate packed evaluation semantics.

``eval_gate_packed`` is exercised for every :class:`GateType` — including
the degenerate 0/1-input reductions the variadic types allow — pinned
against the scalar reference evaluator.
"""

import pytest

from repro.errors import SimulationError
from repro.netlist.gates import GateType, eval_gate
from repro.simulation import backends
from repro.simulation.backends import (
    Backend,
    get_backend,
    resolve_backend,
    resolve_fault_backend,
)
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

#: The backend specs the dispatch tests pass: the one engine's name.
BACKEND_NAMES = ["bigint"]


def _random_words(k: int, n: int, seed: int) -> list[int]:
    rng = make_rng(seed)
    full = mask(n)
    return [int.from_bytes(rng.bytes((n + 7) // 8), "little") & full
            for _ in range(k)]


class TestEvalGatePacked:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "gtype,arity",
        [(g, a) for g, arities in ARITIES.items() for a in arities],
        ids=lambda v: str(v))
    def test_matches_scalar_reference(self, backend_name, gtype, arity):
        backend = get_backend(backend_name)
        words = _random_words(arity, N_PATTERNS, seed=hash((gtype.value,
                                                            arity)) % 2**32)
        got = backend.eval_gate_packed(gtype, words, N_PATTERNS)
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
        """The engine's two packed evaluators agree on every gate row:
        ``eval_row`` (behind ``run`` and the fault replay) and
        ``eval_gate_packed``, degenerate arities included."""
        words = _random_words(arity, N_PATTERNS, seed=arity + 17)
        got = eval_row(OPCODES[gtype], tuple(range(arity)), words,
                       mask(N_PATTERNS))
        assert got == get_backend("bigint").eval_gate_packed(
            gtype, words, N_PATTERNS)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_result_is_masked(self, backend_name):
        backend = get_backend(backend_name)
        # Inverting gates must not leak ones above bit n-1.
        for gtype in (GateType.NOT, GateType.NAND, GateType.NOR,
                      GateType.XNOR, GateType.CONST1):
            arity = ARITIES[gtype][-1]
            words = [0] * arity
            got = backend.eval_gate_packed(gtype, words, 5)
            assert 0 <= got <= mask(5)


class TestRegistry:
    """Name lookup without a registry: one engine, one name."""

    def test_get_unknown_backend_raises(self):
        for name in ("no-such-engine", "numpy", "sharded"):
            with pytest.raises(SimulationError, match=(
                    f"unknown simulation backend {name!r}; "
                    "available: bigint")):
                get_backend(name)

    def test_resolve_accepts_name_instance_and_none(self):
        bigint = get_backend("bigint")
        assert isinstance(bigint, backends.BigIntBackend)
        assert resolve_backend("bigint") is bigint
        assert resolve_backend(bigint) is bigint
        assert resolve_backend(None) is bigint
        assert resolve_fault_backend(None) is bigint


class TestSimulatePackedDispatch:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_missing_input_raises(self, backend_name, s27_mapped):
        backend = get_backend(backend_name)
        with pytest.raises(SimulationError, match="missing packed input"):
            backend.run(s27_mapped, {}, 8)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_out_of_range_word_raises(self, backend_name, s27_mapped):
        from repro.simulation.eval2 import comb_input_lines
        backend = get_backend(backend_name)
        words = {line: 0 for line in comb_input_lines(s27_mapped)}
        words[s27_mapped.inputs[0]] = 1 << 8  # above the 8-pattern mask
        with pytest.raises(SimulationError, match="out of range"):
            backend.run(s27_mapped, words, 8)

    def test_backend_kwarg_on_simulate_packed(self, s27_mapped):
        from repro.simulation.bitsim import (
            random_input_words,
            simulate_packed,
        )
        words = random_input_words(s27_mapped, 100, make_rng(3))
        engine = get_backend("bigint")
        results = [simulate_packed(s27_mapped, words, 100, backend=spec)
                   for spec in ("bigint", engine, None)]
        assert results[0] == results[1] == results[2]

    def test_isinstance_backend_protocol(self):
        assert isinstance(get_backend("bigint"), Backend)
