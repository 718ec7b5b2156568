"""Bit-packing helpers for parallel logic simulation.

The simulators pack one logic waveform (across patterns or clock cycles)
into a single arbitrary-precision Python integer: bit ``t`` of the word is
the signal's value in pattern/cycle ``t``.  CPython's big-int bitwise ops
and :meth:`int.bit_count` make this both simple and fast — a 20k-cycle
waveform is one ~2.5 kB integer and a gate evaluation is one C-level op.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "mask",
    "pack_bits",
    "unpack_bits",
    "unpack_bool_array",
    "bit_at",
    "count_transitions",
    "pattern_count",
    "minterm_counts",
]


def mask(n: int) -> int:
    """An ``n``-bit all-ones word."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 << n) - 1


def pack_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 values into a word (first value = bit 0)."""
    word = 0
    for position, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit at position {position} is {bit!r}")
        if bit:
            word |= 1 << position
    return word


def unpack_bits(word: int, n: int) -> list[int]:
    """Unpack the low ``n`` bits of ``word`` into a list of 0/1 ints."""
    return [(word >> t) & 1 for t in range(n)]


def unpack_bool_array(word: int, n: int) -> np.ndarray:
    """Low ``n`` bits of ``word`` as a boolean numpy array (bit 0 first)."""
    raw = word.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    return bits[:n].astype(bool)


def bit_at(word: int, t: int) -> int:
    """Bit ``t`` of ``word``."""
    return (word >> t) & 1


def count_transitions(word: int, n: int) -> int:
    """Number of value changes between consecutive positions ``t``/``t+1``.

    >>> count_transitions(pack_bits([0, 1, 1, 0]), 4)
    2
    """
    if n < 2:
        return 0
    return ((word ^ (word >> 1)) & mask(n - 1)).bit_count()


def pattern_count(input_words: Sequence[int], pattern: Sequence[int],
                  n: int) -> int:
    """Count positions where the inputs jointly equal ``pattern``.

    ``input_words[i]`` is the packed waveform of input ``i``; ``pattern``
    is the tuple of 0/1 values being matched (one per input word, else
    :class:`ValueError`).  This is one count at ``k`` ANDs; the whole
    count vector of a ``k``-input gate comes from
    :func:`minterm_counts` in ``2^k - 1`` popcounts via the minterm
    split, which is how per-pattern leakage is accumulated over a scan
    episode instead of by O(cycles) table lookups.
    """
    if len(pattern) != len(input_words):
        raise ValueError(
            f"pattern has {len(pattern)} bits for "
            f"{len(input_words)} input words")
    word = mask(n)
    full = word
    for in_word, bit in zip(input_words, pattern):
        word &= in_word if bit else (in_word ^ full)
        if word == 0:
            return 0
    return word.bit_count()


def minterm_counts(input_words: Sequence[int], n: int,
                   full: int | None = None) -> list[int]:
    """Positions of each joint input value, for every input pattern.

    Entry ``code`` equals :func:`pattern_count` of the pattern whose bit
    ``j`` is input ``j``'s value (``2^k`` entries for ``k`` words).  The
    cycle set is split input by input: each parent set ``m`` yields
    ``ones = m & w`` and ``zeros = m ^ ones``, and the zero branch's
    count is the parent's minus the one branch's, so a gate costs
    ``2^k - 1`` popcounts instead of ``2^k``.

    ``full`` is the caller's ``n``-bit all-ones mask.  Passing it
    promises that every word is clear above bit ``n - 1`` (as settled
    simulation words are): the split then starts from pin 0's word
    itself, with no mask built and no AND per gate.  Without it, bits
    above ``n`` are ignored, as in :func:`pattern_count`.

    >>> minterm_counts([pack_bits([0, 1, 1]), pack_bits([0, 0, 1])], 3)
    [1, 1, 0, 1]
    """
    if not input_words:
        return [n]
    first = input_words[0]
    if full is None:
        full = mask(n)
        first &= full
    high = first.bit_count()
    counts = [n - high, high]
    last = len(input_words) - 1
    if not last:
        return counts
    masks = [first ^ full, first]
    for pin in range(1, last + 1):
        word = input_words[pin]
        # Codes below the current width are the zero branches (kept in
        # their parent's slot); the one branches append after them.
        for code in range(len(counts)):
            ones = masks[code] & word
            high = ones.bit_count()
            counts.append(high)
            counts[code] -= high
            if pin < last:
                masks.append(ones)
                masks[code] ^= ones
    return counts
