"""Binary expansions and bit-source interleaving.

Bit sources are total deterministic prefix rules: any finite prefix is
obtainable in one piece, and each prefix starts every longer one.  Points
with a dyadic coordinate are rejected from expansion because both of their
binary expansions would be legitimate, which would break interleaving
determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .rationals import is_dyadic

Bits = tuple[int, ...]


class DyadicCoordinateError(ValueError):
    """Raised when a point offered for binary expansion has a dyadic coordinate."""


@dataclass(frozen=True, eq=False)
class BitSource:
    """Deterministic total map index -> {0, 1}, read as prefixes.

    ``rule(n)`` returns the prefix of length n >= 0 in one piece, a tuple of
    n bits that is the start of every longer prefix.
    """

    rule: Callable[[int], Bits]

    def prefix(self, length: int) -> Bits:
        return self.rule(length)


def constant_bits(bit: int) -> BitSource:
    if bit not in (0, 1):
        raise ValueError("constant bit must be 0 or 1")
    return BitSource(lambda n: (bit,) * n)


def pattern_bits(pattern: Sequence[int], repeat: bool = True) -> BitSource:
    """Finite pattern, optionally repeated; zero-padded when not repeated."""
    pat = tuple(int(b) for b in pattern)
    if not pat or any(b not in (0, 1) for b in pat):
        raise ValueError("pattern must be a nonempty 0/1 sequence")
    if repeat:
        return BitSource(lambda n: (pat * -(-n // len(pat)))[:n])
    return BitSource(lambda n: pat[:n] + (0,) * (n - len(pat)))


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII binary digits -> the bytes 0 and 1


def bits_of_fraction(value: Fraction) -> BitSource:
    """The binary expansion of value in [0, 1]; dyadic values are rejected.

    Bit k is the last binary digit of floor(value * 2**(k + 1)), so a prefix
    of length n > 0 is the n binary digits of floor(value * 2**n), written once.
    """
    if not 0 <= value <= 1:
        raise ValueError(f"{value} lies outside [0, 1]")
    if is_dyadic(value):
        raise DyadicCoordinateError(f"{value} is dyadic; expansion is ambiguous")
    num, den = value.numerator, value.denominator

    def rule(n: int) -> Bits:
        return tuple(format((num << n) // den, f"0{n}b").encode().translate(_DIGIT_BITS)) if n else ()

    return BitSource(rule)


def fraction_from_bits(bits: Sequence[int]) -> Fraction:
    """Sum of bit(k) * 2**-(k+1): the dyadic left end of the coded interval."""
    total = 0
    for b in bits:
        total = (total << 1) | int(b)
    return Fraction(total, 1 << len(bits)) if bits else Fraction(0)


def interleave(sources: Sequence[BitSource]) -> BitSource:
    """Round-robin merge: output bit n*k + j is source j's bit k."""
    if not sources:
        raise ValueError("interleave requires at least one source")
    srcs = tuple(sources)
    n = len(srcs)

    def rule(length: int) -> Bits:
        bits = [0] * length
        for j, src in enumerate(srcs):
            bits[j::n] = src.prefix(len(range(j, length, n)))
        return tuple(bits)

    return BitSource(rule)
