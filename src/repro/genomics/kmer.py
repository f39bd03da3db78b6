"""k-mer extraction, canonicalization, and hashing."""

from __future__ import annotations

import re
from typing import Iterator, Optional

import numpy as np

from repro.genomics.sequence import reverse_complement

#: Multiplier of the splitmix64-style integer mixer used for k-mer hashing.
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
#: XOR key deriving the second double-hashing base from the first.
_H2_KEY = 0x9E3779B97F4A7C15


# Base -> quaternary digit; packing then becomes one ``str.translate``
# plus a C-speed ``int(_, 4)`` parse instead of a per-base Python loop.
# Validity is checked up front with a regex scan — ``int`` alone would
# tolerate whitespace, signs, and ``_`` separators.
_BASE_DIGITS = str.maketrans("ACGTacgt", "01230123")
_NON_ACGT = re.compile(r"[^ACGTacgt]")


def kmer_to_int(kmer: str) -> int:
    """Pack a k-mer into an integer, 2 bits per base (A=0..T=3)."""
    bad = _NON_ACGT.search(kmer)
    if bad is not None:
        raise ValueError(f"non-ACGT character {bad.group()!r} in k-mer")
    if not kmer:
        return 0
    return int(kmer.translate(_BASE_DIGITS), 4)


def int_to_kmer(value: int, k: int) -> str:
    """Inverse of :func:`kmer_to_int`."""
    if value < 0 or value >= (1 << (2 * k)):
        raise ValueError(f"value {value} out of range for k={k}")
    out = []
    for shift in range(2 * (k - 1), -1, -2):
        out.append("ACGT"[(value >> shift) & 3])
    return "".join(out)


def canonical_kmer(kmer: str) -> str:
    """Return the lexicographically smaller of a k-mer and its revcomp.

    Canonicalization makes counting strand-independent, matching BFCounter
    and NEST semantics.
    """
    rc = reverse_complement(kmer)
    return kmer if kmer <= rc else rc


def iter_kmers(sequence: str, k: int, canonical: bool = True) -> Iterator[str]:
    """Yield every (optionally canonical) k-mer of ``sequence`` in order."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    for i in range(len(sequence) - k + 1):
        kmer = sequence[i : i + k]
        yield canonical_kmer(kmer) if canonical else kmer


def mix64(value: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.

    This is the hash the simulated hash-calculation units in the PEs
    implement; using the same function in the functional and trace forms
    keeps both code paths byte-identical in their addressing.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * _MIX_MULT_1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_MULT_2) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def kmer_hashes(kmer: str, count: int) -> list:
    """Derive ``count`` independent hash values for a k-mer.

    Uses double hashing (h1 + i*h2) over the splitmix64 mixer, the standard
    technique for Bloom-filter index derivation.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    base = kmer_to_int(canonical_kmer(kmer))
    h1 = mix64(base)
    h2 = mix64(base ^ _H2_KEY) | 1  # odd => full-period stride
    return [(h1 + i * h2) & _MASK64 for i in range(count)]


# -- vectorized form ---------------------------------------------------------

#: Anything but uppercase ACGT: such a sequence takes the scalar path (``N``
#: raises there; lowercase canonicalizes against an uppercase revcomp).
_NOT_UPPER_ACGT = re.compile(r"[^ACGT]")
#: Uppercase ACGT byte -> 2-bit code, for a sequence already checked.
_UPPER_CODES = bytes.maketrans(b"ACGT", bytes(range(4)))
#: k-mers hashed per numpy pass: bounds :func:`kmer_slots`' temporaries.
_CHUNK_KMERS = 2048
_U64 = np.uint64


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array, in place (wrapping arithmetic)."""
    values ^= values >> _U64(30)
    values *= _U64(_MIX_MULT_1)
    values ^= values >> _U64(27)
    values *= _U64(_MIX_MULT_2)
    values ^= values >> _U64(31)
    return values


def kmer_slots(
    sequence: str, k: int, num_hashes: int, modulus: int
) -> Optional[np.ndarray]:
    """Every canonical k-mer's ``num_hashes`` slots modulo ``modulus``.

    Row ``i`` of the ``(len(sequence) - k + 1, num_hashes)`` uint64 result
    is ``[h % modulus for h in kmer_hashes(sequence[i:i+k], num_hashes)]``:
    the same arithmetic in one numpy pass per sequence.  Each k-mer's
    forward and reverse-complement 2-bit codes are one exact uint64
    convolution with the powers of 4 (the largest code, ``4**32 - 1``,
    fits), the canonical code is their minimum (for uppercase ACGT that is
    the string order :func:`canonical_kmer` uses), and :func:`mix64` and
    ``h1 + i*h2`` wrap in uint64.  The sequence is hashed in chunks of 2048
    k-mers, so the temporaries stay small next to the result.

    Returns ``None`` where the scalar path must decide instead: a
    ``sequence`` with anything but uppercase ACGT, ``k`` outside 1..32 (a
    code would not fit 64 bits), ``num_hashes < 1`` or ``modulus`` outside
    ``1..2**64-1``.  Callers then hash per k-mer, which raises the scalar
    path's errors where it raises them.
    """
    if (not 1 <= k <= 32 or num_hashes < 1 or not 0 < modulus <= _MASK64
            or _NOT_UPPER_ACGT.search(sequence)):
        return None
    count = max(len(sequence) - k + 1, 0)
    out = np.empty((count, num_hashes), dtype=np.uint64)
    if not count:
        return out
    codes = np.frombuffer(sequence.encode("ascii").translate(_UPPER_CODES),
                          dtype=np.uint8)
    # Base j of a k-mer weighs 4**(k-1-j) forward; its complement weighs
    # 4**j in the reverse complement.
    powers = np.power(_U64(4), np.arange(k, dtype=np.uint64))
    strides = np.arange(num_hashes, dtype=np.uint64)
    for start in range(0, count, _CHUNK_KMERS):
        stop = min(start + _CHUNK_KMERS, count)
        window = codes[start : stop + k - 1].astype(np.uint64)
        forward = np.convolve(window, powers, "valid")
        reverse = np.convolve(_U64(3) - window, powers[::-1], "valid")
        base = np.minimum(forward, reverse)
        h2 = _mix64_array(base ^ _U64(_H2_KEY))
        h2 |= _U64(1)
        h1 = _mix64_array(base)
        np.remainder(h1[:, None] + strides * h2[:, None], _U64(modulus),
                     out=out[start:stop])
    return out
