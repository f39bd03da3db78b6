"""Counting Bloom filter.

The k-mer counting accelerators (NEST and BEACON's KMC engine) store k-mer
abundance in a counting Bloom filter: an array of small saturating counters
indexed by ``h`` hash functions.  The filter supports merging (NEST's
multi-pass flow merges per-DIMM filters into a global one) and exposes the
counter *addresses* each update touches, which is what the simulator needs.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.genomics.kmer import iter_kmers, kmer_hashes, kmer_slots

#: k-mers :meth:`CountingBloomFilter.insert_sequence` adds per pass, so a
#: whole reference never materializes its slot array at once.  2048 raised
#: mt-serving's ``peak_rss_mb`` by 0.4 MB more than 512 does.
_INSERT_CHUNK_KMERS = 512


class CountingBloomFilter:
    """Counting Bloom filter with saturating fixed-width counters.

    Parameters
    ----------
    num_counters:
        Number of counter slots (the ``m`` parameter).
    num_hashes:
        Number of hash functions (the ``h`` parameter).
    counter_bits:
        Width of each counter; counters saturate at ``2**counter_bits - 1``.
    """

    def __init__(self, num_counters: int, num_hashes: int = 4, counter_bits: int = 4) -> None:
        if num_counters <= 0:
            raise ValueError("num_counters must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        if not 1 <= counter_bits <= 16:
            raise ValueError("counter_bits must be in 1..16")
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self.counter_bits = counter_bits
        self.saturation = (1 << counter_bits) - 1
        self.counters = np.zeros(num_counters, dtype=np.uint16)
        self.insertions = 0

    @classmethod
    def for_expected_items(
        cls,
        expected_items: int,
        false_positive_rate: float = 0.01,
        counter_bits: int = 4,
    ) -> "CountingBloomFilter":
        """Size a filter for ``expected_items`` at a target false-positive rate."""
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        bits = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
        hashes = max(1, round(bits / expected_items * math.log(2)))
        return cls(max(8, int(bits)), num_hashes=hashes, counter_bits=counter_bits)

    # -- addressing ----------------------------------------------------------

    def slots(self, kmer: str) -> List[int]:
        """Counter indices an insert/query of ``kmer`` touches."""
        return [h % self.num_counters for h in kmer_hashes(kmer, self.num_hashes)]

    # -- operations ----------------------------------------------------------

    def insert(self, kmer: str) -> List[int]:
        """Increment the k-mer's counters (saturating); return touched slots."""
        slots = self.slots(kmer)
        self.insert_slots(slots)
        return slots

    def insert_slots(self, slots: Sequence[int]) -> None:
        """One insertion of a k-mer whose slots are already known.

        ``slots`` is what :meth:`slots` (or a row of
        :func:`~repro.genomics.kmer.kmer_slots`) gives for the k-mer; a slot
        listed twice is incremented twice, as :meth:`insert` does.
        """
        counters, saturation = self.counters, self.saturation
        for slot in slots:
            if counters[slot] < saturation:
                counters[slot] += 1
        self.insertions += 1

    def insert_sequence(self, sequence: str, k: int) -> None:
        """Insert every canonical k-mer of ``sequence``.

        Equals :meth:`insert` per k-mer of ``iter_kmers(sequence, k)``:
        saturating +1 steps commute, so each chunk of k-mers adds its
        per-slot counts (``np.unique``) at once, capped at the saturation
        value, and the counters and :attr:`insertions` come out the same.
        A chunk :func:`~repro.genomics.kmer.kmer_slots` cannot hash (not
        uppercase ACGT, or ``k > 32``) is inserted per k-mer, which raises
        the scalar path's errors.
        """
        for start in range(0, len(sequence) - k + 1, _INSERT_CHUNK_KMERS):
            piece = sequence[start : start + _INSERT_CHUNK_KMERS + k - 1]
            rows = kmer_slots(piece, k, self.num_hashes, self.num_counters)
            if rows is None:
                for kmer in iter_kmers(piece, k):
                    self.insert(kmer)
                continue
            slots, counts = np.unique(rows, return_counts=True)
            old = self.counters[slots]
            # A counter already past saturation stays as it is, as in insert.
            self.counters[slots] = np.minimum(
                old + counts, np.maximum(old, self.saturation)
            )
            self.insertions += len(rows)

    def count(self, kmer: str) -> int:
        """Estimated abundance: the minimum over the k-mer's counters.

        Never underestimates (no false negatives); may overestimate due to
        hash collisions — the classic counting-Bloom-filter guarantee that
        the property tests pin down.
        """
        return int(min(self.counters[slot] for slot in self.slots(kmer)))

    def contains(self, kmer: str) -> bool:
        """Whether the k-mer has (apparently) been inserted at least once."""
        return self.count(kmer) > 0

    def merge(self, other: "CountingBloomFilter") -> None:
        """Add ``other``'s counters into this filter (saturating).

        Both filters must have identical geometry; this is the NEST merge
        step that produces the global filter from per-DIMM locals.
        """
        if (
            other.num_counters != self.num_counters
            or other.num_hashes != self.num_hashes
            or other.counter_bits != self.counter_bits
        ):
            raise ValueError("cannot merge filters with different geometry")
        merged = self.counters.astype(np.uint32) + other.counters.astype(np.uint32)
        self.counters = np.minimum(merged, self.saturation).astype(np.uint16)
        self.insertions += other.insertions

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the counter array in bytes (packed width)."""
        return (self.num_counters * self.counter_bits + 7) // 8

    @property
    def load_factor(self) -> float:
        """Fraction of non-zero counters."""
        return float(np.count_nonzero(self.counters)) / self.num_counters
