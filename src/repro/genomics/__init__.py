"""Functional genomics substrate.

Self-contained implementations of the data structures and algorithms whose
acceleration the paper evaluates:

* FM-index based DNA seeding (BWA-MEM style backward search) —
  :mod:`repro.genomics.fm_index`
* Hash-index based DNA seeding (SMALT style) —
  :mod:`repro.genomics.hash_index`
* k-mer counting with counting Bloom filters (BFCounter/NEST style) —
  :mod:`repro.genomics.kmer_counting`, :mod:`repro.genomics.bloom`
* DNA pre-alignment filtering (Shouji style) —
  :mod:`repro.genomics.prealign`

Each algorithm is implemented twice over the same code path: a pure
functional form (used for correctness tests) and a *trace* form that yields
the memory-access stream the simulated processing engines execute.
"""

from repro.genomics.sequence import (
    BASES,
    complement,
    decode,
    encode,
    random_genome,
    reverse_complement,
)
from repro.genomics.kmer import canonical_kmer, iter_kmers, kmer_slots, kmer_to_int
from repro.genomics.bloom import CountingBloomFilter
from repro.genomics.fm_index import FMIndex
from repro.genomics.hash_index import HashIndex
from repro.genomics.prealign import ShoujiFilter

__all__ = [
    "BASES",
    "CountingBloomFilter",
    "FMIndex",
    "HashIndex",
    "ShoujiFilter",
    "canonical_kmer",
    "complement",
    "decode",
    "encode",
    "iter_kmers",
    "kmer_slots",
    "kmer_to_int",
    "random_genome",
    "reverse_complement",
]
