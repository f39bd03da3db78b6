"""Hash-index based DNA seeding (SMALT-style).

The reference genome is indexed by sampling k-mers every ``stride`` bases
into a bucketed hash table.  Each bucket stores the list of reference
positions of its k-mers.  A seeding query hashes a read k-mer, reads the
bucket header (offset + length into the location store), then streams the
candidate locations.

Memory layout (what the simulator addresses):

* **bucket directory** — ``num_buckets`` records of 8 bytes
  (4 B offset + 4 B count) starting at offset 0;
* **location store** — 4-byte reference positions, grouped per bucket,
  starting right after the directory.

Grouping a bucket's locations contiguously is exactly the "multiple matching
locations for a seed stored continuously within the same DRAM row" layout
that the paper's data-aware address mapping exploits (Section IV-C); the
naive mapping in the ablations scatters those rows across DIMMs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.genomics.kmer import canonical_kmer, kmer_slots, kmer_to_int, mix64

#: Bytes per bucket-directory record (offset + count).
BUCKET_HEADER_BYTES = 8
#: Bytes per stored reference location.
LOCATION_BYTES = 4


@dataclass(frozen=True)
class HashQueryAccess:
    """Memory accesses one seed lookup performs.

    ``header_addr`` is the 8-byte directory read; ``location_addrs`` are the
    4-byte location reads (contiguous within the bucket's slice).
    """

    kmer: str
    bucket: int
    header_addr: int
    location_addrs: Tuple[int, ...]
    locations: Tuple[int, ...]


class HashIndex:
    """Bucketed k-mer hash index over a reference genome."""

    def __init__(
        self,
        reference: str,
        k: int = 13,
        stride: int = 1,
        num_buckets: int = 0,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if stride <= 0:
            raise ValueError("stride must be positive")
        if len(reference) < k:
            raise ValueError("reference shorter than k")
        self.reference = reference
        self.k = k
        self.stride = stride
        sampled = range(0, len(reference) - k + 1, stride)
        if num_buckets <= 0:
            num_buckets = max(64, len(range(0, len(reference) - k + 1, stride)))
        self.num_buckets = num_buckets

        # A k-mer's bucket is its first hash slot: ``kmer_slots`` with one
        # hash, hashing the whole reference in one numpy pass.
        rows = kmer_slots(reference, k, 1, num_buckets)
        if rows is None:  # not uppercase ACGT (or k > 32): hash per k-mer
            bucket_of: Iterable[int] = (
                self._bucket_of(reference[pos : pos + k]) for pos in sampled
            )
        else:
            bucket_of = rows[::stride, 0].tolist()
        buckets: Dict[int, List[int]] = {}
        for pos, bucket in zip(sampled, bucket_of):
            buckets.setdefault(bucket, []).append(pos)

        # Flatten into the directory + location-store layout.
        self._bucket_offset = [0] * num_buckets
        self._bucket_count = [0] * num_buckets
        self._locations: List[int] = []
        for bucket in sorted(buckets):
            self._bucket_offset[bucket] = len(self._locations)
            self._bucket_count[bucket] = len(buckets[bucket])
            self._locations.extend(sorted(buckets[bucket]))
        self.directory_bytes = num_buckets * BUCKET_HEADER_BYTES
        self.locations_bytes = len(self._locations) * LOCATION_BYTES

    # -- layout ---------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total footprint: directory followed by the location store."""
        return self.directory_bytes + self.locations_bytes

    def header_address(self, bucket: int) -> int:
        """Byte offset of a bucket's directory record."""
        if not 0 <= bucket < self.num_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        return bucket * BUCKET_HEADER_BYTES

    def location_address(self, slot: int) -> int:
        """Byte offset of location-store slot ``slot``."""
        if not 0 <= slot < len(self._locations):
            raise ValueError(f"slot {slot} out of range")
        return self.directory_bytes + slot * LOCATION_BYTES

    def _bucket_of(self, kmer: str) -> int:
        return mix64(kmer_to_int(canonical_kmer(kmer))) % self.num_buckets

    # -- queries ---------------------------------------------------------------

    def lookup(self, kmer: str) -> List[int]:
        """Reference positions whose sampled k-mer hashes to this k-mer's bucket.

        Because the table is bucketed (no stored keys, as in SMALT's compact
        table), collisions can add spurious candidates; downstream
        pre-alignment/alignment filters them, which is why the genome
        pipeline (Fig. 2) chains seeding into pre-alignment.
        """
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got length {len(kmer)}")
        bucket = self._bucket_of(kmer)
        offset = self._bucket_offset[bucket]
        count = self._bucket_count[bucket]
        return list(self._locations[offset : offset + count])

    def lookup_trace(self, kmer: str) -> HashQueryAccess:
        """The memory-access record for one seed lookup."""
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got length {len(kmer)}")
        bucket = self._bucket_of(kmer)
        offset = self._bucket_offset[bucket]
        count = self._bucket_count[bucket]
        return HashQueryAccess(
            kmer=kmer,
            bucket=bucket,
            header_addr=self.header_address(bucket),
            location_addrs=tuple(
                self.location_address(offset + i) for i in range(count)
            ),
            locations=tuple(self._locations[offset : offset + count]),
        )

    def seed_read(self, read: str, seed_stride: int = 0) -> Iterator[HashQueryAccess]:
        """Seed a read: look up every ``seed_stride``-spaced k-mer.

        ``seed_stride`` defaults to ``k`` (non-overlapping seeds), the usual
        seeding density for hash-based mappers.
        """
        if seed_stride <= 0:
            seed_stride = self.k
        for pos in range(0, len(read) - self.k + 1, seed_stride):
            yield self.lookup_trace(read[pos : pos + self.k])
