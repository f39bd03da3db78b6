"""FM-index: BWT, sampled occurrence checkpoints, backward search.

The index layout mirrors the flattened structure MEDAL/BEACON walk in DRAM:
the BWT is split into blocks of :data:`FMIndex.BASES_PER_BLOCK` symbols, and
each block is stored as one 32-byte record containing

* four 4-byte cumulative symbol counts (``occ`` up to the block start), and
* the block's BWT symbols packed 2 bits each (16 bytes = 64 symbols).

One backward-search step therefore performs exactly two 32-byte fine-grained
memory reads (``occ`` at ``top`` and at ``bot``), which is the access pattern
Section IV-D and MEDAL describe.  :meth:`FMIndex.search_trace` exposes that
stream of block indices so the simulated FM-index engines execute the real
algorithm on real addresses.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.genomics.sequence import encode

#: Sentinel symbol code (lexicographically smallest, appended to the text).
SENTINEL = 4


def build_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling (O(n log^2 n), numpy-vectorized).

    ``codes`` is the text *without* sentinel; the returned array orders the
    ``n + 1`` suffixes of ``text + $`` with the sentinel smallest, so
    ``sa[0] == n`` always.
    """
    n = len(codes) + 1
    # Shift codes up by one so the sentinel can take rank 0.
    rank = np.zeros(n, dtype=np.int64)
    rank[:-1] = codes.astype(np.int64) + 1
    k = 1
    tmp = np.empty(n, dtype=np.int64)
    while k < n:
        second = np.full(n, -1, dtype=np.int64)
        second[:-k] = rank[k:]
        order = np.lexsort((second, rank))
        tmp[order[0]] = 0
        ordered_rank = rank[order]
        ordered_second = second[order]
        changed = (ordered_rank[1:] != ordered_rank[:-1]) | (
            ordered_second[1:] != ordered_second[:-1]
        )
        tmp[order[1:]] = np.cumsum(changed)
        rank[:] = tmp
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64)
        k *= 2
    return np.argsort(rank, kind="stable").astype(np.int64)


class FMStepAccess(NamedTuple):
    """One backward-search step's memory footprint.

    ``blocks`` holds the (deduplicated, ordered) index-block numbers read in
    this step; each corresponds to one 32-byte fine-grained access.  A
    NamedTuple: one is constructed per backward-search step across every
    seeding task, where frozen-dataclass construction cost is measurable.
    """

    symbol: int
    blocks: Tuple[int, ...]
    interval: Tuple[int, int]


class FMIndex:
    """FM-index over a DNA text with a block-checkpointed occ structure."""

    #: BWT symbols per checkpoint block.
    BASES_PER_BLOCK = 64
    #: Bytes per block record: 4 counts x 4 B + 64 symbols x 2 bits.
    BLOCK_BYTES = 32

    def __init__(self, text: str) -> None:
        if not text:
            raise ValueError("cannot index an empty text")
        self.text = text
        codes = encode(text)
        self.length = len(codes)
        self.suffix_array = build_suffix_array(codes)
        n = self.length
        # BWT over text + sentinel: bwt[i] = (text + $)[sa[i] - 1], where the
        # row whose suffix starts at position 0 wraps around to the sentinel.
        sa = self.suffix_array
        bwt = np.where(sa == 0, SENTINEL, codes[sa - 1])
        self.bwt = bwt.astype(np.uint8)
        self.num_rows = n + 1
        # C[c]: number of symbols strictly smaller than c in text + $.
        counts = np.bincount(codes, minlength=4)
        self.C = np.zeros(5, dtype=np.int64)
        self.C[0] = 1  # the sentinel
        for c in range(1, 5):
            self.C[c] = self.C[c - 1] + counts[c - 1]
        # Checkpoints: occ counts of each base at every block boundary.
        self.num_blocks = (self.num_rows + self.BASES_PER_BLOCK - 1) // self.BASES_PER_BLOCK
        is_base = self.bwt < 4
        one_hot = np.zeros((self.num_rows, 4), dtype=np.int64)
        one_hot[np.arange(self.num_rows)[is_base], self.bwt[is_base]] = 1
        cumulative = np.vstack([np.zeros((1, 4), dtype=np.int64), np.cumsum(one_hot, axis=0)])
        boundaries = np.arange(self.num_blocks) * self.BASES_PER_BLOCK
        self.checkpoints = cumulative[boundaries]
        # Rank-query fast paths: the BWT as bytes (``bytes.count`` scans a
        # block tail at C speed) and the checkpoint/C tables as plain int
        # tuples — extracting numpy scalars per occ() call dominated the
        # seeding drivers' compute profile.
        self._bwt_bytes = self.bwt.tobytes()
        self._cp_rows = [tuple(int(v) for v in row) for row in self.checkpoints]
        self._c_ints = tuple(int(v) for v in self.C)
        #: pattern -> its :meth:`search_trace`.  The index never changes,
        #: so a trace is derived data; the index cache shares it across
        #: every run that walks the same read.  It grows with the distinct
        #: patterns searched on this index and lives as long as the index.
        self._traces: Dict[str, Tuple[FMStepAccess, ...]] = {}

    # -- index geometry ------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total byte footprint of the flattened occ/BWT block array."""
        return self.num_blocks * self.BLOCK_BYTES

    def block_of(self, row: int) -> int:
        """Index block a rank query at ``row`` reads."""
        if not 0 <= row <= self.num_rows:
            raise ValueError(f"row {row} out of range 0..{self.num_rows}")
        return min(row // self.BASES_PER_BLOCK, self.num_blocks - 1)

    def block_address(self, block: int) -> int:
        """Byte offset of ``block`` within the flattened index."""
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        return block * self.BLOCK_BYTES

    # -- rank / search ---------------------------------------------------------

    def occ(self, symbol: int, row: int) -> int:
        """Occurrences of ``symbol`` in ``bwt[0:row]``."""
        if not 0 <= symbol < 4:
            raise ValueError(f"symbol must be 0..3, got {symbol}")
        if not 0 <= row <= self.num_rows:
            raise ValueError(f"row {row} out of range")
        block = row // self.BASES_PER_BLOCK
        if block >= self.num_blocks:
            block = self.num_blocks - 1
        base = self._cp_rows[block][symbol]
        start = block * self.BASES_PER_BLOCK
        if row > start:
            base += self._bwt_bytes.count(symbol, start, row)
        return base

    def _step(self, symbol: int, top: int, bot: int) -> Tuple[int, int]:
        c = self._c_ints[symbol]
        return c + self.occ(symbol, top), c + self.occ(symbol, bot)

    def search(self, pattern: str) -> Tuple[int, int]:
        """Backward search; returns the suffix-array interval ``[top, bot)``.

        An empty interval (``top >= bot``) means the pattern does not occur.
        """
        if not pattern:
            raise ValueError("cannot search for an empty pattern")
        codes = encode(pattern)[::-1].tolist()
        top, bot = 0, self.num_rows
        for symbol in codes:
            top, bot = self._step(symbol, top, bot)
            if top >= bot:
                return top, top
        return top, bot

    def count(self, pattern: str) -> int:
        """Number of occurrences of ``pattern`` in the text."""
        top, bot = self.search(pattern)
        return max(0, bot - top)

    def locate(self, pattern: str) -> List[int]:
        """Sorted text positions where ``pattern`` occurs."""
        top, bot = self.search(pattern)
        return sorted(int(p) for p in self.suffix_array[top:bot])

    # -- trace form ------------------------------------------------------------

    def search_trace(self, pattern: str) -> Tuple[FMStepAccess, ...]:
        """Backward search as each step's memory accesses, in order.

        Every step reads the occ blocks for ``top`` and ``bot`` (one 32 B
        access each; deduplicated when both ranks fall in the same block,
        exactly what the hardware's request coalescing would do).  The
        trace stops early when the interval empties, as the engine does.
        Computed once per pattern and memoized on the index.
        """
        trace = self._traces.get(pattern)
        if trace is not None:
            return trace
        if not pattern:
            raise ValueError("cannot search for an empty pattern")
        codes = encode(pattern)[::-1].tolist()
        top, bot = 0, self.num_rows
        # ``block_of`` inlined (rows here are interval bounds, always in
        # range): this loop runs once per search step of every new read.
        per_block = self.BASES_PER_BLOCK
        last_block = self.num_blocks - 1
        steps = []
        for symbol in codes:
            b_top = top // per_block
            if b_top > last_block:
                b_top = last_block
            b_bot = bot // per_block
            if b_bot > last_block:
                b_bot = last_block
            blocks = (b_top,) if b_top == b_bot else (b_top, b_bot)
            top, bot = self._step(symbol, top, bot)
            steps.append(FMStepAccess(symbol, blocks, (top, bot)))
            if top >= bot:
                break
        trace = self._traces[pattern] = tuple(steps)
        return trace

    def seed(self, read: str, min_seed_length: int) -> Optional[Tuple[int, int, int]]:
        """Longest exact-match suffix seed of ``read``.

        Walks backward from the end of the read until the interval empties;
        returns ``(seed_length, top, bot)`` when at least ``min_seed_length``
        symbols matched, else ``None``.  This is the kernel MEDAL/BEACON's
        FM-index engines execute per read.
        """
        if min_seed_length <= 0:
            raise ValueError("min_seed_length must be positive")
        codes = encode(read)[::-1].tolist()
        top, bot = 0, self.num_rows
        matched = 0
        best: Optional[Tuple[int, int, int]] = None
        for symbol in codes:
            new_top, new_bot = self._step(symbol, top, bot)
            if new_top >= new_bot:
                break
            top, bot = new_top, new_bot
            matched += 1
            if matched >= min_seed_length:
                best = (matched, top, bot)
        return best
