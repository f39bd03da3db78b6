"""Tests for the FM-index: correctness against naive search + trace form."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.fm_index import FMIndex, build_suffix_array
from repro.genomics.sequence import encode, random_genome

texts = st.text(alphabet="ACGT", min_size=1, max_size=300)
patterns = st.text(alphabet="ACGT", min_size=1, max_size=12)


def naive_occurrences(text, pattern):
    return [m.start() for m in re.finditer(f"(?={re.escape(pattern)})", text)]


class TestSuffixArray:
    @given(texts)
    def test_orders_all_suffixes(self, text):
        codes = encode(text)
        sa = build_suffix_array(codes)
        n = len(text)
        assert sorted(sa) == list(range(n + 1))
        assert sa[0] == n  # sentinel suffix first
        suffixes = [text[i:] for i in sa[1:]]
        assert suffixes == sorted(suffixes)

    def test_repetitive_text(self):
        text = "A" * 50
        sa = build_suffix_array(encode(text))
        assert list(sa) == list(range(50, -1, -1))


class TestFMIndexCorrectness:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            FMIndex("")

    def test_count_on_known_text(self):
        fm = FMIndex("ACGTACGTACGT")
        assert fm.count("ACGT") == 3
        assert fm.count("CGTA") == 2
        assert fm.count("TTTT") == 0

    def test_empty_pattern_rejected(self):
        fm = FMIndex("ACGT")
        with pytest.raises(ValueError):
            fm.search("")

    @settings(max_examples=40)
    @given(texts, patterns)
    def test_locate_matches_naive(self, text, pattern):
        fm = FMIndex(text)
        assert fm.locate(pattern) == naive_occurrences(text, pattern)

    @given(texts)
    def test_every_substring_found(self, text):
        fm = FMIndex(text)
        for length in (1, min(3, len(text)), min(7, len(text))):
            pattern = text[:length]
            assert fm.count(pattern) >= 1

    def test_occ_against_counting(self):
        text = random_genome(2000, seed=11)
        fm = FMIndex(text)
        rng = np.random.default_rng(0)
        for _ in range(50):
            symbol = int(rng.integers(0, 4))
            row = int(rng.integers(0, fm.num_rows + 1))
            expected = int(np.count_nonzero(fm.bwt[:row] == symbol))
            assert fm.occ(symbol, row) == expected

    def test_occ_validation(self):
        fm = FMIndex("ACGT")
        with pytest.raises(ValueError):
            fm.occ(4, 0)
        with pytest.raises(ValueError):
            fm.occ(0, fm.num_rows + 1)


class TestBlockLayout:
    def test_size_and_addresses(self):
        fm = FMIndex(random_genome(5000, seed=1))
        assert fm.size_bytes == fm.num_blocks * FMIndex.BLOCK_BYTES
        assert fm.block_address(0) == 0
        assert fm.block_address(fm.num_blocks - 1) == fm.size_bytes - 32

    def test_block_of_bounds(self):
        fm = FMIndex("ACGT" * 100)
        assert fm.block_of(0) == 0
        assert fm.block_of(fm.num_rows) == fm.num_blocks - 1
        with pytest.raises(ValueError):
            fm.block_of(-1)
        with pytest.raises(ValueError):
            fm.block_address(fm.num_blocks)


class TestSearchTrace:
    @settings(max_examples=25)
    @given(texts, patterns)
    def test_trace_reaches_same_interval(self, text, pattern):
        fm = FMIndex(text)
        steps = list(fm.search_trace(pattern))
        top, bot = fm.search(pattern)
        assert steps, "trace yields at least one step"
        final = steps[-1].interval
        if final[0] >= final[1]:
            assert top >= bot
        else:
            assert final == (top, bot)

    def test_trace_blocks_are_valid_and_deduplicated(self):
        text = random_genome(3000, seed=2)
        fm = FMIndex(text)
        for step in fm.search_trace(text[100:160]):
            assert 1 <= len(step.blocks) <= 2
            assert len(set(step.blocks)) == len(step.blocks)
            for block in step.blocks:
                assert 0 <= block < fm.num_blocks

    def test_trace_stops_on_empty_interval(self):
        fm = FMIndex("AAAA")
        steps = list(fm.search_trace("TTTTTTTT"))
        assert steps[-1].interval[0] >= steps[-1].interval[1]
        assert len(steps) < 8

    def test_memoized_trace_equals_a_fresh_index(self):
        text = random_genome(3000, seed=2)
        fm = FMIndex(text)
        full = text[100:160]
        # A foreign tail: the backward search starts there, so the
        # interval empties within a few steps.
        early = text[200:240] + "TTTTTTTTTTTTTTTTTTTT"
        for read in (full, early, full, early):
            trace = fm.search_trace(read)
            assert fm.search_trace(read) is trace  # one search per read
            assert trace == tuple(FMIndex(text).search_trace(read))
        assert len(fm.search_trace(full)) == len(full)
        last = fm.search_trace(early)[-1].interval
        assert last[0] >= last[1]
        assert len(fm.search_trace(early)) < 20

    def test_empty_pattern_trace_rejected(self):
        fm = FMIndex("ACGT")
        for _ in range(2):
            with pytest.raises(ValueError):
                fm.search_trace("")


class TestSeed:
    def test_exact_read_seeds_fully(self):
        text = random_genome(4000, seed=3)
        read = text[500:600]
        fm = FMIndex(text)
        seed = fm.seed(read, min_seed_length=20)
        assert seed is not None
        length, top, bot = seed
        assert length >= 20
        positions = [int(p) for p in fm.suffix_array[top:bot]]
        assert any(p + length == 600 for p in positions)

    def test_unmatchable_read(self):
        fm = FMIndex("A" * 200)
        assert fm.seed("T" * 30, min_seed_length=10) is None

    def test_min_seed_validation(self):
        fm = FMIndex("ACGT")
        with pytest.raises(ValueError):
            fm.seed("ACGT", min_seed_length=0)
