"""A join's answer as one array: ``SortedPairs`` and its digest.

The digest's oracle is computed here, from the pairs as Python tuples,
with nothing of the code under test: the canonical JSON of the sorted
distinct pairs."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import SortedPairs, merge_sorted_unique
from repro.serve.query import result_digest

EDGE_IDS = [0, 2**31 - 1, 2**32, 2**53 + 1, 2**62]
ids = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 40), st.integers(0, 2**62))
pair_lists = st.lists(st.tuples(ids, ids), max_size=40)
PAIRS = [(0, 5), (1, 2), (1, 3), (2**40, 0)]


def oracle(pairs) -> str:
    blob = json.dumps(sorted(set(pairs)), separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def answer(pairs) -> SortedPairs:
    merged, _dropped = merge_sorted_unique([pairs])
    return merged


class TestDigestOracle:
    @given(pair_lists)
    @settings(max_examples=300, deadline=None)
    def test_array_and_tuple_paths_hash_as_the_oracle(self, pairs):
        assert result_digest(answer(pairs)) == oracle(pairs)
        # The tuple path, unsorted and with every pair twice.
        assert result_digest(pairs[::-1] + pairs) == oracle(pairs)

    @pytest.mark.parametrize("fid", EDGE_IDS)
    def test_empty_and_one_pair(self, fid):
        assert result_digest(SortedPairs()) == result_digest([]) == oracle([])
        assert result_digest(answer([(fid, fid)])) == oracle([(fid, fid)])

    @given(st.lists(st.tuples(ids, ids), min_size=1, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_changing_one_id_changes_the_digest(self, pairs, data):
        merged = answer(pairs)
        mutant = merged.array.copy()
        mutant[data.draw(st.integers(0, len(merged) - 1)), data.draw(st.integers(0, 1))] += 1
        assert result_digest(answer(mutant)) != result_digest(merged)


class TestSortedPairs:
    def test_equal_to_its_tuple_list_both_ways(self):
        pairs = answer(PAIRS[::-1])
        assert pairs == PAIRS and PAIRS == pairs and not pairs != PAIRS
        assert pairs == answer(PAIRS) and pairs != SortedPairs()
        others = [[], PAIRS[:-1], PAIRS + [(9, 9)], PAIRS[::-1], [list(p) for p in PAIRS]]
        for other in others:
            assert pairs != other and other != pairs
        assert pairs != tuple(PAIRS)

    def test_elements_are_python_ints(self):
        pairs = answer(PAIRS)
        assert {type(fid) for pair in [*pairs, pairs[0], pairs[-1]] for fid in pair} == {int}

    def test_sequence_protocol(self):
        pairs = answer(PAIRS)
        assert len(pairs) == 4 and bool(pairs) and not SortedPairs()
        assert (pairs[1], pairs[-1]) == (PAIRS[1], PAIRS[-1])
        assert pairs[1:3] == PAIRS[1:3] and pairs[::-1] == PAIRS[::-1]
        assert list(pairs) == PAIRS and (1, 3) in pairs and pairs.index((1, 3)) == 2
        with pytest.raises(IndexError):
            pairs[4]

    def test_it_cannot_be_mutated(self):
        pairs = answer(PAIRS)
        for name in ("append", "extend", "insert", "remove", "pop", "clear",
                     "sort", "reverse", "__setitem__", "__delitem__", "__iadd__"):
            assert not hasattr(pairs, name), name
        with pytest.raises(ValueError):
            pairs.array[0, 0] = 7
        with pytest.raises(TypeError):
            hash(pairs)
