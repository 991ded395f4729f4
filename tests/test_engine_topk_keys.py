"""Integer keys for the k-distinct draw.

A deep sampler (degree above the fanout) of Algorithm 1, Algorithm 2 or
``push-pull-k`` calls the stubs with its ``fanout`` smallest of ``degree``
iid uniform keys.  Rows up to 2¹¹ wide read each key as the 53-bit integer
that ``Generator.random`` would scale by 2⁻⁵³, pack the column into the low
bits and sort the words in place; wider rows argsort the same draws as
floats.  This suite holds the integer selection to the float argsort:

1. ``random()`` and ``bit_generator.random_raw()`` consume the same words
   of the engine's PCG64 streams;
2. a hypothesis differential test of ``_stub_target_blocks`` against a
   float-argsort reference over rows, widths, fanouts, padded degrees and
   shrunk chunk and block bounds: equal callers, callees and generator
   state;
3. an exact tie goes to the lower column;
4. a row wider than 2¹¹ takes the float path, and one exactly 2¹¹ wide the
   integer path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine_vectorized
from repro.core.engine_vectorized import _stub_target_blocks
from repro.core.rng import RandomSource


def _float_reference(generator, samplers, fanout, indptr, indices, degrees):
    """Flat ``(callers, callees)``: saturated samplers' every stub, then the
    deep samplers' ``fanout`` smallest float keys in ascending order."""
    sampler_degrees = degrees[samplers]
    saturated = sampler_degrees <= fanout
    callers, callees = [], []
    for node in samplers[saturated].tolist():
        stubs = indices[indptr[node] : indptr[node + 1]]
        callers.append(np.full(stubs.size, node))
        callees.append(stubs)
    deep = samplers[~saturated]
    if deep.size:
        deep_degrees = sampler_degrees[~saturated]
        width = int(deep_degrees.max())
        keys = generator.random((deep.size, width))
        keys[np.arange(width) >= deep_degrees[:, None]] = np.inf
        chosen = np.argsort(keys, axis=1, kind="stable")[:, :fanout]
        callers.append(np.repeat(deep, fanout))
        callees.append(indices[(indptr[deep][:, None] + chosen).ravel()])
    if not callers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(callers), np.concatenate(callees)


def _flat_blocks(generator, samplers, fanout, indptr, indices, degrees, uniform=None):
    """``_stub_target_blocks`` flattened to one ``(caller, callee)`` per channel."""
    channels, blocks = _stub_target_blocks(
        generator, samplers, fanout, indptr, indices, degrees, uniform
    )
    pairs = [
        (np.broadcast_to(callers, callees.shape).reshape(-1), callees.reshape(-1))
        for callers, callees in blocks
    ]
    callers = np.concatenate([c for c, _ in pairs] or [np.empty(0, dtype=np.int64)])
    callees = np.concatenate([c for _, c in pairs] or [np.empty(0, dtype=np.int64)])
    assert callers.size == callees.size == channels
    return callers, callees


def _csr(degree_list):
    """CSR arrays of the given degrees; stub ``j`` of any row is target ``j``
    offset by a row-specific amount, so callees identify their column."""
    degrees = np.asarray(degree_list, dtype=np.int32)
    indptr = np.zeros(degrees.size + 1, dtype=np.int32)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.arange(int(indptr[-1]), dtype=np.int32)
    return indptr, indices, degrees


def _stream(generator):
    """The PCG64 stream position, whatever the bit generator's class name."""
    return generator.bit_generator.state["state"]


class _TiedWords(np.random.PCG64):
    """Returns the same crafted words for every ``random_raw`` call."""

    def __init__(self, words):
        super().__init__(0)
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        return np.broadcast_to(self.words, size).copy()


class _NoRawWords(np.random.PCG64):
    def random_raw(self, size=None, output=True):
        raise AssertionError("integer keys drawn")


class _CountingRawWords(np.random.PCG64):
    calls = 0

    def random_raw(self, size=None, output=True):
        type(self).calls += 1
        return super().random_raw(size, output)


# -- 1. the words ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 2008])
def test_random_and_random_raw_consume_the_same_words(seed):
    floats = RandomSource(seed=seed).spawn("protocol").generator
    words = RandomSource(seed=seed).spawn("protocol").generator
    assert isinstance(words.bit_generator, np.random.PCG64)
    raw = words.bit_generator.random_raw((40, 8))
    assert np.array_equal(floats.random((40, 8)), (raw >> np.uint64(11)) * 2.0**-53)
    assert floats.bit_generator.state == words.bit_generator.state


# -- 2. differential against the float argsort -----------------------------------------


@given(
    degree_list=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
    fanout=st.integers(min_value=2, max_value=9),
    chunk_entries=st.sampled_from([1, 7, 40, 1 << 19]),
    block_channels=st.sampled_from([1, 5, 64, 1 << 18]),
    seed=st.integers(min_value=0, max_value=2**32),
    uniform=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_blocks_match_float_argsort(
    degree_list, fanout, chunk_entries, block_channels, seed, uniform
):
    if uniform:
        degree_list = [max(degree_list)] * len(degree_list)
    indptr, indices, degrees = _csr(degree_list)
    samplers = np.arange(degrees.size, dtype=np.int32)
    uniform_degree = int(degrees[0]) if uniform else None
    generator = RandomSource(seed=seed).generator
    reference_generator = RandomSource(seed=seed).generator
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_vectorized, "_CHUNK_ENTRIES", chunk_entries)
        patch.setattr(engine_vectorized, "_BLOCK_CHANNELS", block_channels)
        callers, callees = _flat_blocks(
            generator, samplers, fanout, indptr, indices, degrees, uniform_degree
        )
    reference = _float_reference(
        reference_generator, samplers, fanout, indptr, indices, degrees
    )
    assert np.array_equal(callers, reference[0])
    assert np.array_equal(callees, reference[1])
    assert generator.bit_generator.state == reference_generator.bit_generator.state


# -- 3. exact ties -------------------------------------------------------------------


def test_exact_tie_goes_to_the_lower_column():
    # Column values 5 9 1 1 7 1 3 8: three keys tie for the smallest.
    words = np.array([5, 9, 1, 1, 7, 1, 3, 8], dtype=np.uint64) << np.uint64(11)
    generator = np.random.Generator(_TiedWords(words))
    indptr, indices, degrees = _csr([8, 8, 6])
    _, callees = _flat_blocks(generator, np.arange(3), 4, indptr, indices, degrees)
    columns = callees.reshape(3, 4) - indptr[:3, None]
    assert columns.tolist() == [[2, 3, 5, 6], [2, 3, 5, 6], [2, 3, 5, 0]]


# -- 4. the float path for wide rows ---------------------------------------------------------


def test_row_wider_than_2_11_takes_the_float_path():
    indptr, indices, degrees = _csr([2**11 + 1, 3, 2**11 - 5])
    samplers = np.arange(3)
    generator = np.random.Generator(_NoRawWords(99))
    reference_generator = np.random.Generator(np.random.PCG64(99))
    callers, callees = _flat_blocks(generator, samplers, 4, indptr, indices, degrees)
    reference = _float_reference(
        reference_generator, samplers, 4, indptr, indices, degrees
    )
    assert np.array_equal(callers, reference[0])
    assert np.array_equal(callees, reference[1])
    assert _stream(generator) == _stream(reference_generator)


def test_row_exactly_2_11_wide_takes_the_integer_path():
    indptr, indices, degrees = _csr([2**11, 2**11 - 1])
    _CountingRawWords.calls = 0
    generator = np.random.Generator(_CountingRawWords(5))
    reference_generator = np.random.Generator(np.random.PCG64(5))
    callers, callees = _flat_blocks(generator, np.arange(2), 3, indptr, indices, degrees)
    assert _CountingRawWords.calls == 1
    reference = _float_reference(
        reference_generator, np.arange(2), 3, indptr, indices, degrees
    )
    assert np.array_equal(callees, reference[1])
    assert _stream(generator) == _stream(reference_generator)
