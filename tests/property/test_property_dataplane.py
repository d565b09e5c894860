"""Property-based tests of the streaming accumulators (hypothesis).

The load-bearing claim of the data plane is that the Chan block fold behind
``StreamingMoments.update_batch`` makes an aggregate independent of *how*
the samples were sharded: any partition of a sample stream into contiguous
blocks, folded in order, must reproduce the pooled statistics.  This is
what lets the sharded ensembles stream without changing results.  The
time-weighted fold must match the seed arithmetic bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dataplane import StreamingMoments, TimeWeightedMoments
from seed_stats import WeightedStatistics

sample_blocks = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200)


def _split(samples, cuts):
    """Partition *samples* into contiguous shards at the given cut points."""
    bounds = sorted({min(c % (len(samples) + 1), len(samples))
                     for c in cuts} | {0, len(samples)})
    return [samples[a:b]
            for a, b in zip(bounds, bounds[1:], strict=False) if b > a]


class TestMomentsMergeProperties:
    @given(samples=sample_blocks,
           cuts=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                         max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sharded_merge_matches_pooled_numpy(self, samples, cuts):
        data = np.asarray(samples, dtype=float)
        merged = StreamingMoments()
        for shard in _split(samples, cuts):
            block = StreamingMoments()
            block.update_batch(np.asarray(shard, dtype=float))
            merged.merge(block)
        assert merged.count == data.size
        scale = max(1.0, float(np.max(np.abs(data))))
        assert abs(float(merged.mean) - float(np.mean(data))) <= \
            1e-9 * scale
        assert abs(float(merged.variance) - float(np.var(data))) <= \
            1e-9 * scale * scale
        assert float(merged.minimum) == float(np.min(data))
        assert float(merged.maximum) == float(np.max(data))

    @given(samples=sample_blocks.filter(lambda block: len(block) >= 2))
    @settings(max_examples=100, deadline=None)
    def test_per_sample_updates_match_numpy(self, samples):
        moments = StreamingMoments()
        for sample in samples:
            moments.update(sample)
        assert np.isclose(float(moments.mean), np.mean(samples), atol=1e-6)
        assert np.isclose(float(moments.variance),
                          np.var(samples), atol=1e-4, rtol=1e-4)

    @given(samples=sample_blocks, seed=st.integers(0, 2 ** 31 - 1),
           n_shards=st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_shard_count_is_immaterial(self, samples, seed, n_shards):
        data = np.asarray(samples, dtype=float)
        one = StreamingMoments()
        one.update_batch(data)
        sizes = np.random.default_rng(seed).multinomial(
            data.size, np.full(n_shards, 1.0 / n_shards))
        many = StreamingMoments()
        offset = 0
        for size in sizes:
            if size == 0:
                continue
            block = StreamingMoments()
            block.update_batch(data[offset:offset + size])
            many.merge(block)
            offset += size
        assert many.count == one.count
        scale = max(1.0, float(np.max(np.abs(data))))
        assert abs(float(many.mean) - float(one.mean)) <= 1e-9 * scale
        assert abs(float(many.variance) - float(one.variance)) <= \
            1e-9 * scale * scale


class TestTimeWeightedProperties:
    @given(values=arrays(np.float64, st.integers(min_value=1, max_value=100),
                         elements=st.floats(min_value=-1e3, max_value=1e3,
                                            allow_nan=False,
                                            allow_infinity=False)),
           weight=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                            allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_uniform_weights_reduce_to_plain_mean(self, values, weight):
        stats = TimeWeightedMoments()
        for value in values:
            stats.update(float(value), weight)
        assert np.isclose(stats.mean, np.mean(values), atol=1e-6)

    @given(values=sample_blocks, seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_streamed_fold_is_bit_identical_to_weighted_statistics(
            self, values, seed):
        weights = np.random.default_rng(seed).random(len(values)) + 1e-3
        reference = WeightedStatistics()
        streamed = TimeWeightedMoments()
        for value, weight in zip(values, weights, strict=True):
            reference.update(float(value), float(weight))
            streamed.update(float(value), float(weight))
        # Same update arithmetic, same order: exactly equal, not just close.
        assert float(streamed.mean) == float(reference.mean)
        assert float(streamed.variance) == float(reference.variance)
