"""Unit tests for repro.core.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import rng as rng_module
from repro.core.rng import RandomSource, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_different_labels_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_result_is_non_negative(self):
        for seed in (0, 1, 2**40):
            assert derive_seed(seed, "x") >= 0


class TestRandomSourceConstruction:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(seed=-1)

    def test_same_seed_same_sequence(self):
        a = RandomSource(seed=7)
        b = RandomSource(seed=7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seed_different_sequence(self):
        a = RandomSource(seed=7)
        b = RandomSource(seed=8)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = RandomSource(seed=5).spawn("child", 1)
        b = RandomSource(seed=5).spawn("child", 1)
        assert a.seed == b.seed

    def test_spawn_labels_matter(self):
        root = RandomSource(seed=5)
        assert root.spawn("x").seed != root.spawn("y").seed

    def test_spawn_does_not_consume_parent_stream(self):
        a = RandomSource(seed=5)
        b = RandomSource(seed=5)
        a.spawn("child")
        assert a.random() == b.random()

    def test_spawn_name_records_lineage(self):
        child = RandomSource(seed=5, name="root").spawn("graph", 8)
        assert "graph" in child.name and "8" in child.name


class TestLazyGenerator:
    """A source builds its numpy generator on first use."""

    def test_spawn_only_source_builds_no_generator(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting_default_rng(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(rng_module.np.random, "default_rng", counting_default_rng)
        # The bulk engine's per-seed root is only spawned from.
        root = RandomSource(seed=2008, name="engine")
        children = [root.spawn("protocol"), root.spawn("failures")]
        assert built == []
        assert root._generator is None
        children[0].generator.random()
        assert built == [children[0].seed]

    def test_lazy_and_eager_sources_draw_the_same_words(self):
        eager = RandomSource(seed=31)
        eager.generator  # built before anything else happens
        lazy = RandomSource(seed=31)
        lazy.spawn("child")
        for source in (eager, lazy):
            assert source.random() == np.random.default_rng(31).random()
        assert eager.randint(0, 2**31) == lazy.randint(0, 2**31)
        assert eager.sample_distinct(list(range(50)), 3) == lazy.sample_distinct(
            list(range(50)), 3
        )
        assert eager.generator.bit_generator.state == lazy.generator.bit_generator.state

    def test_equality_does_not_depend_on_having_drawn(self):
        drawn = RandomSource(seed=3, name="x")
        drawn.random()
        assert drawn == RandomSource(seed=3, name="x")
        assert drawn != RandomSource(seed=3, name="y")

    def test_every_draw_method_builds_the_generator(self):
        draws = {
            "random": lambda s: s.random(),
            "randint": lambda s: s.randint(0, 9),
            "bernoulli": lambda s: s.bernoulli(0.5),
            "choice": lambda s: s.choice([1, 2, 3]),
            "sample_distinct": lambda s: s.sample_distinct([1, 2, 3], 2),
            "shuffle": lambda s: s.shuffle([1, 2, 3]),
            "permutation": lambda s: s.permutation(4),
            "binomial": lambda s: s.binomial(10, 0.5),
        }
        for name, draw in draws.items():
            source = RandomSource(seed=4)
            draw(source)
            reference = np.random.default_rng(4)
            assert source._generator is not None, name
            assert (
                source.generator.bit_generator.state != reference.bit_generator.state
            ), name


class TestScalarDraws:
    def test_random_in_unit_interval(self, rng):
        for _ in range(100):
            value = rng.random()
            assert 0.0 <= value < 1.0

    def test_randint_bounds(self, rng):
        values = {rng.randint(3, 7) for _ in range(200)}
        assert values <= {3, 4, 5, 6}
        assert len(values) == 4

    def test_randint_empty_range_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.randint(5, 5)

    def test_bernoulli_extremes(self, rng):
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_bernoulli_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)
        with pytest.raises(ValueError):
            rng.bernoulli(-0.1)

    def test_bernoulli_frequency(self):
        rng = RandomSource(seed=11)
        hits = sum(rng.bernoulli(0.25) for _ in range(4000))
        assert 800 < hits < 1200

    def test_binomial_bounds(self, rng):
        for _ in range(50):
            value = rng.binomial(10, 0.5)
            assert 0 <= value <= 10


class TestCollectionDraws:
    def test_choice_from_singleton(self, rng):
        assert rng.choice([42]) == 42

    def test_choice_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.choice([])

    def test_sample_distinct_returns_k_items(self, rng):
        items = list(range(20))
        sample = rng.sample_distinct(items, 5)
        assert len(sample) == 5
        assert len(set(sample)) == 5
        assert set(sample) <= set(items)

    def test_sample_distinct_k_one_fast_path(self, rng):
        items = list(range(10))
        for _ in range(50):
            (value,) = rng.sample_distinct(items, 1)
            assert value in items

    def test_sample_distinct_k_exceeds_population(self, rng):
        items = [1, 2, 3]
        sample = rng.sample_distinct(items, 10)
        assert sorted(sample) == [1, 2, 3]

    def test_sample_distinct_empty_population(self, rng):
        assert rng.sample_distinct([], 4) == []

    def test_sample_distinct_covers_population(self):
        rng = RandomSource(seed=3)
        seen = set()
        for _ in range(300):
            seen.update(rng.sample_distinct(list(range(6)), 2))
        assert seen == set(range(6))

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(30))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_permutation_is_permutation(self, rng):
        perm = rng.permutation(15)
        assert sorted(perm.tolist()) == list(range(15))
