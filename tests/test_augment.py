"""Masking augmentation: exact counts, marginals, independence."""

import hashlib

import numpy as np
import pytest

from flowcl.augment import MaskingConfig, augment_pair, mask_count, mask_view
from flowcl.errors import ConfigError
from flowcl.seeding import substream
from oracles import member_mask_view


class TestMaskView:
    def test_ratio_zero_is_identity(self):
        x = np.arange(1.0, 9.0)
        out = mask_view(x, MaskingConfig(ratio=0.0), substream(1, "augment", 0, 0))
        np.testing.assert_array_equal(out, x)

    def test_ratio_one_zeroes_everything(self):
        x = np.arange(1.0, 9.0)
        out = mask_view(x, MaskingConfig(ratio=1.0), substream(1, "augment", 0, 0))
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_width_8_quarter_masks_exactly_two(self):
        x = np.ones(8)
        rng = substream(2, "augment", 0, 0)
        for _ in range(50):
            out = mask_view(x, MaskingConfig(ratio=0.25), rng)
            assert int(np.sum(out == 0.0)) == 2

    def test_source_is_not_mutated(self):
        x = np.ones(6)
        mask_view(x, MaskingConfig(ratio=0.5), substream(3, "augment", 0, 0))
        np.testing.assert_array_equal(x, np.ones(6))

    def test_unmasked_positions_unchanged(self):
        rng = substream(4, "augment", 0, 0)
        x = np.random.default_rng(0).uniform(0.1, 1.0, size=12)
        out = mask_view(x, MaskingConfig(ratio=0.5), rng)
        kept = out != 0.0
        np.testing.assert_array_equal(out[kept], x[kept])
        assert int(np.sum(~kept)) == 6

    def test_marginal_frequency_matches_ratio(self):
        # Monte-Carlo check of the uniform-without-replacement marginal k/width.
        x = np.ones(8)
        config = MaskingConfig(ratio=0.25)
        rng = substream(5, "augment", 0, 0)
        hits = np.zeros(8)
        draws = 100_000
        for _ in range(draws):
            hits += mask_view(x, config, rng) == 0.0
        freq = hits / draws
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_rounding_of_mask_count(self):
        assert mask_count(0.3, 196) == 59
        assert mask_count(0.25, 8) == 2
        assert mask_count(0.3, 1) == 0
        assert mask_count(0.5, 1) == 0  # banker's rounding at the half
        assert mask_count(0.51, 1) == 1

    def test_group_mode_zeroes_whole_blocks(self):
        x = np.ones(7)
        groups = [(0, 1), (1, 4), (4, 7)]
        config = MaskingConfig(ratio=0.34)
        rng = substream(6, "augment", 0, 0)
        for _ in range(30):
            out = mask_view(x, config, rng, groups=groups)
            zero_groups = [np.all(out[a:b] == 0.0) for a, b in groups]
            live_groups = [np.all(out[a:b] == 1.0) for a, b in groups]
            assert sum(zero_groups) == 1
            assert all(z or l for z, l in zip(zero_groups, live_groups))

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            mask_view(np.zeros(0), MaskingConfig(), substream(7, "augment", 0, 0))

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError):
            MaskingConfig(ratio=1.5)
        with pytest.raises(ConfigError):
            MaskingConfig(ratio=-0.1)


class TestAugmentPair:
    def test_ratio_zero_views_equal_source(self):
        x = np.arange(1.0, 5.0)
        x_i, x_j = augment_pair(x, MaskingConfig(ratio=0.0), substream(8, "augment", 0, 0))
        np.testing.assert_array_equal(x_i, x)
        np.testing.assert_array_equal(x_j, x)

    def test_views_are_independent_draws(self):
        # width 4, ratio 0.5: each view zeroes one of the C(4,2)=6 index pairs.
        # Over many seeds all 36 combinations show up.
        x = np.ones(4)
        config = MaskingConfig(ratio=0.5)
        seen = set()
        for s in range(4000):
            x_i, x_j = augment_pair(x, config, substream(s, "augment", 0, 0))
            assert int(np.sum(x_i == 0.0)) == 2
            assert int(np.sum(x_j == 0.0)) == 2
            key_i = tuple(np.flatnonzero(x_i == 0.0).tolist())
            key_j = tuple(np.flatnonzero(x_j == 0.0).tolist())
            seen.add((key_i, key_j))
        assert len(seen) == 36

    def test_mask_indicator_correlation_near_zero(self):
        x = np.ones(8)
        config = MaskingConfig(ratio=0.25)
        rng = substream(9, "augment", 0, 0)
        draws = 20_000
        mi = np.zeros((draws, 8))
        mj = np.zeros((draws, 8))
        for t in range(draws):
            x_i, x_j = augment_pair(x, config, rng)
            mi[t] = x_i == 0.0
            mj[t] = x_j == 0.0
        # Correlate view-i and view-j indicators position by position.
        ci = mi - mi.mean(axis=0)
        cj = mj - mj.mean(axis=0)
        corr = (ci * cj).mean(axis=0) / (ci.std(axis=0) * cj.std(axis=0))
        assert np.all(np.abs(corr) < 0.03)

    def test_fixed_stream_reproduces_the_pair(self):
        x = np.random.default_rng(1).uniform(size=16)
        config = MaskingConfig(ratio=0.3)
        a = augment_pair(x, config, substream(10, "augment", 3, 7))
        b = augment_pair(x, config, substream(10, "augment", 3, 7))
        np.testing.assert_array_equal(a, b)
        c = augment_pair(x, config, substream(10, "augment", 3, 8))
        assert not np.array_equal(a, c)


class TestBatchMasking:
    def test_every_row_has_exactly_k_zeros(self):
        x = np.random.default_rng(2).uniform(0.1, 1.0, size=(64, 196))
        out = mask_view(x, MaskingConfig(ratio=0.3), substream(11, "augment", 0, 0))
        assert out.shape == x.shape
        assert (np.sum(out == 0.0, axis=1) == mask_count(0.3, 196)).all()
        kept = out != 0.0
        np.testing.assert_array_equal(out[kept], x[kept])

    def test_rows_of_one_batch_get_different_masks(self):
        out = mask_view(np.ones((32, 16)), MaskingConfig(ratio=0.3),
                        substream(12, "augment", 0, 0))
        assert len({tuple(np.flatnonzero(row == 0.0)) for row in out}) > 24

    def test_marginal_frequency_matches_ratio(self):
        config = MaskingConfig(ratio=0.25)
        rng = substream(13, "augment", 0, 0)
        hits = np.zeros(8)
        for _ in range(1_000):
            hits += (mask_view(np.ones((100, 8)), config, rng) == 0.0).sum(axis=0)
        assert np.all(np.abs(hits / 100_000 - 0.25) < 0.01)

    def test_group_mode_zeroes_whole_spans_in_every_row(self):
        groups = [(0, 1), (1, 4), (4, 7), (7, 9)]
        out = mask_view(np.ones((50, 9)), MaskingConfig(ratio=0.5),
                        substream(14, "augment", 0, 0), groups=groups)
        for row in out:
            zero = [np.all(row[a:b] == 0.0) for a, b in groups]
            live = [np.all(row[a:b] == 1.0) for a, b in groups]
            assert sum(zero) == 2 and all(z or l for z, l in zip(zero, live))
        assert len({tuple(row) for row in out}) > 1

    def test_stream_reproduces_the_batch_pair_and_start_changes_it(self):
        x = np.random.default_rng(3).uniform(size=(32, 16))
        config = MaskingConfig(ratio=0.3)
        a = augment_pair(x, config, substream(15, "augment", 2, 64))
        b = augment_pair(x, config, substream(15, "augment", 2, 64))
        c = augment_pair(x, config, substream(15, "augment", 2, 96))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0::2], a[1::2])
        assert not np.array_equal(a[0::2], c[0::2]) and not np.array_equal(a[1::2], c[1::2])

    @pytest.mark.parametrize("shape", [(2, 3, 4), (4, 0), ()])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ConfigError):
            mask_view(np.ones(shape), MaskingConfig(), substream(16, "augment", 0, 0))
        with pytest.raises(ConfigError):
            augment_pair(np.ones(shape), MaskingConfig(), substream(16, "augment", 0, 0))


# Blocks of a row of width 9: a numeric, a 3-wide categorical, two numerics, a 4-wide one.
BLOCKS = [(0, 1), (1, 4), (4, 5), (5, 9)]


class TestOneDrawPair:
    """A pair is one draw of both views' keys: the draws of two `mask_view` calls."""

    @pytest.mark.parametrize("groups", [None, BLOCKS], ids=["positions", "blocks"])
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
    def test_pair_equals_two_sequential_views_interleaved(self, groups, ratio):
        x = np.random.default_rng(17).uniform(0.1, 1.0, size=(33, 9))
        config = MaskingConfig(ratio=ratio)
        pair = augment_pair(x, config, substream(18, "augment", 1, 32), groups)
        rng = substream(18, "augment", 1, 32)
        first, second = mask_view(x, config, rng, groups), mask_view(x, config, rng, groups)
        assert pair.shape == (66, 9)
        assert pair[0::2].tobytes() == first.tobytes()
        assert pair[1::2].tobytes() == second.tobytes()

    def test_a_sample_gives_two_rows(self):
        x = np.arange(1.0, 10.0)
        pair = augment_pair(x, MaskingConfig(ratio=0.5), substream(19, "augment", 0, 0), BLOCKS)
        rng = substream(19, "augment", 0, 0)
        want = [mask_view(x, MaskingConfig(ratio=0.5), rng, BLOCKS) for _ in range(2)]
        np.testing.assert_array_equal(pair, want)

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    def test_block_hits_equal_the_member_matrix_product(self, ratio):
        x = np.random.default_rng(20).uniform(0.1, 1.0, size=(64, 9))
        config = MaskingConfig(ratio=ratio)
        got = mask_view(x, config, substream(21, "augment", 0, 0), BLOCKS)
        want = member_mask_view(x, ratio, substream(21, "augment", 0, 0), BLOCKS)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(("seed", "groups", "digest"), [
        (1, None, "3ad820dd4c00f53c829d660df9066c455906b03c307d78ee6231f087718d87f9"),
        (1, BLOCKS, "24d957553096fce4678af57c66775eda5b3c8f9c15f237897126a0acd4ddc8a2"),
        (2, None, "0654f0d89e538f750d4ec49378df98c9dc2fc899bcedde8ca7f202393de10999"),
        (2, BLOCKS, "68f0dcd733b8f29a75e4ea5cdbd354db84fcee5a903c4baf1f681460faba5e25"),
    ], ids=["seed1-positions", "seed1-blocks", "seed2-positions", "seed2-blocks"])
    def test_pair_bytes_are_pinned(self, seed, groups, digest):
        """The views' sha256 at two seeds: a rewrite of the masking must keep every bit."""
        x = np.random.default_rng(23).uniform(0.1, 1.0, size=(64, 9))
        pair = augment_pair(x, MaskingConfig(ratio=0.3), substream(seed, "augment", 2, 64), groups)
        assert hashlib.sha256(pair.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("groups", [[(0, 4), (4, 8)], [(0, 4), (5, 9)], [(0, 5), (4, 9)],
                                        [(4, 9), (0, 4)], [(0, 0), (0, 9)], []],
                             ids=["short", "gap", "overlap", "unordered", "empty-block", "none"])
    def test_blocks_must_tile_the_row(self, groups):
        for masker in (mask_view, augment_pair):
            with pytest.raises(ConfigError, match="tile"):
                masker(np.ones((2, 9)), MaskingConfig(), substream(22, "augment", 0, 0), groups)
