"""Tests for block-distribution helpers."""

import numpy as np
import pytest

from repro.parallel import block_size, split_blocks


class TestBlockMath:
    def test_block_size(self):
        assert block_size(100, 4) == 25

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            block_size(100, 3)

    def test_split_blocks_cover_input(self, rng):
        x = rng.standard_normal(24)
        blocks = split_blocks(x, 4)
        np.testing.assert_array_equal(np.concatenate(blocks), x)
        assert all(len(b) == 6 for b in blocks)
