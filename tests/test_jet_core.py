"""Jet points and dense d-tensor storage."""

import random

import numpy as np
import pytest

from jetlag.errors import DimensionError
from jetlag.jet_core import (
    Dims,
    DTensor,
    JetPoint,
    spatial_lower,
    spatial_upper,
    temporal_lower,
    temporal_upper,
    vertical_lower,
)


class TestConstruction:
    def test_zero_init_matrix(self):
        t = DTensor([spatial_lower(2), spatial_lower(2)])
        assert t.shape == (2, 2)
        assert np.all(t.data == 0.0)

    def test_zero_init_vector(self):
        t = DTensor([temporal_upper(2)])
        assert t.shape == (2,)
        assert list(t.data) == [0.0, 0.0]

    def test_zero_init_vertical(self):
        t = DTensor([vertical_lower(2, 2)])
        assert t.shape == (4,)
        # addressed by (i, a) pairs
        t.set(((1, 0),), 5.0)
        assert t.get((1, 0)) == 5.0
        assert t.get(2) == 5.0  # flat index i*p + a = 2

    def test_zero_extent_rejected(self):
        with pytest.raises(DimensionError):
            spatial_lower(0)
        with pytest.raises(DimensionError):
            DTensor([])

    def test_get_set_roundtrip(self):
        rng = random.Random(3)
        t = DTensor([spatial_upper(3), temporal_lower(2), vertical_lower(3, 2)])
        for _ in range(50):
            idx = (rng.randrange(3), rng.randrange(2), rng.randrange(6))
            val = rng.uniform(-5, 5)
            t.set(idx, val)
            assert t.get(*idx) == val


class TestJetPoint:
    def test_dims(self):
        pt = JetPoint((0.1, 0.2), (1.0,), ((0.5, 0.6),))
        assert pt.dims == Dims(2, 1)
        assert pt.dims != Dims(1, 2) and hash(pt.dims) == hash(Dims(p=2, n=1))
        assert repr(Dims(2, 3)) == "Dims(p=2, n=3)"
        with pytest.raises(DimensionError, match=r"dims must be positive, got p=0, n=1"):
            Dims(0, 1)

    def test_coord_reads_each_kind(self):
        pt = JetPoint((0.1,), (1.0, 2.0), ((0.5,), (0.6,)))
        assert [pt.coord(c) for c in (("t", 0, 0), ("x", 1, 0), ("v", 1, 0))] == [0.1, 2.0, 0.6]
