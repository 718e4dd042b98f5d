"""Index conventions, jet points, and dense d-tensor storage.

Coordinates on the first-order jet space of maps T -> M are (t^a, x^i, v^i_a)
with a = 0..p-1 temporal and i = 0..n-1 spatial (0-based throughout the
library; the expression language uses the 1-based surface syntax t1, x1,
v1_1).  A vertical index is a joint (spatial, temporal) pair stored flattened
as i*p + a.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionError


class Dims:
    """Dimensions (p, n) of the temporal and spatial factors; compared and
    hashed by value (a cache key of ``calculus.all_coords``)."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if p < 1 or n < 1:
            raise DimensionError(f"dims must be positive, got p={p}, n={n}")
        self.p = p
        self.n = n

    def __eq__(self, other):
        if other.__class__ is not Dims:
            return NotImplemented
        return self.p == other.p and self.n == other.n

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"Dims(p={self.p}, n={self.n})"


class JetPoint:
    """A point (t, x, v) of the jet space; v[i][a] is the velocity v^i_a.

    The point stores the sequences it is given, without a copy and without
    a check: entries are ordinarily floats, but derivative scalars and
    float64 arrays over a batch of points flow through the same evaluation
    code.  Finiteness is checked where a number enters the program (the
    config, ``--point``) and where a command reports one.  A slotted class
    rather than a tuple, so that code walking nested sequences of scalars
    never descends into a point.
    """

    __slots__ = ("t", "x", "v")

    def __init__(self, t, x, v):
        self.t = t
        self.x = x
        self.v = v  # n rows, each of p entries

    @property
    def dims(self) -> Dims:
        return Dims(p=len(self.t), n=len(self.x))

    def coord(self, c) -> object:
        """Value of coordinate ``c`` (a Coord from the calculus module)."""
        kind, i, a = c
        if kind == "t":
            return self.t[a]
        if kind == "x":
            return self.x[i]
        return self.v[i][a]


def zero_velocity_point(t, x, dims: Dims) -> JetPoint:
    return JetPoint(tuple(t), tuple(x), tuple((0.0,) * dims.p for _ in range(dims.n)))


class SlotKind(enum.Enum):
    TEMPORAL_UPPER = "temporal_upper"
    TEMPORAL_LOWER = "temporal_lower"
    SPATIAL_UPPER = "spatial_upper"
    SPATIAL_LOWER = "spatial_lower"
    VERTICAL_UPPER = "vertical_upper"
    VERTICAL_LOWER = "vertical_lower"

    def __init__(self, value):
        self.family = value.rsplit("_", 1)[0]  # "temporal", "spatial" or "vertical"


class IndexSlot:
    """One tensor index with its valence and extent.

    Vertical slots have extent n*p and are addressed either by a flat index
    or by an (i, a) pair; the pair flattens as i*p + a.
    """

    __slots__ = ("kind", "n", "p")

    def __init__(self, kind: SlotKind, n: int = 0, p: int = 0):
        fam = kind.family
        if fam == "temporal" and p < 1:
            raise DimensionError("temporal slot needs p >= 1")
        if fam == "spatial" and n < 1:
            raise DimensionError("spatial slot needs n >= 1")
        if fam == "vertical" and (n < 1 or p < 1):
            raise DimensionError("vertical slot needs n, p >= 1")
        self.kind = kind
        self.n = n
        self.p = p

    @property
    def extent(self) -> int:
        fam = self.kind.family
        if fam == "temporal":
            return self.p
        if fam == "spatial":
            return self.n
        return self.n * self.p

    def flatten(self, idx) -> int:
        """Normalize an index for this slot to a flat integer."""
        if isinstance(idx, tuple):
            if self.kind.family != "vertical" or len(idx) != 2:
                raise DimensionError(f"pair index {idx} on non-vertical slot")
            i, a = idx
            if not (0 <= i < self.n and 0 <= a < self.p):
                raise DimensionError(f"vertical index {idx} out of range")
            return i * self.p + a
        if not 0 <= idx < self.extent:
            raise DimensionError(f"index {idx} out of range for extent {self.extent}")
        return idx


def temporal_upper(p):
    return IndexSlot(SlotKind.TEMPORAL_UPPER, p=p)


def temporal_lower(p):
    return IndexSlot(SlotKind.TEMPORAL_LOWER, p=p)


def spatial_upper(n):
    return IndexSlot(SlotKind.SPATIAL_UPPER, n=n)


def spatial_lower(n):
    return IndexSlot(SlotKind.SPATIAL_LOWER, n=n)


def vertical_upper(n, p):
    return IndexSlot(SlotKind.VERTICAL_UPPER, n=n, p=p)


def vertical_lower(n, p):
    return IndexSlot(SlotKind.VERTICAL_LOWER, n=n, p=p)


class DTensor:
    """Dense multi-index array with declared slot valences.

    Values are immutable by convention once construction finishes; the numpy
    buffer is shared read-only across threads.
    """

    __slots__ = ("slots", "data")

    def __init__(self, slots, data=None):
        slots = tuple(slots)
        if not slots:
            raise DimensionError("a tensor needs at least one slot")
        shape = tuple(s.extent for s in slots)
        if any(e < 1 for e in shape):
            raise DimensionError(f"zero-extent slot in {shape}")
        if data is None:
            data = np.zeros(shape, dtype=float)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != shape:
                raise DimensionError(f"data shape {data.shape} != slot shape {shape}")
        self.slots = slots
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    def _flat_index(self, idx):
        if len(idx) != len(self.slots):
            raise DimensionError(f"expected {len(self.slots)} indices, got {len(idx)}")
        return tuple(s.flatten(i) for s, i in zip(self.slots, idx))

    def get(self, *idx) -> float:
        return float(self.data[self._flat_index(idx)])

    def set(self, idx, value) -> None:
        self.data[self._flat_index(tuple(idx))] = float(value)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def to_json_dict(self) -> dict:
        entries = {}
        for idx in np.ndindex(self.shape):
            entries[",".join(str(i) for i in idx)] = float(self.data[idx])
        return {
            "slots": [s.kind.value for s in self.slots],
            "shape": list(self.shape),
            "entries": entries,
        }
