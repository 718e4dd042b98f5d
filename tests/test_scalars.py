"""The second-order scalar Taylor2 against the two-direction hyper-dual
numbers it replaced, its pair-restricted evaluation against the full
triangle, its sparse support against the dense scalar it replaced, and the
number of evaluations and entries it takes.

``HyperDual``, its function kernels and ``lift_d2`` below are the
library's former implementation, kept here as the oracle: every gradient
and Hessian entry of one Taylor2 evaluation must be bitwise the entry of
the hyper-dual evaluation seeded on that pair of coordinates (e1 on the
lower index).  Zeros are compared by value, since the Taylor2 evaluation
also carries the other coordinates' seeds, whose zero terms can flip the
sign of a zero.  Both oracles take a quotient's value as ``a.re / b.re``,
as the library does, so a quotient of unseeded coordinates, which runs in
plain floats in a two-seed evaluation, has the same value in both.

``DenseTaylor2`` below is the former dense Taylor2, every scalar carrying
all k gradient entries and every pair: the sparse evaluation must give each
of its entries bitwise, zeros by value.

A lifted evaluation's value is the plain evaluation's, bitwise, for a
``Dual``, a Taylor2 and a Taylor2 over a ``Dual``-lifted point; restoring the
former (1/b)·a value at any one quotient fails that invariant.

The ``_ref_*`` functions below are each op's formula entry by entry, over
the support the rules give its result and the terms whose operand entries
exist: every kernel must give their value, entries and layout bitwise,
zeros by sign.
"""

import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag import cartan, connection, dsl, extremal, metric_engine, scalars
from jetlag.calculus import (
    all_coords,
    fd_crosscheck,
    gradient_hessian,
    lift_d1,
    lift_taylor,
    map_structure,
    t_coord,
    v_coord,
    x_coord,
)
from jetlag.cartan import cartan_connection
from jetlag.connection import spray_data
from jetlag.curvature import curvature_table, torsion_table
from jetlag.errors import DegeneracyError, EvalDomainError
from jetlag.fields import ExpressionField
from jetlag.jet_core import Dims, JetPoint, raw_point
from jetlag.regularity import electrodynamics_decompose, hessian_blocks, sample_points, trace_metric
from jetlag.scalars import Dual, Taylor2, hessian_pairs, pair_positions

from conftest import CORPUS_DIMS, KINDS, corpus_instance
from test_dsl import random_ast

_NUM = (int, float)


# --- Oracle: the former hyper-dual scalar ---------------------------------------


def _value(s):
    while type(s) in (Dual, HyperDual, Taylor2, DenseTaylor2):
        s = s.re
    return float(s)


def _reciprocal(s):
    return 1.0 / s if isinstance(s, _NUM) else s.__rtruediv__(1.0)


class HyperDual:
    """v + a*e1 + b*e2 + c*e1*e2 with e1^2 = e2^2 = 0."""

    __slots__ = ("re", "e1", "e2", "e12")

    def __init__(self, re, e1=0.0, e2=0.0, e12=0.0):
        self.re = re
        self.e1 = e1
        self.e2 = e2
        self.e12 = e12

    def __add__(self, o):
        if type(o) is HyperDual:
            return HyperDual(self.re + o.re, self.e1 + o.e1, self.e2 + o.e2, self.e12 + o.e12)
        if isinstance(o, _NUM) or type(o) is Dual:
            return HyperDual(self.re + o, self.e1, self.e2, self.e12)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is HyperDual:
            return HyperDual(self.re - o.re, self.e1 - o.e1, self.e2 - o.e2, self.e12 - o.e12)
        if isinstance(o, _NUM) or type(o) is Dual:
            return HyperDual(self.re - o, self.e1, self.e2, self.e12)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            return HyperDual(o - self.re, -self.e1, -self.e2, -self.e12)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is HyperDual:
            return HyperDual(
                self.re * o.re,
                self.re * o.e1 + self.e1 * o.re,
                self.re * o.e2 + self.e2 * o.re,
                self.re * o.e12 + self.e1 * o.e2 + self.e2 * o.e1 + self.e12 * o.re,
            )
        if isinstance(o, _NUM) or type(o) is Dual:
            return HyperDual(self.re * o, self.e1 * o, self.e2 * o, self.e12 * o)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.re
        if _value(v) == 0.0:
            raise ZeroDivisionError("hyperdual division by zero")
        inv = 1.0 / v if isinstance(v, _NUM) else _reciprocal(v)
        inv2 = inv * inv
        return HyperDual(
            inv,
            -self.e1 * inv2,
            -self.e2 * inv2,
            -self.e12 * inv2 + 2.0 * self.e1 * self.e2 * inv2 * inv,
        )

    def __truediv__(self, o):
        if type(o) is HyperDual:
            r = self * o._reciprocal()
            return HyperDual(self.re / o.re, r.e1, r.e2, r.e12)
        if isinstance(o, _NUM) or type(o) is Dual:
            if _value(o) == 0.0:
                raise ZeroDivisionError("hyperdual division by zero")
            inv = 1.0 / o if isinstance(o, _NUM) else _reciprocal(o)
            return HyperDual(self.re / o, self.e1 * inv, self.e2 * inv, self.e12 * inv)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            r = self._reciprocal() * o
            return HyperDual(o / self.re, r.e1, r.e2, r.e12)
        return NotImplemented

    def __neg__(self):
        return HyperDual(-self.re, -self.e1, -self.e2, -self.e12)


def _chain2(x, f, df, d2f):
    d = df(x.re)
    return HyperDual(f(x.re), d * x.e1, d * x.e2, d * x.e12 + d2f(x.re) * x.e1 * x.e2)


def _domain(cond, message):
    if not cond:
        raise EvalDomainError(message)


def _hd_tan(x):
    def dtan(v):
        tv = scalars.g_tan(v)
        return 1.0 + tv * tv

    def d2tan(v):
        tv = scalars.g_tan(v)
        return 2.0 * tv * (1.0 + tv * tv)

    return _chain2(x, scalars.g_tan, dtan, d2tan)


def _hd_log(x):
    _domain(_value(x) > 0.0, "log of a non-positive value")
    return _chain2(x, scalars.g_log, _reciprocal, lambda v: -_reciprocal(v * v))


def _hd_sqrt(x):
    _domain(_value(x) > 0.0, "sqrt differentiated at a non-positive value")
    return _chain2(x, scalars.g_sqrt, lambda v: 0.5 * _reciprocal(scalars.g_sqrt(v)),
                   lambda v: -0.25 * _reciprocal(scalars.g_sqrt(v) * v))


def _hd_abs(x):
    v = _value(x)
    _domain(v != 0.0, "abs differentiated at zero")
    return x if v > 0.0 else -x


# The hyper-dual branches of the former kernels; inner values are never
# hyper-dual, so they go to the library's own kernels.
_HD_KERNELS = {
    "sin": lambda x: _chain2(x, scalars.g_sin, scalars.g_cos, lambda v: -scalars.g_sin(v)),
    "cos": lambda x: _chain2(x, scalars.g_cos, lambda v: -scalars.g_sin(v),
                             lambda v: -scalars.g_cos(v)),
    "tan": _hd_tan,
    "exp": lambda x: _chain2(x, scalars.g_exp, scalars.g_exp, scalars.g_exp),
    "log": _hd_log,
    "sqrt": _hd_sqrt,
    "sinh": lambda x: _chain2(x, scalars.g_sinh, scalars.g_cosh, scalars.g_sinh),
    "cosh": lambda x: _chain2(x, scalars.g_cosh, scalars.g_sinh, scalars.g_cosh),
    "abs": _hd_abs,
}


def _seed_coord(point, coord, scalar):
    kind, i, a = coord
    if kind == "t":
        t = tuple(scalar if a == k else v for k, v in enumerate(point.t))
        return raw_point(t, point.x, point.v)
    if kind == "x":
        x = tuple(scalar if i == k else v for k, v in enumerate(point.x))
        return raw_point(point.t, x, point.v)
    v = tuple(
        tuple(scalar if (i == r and a == c) else val for c, val in enumerate(row))
        if r == i else row
        for r, row in enumerate(point.v)
    )
    return raw_point(point.t, point.x, v)


def lift_d2(point, w1, w2):
    """Wrap only the seeded coordinates in a HyperDual (e1 on w1, e2 on w2)."""
    if w1 == w2:
        return _seed_coord(point, w1, HyperDual(point.coord(w1), 1.0, 1.0, 0.0))
    lifted = _seed_coord(point, w1, HyperDual(point.coord(w1), 1.0, 0.0, 0.0))
    return _seed_coord(lifted, w2, HyperDual(point.coord(w2), 0.0, 1.0, 0.0))


@pytest.fixture
def hyperdual_kernels(monkeypatch):
    """Expression closures compiled inside this fixture send hyper-dual
    arguments to the oracle kernels; the metric inversion reads their
    values with the oracle's value function."""
    for name, fn in list(dsl._FUNC_IMPL.items()):
        hd = _HD_KERNELS[name]
        monkeypatch.setitem(dsl._FUNC_IMPL, name,
                            lambda x, fn=fn, hd=hd: hd(x) if type(x) is HyperDual else fn(x))

    def div(a, b):
        if _value(b) == 0.0:
            raise EvalDomainError("division by zero")
        return a / b

    monkeypatch.setattr(scalars, "g_div", div)
    monkeypatch.setattr(metric_engine, "scalar_value", _value)


# --- Comparison -----------------------------------------------------------------


def _same(a, b) -> bool:
    """Bitwise equality by repr, zeros by value; a float x and a Dual
    (x, (0.0, ...)) are the same value."""
    if type(a) is Dual or type(b) is Dual:
        ra, da = (a.re, list(a.du)) if type(a) is Dual else (a, None)
        rb, db = (b.re, list(b.du)) if type(b) is Dual else (b, None)
        da = [0.0] * len(db) if da is None else da
        db = [0.0] * len(da) if db is None else db
        return _same(ra, rb) and len(da) == len(db) and all(map(_same, da, db))
    if a == 0.0 and b == 0.0:
        return True
    return repr(a) == repr(b)


def _pair_mismatches(f, point, coords):
    """Entries where the one Taylor2 evaluation over ``coords`` differs from
    the hyper-dual evaluation of each pair; None when both raise."""
    try:
        grad, hess = gradient_hessian(f, point, coords)
    except EvalDomainError:
        grad = None
    bad, raised = [], False
    for m, (i, j) in enumerate(zip(*hessian_pairs(len(coords)))):
        try:
            r = f(lift_d2(point, coords[i], coords[j]))
        except EvalDomainError:
            raised = True
            continue
        if grad is None:
            continue
        e1, e2, e12 = (r.e1, r.e2, r.e12) if type(r) is HyperDual else (0.0, 0.0, 0.0)
        for got, want, what in ((grad[i], e1, "e1"), (grad[j], e2, "e2"), (hess[m], e12, "e12")):
            if not _same(got, want):
                bad.append((i, j, what, got, want))
    assert raised == (grad is None), "Taylor2 and hyper-dual disagree on a domain error"
    return None if raised else bad


class TestTaylor2MatchesHyperDual:
    def test_random_expressions(self, hyperdual_kernels):
        rng = random.Random(21)
        dims = Dims(2, 2)
        coords = all_coords(dims)
        compared = 0
        for _ in range(200):
            text = dsl.format_ast(random_ast(rng, dims, depth=4))
            field = ExpressionField(text, dims)
            point = JetPoint(tuple(rng.uniform(0.1, 2) for _ in range(2)),
                             tuple(rng.uniform(0.1, 2) for _ in range(2)),
                             tuple(tuple(rng.uniform(0.1, 2) for _ in range(2)) for _ in range(2)))
            bad = _pair_mismatches(field, point, coords)
            if bad is not None:
                compared += 1
                assert bad == [], text
        assert compared >= 150

    @pytest.mark.parametrize("p", [1, 2])
    def test_electrodynamics_at_dual_lifted_point(self, hyperdual_kernels, p):
        inst = corpus_instance("non_autonomous", p, 2)
        coords = all_coords(inst.dims)
        for base in sample_points(inst.dims, [-1, 1], 2, seed=7):
            for lift in (v_coord(0, 0), x_coord(1)):
                point = lift_d1(base, (lift,))
                assert _pair_mismatches(inst.L, point, coords) == []

    def test_pure_second_partial_from_a_repeated_coordinate(self):
        dims = Dims(1, 1)
        field = ExpressionField("sin(x1) * v1_1^3", dims)
        point = JetPoint((0.0,), (0.4,), ((1.5,),))
        grad, hess = gradient_hessian(field, point, (v_coord(0, 0), v_coord(0, 0)))
        assert grad[0] == grad[1] == 3.0 * math.sin(0.4) * 1.5 ** 2
        # the pairs (0, 0), (0, 1), (1, 1): the second is the cross pair
        assert hess[1] == pytest.approx(6.0 * math.sin(0.4) * 1.5, rel=1e-15)


# --- Pair-restricted evaluation ------------------------------------------------------


def _random_pairs(rng, k):
    """A random subset of the upper triangle over k seeds, in random order,
    each pair with its lower index first."""
    rows, cols = hessian_pairs(k)
    kept = rng.sample(list(zip(rows, cols)), rng.randrange(1, len(rows) + 1))
    return tuple(r for r, _ in kept), tuple(c for _, c in kept)


def _restriction_mismatches(f, point, coords, pairs):
    """Entries where the evaluation carrying only ``pairs`` is not the
    full-triangle evaluation bitwise (by repr, signed zeros included), or
    does not hold exactly one entry per pair of ``pairs``; None when both
    raise."""
    try:
        full = gradient_hessian(f, point, coords)
    except EvalDomainError:
        full = None
    try:
        grad, hess = gradient_hessian(f, point, coords, pairs)
    except EvalDomainError:
        assert full is None, "only the restricted evaluation raised"
        return None
    assert full is not None, "only the full evaluation raised"
    at = pair_positions(hessian_pairs(len(coords)))
    bad = [("grad", s) for s in range(len(coords)) if repr(grad[s]) != repr(full[0][s])]
    if len(hess) != len(pairs[0]):
        bad.append(("entries", len(hess), len(pairs[0])))
    for s, r, got in zip(*pairs, hess):
        want = full[1][at[s, r]]
        if repr(got) != repr(want):
            bad.append((s, r, got, want))
    return bad


class TestPairRestriction:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_expressions(self, p):
        rng = random.Random(30 + p)
        dims = Dims(p, 2)
        coords = all_coords(dims)
        compared = 0
        for _ in range(60):
            text = dsl.format_ast(random_ast(rng, dims, depth=4))
            field = ExpressionField(text, dims)
            point = JetPoint(tuple(rng.uniform(0.1, 2) for _ in range(p)),
                             tuple(rng.uniform(0.1, 2) for _ in range(2)),
                             tuple(tuple(rng.uniform(0.1, 2) for _ in range(p)) for _ in range(2)))
            for probe in (point, lift_d1(point, (v_coord(1, p - 1),))):
                for pairs in (connection._spray_pairs(2, p), _random_pairs(rng, len(coords))):
                    bad = _restriction_mismatches(field, probe, coords, pairs)
                    if bad is not None:
                        compared += 1
                        assert bad == [], text
        assert compared >= 180

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_electrodynamics_at_dual_lifted_point(self, p):
        inst = corpus_instance("non_autonomous", p, 2)
        coords = all_coords(inst.dims)
        rng = random.Random(p)
        for base in sample_points(inst.dims, [-1, 1], 2, seed=7):
            for lift in (v_coord(0, 0), x_coord(1)):
                point = lift_d1(base, (lift,))
                for pairs in (connection._spray_pairs(2, p), _random_pairs(rng, len(coords))):
                    assert _restriction_mismatches(inst.L, point, coords, pairs) == []

    @pytest.mark.parametrize("p, n", [(1, 3), (2, 3)])
    def test_spray_matches_full_triangle_spray(self, monkeypatch, p, n):
        # The spray as it would be assembled from the full triangle: the
        # same code with every pair kept.
        inst = corpus_instance("non_autonomous", p, n)
        base = sample_points(inst.dims, [-1, 1], 1, seed=9)[0]
        points = [base] + ([lift_d1(base, (v_coord(j, 0),)) for j in range(n)] if p == 1 else [])
        restricted = [repr(spray_data(inst.L, inst.h, q)) for q in points]
        monkeypatch.setattr(connection, "_spray_pairs",
                            lambda n, p: hessian_pairs(p + n + n * p))
        assert restricted == [repr(spray_data(inst.L, inst.h, q)) for q in points]


def _unsigned(x):
    """x with every zero, a Dual's value and entries included, as +0.0."""
    if type(x) is Dual:
        return Dual(_unsigned(x.re), [_unsigned(e) for e in x.du])
    return 0.0 if x == 0.0 else x


def _repr_unsigned(structure):
    return repr(map_structure(_unsigned, structure))


class TestSprayMetricFromItsOnePass:
    """The spray's g and vertical blocks come from its one evaluation over
    every coordinate; a standalone velocity-only evaluation is the oracle."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p, n", CORPUS_DIMS)
    def test_g_and_blocks_match_a_velocity_only_pass(self, kind, p, n):
        inst = corpus_instance(kind, p, n)
        dims = inst.dims
        base = sample_points(dims, [-1, 1], 1, seed=21)[0]
        # a plain point, and one Dual-lifted as the spray derivative and a
        # curvature frame lift it
        for point in (base, lift_d1(base, all_coords(dims))):
            alone = hessian_blocks(inst.L, point).blocks
            spray = hessian_blocks(inst.L, point, all_coords(dims),
                                   connection._spray_pairs(n, p)).blocks
            assert _repr_unsigned(spray) == _repr_unsigned(alone)
            want = trace_metric(inst.h.matrix_at(point.t), alone)
            got = spray_data(inst.L, inst.h, point).g
            assert _repr_unsigned(got) == _repr_unsigned(want)


# --- Sparse support against the former dense scalar ------------------------------------


class DenseTaylor2:
    """The library's former second-order scalar, kept as the oracle of the
    sparse one: every scalar of an evaluation carries all k gradient
    entries and one Hessian entry per pair of ``pairs``."""

    __slots__ = ("re", "g", "h", "pairs")

    def __init__(self, re, g, h, pairs):
        self.re = re
        self.g = g
        self.h = h
        self.pairs = pairs

    def __add__(self, o):
        if type(o) is DenseTaylor2:
            return DenseTaylor2(self.re + o.re, [x + y for x, y in zip(self.g, o.g)],
                                [x + y for x, y in zip(self.h, o.h)], self.pairs)
        if isinstance(o, _NUM) or type(o) is Dual:
            return DenseTaylor2(self.re + o, self.g, self.h, self.pairs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is DenseTaylor2:
            return DenseTaylor2(self.re - o.re, [x - y for x, y in zip(self.g, o.g)],
                                [x - y for x, y in zip(self.h, o.h)], self.pairs)
        if isinstance(o, _NUM) or type(o) is Dual:
            return DenseTaylor2(self.re - o, self.g, self.h, self.pairs)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            return DenseTaylor2(o - self.re, [-x for x in self.g], [-x for x in self.h],
                                self.pairs)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is DenseTaylor2:
            a, b, ga, gb = self.re, o.re, self.g, o.g
            rows, cols = pairs = self.pairs
            return DenseTaylor2(
                a * b,
                [a * y + x * b for x, y in zip(ga, gb)],
                [a * hb + ga[i] * gb[j] + ga[j] * gb[i] + ha * b
                 for i, j, ha, hb in zip(rows, cols, self.h, o.h)],
                pairs,
            )
        if isinstance(o, _NUM) or type(o) is Dual:
            return DenseTaylor2(self.re * o, [x * o for x in self.g],
                                [x * o for x in self.h], self.pairs)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.re
        if _value(v) == 0.0:
            raise ZeroDivisionError("taylor division by zero")
        inv = 1.0 / v if isinstance(v, _NUM) else _reciprocal(v)
        inv2 = inv * inv
        g = self.g
        twice = [2.0 * x for x in g]
        rows, cols = pairs = self.pairs
        return DenseTaylor2(
            inv,
            [-x * inv2 for x in g],
            [-hh * inv2 + twice[i] * g[j] * inv2 * inv
             for i, j, hh in zip(rows, cols, self.h)],
            pairs,
        )

    def __truediv__(self, o):
        if type(o) is DenseTaylor2:
            r = self * o._reciprocal()
            return DenseTaylor2(self.re / o.re, r.g, r.h, r.pairs)
        if isinstance(o, _NUM) or type(o) is Dual:
            if _value(o) == 0.0:
                raise ZeroDivisionError("taylor division by zero")
            inv = 1.0 / o if isinstance(o, _NUM) else _reciprocal(o)
            return DenseTaylor2(self.re / o, [x * inv for x in self.g],
                                [x * inv for x in self.h], self.pairs)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            r = self._reciprocal() * o
            return DenseTaylor2(o / self.re, r.g, r.h, r.pairs)
        return NotImplemented

    def __neg__(self):
        return DenseTaylor2(-self.re, [-x for x in self.g], [-x for x in self.h], self.pairs)


def _dense_chain(x, f, df, d2f):
    v = x.re
    d, dd = df(v), d2f(v)
    g = x.g
    scaled = [dd * e for e in g]
    rows, cols = pairs = x.pairs
    return DenseTaylor2(
        f(v),
        [d * e for e in g],
        [d * hh + scaled[i] * g[j] for i, j, hh in zip(rows, cols, x.h)],
        pairs,
    )


def _dense_tan(x):
    def dtan(v):
        tv = scalars.g_tan(v)
        return 1.0 + tv * tv

    return _dense_chain(x, scalars.g_tan, dtan, lambda v: 2.0 * scalars.g_tan(v) * dtan(v))


def _dense_log(x):
    _domain(_value(x) > 0.0, "log of a non-positive value")
    return _dense_chain(x, scalars.g_log, _reciprocal, lambda v: -_reciprocal(v * v))


def _dense_sqrt(x):
    _domain(_value(x) > 0.0, "sqrt differentiated at a non-positive value")
    return _dense_chain(x, scalars.g_sqrt, lambda v: 0.5 * _reciprocal(scalars.g_sqrt(v)),
                        lambda v: -0.25 * _reciprocal(scalars.g_sqrt(v) * v))


# The former kernels' second-order branches; inner values are never dense
# scalars, so they go to the library's own kernels.
_DENSE_KERNELS = {
    "sin": lambda x: _dense_chain(x, scalars.g_sin, scalars.g_cos,
                                  lambda v: -scalars.g_sin(v)),
    "cos": lambda x: _dense_chain(x, scalars.g_cos, lambda v: -scalars.g_sin(v),
                                  lambda v: -scalars.g_cos(v)),
    "tan": _dense_tan,
    "exp": lambda x: _dense_chain(x, scalars.g_exp, scalars.g_exp, scalars.g_exp),
    "log": _dense_log,
    "sqrt": _dense_sqrt,
    "sinh": lambda x: _dense_chain(x, scalars.g_sinh, scalars.g_cosh, scalars.g_sinh),
    "cosh": lambda x: _dense_chain(x, scalars.g_cosh, scalars.g_sinh, scalars.g_cosh),
    "abs": _hd_abs,
}


@pytest.fixture
def dense_kernels(monkeypatch):
    """Expression closures compiled inside this fixture send dense
    arguments to the former kernels; value reads know the dense scalar."""
    for name, fn in list(dsl._FUNC_IMPL.items()):
        dense = _DENSE_KERNELS[name]
        monkeypatch.setitem(dsl._FUNC_IMPL, name,
                            lambda x, fn=fn, dense=dense: dense(x) if type(x) is DenseTaylor2
                            else fn(x))

    def div(a, b):
        if _value(b) == 0.0:
            raise EvalDomainError("division by zero")
        return a / b

    monkeypatch.setattr(scalars, "g_div", div)
    monkeypatch.setattr(metric_engine, "scalar_value", _value)


def _dense_gradient_hessian(f, point, coords, pairs):
    """The former ``gradient_hessian``: one evaluation on a lift where every
    seeded coordinate carries all len(coords) gradient entries, and one
    Hessian entry per pair of ``pairs``."""
    k = len(coords)
    zeros = [0.0] * len(pairs[0])
    seeded = {
        c: DenseTaylor2(point.coord(c), [1.0 if d == c else 0.0 for d in coords], zeros, pairs)
        for c in coords
    }
    t = tuple(seeded.get(t_coord(a), val) for a, val in enumerate(point.t))
    x = tuple(seeded.get(x_coord(i), val) for i, val in enumerate(point.x))
    v = tuple(tuple(seeded.get(v_coord(i, a), val) for a, val in enumerate(row))
              for i, row in enumerate(point.v))
    r = f(raw_point(t, x, v))
    if type(r) is DenseTaylor2:
        return r.g, r.h
    return [0.0] * k, [0.0] * len(pairs[0])


def _dense_mismatches(f, point, coords, pairs):
    """Entries where the sparse evaluation is not the dense one (bitwise by
    repr, zeros by value, one Hessian entry per pair on both sides); None
    when both raise."""
    try:
        want = _dense_gradient_hessian(f, point, coords, pairs)
    except EvalDomainError:
        want = None
    try:
        grad, hess = gradient_hessian(f, point, coords, pairs)
    except EvalDomainError:
        assert want is None, "only the sparse evaluation raised"
        return None
    assert want is not None, "only the dense evaluation raised"
    bad = [("grad", s, grad[s], want[0][s]) for s in range(len(coords))
           if not _same(grad[s], want[0][s])]
    if len(hess) != len(want[1]):
        bad.append(("entries", len(hess), len(want[1])))
    for s, r, got, exp in zip(*pairs, hess, want[1]):
        if not _same(got, exp):
            bad.append((s, r, got, exp))
    return bad


class TestSparseMatchesDense:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_expressions(self, dense_kernels, p):
        rng = random.Random(40 + p)
        dims = Dims(p, 2)
        coords = all_coords(dims)
        compared = 0
        for _ in range(60):
            text = dsl.format_ast(random_ast(rng, dims, depth=4))
            field = ExpressionField(text, dims)
            point = JetPoint(tuple(rng.uniform(0.1, 2) for _ in range(p)),
                             tuple(rng.uniform(0.1, 2) for _ in range(2)),
                             tuple(tuple(rng.uniform(0.1, 2) for _ in range(p)) for _ in range(2)))
            for probe in (point, lift_d1(point, (v_coord(1, p - 1),))):
                for pairs in (hessian_pairs(len(coords)), connection._spray_pairs(2, p)):
                    bad = _dense_mismatches(field, probe, coords, pairs)
                    if bad is not None:
                        compared += 1
                        assert bad == [], text
        assert compared >= 180

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_electrodynamics(self, dense_kernels, p):
        inst = corpus_instance("non_autonomous", p, 2)
        coords = all_coords(inst.dims)
        for base in sample_points(inst.dims, [-1, 1], 2, seed=8):
            for point in (base, lift_d1(base, (v_coord(0, 0),)), lift_d1(base, (x_coord(1),))):
                for pairs in (hessian_pairs(len(coords)), connection._spray_pairs(2, p)):
                    assert _dense_mismatches(inst.L, point, coords, pairs) == []


def _spray_lift(p, n):
    """A point of the p, n jet space lifted over every coordinate with the
    spray's pairs, and those coordinates in seed order."""
    dims = Dims(p, n)
    coords = all_coords(dims)
    point = sample_points(dims, [-1, 1], 1, seed=3)[0]
    return lift_taylor(point, coords, connection._spray_pairs(n, p)), coords


class TestSupport:
    def test_velocity_product_carries_its_one_cross_pair(self):
        q, coords = _spray_lift(2, 3)
        r = q.v[0][0] * q.v[1][1]
        v00, v11 = coords.index(v_coord(0, 0)), coords.index(v_coord(1, 1))
        assert r.layout.seeds == (v00, v11)
        rows, cols = r.layout.pairs
        # seeded leaves carry no pair; the product adds the one pair with a
        # seed in each operand, 1 of the 45 spray pairs
        assert [(rows[m], cols[m]) for m in r.layout.kept] == [(v00, v11)]
        assert r.g == [q.v[1][1].re, q.v[0][0].re] and r.h == [1.0]

    def test_metric_times_velocity_product_carries_its_x_v_and_v_v_entries(self):
        q, coords = _spray_lift(2, 3)
        r = scalars.g_cos(q.x[0]) * (q.v[0][0] * q.v[1][1])
        rows, cols = r.layout.pairs
        x0, v00, v11 = (coords.index(c) for c in (x_coord(0), v_coord(0, 0), v_coord(1, 1)))
        # cos carries every pair among its seed, and (x0, x0) is not a spray
        # pair; the product adds its x-v cross pairs to (v00, v11)
        assert [(rows[m], cols[m]) for m in r.layout.kept] == [(x0, v00), (x0, v11),
                                                               (v00, v11)]
        x, y0, y1 = q.x[0].re, q.v[0][0].re, q.v[1][1].re
        assert r.h == [-math.sin(x) * y1, -math.sin(x) * y0, math.cos(x)]

    def test_gradient_hessian_has_one_entry_per_pair_and_zero_outside_the_support(self):
        dims = Dims(2, 3)
        coords = all_coords(dims)
        point = sample_points(dims, [-1, 1], 1, seed=3)[0]
        pairs = connection._spray_pairs(3, 2)
        grad, hess = gradient_hessian(lambda q: q.v[0][0] * q.v[1][1], point, coords, pairs)
        x0, x1, v00, v11 = (coords.index(c)
                            for c in (x_coord(0), x_coord(1), v_coord(0, 0), v_coord(1, 1)))
        at = pair_positions(pairs)
        assert len(hess) == len(pairs[0]) == 45
        assert repr(hess[at[x0, v00]]) == "0.0"  # a spray pair, outside the support
        assert hess[at[v00, v11]] == 1.0
        assert [repr(e) for m, e in enumerate(hess) if m != at[v00, v11]] == ["0.0"] * 44
        assert (x0, x1) not in at  # not a spray pair: no entry to read
        assert grad[v00] == point.v[1][1] and repr(grad[x0]) == "0.0"

    def test_repeated_evaluation_makes_no_new_layout_or_plan(self):
        def totals():
            return (len(scalars._LAYOUTS),
                    sum(len(lay.plans) for lay in scalars._LAYOUTS.values()))

        inst = corpus_instance("non_autonomous", 2, 2)
        pack = cartan_connection(inst.L, inst.h, electrodynamics_decompose(inst.L, inst.h))
        pt = sample_points(inst.dims, [-1, 1], 1, seed=4)[0]
        seen = []
        for _ in range(2):
            for q in (pt, lift_d1(pt, (x_coord(0),))):
                hessian_blocks(inst.L, q)
                spray_data(inst.L, inst.h, q)
                pack.coefficients_at(q)
            seen.append(totals())
        assert seen[0] == seen[1]


class TestAbsentEntriesAreNotRead:
    """A kernel reads only the entries its operands carry; an index of -1
    would silently read an operand's last real entry instead."""

    def test_a_sum_of_a_leaf_and_a_square_has_no_cross_entry(self):
        dims = Dims(1, 1)
        coords = all_coords(dims)
        grad, hess = gradient_hessian(ExpressionField("t1 + x1^2", dims),
                                      JetPoint((0.3,), (0.7,), ((0.2,),)), coords)
        t, x = coords.index(t_coord(0)), coords.index(x_coord(0))
        at = pair_positions(hessian_pairs(len(coords)))
        assert repr(hess[at[t, x]]) == repr(hess[at[t, t]]) == "0.0"
        assert hess[at[x, x]] == 2.0 and grad[:2] == [1.0, 1.4]

    def test_a_seeded_leaf_carries_no_hessian_entry(self):
        q, _ = _spray_lift(2, 3)
        leaf = q.v[0][0]
        assert leaf.layout.kept == () and leaf.h == [] and leaf.g == [1.0]

    def test_no_kernel_indexes_from_the_end(self):
        for kind in KINDS:
            for p, n in CORPUS_DIMS:
                inst = corpus_instance(kind, p, n)
                spray_data(inst.L, inst.h, sample_points(inst.dims, [-1, 1], 1, seed=5)[0])
        assert [src for src in scalars._KERNELS if "[-1]" in src] == []


# --- Compiled kernels against the per-entry formulas ------------------------------
#
# The references derive each result's support from the support rules and
# sum, in the dense formula's order, the terms whose operand entries exist,
# reading the operands by seed and pair index.  A nan is compared as a nan:
# which operand's nan a product of two nans returns changes once the
# interpreter specializes the instruction, so its sign is not reproducible
# even between two runs of one formula.


def _total(terms):
    """Left-to-right sum of ``terms`` (``sum`` would add them to 0, which
    can change the sign of a zero)."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def _entries(x):
    """A Taylor2's gradient by seed and Hessian by pair index."""
    return dict(zip(x.layout.seeds, x.g)), dict(zip(x.layout.kept, x.h))


def _among(pairs, seeds):
    """The pair indices with both seeds in ``seeds``."""
    return tuple(m for m, (i, j) in enumerate(zip(*pairs)) if i in seeds and j in seeds)


def _ref_binary(x, y, op):
    pairs = x.layout.pairs
    rows, cols = pairs
    (ga, ha), (gb, hb) = _entries(x), _entries(y)
    seeds = tuple(sorted({*ga, *gb}))
    kept = {*ha, *hb}
    if op in "+-":
        # x - y as x + (-y), bitwise the same
        sign = (lambda e: e) if op == "+" else (lambda e: -e)
        g = [_total([e for e in (ga.get(s), sign(gb[s]) if s in gb else None)
                     if e is not None]) for s in seeds]
        h = [_total([e for e in (ha.get(m), sign(hb[m]) if m in hb else None)
                     if e is not None]) for m in sorted(kept)]
        return Taylor2(x.re + sign(y.re), g, h, scalars.layout(pairs, seeds, tuple(sorted(kept))))
    # a product adds the pairs with one seed in each operand
    kept |= {m for m, (i, j) in enumerate(zip(rows, cols))
             if (i in ga and j in gb) or (j in ga and i in gb)}
    a, b = x.re, y.re
    g = [_total([e for e in (a * gb[s] if s in gb else None, ga[s] * b if s in ga else None)
                 if e is not None]) for s in seeds]
    h = []
    for m in sorted(kept):
        i, j = rows[m], cols[m]
        terms = (a * hb[m] if m in hb else None,
                 ga[i] * gb[j] if i in ga and j in gb else None,
                 ga[j] * gb[i] if j in ga and i in gb else None,
                 ha[m] * b if m in ha else None)
        h.append(_total([e for e in terms if e is not None]))
    return Taylor2(a * b, g, h, scalars.layout(pairs, seeds, tuple(sorted(kept))))


def _ref_scale(x, o):
    return Taylor2(x.re * o, [e * o for e in x.g], [e * o for e in x.h], x.layout)


def _ref_neg(x):
    return Taylor2(-x.re, [-e for e in x.g], [-e for e in x.h], x.layout)


def _ref_widened(x, fv, d, first, second):
    """Reciprocal and chain: g_q = d g_q, and each pair among the seeds
    sums ``first(h_m)`` where x carries the pair and ``second(g_i, g_j)``."""
    lay = x.layout
    g, h = _entries(x)
    rows, cols = lay.pairs
    full = _among(lay.pairs, set(lay.seeds))
    dh = [_total([e for e in (first(h[m]) if m in h else None, second(g[rows[m]], g[cols[m]]))
                  if e is not None]) for m in full]
    return Taylor2(fv, [d(e) for e in x.g], dh, scalars.layout(lay.pairs, lay.seeds, full))


def _ref_reciprocal(x):
    v = x.re
    if _value(v) == 0.0:
        raise ZeroDivisionError("taylor division by zero")
    inv = 1.0 / v if isinstance(v, _NUM) else _reciprocal(v)
    inv2 = inv * inv
    return _ref_widened(x, inv, lambda e: -e * inv2, lambda e: -e * inv2,
                        lambda gi, gj: 2.0 * gi * gj * inv2 * inv)


def _ref_chain(x, fv, d, dd):
    return _ref_widened(x, fv, lambda e: d * e, lambda e: d * e, lambda gi, gj: dd * gi * gj)


def _bits(s):
    """A scalar as its packed float bits, recursively, with its layout."""
    if type(s) is Dual:
        return ("Dual", _bits(s.re), tuple(map(_bits, s.du)))
    if type(s) is Taylor2:
        return ("Taylor2", _bits(s.re), tuple(map(_bits, s.g)), tuple(map(_bits, s.h)), s.layout)
    return "nan" if math.isnan(s) else struct.pack("<d", s)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except ZeroDivisionError:
        return "ZeroDivisionError"


# Entry values: either full-mantissa values of one scale, whose sums round
# differently in another order, or specials mixed with any float.
_VALUES = (
    st.integers(-2**53, 2**53).map(lambda m: m / 2**51),
    st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
              st.floats()),
)
_DUAL_WIDTH = 2


@st.composite
def _case(draw):
    """Two Taylor2s of one evaluation, full triangle or spray pairs, with
    seeds disjoint, overlapping or equal (the second then of the first's
    layout) or with no pair among them, each carrying none, some or all of
    the pairs among its seeds, and a plain and a Dual constant and f', f''
    for the unary ops; the Taylor2 entries are floats or Duals."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        pairs, unpaired = hessian_pairs(k), ()
    else:
        p, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]))
        pairs, k = connection._spray_pairs(n, p), p + n + n * p
        unpaired = tuple(range(p + n))  # t and x carry no pair among themselves
    seeds = st.sets(st.sampled_from(range(k)), max_size=k)
    mode = draw(st.sampled_from(["disjoint", "overlapping", "equal", "no pair among"]))
    if mode == "no pair among":
        pool = st.sets(st.sampled_from(unpaired)) if unpaired else st.just(set())
        sa, sb = draw(pool), draw(pool)
    else:
        sa = draw(seeds)
        if mode == "equal":
            sb = sa
        elif mode == "disjoint":
            rest = sorted(set(range(k)) - sa)
            sb = draw(st.sets(st.sampled_from(rest))) if rest else set()
        else:
            sb = draw(seeds)
    values = draw(st.sampled_from(_VALUES))

    def entry(dual):
        if dual:
            return Dual(draw(values), [draw(values) for _ in range(_DUAL_WIDTH)])
        return draw(values)

    def support(s):
        among = _among(pairs, s)
        carried = draw(st.sampled_from(["none", "some", "all"]))
        if carried == "some" and among:
            return tuple(sorted(draw(st.sets(st.sampled_from(among)))))
        return among if carried == "all" else ()

    dual = draw(st.booleans())
    lays = [scalars.layout(pairs, tuple(sorted(sa)), support(sa))]
    lays.append(lays[0] if mode == "equal" else
                scalars.layout(pairs, tuple(sorted(sb)), support(sb)))
    out = [Taylor2(entry(dual), [entry(dual) for _ in lay.seeds],
                   [entry(dual) for _ in lay.kept], lay) for lay in lays]
    if mode == "no pair among":
        assert out[0].layout.kept == out[1].layout.kept == ()
    return (*out, entry(False), entry(True), entry(False), entry(False))


class TestKernelsMatchTheFormulas:
    @settings(max_examples=200, deadline=None)
    @given(case=_case())
    def test_every_op_is_bitwise_the_formula(self, case):
        x, y, constant, dual_constant, d, dd = case
        assert _bits(x + y) == _bits(_ref_binary(x, y, "+"))
        assert _bits(x - y) == _bits(_ref_binary(x, y, "-"))
        assert _bits(x * y) == _bits(_ref_binary(x, y, "*"))
        for o in (constant, dual_constant):
            assert _bits(x * o) == _bits(_ref_scale(x, o))
        assert _bits(-x) == _bits(_ref_neg(x))
        assert _outcome(Taylor2._reciprocal, x) == _outcome(_ref_reciprocal, x)
        chained = scalars._chain(x, lambda v: 0.5, lambda v: d, lambda v: dd)
        assert _bits(chained) == _bits(_ref_chain(x, 0.5, d, dd))

    def test_full_triangle_product_over_99_seeds(self):
        # the expression language's largest evaluation: p = n = 9 over
        # p + n + np = 99 coordinates; a quotient carries every pair among
        # its seeds, a sum of products some of them
        k = 9 + 9 + 81
        pairs = hessian_pairs(k)
        rng = random.Random(99)
        out = []
        for seeds in (tuple(range(k)), tuple(sorted(rng.sample(range(k), 60)))):
            among = _among(pairs, set(seeds))
            kept = among if len(seeds) == k else tuple(sorted(rng.sample(among, len(among) // 2)))
            lay = scalars.layout(pairs, seeds, kept)
            out.append(Taylor2(rng.uniform(-2, 2), [rng.uniform(-2, 2) for _ in seeds],
                               [rng.uniform(-2, 2) for _ in kept], lay))
        x, y = out
        assert _bits(x * y) == _bits(_ref_binary(x, y, "*"))
        assert _bits(y * x) == _bits(_ref_binary(y, x, "*"))

    def test_plans_of_one_index_pattern_share_one_kernel(self):
        # x^0 * (x^0 x^1) and x^1 * (x^1 x^2) in one evaluation, and the
        # first again in an evaluation over more seeds, read their operands
        # at the same positions: a seeded leaf carries no pair, x^s x^(s+1)
        # its one cross pair, and the product adds (s, s) and (s, s + 1)
        def product(pairs, s):
            x = scalars.seeded(1.0, scalars.layout(pairs, (s,), ()))
            y = x * scalars.seeded(2.0, scalars.layout(pairs, (s + 1,), ()))
            return x * y, x.layout.plans[y.layout]

        results = [product(hessian_pairs(3), 0), product(hessian_pairs(3), 1),
                   product(hessian_pairs(5), 3)]
        plans = [plan for _, plan in results]
        assert len({id(plan) for plan in plans}) == 3
        assert len({plan.times for plan in plans}) == 1
        assert len({_bits(r)[1:4] for r, _ in results}) == 1
        for (r, _), s in zip(results, (0, 1, 3)):
            rows, cols = r.layout.pairs
            assert r.layout.seeds == (s, s + 1)
            assert [(rows[m], cols[m]) for m in r.layout.kept] == [(s, s), (s, s + 1)]
            # x^2 y at (1, 2): gradient (2xy, x^2), second partials 2y and 2x
            assert (r.re, r.g, r.h) == (2.0, [4.0, 1.0], [4.0, 2.0])

    def test_import_and_config_assembly_compile_no_kernel(self):
        script = (
            "from jetlag import scalars\n"
            "from conftest import CORPUS_DIMS, KINDS, corpus_instance, quartic_config, sphere_config\n"
            "from jetlag.config import assemble\n"
            "for kind in KINDS:\n"
            "    for p, n in CORPUS_DIMS:\n"
            "        corpus_instance(kind, p, n)\n"
            "assemble(quartic_config())\n"
            "assemble(sphere_config())\n"
            "print(len(scalars._KERNELS))\n"
        )
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=here, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


# --- A lifted value is the plain value -------------------------------------------------


def _lifted_value_mismatches(cases, first_only=False):
    """Over ``cases`` random depth-4 expressions on dims (2, 2) at points
    with every coordinate in [0.1, 1], the number of evaluable ones and of
    those whose lifted value is not bitwise the plain one: the value of a
    Dual lift over every coordinate and of a Taylor2 lift over every
    coordinate against the plain evaluation, and the value of a Taylor2
    lift over three coordinates of that Dual-lifted point against the
    Dual evaluation, its entries included.  With ``first_only``, stop at
    the first mismatch."""
    rng = random.Random(18)
    dims = Dims(2, 2)
    coords = all_coords(dims)
    nested = (t_coord(0), x_coord(1), v_coord(0, 1))
    evaluable, bad = 0, {"dual": 0, "taylor2": 0, "taylor2 over dual": 0}
    for _ in range(cases):
        field = ExpressionField(dsl.format_ast(random_ast(rng, dims, depth=4)), dims)
        point = JetPoint(*(tuple(rng.uniform(0.1, 1) for _ in range(2)) for _ in range(2)),
                         tuple(tuple(rng.uniform(0.1, 1) for _ in range(2)) for _ in range(2)))
        dual_point = lift_d1(point, coords)
        try:
            plain = field(point)
            dual = field(dual_point)
            taylor = field(lift_taylor(point, coords))
            nested_taylor = field(lift_taylor(dual_point, nested))
        except (EvalDomainError, ArithmeticError):
            continue
        evaluable += 1
        bad["dual"] += _bits(dual.re if type(dual) is Dual else dual) != _bits(plain)
        bad["taylor2"] += _bits(taylor.re if type(taylor) is Taylor2 else taylor) != _bits(plain)
        bad["taylor2 over dual"] += _bits(
            nested_taylor.re if type(nested_taylor) is Taylor2 else nested_taylor) != _bits(dual)
        if first_only and any(bad.values()):
            break
    return evaluable, bad


def _former_value(cls, name, applies, value):
    """``cls.name`` with the quotient's value taken as the former (1/b)*a
    wherever ``applies(o)``; its derivative entries are unchanged."""
    current = getattr(cls, name)

    def method(self, o):
        r = current(self, o)
        if r is NotImplemented or not applies(o):
            return r
        if type(r) is Dual:
            return Dual(value(self, o), r.du)
        return Taylor2(value(self, o), r.g, r.h, r.layout)

    return method


# Each quotient site with its former value, the product of one operand and
# the reciprocal of the denominator.
_FORMER_QUOTIENTS = {
    "Dual / Dual": (Dual, "__truediv__", lambda o: type(o) is Dual,
                    lambda s, o: s.re * _reciprocal(o.re)),
    "number / Dual": (Dual, "__rtruediv__", lambda o: True,
                      lambda s, o: o * _reciprocal(s.re)),
    "Taylor2 / Taylor2": (Taylor2, "__truediv__", lambda o: type(o) is Taylor2,
                          lambda s, o: s.re * _reciprocal(o.re)),
    "Taylor2 / (number | Dual)": (Taylor2, "__truediv__", lambda o: type(o) is not Taylor2,
                                  lambda s, o: s.re * _reciprocal(o)),
    "(number | Dual) / Taylor2": (Taylor2, "__rtruediv__", lambda o: True,
                                  lambda s, o: _reciprocal(s.re) * o),
}


class TestLiftedValueIsPlainValue:
    def test_random_expressions(self):
        evaluable, bad = _lifted_value_mismatches(2000)
        assert evaluable >= 1800
        assert bad == {"dual": 0, "taylor2": 0, "taylor2 over dual": 0}

    @pytest.mark.parametrize("site", sorted(_FORMER_QUOTIENTS))
    def test_the_former_quotient_value_fails_it(self, monkeypatch, site):
        cls, name, applies, value = _FORMER_QUOTIENTS[site]
        monkeypatch.setattr(cls, name, _former_value(cls, name, applies, value))
        _, bad = _lifted_value_mismatches(2000, first_only=True)
        assert any(bad.values()), site


# --- Evaluations per assembly ---------------------------------------------------------


class _Counted:
    """L, counting its evaluations and recording, for each one on a
    Taylor2-lifted point, the seed count (the lifted coordinates: each
    scalar carries only its own seeds) and the Hessian entries carried (the
    evaluation's pairs), and the types of the lifted leaves' values."""

    def __init__(self, L):
        self.L, self.dims, self.calls, self.lifts, self.leaf_types = L, L.dims, 0, [], set()

    def __call__(self, point):
        self.calls += 1
        coords = list(point.t) + list(point.x) + [e for row in point.v for e in row]
        lifted = [e for e in coords if type(e) is Taylor2]
        if lifted:
            self.lifts.append((len(lifted), len(lifted[0].layout.pairs[0])))
            self.leaf_types.update(type(e.re) for e in lifted)
        return self.L(point)


# Hessian entries of the spray's one evaluation: the t^a-v^i_a and x^j-v^i_a
# pairs and the v-v triangle, of (p + n + np)(p + n + np + 1)/2 (28 and 66).
_SPRAY_ENTRIES = {(1, 3): 18, (2, 3): 45}


class TestOneEvaluationPerHessian:
    @pytest.mark.parametrize("p, n", [(1, 3), (2, 3)])
    def test_hessian_blocks_once_spray_once(self, p, n):
        entries = _SPRAY_ENTRIES[(p, n)]
        inst = corpus_instance("non_autonomous", p, n)
        L = _Counted(inst.L)
        point = sample_points(inst.dims, [-1, 1], 1, seed=5)[0]
        hessian_blocks(L, point)
        assert L.calls == 1
        spray_data(L, inst.h, point)
        assert L.calls == 1 + 1
        # the vertical blocks alone carry their full triangle; the spray's
        # evaluation seeds every coordinate and carries the t-v, x-v and
        # v-v pairs, its g the h-trace of the v-v blocks
        k, kv = p + n + n * p, n * p
        assert L.lifts == [(kv, kv * (kv + 1) // 2), (k, entries)]
        assert entries == n * p + n * n * p + kv * (kv + 1) // 2

    def test_p1_frame_evaluates_m_and_n_once_per_lift(self, monkeypatch):
        inst = corpus_instance("non_autonomous", 1, 2)
        calls = {"m": 0, "n": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(cartan, "m_values", counted("m", cartan.m_values))
        monkeypatch.setattr(cartan, "spray_n_values", counted("n", cartan.spray_n_values))
        pack = cartan_connection(inst.L, inst.h, None)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=45)[0]
        curvature_table(torsion_table(pack, pt))
        # the frame's one lift over every coordinate, whose value is the
        # point's: M, from the closure's own temporal Christoffels, and N,
        # the spray derivative, are each computed once
        assert calls == {"m": 1, "n": 1}


class TestBenchmarkCallStructure:
    """The call structure the benchmark's self-test pins per job: each spray
    is one Taylor2 evaluation of L, and each Euler-Lagrange residual adds
    its own vertical one."""

    @pytest.fixture
    def sprays(self, monkeypatch):
        count, spray = [0], connection.spray_data

        def counted(*args):
            count[0] += 1
            return spray(*args)

        monkeypatch.setattr(extremal, "spray_data", counted)
        monkeypatch.setattr(connection, "spray_data", counted)
        return count

    def test_extremal(self, sprays):
        inst = corpus_instance("non_autonomous", 1, 3)
        L = _Counted(inst.L)
        steps = 4
        problem = extremal.ExtremalProblem(L=L, h=inst.h, t0=0.0, x0=(0.1, -0.2, 0.3),
                                           y0=(0.4, 0.2, -0.3), t_end=0.04, dt=0.01)
        traj = extremal.integrate_extremal(problem)
        assert not traj.aborted and len(traj.t) == steps + 1
        # 4 RK4 stages per step, then one spray per interior sample
        assert sprays[0] == 5 * steps - 1
        # each interior sample's residual also evaluates the vertical blocks
        assert len(L.lifts) == L.calls == 6 * steps - 2
        assert L.lifts.count((1 + 3 + 3, _SPRAY_ENTRIES[(1, 3)])) == 5 * steps - 1
        # each stage's spray and each sample's residual runs on Python
        # floats, not on the numpy scalars of the stored states
        assert L.leaf_types == {float}

    def test_lattice(self, sprays):
        inst = corpus_instance("non_autonomous", 2, 3)
        L = _Counted(inst.L)
        grid = extremal.GridMap.from_function(
            inst.dims, [(0.0, 0.5), (0.0, 0.5)], (5, 6),
            lambda ts: [0.1 * ts[0], 0.2 * ts[1], 0.1 * ts[0] * ts[1]])
        interior = 3 * 4
        res = extremal.harmonic_residual(L, inst.h, grid)
        assert len(res.indices) == interior
        assert sprays[0] == interior
        assert L.lifts == [(2 + 3 + 6, _SPRAY_ENTRIES[(2, 3)])] * interior
        assert L.calls == interior
        # each node's spray runs on Python floats, not on the numpy scalars
        # of the lattice's float64 arrays
        assert L.leaf_types == {float}


# --- Float64-array leaves ---------------------------------------------------------------


_UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs")
# Element values: near 0 (signed zeros, subnormals), +-large (math's range
# errors), ordinary, and any float at all.
_ELEMENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 0.5, 2.0,
                     709.0, 711.0, -746.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-4.0, 4.0),
    st.floats(),
)
# Exponents: integral ones, which g_pow takes as integer powers, and others.
_EXPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, 1e6, 1e6 + 1.0]),
    st.floats(-4.0, 4.0),
)


def _arrays(element, size):
    return st.lists(element, min_size=size, max_size=size).map(np.array)


@st.composite
def _leaf_case(draw, element=_ELEMENT):
    """Two array leaves of one size, 2 to 6."""
    size = draw(st.integers(2, 6))
    return draw(_arrays(element, size)), draw(_arrays(element, size))


def _result(fn, *args):
    """What ``fn(*args)`` gives: the packed bits of its value, per element
    for an array, or the type and message of the evaluation error it
    raises.  numpy's floating-point warnings are silenced, as around the
    crosscheck's evaluation."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (EvalDomainError, ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return [_bits(e) for e in out.tolist()]
    return _bits(out)


def _element_results(fn, *args):
    """``_result`` of ``fn`` on each element of the array arguments, the
    other arguments shared."""
    size = next(len(a) for a in args if isinstance(a, np.ndarray))
    return [_result(fn, *[a.tolist()[j] if isinstance(a, np.ndarray) else a for a in args])
            for j in range(size)]


def _assert_elementwise(fn, *args):
    """An array evaluation is each element's float evaluation, bit for bit;
    it raises exactly when some element does, with the error of one that
    does (of the first, where one check fails for all of them)."""
    whole, each = _result(fn, *args), _element_results(fn, *args)
    failed = [r for r in each if type(r) is tuple]
    if failed:
        assert whole in failed
    elif type(whole) is list:
        assert whole == each
    else:  # a float shared by every element, such as u**0
        assert [whole] * len(each) == each


class TestArrayLeaves:
    @settings(max_examples=300, deadline=None)
    @given(case=_leaf_case())
    def test_every_function_is_the_float_evaluation(self, case):
        x, _ = case
        for name in _UNARY_FUNCTIONS:
            _assert_elementwise(getattr(scalars, f"g_{name}"), x)

    @settings(max_examples=300, deadline=None)
    @given(case=_leaf_case(), other=_ELEMENT)
    def test_division(self, case, other):
        x, y = case
        _assert_elementwise(scalars.g_div, x, y)
        _assert_elementwise(scalars.g_div, x, other)
        _assert_elementwise(scalars.g_div, other, y)

    @settings(max_examples=300, deadline=None)
    @given(case=_leaf_case(), k=st.integers(-4, 4))
    def test_integer_powers(self, case, k):
        x, _ = case
        _assert_elementwise(scalars.g_ipow, x, k)

    @settings(max_examples=300, deadline=None)
    @given(base=_leaf_case(), exponent=_leaf_case(_EXPONENT), other=_EXPONENT)
    def test_general_powers(self, base, exponent, other):
        u, _ = base
        w = exponent[0][:len(u)]
        w = np.concatenate([w, np.full(len(u) - len(w), 2.0)])
        _assert_elementwise(scalars.g_pow, u, w)
        _assert_elementwise(scalars.g_pow, 1.5, w)
        _assert_elementwise(scalars.g_pow, u, other)

    def test_a_domain_error_is_the_float_error(self):
        # the one element outside the domain raises what it raises alone
        x = np.array([1.0, 2.0, -1.0, 3.0])
        for fn, message in ((scalars.g_log, "log of a non-positive value"),
                            (scalars.g_sqrt, "sqrt of a negative value"),
                            (lambda u: scalars.g_div(1.0, u + 1.0), "division by zero"),
                            (lambda u: scalars.g_ipow(u + 1.0, -2), "zero raised to a negative power"),
                            (lambda u: scalars.g_pow(u, 0.5), "non-integer power of a non-positive base")):
            with pytest.raises(EvalDomainError) as raised:
                fn(x)
            assert str(raised.value) == message
        with pytest.raises(OverflowError, match="math range error"):
            scalars.g_exp(np.array([1.0, 800.0]))

    def test_random_expressions_are_the_evaluation_at_each_point(self):
        rng = random.Random(77)
        dims = Dims(2, 2)
        size = 5
        for _ in range(300):
            field = ExpressionField(dsl.format_ast(random_ast(rng, dims, rng.randrange(1, 5))),
                                    dims)
            rows = [[rng.uniform(-1.0, 1.0) for _ in range(2 + 2 + 4)] for _ in range(size)]
            cols = [np.array(c) for c in zip(*rows)]
            batch = raw_point(tuple(cols[:2]), tuple(cols[2:4]),
                              ((cols[4], cols[5]), (cols[6], cols[7])))
            points = [JetPoint(r[:2], r[2:4], (r[4:6], r[6:8])) for r in rows]

            def each(points=points, field=field):
                return np.array([field(q) for q in points])

            whole, alone = _result(field, batch), _result(each)
            if type(alone) is tuple:
                assert type(whole) is tuple
            else:
                assert (whole if type(whole) is list else [whole] * size) == alone


def _factor_bits(factor, j):
    def at(x):
        return x.tolist()[j] if isinstance(x, np.ndarray) else x

    return ([[_bits(at(e)) for e in row] for row in factor.inverse], _bits(at(factor.det)),
            tuple(at(s) for s in factor.inertia))


def _factor_result(rows, j=None):
    """The factorization of ``rows`` (element j of a batch) as bits, or the
    error it raises."""
    try:
        factor = metric_engine.checked_inverse(rows)
    except DegeneracyError as exc:
        return str(exc)
    return _factor_bits(factor, 0 if j is None else j)


def _assert_batch_is_each_element(rows):
    size = next(len(e) for r in rows for e in r if isinstance(e, np.ndarray))
    alone = [_factor_result([[e.tolist()[j] if isinstance(e, np.ndarray) else e for e in r]
                             for r in rows]) for j in range(size)]
    errors = [r for r in alone if type(r) is str]
    with np.errstate(all="ignore"):  # as around the crosscheck's evaluation
        if errors:
            with pytest.raises(DegeneracyError) as raised:
                metric_engine.checked_inverse(rows)
            assert str(raised.value) == errors[0]
            return
        factor = metric_engine.checked_inverse(rows)
    assert [_factor_bits(factor, j) for j in range(size)] == alone


# Matrix entries: exact zeros, ties in magnitude, and ordinary values.
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]), st.floats(-3.0, 3.0))


@st.composite
def _symmetric_batch(draw):
    """A symmetric matrix of dimension 1-3 whose entries are arrays over a
    batch of 2-6 or floats shared by it."""
    dim, size = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            shared = draw(st.booleans()) and draw(st.booleans())
            entry = draw(_ENTRY) if shared else draw(_arrays(_ENTRY, size))
            rows[i][j] = rows[j][i] = entry
    if all(not isinstance(e, np.ndarray) for r in rows for e in r):
        rows[0][0] = draw(_arrays(_ENTRY, size))
    return rows


@st.composite
def _repeating_batch(draw):
    """A batch of 40-300 symmetric matrices of dimension 1-3, each one of
    1-4 matrices; each of these differs from the one before it in one
    entry, which is negated (a zero changes sign) or set to 0.0, -0.0 or
    NaN.  Every entry is an array over the batch."""
    dim, count = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            m[i][j] = m[j][i] = draw(_ENTRY)
    distinct = [m]
    for _ in range(count - 1):
        m = [list(row) for row in m]
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        change = draw(st.sampled_from([None, 0.0, -0.0, math.nan]))  # None negates
        m[i][j] = m[j][i] = -m[i][j] if change is None else change
        distinct.append(m)
    rng = draw(st.randoms(use_true_random=False))
    picks = [rng.randrange(count) for _ in range(draw(st.integers(40, 300)))]
    return [[np.array([distinct[c][i][j] for c in picks]) for j in range(dim)]
            for i in range(dim)]


class TestBatchedFactorization:
    @settings(max_examples=500, deadline=None)
    @given(rows=_symmetric_batch())
    def test_each_element_is_its_own_factorization(self, rows):
        _assert_batch_is_each_element(rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=_repeating_batch())
    def test_a_large_batch_of_few_matrices(self, rows):
        _assert_batch_is_each_element(rows)

    def test_a_batch_straddling_the_pivot_choice(self):
        # |a00| < alpha |a10| takes a 2x2 pivot in the first two elements
        # and the 1x1 pivot in the others
        a00 = np.array([0.1, 0.3, 0.9, 1.5])
        rows = [[a00, 1.0, 0.2], [1.0, 0.2, 0.3], [0.2, 0.3, 2.0]]
        assert [abs(a) < metric_engine._BK_ALPHA * 1.0 for a in a00.tolist()] == [
            True, True, False, False]
        _assert_batch_is_each_element(rows)

    def test_a_degenerate_element_raises_as_alone(self):
        # elements 1 and 3 are singular, with different determinants; the
        # error is element 1's
        a11 = np.array([2.0, 0.25, 3.0, 0.25 + 1e-13])
        rows = [[1.0, 0.5], [0.5, a11]]
        with pytest.raises(DegeneracyError) as raised:
            metric_engine.checked_inverse(rows)
        assert str(raised.value) == _factor_result([[1.0, 0.5], [0.5, 0.25]])
        _assert_batch_is_each_element(rows)

    def test_one_factorization_per_distinct_matrix(self, monkeypatch):
        # 7 elements repeat 4 distinct matrices: the batch's call and one
        # scalar factorization per distinct matrix, in the order of its
        # first element
        calls, factor = [], metric_engine.checked_inverse

        def counted(rows):
            calls.append(rows)
            return factor(rows)

        monkeypatch.setattr(metric_engine, "checked_inverse", counted)
        t = np.array([0.1, -0.3, 0.1, 0.7, -0.3, 0.2, 0.7])
        rows = [[1.0 + t * t, 0.5 * t, 0.0], [0.5 * t, 2.0 + t, 0.0], [0.0, 0.0, 3.0]]
        out = metric_engine.checked_inverse(rows)
        assert len(calls) == 1 + 4
        assert [r[0][1] for r in calls[1:]] == [0.5 * s for s in (0.1, -0.3, 0.7, 0.2)]
        assert all(type(e) is float for r in calls[1:] for row in r for e in row)
        # structural zeros stay floats
        assert [type(e) for e in out.inverse[2]] == [float, float, float]
        assert out.inertia == (3, 0)
        _assert_batch_is_each_element(rows)

    def test_a_crosscheck_factorizes_h_once_per_distinct_t(self, monkeypatch):
        # the p = 2 stencil's points hold 1 + 2p(p + 1) = 13 distinct t
        # rows: the centre, each t^a moved by +-h1 and by +-h2, and the 4
        # corners of (t^1, t^2) at +-h2; h(t) on them is one batch,
        # factorized once per row
        inst = corpus_instance("non_autonomous", 2, 3, count=4)
        pt = sample_points(inst.dims, inst.sampling["box"], 1, seed=inst.seed)[0]
        calls, factor = {"batch": 0, "plain": []}, metric_engine.checked_inverse

        def counted(rows):
            if any(isinstance(e, np.ndarray) for r in rows for e in r):
                calls["batch"] += 1
            elif all(type(e) is float for r in rows for e in r):
                calls["plain"].append(rows)
            return factor(rows)

        monkeypatch.setattr(metric_engine, "checked_inverse", counted)
        assert fd_crosscheck(inst.L, pt, inst.dims, inst.tolerances["crosscheck"]).passed
        plain = [tuple(_bits(e) for r in rows for e in r) for rows in calls["plain"]]
        assert calls["batch"] == 1
        assert len(plain) == len(set(plain)) == 1 + 2 * 2 * 3

    def test_an_entry_zero_in_some_elements_only(self, monkeypatch):
        # 0.0 and -0.0 key two distinct matrices, so each of the 4 elements
        # is factorized on its own
        calls, factor = [], metric_engine.checked_inverse

        def counted(rows):
            calls.append(rows)
            return factor(rows)

        monkeypatch.setattr(metric_engine, "checked_inverse", counted)
        t = np.array([-0.3, 0.0, 0.2, -0.0])
        rows = [[1.0 + t * t, 0.5 * t], [0.5 * t, 2.0 - t]]
        metric_engine.checked_inverse(rows)
        assert len(calls) == 1 + len(t)
        _assert_batch_is_each_element(rows)
