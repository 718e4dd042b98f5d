"""Forward-mode derivative scalars and the generic math they plug into.

Two scalar kinds:

* ``Dual`` carries (value, one directional sensitivity).  Used for first
  derivatives; lifts wrap every coordinate of a point so nested Dual layers
  stay unambiguous.
* ``Taylor2`` carries (value, gradient, Hessian entries) over k seeded
  coordinates, so one evaluation of a field gives all of its first partials
  along them and the second partials of the pairs it is asked for (by
  default all of them): vector forward mode (Griewank & Walther, *Evaluating
  Derivatives*, 2nd ed., SIAM 2008).  Its two-seed case is the hyper-dual
  number (Fike & Alonso, AIAA 2011-886).  It is only ever applied directly to
  raw scalar fields, so when a Taylor2 meets a Dual the Dual is always an
  older layer and is treated as a constant.

All arithmetic is generic over the component kind, which is what makes
nesting (derivatives of quantities that are themselves assembled from
derivatives) work without any symbolic machinery.
"""

from __future__ import annotations

import functools
import math

from .errors import EvalDomainError

_NUM = (int, float)


def scalar_value(s) -> float:
    """Innermost plain value of a possibly nested derivative scalar."""
    while True:
        t = type(s)
        if t is Dual or t is Taylor2:
            s = s.re
        else:
            return float(s)


def _is_zero(s) -> bool:
    t = type(s)
    if t is Dual:
        return _is_zero(s.re) and _is_zero(s.du)
    if t is Taylor2:
        return _is_zero(s.re) and _no_seed(s)
    return s == 0.0


def _no_seed(s) -> bool:
    return all(_is_zero(e) for e in s.g) and all(_is_zero(e) for e in s.h)


def is_seedless(s) -> bool:
    """True when s carries no derivative information at any layer."""
    t = type(s)
    if t is Dual:
        return _is_zero(s.du) and is_seedless(s.re)
    if t is Taylor2:
        return _no_seed(s) and is_seedless(s.re)
    return True


class Dual:
    """a + b*eps with eps^2 = 0."""

    __slots__ = ("re", "du")

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, o):
        if type(o) is Dual:
            return Dual(self.re + o.re, self.du + o.du)
        if isinstance(o, _NUM):
            return Dual(self.re + o, self.du)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Dual:
            return Dual(self.re - o.re, self.du - o.du)
        if isinstance(o, _NUM):
            return Dual(self.re - o, self.du)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM):
            return Dual(o - self.re, -self.du)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is Dual:
            return Dual(self.re * o.re, self.re * o.du + self.du * o.re)
        if isinstance(o, _NUM):
            return Dual(self.re * o, self.du * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Dual:
            if scalar_value(o.re) == 0.0:
                raise ZeroDivisionError("dual division by zero")
            inv = 1.0 / o.re if isinstance(o.re, _NUM) else _reciprocal(o.re)
            return Dual(self.re * inv, (self.du * o.re - self.re * o.du) * inv * inv)
        if isinstance(o, _NUM):
            if o == 0.0:
                raise ZeroDivisionError("dual division by zero")
            return Dual(self.re / o, self.du / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM):
            if scalar_value(self.re) == 0.0:
                raise ZeroDivisionError("dual division by zero")
            inv = 1.0 / self.re if isinstance(self.re, _NUM) else _reciprocal(self.re)
            return Dual(o * inv, -o * self.du * inv * inv)
        return NotImplemented

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pow__(self, o):
        return g_pow(self, o)

    def __rpow__(self, o):
        return g_pow(o, self)


class Taylor2:
    """Value, gradient and chosen Hessian entries of a quantity over k
    seeded coordinates: v + g_i e_i + sum h_ij e_i e_j over the kept pairs
    (i, j), with every product of three e's zero (and e_i^2 kept, so h_ii
    is a second partial).

    ``g`` is a list of k entries.  ``pairs`` is a ``(rows, cols)`` tuple of
    seed indices, shared by every scalar of one evaluation, and ``h`` holds
    one entry per pair, aligned with it; ``hessian_pairs(k)`` is the full
    upper triangle.  The lists are shared between scalars and never
    mutated.  Entry (i, j) reads only entry (i, j) and gradient entries i
    and j of the operands, and goes through exactly the operations of a
    hyper-dual number seeded with e1 on coordinate i and e2 on coordinate
    j, so one evaluation reproduces every two-direction pair it keeps.
    """

    __slots__ = ("re", "g", "h", "pairs")

    def __init__(self, re, g, h, pairs):
        self.re = re
        self.g = g
        self.h = h
        self.pairs = pairs

    def __repr__(self):
        return f"Taylor2({self.re!r}, {self.g!r}, {self.h!r}, {self.pairs!r})"

    def __add__(self, o):
        if type(o) is Taylor2:
            return Taylor2(self.re + o.re, [x + y for x, y in zip(self.g, o.g)],
                           [x + y for x, y in zip(self.h, o.h)], self.pairs)
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(self.re + o, self.g, self.h, self.pairs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Taylor2:
            return Taylor2(self.re - o.re, [x - y for x, y in zip(self.g, o.g)],
                           [x - y for x, y in zip(self.h, o.h)], self.pairs)
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(self.re - o, self.g, self.h, self.pairs)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(o - self.re, [-x for x in self.g], [-x for x in self.h],
                           self.pairs)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is Taylor2:
            a, b, ga, gb = self.re, o.re, self.g, o.g
            rows, cols = pairs = self.pairs
            return Taylor2(
                a * b,
                [a * y + x * b for x, y in zip(ga, gb)],
                [a * hb + ga[i] * gb[j] + ga[j] * gb[i] + ha * b
                 for i, j, ha, hb in zip(rows, cols, self.h, o.h)],
                pairs,
            )
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(self.re * o, [x * o for x in self.g], [x * o for x in self.h],
                           self.pairs)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.re
        if scalar_value(v) == 0.0:
            raise ZeroDivisionError("taylor division by zero")
        inv = 1.0 / v if isinstance(v, _NUM) else _reciprocal(v)
        inv2 = inv * inv
        g = self.g
        twice = [2.0 * x for x in g]
        rows, cols = pairs = self.pairs
        return Taylor2(
            inv,
            [-x * inv2 for x in g],
            [-hh * inv2 + twice[i] * g[j] * inv2 * inv
             for i, j, hh in zip(rows, cols, self.h)],
            pairs,
        )

    def __truediv__(self, o):
        if type(o) is Taylor2:
            return self * o._reciprocal()
        if isinstance(o, _NUM) or type(o) is Dual:
            if scalar_value(o) == 0.0:
                raise ZeroDivisionError("taylor division by zero")
            inv = 1.0 / o if isinstance(o, _NUM) else _reciprocal(o)
            return Taylor2(self.re * inv, [x * inv for x in self.g], [x * inv for x in self.h],
                           self.pairs)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            return self._reciprocal() * o
        return NotImplemented

    def __neg__(self):
        return Taylor2(-self.re, [-x for x in self.g], [-x for x in self.h], self.pairs)

    def __pow__(self, o):
        return g_pow(self, o)

    def __rpow__(self, o):
        return g_pow(o, self)


@functools.cache
def hessian_pairs(k: int):
    """Row and column seed indices of the full upper triangle of a Hessian
    over k seeds, row-major over i <= j: the default pairs of a Taylor2."""
    rows = tuple(i for i in range(k) for _ in range(i, k))
    cols = tuple(j for i in range(k) for j in range(i, k))
    return rows, cols


def _reciprocal(s):
    """1/s for a nested derivative scalar."""
    return 1.0 / s if isinstance(s, _NUM) else s.__rtruediv__(1.0)


_LIFTED = (Dual, Taylor2)


def _chain(x, f, df, d2f):
    """Apply f, with first and second derivatives df and d2f, through a
    Dual or Taylor2 x (a Dual reads only df)."""
    v = x.re
    if type(x) is Dual:
        return Dual(f(v), df(v) * x.du)
    d, dd = df(v), d2f(v)
    g = x.g
    scaled = [dd * e for e in g]
    rows, cols = pairs = x.pairs
    return Taylor2(
        f(v),
        [d * e for e in g],
        [d * hh + scaled[i] * g[j] for i, j, hh in zip(rows, cols, x.h)],
        pairs,
    )


def _domain(cond, message):
    if not cond:
        raise EvalDomainError(message)


def g_sin(x):
    if type(x) in _LIFTED:
        return _chain(x, g_sin, g_cos, lambda v: -g_sin(v))
    return math.sin(x)


def g_cos(x):
    if type(x) in _LIFTED:
        return _chain(x, g_cos, lambda v: -g_sin(v), lambda v: -g_cos(v))
    return math.cos(x)


def g_tan(x):
    if type(x) in _LIFTED:
        def dtan(v):
            tv = g_tan(v)
            return 1.0 + tv * tv

        return _chain(x, g_tan, dtan, lambda v: 2.0 * g_tan(v) * dtan(v))
    return math.tan(x)


def g_exp(x):
    if type(x) in _LIFTED:
        return _chain(x, g_exp, g_exp, g_exp)
    return math.exp(x)


def g_log(x):
    _domain(scalar_value(x) > 0.0, "log of a non-positive value")
    if type(x) in _LIFTED:
        return _chain(x, g_log, _reciprocal, lambda v: -_reciprocal(v * v))
    return math.log(x)


def g_sqrt(x):
    if type(x) in _LIFTED:
        # Differentiating through sqrt needs a strictly interior point.
        _domain(scalar_value(x) > 0.0, "sqrt differentiated at a non-positive value")
        return _chain(
            x,
            g_sqrt,
            lambda v: 0.5 * _reciprocal(g_sqrt(v)),
            lambda v: -0.25 * _reciprocal(g_sqrt(v) * v),
        )
    _domain(x >= 0.0, "sqrt of a negative value")
    return math.sqrt(x)


def g_sinh(x):
    if type(x) in _LIFTED:
        return _chain(x, g_sinh, g_cosh, g_sinh)
    return math.sinh(x)


def g_cosh(x):
    if type(x) in _LIFTED:
        return _chain(x, g_cosh, g_sinh, g_cosh)
    return math.cosh(x)


def g_abs(x):
    if type(x) in _LIFTED:
        v = scalar_value(x)
        _domain(v != 0.0, "abs differentiated at zero")
        return x if v > 0.0 else -x
    return abs(x)


def g_div(a, b):
    if scalar_value(b) == 0.0:
        raise EvalDomainError("division by zero")
    return a / b


def g_ipow(u, k: int):
    """u**k for integer k by square-and-multiply; supports negative bases."""
    if k == 0:
        return 1.0
    negative = k < 0
    k = -k if negative else k
    acc = None
    base = u
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    if negative:
        if scalar_value(acc) == 0.0:
            raise EvalDomainError("zero raised to a negative power")
        return _reciprocal(acc)
    return acc


def g_pow(u, w):
    """General power.  Integer seedless exponents work for any base; other
    exponents go through exp(w*log(u)) and need a positive base."""
    if is_seedless(w):
        wv = scalar_value(w)
        if wv.is_integer() and abs(wv) <= 1e6:
            return g_ipow(u, int(wv))
    if scalar_value(u) <= 0.0:
        raise EvalDomainError("non-integer power of a non-positive base")
    return g_exp(w * g_log(u))
