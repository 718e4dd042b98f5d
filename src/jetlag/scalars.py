"""Forward-mode derivative scalars and the generic math they plug into.

Two scalar kinds, both vector forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 3):

* ``Dual`` carries (value, one sensitivity per seeded direction): one
  evaluation gives every first partial, each bitwise that of a one-direction
  dual number.  Lifts wrap every coordinate so nested Dual layers stay
  unambiguous.
* ``Taylor2`` carries (value, gradient, Hessian entries) over k seeded
  coordinates: one evaluation gives all first partials along them and the
  second partials of the pairs it is asked for (by default all of them).
  Its two-seed case is the hyper-dual number (Fike & Alonso, AIAA
  2011-886).  It is only ever applied directly to raw scalar fields, so when
  a Taylor2 meets a Dual the Dual is an older layer, treated as a constant.

A Taylor2 stores only its support (the sparse forward mode of Griewank &
Walther, ch. 7, carried down to single pairs): the seeds its gradient
depends on and the evaluation's pairs its Hessian can be nonzero on, named
by an interned ``Layout``.  A seeded leaf carries no pair; ``+`` and ``-``
carry the union of their operands' pairs; ``*`` adds the pairs with one
seed in each operand; reciprocal and chain, whose g_i g_j term reaches
them all, carry every pair among their seeds; scale and neg keep their
operand's.  A product of two velocities in the spray's evaluation carries
its 2 gradient entries and the one Hessian entry between them instead of
all k and every pair.  A binary op reads its operands through an index
``_Plan`` cached on their layouts.  Each entry sums, in the dense formula's
order, only the terms whose operand entries exist; every term dropped is
an exact zero addend, so every entry a dense scalar would compute nonzero
comes out bitwise the same.  Only a zero can differ, in sign, and a NaN
that a dense 0·inf term would give does not appear.

Each op runs a kernel, generated straight-line code that spells its
formula entry by entry at the positions of its plan or layout instead of
looping over index tuples (source transformation in place of operator
overloading, Griewank & Walther, ch. 6).  A kernel is compiled the first
time its op runs on a plan or layout, never at import, and one function is
kept per distinct source, so supports of one relative pattern share it.

All arithmetic is generic over the component kind, which is what makes
nesting (derivatives of quantities that are themselves assembled from
derivatives) work without any symbolic machinery.

The value of every result is the plain evaluation's value, bitwise: a
quotient's value is ``a.re / b.re``, the one division a plain (or, nested,
the older layer's) evaluation makes, while its derivative entries go
through 1/b.  So a caller holding a lifted evaluation reads the plain
values from it (``calculus.field_jacobian`` returns both).

A float64 ``ndarray`` is a plain leaf beside floats: a field evaluated on a
point whose coordinates are arrays evaluates every element at once, each
bitwise its float evaluation (Griewank & Walther, ch. 6: one program over
many points).  ``+ - * /`` are IEEE on both; the ``g_*`` functions apply
``math`` to each element, since numpy's own exp, log, tan, sinh and cosh
differ from ``math`` in the last bit on some inputs; the domain and zero
tests raise, with the float path's message, when any element fails them.
Arrays are never lifted, and an array leaf has no one plain value:
``scalar_value`` refuses it with TypeError, which is how
``metric_engine.checked_inverse`` tells a batch; it factorizes each
distinct matrix of the batch on plain values.

``nan_max`` lives here, below every module that reduces a defect to its
worst value, so that the cross-check, the zero audit and ``verify`` keep a
NaN instead of reading it as no defect.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import EvalDomainError

_NUM = (int, float)
_ARRAY = np.ndarray


def scalar_value(s) -> float:
    """Innermost plain value of a possibly nested derivative scalar (a
    TypeError for an array leaf)."""
    while True:
        t = type(s)
        if t is Dual or t is Taylor2:
            s = s.re
        else:
            return float(s)


def nan_max(first, *rest):
    """``max`` of the arguments that keeps a NaN: max(0.0, nan) is 0.0, so
    a NaN defect would pass a check as no defect."""
    worst = first
    for x in rest:
        if x > worst or x != x:
            worst = x
    return worst


def _is_zero(s) -> bool:
    t = type(s)
    if t is Dual:
        return _is_zero(s.re) and all(_is_zero(e) for e in s.du)
    if t is Taylor2:
        return _is_zero(s.re) and _no_seed(s)
    return s == 0.0


def _no_seed(s) -> bool:
    return all(_is_zero(e) for e in s.g) and all(_is_zero(e) for e in s.h)


def is_seedless(s) -> bool:
    """True when s carries no derivative information at any layer."""
    t = type(s)
    if t is Dual:
        return all(_is_zero(e) for e in s.du) and is_seedless(s.re)
    if t is Taylor2:
        return _no_seed(s) and is_seedless(s.re)
    return True


class Dual:
    """a + sum_s du[s] eps_s with eps_s eps_r = 0; entry s of a result reads
    only entry s of the operands.  ``du`` is shared, never mutated."""

    __slots__ = ("re", "du")

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, o):
        if type(o) is Dual:
            return Dual(self.re + o.re, [x + y for x, y in zip(self.du, o.du)])
        if isinstance(o, _NUM):
            return Dual(self.re + o, self.du)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Dual:
            return Dual(self.re - o.re, [x - y for x, y in zip(self.du, o.du)])
        if isinstance(o, _NUM):
            return Dual(self.re - o, self.du)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM):
            return Dual(o - self.re, [-x for x in self.du])
        return NotImplemented

    def __mul__(self, o):
        if type(o) is Dual:
            a, b = self.re, o.re
            return Dual(a * b, [a * y + x * b for x, y in zip(self.du, o.du)])
        if isinstance(o, _NUM):
            return Dual(self.re * o, [x * o for x in self.du])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Dual:
            a, b = self.re, o.re
            if scalar_value(b) == 0.0:
                raise ZeroDivisionError("dual division by zero")
            inv = 1.0 / b if isinstance(b, _NUM) else reciprocal(b)
            return Dual(a / b, [(x * b - a * y) * inv * inv for x, y in zip(self.du, o.du)])
        if isinstance(o, _NUM):
            if o == 0.0:
                raise ZeroDivisionError("dual division by zero")
            return Dual(self.re / o, [x / o for x in self.du])
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM):
            if scalar_value(self.re) == 0.0:
                raise ZeroDivisionError("dual division by zero")
            inv = 1.0 / self.re if isinstance(self.re, _NUM) else reciprocal(self.re)
            return Dual(o / self.re, [-o * x * inv * inv for x in self.du])
        return NotImplemented

    def __neg__(self):
        return Dual(-self.re, [-x for x in self.du])

    def __pow__(self, o):
        return g_pow(self, o)

    def __rpow__(self, o):
        return g_pow(o, self)


class Layout:
    """Where the entries of a Taylor2 sit in its evaluation.

    ``pairs`` is the evaluation's ``(rows, cols)``; ``seeds`` the sorted
    seed indices the gradient can be nonzero on, aligned with ``g``;
    ``kept`` the sorted indices into ``pairs`` of the pairs (both seeds in
    ``seeds``) the Hessian can be nonzero on, aligned with ``h``.  Layouts
    are interned by ``layout``, so one (pairs, seeds, kept) is one object,
    and each caches in ``plans`` its plan with every layout it has met as
    left operand.  Both live for the process; their number is bounded by
    the supports the fields produce, not by the number of evaluations.  A
    unary op runs the kernel that ``kernel`` compiles on its first use and
    keeps under its ``_UNARY`` name; compiling reciprocal or chain sets
    ``full``, the layout of every pair among the seeds, which they give.
    The seedless layout of an evaluation holds the ``leaf_layouts`` of its
    lifts in ``leaves``.
    """

    __slots__ = ("pairs", "seeds", "kept", "plans", "leaves", "full", "scale", "neg",
                 "reciprocal", "chain")

    def __init__(self, pairs, seeds, kept):
        self.pairs, self.seeds, self.kept = pairs, seeds, kept
        self.plans = {}
        self.leaves = {}
        self.full = self.scale = self.neg = self.reciprocal = self.chain = None

    def __repr__(self):
        return f"Layout({self.seeds!r}, {self.kept!r})"

    def kernel(self, op):
        args, eg, eh = _UNARY[op]
        out, s = self, set(self.seeds)
        if op in ("reciprocal", "chain"):  # their g_i g_j term reaches every pair
            out = self.full = layout(self.pairs, self.seeds,
                                     _pairs_where(self.pairs, lambda i, j: i in s and j in s))
        rows, cols = self.pairs
        g, h = _positions(self.seeds), _positions(self.kept)
        return _kernel(self, op, args, [_sum(eg, q=q) for q in range(len(self.seeds))],
                       [_sum(eh, p=h.get(m), i=g[rows[m]], j=g[cols[m]]) for m in out.kept])


_LAYOUTS = {}


def layout(pairs, seeds, kept) -> Layout:
    """The one Layout of the sorted seed indices ``seeds`` and pair
    indices ``kept`` in an evaluation carrying ``pairs``."""
    key = (pairs, seeds, kept)
    lay = _LAYOUTS.get(key)
    if lay is None:
        lay = _LAYOUTS[key] = Layout(pairs, seeds, kept)
    return lay


def _positions(entries) -> dict:
    return {e: q for q, e in enumerate(entries)}


def _pairs_where(pairs, test) -> tuple:
    return tuple(m for m, (i, j) in enumerate(zip(*pairs)) if test(i, j))


# Entry formulas of each op as the terms of a sum in the dense formula's
# order, a term starting with "-" subtracted: the g entry at position q and
# the h entry (operand h at position p, seeds at g positions i, j) of a
# unary op's result, with its kernel's arguments; a binary op reads the
# operand positions p, q of the same entry, and its product g_a[i] g_b[j]
# and g_a[j2] g_b[i2].  An entry keeps the terms whose positions exist.
_UNARY = {
    "scale": ("g, h, o", ("g[{q}] * o",), ("h[{p}] * o",)),
    "neg": ("g, h", ("-g[{q}]",), ("-h[{p}]",)),
    "reciprocal": ("g, h, inv, inv2", ("-g[{q}] * inv2",),
                   ("-h[{p}] * inv2", "2.0 * g[{i}] * g[{j}] * inv2 * inv")),
    "chain": ("g, h, d, dd", ("d * g[{q}]",), ("d * h[{p}]", "dd * g[{i}] * g[{j}]")),
}
_BINARY = {
    "plus": (("ga[{p}]", "gb[{q}]"), ("ha[{p}]", "hb[{q}]")),
    "minus": (("ga[{p}]", "-gb[{q}]"), ("ha[{p}]", "-hb[{q}]")),
    "times": (("a * gb[{q}]", "ga[{p}] * b"),
              ("a * hb[{q}]", "ga[{i}] * gb[{j}]", "ga[{j2}] * gb[{i2}]", "ha[{p}] * b")),
}
_KERNELS = {}
_FIELD = re.compile(r"\{(\w+)\}")


def _sum(terms, **at) -> str:
    """Source of the sum of the ``terms`` whose positions ``at`` all gives
    (None where an operand does not carry the entry)."""
    kept = [t.format(**at) for t in terms if None not in map(at.get, _FIELD.findall(t))]
    return " + ".join(kept).replace(" + -", " - ")


def _kernel(owner, op, args, g, h):
    """Keep on ``owner`` as ``op`` and return the kernel ``lambda args:
    (g, h)`` whose list displays hold the entry expressions ``g`` and ``h``;
    one function per distinct source."""
    source = f"lambda {args}: ([{', '.join(g)}], [{', '.join(h)}])"
    fn = _KERNELS.get(source)
    if fn is None:
        fn = _KERNELS[source] = eval(source)  # noqa: S307 - source is generated from index tuples
    setattr(owner, op, fn)
    return fn


class _Plan:
    """Index plan of a binary op between Taylor2s of layouts a and b: the
    layout ``sum`` of ``+`` and ``-``, the union of their seeds and pairs,
    and the layout ``product`` of ``*``, which adds the pairs with one seed
    in each operand.  An op runs the kernel ``(a, b, ga, gb, ha, hb) ->
    (g, h)`` that ``kernel`` compiles on its first use and keeps under its
    ``_BINARY`` name.
    """

    __slots__ = ("a", "b", "sum", "product", "plus", "minus", "times")

    def __init__(self, a, b):
        seeds = tuple(sorted({*a.seeds, *b.seeds}))
        kept = {*a.kept, *b.kept}
        sa, sb = set(a.seeds), set(b.seeds)
        cross = _pairs_where(a.pairs, lambda i, j: i in sa and j in sb or j in sa and i in sb)
        self.a, self.b = a, b
        self.sum = layout(a.pairs, seeds, tuple(sorted(kept)))
        self.product = layout(a.pairs, seeds, tuple(sorted(kept.union(cross))))
        self.plus = self.minus = self.times = None

    def kernel(self, op):
        a, b = self.a, self.b
        rows, cols = a.pairs
        ga, gb, ha, hb = map(_positions, (a.seeds, b.seeds, a.kept, b.kept))
        eg, eh = _BINARY[op]
        out = self.product if op == "times" else self.sum
        return _kernel(self, op, "a, b, ga, gb, ha, hb",
                       [_sum(eg, p=ga.get(s), q=gb.get(s)) for s in out.seeds],
                       [_sum(eh, p=ha.get(m), q=hb.get(m), i=ga.get(rows[m]), j=gb.get(cols[m]),
                             j2=ga.get(cols[m]), i2=gb.get(rows[m])) for m in out.kept])


def _plan(a: Layout, b: Layout) -> _Plan:
    """Make the plan of a op b and cache it on a."""
    plan = a.plans[b] = _Plan(a, b)
    return plan


class Taylor2:
    """Value, gradient and chosen Hessian entries of a quantity over k
    seeded coordinates: v + g_i e_i + sum h_ij e_i e_j over the kept pairs
    (i, j), with every product of three e's zero (and e_i^2 kept, so h_ii
    is a second partial).

    Each scalar carries only its support, the entries that can be nonzero:
    ``layout`` (a ``Layout``) names the seeds its gradient depends on and
    the evaluation's pairs its Hessian can be nonzero on, and ``g`` and
    ``h`` hold exactly those entries in that order.  The evaluation's
    ``(rows, cols)`` is ``layout.pairs``; ``hessian_pairs(k)`` is the full
    upper triangle.  A binary op computes each entry of its result's
    support (the module docstring gives the rules) from the terms of the
    dense formula whose operand entries exist, through the kernel of the
    plan cached on the operands' layouts; a unary op runs a kernel of its
    operand's layout.  The lists are shared between scalars and never
    mutated.  Entry (i, j) reads only entry (i, j) and gradient entries i
    and j of the operands, and goes through the operations of a hyper-dual
    number seeded with e1 on coordinate i and e2 on coordinate j less its
    exact zero terms, so one evaluation reproduces every two-direction pair
    it keeps, up to the sign of a zero.
    """

    __slots__ = ("re", "g", "h", "layout")

    def __init__(self, re, g, h, layout):
        self.re = re
        self.g = g
        self.h = h
        self.layout = layout

    def __repr__(self):
        return f"Taylor2({self.re!r}, {self.g!r}, {self.h!r}, {self.layout!r})"

    def __add__(self, o):
        if type(o) is Taylor2:
            plan = self.layout.plans.get(o.layout) or _plan(self.layout, o.layout)
            g, h = (plan.plus or plan.kernel("plus"))(self.re, o.re, self.g, o.g, self.h, o.h)
            return Taylor2(self.re + o.re, g, h, plan.sum)
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(self.re + o, self.g, self.h, self.layout)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Taylor2:
            plan = self.layout.plans.get(o.layout) or _plan(self.layout, o.layout)
            g, h = (plan.minus or plan.kernel("minus"))(self.re, o.re, self.g, o.g, self.h, o.h)
            return Taylor2(self.re - o.re, g, h, plan.sum)
        if isinstance(o, _NUM) or type(o) is Dual:
            return Taylor2(self.re - o, self.g, self.h, self.layout)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            return (-self) + o
        return NotImplemented

    def __mul__(self, o):
        if type(o) is Taylor2:
            a, b = self.re, o.re
            plan = self.layout.plans.get(o.layout) or _plan(self.layout, o.layout)
            g, h = (plan.times or plan.kernel("times"))(a, b, self.g, o.g, self.h, o.h)
            return Taylor2(a * b, g, h, plan.product)
        if isinstance(o, _NUM) or type(o) is Dual:
            lay = self.layout
            g, h = (lay.scale or lay.kernel("scale"))(self.g, self.h, o)
            return Taylor2(self.re * o, g, h, lay)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.re
        if scalar_value(v) == 0.0:
            raise ZeroDivisionError("taylor division by zero")
        inv = 1.0 / v if isinstance(v, _NUM) else reciprocal(v)
        lay = self.layout
        g, h = (lay.reciprocal or lay.kernel("reciprocal"))(self.g, self.h, inv, inv * inv)
        return Taylor2(inv, g, h, lay.full)

    def __truediv__(self, o):
        if type(o) is Taylor2:
            r = self * o._reciprocal()
            return Taylor2(self.re / o.re, r.g, r.h, r.layout)
        if isinstance(o, _NUM) or type(o) is Dual:
            if scalar_value(o) == 0.0:
                raise ZeroDivisionError("taylor division by zero")
            r = self * (1.0 / o if isinstance(o, _NUM) else reciprocal(o))
            return Taylor2(self.re / o, r.g, r.h, r.layout)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM) or type(o) is Dual:
            r = self._reciprocal() * o
            return Taylor2(o / self.re, r.g, r.h, r.layout)
        return NotImplemented

    def __neg__(self):
        lay = self.layout
        g, h = (lay.neg or lay.kernel("neg"))(self.g, self.h)
        return Taylor2(-self.re, g, h, lay)

    def __pow__(self, o):
        return g_pow(self, o)

    def __rpow__(self, o):
        return g_pow(o, self)


def seeded(value, lay: Layout) -> Taylor2:
    """``value`` seeded with 1 in each seed of ``lay``, a layout with no
    pair: the second partials of a seeded leaf are zero."""
    return Taylor2(value, [1.0] * len(lay.seeds), [], lay)


def leaf_layouts(pairs, labels) -> dict:
    """The pairless layout of each distinct label of ``labels`` in an
    evaluation carrying ``pairs``, seeded at every position the label
    holds: ``{label: Layout}``.  The seedless layout of ``pairs`` keeps
    it in ``leaves`` under ``labels``, so a lift over the same labels and
    pairs looks its pairs up once, not once per leaf."""
    table = layout(pairs, (), ()).leaves
    out = table.get(labels)
    if out is None:
        slots = {}
        for s, c in enumerate(labels):
            slots.setdefault(c, []).append(s)
        out = table[labels] = {c: layout(pairs, tuple(ss), ()) for c, ss in slots.items()}
    return out


@functools.cache
def hessian_pairs(k: int):
    """Row and column seed indices of the full upper triangle of a Hessian
    over k seeds, row-major over i <= j: the default pairs of a Taylor2."""
    rows = tuple(i for i in range(k) for _ in range(i, k))
    cols = tuple(j for i in range(k) for j in range(i, k))
    return rows, cols


def pair_positions(pairs) -> dict:
    """``{(i, j): m}`` for each pair m = (i, j) of ``pairs``, in both
    orders: where an evaluation carrying ``pairs`` keeps each entry."""
    at = {}
    for m, (i, j) in enumerate(zip(*pairs)):
        at[i, j] = at[j, i] = m
    return at


def reciprocal(s):
    """1/s for a nested derivative scalar."""
    return 1.0 / s if isinstance(s, _NUM) else s.__rtruediv__(1.0)


_LIFTED = (Dual, Taylor2)


def _chain(x, f, df, d2f):
    """Apply f, with first and second derivatives df and d2f, through a
    Dual or Taylor2 x (a Dual reads only df)."""
    v = x.re
    if type(x) is Dual:
        d = df(v)
        return Dual(f(v), [d * e for e in x.du])
    lay = x.layout
    g, h = (lay.chain or lay.kernel("chain"))(x.g, x.h, df(v), d2f(v))
    return Taylor2(f(v), g, h, lay.full)


def _plain(x):
    """The plain value a domain test reads: an array leaf's own elements,
    else ``scalar_value``."""
    return x if type(x) is _ARRAY else scalar_value(x)


def _domain(ok, message):
    """Raise EvalDomainError(message) unless ``ok``, a test of a plain
    value or the elementwise test of an array leaf, holds everywhere."""
    if ok is not True and not (type(ok) is _ARRAY and ok.all()):
        raise EvalDomainError(message)


def _each(fn, x):
    """``fn`` from ``math`` applied to each element of the array leaf x,
    so that each is bitwise its float evaluation (numpy's own functions
    are not) and an element ``math`` refuses raises its error."""
    return np.array([fn(e) for e in x.tolist()])


def g_sin(x):
    if type(x) in _LIFTED:
        return _chain(x, g_sin, g_cos, lambda v: -g_sin(v))
    return _each(math.sin, x) if type(x) is _ARRAY else math.sin(x)


def g_cos(x):
    if type(x) in _LIFTED:
        return _chain(x, g_cos, lambda v: -g_sin(v), lambda v: -g_cos(v))
    return _each(math.cos, x) if type(x) is _ARRAY else math.cos(x)


def g_tan(x):
    if type(x) in _LIFTED:
        def dtan(v):
            tv = g_tan(v)
            return 1.0 + tv * tv

        return _chain(x, g_tan, dtan, lambda v: 2.0 * g_tan(v) * dtan(v))
    return _each(math.tan, x) if type(x) is _ARRAY else math.tan(x)


def g_exp(x):
    if type(x) in _LIFTED:
        return _chain(x, g_exp, g_exp, g_exp)
    return _each(math.exp, x) if type(x) is _ARRAY else math.exp(x)


def g_log(x):
    _domain(_plain(x) > 0.0, "log of a non-positive value")
    if type(x) in _LIFTED:
        return _chain(x, g_log, reciprocal, lambda v: -reciprocal(v * v))
    return _each(math.log, x) if type(x) is _ARRAY else math.log(x)


def g_sqrt(x):
    value = _plain(x)
    _domain(value >= 0.0, "sqrt of a negative value")
    if type(x) in _LIFTED:
        # Differentiating through sqrt needs a strictly interior point.
        _domain(value != 0.0, "sqrt differentiated at zero")
        return _chain(
            x,
            g_sqrt,
            lambda v: 0.5 * reciprocal(g_sqrt(v)),
            lambda v: -0.25 * reciprocal(g_sqrt(v) * v),
        )
    return _each(math.sqrt, x) if type(x) is _ARRAY else math.sqrt(x)


def g_sinh(x):
    if type(x) in _LIFTED:
        return _chain(x, g_sinh, g_cosh, g_sinh)
    return _each(math.sinh, x) if type(x) is _ARRAY else math.sinh(x)


def g_cosh(x):
    if type(x) in _LIFTED:
        return _chain(x, g_cosh, g_sinh, g_cosh)
    return _each(math.cosh, x) if type(x) is _ARRAY else math.cosh(x)


def g_abs(x):
    if type(x) in _LIFTED:
        v = scalar_value(x)
        _domain(v != 0.0, "abs differentiated at zero")
        return x if v > 0.0 else -x
    return abs(x)


def g_div(a, b):
    _domain(_plain(b) != 0.0, "division by zero")
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
        _domain(_plain(acc) != 0.0, "zero raised to a negative power")
        return reciprocal(acc)
    return acc


def g_pow(u, w):
    """General power.  Integer seedless exponents work for any base; other
    exponents go through exp(w*log(u)) and need a positive base.  A Dual
    exponent is seedless only when it is so along all its directions.  An
    array exponent takes the branch of each element, one element at a
    time."""
    if type(w) is _ARRAY:
        us = u.tolist() if type(u) is _ARRAY else [u] * len(w)
        return np.array([g_pow(a, b) for a, b in zip(us, w.tolist())])
    if is_seedless(w):
        wv = scalar_value(w)
        if wv.is_integer() and abs(wv) <= 1e6:
            return g_ipow(u, int(wv))
    v = _plain(u)
    # not v <= 0, elementwise: a NaN base goes on to fail in log
    _domain((v > 0.0) | (v != v), "non-integer power of a non-positive base")
    return g_exp(w * g_log(u))
