"""Forward-mode first/second derivatives and the FD cross-check."""

import math
import random
import struct
import warnings

import numpy as np
import pytest

from jetlag.calculus import (
    all_coords,
    fd_crosscheck,
    field_jacobian,
    lift_d1,
    t_coord,
    v_coord,
    x_coord,
)
from jetlag.config import assemble
from jetlag.errors import DegeneracyError, EvalDomainError
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField
from jetlag.jet_core import Dims, JetPoint
from jetlag.regularity import sample_points
from jetlag.scalars import Taylor2

from conftest import (
    CORPUS_DIMS,
    KINDS,
    corpus_config,
    d2,
    fd_d1,
    fd_d2,
    quartic_config,
    scalar_crosscheck,
    sphere_config,
    temporal_metric_of,
)
from oracles import failures


def jp(dims, **kw):
    t = kw.get("t", (0.0,) * dims.p)
    x = kw.get("x", (0.0,) * dims.n)
    v = kw.get("v", tuple((0.0,) * dims.p for _ in range(dims.n)))
    return JetPoint(t, x, v)


def d1(f, point, c):
    """The first partial of ``f`` along ``c``, from a Jacobian along c alone."""
    return field_jacobian(f, point, (c,))[1][c]


class TestD1:
    """First partials, from ``field_jacobian``."""

    def test_velocity_square(self):
        dims = Dims(1, 1)
        f = ExpressionField("v1_1^2", dims)
        point = jp(dims, v=((3.0,),))
        assert d1(f, point, v_coord(0, 0)) == 6.0

    def test_constant(self):
        dims = Dims(1, 1)
        f = ExpressionField("4.25", dims)
        assert d1(f, jp(dims), t_coord(0)) == 0.0
        assert d1(f, jp(dims), x_coord(0)) == 0.0

    def test_product_rule_vs_fd(self):
        dims = Dims(1, 1)
        f = ExpressionField("sin(t1)*x1", dims)
        point = JetPoint((1.0,), (2.0,), ((0.0,),))
        exact = d1(f, point, t_coord(0))
        assert exact == pytest.approx(2.0 * math.cos(1.0), abs=1e-14)
        assert exact == pytest.approx(fd_d1(f, point, t_coord(0), 1e-6), rel=1e-7)

    def test_coordinates_past_the_first(self):
        dims = Dims(2, 2)
        f = ExpressionField("v2_1 * t2", dims)
        point = jp(dims, t=(0.0, 3.0), v=((0.0, 0.0), (5.0, 0.0)))
        assert d1(f, point, v_coord(1, 0)) == 3.0
        assert d1(f, point, t_coord(1)) == 5.0

    def test_linearity_random(self):
        rng = random.Random(8)
        dims = Dims(1, 2)
        f = ExpressionField("sin(x1)*v1_1 + x2^2", dims)
        g = ExpressionField("cos(x2) + v2_1*v2_1", dims)

        def combo(pt):
            return f(pt) + g(pt)

        for _ in range(20):
            point = jp(dims,
                       x=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       v=((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            coords = (x_coord(0), x_coord(1), v_coord(0, 0), v_coord(1, 0))
            lhs = field_jacobian(combo, point, coords)[1]
            jf, jg = field_jacobian(f, point, coords)[1], field_jacobian(g, point, coords)[1]
            for c in coords:
                assert lhs[c] == pytest.approx(jf[c] + jg[c], abs=1e-14)

    def test_one_evaluation_gives_each_single_direction_partial_bitwise(self):
        dims = Dims(2, 2)
        f = ExpressionField("sin(x1)*v2_1/(1 + t2^2) + sqrt(2 + x2*v1_2) - exp(t1)*x1", dims)
        calls = []

        def counted(pt):
            calls.append(pt)
            return [f(pt), [f(pt) * pt.x[0], 2.0]]

        point = jp(dims, t=(0.3, -0.4), x=(0.7, 0.2), v=((0.5, 1.1), (-0.6, 0.9)))
        coords = all_coords(dims)
        value, jac = field_jacobian(counted, point, coords)
        assert len(calls) == 1
        assert repr(value) == repr(counted(point))
        for c in coords:
            assert repr(jac[c]) == repr(field_jacobian(counted, point, (c,))[1][c])
        assert jac[x_coord(0)][1][1] == 0.0

    def test_unseeded_coordinates_share_one_zero_row(self):
        dims = Dims(1, 2)
        q = lift_d1(jp(dims), (x_coord(1), t_coord(0)))
        assert q.t[0].du == [0.0, 1.0] and q.x[1].du == [1.0, 0.0]
        assert q.x[0].du == (0.0, 0.0) and q.x[0].du is q.v[1][0].du

    def test_a_bare_coordinate_is_rejected(self):
        # a Coord is a tuple: read as a sequence it would seed "x", 0 and 0
        dims = Dims(1, 1)
        f = ExpressionField("x1", dims)
        with pytest.raises(TypeError):
            lift_d1(jp(dims), x_coord(0))
        with pytest.raises(TypeError):
            field_jacobian(f, jp(dims), x_coord(0))


class TestD2:
    def test_bilinear_cross(self):
        dims = Dims(1, 2)
        f = ExpressionField("v1_1*v2_1", dims)
        assert d2(f, jp(dims), v_coord(0, 0), v_coord(1, 0)) == 1.0

    def test_pure_second(self):
        dims = Dims(1, 1)
        f = ExpressionField("t1^2 * x1", dims)
        point = JetPoint((0.3,), (4.0,), ((0.0,),))
        assert d2(f, point, t_coord(0), t_coord(0)) == pytest.approx(8.0)

    def test_exponential_mixed(self):
        dims = Dims(2, 1)
        f = ExpressionField("exp(v1_1*v1_2)", dims)
        point = jp(dims)
        exact = d2(f, point, v_coord(0, 0), v_coord(0, 1))
        assert exact == pytest.approx(1.0, abs=1e-14)
        assert exact == pytest.approx(
            fd_d2(f, point, v_coord(0, 0), v_coord(0, 1), 2e-4), abs=1e-6)

    def test_schwartz_symmetry_random_fields(self):
        rng = random.Random(77)
        dims = Dims(2, 2)
        f = ExpressionField("sin(t1*x1) * exp(0.3*v1_2) + cos(x2)*v2_1^2", dims)
        coords = [t_coord(0), t_coord(1), x_coord(0), x_coord(1),
                  v_coord(0, 1), v_coord(1, 0)]
        for _ in range(25):
            point = jp(dims,
                       t=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       x=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       v=tuple(tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(2)))
            a, b = rng.choice(coords), rng.choice(coords)
            one = d2(f, point, a, b)
            two = d2(f, point, b, a)
            scale = max(abs(one), abs(two), 1e-30)
            assert abs(one - two) / scale <= 1e-9


class TestCrosscheck:
    def test_random_cubic_polynomials(self):
        rng = random.Random(31)
        dims = Dims(1, 2)
        for _ in range(10):
            c = [round(rng.uniform(-2, 2), 3) for _ in range(6)]
            src = (f"{c[0]} + {c[1]}*t1 + {c[2]}*x1^2 + {c[3]}*x2^3"
                   f" + {c[4]}*v1_1*x1 + {c[5]}*v2_1^2*t1")
            f = ExpressionField(src, dims)
            point = jp(dims,
                       t=(rng.uniform(-1, 1),),
                       x=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       v=((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            rep = fd_crosscheck(f, point, dims, 1e-5)
            assert rep.passed
            # scale-floored discrepancy for near-zero derivatives
            for e in rep.entries:
                denom = max(abs(e.forward), abs(e.central), 1.0)
                assert abs(e.forward - e.central) / denom < 1e-7

    def test_constant_field_exact(self):
        dims = Dims(1, 1)
        f = ExpressionField("3.5", dims)
        rep = fd_crosscheck(f, jp(dims), dims, 1e-5)
        firsts = [e for e in rep.entries if e.order == 1]
        assert all(e.forward == 0.0 and e.central == 0.0 for e in firsts)

    def test_stiff_exponential(self):
        dims = Dims(1, 1)
        f = ExpressionField("exp(10*t1)", dims)
        point = JetPoint((1.0,), (0.0,), ((0.0,),))
        rep = fd_crosscheck(f, point, dims, 1e-5)
        assert rep.passed
        assert rep.max_rel_discrepancy < 1e-5

    def test_failure_reported_not_raised(self):
        # a kink 3e-6 from the point lies inside both stencils, so the
        # central differences disagree with the forward values (first
        # partial -1 against -0.5); the report flags it instead of raising
        dims = Dims(1, 1)
        f = ExpressionField("abs(t1 - 0.000003)", dims)
        point = JetPoint((0.0,), (0.0,), ((0.0,),))
        rep = fd_crosscheck(f, point, dims, 1e-5)
        assert not rep.passed
        first = next(e for e in failures(rep) if e.order == 1)
        assert (first.forward, first.central) == (-1.0, pytest.approx(-0.5))


def _report_bits(rep):
    def bits(x):
        return struct.pack("<d", x)

    return ([(e.coords, e.order, bits(e.forward), bits(e.central), bits(e.discrepancy), e.ok)
             for e in rep.entries], bits(rep.max_rel_discrepancy), rep.passed)


_CROSSCHECK_CONFIGS = {f"{kind}_p{p}_n{n}": corpus_config(kind, p, n)
                       for kind in KINDS for p, n in CORPUS_DIMS}
_CROSSCHECK_CONFIGS["quartic"] = quartic_config()
_CROSSCHECK_CONFIGS["sphere"] = sphere_config()


class TestOneEvaluationStencil:
    """fd_crosscheck evaluates L once on a point whose coordinates are
    float64 arrays over the whole stencil; each entry is bitwise that of
    the stencils evaluated one point at a time."""

    @pytest.mark.parametrize("name", sorted(_CROSSCHECK_CONFIGS))
    def test_entries_are_the_scalar_stencils(self, name):
        inst = assemble(_CROSSCHECK_CONFIGS[name])
        for pt in sample_points(inst.dims, inst.sampling["box"], 2, seed=inst.seed):
            got = fd_crosscheck(inst.L, pt, inst.dims, 1e-5)
            assert _report_bits(got) == _report_bits(scalar_crosscheck(inst.L, pt, inst.dims, 1e-5))

    def test_two_evaluations_of_L(self):
        inst = assemble(corpus_config("non_autonomous", 2, 3))
        kinds = []

        def L(point):
            kinds.append(type(point.t[0]))
            return inst.L(point)

        pt = sample_points(inst.dims, inst.sampling["box"], 1, seed=3)[0]
        fd_crosscheck(L, pt, inst.dims, 1e-5)
        # one Taylor2 lift and one evaluation on the arrays; point by point
        # it takes 1 + 5k + 2k(k - 1) = 276 for k = p + n + np = 11
        assert kinds == [Taylor2, np.ndarray]

    def test_a_stencil_point_outside_the_domain_raises_as_alone(self):
        dims = Dims(1, 1)
        f = ExpressionField("sqrt(x1) + v1_1^2", dims)
        point = JetPoint((0.0,), (1e-7,), ((0.5,),))  # x1 - 6e-6 < 0
        errors = []
        for crosscheck in (fd_crosscheck, scalar_crosscheck):
            with pytest.raises(EvalDomainError) as raised:
                crosscheck(f, point, dims, 1e-5)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_a_degenerate_stencil_point_raises_as_alone(self):
        # h_11 = t1 is 6e-6 at the point and exactly 0 at t1 - h1
        dims = Dims(2, 1)
        h = temporal_metric_of([[ExpressionField("t1", dims), ExpressionField("0", dims)],
                                [ExpressionField("0", dims), ExpressionField("1 + t2^2", dims)]],
                               (2, 0))
        g = [[ExpressionField("1 + x1^2", dims)]]
        L = ElectrodynamicsLagrangian(dims, h, g)
        point = JetPoint((6e-6, 0.3), (0.2,), ((0.4, -0.1),))
        errors = []
        for crosscheck in (fd_crosscheck, scalar_crosscheck):
            with pytest.raises(DegeneracyError) as raised:
                crosscheck(L, point, dims, 1e-5)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == "degenerate metric (det=0.000e+00)"

    def test_overflow_is_silent(self):
        # inf - inf at the stencil points is nan, as on floats, with no numpy
        # warning
        dims = Dims(1, 1)
        f = ExpressionField("exp(700*x1)*exp(700*x1)", dims)
        point = JetPoint((0.0,), (0.6,), ((0.0,),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fd_crosscheck(f, point, dims, 1e-5)
        assert math.isnan(got.entries[1].central)
        assert _report_bits(got) == _report_bits(scalar_crosscheck(f, point, dims, 1e-5))


class TestDomainEdges:
    def test_sqrt_at_zero_is_error_for_derivatives(self):
        dims = Dims(1, 1)
        f = ExpressionField("sqrt(x1)", dims)
        point = JetPoint((0.0,), (0.0,), ((0.0,),))
        assert f(point) == 0.0
        with pytest.raises(EvalDomainError):
            d1(f, point, x_coord(0))

    def test_abs_away_from_zero(self):
        dims = Dims(1, 1)
        f = ExpressionField("abs(x1)", dims)
        point = JetPoint((0.0,), (-2.0,), ((0.0,),))
        assert d1(f, point, x_coord(0)) == -1.0
        with pytest.raises(EvalDomainError):
            d1(f, JetPoint((0.0,), (0.0,), ((0.0,),)), x_coord(0))
