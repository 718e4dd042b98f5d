"""``ElectrodynamicsLagrangian``'s contracted quadratic form against the
term-by-term sum it replaced, and the number of products of derivative
scalars a spray takes with it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag import connection
from jetlag.calculus import all_coords, lift_taylor
from jetlag.config import assemble
from jetlag.jet_core import JetPoint
from jetlag.scalars import Taylor2

from conftest import extremal_job_config, lattice_job_config
from oracles import quadratic_form_by_terms

EPS = 2.0**-52
TINY = 5e-324  # the absolute spacing of subnormals, where eps*magnitude is less
# Two orders of one sum of products differ by a few roundings of its
# partial sums; 3.3 ulp of the summed magnitudes is the most seen over
# 20 000 random cases at p, n <= 3.
ULPS = 8


def _absolute(s):
    """s with its value and every derivative entry replaced by its
    magnitude: the form evaluated on these bounds each entry's summed term
    magnitudes."""
    if type(s) is Taylor2:
        return Taylor2(abs(s.re), [abs(e) for e in s.g], [abs(e) for e in s.h], s.layout)
    return abs(s)


def _entries(s) -> dict:
    """The value and each gradient and Hessian entry of a scalar, keyed by
    seed and by pair index (a float has only its value)."""
    if type(s) is not Taylor2:
        return {"value": s}
    lay = s.layout
    return {"value": s.re, **{("g", q): e for q, e in zip(lay.seeds, s.g)},
            **{("h", m): e for m, e in zip(lay.kept, s.h)}}


_COEFFICIENT = st.floats(-2.0, 2.0).map(lambda c: f"({c!r})")


@st.composite
def _family_case(draw):
    """A p, n <= 3 kinetic family L = h^{ab} g_ij v^i_a v^j_b with flat or
    t-dependent h (off-diagonal entries included) and g entries that are 0,
    constants or depend on x and t, and a point of it."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        h = {"kind": "flat"}
    else:
        diag = st.floats(0.0, 1.0).map(repr)
        off = st.floats(-0.2, 0.2).map(repr)
        entries = [[None] * p for _ in range(p)]
        for a in range(p):
            entries[a][a] = f"1 + {draw(diag)}*t{a + 1}^2"
            for b in range(a + 1, p):
                entries[a][b] = entries[b][a] = f"({draw(off)})*t{a + 1}*t{b + 1}"
        h = {"kind": "expression", "entries": entries, "signature": [p, 0]}
    x_var = st.integers(1, n).map(lambda k: f"x{k}")
    entry = st.one_of(
        _COEFFICIENT,
        st.tuples(_COEFFICIENT, _COEFFICIENT, x_var).map(lambda e: f"{e[0]} + {e[1]}*{e[2]}^2"),
        st.tuples(_COEFFICIENT, x_var).map(lambda e: f"{e[0]}*t1*{e[1]}"),
    )
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(entry)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.one_of(st.just("0"), entry))
    config = {"dims": {"p": p, "n": n},
              "lagrangian": {"kind": "harmonic", "g_entries": g},
              "temporal_metric": h,
              "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0}}
    coordinate = st.floats(-1.0, 1.0)
    point = JetPoint(draw(st.lists(coordinate, min_size=p, max_size=p)),
                     draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)),
                     [draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p))
                      for _ in range(n)])
    return config, point


class TestContractedForm:
    @settings(deadline=None)
    @given(_family_case())
    def test_matches_the_term_by_term_sum(self, case):
        config, point = case
        inst = assemble(config)
        family, dims = inst.L.structure, inst.dims
        p, n = dims.p, dims.n
        spray_lift = lift_taylor(point, all_coords(dims), connection._spray_pairs(n, p))
        for q in (point, spray_lift):
            hinv = family.h.inverse_at(q.t)
            # the contraction reads h^{ab} for a <= b; the sweep's inverse
            # need not be symmetric bit for bit, so the oracle reads the same
            hinv = [[hinv[min(a, b)][max(a, b)] for b in range(p)] for a in range(p)]
            g = family.g_matrix(q)
            got = _entries(family(q))
            want = _entries(quadratic_form_by_terms(hinv, g, q.v))
            bound = _entries(quadratic_form_by_terms(
                *([[_absolute(e) for e in row] for row in m] for m in (hinv, g, q.v))))
            assert set(got) <= set(bound) and set(want) <= set(bound)
            for key, magnitude in bound.items():
                gap = abs(got.get(key, 0.0) - want.get(key, 0.0))
                assert gap <= ULPS * (EPS * magnitude + TINY), key


class TestProductCount:
    """Products of two Taylor2s in one spray: those of L's ingredients g, U
    and F plus those of the contraction, p T(g) for w,
    n p(p + 1)/2 for S and T(h) for h^{ab} S_ab, T counting the entries
    that are Taylor2 (h^{ab} for a <= b), and one per Taylor2 U entry.  h's
    inverse on the spray's lift, asked before the spray, is kept, so the
    spray takes none of its products."""

    @pytest.fixture
    def products(self, monkeypatch):
        count, times = [0], Taylor2.__mul__

        def counted(a, b):
            if type(b) is Taylor2:
                count[0] += 1
            return times(a, b)

        monkeypatch.setattr(Taylor2, "__mul__", counted)
        monkeypatch.setattr(Taylor2, "__rmul__", counted)
        return count

    @pytest.mark.parametrize("config, point", [
        (lattice_job_config(), JetPoint((0.25, -0.5), (0.1, 0.2, -0.3),
                                        ((0.3, -0.2), (0.5, 0.1), (-0.4, 0.6)))),
        (extremal_job_config(), JetPoint((0.25,), (0.1, 0.2, -0.3), ((0.3,), (0.5,), (-0.4,)))),
    ])
    def test_a_spray_takes_the_contraction_s_products(self, products, config, point):
        inst = assemble(config)
        family, dims = inst.L.structure, inst.dims
        p, n = dims.p, dims.n
        q = lift_taylor(point, all_coords(dims), connection._spray_pairs(n, p))
        # h's inverse on the spray's lift is kept, and the spray reads it
        hinv = family.h.inverse_at(q.t)
        products[0] = 0
        g = family.g_matrix(q)
        u = [[e(q) for e in row] for row in family.u_entries or ()]
        if family.f_entry is not None:
            family.f_entry(q)
        ingredients = products[0]

        def taylor(entries):
            return sum(type(e) is Taylor2 for e in entries)

        contraction = (p * taylor(e for row in g for e in row)
                       + n * p * (p + 1) // 2
                       + taylor(hinv[a][b] for a in range(p) for b in range(a, p))
                       + taylor(e for row in u for e in row))
        products[0] = 0
        connection.spray_data(inst.L, inst.h, point)
        # 3 + 18 = 21 for the lattice (56 term by term), 11 + 10 = 21 for
        # the extremal (26 term by term); h's own 9 and 1 products were
        # taken once, before the spray
        assert products[0] == ingredients + contraction
