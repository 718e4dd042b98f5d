"""Mutation tests of the ``verify`` checks: break the code a check guards and
``run_checks`` must report that check failed (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).  A check that
no such mutation can fail passes on a wrong program too."""

import itertools

import pytest

from jetlag import calculus, cartan, metric_engine, regularity, scalars, verify
from jetlag.calculus import v_coord, x_coord
from jetlag.config import assemble

from conftest import CORPUS_DIMS, KINDS, corpus_config, potentials_config

# Relative perturbation of one forward second partial: ten times the
# crosscheck tolerance (1e-5), at which a perturbed entry is outside the
# tolerance whatever the stencil's own error.
_PERTURBATION = 1e-4
# Relative and absolute perturbation of one Cartan Christoffel symbol.
_CHRISTOFFEL_PERTURBATION = 1e-3
# Relative perturbation of g_00 in the decomposition's jet: a hundred times
# the reassembly tolerance (1e-8) against velocity terms of order one.
_JET_PERTURBATION = 1e-6
# Relative perturbation of the Euler-Lagrange residual's x_ab term; at 1e-6
# the p = 3, n = 1 autonomous and non-autonomous configs stay within the
# check's 1e-7.
_EL_PERTURBATION = 1e-5
# Relative perturbation of the p = 1 Cartan N^0_00; on the three configs
# the reduction applies to it moves the entry by 6e-8 to 3e-7, above the
# check's 1e-8.
_N_PERTURBATION = 1e-6
# Relative perturbation of g_00 in the regularity test's h-trace.
_TRACE_PERTURBATION = 1e-5


def _configs(min_p):
    """The corpus configs with p >= ``min_p`` (``count=4``) and the
    velocity-linear expression Lagrangian of ``potentials_config``."""
    return [pytest.param(corpus_config(kind, p, n, count=4), id=f"{kind}-p{p}-n{n}")
            for kind in KINDS for p, n in CORPUS_DIMS if p >= min_p] \
        + [pytest.param(potentials_config(), id="potentials")]


def _perturbed_cross_partial(monkeypatch):
    """Make every forward (x^1, v^1_1) second partial the crosscheck reads
    wrong by ``_PERTURBATION`` relative."""
    gradient_hessian = calculus.gradient_hessian

    def mutated(f, point, coords, pairs=None):
        grad, hess = gradient_hessian(f, point, coords, pairs)
        i, j = coords.index(x_coord(0)), coords.index(v_coord(0, 0))
        hess[i][j] = hess[j][i] = hess[i][j] * (1.0 + _PERTURBATION)
        return grad, hess

    monkeypatch.setattr(calculus, "gradient_hessian", mutated)


def _product_kernel_without_its_mirrored_cross_term(monkeypatch):
    """Generate every Taylor2 product kernel with 0.0 in place of its
    g_a[j] g_b[i] term (so an entry that only this term reaches is still
    written), in fresh layout and kernel tables, so that no kernel compiled
    before is reused and none of the mutant's outlives the test."""
    g_terms, h_terms = scalars._BINARY["times"]
    monkeypatch.setitem(scalars._BINARY, "times",
                        (g_terms, tuple("0.0" if t == "ga[{j2}] * gb[{i2}]" else t
                                        for t in h_terms)))
    monkeypatch.setattr(scalars, "_LAYOUTS", {})
    monkeypatch.setattr(scalars, "_KERNELS", {})


def _perturbed_cartan_l(monkeypatch, p):
    """Make the Cartan closure's L^0_00 wrong: ``cartan.christoffel``
    returns it scaled by 1 + ``_CHRISTOFFEL_PERTURBATION`` plus that
    amount.  The p = 1 closure builds L and then C through it, the p >= 2
    closure only L."""
    christoffel = cartan.christoffel
    calls = itertools.count()

    def mutated(inv, d):
        out = christoffel(inv, d)
        if p >= 2 or next(calls) % 2 == 0:
            out[0][0][0] = out[0][0][0] * (1.0 + _CHRISTOFFEL_PERTURBATION) \
                + _CHRISTOFFEL_PERTURBATION
        return out

    monkeypatch.setattr(cartan, "christoffel", mutated)


def _jets_of_the_next_base_point(monkeypatch):
    """Make the decomposition ``verify`` builds hold, as the jet of each of
    its base points, the jet of the next one (the last holds the first's)."""
    decompose = verify.electrodynamics_decompose

    def mutated(*args, **kwargs):
        deco = decompose(*args, **kwargs)
        deco.jets = deco.jets[1:] + deco.jets[:1]
        return deco

    monkeypatch.setattr(verify, "electrodynamics_decompose", mutated)


def _perturbed_jet_metric(monkeypatch):
    """Make ``ElectrodynamicsDecomposition.jet_at`` return g_00 wrong by
    ``_JET_PERTURBATION`` relative."""
    jet_at = regularity.ElectrodynamicsDecomposition.jet_at

    def mutated(self, point):
        jet = jet_at(self, point)
        jet.g[0][0] = jet.g[0][0] * (1.0 + _JET_PERTURBATION)
        return jet

    monkeypatch.setattr(regularity.ElectrodynamicsDecomposition, "jet_at", mutated)


def _perturbed_el_second_derivative_term(monkeypatch):
    """Make the residual ``verify`` reads from ``euler_lagrange_residual``
    wrong in its 2 G x_ab term by ``_EL_PERTURBATION`` relative: the term
    reads every x_ab scaled by 1 + that amount."""
    residual = verify.euler_lagrange_residual

    def mutated(L, point, xab, data):
        scaled = [[[e * (1.0 + _EL_PERTURBATION) for e in row] for row in m] for m in xab]
        return residual(L, point, scaled, data)

    monkeypatch.setattr(verify, "euler_lagrange_residual", mutated)


def _perturbed_spray_n(monkeypatch):
    """Make the p = 1 Cartan closure's spray derivative N^0_00 wrong by
    ``_N_PERTURBATION`` relative."""
    spray_n_values = cartan.spray_n_values

    def mutated(*args):
        out = spray_n_values(*args)
        out[0][0][0] = out[0][0][0] * (1.0 + _N_PERTURBATION)
        return out

    monkeypatch.setattr(cartan, "spray_n_values", mutated)


def _perturbed_trace_metric(monkeypatch):
    """Make the h-trace of the vertical Hessian that the regularity test
    reads wrong in g_00 by ``_TRACE_PERTURBATION`` relative."""
    trace_metric = regularity.trace_metric

    def mutated(hmat, blocks):
        g = trace_metric(hmat, blocks)
        g[0][0] = g[0][0] * (1.0 + _TRACE_PERTURBATION)
        return g

    monkeypatch.setattr(regularity, "trace_metric", mutated)


def _reversed_inertia(monkeypatch):
    """Make the factorization the temporal metric's checks read return its
    inertia as (negative, positive) counts."""
    checked_inverse = metric_engine.checked_inverse

    def mutated(rows):
        factor = checked_inverse(rows)
        return factor._replace(inertia=factor.inertia[::-1])

    monkeypatch.setattr(metric_engine, "checked_inverse", mutated)


def _fails_under(monkeypatch, check, mutate, config):
    """``check`` passes on ``config`` and fails once ``mutate`` (called
    with the monkeypatch) has broken the code it guards."""
    inst = assemble(config)
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert checks[check].passed
    mutate(monkeypatch)
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert not checks[check].passed


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p, n", CORPUS_DIMS)
def test_ad_fd_crosscheck_fails_on_a_wrong_cross_partial(monkeypatch, kind, p, n):
    inst = assemble(corpus_config(kind, p, n, count=4))
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert checks["ad_fd_crosscheck"].passed
    _perturbed_cross_partial(monkeypatch)
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert not checks["ad_fd_crosscheck"].passed


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p, n", CORPUS_DIMS)
def test_ad_fd_crosscheck_fails_on_a_product_kernel_missing_a_term(monkeypatch, kind, p, n):
    _fails_under(monkeypatch, "ad_fd_crosscheck",
                 _product_kernel_without_its_mirrored_cross_term,
                 corpus_config(kind, p, n, count=4))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p, n", CORPUS_DIMS)
def test_cartan_metric_compatibility_fails_on_a_wrong_christoffel_symbol(
        monkeypatch, kind, p, n):
    _fails_under(monkeypatch, "cartan_metric_compatibility",
                 lambda mp: _perturbed_cartan_l(mp, p), corpus_config(kind, p, n, count=4))


@pytest.mark.parametrize("config", _configs(min_p=2))
def test_h_trace_identity_fails_on_the_jet_of_another_point(monkeypatch, config):
    _fails_under(monkeypatch, "h_trace_identity", _jets_of_the_next_base_point, config)


@pytest.mark.parametrize("config", _configs(min_p=1))
def test_decomposition_roundtrip_fails_on_a_wrong_jet_metric(monkeypatch, config):
    _fails_under(monkeypatch, "decomposition_roundtrip", _perturbed_jet_metric, config)


@pytest.mark.parametrize("config", _configs(min_p=1))
def test_el_rearrangement_fails_on_a_wrong_second_derivative_term(monkeypatch, config):
    _fails_under(monkeypatch, "el_rearrangement", _perturbed_el_second_derivative_term, config)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_classical_reduction_fails_on_a_wrong_spray_derivative(monkeypatch, n):
    # the only corpus configs the reduction applies to: p = 1, constant h,
    # g of x only and no U
    _fails_under(monkeypatch, "classical_reduction", _perturbed_spray_n,
                 corpus_config("harmonic", 1, n, count=4))


@pytest.mark.parametrize("config", _configs(min_p=1))
def test_kronecker_regularity_fails_on_a_wrong_trace_metric(monkeypatch, config):
    _fails_under(monkeypatch, "kronecker_regularity", _perturbed_trace_metric, config)


@pytest.mark.parametrize("config", _configs(min_p=1))
def test_temporal_metric_signature_fails_on_a_reversed_inertia(monkeypatch, config):
    _fails_under(monkeypatch, "temporal_metric_signature", _reversed_inertia, config)
