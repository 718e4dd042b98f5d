"""Mutation tests of the ``verify`` checks: break the code a check guards and
``run_checks`` must report that check failed (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).  A check that
no such mutation can fail passes on a wrong program too."""

import pytest

from jetlag import calculus, verify
from jetlag.calculus import v_coord, x_coord
from jetlag.config import assemble

from conftest import CORPUS_DIMS, KINDS, corpus_config

# Relative perturbation of one forward second partial: ten times the
# crosscheck tolerance (1e-5), at which a perturbed entry is outside the
# tolerance whatever the stencil's own error.
_PERTURBATION = 1e-4


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p, n", CORPUS_DIMS)
def test_ad_fd_crosscheck_fails_on_a_wrong_cross_partial(monkeypatch, kind, p, n):
    inst = assemble(corpus_config(kind, p, n, count=4))
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert checks["ad_fd_crosscheck"].passed
    _perturbed_cross_partial(monkeypatch)
    checks = {c.name: c for c in verify.run_checks(inst)}
    assert not checks["ad_fd_crosscheck"].passed
