import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicdensity import _kernels
from mosaicdensity import simplex as S


def argmax(lam):
    """The reference that the closed-form maximum is attained: (tau12, tau13, tau14, tau23, tau24) =
    (4 lam - 3, 2 lam, 2 lam, 2 lam, 2 lam) / (12 lam - 3), the interior critical point of the scaled cubic."""
    return np.array([4.0 * lam - 3.0] + [2.0 * lam] * 4) / (12.0 * lam - 3.0)


def test_closed_form_values():
    value, point = S.scaled_simplex_max(1.0), argmax(1.0)
    assert type(value) is float
    assert abs(value - 16.0 / 243.0) < 1e-15
    assert abs(point[0] - 1.0 / 9.0) < 1e-15
    assert np.allclose(point[1:], 2.0 / 9.0)
    value2 = S.scaled_simplex_max(2.0)
    assert abs(value2 - 128.0 / 1323.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0))
def test_argmax_substitution(lam):
    # the argmax in its other form: tau13 = tau14 = tau23 = tau24 = 2 lam / (12 lam - 3),
    # tau12 = (4 lam - 3) / (2 lam) tau13
    value, point = S.scaled_simplex_max(lam), argmax(lam)
    t13 = 2.0 * lam / (12.0 * lam - 3.0)
    assert np.allclose(point, [(4.0 * lam - 3.0) / (2.0 * lam) * t13] + [t13] * 4, rtol=1e-15, atol=0)
    assert abs(point.sum() - 1.0) < 1e-9
    assert abs(_kernels.volume_cubic(lam * point[0], *point[1:]) - value) < 1e-12 * max(1.0, value)


def test_domain_error():
    with pytest.raises(S.DomainError):
        S.scaled_simplex_max(0.999)
    with pytest.raises(S.DomainError):
        S.grid_simplex_max(0.5)
    with pytest.raises(S.DomainError):
        S.boundary_candidates(0.9)
    with pytest.raises(ValueError):
        S.grid_simplex_max(1.0, grid_n=5)


def test_boundary_candidates_lambda_one():
    cands = S.boundary_candidates(1.0)
    assert cands == [1.0 / 16.0, 4.0 / 81.0, 1.0 / 27.0, 1.0 / 27.0]
    value = S.scaled_simplex_max(1.0)
    assert max(cands) == 1.0 / 16.0
    assert all(c < value for c in cands)


@pytest.mark.parametrize("lam", [1.0, 1.2, 2.0, 10.0])
def test_boundary_below_interior(lam):
    value = S.scaled_simplex_max(lam)
    assert max(S.boundary_candidates(lam)) < value


def test_grid_never_exceeds_maximum():
    # the grid oracle's scan before its descent
    value = S.scaled_simplex_max(1.0)
    raw, _ = _kernels.simplex_grid_scan(1.0, 10, 1.0)
    assert raw <= value + 1e-15


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_grid_with_refinement_tight(lam):
    value = S.scaled_simplex_max(lam)
    refined = S.grid_simplex_max(lam, grid_n=60)
    assert abs(refined - value) < 1e-5
    assert refined <= value + 1e-12


def test_grid_simplex_max_pinned():
    # exact value of the grid scan plus greedy refinement; a change in the
    # refinement's move order or acceptance rule shows up here
    assert S.grid_simplex_max(2.0, grid_n=60) == 0.09674981103552532

