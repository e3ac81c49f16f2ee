import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicdensity import simplex as S


def test_closed_form_values():
    value, point = S.scaled_simplex_max(1.0, 1.0)
    assert abs(value - 16.0 / 243.0) < 1e-15
    assert abs(point.tau[0] - 1.0 / 9.0) < 1e-15
    assert np.allclose(point.tau[1:], 2.0 / 9.0)
    value2, _ = S.scaled_simplex_max(2.0, 1.0)
    assert abs(value2 - 128.0 / 1323.0) < 1e-15


def test_cubic_homogeneity():
    v1, _ = S.scaled_simplex_max(1.0, 1.0)
    v2, _ = S.scaled_simplex_max(1.0, 2.0)
    assert abs(v2 - 8.0 * v1) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(0.1, 10.0))
def test_argmax_substitution(lam, budget):
    value, point = S.scaled_simplex_max(lam, budget)
    assert abs(point.tau.sum() - budget) < 1e-9 * budget
    assert abs(point.objective(lam) - value) < 1e-12 * max(1.0, value)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(0.5, 4.0))
def test_budget_scaling_property(lam, budget):
    v1, _ = S.scaled_simplex_max(lam, 1.0)
    vc, _ = S.scaled_simplex_max(lam, budget)
    assert abs(vc - budget**3 * v1) < 1e-12 * max(1.0, vc)


def test_domain_error():
    with pytest.raises(S.DomainError):
        S.scaled_simplex_max(0.999)
    with pytest.raises(S.DomainError):
        S.grid_simplex_max(0.5)
    with pytest.raises(S.DomainError):
        S.boundary_candidates(0.9)
    with pytest.raises(ValueError):
        S.scaled_simplex_max(2.0, -1.0)
    with pytest.raises(ValueError):
        S.grid_simplex_max(1.0, grid_n=5)


@pytest.mark.parametrize("budget", [0.0, -1.0])
def test_grid_budget_must_be_positive(budget):
    # the scan's concavity in a needs (budget / grid_n)^3 > 0
    with pytest.raises(ValueError, match="budget must be positive"):
        S.grid_simplex_max(2.0, budget=budget)


def test_boundary_candidates_lambda_one():
    cands = S.boundary_candidates(1.0)
    assert cands == [1.0 / 16.0, 4.0 / 81.0, 1.0 / 27.0, 1.0 / 27.0]
    value, _ = S.scaled_simplex_max(1.0)
    assert max(cands) == 1.0 / 16.0
    assert all(c < value for c in cands)


@pytest.mark.parametrize("lam", [1.0, 1.2, 2.0, 10.0])
def test_boundary_below_interior(lam):
    value, _ = S.scaled_simplex_max(lam)
    assert max(S.boundary_candidates(lam)) < value


def test_grid_never_exceeds_maximum():
    value, _ = S.scaled_simplex_max(1.0)
    raw = S.grid_simplex_max(1.0, grid_n=10, refine_rounds=0)
    assert raw <= value + 1e-15


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_grid_with_refinement_tight(lam):
    value, _ = S.scaled_simplex_max(lam)
    refined = S.grid_simplex_max(lam, grid_n=60)
    assert abs(refined - value) < 1e-5
    assert refined <= value + 1e-12


def test_grid_simplex_max_pinned():
    # exact value of the grid scan plus greedy refinement; a change in the
    # refinement's move order or acceptance rule shows up here
    assert S.grid_simplex_max(2.0, grid_n=60) == 0.09674981103552532


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        S.SimplexPoint(np.array([0.5, 0.5, 0.0, 0.0, 0.1]), 1.0)  # sum != budget
    with pytest.raises(ValueError):
        S.SimplexPoint(np.array([-0.2, 0.4, 0.4, 0.2, 0.2]), 1.0)
