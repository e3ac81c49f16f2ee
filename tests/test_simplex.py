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
@given(st.floats(0.75, 50.0))
def test_argmax_substitution(lam):
    # the argmax in its other form: tau13 = tau14 = tau23 = tau24 = 2 lam / (12 lam - 3),
    # tau12 = (4 lam - 3) / (2 lam) tau13
    value, point = S.scaled_simplex_max(lam), argmax(lam)
    t13 = 2.0 * lam / (12.0 * lam - 3.0)
    assert np.allclose(point, [(4.0 * lam - 3.0) / (2.0 * lam) * t13] + [t13] * 4, rtol=1e-15, atol=0)
    assert abs(point.sum() - 1.0) < 1e-9
    assert abs(_kernels.volume_cubic(lam * point[0], *point[1:]) - value) < 1e-12 * max(1.0, value)


def test_domain_error():
    # the lemma holds for every finite lambda > 0: each public function refuses the rest
    for f in (S.scaled_simplex_max, S.boundary_candidates, S.grid_simplex_max):
        for lam in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="finite and > 0"):
                f(lam)
    with pytest.raises(ValueError, match="at least 10"):
        S.grid_simplex_max(1.0, grid_n=5)


@pytest.mark.parametrize("lam", [1e-300, 0.1, 0.5, 0.74, 0.75])
def test_face_without_tau12_below_three_quarters(lam):
    # 1/16, the cubic at (0, 1/4, 1/4, 1/4, 1/4) on the face tau12 = 0, is S(lambda) and the largest candidate up to 3/4
    face = _kernels.volume_cubic(0.0, 0.25, 0.25, 0.25, 0.25)
    assert S.scaled_simplex_max(lam) == max(S.boundary_candidates(lam)) == face == 1.0 / 16.0


def test_branches_meet_at_three_quarters():
    # the interior closed form takes its least value over lambda, 1/16, at 3/4, where its argmax reaches tau12 = 0
    def closed(lam):
        return 16.0 * lam**3 / (27.0 * (4.0 * lam - 1.0) ** 2)

    assert closed(0.75) == 1.0 / 16.0 and argmax(0.75)[0] == 0.0
    assert all(closed(lam) > 1.0 / 16.0 for lam in (0.5, 0.7, 0.8, 1.0))


@pytest.mark.parametrize("lam", [0.3, 0.4, 0.45, 0.5, 0.6, 1.0, 2.0])
def test_four_faces_with_tau12_peak_at_the_second_candidate(lam):
    # each 4-face with tau12 (one of tau13..tau24 pinned to 0), scanned on the composition grid of 60: its maximum is
    # 4 lambda^2 / (27 (4 lambda - 1)) from lambda = 1/2, and 1/27 on the face's own boundary below, where that
    # formula passes 1/16 on (1/4, 0.32) and divides by zero at 1/4
    n = 60
    a, b, c = np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij")
    keep = a + b + c <= n
    t = np.stack([a[keep], b[keep], c[keep], n - (a + b + c)[keep]]) / n
    candidate = S.boundary_candidates(lam)[1]
    for face in range(1, 5):
        u = np.insert(t, face, 0.0, axis=0)
        best = _kernels.volume_cubic(lam * u[0], *u[1:]).max()
        assert candidate - 1e-4 <= best <= candidate + 1e-15


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


def test_boundary_at_or_below_the_maximum_for_every_lambda():
    # verify's boundary_below_interior on (0, 10]: below 3/4 the maximum is the candidate 1/16 itself
    for lam in [*np.geomspace(1e-300, 10.0, 4001).tolist(), 0.25, 0.5, 0.75, math.nextafter(0.75, 1.0)]:
        assert S.scaled_simplex_max(lam) - max(S.boundary_candidates(lam)) >= -1e-15, lam


def test_grid_never_exceeds_maximum():
    # the grid oracle's scan before its descent
    value = S.scaled_simplex_max(1.0)
    raw, _ = _kernels.simplex_grid_scan(1.0, 10, 1.0)
    assert raw <= value + 1e-15


@pytest.mark.parametrize("lam", [1e-6, 0.25, 0.3, 0.5, 0.74, 0.75, 0.76, 0.9, 1.0, 3.0])
def test_grid_with_refinement_tight(lam):
    # the oracle knows nothing of the switch at 3/4: it finds 1/16 below and the interior value above
    value = S.scaled_simplex_max(lam)
    refined = S.grid_simplex_max(lam, grid_n=60)
    assert abs(refined - value) <= 1e-15


def test_grid_simplex_max_pinned():
    # exact value of the grid scan plus greedy refinement; a change in the
    # refinement's move order or acceptance rule shows up here
    assert S.grid_simplex_max(2.0, grid_n=60) == 0.09674981103552534

