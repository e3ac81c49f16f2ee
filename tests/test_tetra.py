import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicdensity import _kernels
from mosaicdensity import tetra as T
from mosaicdensity import zonotope as Z


def _volume(p):
    return abs(np.linalg.det(p[1:] - p[0])) / 6.0


def test_regular_tetrahedron_invariants():
    # vertices of a regular tetrahedron inscribed in the cube
    p = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    (gamma,), (zeta,), (vol,) = _kernels.pair_scalars_many(p[None])
    # all pairwise dots are -1, so every gamma is 1
    assert np.allclose(gamma, 1.0)
    # |p_i x p_j|^2 = |p|^4 - <p_i,p_j>^2 = 9 - 1 = 8
    assert np.allclose(zeta, 8.0)
    v2 = _volume(p) ** 2
    assert abs(vol**2 - v2) < 1e-12
    assert abs(Z.volume_polynomial(gamma) - 2.25 * v2) < 1e-12
    assert abs(zeta.sum() - 6.75 * v2) < 1e-12


def _random_tetrahedra(rng, n):
    # uniform vertices in [-1, 1]^3, centred; slivers of volume <= 1e-3 are redrawn
    out = []
    while len(out) < n:
        p = rng.uniform(-1.0, 1.0, size=(4, 3))
        p -= p.mean(axis=0)
        if _volume(p) > 1e-3:
            out.append(p)
    return out


def _identity_residuals(tetrahedra):
    # both identities through the kernels that ``verify --lemma tetra`` runs, relative to max(1, V^2)
    gamma, zeta, _ = _kernels.pair_scalars_many(np.array(tetrahedra))
    v2 = np.array([_volume(p) for p in tetrahedra]) ** 2
    poly, weighted = _kernels.volume_poly_many(gamma), zeta.sum(axis=1)
    return (poly, weighted, v2), T._identity_residuals(poly, weighted, v2)


def test_verify_identities_report(rng):
    (poly, weighted, v2), (r1, r2) = _identity_residuals(_random_tetrahedra(rng, 1))
    assert r1[0] < 1e-12 and r2[0] < 1e-12
    assert abs(poly[0] - 2.25 * v2[0]) < 1e-9
    assert abs(weighted[0] - 6.75 * v2[0]) < 1e-9


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_identities_property(seed):
    _, (r1, r2) = _identity_residuals(_random_tetrahedra(np.random.default_rng(seed), 1))
    assert r1[0] <= 1e-10 and r2[0] <= 1e-10


def test_identities_survive_rotation_and_scale(rng):
    # both identities are invariant under rotations; scaling by s scales
    # gamma by s^2, the cubic by s^6, and V^2 by s^6 alike
    (p,) = _random_tetrahedra(rng, 1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    _, (r1, r2) = _identity_residuals([p @ q.T, p * 1.7])
    assert r1.max() <= 1e-10 and r2.max() <= 1e-10


def _pair_scalars_reference(p):
    # one pair at a time, straight from the definitions in tetra's docstring
    gamma = np.empty(6)
    zeta = np.empty(6)
    for k, (i, j) in enumerate(Z.PAIRS):
        s, u = Z.PAIRS[5 - k]
        gamma[k] = -float(p[s] @ p[u])
        cr = np.cross(p[i], p[j])
        zeta[k] = gamma[k] * float(cr @ cr)
    return gamma, zeta


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(11)
    p = rng.uniform(-1, 1, size=(50, 4, 3))
    p -= p.mean(axis=1, keepdims=True)

    gamma, zeta, vol = _kernels.pair_scalars_many(p)
    for i in range(50):
        if vol[i] < 1e-3:
            continue
        want_gamma, want_zeta = _pair_scalars_reference(p[i])
        assert np.allclose(gamma[i], want_gamma, atol=1e-12)
        assert np.allclose(zeta[i], want_zeta, atol=1e-12)
        assert abs(vol[i] - _volume(p[i])) < 1e-12


def _pair_scalars_many_reference(p):
    # the batch kernel as written on (N, 4, 3) vertices, one strided pair at a time
    def dot(a, b):
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]

    gamma, zeta = np.empty((2, len(p), 6))
    for k, (i, j) in enumerate(Z.PAIRS):
        s, u = Z.PAIRS[5 - k]
        gamma[:, k] = -dot(p[:, s], p[:, u])
        cr = np.cross(p[:, i], p[:, j])
        zeta[:, k] = gamma[:, k] * dot(cr, cr)
    vol = np.abs(dot(p[:, 1] - p[:, 0], np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]))) / 6.0
    return gamma, zeta, vol


def _batch_identity_reference(samples, seed, reject_volume_below=1e-3):
    # batch_identity_residuals' block loop on (N, 4, 3) vertices, as it was
    # written before the vertices became component rows
    rng = np.random.default_rng(seed)
    collected = 0
    worst1 = worst2 = 0.0
    while collected < samples:
        p = rng.uniform(-1.0, 1.0, size=(min(4096, max(256, samples - collected)), 4, 3))
        p -= ((p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]) / 4.0)[:, None]
        gamma, zeta, vol = _pair_scalars_many_reference(p)
        keep = vol > reject_volume_below
        gamma, zeta, vol = gamma[keep], zeta[keep], vol[keep]
        if len(vol) == 0:
            continue
        take = min(len(vol), samples - collected)
        gamma, zeta, vol = gamma[:take], zeta[:take], vol[:take]
        collected += take
        v2 = vol**2
        scale = np.maximum(1.0, v2)
        r1 = np.abs(_kernels.volume_poly_many(gamma) - 2.25 * v2) / scale
        r2 = np.abs(zeta.sum(axis=1) - 6.75 * v2) / scale
        worst1, worst2 = max(worst1, float(r1.max())), max(worst2, float(r2.max()))
    return worst1, worst2


@pytest.mark.parametrize("samples, reject", [(20_000, 1e-3), (5_001, 0.05)])
@pytest.mark.parametrize("seed", [0, 1, 2, 5, 11, 23])
def test_batch_matches_vertex_loop_reference(seed, samples, reject, monkeypatch):
    monkeypatch.setattr(T, "REJECT_VOLUME_BELOW", reject)
    got = T.batch_identity_residuals(samples, seed)
    assert got == _batch_identity_reference(samples, seed, reject)


def test_batch_kernel_sees_the_reference_blocks(monkeypatch):
    # every block's vertices and per-pair scalars, bit for bit
    seen, kernel = [], _kernels.pair_scalars_many

    def recording(p):
        out = kernel(p)
        seen.append((np.array(p),) + out)
        return out

    monkeypatch.setattr(_kernels, "pair_scalars_many", recording)
    T.batch_identity_residuals(10_000, seed=3)
    rng = np.random.default_rng(3)
    assert len(seen) > 2
    for got in seen:
        p = rng.uniform(-1.0, 1.0, size=got[0].shape)
        p -= ((p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]) / 4.0)[:, None]
        for g, r in zip(got, (p,) + _pair_scalars_many_reference(p)):
            assert np.ascontiguousarray(g).tobytes() == r.tobytes()


def test_batch_residuals_small():
    r1, r2 = T.batch_identity_residuals(2000, seed=5)
    assert r1 < 1e-12 and r2 < 1e-12


@pytest.mark.parametrize("samples", [0, -1])
def test_batch_residuals_need_a_sample(samples):
    with pytest.raises(ValueError, match="at least 1"):
        T.batch_identity_residuals(samples)
