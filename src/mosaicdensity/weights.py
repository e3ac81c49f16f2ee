"""Per-type minima of the weighted edge functional and the overall winner.

For a weight pair m = (alpha6, alpha4) the functional w_m(P) sums segment
lengths weighted by belt class.  Over unit-volume bodies of each
parallelohedron type the minimum has a closed form, attained by
an explicit body (for type 4 while alpha4/alpha6 < 2/sqrt(3); from there
on the type-3 minimum is its infimum, which no type-4 body attains), and
the overall minimizer as a function of alpha4/alpha6 switches from the
cube to the hexagonal prism at sqrt(3)/2 and from the prism to the
truncated octahedron at (2/3)^(1/4).  This module also provides the
isotropic-position fixed point used in the type-5 argument, run on a
stack of bodies at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels, zonotope
from .zonotope import WeightPair, Zonotope

# winner switches at these alpha4/alpha6 ratios
CUBE_PRISM_RATIO = math.sqrt(3.0) / 2.0
PRISM_OCTA_RATIO = (2.0 / 3.0) ** 0.25

_TIE_RTOL = 1e-12

#: The isotropic-position fixed point stops once a body's residual is at most ISOTROPY_TOL, and
#: gives up after ISOTROPY_MAX_ITER steps; ``verify --lemma isotropy`` checks its residuals to ISOTROPY_TOL.
ISOTROPY_TOL = 1e-8
ISOTROPY_MAX_ITER = 200


class NoConvergence(RuntimeError):
    """Isotropic iteration failed to reach tolerance."""


@dataclass(frozen=True)
class TypeMinimum:
    """Minimum of w_m over unit-volume bodies of one type.

    ``is_exact`` is False only for type 4 at alpha4/alpha6 >= 2/sqrt(3), where no
    type-4 body is optimal; there ``value`` is the type-3 minimum, the infimum as
    beta12 -> 0, and ``optimal_shape`` is None, as it is where a parameter of the type-2 prism
    or the type-4 body, at an extreme alpha4/alpha6, is not a finite positive double.
    """

    value: float
    is_exact: bool
    optimal_shape: dict | None
    note: str | None = None


class Winner(Enum):
    CUBE = "Cube"
    HEX_PRISM = "HexPrism"
    TRUNC_OCTA = "TruncOcta"
    TIE_CUBE_PRISM = "TieCubePrism"
    TIE_PRISM_OCTA = "TiePrismOcta"


@dataclass(frozen=True)
class OptimalAnswer:
    winner: Winner
    value: float


def _prism_edges(m: WeightPair) -> tuple[float, float]:
    a6, a4 = m.alpha6, m.alpha4
    base = 2.0 ** (2.0 / 3.0) * a6 ** (1.0 / 3.0) / (3.0 ** (5.0 / 6.0) * a4 ** (1.0 / 3.0))
    lateral = 3.0 ** (1.0 / 6.0) * a4 ** (2.0 / 3.0) / (2.0 ** (1.0 / 3.0) * a6 ** (2.0 / 3.0))
    return base, lateral


def _in_doubles(shape: dict) -> dict | None:
    """The shape, or None when one of its parameters is not a finite positive double."""
    return shape if all(0.0 < v < math.inf for k, v in shape.items() if k != "shape") else None


def type_minimum(i: int, m: WeightPair) -> TypeMinimum:
    """Closed-form minimum of w_m at unit volume for one type."""
    a6, a4 = m.alpha6, m.alpha4
    if i == 1:
        return TypeMinimum(3.0 * a4, True, {"shape": "cube", "edge": 1.0})
    if i == 2:
        base, lateral = _prism_edges(m)
        # a4^(2/3) a6^(1/3) with a6 taken out, so the power's rounding does not grow with the weights' scale;
        # a ratio outside the normal doubles (from 2^-1022) keeps the product of the powers, which stays finite
        r = a4 / a6
        scaled = a6 * r ** (2.0 / 3.0) if 2.0**-1022 <= r < math.inf else a4 ** (2.0 / 3.0) * a6 ** (1.0 / 3.0)
        value = 3.0 ** (7.0 / 6.0) / 2.0 ** (1.0 / 3.0) * scaled
        return TypeMinimum(value, True, _in_doubles({"shape": "hexagonal_prism", "base_edge": base, "height": lateral}))
    if i == 3:
        shape = {"shape": "rhombic_dodecahedron", "edge": zonotope.RHOMBIC_EDGE}
        return TypeMinimum(2.0 ** (2.0 / 3.0) * math.sqrt(3.0) * a6, True, shape)
    if i == 4:
        r = a4 / a6
        axial = 4.0 - 3.0 * r * r  # 2 r^2 beta12: the body below has its axis only while this is positive
        if axial <= 0.0:  # as beta12 -> 0 the body tends to type 3
            note = "infimum, approached as beta12 -> 0, that no type-4 body attains: the type-3 minimum"
            return TypeMinimum(type_minimum(3, m).value, False, None, note)
        q = 4.0 - r**2
        # 3 (a4 (4 a6^2 - a4^2))^(1/3) / 2^(2/3), a6^2 taken out of the root: no square leaves the float range
        value = 3.0 * a4 ** (1.0 / 3.0) * a6 ** (2.0 / 3.0)
        value = value * q ** (1.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        # It is attained on the frame e1, e2, (-1/2, -1/2, +-h), h^2 = (4 - r^2) / (4 r^2), by the coefficients
        # beta = ((4 - 3 r^2) / (2 r^2), 1, 1, 1, 1, 0).  Turned 45 degrees about e3, the four unit segments
        # v_i x v_j are the diagonals (+-h/sqrt(2), +-h/sqrt(2), +-1/2) of a box, each 1/r long, and
        # beta12 (v1 x v2) = beta12 e3 is the axis; the volume is 4 h^2 (beta12 + 1).  At unit volume, with r
        # kept out of every square so that none underflows (0.0 ** (-2/3) raises, so an underflowed r gives axis inf):
        shape = {
            "shape": "elongated_rhombic_dodecahedron",
            "half_width": (r / math.sqrt(2.0 * q)) ** (1.0 / 3.0) / 2.0,
            "half_height": (r / math.sqrt(2.0 * q)) ** (4.0 / 3.0),
            "axis": axial * (2.0 * q * r) ** (-2.0 / 3.0) if r else math.inf,
        }
        return TypeMinimum(value, True, _in_doubles(shape))
    if i == 5:
        shape = {"shape": "truncated_octahedron", "edge": zonotope.TRUNCOCTA_EDGE}
        return TypeMinimum(3.0 * a6 / 2.0 ** (1.0 / 6.0), True, shape)
    raise ValueError(f"type index must be 1..5, got {i}")


def optimal_shape_zonotope(i: int, m: WeightPair) -> Zonotope | None:
    """The unit-volume minimizer of type i, or None when unknown: the ``zonotope``
    builder that ``optimal_shape["shape"]`` names, on the other keys."""
    shape = type_minimum(i, m).optimal_shape
    if shape is None:
        return None
    params = {k: v for k, v in shape.items() if k != "shape"}
    return getattr(zonotope, shape["shape"])(**params)


def classify_optimal(m: WeightPair) -> OptimalAnswer:
    """Overall minimizer of w_m over all five types, with tie detection.

    Ratios within 1e-12 (relative) of a threshold report a tie; the two
    tied shapes share the returned value there.
    """
    ratio = m.alpha4 / m.alpha6
    cube_val = type_minimum(1, m).value
    prism_val = type_minimum(2, m).value
    octa_val = type_minimum(5, m).value
    if abs(ratio - CUBE_PRISM_RATIO) <= _TIE_RTOL * CUBE_PRISM_RATIO:
        return OptimalAnswer(Winner.TIE_CUBE_PRISM, cube_val)
    if ratio < CUBE_PRISM_RATIO:
        return OptimalAnswer(Winner.CUBE, cube_val)
    if abs(ratio - PRISM_OCTA_RATIO) <= _TIE_RTOL * PRISM_OCTA_RATIO:
        return OptimalAnswer(Winner.TIE_PRISM_OCTA, octa_val)
    if ratio < PRISM_OCTA_RATIO:
        return OptimalAnswer(Winner.HEX_PRISM, prism_val)
    return OptimalAnswer(Winner.TRUNC_OCTA, octa_val)


def _second_moment(u: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3 sum(F_i u_i u_i^T) / sum(F_i) and its max-abs deviation from I, per
    measure: ``u`` is (..., F, 3) and ``f`` is (..., F)."""
    mat = 3.0 * (f[..., None, None] * u[..., :, None] * u[..., None, :]).sum(axis=-3)
    mat /= f.sum(axis=-1)[..., None, None]
    return mat, np.abs(mat - np.eye(3)).max(axis=(-2, -1))


def _mapped(u: np.ndarray, f: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet normals and areas after mapping each body by its a (det 1);
    the rows of ``u @ inv(a)`` are the normals mapped by a^{-T}."""
    raw = u @ np.linalg.inv(a)
    ln = np.linalg.norm(raw, axis=-1)
    return raw / ln[..., None], f * ln


def _det_one(a: np.ndarray) -> np.ndarray:
    """Each (3, 3) matrix of a stack divided by the cube root of its determinant.

    The root is taken one scalar at a time: numpy's array ``power`` may
    round differently from the scalar ``pow`` of a single matrix."""
    root = [d ** (1.0 / 3.0) for d in np.linalg.det(a).tolist()]
    return a / np.array(root)[:, None, None]


def isotropic_positions(normals: np.ndarray, areas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Volume-preserving maps bringing a stack of facet measures to isotropy.

    ``normals`` is (B, F, 3) and ``areas`` (B, F): B bodies with F facets
    each.  Fixed point: every body is repeatedly mapped by the
    determinant-1 square root of its second-moment matrix; normals and
    areas transform accordingly and no hull is rebuilt.  A body whose
    residual reaches ``ISOTROPY_TOL`` is frozen and leaves the stack, so
    each one takes the steps, and gets the bits, it would take alone.
    Returns the (B, 3, 3) matrices, the iterations and the residuals; a
    stack still live after ``ISOTROPY_MAX_ITER`` steps raises NoConvergence.
    """
    u, f = np.asarray(normals, dtype=np.float64), np.asarray(areas, dtype=np.float64)
    live = np.arange(len(u))
    acc = np.tile(np.eye(3), (len(u), 1, 1))
    matrix, iterations, residual = np.empty_like(acc), np.empty_like(live), np.empty(len(u))
    for it in range(ISOTROPY_MAX_ITER):
        mat, res = _second_moment(u, f)
        done = res <= ISOTROPY_TOL
        if done.any():
            matrix[live[done]] = _det_one(acc[done])
            iterations[live[done]], residual[live[done]] = it, res[done]
            go = ~done
            live, u, f, acc, mat = live[go], u[go], f[go], acc[go], mat[go]
        if not live.size:
            return matrix, iterations, residual
        w, q = np.linalg.eigh(mat)
        if (w <= 0).any():
            raise NoConvergence("second-moment matrix lost positive definiteness")
        s = _det_one((q * np.sqrt(w)[:, None, :]) @ q.transpose(0, 2, 1))
        acc = s @ acc
        u, f = _mapped(u, f, s)
    raise NoConvergence(f"no isotropic position within {ISOTROPY_MAX_ITER} iterations")


def isotropy_residuals(normals: np.ndarray, areas: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Max-abs deviation from isotropy of each stacked measure mapped by its
    matrix: the (B,) residuals of ``_second_moment`` after ``_mapped``."""
    u, f = np.asarray(normals, dtype=np.float64), np.asarray(areas, dtype=np.float64)
    return _second_moment(*_mapped(u, f, matrices))[1]


@dataclass(frozen=True)
class Type4SweepReport:
    samples: int
    min_observed: float
    bound: float


def type4_sweep(m: WeightPair, samples: int, seed: int = 0) -> Type4SweepReport:
    """Random search over type-4 bodies versus the closed-form lower bound.

    Draws from the first stream spawned by ``SeedSequence(seed)``, so a
    fixed seed gives the same minimum on every run.  A block is drawn as (n, 4, 3)
    frames, uniform on [-1, 1) and centred in buffers that every block reuses, then
    (k, 5) coefficients for the k kept frames, and evaluated as (4, 3, n) component rows.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    best = math.inf
    done = 0
    raw, rows, centre = np.empty((2048, 4, 3)), np.empty((4, 3, 2048)), np.empty((3, 2048))
    while done < samples:
        n = min(2048, samples - done)
        q = np.multiply(rng.random(out=raw[:n]).transpose(1, 2, 0), 2.0, out=rows[..., :n])
        q -= 1.0  # uniform(-1, 1) is -1 + 2 U: these are its bits
        mid = np.add(q[0], q[1], out=centre[:, :n])
        q -= np.divide(np.add(np.add(mid, q[2], out=mid), q[3], out=mid), 4.0, out=mid)
        d = _kernels.det3(q[0].T, q[1].T, q[2].T)
        keep = np.flatnonzero(np.abs(d) > 5e-2)
        if not keep.size:  # a whole tail batch can be slivers; redraw
            continue
        q, d = q.take(keep, axis=2), d[keep]
        neg = d < 0
        q[0], q[1] = np.where(neg, q[1], q[0]), np.where(neg, q[0], q[1])
        q *= np.abs(d) ** (-1.0 / 3.0)
        beta = 1.0 - rng.random(size=(keep.size, 5))  # uniform on (0, 1]
        vals = _kernels.type4_functional_many(q.transpose(2, 0, 1), beta, m.alpha6, m.alpha4)
        best = min(best, float(vals.min()))
        done += keep.size
    return Type4SweepReport(samples, best, type_minimum(4, m).value)


def figure_curves(alpha4_values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Per-type minima as functions of alpha4 at alpha6 = 1.

    Returns a header and one row per alpha4 with the five type values
    (the type-4 column is its attained minimum below alpha4 = 2/sqrt(3) and
    its infimum, the type-3 value, from there on).
    """
    header = ["alpha4", "type1", "type2", "type3", "type4_bound", "type5"]
    rows = []
    for a4 in np.asarray(alpha4_values, dtype=np.float64):
        if a4 <= 0:
            raise ValueError("alpha4 grid must be positive")
        m = WeightPair(1.0, float(a4))
        rows.append([a4] + [type_minimum(i, m).value for i in range(1, 6)])
    return header, np.array(rows)
