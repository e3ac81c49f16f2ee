"""Lower bounds on edge density for mosaics that split into planar factors.

A decomposable mosaic is a product of k planar mosaics (dimension 2k)
optionally crossed with a one-dimensional grid of segment length l
(dimension 2k + 1).  Each planar factor is summarized by its cell area a
and an average edge-count parameter e_hat in [3, 6]; the isoperimetric
inequality for polygons turns these into a lower bound on skeleton
length per unit area, and products of the per-factor vertex and skeleton
densities bound the edge density of the product mosaic.  This module
evaluates those bounds, returns the published closed-form minima and the
corrected ones with their attaining parameters, and re-checks the
monotonicity and convexity facts the derivation leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels


class ConstraintViolated(ValueError):
    """Component parameters break the unit-cell-volume product constraint."""


class CertificateFailed(RuntimeError):
    """A numeric monotonicity/convexity certificate found a bad grid point."""


class OracleBoxEdge(RuntimeError):
    """The oracle's best grid point lies on the edge of the log-area box, so the box may hide the minimum."""


@dataclass(frozen=True)
class PlanarComponent:
    """One planar factor: cell area and average edge-count parameter."""

    area: float
    e_hat: float

    def __post_init__(self) -> None:
        if not (self.area > 0 and math.isfinite(self.area)):
            raise ValueError("area must be positive")
        if not (3.0 <= self.e_hat <= 6.0):
            raise ValueError("e_hat must lie in [3, 6]")


@dataclass(frozen=True)
class SegmentComponent:
    """The one-dimensional factor: spacing of the segment grid."""

    length: float

    def __post_init__(self) -> None:
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class DecompositionSpec:
    """A k-fold planar product, optionally crossed with a segment grid.

    Unit cell volume pins the free scale: without a segment the areas
    multiply to 1, with one they multiply to 1/length.
    """

    planars: tuple[PlanarComponent, ...]
    segment: SegmentComponent | None = None

    def __post_init__(self) -> None:
        planars = tuple(self.planars)
        if len(planars) < 1:
            raise ValueError("need at least one planar component")
        object.__setattr__(self, "planars", planars)
        prod = math.prod(c.area for c in planars)
        target = 1.0 if self.segment is None else 1.0 / self.segment.length
        if abs(prod - target) > 1e-9 * max(1.0, target):
            raise ConstraintViolated(
                f"area product {prod:.12g} != required {target:.12g}"
            )


def density_bound_even(spec: DecompositionSpec) -> float:
    """Edge-density lower bound for a pure planar product (dimension 2k)."""
    if spec.segment is not None:
        raise ValueError("even-dimensional bound takes a spec without segment")
    return _spec_bound(spec, None)


def density_bound_odd(spec: DecompositionSpec) -> float:
    """Edge-density lower bound with a segment factor (dimension 2k + 1)."""
    if spec.segment is None:
        raise ValueError("odd-dimensional bound needs a segment component")
    return _spec_bound(spec, spec.segment.length)


def _spec_bound(spec: DecompositionSpec, length: float | None) -> float:
    return float(_bound_arrays([c.e_hat for c in spec.planars], [c.area for c in spec.planars], length))


def minimize_density(n: int) -> tuple[float, DecompositionSpec]:
    """Published minimum of the bound in dimension n with its parameters.

    Even n and n = 3 reproduce the bound evaluated at the returned spec
    exactly.  For odd n >= 5 the published closed form sits below the
    bound functional's actual minimum (see brute_force_minimize), so it
    remains a valid lower bound but is not attained by the returned
    parameters.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    k, odd = divmod(n, 2)
    if not odd:
        if k == 1:
            value = math.sqrt(2.0 * math.sqrt(3.0))
            spec = DecompositionSpec((PlanarComponent(1.0, 6.0),))
        else:
            value = k * math.sqrt(3.0 * math.sqrt(3.0)) / 2.0 ** (k - 1)
            spec = DecompositionSpec(tuple(PlanarComponent(1.0, 3.0) for _ in range(k)))
        return value, spec
    value = 3.0 * math.sqrt(3.0) * k ** (2.0 / 3.0) / 2.0**k
    area = 3.0 ** (-1.0 / (2.0 * k)) * k ** (-2.0 / (3.0 * k))
    length = math.sqrt(3.0) * k ** (2.0 / 3.0)
    spec = DecompositionSpec(
        tuple(PlanarComponent(area, 3.0) for _ in range(k)), SegmentComponent(length)
    )
    return value, spec


def corrected_minimum(n: int) -> tuple[float, DecompositionSpec]:
    """True minimum of the bound in dimension n with its attaining parameters.

    Even n: the published minimum, which the bound attains.  Odd n = 2k + 1:
    e_hat = 3 with equal areas and segment length l* = 3^(3k / (2(2k + 1))),
    where the bound is (2k + 1) 3^(3k / (4k + 2)) / 2^k, read off the odd
    column of ``bound_curve`` at e_hat = 3.  It equals the published closed
    form only at n = 3 (2.4164775561647036 against 2.0621 at n = 5).
    """
    k, odd = divmod(n, 2)
    if n < 2 or not odd:
        return minimize_density(n)
    _, table = bound_curve(k, np.array([3.0]))
    length = 3.0 ** (3.0 * k / (2.0 * (2.0 * k + 1.0)))
    area = length ** (-1.0 / k)
    spec = DecompositionSpec(
        tuple(PlanarComponent(area, 3.0) for _ in range(k)), SegmentComponent(length)
    )
    return float(table[0, 2]), spec


def _bound_arrays(es: list, areas: list, length):
    """The even bound, plus the segment term when ``length`` is given.

    Elementwise: each e_hat, area and the length may be a float or an
    array, so specs and whole oracle grids share this one formula.  The
    product over the other factors of term i is the running prefix before
    i times the suffix table's product after it, so k factors cost O(k).
    For k <= 3, or factors e_hat - 2 that are powers of two, it is to the
    bit each product formed left to right; otherwise it is within ulps.
    """
    k = len(es)
    rest = [e - 2.0 for e in es]
    after = [1.0]  # after[j]: the product of the factors past the last j
    for f in reversed(rest[1:]):
        after.append(f * after[-1])
    total, before = 0.0, 2.0 ** (1 - k)  # the bound's 1 / 2^(k - 1): a power of two, so exact here
    for e, area, f, tail in zip(es, areas, rest, reversed(after)):
        total = total + np.sqrt(_h(e) * area) * (before * tail)
        before = before * f
    if length is not None:
        cross = length / 2.0**k
        for f in rest:
            cross = cross * f
        total = total + cross
    return total


def _oracle_bound(x, k: int, odd: bool):
    """The bound at oracle coordinates (k e_hats, then the free log areas),
    elementwise over coordinates that broadcast together: the rows of a
    column stack or the axes of an open mesh.  The segment length (odd)
    or the last area (even) is 1 / (product of the areas)."""
    areas = [np.exp(v) for v in x[k:]]
    rest = 1.0 / math.prod(areas)
    if odd:
        return _bound_arrays(list(x[:k]), areas, rest)
    return _bound_arrays(list(x[:k]), areas + [rest], None)


#: The oracle scans each free log area on [-LOG_AREA_HALF_WIDTH, LOG_AREA_HALF_WIDTH].
LOG_AREA_HALF_WIDTH = 1.5

#: Most points in the decomposable oracle's grid scan.
MAX_SCAN_POINTS = 250_000


def _axis_points(grid_n: int, dims: int) -> int:
    """Points per axis of the oracle scan: grid_n + 1, less the smallest even
    number that brings the grid to ``MAX_SCAN_POINTS``, but not below 4 or 5."""
    m, cap = grid_n + 1, MAX_SCAN_POINTS
    r = int(cap ** (1.0 / dims))
    r += (r + 1) ** dims <= cap  # r is now the largest integer with r**dims <= cap
    r -= r**dims > cap
    if m <= max(r, 5):
        return m
    return max(r - (r - m) % 2, 4 + m % 2)


#: Most points the oracle scan evaluates at once, in slabs of its first axis.
SLAB_POINTS = 65_536


def _scan_min(axes: list, k: int, odd: bool) -> tuple[float, tuple[int, ...]]:
    """Value and index of the first minimum in C order of ``_oracle_bound``
    over the grid of ``axes``.  It is evaluated on an open mesh, in slabs of
    the first axis of at most ``SLAB_POINTS`` points: the exponentials and
    tangents run on the axes and the products broadcast to the slab, so
    the temporaries stay small.  A slab replaces the best only with a
    strictly smaller value, so the index is that of a whole-grid scan."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(a) for a in axes)
    row = math.prod(shape[1:])
    rows = max(1, SLAB_POINTS // row)
    best, flat = math.inf, 0
    for lo in range(0, shape[0], rows):
        vals = _oracle_bound([mesh[0][lo : lo + rows], *mesh[1:]], k, odd)
        i = int(np.argmin(vals))
        if vals.flat[i] < best:
            best, flat = vals.flat[i], lo * row + i
    return best, np.unravel_index(flat, shape)


def brute_force_minimize(n: int, grid_n: int = 30) -> float:
    """Grid plus coordinate-descent search for the bound's true minimum.

    Free variables are the e_hat parameters and log areas; the product
    constraint eliminates the last area (even case) or the segment
    length (odd case), so every evaluated point is exactly feasible.
    The per-axis grid resolution shrinks in higher dimensions to keep
    the scan at most a quarter million points.  ``_scan_min`` finds the
    best grid point; one on the edge of the log-area box raises
    ``OracleBoxEdge`` (the e_hat axes span the bound's domain [3, 6], so an
    edge there is expected).  ``_kernels.greedy_descent`` refines the best grid
    point from step 3 / grid_n; its moves step each coordinate down and up,
    and its box refuses an e_hat outside [3, 6].
    """
    if n < 2 or n > 7:
        raise ValueError("oracle covers dimensions 2..7")
    if grid_n < 20:
        raise ValueError("grid_n must be at least 20")
    k, odd = divmod(n, 2)
    dims = 2 * k - 1 + odd

    m, w = _axis_points(grid_n, dims), LOG_AREA_HALF_WIDTH
    axes = [np.linspace(3.0, 6.0, m)] * k + [np.linspace(-w, w, m)] * (dims - k)
    at = _scan_min(axes, k, odd)[1]
    for j in range(k, dims):
        if at[j] in (0, m - 1):
            raise OracleBoxEdge(f"grid argmin on the edge of log-area axis {j - k} at {axes[j][at[j]]:+g}")
    x = np.array([axis[i] for axis, i in zip(axes, at)])

    signs = np.repeat(np.eye(dims), 2, axis=0) * np.tile([-1.0, 1.0], dims)[:, None]
    lo = np.array([3.0] * k + [-np.inf] * (dims - k))
    hi = np.array([6.0] * k + [np.inf] * (dims - k))
    return _kernels.greedy_descent(lambda y: _oracle_bound(y, k, odd), signs, lo, hi, x, 3.0 / grid_n)[0]


def bound_curve(k: int, e_values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Symmetric slice of the bound versus e_hat at fixed factor count.

    The even column uses unit areas.  The odd column optimizes the
    segment length in closed form: with areas l^(-1/k) the bound is
    c1 l^(-1/(2k)) + c2 l (c1 the even column, c2 = ((e_hat - 2)/2)^k),
    minimized at l = (c1 / (2 k c2))^(2k/(2k+1)).
    """
    if k < 1:
        raise ValueError("factor count must be positive")
    e = np.asarray(e_values, dtype=np.float64)
    if not ((3.0 <= e) & (e <= 6.0)).all():
        raise ValueError("e_hat grid must lie in [3, 6]")
    even = _bound_arrays([e] * k, [1.0] * k, None)
    c2 = ((e - 2.0) / 2.0) ** k
    length = (even / (2.0 * k * c2)) ** (2.0 * k / (2.0 * k + 1.0))
    odd = _bound_arrays([e] * k, [length ** (-1.0 / k)] * k, length)
    return ["e_hat", "even_bound", "odd_bound"], np.column_stack([e, even, odd])


def _h(t):
    """h(t) = t tan(pi / t), elementwise: a factor of area a and e_hat e has skeleton density >= sqrt(h(e) / a)."""
    return t * np.tan(np.pi / t)


def _h1(t):
    sec2 = 1.0 / np.cos(np.pi / t) ** 2
    return np.tan(np.pi / t) - np.pi / t * sec2


def _h2(t):
    sec2 = 1.0 / np.cos(np.pi / t) ** 2
    return 2.0 * np.pi**2 / t**3 * np.tan(np.pi / t) * sec2


def _g2(x):
    # g(x) = ln h(e^x + 2), elementwise; both derivative terms written out explicitly
    tp = np.exp(x)
    t = tp + 2.0
    h, h1, h2 = _h(t), _h1(t), _h2(t)
    return tp * h1 / h + tp * tp * (h2 * h - h1 * h1) / (h * h)


@dataclass(frozen=True)
class CertificateReport:
    """Minimum margins of the sign conditions; all must be positive."""

    grid_points: int
    root_decreasing_margin: float
    edge_weighted_increasing_margin: float
    product_increasing_margin: float
    root_convexity_margin: float
    g2_min: float
    g2_fd_residual: float
    failures: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


def monotonicity_certificates(grid_points: int = 10_000) -> CertificateReport:
    """Dense-grid check of the facts the lower-bound derivation uses.

    On [3, 6]: sqrt(x tan(pi/x)) strictly decreases and is convex, while
    (x-2) sqrt(x tan(pi/x)) and (x-2) x tan(pi/x) strictly increase.  On
    [0, ln 4]: the second derivative of ln h(e^x + 2) stays positive
    (checked analytically and cross-checked by finite differences).
    Raises CertificateFailed if any margin is nonpositive.
    """
    if grid_points < 100:
        raise ValueError("need at least 100 grid points")
    x = np.linspace(3.0, 6.0, grid_points)
    hx = _h(x)
    f_root = np.sqrt(hx)
    f_edge = (x - 2.0) * f_root
    f_prod = (x - 2.0) * hx
    dec = float((-np.diff(f_root)).min())
    inc = float(np.diff(f_edge).min())
    prod_inc = float(np.diff(f_prod).min())
    convex = float((f_root[2:] + f_root[:-2] - 2.0 * f_root[1:-1]).min())

    g2_min = float(_g2(np.linspace(0.0, math.log(4.0), grid_points)).min())
    # spot-check the analytic formula against central differences
    step = 1e-5
    v = np.linspace(0.0, math.log(4.0), 7)
    g = np.log(_h(np.exp(v + np.array([[-step], [0.0], [step]])) + 2.0))
    fd = (g[2] + g[0] - 2.0 * g[1]) / step**2
    fd_res = float(np.abs(fd - _g2(v)).max())

    failures = []
    if dec <= 0:
        failures.append("sqrt(x tan(pi/x)) not strictly decreasing")
    if inc <= 0:
        failures.append("(x-2) sqrt(x tan(pi/x)) not strictly increasing")
    if prod_inc <= 0:
        failures.append("(x-2) x tan(pi/x) not strictly increasing")
    if convex <= 0:
        failures.append("sqrt(x tan(pi/x)) not convex")
    if g2_min <= 0:
        failures.append("second derivative of ln h(e^x + 2) not positive")
    if fd_res > 1e-4:
        failures.append("analytic second derivative disagrees with finite differences")
    report = CertificateReport(
        grid_points, dec, inc, prod_inc, convex, g2_min, fd_res, tuple(failures)
    )
    if failures:
        raise CertificateFailed("; ".join(failures))
    return report
