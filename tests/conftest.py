import math

import numpy as np
import pytest

from mosaicdensity import zonotope


# beta zero patterns producing each combinatorial type
TYPE_PATTERNS = {
    1: (1, 1, 0, 1, 0, 0),
    2: (0, 0, 1, 1, 1, 1),
    3: (0, 1, 1, 1, 1, 0),
    4: (1, 1, 1, 1, 1, 0),
    5: (1, 1, 1, 1, 1, 1),
}


def random_beta(rng: np.random.Generator, type_index: int = 5) -> zonotope.BetaVector:
    mask = np.array(TYPE_PATTERNS[type_index], dtype=np.float64)
    return zonotope.BetaVector(mask * rng.uniform(0.2, 1.3, 6))


def random_body(rng: np.random.Generator, type_index: int = 5) -> zonotope.Zonotope:
    return zonotope.build_from_parameters(zonotope.random_frame(rng), random_beta(rng, type_index))


def assert_facet_measure(normals: np.ndarray, areas: np.ndarray) -> None:
    """A facet measure the isotropy fixed point can take: unit normals to 1e-9, positive areas, closed
    (|sum F_i u_i| <= 1e-9 sum F_i) and normals of rank 3 at 1e-9."""
    assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-9
    assert (areas > 0).all()
    assert np.linalg.norm(areas @ normals) <= 1e-9 * float(areas.sum())
    assert np.linalg.matrix_rank(normals, tol=1e-9) == 3


def line_count(lat, reach: float) -> int:
    """The (c1, c2) lattice lines of a ball of radius ``reach``, by the formula that tiling's line budget bounds."""
    return math.prod(2 * math.floor(s * reach) + 3 for s in lat._reduction[2][:2].tolist())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def unit_shapes() -> dict[str, zonotope.Zonotope]:
    """The five canonical parallelohedra at unit volume, as the CLI builds them."""
    return {name: zonotope.unit_shape(name) for name in zonotope.UNIT_SHAPES}
