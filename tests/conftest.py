import math

import numpy as np
import pytest

from mosaicdensity import zonotope


def random_frame(rng: np.random.Generator) -> zonotope.GeneratorSet:
    """Normalized centered frame; slivers rejected."""
    while True:
        v = rng.normal(size=(4, 3))
        v[3] = -(v[0] + v[1] + v[2])
        if abs(np.linalg.det(v[:3])) >= 5e-2:
            return zonotope.validate_generators(v)


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
    return zonotope.build_from_parameters(random_frame(rng), random_beta(rng, type_index))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def unit_shapes() -> dict[str, zonotope.Zonotope]:
    """The five canonical parallelohedra at unit volume."""
    hx = (2.0 / (3.0 * math.sqrt(3.0))) ** (1.0 / 3.0)
    return {
        "cube": zonotope.cube(),
        "hexprism": zonotope.hexagonal_prism(hx, hx),
        "rhombic": zonotope.rhombic_dodecahedron(math.sqrt(3.0) / 2.0 ** (4.0 / 3.0)),
        "elongated": zonotope.unit_volume(zonotope.elongated_rhombic_dodecahedron(0.55)),
        "truncocta": zonotope.truncated_octahedron(2.0 ** (-7.0 / 6.0)),
    }
