from fractions import Fraction as F

import pytest

from conewalk import _zoo
from conewalk._zoo import walk


@pytest.fixture(scope="session")
def five_step_model():
    return _zoo.FIVE_STEP


@pytest.fixture(scope="session")
def simple_walk_2d():
    return _zoo.SIMPLE


@pytest.fixture(scope="session")
def exterior_2d():
    return _zoo.EXTERIOR


@pytest.fixture(scope="session")
def big_step_2d():
    """Quarter-plane walk with steps of size 2, started off the origin."""
    return walk({(2, -1): F(1, 4), (-1, 2): F(1, 4), (-1, -1): F(1, 4),
                 (1, 0): F(1, 4)}, (1, 0))


@pytest.fixture(scope="session")
def octant_3d():
    """Zero-drift simple walk in the octant."""
    return walk({tuple(s if j == i else 0 for j in range(3)): F(1, 6)
                 for i in range(3) for s in (1, -1)}, (0, 0, 0))


@pytest.fixture(scope="session")
def big_step_1d():
    """Half-line walk with steps +2 and -3 from 2."""
    return walk({(2,): F(1, 2), (-3,): F(1, 2)}, (2,))


@pytest.fixture(scope="session")
def trapped_2d():
    return _zoo.TRAPPED


@pytest.fixture(scope="session")
def sym_1d():
    return _zoo.SYM_1D


@pytest.fixture(scope="session")
def neg_1d():
    return _zoo.NEG_1D


@pytest.fixture(scope="session")
def pos_1d():
    return _zoo.POS_1D
