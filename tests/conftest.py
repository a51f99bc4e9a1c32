from fractions import Fraction as F

import pytest

from conewalk import ConeSpec, OneDimModel, StepDistribution, build_model


def make_2d(weighted_steps, start=(0, 0)):
    dist = StepDistribution(2, tuple((v, w) for v, w in weighted_steps.items()))
    return build_model(dist, ConeSpec.orthant(2), start)


@pytest.fixture(scope="session")
def five_step_model():
    """Uniform quarter-plane walk on {E, S, W, N, NE}."""
    return make_2d({
        (1, 0): F(1, 5), (0, -1): F(1, 5), (-1, 0): F(1, 5),
        (0, 1): F(1, 5), (1, 1): F(1, 5),
    })


@pytest.fixture(scope="session")
def simple_walk_2d():
    """Zero-drift simple walk on {E, W, N, S}."""
    return make_2d({
        (1, 0): F(1, 4), (-1, 0): F(1, 4), (0, 1): F(1, 4), (0, -1): F(1, 4),
    })


@pytest.fixture(scope="session")
def exterior_2d():
    """Quarter-plane walk with drift (-1/6, -1/6)."""
    return make_2d({
        (1, 0): F(1, 6), (0, 1): F(1, 6), (-1, 0): F(1, 3), (0, -1): F(1, 3),
    })


@pytest.fixture(scope="session")
def big_step_2d():
    """Quarter-plane walk with steps of size 2, started off the origin."""
    return make_2d({(2, -1): F(1, 4), (-1, 2): F(1, 4), (-1, -1): F(1, 4),
                    (1, 0): F(1, 4)}, start=(1, 0))


@pytest.fixture(scope="session")
def octant_3d():
    """Zero-drift simple walk in the octant."""
    steps = [tuple(s if j == i else 0 for j in range(3))
             for i in range(3) for s in (1, -1)]
    dist = StepDistribution(3, tuple((v, F(1, 6)) for v in steps))
    return build_model(dist, ConeSpec.orthant(3), (0, 0, 0))


@pytest.fixture(scope="session")
def big_step_1d():
    """Half-line walk with steps +2 and -3 from 2."""
    dist = StepDistribution(1, (((2,), F(1, 2)), ((-3,), F(1, 2))))
    return build_model(dist, ConeSpec.orthant(1), (2,))


@pytest.fixture(scope="session")
def trapped_2d():
    return make_2d({(1, 0): F(1, 2), (0, 1): F(1, 2)})


@pytest.fixture(scope="session")
def sym_1d():
    return OneDimModel(p=F(1, 2), q=F(1, 2)).to_walk_model()


@pytest.fixture(scope="session")
def neg_1d():
    return OneDimModel(p=F(1, 4), q=F(3, 4)).to_walk_model()


@pytest.fixture(scope="session")
def pos_1d():
    return OneDimModel(p=F(3, 4), q=F(1, 4)).to_walk_model()
