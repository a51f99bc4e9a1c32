"""The named walks of the tests, the demos and CI, each defined once.

Private: nothing in the package imports this module and it is not in
``conewalk.__all__``, so the program loads it only when asked to.  Each
walk lists its steps in the order its users have always read them: the
Monte Carlo sampler picks steps by inverse CDF in that order and float sums
add in it.  A walk's model file is ``json.dumps(walk.to_dict())``.
"""

from fractions import Fraction as F

from .model import ConeSpec, StepDistribution, WalkModel, build_model


def walk(weights, start, normals=None) -> WalkModel:
    """The walk taking step v with weight ``weights[v]``, steps in the
    order of ``weights``, from ``start``, confined to the orthant or to the
    cone of the given normals."""
    d = len(start)
    cone = ConeSpec.orthant(d) if normals is None else ConeSpec.polyhedral(normals)
    return build_model(StepDistribution(d, tuple(weights.items())), cone, start)


# Uniform quarter-plane walk on {E, S, W, N, NE}: drift (1/5, 1/5) into the cone.
FIVE_STEP = walk({(1, 0): F(1, 5), (0, -1): F(1, 5), (-1, 0): F(1, 5),
                  (0, 1): F(1, 5), (1, 1): F(1, 5)}, (0, 0))
# Five-step at weights 1, 1, 1, 1, 2 over 6: no exponential family on its step
# lattice, so its lattice tilt is the identity.
HEAVY_NE = walk({(1, 0): F(1, 6), (0, -1): F(1, 6), (-1, 0): F(1, 6),
                 (0, 1): F(1, 6), (1, 1): F(1, 3)}, (0, 0))
# Zero-drift simple walk on {E, W, N, S}.
SIMPLE = walk({(1, 0): F(1, 4), (-1, 0): F(1, 4), (0, 1): F(1, 4), (0, -1): F(1, 4)},
              (0, 0))
# Quarter-plane walk with drift (-1/6, -1/6): no escape bounds, lattice index 2.
EXTERIOR = walk({(1, 0): F(1, 6), (0, 1): F(1, 6), (-1, 0): F(1, 3), (0, -1): F(1, 3)},
                (0, 0))
# The exterior steps in the integer-normal wedge {x >= 0, x - y >= 0}.
EXTERIOR_WEDGE = walk(dict(EXTERIOR.dist.steps), (0, 0), [[1, 0], [1, -1]])
# Every step stays in the quarter plane.
TRAPPED = walk({(1, 0): F(1, 2), (0, 1): F(1, 2)}, (0, 0))
# Descends 3 a step on each axis: its exit band is 3(n - k) wide.
LONG_BACK = walk({(1, 0): F(1, 3), (0, 1): F(1, 3), (-3, 0): F(1, 6), (0, -3): F(1, 6)},
                 (0, 0))
# Weights on (+-1, +-1) with no exponential family, lattice index 4.
SKEWED = walk({(1, 1): F(12, 40), (1, -1): F(12, 40), (-1, 1): F(13, 40),
               (-1, -1): F(3, 40)}, (1, 1))
# An exponential family on (+-1, +-1), lattice index 4.
DIAGONAL = walk({(1, 1): F(1, 8), (-1, 1): F(3, 8), (1, -1): F(1, 8), (-1, -1): F(3, 8)},
                (1, 2))
# The product of the 1D walks with p = 2/3 from 1 and p = 1/4 from 2: its
# survival is the product of their closed forms.
PRODUCT_DIAGONAL = walk({(1, 1): F(1, 6), (1, -1): F(1, 2), (-1, 1): F(1, 12),
                         (-1, -1): F(1, 4)}, (1, 2))
# E, N, U at 1/4 and W, S, D at 1/12: a tilted 3D walk of lattice index 2 that
# can exit on all three axes.
TILTED_OCTANT = walk({(1, 0, 0): F(1, 4), (0, 1, 0): F(1, 4), (0, 0, 1): F(1, 4),
                      (-1, 0, 0): F(1, 12), (0, -1, 0): F(1, 12), (0, 0, -1): F(1, 12)},
                     (1, 0, 2))
# Steps +1 and -1 on the half-line, at 1/2 | 1/2, 1/4 | 3/4 and 3/4 | 1/4.
SYM_1D = walk({(1,): F(1, 2), (-1,): F(1, 2)}, (0,))
NEG_1D = walk({(1,): F(1, 4), (-1,): F(3, 4)}, (0,))
POS_1D = walk({(1,): F(3, 4), (-1,): F(1, 4)}, (0,))

# Every walk above by its name in lower case, the stem of its model file.
WALKS = {name.lower(): value for name, value in list(globals().items())
         if isinstance(value, WalkModel)}
