"""The walk zoo: each named walk keeps the model hash and the step order of
the definitions it replaced, its model file loads back to it, and the
program never imports it."""

import json
import subprocess
import sys

import pytest

from conewalk import _zoo, parse_model

# model_hash() and the step vectors, in order, of each walk
PINNED = {
    "five_step": ("7d28b791292473dc", [(1, 0), (0, -1), (-1, 0), (0, 1), (1, 1)]),
    "heavy_ne": ("b9ca994454e3ec26", [(1, 0), (0, -1), (-1, 0), (0, 1), (1, 1)]),
    "simple": ("f24c3c099429067b", [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    "exterior": ("9b61fd5f39faf2ec", [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "exterior_wedge": ("fa6db1dde5683990", [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "trapped": ("b490e31b12518c33", [(1, 0), (0, 1)]),
    "long_back": ("7c56ce924ec891c6", [(1, 0), (0, 1), (-3, 0), (0, -3)]),
    "skewed": ("ce621b8977b94eb4", [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    "diagonal": ("7969397896f4b628", [(1, 1), (-1, 1), (1, -1), (-1, -1)]),
    "product_diagonal": ("9f1002effe784338", [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    "tilted_octant": ("445184bd39ed3099", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                           (-1, 0, 0), (0, -1, 0), (0, 0, -1)]),
    "sym_1d": ("021feaa245b2a8e9", [(1,), (-1,)]),
    "neg_1d": ("99329780f9396be9", [(1,), (-1,)]),
    "pos_1d": ("b6a18af80f443855", [(1,), (-1,)]),
}


def test_every_walk_is_pinned():
    assert list(_zoo.WALKS) == list(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_hash_step_order_and_model_file(name):
    model = _zoo.WALKS[name]
    digest, vectors = PINNED[name]
    assert model.model_hash() == digest
    assert [v for v, _ in model.dist.steps] == vectors
    assert parse_model(json.dumps(model.to_dict())) == model


def test_program_does_not_import_the_zoo():
    code = ("import sys, conewalk, conewalk.cli\n"
            "sys.exit('conewalk._zoo' in sys.modules or '_zoo' in conewalk.__all__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
