import importlib

import pytest

import grane

MODULES = ["augmented", "experiment", "games", "network", "solvers"]

# names the package no longer defines, as (owner, attribute)
REMOVED = [
    ("augmented", "consensual_part"),
    ("games", "project_box"),
    ("solvers", "acceleration_weights"),
    ("games.BoxSet", "bounded"),
    ("games.BoxSet", "contains"),
    ("network.Graph", "to_json"),
    ("network.Graph", "from_json"),
    ("network.MixingMatrix", "to_json"),
]


@pytest.mark.parametrize("module", ["grane"] + [f"grane.{m}" for m in MODULES])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_removed_names_stay_removed():
    for owner, name in REMOVED:
        obj = grane
        for part in owner.split("."):
            obj = getattr(obj, part)
        assert not hasattr(obj, name), f"{owner}.{name}"
        assert name not in grane.__all__ and not hasattr(grane, name), name
    # graphs compare by identity again
    assert grane.Graph.__eq__ is object.__eq__
