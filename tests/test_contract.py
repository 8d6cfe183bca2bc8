"""The public boundary: every exported function that takes a partition
rejects anything that is not one with ValueError, never a TypeError, an
IndexError or a silent answer for a different partition."""

from __future__ import annotations

import inspect

import pytest

import laddercrystal
from laddercrystal.rimhooks import removable_rim_hooks

# Not partitions: not iterable, not decreasing, a string read digit by digit,
# and a fractional part that int() would truncate.
NOT_PARTITIONS = [None, 5, (1, 2), "21", [2.5]]

PARTITION_PARAMS = {"lam", "mu", "core", "parts"}

# Valid values for the other parameters of the exported functions.
OTHER_ARGS = {
    "i": 0,
    "ell": 3,
    "box": (1, 1),
    "pos": (1, 1),
    "w": 1,
    "hook": removable_rim_hooks((3,), 3)[0],
}
VALID = {"lam": (1,), "mu": (1,), "core": (1,), "parts": (1,)}


def _takes_a_partition():
    found = []
    for name in sorted(dir(laddercrystal)):
        fn = getattr(laddercrystal, name)
        if name.startswith("_") or not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
            continue  # classes, type aliases and constants
        params = list(inspect.signature(fn).parameters)
        found += [(name, param) for param in params if param in PARTITION_PARAMS]
    return found


CASES = _takes_a_partition()


def test_the_contract_covers_the_exported_partition_functions():
    names = {name for name, _ in CASES}
    assert {"transpose", "hook_grid", "addable_boxes", "removable_boxes", "contains", "boxes"} <= names
    assert {"is_jm", "ell_core", "f_tilde", "regularize", "enumerate_jm", "format_partition"} <= names
    assert ("dominance_compare", "mu") in CASES
    assert len(names) >= 40


@pytest.mark.parametrize("bad", NOT_PARTITIONS, ids=repr)
@pytest.mark.parametrize("name, param", CASES)
def test_public_functions_reject_non_partitions(name, param, bad):
    fn = getattr(laddercrystal, name)
    params = inspect.signature(fn).parameters
    args = [bad if p == param else VALID.get(p, OTHER_ARGS.get(p)) for p in params]
    with pytest.raises(ValueError):
        fn(*args)
