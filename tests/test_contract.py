"""The public boundary: every exported function that takes a partition, a
box or a ladder index rejects anything that is not one with ValueError,
never a TypeError, an IndexError or a silent answer for a different input."""

from __future__ import annotations

import inspect

import pytest

import laddercrystal
from laddercrystal import partitions
from laddercrystal.partitions import check_box, ladder_positions
from laddercrystal.rimhooks import removable_rim_hooks

# Not partitions: not iterable, not decreasing, a string read digit by digit,
# and a fractional part that int() would truncate.
NOT_PARTITIONS = [None, 5, (1, 2), "21", [2.5]]

PARTITION_PARAMS = {"lam", "mu", "core", "parts"}

# Not boxes: fractional or bool coordinates (True would read as row 1), no
# pair at all, a string read character by character, and the wrong length.
NOT_BOXES = [(1.5, 1), (1, 2.0), (True, 1), (1, False), None, 5, "11", (1,), (1, 2, 3)]

BOX_PARAMS = {"box", "pos"}

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


def _takes(kinds):
    found = []
    for name in sorted(dir(laddercrystal)):
        fn = getattr(laddercrystal, name)
        if name.startswith("_") or not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
            continue  # classes, type aliases and constants
        params = list(inspect.signature(fn).parameters)
        found += [(name, param) for param in params if param in kinds]
    return found


CASES = _takes(PARTITION_PARAMS)
BOX_CASES = _takes(BOX_PARAMS)


def _call_with(name, param, bad):
    """The exported function name, with bad for param and valid values for the rest."""
    fn = getattr(laddercrystal, name)
    params = inspect.signature(fn).parameters
    return fn(*[bad if p == param else VALID.get(p, OTHER_ARGS.get(p)) for p in params])


def test_the_contract_covers_the_exported_partition_functions():
    names = {name for name, _ in CASES}
    assert {"transpose", "hook_grid", "addable_boxes", "removable_boxes", "contains", "boxes"} <= names
    assert {"is_jm", "ell_core", "f_tilde", "regularize", "enumerate_jm", "format_partition"} <= names
    assert ("dominance_compare", "mu") in CASES
    assert len(names) >= 40


@pytest.mark.parametrize("bad", NOT_PARTITIONS, ids=repr)
@pytest.mark.parametrize("name, param", CASES)
def test_public_functions_reject_non_partitions(name, param, bad):
    with pytest.raises(ValueError):
        _call_with(name, param, bad)


def test_the_contract_covers_the_exported_box_functions():
    names = {name for name, _ in BOX_CASES}
    assert {"contains", "arm", "leg", "hook_length", "residue", "ladder_index", "box_type"} <= names


# Partition functions of the partitions layer that the package does not export.
CORNER_CALLS = {
    "add_box": lambda lam: partitions.add_box(lam, (1, 2)),
    "remove_box": lambda lam: partitions.remove_box(lam, (1, 1)),
    "addable_corners": partitions.addable_corners,
    "removable_corners": partitions.removable_corners,
    "size": partitions.size,
}


@pytest.mark.parametrize("bad", NOT_PARTITIONS, ids=repr)
@pytest.mark.parametrize("name", CORNER_CALLS)
def test_corner_functions_reject_non_partitions(name, bad):
    assert CORNER_CALLS[name]((1,)) is not None  # (1,) is valid input for each
    with pytest.raises(ValueError):
        CORNER_CALLS[name](bad)


def test_corner_functions_take_lists_and_return_tuples():
    # a list used to raise TypeError in add_box and come back as a list from remove_box
    assert partitions.add_box([2, 1], (1, 3)) == (3, 1)
    assert partitions.remove_box([2, 1], (2, 1)) == (2,)
    assert partitions.addable_corners([2, 1]) == [(1, 3), (2, 2), (3, 1)]
    assert partitions.removable_corners([2, 1]) == [(1, 2), (2, 1)]
    assert partitions.size([2, 1]) == 3


@pytest.mark.parametrize(
    "fn, box",
    [
        (partitions.add_box, (1, 2)),  # in the diagram
        (partitions.add_box, (3, 3)),  # off the rim
        (partitions.add_box, [True, 3]),  # not a box, though (1, 3) is addable
        (partitions.remove_box, (1, 1)),  # not a corner
        (partitions.remove_box, (3, 1)),  # outside the diagram
    ],
    ids=repr,
)
def test_box_edits_reject_a_box_that_is_not_a_corner(fn, box):
    with pytest.raises(ValueError):
        fn((2, 1), box)


@pytest.mark.parametrize("bad", NOT_BOXES, ids=repr)
@pytest.mark.parametrize("name, param", BOX_CASES)
def test_public_functions_reject_non_boxes(name, param, bad):
    with pytest.raises(ValueError):
        _call_with(name, param, bad)


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "3", None], ids=repr)
def test_ladder_positions_rejects_non_ladder_indices(bad):
    with pytest.raises(ValueError):
        ladder_positions(bad, 3)


def test_box_checks_keep_the_range_rules():
    assert check_box([2, 3]) == (2, 3)
    assert laddercrystal.contains((2, 1), (5, 5)) is False
    assert laddercrystal.contains((2, 1), (0, 1)) is False
    assert laddercrystal.box_type((2, 1), (0, 1)) == laddercrystal.box_type((2, 1), [0, 1])
    with pytest.raises(ValueError):
        laddercrystal.box_type((2, 1), (-1, 1))
    assert laddercrystal.residue((-2, 3), 3) == 2
    assert ladder_positions(3, 3) == [(1, 2), (3, 1)]


# The partition_cache functions, and their arguments after the partition.
CACHED = [
    ("transpose", ()),
    ("hook_grid", ()),
    ("regularize", (3,)),
    ("ell_core", (3,)),
    ("is_generalized_ell_partition", (3,)),
]


@pytest.mark.parametrize("name, rest", CACHED)
def test_cached_functions_answer_the_same_warm_or_cold(name, rest):
    # lru_cache keys 2.0 and True as 2 and 1, so once the int arguments are
    # cached, a float or bool argument could be answered instead of rejected
    fn = getattr(laddercrystal, name)
    for lam in [(2, 1), (1,)]:
        fn(lam, *rest)
    bad = [((2.0, 1.0), *rest), ((True,), *rest)]
    if rest:
        bad.append(((2, 1), 3.0))
    for args in bad:
        with pytest.raises(ValueError):
            fn(*args)
