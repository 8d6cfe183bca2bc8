"""Enumeration without recursion: partition generation, JM counting and
listing, and the core walk behind the JM census, against scan references."""

from __future__ import annotations

import contextlib
import sys

import pytest

from laddercrystal.cli import _cores, main
from laddercrystal.jm import _partitions_at_most, count_jm, enumerate_jm
from laddercrystal.partitions import all_partitions, partitions_of
from laddercrystal.rimhooks import is_core

import oracles


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextlib.contextmanager
def _headroom(frames: int = 100):
    """A recursion limit only *frames* above the caller's depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_no_depth_grows_with_the_size_or_the_weight(capsys):
    with _headroom():
        assert len(list(partitions_of(1200, 1))) == 1
        assert count_jm((1,), 2000, 3) == 2001
        assert len(enumerate_jm((1,), 40, 3)) == 41
        assert main(["jm", "census", "--ell", "3", "--max-core", "40", "--max-weight", "2", "--plain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 48 + 1  # one line per 3-core of size <= 40, then the total


def test_count_jm_at_a_large_weight_from_the_cli(capsys):
    assert main(["jm", "count", "--ell", "3", "--core", "1", "--weight", "2000", "--plain"]) == 0
    assert capsys.readouterr().out == "2001\n"


@pytest.mark.parametrize("n", range(-2, 15))
def test_partitions_of_matches_the_recursive_reference(n):
    for max_part in [None, -1, 0, 1, 2, 3, 5, n + 1]:
        cap = n if max_part is None else max_part
        expected = list(oracles.partitions(n, cap)) if n >= 0 else []
        assert list(partitions_of(n, max_part)) == expected, (n, max_part)


def test_partitions_at_most_matches_the_length_filtered_scan():
    for k in range(9):
        table = _partitions_at_most(30, k)
        assert table == tuple(sum(len(lam) <= k for lam in all_partitions(n)) for n in range(31))


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_core_walk_matches_the_scan(ell):
    scan = [core for n in range(21) for core in all_partitions(n) if is_core(core, ell)]
    assert _cores(ell, 20) == scan
