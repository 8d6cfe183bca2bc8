"""Expected crystal levels, computed without the crystal operators."""

from __future__ import annotations

from laddercrystal.partitions import Partition, all_partitions, is_regular
from laddercrystal.regular import deregularize


def regular_counts(ell: int, nmax: int) -> list[int]:
    """Number of ell-regular partitions of each n through nmax."""
    return [sum(1 for lam in all_partitions(n) if is_regular(lam, ell)) for n in range(nmax + 1)]


def ladder_node_levels(ell: int, nmax: int) -> list[set[Partition]]:
    """Deregularizations of the regular partitions, level by level."""
    return [
        {deregularize(lam, ell) for lam in all_partitions(n) if is_regular(lam, ell)}
        for n in range(nmax + 1)
    ]
