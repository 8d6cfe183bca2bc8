"""Classification, decomposition and counting of (ell,0)-JM partitions.

A partition is (ell,0)-JM when no box with hook length divisible by ell sits
in the same row as a box with indivisible hook and in the same column as
another.  Equivalently (and this module checks both sides) it is a
"generalized ell-partition": every removable ell-rim hook, hereditarily, is a
horizontal or vertical strip, and opposite-orientation hooks never touch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .partitions import (
    Box,
    Partition,
    all_partitions,
    check_ell,
    check_partition,
    hook_grid,
    is_regular,
    partition_cache,
    transpose,
)
from .rimhooks import (
    HORIZONTAL,
    VERTICAL,
    _ell_core,
    _is_core,
    removable_rim_hooks,
    _remove,
    adjacent,
)


class NotJMPartitionError(ValueError):
    pass


class InvalidDecompositionError(ValueError):
    pass


class NotACoreError(ValueError):
    pass


class FayersWitness(NamedTuple):
    """Boxes certifying failure of the JM condition.

    base has hook length divisible by ell; row_mate (same row) and col_mate
    (same column) both have indivisible hooks.
    """

    base: Box
    row_mate: Box
    col_mate: Box


@dataclass(frozen=True)
class JMDecomposition:
    """Skeleton (mu, r, s) plus hook multiplicities (rho, sigma) of a JM partition.

    mu is an ell-core whose first two rows and first two columns differ by
    less than ell-1; r rows and s columns of successive difference ell-1 are
    attached above and to its left; rho[i] horizontal hooks hang off row i+1
    (i <= r) and sigma[j] vertical hooks off column j+1 (j <= s).
    """

    mu: Partition
    r: int
    s: int
    rho: Partition
    sigma: Partition


def star_condition(lam: Partition, ell: int) -> bool:
    """True when every column has all or none of its hook lengths divisible by ell."""
    check_ell(ell)
    lam = check_partition(lam)
    grid = hook_grid(lam)
    cols = transpose(lam)
    for col in range(1, len(cols) + 1):
        flags = {grid[row - 1][col - 1] % ell == 0 for row in range(1, cols[col - 1] + 1)}
        if len(flags) > 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _only_horizontal_hereditarily(lam: Partition, ell: int) -> bool:
    seen = {lam}
    todo = [lam]
    while todo:
        cur = todo.pop()
        hooks = removable_rim_hooks(cur, ell)
        if any(h.shape != HORIZONTAL for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            if rest not in seen:
                seen.add(rest)
                todo.append(rest)
    return True


def _is_ell_partition(lam: Partition, ell: int) -> bool:
    return is_regular(lam, ell) and _only_horizontal_hereditarily(lam, ell)


def is_ell_partition(lam: Partition, ell: int) -> bool:
    """ell-regular, and no removal sequence of horizontal ell-rim hooks ever
    exposes a non-horizontal one."""
    check_ell(ell)
    return _is_ell_partition(check_partition(lam), ell)


def _fayers_witness(lam: Partition, ell: int) -> FayersWitness | None:
    grid = hook_grid(lam)
    cols = transpose(lam)
    for a in range(1, len(lam) + 1):
        row_hooks = grid[a - 1]
        for b in range(1, lam[a - 1] + 1):
            if row_hooks[b - 1] % ell:
                continue
            y = next((c for c in range(1, lam[a - 1] + 1) if row_hooks[c - 1] % ell), None)
            if y is None:
                continue
            x = next((r for r in range(1, cols[b - 1] + 1) if grid[r - 1][b - 1] % ell), None)
            if x is None:
                continue
            return FayersWitness((a, b), (a, y), (x, b))
    return None


def fayers_witness(lam: Partition, ell: int) -> FayersWitness | None:
    """First witness (lexicographic in base row, base col, row_mate col,
    col_mate row) that lam is not (ell,0)-JM, or None."""
    check_ell(ell, minimum=3)
    return _fayers_witness(check_partition(lam), ell)


def _is_jm(lam: Partition, ell: int) -> bool:
    return _fayers_witness(lam, ell) is None


def is_jm(lam: Partition, ell: int) -> bool:
    return fayers_witness(lam, ell) is None


@partition_cache
def is_generalized_ell_partition(lam: Partition, ell: int) -> bool:
    """Hereditarily: hooks only horizontal/vertical, and removing one never
    exposes a touching hook of the opposite orientation.

    Walks every partition reachable by hook removals from a worklist, each
    once, so no recursion depth grows with the weight.
    """
    check_ell(ell)
    lam = check_partition(lam)
    seen = {lam}
    todo = [(lam, removable_rim_hooks(lam, ell))]
    while todo:
        cur, hooks = todo.pop()
        if any(h.shape not in (HORIZONTAL, VERTICAL) for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            rest_hooks = removable_rim_hooks(rest, ell)
            opposite = VERTICAL if hook.shape == HORIZONTAL else HORIZONTAL
            for other in rest_hooks:
                if other.shape == opposite and adjacent(hook, other):
                    return False
            if rest not in seen:
                seen.add(rest)
                todo.append((rest, rest_hooks))
    return True


def _leading_run(nu: Partition, ell: int) -> int:
    """Number of leading parts with successive difference exactly ell-1."""
    r = 0
    while True:
        cur = nu[r] if r < len(nu) else 0
        nxt = nu[r + 1] if r + 1 < len(nu) else 0
        if cur - nxt != ell - 1:
            return r
        r += 1


def _core_frame(core: Partition, ell: int) -> tuple[Partition, int, int]:
    """Strip the leading difference-(ell-1) rows and columns off a core."""
    r = _leading_run(core, ell)
    s = _leading_run(transpose(core), ell)
    mu = tuple(p - s for p in core[r:] if p - s > 0)
    return check_partition(mu), r, s


def decompose_jm(lam: Partition, ell: int) -> JMDecomposition:
    """Record, per row and column, the hooks removed in passing to the core.

    Horizontal hooks are removed first (topmost first), then vertical ones
    (leftmost first); for a JM partition the tallies are order-independent.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    if not _is_jm(lam, ell):
        raise NotJMPartitionError(f"{lam} is not ({ell},0)-JM")
    rho_count: dict[int, int] = {}
    sigma_count: dict[int, int] = {}
    cur = lam
    while True:
        hooks = removable_rim_hooks(cur, ell)
        if not hooks:
            break
        horizontal = [h for h in hooks if h.shape == HORIZONTAL]
        if horizontal:
            hook = horizontal[0]
            row = hook.boxes[0][0]
            rho_count[row] = rho_count.get(row, 0) + 1
        else:
            hook = min(hooks, key=lambda h: h.boxes[0][1])
            col = hook.boxes[0][1]
            sigma_count[col] = sigma_count.get(col, 0) + 1
        cur = _remove(cur, hook)
    mu, r, s = _core_frame(cur, ell)
    rho = _tally_to_partition(rho_count)
    sigma = _tally_to_partition(sigma_count)
    if len(rho) > r + 1 or len(sigma) > s + 1:
        raise AssertionError(f"hook tallies escape the frame for {lam}: {rho}, {sigma}")
    return JMDecomposition(mu, r, s, rho, sigma)


def _tally_to_partition(count: dict[int, int]) -> Partition:
    if not count:
        return ()
    parts = tuple(count.get(i, 0) for i in range(1, max(count) + 1))
    return check_partition(parts)


def _validate_decomposition(dec: JMDecomposition, ell: int) -> JMDecomposition:
    mu = check_partition(dec.mu)
    rho = check_partition(dec.rho)
    sigma = check_partition(dec.sigma)
    r, s = dec.r, dec.s
    if r < 0 or s < 0:
        raise InvalidDecompositionError(f"r and s must be non-negative: {dec}")
    if not _is_core(mu, ell):
        raise InvalidDecompositionError(f"mu must be an {ell}-core: {mu}")
    mu_t = transpose(mu)
    row_diff = (mu[0] - (mu[1] if len(mu) > 1 else 0)) if mu else 0
    col_diff = (mu_t[0] - (mu_t[1] if len(mu_t) > 1 else 0)) if mu_t else 0
    if row_diff >= ell - 1 or col_diff >= ell - 1:
        raise InvalidDecompositionError(
            f"mu must have leading row and column differences < {ell - 1}: {mu}"
        )
    if len(rho) > r + 1:
        raise InvalidDecompositionError(f"rho has more than r+1 parts: {dec}")
    if len(sigma) > s + 1:
        raise InvalidDecompositionError(f"sigma has more than s+1 parts: {dec}")
    if not mu and len(rho) == r + 1 and len(sigma) == s + 1:
        raise InvalidDecompositionError(
            f"with empty mu at most one of rho[r], sigma[s] may be positive: {dec}"
        )
    return JMDecomposition(mu, r, s, rho, sigma)


def _frame_rows(mu: Partition, r: int, s: int, ell: int) -> list[int]:
    mu1 = mu[0] if mu else 0
    rows = [s + mu1 + (r - i) * (ell - 1) for i in range(r)]
    rows += [s + p for p in mu]
    for j in range(s, 0, -1):
        rows += [j] * (ell - 1)
    return rows


def compose_jm(dec: JMDecomposition, ell: int) -> Partition:
    """Rebuild the JM partition from its decomposition."""
    check_ell(ell, minimum=3)
    dec = _validate_decomposition(dec, ell)
    rows = _frame_rows(dec.mu, dec.r, dec.s, ell)
    if len(rows) < dec.r + 1:
        rows += [0] * (dec.r + 1 - len(rows))
    for i, mult in enumerate(dec.rho):
        rows[i] += mult * ell
    try:
        lam = check_partition(rows)
    except ValueError as exc:
        raise InvalidDecompositionError(f"row hooks do not stack: {dec}") from exc
    cols = list(transpose(lam))
    if len(cols) < dec.s + 1:
        cols += [0] * (dec.s + 1 - len(cols))
    for j, mult in enumerate(dec.sigma):
        cols[j] += mult * ell
    try:
        return transpose(check_partition(cols))
    except ValueError as exc:
        raise InvalidDecompositionError(f"column hooks do not stack: {dec}") from exc


@functools.lru_cache(maxsize=None)
def _partitions_at_most(n: int, k: int) -> int:
    """Number of partitions of n into at most k parts."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return _partitions_at_most(n, k - 1) + _partitions_at_most(n - k, k)


def _pair_count(w: int, rows: int, cols: int) -> int:
    return sum(_partitions_at_most(t, rows) * _partitions_at_most(w - t, cols) for t in range(w + 1))


def count_jm(core: Partition, w: int, ell: int) -> int:
    """Number of JM partitions with the given core and weight w.

    With r, s read off the core, the count is the number of pairs (rho, sigma)
    of total size w with len(rho) <= r+1 and len(sigma) <= s+1; when the core
    is the bare frame (core[r] == s, i.e. mu is empty) pairs using both extra
    slots are excluded, which inclusion-exclusion handles below.
    """
    check_ell(ell, minimum=3)
    core = check_partition(core)
    if w < 0:
        raise ValueError(f"weight must be non-negative, got {w}")
    if not _is_core(core, ell):
        raise NotACoreError(f"{core} is not an {ell}-core")
    mu, r, s = _core_frame(core, ell)
    nu_next = core[r] if r < len(core) else 0
    if nu_next < s:
        raise AssertionError(f"core frame reading failed for {core}")
    if nu_next > s:
        return _pair_count(w, r + 1, s + 1)
    return _pair_count(w, r + 1, s) + _pair_count(w, r, s + 1) - _pair_count(w, r, s)


def enumerate_jm(core: Partition, w: int, ell: int) -> list[Partition]:
    """All JM partitions with the given core and weight, largest-first."""
    check_ell(ell, minimum=3)
    core = check_partition(core)
    if w < 0:
        raise ValueError(f"weight must be non-negative, got {w}")
    if not _is_core(core, ell):
        raise NotACoreError(f"{core} is not an {ell}-core")
    mu, r, s = _core_frame(core, ell)
    out = []
    for t in range(w + 1):
        for rho in all_partitions(t):
            if len(rho) > r + 1:
                continue
            for sigma in all_partitions(w - t):
                if len(sigma) > s + 1:
                    continue
                if not mu and len(rho) == r + 1 and len(sigma) == s + 1:
                    continue
                lam = compose_jm(JMDecomposition(mu, r, s, rho, sigma), ell)
                if not _is_jm(lam, ell):
                    raise AssertionError(f"composed partition fails the JM check: {lam}")
                if _ell_core(lam, ell) != (core, w):
                    raise AssertionError(f"composed partition has wrong core data: {lam}")
                out.append(lam)
    return sorted(out, reverse=True)
