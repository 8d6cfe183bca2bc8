"""Classification, decomposition and counting of (ell,0)-JM partitions.

A partition is (ell,0)-JM when no box with hook length divisible by ell sits
in the same row as a box with indivisible hook and in the same column as
another.  Equivalently (and this module checks both sides) it is a
"generalized ell-partition": every removable ell-rim hook, hereditarily, is a
horizontal or vertical strip, and opposite-orientation hooks never touch.

The hereditary side is read off James's abacus (see rimhooks), with every
negative position a bead.  Removing a rim hook moves one bead one level down
its runner, so the partitions reachable by removals are the product, over
the runners, of the bead sets M with M_i <= L_i, where L and M list a
runner's bead levels in ascending order.  A runner can hold a bead at level
t exactly when t is at most its top bead, and a gap exactly when t is at
least its packed prefix (the beads with no gap below, which never move).  A
hook from a bead at level k of runner j, into the gap at k-1, passes one
position of every other runner, its window: level k on the runners below j
and level k-1 on those above.  It is horizontal when its window holds only
gaps and vertical when it holds only beads.  Two hooks of opposite
orientation, the second exposed by removing the first, touch exactly when
their northeast boxes' contents differ by ell: the second moves the same
bead once more, or moves the bead one level above into the vacated place.
Each condition on reachable partitions is then a few bounds on level k per
pair of runners, so both hereditary checks cost O(len(lam) + ell^3) for the
abacus and the bounds, whatever the weight, instead of a walk over every
partition that removals reach.
"""

from __future__ import annotations

import bisect
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
from .rimhooks import HORIZONTAL, _ell_core, _is_core, _remove, _removable_rim_hooks


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


def _runners(lam: Partition, ell: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """What the reachable bead sets of each abacus runner of lam can hold,
    as four lists indexed by runner: packed, packed2, top, second.

    Every negative position is a bead.  packed: the beads at levels 0, 1,
    ... with no gap below; level t can be a gap exactly when t >= packed.
    packed2: the index of the lowest bead with two gaps below it (the bead
    count when none has).  top, second: the highest two bead levels (-1 when
    missing); level t can hold a bead exactly when t <= top.

    Rows are padded with zero parts to a multiple of ell, so row r (0-based)
    of n carries the bead lam[r] + n - 1 - r at level (bead // ell) of
    runner (bead % ell).  A bead's slack, its level minus its index on the
    runner, counts the gaps below it and never decreases up the runner.
    """
    n = -(-len(lam) // ell) * ell
    levels: list[list[int]] = [[] for _ in range(ell)]
    for r in range(n - 1, -1, -1):  # beads in increasing position
        level, runner = divmod((lam[r] if r < len(lam) else 0) + n - 1 - r, ell)
        levels[runner].append(level)
    packed, packed2, top, second = [], [], [], []
    for beads in levels:
        slack = [level - i for i, level in enumerate(beads)]
        packed.append(bisect.bisect_left(slack, 1))
        packed2.append(bisect.bisect_left(slack, 2))
        top.append(beads[-1] if beads else -1)
        second.append(beads[-2] if len(beads) > 1 else -1)
    return packed, packed2, top, second


@functools.lru_cache(maxsize=None)
def _only_horizontal_hereditarily(lam: Partition, ell: int) -> bool:
    """No partition reachable by removing ell-rim hooks has a non-horizontal one.

    It has one exactly when some hook's window can hold a bead.  A hook on
    runner j starts at a level k in (packed, top]; the lowest k asks least
    of the window, and window level t on runner i can hold a bead when
    t <= top_i.  Cost O(len(lam) + ell^2).
    """
    packed, _, top, _ = _runners(lam, ell)
    for j in range(ell):
        k = packed[j] + 1
        if k <= top[j] and any(k - (i > j) <= top[i] for i in range(ell) if i != j):
            return False
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

    Answered on the abacus, without listing the reachable partitions (see
    the module docstring).  For a hook on runner j at level k, write the
    window position of runner i as level k - d_i (d_i = 1 when i > j); it
    can be a gap when k >= lo_i = packed_i + d_i and a bead when
    k <= hi_i = top_i + d_i.  A pair of hooks asks each other runner for a
    bead and a gap on two adjacent levels, and some reachable bead set
    holds both exactly when each alone can be held.  The check fails when,
    for some k in (packed_j, top_j]:

    - the window can hold a bead on one runner and a gap on another, so the
      hook can be neither horizontal nor vertical;
    - runner j can hold a bead at k and gaps at k-1, k-2 (k >= packed2_j + 2)
      and max(lo) <= k <= min(hi) + 1: the same bead then moves again
      through the window one level lower, and the two hooks can have
      opposite orientations;
    - runner j can hold beads at k, k+1 and a gap at k-1 (k <= second_j) and
      max(lo) - 1 <= k <= min(hi): the bead above then drops into the
      vacated level, through the window one level higher.

    Each condition bounds k to an interval, so a call costs
    O(len(lam) + ell^3), whatever the weight.
    """
    check_ell(ell)
    packed, packed2, top, second = _runners(check_partition(lam), ell)
    for j in range(ell):
        first, last = packed[j] + 1, top[j]
        if first > last:
            continue  # runner j never starts a hook
        lo = [packed[i] + (i > j) for i in range(ell) if i != j]
        hi = [top[i] + (i > j) for i in range(ell) if i != j]
        if any(
            max(first, lo[b]) <= min(last, hi[a])
            for a in range(ell - 1)
            for b in range(ell - 1)
            if a != b
        ):
            return False
        if max(packed2[j] + 2, max(lo)) <= min(last, min(hi) + 1):
            return False
        if max(first, max(lo) - 1) <= min(second[j], min(hi)):
            return False
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
        hooks = _removable_rim_hooks(cur, ell)
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
