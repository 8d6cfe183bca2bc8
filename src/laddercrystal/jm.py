"""Classification, decomposition and counting of (ell,0)-JM partitions.

A partition is (ell,0)-JM when no box with hook length divisible by ell sits
in the same row as a box with indivisible hook and in the same column as
another.  Equivalently (and this module checks both sides) it is a
"generalized ell-partition": every removable ell-rim hook, hereditarily, is a
horizontal or vertical strip, and opposite-orientation hooks never touch.

The hereditary side is read off James's abacus: rimhooks._abacus lists each
runner's bead levels, and every negative position is a bead.  Removing a rim
hook moves one bead one level down its runner, so the partitions reachable
by removals are the product, over the runners, of the bead sets M with
M_i <= L_i, where L and M list a runner's bead levels in ascending order.  A
runner can hold a bead at level t exactly when t is at most its top bead,
and a gap exactly when t is at least its packed prefix (the beads with no
gap below, which never move).  A hook from a bead at level k of runner j,
into the gap at k-1, passes one position of every other runner, its window:
level k on the runners below j and level k-1 on those above.  It is
horizontal when its window holds only gaps and vertical when it holds only
beads.  Two hooks of opposite orientation, the second exposed by removing
the first, touch exactly when their northeast boxes' contents differ by ell:
the second moves the same bead once more, or moves the bead one level above
into the vacated place.  Each condition on reachable partitions is then a
few bounds on level k per pair of runners, so both hereditary checks cost
O(len(lam) + ell^3) for the abacus and the bounds, whatever the weight,
instead of a walk over every partition that removals reach.

By Fayers's proof of the James-Mathas conjecture, a JM partition is its core
plus rho_i horizontal hooks on row i + 1 and sigma_j vertical ones on column
j + 1, rho and sigma fitting the core's frame (see _fits); it is composed on
that core.  Frames and decompositions are checked by reading them back.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple

from .partitions import (
    Box,
    Partition,
    _hook_grid,
    _is_regular,
    _transpose,
    check_count,
    check_ell,
    check_partition,
    partition_cache,
    partitions_of,
)
from .rimhooks import _abacus, _ell_core, _is_core


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


class JMDecomposition(NamedTuple):
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
    grid = _hook_grid(check_partition(lam))
    top = grid[0] if grid else ()
    return all((h % ell == 0) == (t % ell == 0) for hooks in grid for h, t in zip(hooks, top))


def _runners(lam: Partition, ell: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """What the reachable bead sets of each abacus runner of lam can hold,
    as four lists indexed by runner: packed, packed2, top, second.

    packed: the beads at levels 0, 1, ... with no gap below; level t can be
    a gap exactly when t >= packed.  packed2: the index of the lowest bead
    with two gaps below it (the bead count when none has).  top, second:
    the highest two bead levels (-1 when missing); level t can hold a bead
    exactly when t <= top.  A bead's slack, its level minus its index on
    the runner, counts the gaps below it and never decreases up the runner.
    """
    packed, packed2, top, second = [], [], [], []
    for beads in _abacus(lam, ell):
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
    return _is_regular(lam, ell) and _only_horizontal_hereditarily(lam, ell)


def is_ell_partition(lam: Partition, ell: int) -> bool:
    """ell-regular, and no removal sequence of horizontal ell-rim hooks ever
    exposes a non-horizontal one."""
    check_ell(ell)
    return _is_ell_partition(check_partition(lam), ell)


def _fayers_witness(lam: Partition, ell: int) -> FayersWitness | None:
    """One pass over the hooks finds the first indivisible column of every
    row and the first indivisible row of every column; then the first
    divisible box whose row and column both have one is the base.  O(|lam|).
    """
    grid = _hook_grid(lam)
    first_row = [0] * (lam[0] if lam else 0)  # by column; 0 when all divisible
    first_col = []  # by row; 0 when all divisible
    for a, hooks in enumerate(grid, start=1):
        y = 0
        for b, h in enumerate(hooks):
            if h % ell:
                if not y:
                    y = b + 1
                if not first_row[b]:
                    first_row[b] = a
        first_col.append(y)
    for a, (hooks, y) in enumerate(zip(grid, first_col), start=1):
        if y:
            for b, h in enumerate(hooks):
                if not h % ell and first_row[b]:
                    return FayersWitness((a, b + 1), (a, y), (first_row[b], b + 1))
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
    packed, packed2, top, second = _runners(lam, ell)
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
    diffs = [a - b for a, b in zip(nu, nu[1:] + (0,))]
    return next((r for r, d in enumerate(diffs) if d != ell - 1), len(diffs))


def _core_frame(core: Partition, ell: int) -> tuple[Partition, int, int]:
    """Strip the leading difference-(ell-1) rows and columns off a core."""
    r = _leading_run(core, ell)
    s = _leading_run(_transpose(core), ell)
    return tuple(p - s for p in core[r:] if p > s), r, s


def decompose_jm(lam: Partition, ell: int) -> JMDecomposition:
    """The inverse of compose_jm: lam's ell-core fixes the frame (mu, r, s).

    Horizontal hooks lengthen the first r + 1 rows of the core by rho_i
    hooks each, and vertical hooks then lengthen the first s + 1 columns by
    sigma_j hooks each.  A vertical hook reaches those rows only when mu is
    empty and rho_r = 0, and then puts a single box (fewer than ell) on row
    r + 1, so rho_i is (lam_i - core_i) // ell, and sigma_j is the excess of
    lam's column j over that of the core plus rho.  lam is JM exactly when
    this reading gives partitions rho and sigma that fit the frame and
    compose back to lam, so no hook grid is built.  Costs O(|lam|),
    whatever the weight.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    core = _ell_core(lam, ell).core
    mu, r, s = _core_frame(core, ell)
    pad = (0,) * (r + s + 2)
    try:
        rho = check_partition([(a - b) // ell for a, b in zip((lam + pad)[: r + 1], core + pad)])
        cols = _transpose(_compose(core, rho, (), ell)) + pad
        sigma = check_partition([(a - b) // ell for a, b in zip((_transpose(lam) + pad)[: s + 1], cols)])
        if _fits(mu, r, s, rho, sigma) and _compose(core, rho, sigma, ell) == lam:
            return JMDecomposition(mu, r, s, rho, sigma)
    except ValueError:  # a negative or increasing reading
        pass
    raise NotJMPartitionError(f"{lam} is not ({ell},0)-JM")


def _fits(mu: Partition, r: int, s: int, rho: Partition, sigma: Partition) -> bool:
    """Fayers's fit rule: rho has at most r + 1 parts and sigma at most s + 1,
    and when mu is empty they do not both use their last slot."""
    return len(rho) <= r + 1 and len(sigma) <= s + 1 and (bool(mu) or len(rho) <= r or len(sigma) <= s)


def _frame_rows(mu: Partition, r: int, s: int, ell: int) -> list[int]:
    mu1 = mu[0] if mu else 0
    rows = [s + mu1 + (r - i) * (ell - 1) for i in range(r)]
    rows += [s + p for p in mu]
    for j in range(s, 0, -1):
        rows += [j] * (ell - 1)
    return rows


def compose_jm(dec: JMDecomposition, ell: int) -> Partition:
    """Rebuild the JM partition on the core of its frame: the frame's rows must form a core
    whose frame reads back as (mu, r, s), and rho and sigma must fit it."""
    check_ell(ell, minimum=3)
    mu, rho, sigma = map(check_partition, (dec.mu, dec.rho, dec.sigma))
    try:
        r, s = check_count("r", dec.r), check_count("s", dec.s)
    except ValueError as exc:
        raise InvalidDecompositionError(f"{exc}: {dec}") from None
    core = tuple(_frame_rows(mu, r, s, ell))
    if not (_is_core(core, ell) and _core_frame(core, ell) == (mu, r, s)):
        raise InvalidDecompositionError(f"({mu}, {r}, {s}) is not the frame of an {ell}-core: {dec}")
    if not _fits(mu, r, s, rho, sigma):
        raise InvalidDecompositionError(f"rho and sigma do not fit the frame: {dec}")
    return _compose(core, rho, sigma, ell)


def _compose(core: Partition, rho: Partition, sigma: Partition, ell: int) -> Partition:
    """Add rho_i hooks to row i + 1 of the core, then sigma_j to column j + 1; they always stack."""
    rows = list(core) + [0] * len(rho)
    for i, mult in enumerate(rho):
        rows[i] += mult * ell
    cols = list(_transpose(rows)) + [0] * len(sigma)
    for j, mult in enumerate(sigma):
        cols[j] += mult * ell
    return _transpose(cols)


@functools.lru_cache(maxsize=64)  # each entry holds n + 1 counts
def _partitions_at_most(n: int, k: int) -> tuple[int, ...]:
    """Numbers of partitions of 0..n into at most k parts (conjugate: parts at most k), O(n k)."""
    ways = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return tuple(ways)


def _pair_count(w: int, rows: int, cols: int) -> int:
    return sum(a * b for a, b in zip(_partitions_at_most(w, rows), reversed(_partitions_at_most(w, cols))))


def _checked_frame(core: Partition, w: int, ell: int) -> tuple[Partition, Partition, int, int]:
    """core and its frame (mu, r, s), once the modulus, the core and the weight are checked."""
    check_ell(ell, minimum=3)
    core = check_partition(core)
    check_count("weight", w)
    if not _is_core(core, ell):
        raise NotACoreError(f"{core} is not an {ell}-core")
    return (core, *_core_frame(core, ell))


def count_jm(core: Partition, w: int, ell: int) -> int:
    """Number of JM partitions with the given core and weight w.

    With the frame (mu, r, s) read off the core, the count is the number of
    pairs (rho, sigma) of total size w that _fits admits: len(rho) <= r+1
    and len(sigma) <= s+1, and when mu is empty (the core is the bare frame)
    not both at their limit, which inclusion-exclusion handles.
    """
    core, mu, r, s = _checked_frame(core, w, ell)
    if mu:
        return _pair_count(w, r + 1, s + 1)
    return _pair_count(w, r + 1, s) + _pair_count(w, r, s + 1) - _pair_count(w, r, s)


def enumerate_jm(core: Partition, w: int, ell: int) -> list[Partition]:
    """All JM partitions with the given core and weight, largest-first; builds only what it returns.

    Each pair (rho, sigma) that fits the core's frame composes to a JM
    partition of that core and weight (Fayers); the tests check that on the
    hook grid and the abacus rather than each call.
    """
    core, mu, r, s = _checked_frame(core, w, ell)
    out = []
    for t in range(w + 1):
        sigmas = [_transpose(p) for p in partitions_of(w - t, s + 1)]
        for rho in map(_transpose, partitions_of(t, r + 1)):
            for sigma in sigmas:
                if _fits(mu, r, s, rho, sigma):
                    out.append(_compose(core, rho, sigma, ell))
    return sorted(out, reverse=True)
