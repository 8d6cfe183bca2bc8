"""Classification, decomposition and counting of (ell,0)-JM partitions.

A partition is (ell,0)-JM when no box with hook length divisible by ell sits
in the same row as a box with indivisible hook and in the same column as
another.  For ell >= 3 it is equivalently (and this module checks both
sides) a "generalized ell-partition": every removable ell-rim hook,
hereditarily, is a horizontal or vertical strip, and opposite-orientation
hooks never touch.  At ell = 2, where is_jm refuses, (2, 2) is a
generalized 2-partition with a Fayers witness.

The witness side is read off James's abacus: is_jm reads each runner's
highest bead and lowest gap in one pass over the beads (see _is_jm), with no
hook grid.  The condition is symmetric under conjugation, so is_jm reads the
orientation with fewer rows, as is_generalized_ell_partition does.
fayers_witness scans the hook grid to name the witness boxes, and is the
tests' oracle for is_jm.

The hereditary side is read off James's abacus too: _runners reads what
is_generalized_ell_partition needs of each runner in one pass over the
beads, and every negative position is a bead; the ell-partition test needs
only each runner's lowest gap and highest bead (rimhooks._runner_ends), as
is_jm does; an ell-regular partition passes it exactly when it is JM, so the
theorem sweep reads ell-partitions off its JM table.  Removing a rim hook moves one bead one level down its runner, so the
partitions reachable by removals are the product, over the runners, of the
bead sets M with M_i <= L_i, where L and M list a runner's bead levels in
ascending order.  A runner can hold a bead at level t exactly when t is at
most its top bead, and a gap exactly when t is at least its packed prefix
(the beads with no gap below, which never move).  A hook from a bead at level k of runner j,
into the gap at k-1, passes one position of every other runner, its window:
level k on the runners below j and level k-1 on those above.  It is
horizontal when its window holds only gaps and vertical when it holds only
beads.  Two hooks of opposite orientation, the second exposed by removing
the first, touch exactly when their northeast boxes' contents differ by ell:
the second moves the same bead once more, or moves the bead one level above
into the vacated place.  Each condition on reachable partitions is then a
few bounds on level k per pair of runners, so the generalized check costs
O(min(len(lam), lam_1) + ell^3) and the ell-partition check
O(len(lam) + ell), whatever the weight, instead of a walk over every
partition that removals reach.

By Fayers's proof of the James-Mathas conjecture, a JM partition is its core
plus rho_i horizontal hooks on row i + 1 and sigma_j vertical ones on column
j + 1, rho and sigma fitting the core's frame (see _fits); _compose adds them
on rows, and enumerate_jm lists rho and sigma by the child rule of
partitions.  Frames and decompositions are checked by reading them back.
"""

from __future__ import annotations

import bisect
import functools
from collections import namedtuple
from itertools import zip_longest

from .partitions import (
    Partition,
    _children,
    _hook_grid,
    _is_regular,
    _transpose,
    check_count,
    check_ell,
    check_partition,
    partition_cache,
)
from .rimhooks import _beads, _ell_core, _is_core, _runner_ends


class NotJMPartitionError(ValueError):
    pass


class InvalidDecompositionError(ValueError):
    pass


class NotACoreError(ValueError):
    pass


class FayersWitness(namedtuple("FayersWitness", "base row_mate col_mate")):
    """Boxes certifying failure of the JM condition; each field is a Box.

    base has hook length divisible by ell; row_mate (same row) and col_mate
    (same column) both have indivisible hooks.
    """

    __slots__ = ()


class JMDecomposition(namedtuple("JMDecomposition", "mu r s rho sigma")):
    """Skeleton (mu, r, s) plus hook multiplicities (rho, sigma) of a JM partition.

    mu is an ell-core whose first two rows and first two columns differ by
    less than ell-1; r rows and s columns of successive difference ell-1 are
    attached above and to its left; rho[i] horizontal hooks hang off row i+1
    (i <= r) and sigma[j] vertical hooks off column j+1 (j <= s).  mu, rho
    and sigma are Partitions, r and s ints.
    """

    __slots__ = ()


def star_condition(lam: Partition, ell: int) -> bool:
    """True when every column has all or none of its hook lengths divisible by ell."""
    check_ell(ell)
    grid = _hook_grid(check_partition(lam))
    top = grid[0] if grid else ()
    return all((h % ell == 0) == (t % ell == 0) for hooks in grid for h, t in zip(hooks, top))


def _runners(lam: Partition, ell: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """What the reachable bead sets of each abacus runner of lam can hold,
    as four lists indexed by runner, read in one pass over the beads
    (rimhooks._beads): packed, packed2, top, second.

    A bead's slack, its level minus its index on the runner, counts the gaps
    below it and never decreases up the runner.  packed: the beads with
    slack 0, at levels 0, 1, ...; level t can be a gap exactly when
    t >= packed.  packed2: the beads with slack at most 1.  top, second:
    the highest two bead levels (-1 when missing); level t can hold a bead
    exactly when t <= top.
    """
    packed, packed2, top, second = [0] * ell, [0] * ell, [-1] * ell, [-1] * ell
    for bead in _beads(lam, ell):
        level, runner = divmod(bead, ell)
        if level == packed[runner]:  # then the beads below have slack 0 too
            packed[runner] += 1
        if level <= packed2[runner] + 1:
            packed2[runner] += 1
        second[runner] = top[runner]
        top[runner] = level
    return packed, packed2, top, second


@functools.lru_cache(maxsize=None)
def _only_horizontal_hereditarily(lam: Partition, ell: int) -> bool:
    """No partition reachable by removing ell-rim hooks has a non-horizontal one.

    It has one exactly when some hook's window can hold a bead.  A hook on
    runner j starts at a level k in (packed, top]; the lowest k asks least
    of the window, and window level t on runner i can hold a bead when
    t <= top_i.  In positions (rimhooks._runner_ends): that lowest hook
    drops a bead into runner j's lowest gap g, so it exists when g lies
    below j's highest bead, and its window, the positions g+1..g+ell-1, can
    hold a bead when another runner's highest bead lies above g.  Cost
    O(len(lam) + ell).  The cache serves only the public is_ell_partition.
    """
    gap, top = _runner_ends(lam, ell)
    highest = max(top)
    # as in _is_jm: only the runner holding the highest bead needs a scan
    return not any(
        g < b and (b != highest or any(x > g for x in top if x != b)) for g, b in zip(gap, top)
    )


def is_ell_partition(lam: Partition, ell: int) -> bool:
    """ell-regular, and no removal sequence of horizontal ell-rim hooks ever
    exposes a non-horizontal one."""
    check_ell(ell)
    lam = check_partition(lam)
    return _is_regular(lam, ell) and _only_horizontal_hereditarily(lam, ell)


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
    """No Fayers witness, decided in one pass over lam's beads (rimhooks._runner_ends).

    The boxes of lam are the pairs (gap g, bead b) with g < b: the box lies
    in b's row and g's column, and its hook length is b - g, so ell divides
    it exactly when g and b lie on the same runner.  A witness is then a
    runner r with a gap g below a bead b, a gap of another runner below b
    (the row-mate) and a bead of another runner above g (the column-mate).
    Taking r's highest bead and lowest gap makes all three easiest to meet,
    so one pass that records both per runner decides it: O(len(lam) + ell),
    whatever the size of lam, with no hook grid.  The public is_jm passes
    the orientation with fewer rows.
    """
    gap, top = _runner_ends(lam, ell)
    lowest, highest = min(gap), max(top)
    for g, b in zip(gap, top):
        # positions are distinct, so x != g and x != b leave out runner r
        # itself (tops repeat only as -1, where g < b fails); only the
        # runners holding the lowest gap and the highest bead need a scan
        if (
            g < b
            and (g != lowest or any(x < b for x in gap if x != g))
            and (b != highest or any(x > g for x in top if x != b))
        ):
            return False
    return True


def _fewer_rows(lam: Partition) -> Partition:
    """lam or its conjugate, whichever has fewer rows.

    The JM condition is symmetric under conjugation (the witness swaps its
    row-mate and column-mate), and so is the generalized one (horizontal and
    vertical hooks swap), while their kernels read one bead per row.
    """
    return _transpose(lam) if lam and len(lam) > lam[0] else lam


def is_jm(lam: Partition, ell: int) -> bool:
    """No Fayers witness.  Decided on lam or lam', whichever has fewer rows:
    O(min(len(lam), lam_1) + ell), whatever the size of lam."""
    check_ell(ell, minimum=3)
    return _is_jm(_fewer_rows(check_partition(lam)), ell)


@partition_cache
def is_generalized_ell_partition(lam: Partition, ell: int) -> bool:
    """Hereditarily: hooks only horizontal/vertical, and removing one never
    exposes a touching hook of the opposite orientation.  For ell >= 3 this
    is is_jm; at ell = 2 it is no JM test: it accepts (2, 2), which has a
    Fayers witness.

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

    Each condition bounds k to an interval.  The runners are read off lam
    or lam', whichever has fewer rows, so a call costs
    O(min(len(lam), lam_1) + ell^3), whatever the weight.
    """
    check_ell(ell)
    packed, packed2, top, second = _runners(_fewer_rows(lam), ell)
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


def _core_frame(core: Partition, ell: int) -> tuple[Partition, int, int]:
    """Strip the leading difference-(ell-1) rows and columns off a core.  Column
    j is longer than column j + 1 by the number of parts equal to j, so s is
    read from the multiplicities of the smallest parts, with no transpose."""
    step, r, end, s = ell - 1, 0, len(core), 0
    for a, b in zip(core, core[1:] + (0,)):
        if a - b != step:
            break
        r += 1
    while end >= step and core[end - step] == core[end - 1] == s + 1:
        end -= step
        if end and core[end - 1] == s + 1:
            break  # more than ell - 1 parts equal s + 1
        s += 1
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
        cols = _transpose(_add_rows(core, rho, ell)) + pad
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
        raise InvalidDecompositionError(f"({mu}, {r}, {s}) is not the frame of a core for ell = {ell}: {dec}")
    if not _fits(mu, r, s, rho, sigma):
        raise InvalidDecompositionError(f"rho and sigma do not fit the frame: {dec}")
    return _compose(core, rho, sigma, ell)


def _compose(core: Partition, rho: Partition, sigma: Partition, ell: int) -> Partition:
    """The core plus rho_i hooks on row i + 1 and sigma_j on column j + 1 (see _stack)."""
    nu = _add_rows(core, rho, ell)
    base, tail = _stack(_columns(nu, len(sigma)), sigma, ell)
    return nu[:base] + tail


def _add_rows(core: Partition, rho: Partition, ell: int) -> Partition:
    """The core plus rho_i horizontal hooks on row i + 1."""
    n = len(rho)
    return tuple([a + b * ell for a, b in zip_longest(core[:n], rho, fillvalue=0)]) + core[n:]


def _columns(nu: Partition, m: int) -> list[int]:
    """The lengths of nu's first m columns, by bisection of its ascending rows."""
    ascending, depth = nu[::-1], len(nu)
    return [depth - bisect.bisect_left(ascending, j) for j in range(1, m + 1)]


def _stack(cols: list[int], sigma: Partition, ell: int) -> tuple[int | None, Partition]:
    """(c_m, rows) for sigma_j hooks on columns c_j long (cols), m = len(sigma).

    The lengthened columns stack: the partition keeps its first c_m rows and
    then has the conjugate of the m tails, each less c_m.  An empty sigma
    gives (None, ()), which keeps every row.
    """
    if not sigma:
        return None, ()
    base = cols[len(sigma) - 1]
    return base, _transpose([c + k * ell - base for c, k in zip(cols, sigma)])


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
        raise NotACoreError(f"{core} is not a core for ell = {ell}")
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


def _partitions_by_size(w: int, k: int) -> list[list[Partition]]:
    """The partitions of 0..w with at most k parts, by size: each size the children of the one below."""
    by_size = [[()]]
    for _ in range(w):
        by_size.append([child for _, child, _ in _children(by_size[-1], k)])
    return by_size


def enumerate_jm(core: Partition, w: int, ell: int) -> list[Partition]:
    """All JM partitions with the given core and weight, largest-first; builds only what it returns.

    Each pair (rho, sigma) that fits the core's frame composes to a JM
    partition of that core and weight (Fayers); the tests check that on the
    hook grid and the abacus rather than each call.  The child rule lists
    rho and sigma together, up to the larger of their part limits.  In a
    pair that fits, every row that rho lengthens already reaches past the
    columns that sigma lengthens, so those columns are the core's: each
    sigma's rows are stacked once, on the core, each rho's rows are built
    once, and a member is a prefix of the one and the stack of the other.
    """
    core, mu, r, s = _checked_frame(core, w, ell)
    by_size = _partitions_by_size(w, max(r, s) + 1)
    rhos = by_size if r >= s else [[rho for rho in by if len(rho) <= r + 1] for by in by_size]
    sigmas = by_size if s >= r else [[sigma for sigma in by if len(sigma) <= s + 1] for by in by_size]
    cols = _columns(core, s + 1)
    out = []
    for rho_t, sigma_t in zip(rhos, reversed(sigmas)):
        stack = [_stack(cols, sigma, ell) for sigma in sigma_t]
        # _fits: a rho at its last slot takes only the sigmas short of theirs
        short = stack if mu else [pair for pair, sigma in zip(stack, sigma_t) if len(sigma) <= s]
        for rho in rho_t:
            nu = _add_rows(core, rho, ell)
            out += [nu[:base] + tail for base, tail in (stack if len(rho) <= r else short)]
    return sorted(out, reverse=True)
