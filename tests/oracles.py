"""Definitional oracles: one per map, each built from the map's definition in
the literature, box by box or hook by hook, with none of the package's
kernels (the suite oracles at the end rerun the package's public
predicates one check at a time, by design).  The tests hold the package to
them on every partition of small n and on large partitions drawn, from
seeded generators, by random_partition and the other input helpers at the
end of this module.

- diagrams: partitions of n by their first part, and the conjugate and the
  hook lengths, counted box by box;
- rim hooks and cores: the rim of each box of hook length ell, peeled until
  none is left (James-Kerber 2.7);
- signatures and operators: the i-signature box by box, in either reading
  order, reduced by cancelling (-, +) pairs (Misra-Miwa, Kashiwara; the
  paper's ladder order);
- R: each ladder's boxes moved to its top (James 1981);
- lock labels and D: the paper's lock rules, and the loose boxes moved to
  the bottom of their ladders;
- ladder nodes and L-partitions: their hook rules;
- JM: the hook condition of [JM] (Fayers's witness) on the hook grid;
- ell-partitions and generalized ell-partitions: the hereditary walks over
  every partition that hook removals reach ([BV]);
- JM decomposition and composition: the frame (mu, r, s) of the core, with
  rho_i horizontal hooks on row i + 1 and sigma_j vertical ones on column
  j + 1 (Fayers);
- m: the crystal twist i -> -i (Kleshchev, Ford-Kleshchev), and
  Mullineux's symbol, read by walking ell-rims;
- the suites' reports: verify_isomorphism as a loop over a built ladder
  crystal and theorem_suite partition by partition, one report.check per
  check.
"""

from __future__ import annotations

import random
from collections import Counter

from laddercrystal import graph, regular
from laddercrystal.crystal import (
    CLASSICAL,
    LADDER,
    MINUS,
    PLUS,
    ReducedWord,
    SignatureEntry,
    apply_e,
    apply_f,
    reduced_words,  # the package's reader: the suite oracles read words as the suites do
)
from laddercrystal.jm import JMDecomposition
from laddercrystal.partitions import Partition, all_partitions, is_regular
from laddercrystal.regular import LOCKED_I, LOCKED_II, UNLOCKED
from laddercrystal.rimhooks import HORIZONTAL, NEITHER, VERTICAL, is_core
from laddercrystal.strings import format_partition

# Diagrams


def partitions(n: int, max_part: int):
    """The partitions of n with parts at most max_part, in reverse lex order:
    each first part from the largest down, then the partitions of the rest."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam: Partition) -> Partition:
    """Column lengths counted box by box: column c has one box per row of length c or more."""
    cols = [0] * (lam[0] if lam else 0)
    for part in lam:
        for c in range(part):
            cols[c] += 1
    return tuple(cols)


def hooks(lam: Partition) -> list[list[int]]:
    """The hook length arm + leg + 1 of every box, row by row."""
    cols = conjugate(lam)
    return [[part - b + cols[b] - a - 1 for b in range(part)] for a, part in enumerate(lam)]


# Rim hooks and cores


def _hook_in_row(rows: list[int], a: int, ell: int) -> tuple[int, int] | None:
    """(column, leg) of row a's box of hook length ell, or None.  Hooks grow
    from the row's end leftwards, so the row has at most one, its arm and
    leg are less than ell, and the walk stops at the first hook of ell or more."""
    part, leg = rows[a - 1], 0
    for b in range(part, 0, -1):
        while leg < ell and a + leg < len(rows) and rows[a + leg] >= b:
            leg += 1
        hook = part - b + leg + 1
        if hook >= ell:
            return (b, leg) if hook == ell else None
    return None


def _rim(rows: list[int], a: int, b: int, leg: int) -> tuple:
    """The rim hook of box (a, b): from the end of row a along the rim to the
    foot of column b, down where the box below is in the diagram, else left."""
    i, j, path = a, rows[a - 1], [(a, rows[a - 1])]
    while (i, j) != (a + leg, b):
        if i < len(rows) and rows[i] >= j:
            i += 1
        else:
            j -= 1
        path.append((i, j))
    return tuple(path)


def shape(path: tuple) -> str:
    """HORIZONTAL for a hook in one row, VERTICAL for one in one column, else NEITHER."""
    if len({row for row, _ in path}) == 1:
        return HORIZONTAL
    return VERTICAL if len({col for _, col in path}) == 1 else NEITHER


def rim_hooks(lam: Partition, ell: int) -> list[tuple[tuple, str]]:
    """(boxes, shape) of every removable ell-rim hook, top row first."""
    rows = list(lam)
    found = [(a, _hook_in_row(rows, a, ell)) for a in range(1, len(rows) + 1)]
    return [(path, shape(path)) for path in (_rim(rows, a, *hook) for a, hook in found if hook)]


def remove(lam: Partition, path: tuple) -> Partition:
    """lam less the boxes of a rim hook."""
    rows = list(lam)
    for row, _ in path:
        rows[row - 1] -= 1
    return tuple(part for part in rows if part)


def peel(lam: Partition, ell: int) -> tuple[Partition, list[tuple]]:
    """(core, the hooks removed): ell-rim hooks peeled off lam, the topmost
    first, until none is left.  Every order ends at the same core after the
    same number of hooks (Nakayama's conjecture).

    After a hook with its top box in row a, only rows from a - ell down can
    hold a new box of hook length ell: a box above keeps a leg of ell or more.
    """
    rows = list(lam)
    removed, a = [], 1
    while a <= len(rows):
        hook = _hook_in_row(rows, a, ell) if rows[a - 1] else None
        if hook is None:
            a += 1
            continue
        path = _rim(rows, a, *hook)
        for i, _ in path:
            rows[i - 1] -= 1
        removed.append(path)
        a = max(1, a - ell)
    return tuple(part for part in rows if part), removed


def core(lam: Partition, ell: int) -> tuple[Partition, int]:
    """(core, weight): what is left when no ell-rim hook remains, and how many were peeled."""
    rest, removed = peel(lam, ell)
    return rest, len(removed)


def runners(lam: Partition, ell: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """(count, packed, packed2, top, second) of each runner of lam's abacus (James-Kerber 2.7).

    With lam padded by zero rows to n, a multiple of ell, row r (from 1)
    puts a bead at position lam_r + n - r: its first-column hook length
    plus the n - len(lam) padded rows.  Runner i holds the positions
    i + ell * level.  count is its number of beads, packed its lowest gap
    level (the levels below all hold beads), packed2 counts the beads below
    its second gap (at most one gap below them), and top and second are the
    two highest levels holding a bead, or -1.
    """
    n = -(-len(lam) // ell) * ell
    beads = {part + n - r for r, part in enumerate(list(lam) + [0] * (n - len(lam)), start=1)}
    height = max(beads, default=0) // ell + 3  # every runner has two gaps below this level
    out: tuple[list[int], ...] = ([], [], [], [], [])
    for i in range(ell):
        levels = [t for t in range(height) if i + ell * t in beads]
        gaps = [t for t in range(height) if i + ell * t not in beads]
        highest = levels[::-1] + [-1, -1]
        for field, value in zip(out, (len(levels), gaps[0], sum(t < gaps[1] for t in levels), *highest[:2])):
            field.append(value)
    return out


# Signatures and operators


def signature(lam: Partition, i: int, ell: int, model: str) -> list[SignatureEntry]:
    """The i-signature: a + for each addable and a - for each removable box of
    residue i (col - row mod ell), bottom row first (classical) or by
    ladder, then row (ladder)."""
    entries = []
    rows = list(lam) + [0]
    for r, part in enumerate(rows, start=1):
        if (r == 1 or rows[r - 2] > part) and (part + 1 - r) % ell == i:
            entries.append(SignatureEntry(PLUS, (r, part + 1)))
        if part and rows[r] < part and (part - r) % ell == i:
            entries.append(SignatureEntry(MINUS, (r, part)))
    if model == LADDER:
        return sorted(entries, key=lambda e: (e.box[0] + (ell - 1) * (e.box[1] - 1), e.box[0]))
    return sorted(entries, key=lambda e: -e.box[0])


def reduced(entries: list[SignatureEntry]) -> list[SignatureEntry]:
    """The entries left once adjacent (-, +) pairs are cancelled until none is left."""
    stack: list[SignatureEntry] = []
    for entry in entries:
        if entry.sign == PLUS and stack and stack[-1].sign == MINUS:
            stack.pop()
        else:
            stack.append(entry)
    return stack


def word(lam: Partition, i: int, ell: int, model: str) -> ReducedWord:
    """The reduced signature as (plus boxes, minus boxes), each in reading order."""
    left = reduced(signature(lam, i, ell, model))
    return ReducedWord([e.box for e in left if e.sign == PLUS], [e.box for e in left if e.sign == MINUS])


def _edit(lam: Partition, box: tuple[int, int], delta: int) -> Partition:
    rows = list(lam) + [0]
    rows[box[0] - 1] += delta
    return tuple(part for part in rows if part)


def operators(lam: Partition, i: int, ell: int, model: str) -> tuple:
    """(epsilon, phi, e(lam), f(lam)): e removes the first minus box of the
    reduced signature (the good box), f adds its last plus box (the cogood)."""
    plus, minus = word(lam, i, ell, model)
    down = _edit(lam, minus[0], -1) if minus else None
    up = _edit(lam, plus[-1], 1) if plus else None
    return len(minus), len(plus), down, up


# Regularization, lock labels and deregularization


def ladder_counts(lam: Partition, ell: int) -> dict[int, int]:
    """Boxes per ladder, box by box: box (r, c) lies on ladder r + (ell-1)(c-1)."""
    return dict(Counter(r + (ell - 1) * (c - 1) for r, part in enumerate(lam, start=1) for c in range(1, part + 1)))


def _diagram(boxes: set) -> Partition:
    """The partition whose boxes are these, or AssertionError."""
    rows = Counter(row for row, _ in boxes)
    lam = tuple(rows[r] for r in range(1, max(rows, default=0) + 1))
    assert boxes == {(r, c) for r, part in enumerate(lam, start=1) for c in range(1, part + 1)}, sorted(boxes)
    assert list(lam) == sorted(lam, reverse=True) and all(lam), lam
    return lam


def regularize(lam: Partition, ell: int) -> Partition:
    """R(lam): each ladder's boxes moved to its topmost positions, columns
    top, top - 1, ... for the ladder's top column top = (k-1)//(ell-1) + 1."""
    step = ell - 1
    filled = set()
    for k, count in ladder_counts(lam, ell).items():
        top = (k - 1) // step + 1
        filled.update((k - step * (c - 1), c) for c in range(top - count + 1, top + 1))
    return _diagram(filled)


def blocking(lam: Partition, ell: int) -> list[int]:
    """blocked[k]: the leftmost column b whose first empty position
    (lam'_b + 1, b) lies on ladder k, or lam_1 + 1 if none."""
    step = ell - 1
    width = lam[0] if lam else 0
    blocked = [width + 1] * (len(lam) + step * width + 2)
    for b, length in enumerate(conjugate(lam), start=1):
        k = length + 1 + step * (b - 1)
        blocked[k] = min(blocked[k], b)
    return blocked


def lock_labels(lam: Partition, ell: int) -> dict[tuple[int, int], str]:
    """The paper's lock rules, row by row.  Box (r, c) is locked of type I
    when r = 1 or the box above is locked, and no empty position with a box
    of lam above it lies left of (r, c) on its ladder; boxes left of the
    row's rightmost type I box are locked of type II; the rest are unlocked."""
    blocked = blocking(lam, ell)
    labels: dict[tuple[int, int], str] = {}
    for r, part in enumerate(lam, start=1):
        type_one = [
            c
            for c in range(1, part + 1)
            if (r == 1 or labels[(r - 1, c)] != UNLOCKED) and blocked[r + (ell - 1) * (c - 1)] >= c
        ]
        rightmost = max(type_one, default=0)
        for c in range(1, part + 1):
            labels[(r, c)] = LOCKED_I if c in type_one else LOCKED_II if c < rightmost else UNLOCKED
    return labels


def deregularize(lam: Partition, ell: int) -> Partition:
    """D(lam): the locked boxes stay, and each ladder's unlocked boxes move
    to its lowest positions that hold no locked box.  The locked boxes of a
    row are a prefix of it."""
    step = ell - 1
    labels = lock_labels(lam, ell)
    fixed = {box for box, label in labels.items() if label != UNLOCKED}
    loose = Counter(r + step * (c - 1) for (r, c), label in labels.items() if label == UNLOCKED)
    filled = set(fixed)
    for k, count in loose.items():
        free = ((k - step * (c - 1), c) for c in range(1, (k - 1) // step + 2))  # bottom first
        for box in free:
            if count == 0:
                break
            if box not in fixed:
                filled.add(box)
                count -= 1
    return _diagram(filled)


# Hook rules


def ladder_node(lam: Partition, ell: int) -> bool:
    """No box has hook length equal to ell times its arm."""
    return not any(h == ell * (part - c - 1) for row, part in zip(hooks(lam), lam) for c, h in enumerate(row))


def L_partition(lam: Partition, ell: int) -> bool:
    """No box has a hook length h divisible by ell with h / ell <= min(arm, leg)."""
    return not any(
        h % ell == 0 and h // ell <= min(part - c - 1, h - part + c)  # arm, leg
        for row, part in zip(hooks(lam), lam)
        for c, h in enumerate(row)
    )


def jm_witness(lam: Partition, ell: int) -> tuple | None:
    """The first box (row-major) whose hook ell divides while its row and its
    column each hold a hook ell does not divide, as (base, row_mate,
    col_mate) with the first such mates; None when lam is (ell,0)-JM."""
    grid, cols = hooks(lam), conjugate(lam)
    col_mates = [next((r for r in range(1, n + 1) if grid[r - 1][b] % ell), None) for b, n in enumerate(cols)]
    for a, row in enumerate(grid, start=1):
        y = next((c for c, h in enumerate(row, start=1) if h % ell), None)
        for b, h in enumerate(row, start=1):
            if y is not None and h % ell == 0 and col_mates[b - 1] is not None:
                return (a, b), (a, y), (col_mates[b - 1], b)
    return None


def jm(lam: Partition, ell: int) -> bool:
    return jm_witness(lam, ell) is None


# Hereditary walks


def _walk(lam: Partition, ell: int, bad) -> bool:
    """False when bad(hook, its shape, the hooks left after removing it) holds
    for some hook of some partition that ell-rim hook removals reach from lam."""
    found = {lam: rim_hooks(lam, ell)}
    todo = [lam]
    while todo:
        cur = todo.pop()
        for path, kind in found[cur]:
            rest = remove(cur, path)
            if rest not in found:
                found[rest] = rim_hooks(rest, ell)
                todo.append(rest)
            if bad(path, kind, found[rest]):
                return False
    return True


def only_horizontal(lam: Partition, ell: int) -> bool:
    """Every hook of every partition that removals reach is horizontal: with
    ell-regularity, the definition of an ell-partition."""
    return _walk(lam, ell, lambda path, kind, rest: kind != HORIZONTAL)


def _touch(p: tuple, q: tuple) -> bool:
    return any(abs(r - s) + abs(c - d) == 1 for r, c in p for s, d in q)


def generalized(lam: Partition, ell: int) -> bool:
    """Every hook of every partition that removals reach is horizontal or
    vertical, and removing one exposes no touching hook of the other kind."""

    def bad(path, kind, rest):
        opposite = {HORIZONTAL: VERTICAL, VERTICAL: HORIZONTAL}.get(kind)
        return opposite is None or any(k == opposite and _touch(path, other) for other, k in rest)

    return _walk(lam, ell, bad)


# JM decomposition and composition


def _run(parts: Partition, ell: int) -> int:
    """How many leading parts exceed the next (or 0) by exactly ell - 1."""
    run = 0
    for a, b in zip(parts, parts[1:] + (0,)):
        if a - b != ell - 1:
            break
        run += 1
    return run


def frame(core: Partition, ell: int) -> tuple[Partition, int, int]:
    """(mu, r, s): the core less its r leading rows and s leading columns of difference ell - 1."""
    r, s = _run(core, ell), _run(conjugate(core), ell)
    return tuple(p - s for p in core[r:] if p > s), r, s


def frame_rows(mu: Partition, r: int, s: int, ell: int) -> Partition:
    """The core of frame (mu, r, s): mu with s columns put before it, then r
    rows put above it, each ell - 1 longer than the one it precedes."""
    rows = list(mu)
    for _ in range(s):
        rows = [p + 1 for p in rows] + [1] * (ell - 1)
    for _ in range(r):
        rows.insert(0, (rows[0] if rows else 0) + ell - 1)
    return tuple(rows)


def fits(mu: Partition, r: int, s: int, rho: Partition, sigma: Partition) -> bool:
    """Fayers's fit rule: rho has at most r + 1 parts and sigma at most s + 1,
    and when mu is empty they do not both fill their last slot."""
    return len(rho) <= r + 1 and len(sigma) <= s + 1 and (bool(mu) or len(rho) <= r or len(sigma) <= s)


def compose(core: Partition, rho: Partition, sigma: Partition, ell: int) -> Partition:
    """The core with rho_i horizontal ell-hooks added on row i + 1, then sigma_j
    vertical ones on column j + 1 (rows of the conjugate)."""
    rows = list(core) + [0] * len(rho)
    for i, mult in enumerate(rho):
        rows[i] += ell * mult
    cols = list(conjugate(tuple(p for p in rows if p))) + [0] * len(sigma)
    for j, mult in enumerate(sigma):
        cols[j] += ell * mult
    return conjugate(tuple(cols))


def decompose(lam: Partition, ell: int) -> JMDecomposition | None:
    """The decomposition of a JM partition: its hooks peeled down to the core,
    the horizontal ones tallied by row (rho) and the vertical ones by column
    (sigma), and the core read as its frame; None if a hook is neither."""
    rest, removed = peel(lam, ell)
    rho, sigma = Counter(), Counter()
    for path in removed:
        kind = shape(path)
        if kind == NEITHER:
            return None
        if kind == HORIZONTAL:
            rho[path[0][0]] += 1
        else:
            sigma[path[0][1]] += 1
    rho_t, sigma_t = (tuple(c[k] for k in range(1, max(c, default=0) + 1)) for c in (rho, sigma))
    return JMDecomposition(*frame(rest, ell), rho_t, sigma_t)


# Mullineux


def mullineux(lam: Partition, ell: int, order=None) -> Partition:
    """m(lam) as the crystal twist i -> -i: peel the whole i-string of a live
    residue i (the first live one in *order*, by default the largest; any
    gives the same image) down to the empty partition, then replay each as a
    (-i)-string of the same length: e^eps removes the reduced word's minus
    boxes from the first on, and f^eps adds its last eps plus boxes from the
    last back."""
    peeled = []
    while lam:
        minus = next(m for i in order or range(ell - 1, -1, -1) if (m := word(lam, i, ell, CLASSICAL).minus))
        peeled.append(((minus[0][1] - minus[0][0]) % ell, len(minus)))
        for box in minus:
            lam = _edit(lam, box, -1)
    image: Partition = ()
    for i, eps in reversed(peeled):
        plus = word(image, -i % ell, ell, CLASSICAL).plus
        assert len(plus) >= eps, (image, i, eps)
        for box in reversed(plus[-eps:]):
            image = _edit(image, box, 1)
    return image


def ell_rim(lam: Partition, ell: int) -> list[int]:
    """How many boxes of each row lie on lam's ell-rim (Mullineux 1979).

    The rim is walked south-west from (1, lam_1): down when the box below is
    in lam, else left.  The ell-rim is a union of segments of ell rim boxes
    (the last may be shorter); the first starts at (1, lam_1), and each
    later one at the last box of the row below the previous segment's last
    row.  Each row's ell-rim boxes end that row.
    """
    taken = [0] * len(lam)
    row = 1
    while row <= len(lam):
        col = lam[row - 1]
        for step in range(ell):
            taken[row - 1] += 1
            if step == ell - 1 or (row == len(lam) and col == 1):
                break
            if row < len(lam) and lam[row] >= col:
                row += 1
            else:
                col -= 1
        row += 1
    return taken


def mullineux_symbol(lam: Partition, ell: int) -> list[tuple[int, int]]:
    """The Mullineux symbol: (ell-rim size, number of rows) for each ell-rim
    peeled until lam is empty.  The symbol determines lam."""
    symbol = []
    while lam:
        taken = ell_rim(lam, ell)
        symbol.append((sum(taken), len(lam)))
        lam = tuple(part - t for part, t in zip(lam, taken) if part > t)
    return symbol


def mullineux_image_symbol(lam: Partition, ell: int) -> list[tuple[int, int]]:
    """The symbol of m(lam) (Mullineux 1979; Bessenrodt-Olsson 1998): column
    (a; r) becomes (a; a - r + eps), eps 0 when ell divides a and 1 otherwise."""
    return [(a, a - r + (1 if a % ell else 0)) for a, r in mullineux_symbol(lam, ell)]


# The suites' reports


def verify_isomorphism_by_graph(ell: int, depth: int) -> graph.VerificationReport:
    """verify_isomorphism as a loop over the nodes of build_crystal: an oracle
    for its report, failure records included.

    Each node's words are read again after the build, and every
    regularization is recomputed in full.  The map is regular._regularize,
    looked up at call time, so a test can count its calls, and the words
    are read through this module's reduced_words, so a test can corrupt the
    classical words for both walks.
    """
    report = graph.VerificationReport(suite="crystal-isomorphism", ell=ell, params={"depth": depth})
    regularize = regular._regularize
    for lam in graph.build_crystal(ell, depth, LADDER).nodes:
        image = regularize(lam, ell)
        pairs = zip(reduced_words(lam, ell, LADDER), reduced_words(image, ell, CLASSICAL))
        for i, (ladder, classical) in enumerate(pairs):
            for apply in (apply_f, apply_e):
                expected = apply(image, classical)
                moved = apply(lam, ladder)
                actual = None if moved is None else regularize(moved, ell)
                report.check(actual == expected, lam, i, expected, actual)
            phi, ladder_phi = len(classical.plus), len(ladder.plus)
            report.check(ladder_phi == phi, lam, i, f"phi {phi}", f"phi {ladder_phi}")
            eps, ladder_eps = len(classical.minus), len(ladder.minus)
            report.check(ladder_eps == eps, lam, i, f"epsilon {eps}", f"epsilon {ladder_eps}")
    return report


def string_end_checks_by_records(report, lam, i, ell, member, in_class, word: ReducedWord) -> None:
    """graph._string_end_checks with a report.check call, and its text, for
    every check: an oracle for the count and failure records of the walk that
    builds a record only for a failed check."""
    width = len(word.plus)
    cur = lam
    for k in range(1, width + 1):
        row, col = word.plus[-k]
        addable = col == (cur[row - 1] if row <= len(cur) else 0) + 1 and (row == 1 or cur[row - 2] >= col)
        report.check(addable, lam, i, f"{member}: f^{k} adds an addable box", f"{(row, col)} not addable")
        if not addable:
            return
        cur = cur[: row - 1] + (col,) + cur[row:]
        if k == width:
            report.check(in_class(cur, ell), lam, i, f"{member} after f^phi", "outside class")
        elif k < width - 1:
            report.check(not in_class(cur, ell), lam, i, f"not {member} after f^{k}", "inside class")
    depth = len(word.minus)
    cur = lam
    for k in range(1, depth + 1):
        row, col = word.minus[k - 1]
        removable = row <= len(cur) and cur[row - 1] == col and (row == len(cur) or cur[row] < col)
        report.check(removable, lam, i, f"{member}: e^{k} removes a removable box", f"{(row, col)} not removable")
        if not removable:
            return
        cur = cur[: row - 1] + ((col - 1,) if col > 1 else ()) + cur[row:]
        if k == depth:
            report.check(in_class(cur, ell), lam, i, f"{member} after e^epsilon", "outside class")
        elif k > 1:
            report.check(not in_class(cur, ell), lam, i, f"not {member} after e^{k}", "inside class")


def theorem_suite_by_records(ell: int, nmax: int, is_jm) -> graph.VerificationReport:
    """graph.theorem_suite partition by partition, with one report.check per
    check, the public predicates (looked up at call time in regular, so a
    test can swap one) and JM membership asked of is_jm(lam, ell): an oracle
    for the suite's count and failure records, as a multiset.  Up to nmax it
    asks in the suite's order: JM only of L-partitions, core only of JM
    partitions (core => JM => L-partition); past nmax, JM of any partition."""
    report = graph.VerificationReport(suite="crystal-theorems", ell=ell, params={"nmax": nmax})

    def jm_member(lam, ell):
        return (sum(lam) > nmax or regular.is_L_partition(lam, ell)) and is_jm(lam, ell)

    def ell_partition(lam, ell):
        return is_regular(lam, ell) and jm_member(lam, ell)

    def weak(lam, ell):
        return is_regular(lam, ell) and jm_member(regular.deregularize(lam, ell), ell)

    for n in range(nmax + 1):
        for lam in all_partitions(n):
            balanced = regular.is_L_partition(lam, ell)
            jm = balanced and is_jm(lam, ell)
            node = regular.is_ladder_node(lam, ell)
            core = jm and is_core(lam, ell)
            for member, noun in ((jm, "JM partitions"), (core, "cores"), (balanced, "L-partitions")):
                if member:
                    report.check(node, lam, None, f"{noun} are ladder nodes", "not a node")
            if jm:
                for i, w in enumerate(reduced_words(lam, ell, LADDER)):
                    string_end_checks_by_records(report, lam, i, ell, "jm", jm_member, w)
            mull = regular.mullineux(regular.regularize(lam, ell), ell)
            expected = f"mullineux(R(lam)) == R(lam') iff L-partition ({balanced})"
            agrees = mull == regular.regularize(conjugate(lam), ell)
            report.check(agrees == balanced, lam, None, expected, format_partition(mull))
            for member, in_class in (("ell-partition", ell_partition), ("weak", weak)):
                if in_class(lam, ell):
                    for i, w in enumerate(reduced_words(lam, ell, CLASSICAL)):
                        string_end_checks_by_records(report, lam, i, ell, member, in_class, w)
    return report


# Inputs


def regular_counts(ell: int, nmax: int) -> list[int]:
    """Number of ell-regular partitions of each n through nmax."""
    return [sum(1 for lam in all_partitions(n) if is_regular(lam, ell)) for n in range(nmax + 1)]


def random_partition(n: int, rng: random.Random) -> Partition:
    """A partition of n from parts drawn up to a random cap (long rows or long columns)."""
    cap = rng.choice([2, 5, int(n**0.5) + 1, n // 4 + 1, n])
    parts = []
    while n:
        parts.append(rng.randint(1, min(cap, n)))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def random_regular_partition(n: int, ell: int, rng: random.Random) -> Partition:
    """An ell-regular partition of at most n boxes: parts from a random cap
    down to 1, each taken 0..ell-1 times while it fits (many short rows or a
    few long ones)."""
    cap = rng.choice([int((2 * n) ** 0.5), n // 16, n // 4])
    parts: list[int] = []
    for value in range(cap, 0, -1):
        parts += [value] * min(rng.randint(0, ell - 1), (n - sum(parts)) // value)
    return tuple(parts)


def large_regular_partitions(ell: int) -> list[Partition]:
    """Six ell-regular partitions of at most 4,096 boxes, drawn for sizes from 500 up."""
    rng = random.Random(19790 + ell)
    return [random_regular_partition(rng.randint(500, 4096), ell, rng) for _ in range(6)]


def cores(ell: int, nmax: int) -> list[Partition]:
    """The ell-cores of size at most nmax: the partitions with no removable ell-rim hook."""
    return [c for n in range(nmax + 1) for c in all_partitions(n) if not rim_hooks(c, ell)]


def large_jm_partitions(ell: int, rng, count: int, hooks: tuple[int, int] = (1, 60)) -> list[Partition]:
    """JM partitions composed on random small cores, with a number of hooks
    in the range *hooks* on every row and column that the frame allows: a
    hundred boxes or more, or 600 or more from 100 hooks up."""
    out = []
    for c in rng.sample(cores(ell, 12)[1:], count):
        mu, r, s = frame(c, ell)
        rho = sorted((rng.randint(*hooks) for _ in range(r + 1)), reverse=True)
        sigma = sorted((rng.randint(*hooks) for _ in range(s + 1)), reverse=True)
        if not mu:  # then rho[r] and sigma[s] may not both be positive
            sigma.pop()
        out.append(compose(c, tuple(rho), tuple(sigma), ell))
    return out


def one_box_away(lam: Partition) -> list[Partition]:
    """The partitions with one box more or one box less than lam."""
    rows = list(lam) + [0]
    grown = [_edit(lam, (r, part + 1), 1) for r, part in enumerate(rows, start=1) if r == 1 or rows[r - 2] > part]
    shrunk = [_edit(lam, (r, part), -1) for r, part in enumerate(rows, start=1) if part and rows[r] < part]
    return grown + shrunk
