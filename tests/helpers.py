"""Test oracles: expected crystal levels, the isomorphism check over a built
ladder crystal, the hook rule for ladder nodes, the ell-rim walked box by
box with the Mullineux symbol it gives, and the Mullineux map as the crystal
defines it, peeled by whole strings of the largest live residue."""

from __future__ import annotations

from laddercrystal import graph
from laddercrystal.crystal import CLASSICAL, LADDER, apply_e, apply_f, reduced_word, reduced_words
from laddercrystal.partitions import Partition, all_partitions, check_partition, hook_grid, is_regular
from laddercrystal.regular import deregularize


def regular_counts(ell: int, nmax: int) -> list[int]:
    """Number of ell-regular partitions of each n through nmax."""
    return [sum(1 for lam in all_partitions(n) if is_regular(lam, ell)) for n in range(nmax + 1)]


def mullineux_by_largest_residue(lam: Partition, ell: int) -> Partition:
    """m(lam) on the crystal, an oracle for mullineux's symbol computation.

    The map twists residues i -> -i (Ford-Kleshchev), so it carries a whole
    i-string to a (-i)-string of the same length: peel e_i^eps of the
    largest live residue i down to the empty partition, then replay
    f_{-i}^eps upward.  Any live residue gives the same image."""
    peeled = []
    while lam:
        words = reduced_words(lam, ell, CLASSICAL)
        i = max(i for i, word in enumerate(words) if word.minus)
        word = words[i]
        peeled.append((i, len(word.minus)))
        lam = apply_e(lam, word, len(word.minus))
    image: Partition = ()
    for i, eps in reversed(peeled):
        image = apply_f(image, reduced_word(image, (-i) % ell, ell, CLASSICAL), eps)
    return image


def verify_isomorphism_by_graph(ell: int, depth: int) -> graph.VerificationReport:
    """verify_isomorphism as a loop over the nodes of build_crystal: an oracle
    for its report, failure records included.

    Each node's words are read again after the build, and every
    regularization is recomputed.  The map is graph._regularize, looked up
    at call time, so a test can replace it with a wrong one.
    """
    report = graph.VerificationReport(suite="crystal-isomorphism", ell=ell, params={"depth": depth})
    regularize = graph._regularize
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


def ladder_node_levels(ell: int, nmax: int) -> list[set[Partition]]:
    """Deregularizations of the regular partitions, level by level."""
    return [
        {deregularize(lam, ell) for lam in all_partitions(n) if is_regular(lam, ell)}
        for n in range(nmax + 1)
    ]


def ladder_node_by_hooks(lam: Partition, ell: int) -> bool:
    """True when no box has hook length equal to ell times its arm: the hook
    rule for ladder crystal nodes, scanned over the whole hook grid."""
    for hooks, part in zip(hook_grid(lam), lam):
        for col, h in enumerate(hooks, start=1):
            if h == ell * (part - col):
                return False
    return True


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
    """The Mullineux symbol: (ell-rim size, number of rows) for each peel.

    Peeling ell-rims until lam is empty gives the columns (a_j; r_j).  The
    symbol determines lam.
    """
    symbol = []
    while lam:
        taken = ell_rim(lam, ell)
        symbol.append((sum(taken), len(lam)))
        lam = check_partition(tuple(part - t for part, t in zip(lam, taken) if part > t))
    return symbol


def mullineux_image_symbol(lam: Partition, ell: int) -> list[tuple[int, int]]:
    """The symbol of lam's Mullineux image (Mullineux 1979; Bessenrodt-Olsson 1998).

    Column (a; r) becomes (a; a - r + eps), where eps is 0 when ell divides
    a and 1 otherwise.
    """
    return [(a, a - r + (1 if a % ell else 0)) for a, r in mullineux_symbol(lam, ell)]
