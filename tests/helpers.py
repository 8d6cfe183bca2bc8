"""Test oracles: expected crystal levels, the isomorphism check over a built
ladder crystal, the hook rules for ladder nodes and L-partitions, the
blocking table scanned column by column, the ell-rim walked box by box with
the Mullineux symbol it gives, and the Mullineux map as the crystal defines
it, peeled by whole strings of the largest live residue; the string-end
checks with one report.check per check, the sweep's walk with its f-steps
decided at once, and the theorem suite over every partition with one
report.check per check; and large JM partitions with their
one-box neighbours, for the oracles to check; ladder counts and
regularization box by box and ladder by ladder, and the conjugate box by
box; JM composition through two full transposes, and deregularization from
a list of locked prefixes."""

from __future__ import annotations

from laddercrystal import graph, regular
from laddercrystal.crystal import CLASSICAL, LADDER, ReducedWord, apply_e, apply_f, reduced_word, reduced_words
from laddercrystal.jm import JMDecomposition, _core_frame, _fits, compose_jm
from laddercrystal.partitions import (
    Partition,
    _transpose,
    add_box,
    addable_corners,
    all_partitions,
    check_partition,
    hook_grid,
    is_regular,
    partitions_of,
    remove_box,
    removable_corners,
    transpose,
)
from laddercrystal.regular import (
    _assemble,
    _blocking,
    deregularize,
    is_L_partition,
    is_ladder_node,
    mullineux,
    regularize,
)
from laddercrystal.rimhooks import is_core
from laddercrystal.strings import format_partition


def regular_counts(ell: int, nmax: int) -> list[int]:
    """Number of ell-regular partitions of each n through nmax."""
    return [sum(1 for lam in all_partitions(n) if is_regular(lam, ell)) for n in range(nmax + 1)]


def mullineux_by_largest_residue(lam: Partition, ell: int) -> Partition:
    """m(lam) on the crystal, an oracle for mullineux's symbol computation.

    The map twists residues i -> -i (Ford-Kleshchev), so it carries a whole
    i-string to a (-i)-string of the same length: peel e_i^eps of the
    largest live residue i down to the empty partition, then replay
    f_{-i}^eps upward, one box of the reduced word at a time: e^eps removes
    its minus boxes from the first on and f^eps adds its last eps plus boxes
    from the last back.  Any live residue gives the same image."""
    peeled = []
    while lam:
        words = reduced_words(lam, ell, CLASSICAL)
        i = max(i for i, word in enumerate(words) if word.minus)
        word = words[i]
        peeled.append((i, len(word.minus)))
        for box in word.minus:
            lam = remove_box(lam, box)
    image: Partition = ()
    for i, eps in reversed(peeled):
        plus = reduced_word(image, (-i) % ell, ell, CLASSICAL).plus
        assert len(plus) >= eps, (image, i, eps)
        for box in reversed(plus[-eps:]):
            image = add_box(image, box)
    return image


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


def string_end_checks_by_records(
    report: graph.VerificationReport,
    lam: Partition,
    i: int,
    ell: int,
    member: str,
    in_class,
    word: ReducedWord,
) -> None:
    """graph._string_end_checks with a report.check call, and its text, for
    every check: an oracle for the count and failure records of the walk that
    builds a record only for a failed check."""
    width = len(word.plus)
    cur = lam
    for k in range(1, width + 1):
        row, col = word.plus[-k]
        addable = col == (cur[row - 1] if row <= len(cur) else 0) + 1 and (
            row == 1 or cur[row - 2] >= col
        )
        report.check(
            addable, lam, i, f"{member}: f^{k} adds an addable box", f"{(row, col)} not addable"
        )
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
        report.check(
            removable, lam, i, f"{member}: e^{k} removes a removable box", f"{(row, col)} not removable"
        )
        if not removable:
            return
        cur = cur[: row - 1] + ((col - 1,) if col > 1 else ()) + cur[row:]
        if k == depth:
            report.check(in_class(cur, ell), lam, i, f"{member} after e^epsilon", "outside class")
        elif k > 1:
            report.check(not in_class(cur, ell), lam, i, f"not {member} after e^{k}", "inside class")


def string_end_checks_at_once(
    report: graph.VerificationReport,
    lam: Partition,
    i: int,
    ell: int,
    member: str,
    in_class,
    word: ReducedWord,
) -> None:
    """graph._string_end_checks with in_class(cur, ell) answering every step,
    each f-step check decided as soon as the walk hands it on: the sweep's
    count and records, in the order of string_end_checks_by_records."""

    class Members:
        def __contains__(self, cur):
            return in_class(cur, ell)

    members = Members()

    def at_once(check):
        graph._end_checks(report, [check], {member: members})

    graph._string_end_checks(report, lam, i, member, members, word, at_once)


def theorem_suite_by_records(ell: int, nmax: int, is_jm) -> graph.VerificationReport:
    """graph.theorem_suite partition by partition, with one report.check per
    check, the public predicates and JM membership asked of is_jm(lam, ell):
    an oracle for the suite's count and failure records, as a multiset."""
    report = graph.VerificationReport(suite="crystal-theorems", ell=ell, params={"nmax": nmax})

    def ell_partition(lam, ell):
        return is_regular(lam, ell) and is_jm(lam, ell)

    def weak(lam, ell):
        return is_regular(lam, ell) and is_jm(deregularize(lam, ell), ell)

    for n in range(nmax + 1):
        for lam in all_partitions(n):
            jm, core, balanced = is_jm(lam, ell), is_core(lam, ell), is_L_partition(lam, ell)
            node = is_ladder_node(lam, ell)
            for member, noun in ((jm, "JM partitions"), (core, "cores"), (balanced, "L-partitions")):
                if member:
                    report.check(node, lam, None, f"{noun} are ladder nodes", "not a node")
            if jm:
                for i, word in enumerate(reduced_words(lam, ell, LADDER)):
                    string_end_checks_by_records(report, lam, i, ell, "jm", is_jm, word)
            mull = mullineux(regularize(lam, ell), ell)
            expected = f"mullineux(R(lam)) == R(lam') iff L-partition ({balanced})"
            agrees = mull == regularize(transpose(lam), ell)
            report.check(agrees == balanced, lam, None, expected, format_partition(mull))
            for member, in_class in (("ell-partition", ell_partition), ("weak", weak)):
                if in_class(lam, ell):
                    for i, word in enumerate(reduced_words(lam, ell, CLASSICAL)):
                        string_end_checks_by_records(report, lam, i, ell, member, in_class, word)
    return report


def ladder_tally_by_boxes(lam: Partition, ell: int) -> list[int]:
    """regular._ladder_tally box by box: row r adds one to each ladder
    r, r + (ell-1), ..., r + (ell-1)(lam_r - 1)."""
    if not lam:
        return [0]
    step = ell - 1
    tally = [0] * (len(lam) + step * (lam[0] - 1) + 1)
    for row, part in enumerate(lam, start=1):
        for k in range(row, row + step * part, step):
            tally[k] += 1
    return tally


def regularize_by_ladders(lam: Partition, ell: int) -> Partition:
    """regular._regularize ladder by ladder: ladder k's boxes fill its
    topmost positions, columns top - count + 1 .. top for its top column
    top = (k - 1) // (ell-1) + 1, one box at a time."""
    step = ell - 1
    tally = ladder_tally_by_boxes(lam, ell)
    lengths = [0] * len(tally)
    for k, count in enumerate(tally):
        top = (k - 1) // step + 1
        for col in range(top - count + 1, top + 1):
            lengths[k - step * (col - 1)] += 1
    while lengths[-1] == 0 and len(lengths) > 1:
        lengths.pop()
    return check_partition(lengths[1:])


def transpose_by_boxes(lam: Partition) -> Partition:
    """Column lengths counted box by box: column c has one box per row of length c or more."""
    cols = [0] * (lam[0] if lam else 0)
    for part in lam:
        for c in range(part):
            cols[c] += 1
    return tuple(cols)


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


def blocking_by_columns(lam: Partition, ell: int) -> list[int]:
    """regular._blocking read off the conjugate: column b, of length lam'_b,
    has its first empty position on ladder lam'_b + 1 + (ell-1)(b-1), and
    each ladder keeps the leftmost column found there (lam_1 + 1 if none)."""
    step = ell - 1
    width = lam[0] if lam else 0
    blocked = [width + 1] * (len(lam) + step * width + 2)
    for b, col_length in enumerate(transpose(lam), start=1):
        k = col_length + 1 + step * (b - 1)
        blocked[k] = min(blocked[k], b)
    return blocked


def L_partition_by_hooks(lam: Partition, ell: int) -> bool:
    """True when no box has a hook length h divisible by ell with
    h / ell <= min(arm, leg): the L-partition rule, scanned over the whole
    hook grid."""
    for hooks, part in zip(hook_grid(lam), lam):
        for col, h in enumerate(hooks, start=1):
            if not h % ell and h // ell <= min(part - col, h - 1 - part + col):  # arm, leg
                return False
    return True


def large_jm_partitions(ell: int, rng, count: int, hooks: tuple[int, int] = (1, 60)) -> list[Partition]:
    """JM partitions composed on random small cores, with a number of hooks
    in the range *hooks* on every row and column that the frame allows: a
    hundred boxes or more, or 600 or more from 100 hooks up."""
    cores = [c for n in range(1, 13) for c in all_partitions(n) if is_core(c, ell)]
    out = []
    for core in rng.sample(cores, count):
        mu, r, s = _core_frame(core, ell)
        rho = sorted((rng.randint(*hooks) for _ in range(r + 1)), reverse=True)
        sigma = sorted((rng.randint(*hooks) for _ in range(s + 1)), reverse=True)
        if not mu:  # then rho[r] and sigma[s] may not both be positive
            sigma.pop()
        out.append(compose_jm(JMDecomposition(mu, r, s, tuple(rho), tuple(sigma)), ell))
    return out


def one_box_away(lam: Partition) -> list[Partition]:
    """The partitions with one box more or one box less than lam."""
    return [add_box(lam, b) for b in addable_corners(lam)] + [remove_box(lam, b) for b in removable_corners(lam)]


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


def compose_by_transposes(core: Partition, rho: Partition, sigma: Partition, ell: int) -> Partition:
    """jm._compose as it was: rho_i hooks added to row i + 1 of the core,
    then sigma_j to column j + 1, through two full transposes."""
    rows = list(core) + [0] * len(rho)
    for i, mult in enumerate(rho):
        rows[i] += mult * ell
    cols = list(_transpose(rows)) + [0] * len(sigma)
    for j, mult in enumerate(sigma):
        cols[j] += mult * ell
    return _transpose(cols)


def enumerate_jm_by_transposes(core: Partition, w: int, ell: int) -> list[Partition]:
    """jm.enumerate_jm as it was: partitions_of and a transpose for every
    size and every partition, and compose_by_transposes for every pair."""
    mu, r, s = _core_frame(core, ell)
    out = []
    for t in range(w + 1):
        sigmas = [_transpose(p) for p in partitions_of(w - t, s + 1)]
        for rho in map(_transpose, partitions_of(t, r + 1)):
            for sigma in sigmas:
                if _fits(mu, r, s, rho, sigma):
                    out.append(compose_by_transposes(core, rho, sigma, ell))
    return sorted(out, reverse=True)


def deregularize_by_lock_prefixes(lam: Partition, ell: int) -> Partition:
    """regular._deregularize as it was: the list of every row's locked
    prefix first, then the loose boxes counted box by box, and every ladder
    walked up from column 1 past its locked positions."""
    step = ell - 1
    blocked = _blocking(lam, ell)
    prefixes = []
    bound = lam[0] if lam else 0
    for row, part in enumerate(lam, start=1):
        col = min(part, bound)
        k = row + step * (col - 1)
        while col and blocked[k] < col:
            col -= 1
            k -= step
        prefixes.append(col)
        bound = col
    size = len(lam) + step * (lam[0] - 1) + 1 if lam else 1
    loose = [0] * size
    lengths = [0] * size
    for row, (part, locked) in enumerate(zip(lam, prefixes), start=1):
        lengths[row] = locked
        for k in range(row + step * locked, row + step * part, step):
            loose[k] += 1
    depth = len(lam)
    for k, count in enumerate(loose):
        row, col = k, 1
        while count:
            if row > depth or col > prefixes[row - 1]:
                lengths[row] += 1
                count -= 1
            row -= step
            col += 1
    return _assemble(lengths)
