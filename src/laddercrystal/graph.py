"""Crystal graph construction, isomorphism checks, theorem suites, DOT export.

verify_isomorphism holds R for two levels and checks each move by one walk
down the moved box's ladder in R: the box it finds is compared with the
classical operator's, and partitions are built only for a new f_hat target
and where the boxes differ.  theorem_suite grows levels by the child rule
and reads each class off its level: D(rho) as the last member of rho's
fibre, so the ladder nodes are the fibre-last members; the Mullineux
images, one symbol read per pair {rho, m(rho)}; the (jm, core, L-partition)
answers, once per conjugate pair and in the order core => JM => L-partition
(the L test on every pair, JM only on L-partitions, core only on JM ones);
and the JM, ell-partition and weak members, against which a string's
f-steps are decided once their level is built.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

from .partitions import Partition, _children, _is_regular, _transpose, check_count, check_ell
from .rimhooks import _is_core
from .crystal import CLASSICAL, LADDER, ReducedWord, check_model, reduced_words
from .jm import _is_jm
from .regular import (
    _add_at,
    _add_to_ladder,
    _deregularize,
    _is_L_partition,
    _ladder_end,
    _mullineux_symbol,
    _remove_from_ladder,
)
from .strings import _format

Edge = tuple[Partition, Partition, int]

# The (jm, core, L-partition) triples that can occur: core => JM => L-partition
_NEITHER = (False, False, False)
_L_ONLY = (False, False, True)
_JM_ONLY = (True, False, True)
_CORE = (True, True, True)


class CrystalGraph(namedtuple("CrystalGraph", "ell model depth levels edges")):
    """The crystal of one model to a depth: ell (int), model (str), depth
    (int), levels (tuple[tuple[Partition, ...], ...], the nodes of each size)
    and edges (tuple[Edge, ...], each (source, target, residue))."""

    __slots__ = ()

    @property
    def nodes(self) -> list[Partition]:
        return [lam for level in self.levels for lam in level]


class VerificationReport:
    """The count of checks a suite ran and a record of each that failed."""

    __slots__ = ("suite", "ell", "params", "checks", "failures")
    __hash__ = None  # mutable

    def __init__(self, suite: str, ell: int, params: dict, checks: int = 0, failures: list[dict] | None = None):
        self.suite = suite
        self.ell = ell
        self.params = params
        self.checks = checks
        self.failures = [] if failures is None else failures

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.to_dict().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, lam: Partition, residue: int | None, expected, actual) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(
                {
                    "input": _format(lam),
                    "residue": residue,
                    "expected": str(expected),
                    "actual": str(actual),
                }
            )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ell": self.ell,
            "params": self.params,
            "checks": self.checks,
            "failures": self.failures,
        }


def build_crystal(ell: int, depth: int, model: str = CLASSICAL) -> CrystalGraph:
    """Breadth-first closure of the empty partition under the raising operators."""
    check_ell(ell)
    check_count("depth", depth)
    check_model(model)
    levels: list[tuple[Partition, ...]] = [((),)]
    edges: list[Edge] = []
    for _ in range(depth):  # levels are sorted, so edges come out by (level, source, residue)
        frontier: set[Partition] = set()
        for lam in levels[-1]:
            for i, (plus, _) in enumerate(reduced_words(lam, ell, model)):
                if plus:  # f adds the cogood box, plus[-1]
                    row, col = plus[-1]
                    mu = lam[: row - 1] + (col,) + lam[row:]
                    edges.append((lam, mu, i))
                    frontier.add(mu)
        levels.append(tuple(sorted(frontier)))
    return CrystalGraph(ell=ell, model=model, depth=depth, levels=tuple(levels), edges=tuple(edges))


def export_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT text: one rank block per level, edges labeled by residue."""
    lines = [f"digraph {graph.model}_crystal {{"]
    lines.append("  rankdir=TB;")
    lines.append("  node [shape=box];")
    name = {lam: f'"{_format(lam)}"' for level in graph.levels for lam in level}
    for level in graph.levels:
        ranked = " ".join(f"{name[lam]};" for lam in level)
        lines.append(f"  {{ rank=same; {ranked} }}")
    for src, dst, i in graph.edges:
        lines.append(f'  {name[src]} -> {name[dst]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_isomorphism(ell: int, depth: int) -> VerificationReport:
    """Check that regularization intertwines the two crystals node by node.

    For every ladder-crystal node through the given depth and every residue:
    regularize(f_hat(lam)) == f_tilde(regularize(lam)), the same for the
    lowering operators, and the string lengths agree.

    The check walks the ladder crystal once, level by level, with the nodes
    of a level in sorted order (the nodes and order of build_crystal).  One
    pass over the rows of lam gives its ladder words of every residue,
    recorded, sorted and reduced, and one over its image R(lam) the
    classical words, reduced as the rows are read; each pass costs
    O(len + ell).  All four answers on each side are read straight off the
    (plus, minus) pairs: the cogood box plus[-1], the good box minus[0] and
    the two lengths.  The f_hat targets form the next level.  R is held in
    two plain dicts, for the levels n and n + 1, from R(()) = ().

    Both sides of an operator check differ from R(lam) by one box, so the
    check compares boxes.  R is fixed by the ladder counts (James), so
    R(f_hat lam) is R(lam) plus the first empty position of the added box's
    ladder, and R(e_hat lam) is R(lam) less the last box of the removed
    box's ladder, (row - (ell-1), col + 1) for that position (row, col).
    One walk down the ladder (regular._ladder_end) per move finds it, and
    it must be f_tilde's cogood box plus[-1] (e_tilde's good box minus[0]).
    R(f_hat lam) is built, by one splice at that position (regular._add_at),
    only when the target is new to level n + 1; no e_hat target is built.
    Two different boxes can still splice R(lam) into one tuple (a wrong
    good box (2, 1) and the last box (3, 1) both take a one-box row off
    (2, 1, 1)), so where the boxes differ both partitions are built and the
    check fails only if they differ too, as in a loop over the built
    crystal.  A passing check is counted; only a failed one builds its
    record and text.
    """
    check_ell(ell)
    check_count("depth", depth)
    report = VerificationReport(suite="crystal-isomorphism", ell=ell, params={"depth": depth})
    step = ell - 1
    passed = 0
    here: dict[Partition, Partition] = {(): ()}
    for _ in range(depth + 1):
        above: dict[Partition, Partition] = {}
        for lam in sorted(here):
            image = here[lam]
            pairs = zip(reduced_words(lam, ell, LADDER), reduced_words(image, ell, CLASSICAL))
            for i, ((ladder_plus, ladder_minus), (plus, minus)) in enumerate(pairs):
                end = None
                if ladder_plus:  # f_hat adds the cogood box, ladder_plus[-1]
                    box = row, col = ladder_plus[-1]
                    end = _ladder_end(image, box, ell)
                    moved = lam[: row - 1] + (col,) + lam[row:]
                    if moved not in above:
                        above[moved] = _add_at(image, end)
                if end == (plus[-1] if plus else None):  # f_tilde adds the cogood box, plus[-1]
                    passed += 1
                else:  # the boxes differ: compare the partitions
                    actual = above[moved] if ladder_plus else None
                    expected = _add_at(image, plus[-1]) if plus else None
                    report.check(actual == expected, lam, i, expected, actual)
                last = None
                if ladder_minus:  # e_hat removes the good box, ladder_minus[0]
                    row, col = _ladder_end(image, ladder_minus[0], ell)
                    last = row - step, col + 1
                if last == (minus[0] if minus else None):  # e_tilde removes the good box, minus[0]
                    passed += 1
                else:  # the boxes differ: compare the partitions
                    actual = _remove_from_ladder(image, ladder_minus[0], ell) if ladder_minus else None
                    expected = None
                    if minus:
                        row, col = minus[0]
                        expected = image[: row - 1] + ((col - 1,) if col > 1 else ()) + image[row:]
                    report.check(actual == expected, lam, i, expected, actual)
                phi, ladder_phi = len(plus), len(ladder_plus)
                eps, ladder_eps = len(minus), len(ladder_minus)
                if ladder_phi == phi and ladder_eps == eps:
                    passed += 2
                else:  # the failure text is built only for a failed check
                    report.check(ladder_phi == phi, lam, i, f"phi {phi}", f"phi {ladder_phi}")
                    report.check(ladder_eps == eps, lam, i, f"epsilon {eps}", f"epsilon {ladder_eps}")
        here = above
    report.checks += passed
    return report


def _string_end_checks(
    report: VerificationReport,
    lam: Partition,
    i: int,
    member: str,
    members,
    word: ReducedWord,
    later,
) -> None:
    """Walk the i-string of lam to both ends, given lam's reduced i-word.

    f^k adds the plus boxes of the word from the last one back, and e^k
    removes its minus boxes from the first one on, one box per step, so the
    walk reads no further word.  Each step must add an addable box (remove
    a removable one), f^phi and e^epsilon must stay in the class, f^k must
    leave it for k <= phi - 2, and e^k must leave it for
    2 <= k <= epsilon - 1.  f^(phi-1) and e^1 are not checked: they can stay
    in the class (at ell = 3, f_hat_2(2) = (3) and e_hat_2(3,1) = (3) are
    JM).

    An e-step lands on a smaller size, so cur in members answers it at once.
    An f-step lands on a larger size, so its class check is handed to later
    as (lam, i, member, k, is_end, cur), for _end_checks to decide once the
    class is known at |cur|.
    """
    width = len(word.plus)
    cur = lam
    for k in range(1, width + 1):
        row, col = word.plus[-k]
        addable = col == (cur[row - 1] if row <= len(cur) else 0) + 1 and (
            row == 1 or cur[row - 2] >= col
        )
        if not addable:
            report.check(False, lam, i, f"{member}: f^{k} adds an addable box", f"{(row, col)} not addable")
            return
        report.checks += 1
        cur = cur[: row - 1] + (col,) + cur[row:]
        if k != width - 1:
            later((lam, i, member, k, k == width, cur))
    depth = len(word.minus)
    cur = lam
    for k in range(1, depth + 1):
        row, col = word.minus[k - 1]
        removable = row <= len(cur) and cur[row - 1] == col and (row == len(cur) or cur[row] < col)
        if not removable:
            report.check(False, lam, i, f"{member}: e^{k} removes a removable box", f"{(row, col)} not removable")
            return
        report.checks += 1
        cur = cur[: row - 1] + ((col - 1,) if col > 1 else ()) + cur[row:]
        if k == 1 and depth > 1:
            continue
        inside = cur in members
        if inside == (k == depth):
            report.checks += 1
        elif inside:
            report.check(False, lam, i, f"not {member} after e^{k}", "inside class")
        else:
            report.check(False, lam, i, f"{member} after e^epsilon", "outside class")


def _end_checks(report: VerificationReport, checks, classes: dict) -> None:
    """Decide the f-step checks (lam, i, member, k, is_end, cur) that
    _string_end_checks handed on: f^k(lam) = cur must lie in classes[member]
    exactly when it ends the string."""
    passed = 0
    for lam, i, member, k, is_end, cur in checks:
        inside = cur in classes[member]
        if inside == is_end:
            passed += 1
        elif inside:
            report.check(False, lam, i, f"not {member} after f^{k}", "inside class")
        else:
            report.check(False, lam, i, f"{member} after f^phi", "outside class")
    report.checks += passed


def _check_level(report: VerificationReport, n: int, reg: dict, ell: int, classes: dict, queued: defaultdict) -> None:
    """Run the checks of level n, given as reg: every partition of size n
    with its regularization, in partitions_of order.

    D(rho), for each ell-regular rho of size n, is read off the level: the
    last lam with R(lam) = rho is the lex-least member of rho's ladder class,
    and D(rho) is its dominance-least one (James), so lex-least too.  The
    ladder nodes of the level are the D(rho), so lam is a node exactly when
    it is the last member of its fibre.  JM, core and L-partition membership
    are decided once per pair {lam, lam'}, L first, then JM only for an
    L-partition and core only for a JM partition (core => JM => L), and
    kept as one of the four shared triples beside a list of the
    mates R(lam').  Mullineux's symbol is read once per pair {rho, m(rho)}:
    m is an involution (Mullineux).
    The level's members of the three walked classes join classes, and the
    f-step checks queued for size n are decided; then each lam is checked,
    in order, and its f-steps are queued under the sizes they land on.
    """

    def later(check: tuple) -> None:  # check[3] is k, the boxes f^k adds
        queued[n + check[3]].append(check)

    least = {rho: lam for lam, rho in reg.items()}  # the last lam of each fibre wins: D(rho)
    mates = []  # R(lam') of each lam, in order
    facts = []  # (jm, core, L-partition) of each lam, in order: one of the four shared triples
    pending = {}  # lam' -> (R(lam), facts), decided at lam, until lam' comes up
    for lam, image in reg.items():
        if lam in pending:
            mate, fact = pending.pop(lam)
        else:
            conj = _transpose(lam)
            if not _is_L_partition(lam, ell):  # core => JM => L-partition
                fact = _NEITHER
            elif not _is_jm(lam, ell):
                fact = _L_ONLY
            else:
                fact = _CORE if _is_core(lam, ell) else _JM_ONLY
            mate = reg[conj]
            pending[conj] = image, fact
        mates.append(mate)
        facts.append(fact)
    jm_n = {lam for lam, fact in zip(reg, facts) if fact[0]}
    classes["jm"] |= jm_n
    classes["ell-partition"].update(rho for rho in least if rho in jm_n)
    classes["weak"].update(rho for rho, lam in least.items() if lam in jm_n)
    _end_checks(report, queued.pop(n, ()), classes)
    here: dict[Partition, Partition] = {}  # m(m(rho)) = rho (Mullineux): one read files both images
    for rho in least:
        if rho not in here:
            here[rho] = mull = _mullineux_symbol(rho, ell)
            here.setdefault(mull, rho)  # no partner overwrites an image read at its own key
    for (lam, image), mate, (jm, core, balanced) in zip(reg.items(), mates, facts):
        node = least[image] is lam  # the ladder nodes are the D(rho)
        if node:
            report.checks += jm + core + balanced
        if jm:
            if not node:
                report.check(False, lam, None, "JM partitions are ladder nodes", "not a node")
            for i, word in enumerate(reduced_words(lam, ell, LADDER)):
                _string_end_checks(report, lam, i, "jm", classes["jm"], word, later)
        if core and not node:
            report.check(False, lam, None, "cores are ladder nodes", "not a node")
        if balanced and not node:
            report.check(False, lam, None, "L-partitions are ladder nodes", "not a node")
        mull = here[image]
        if (mull == mate) == balanced:
            report.checks += 1
        else:
            expected = f"mullineux(R(lam)) == R(lam') iff L-partition ({balanced})"
            report.check(False, lam, None, expected, _format(mull))
        if lam in here:
            words = None  # one classical read serves both classes
            for name in ("ell-partition", "weak"):
                members = classes[name]
                if lam in members:
                    words = words or reduced_words(lam, ell, CLASSICAL)
                    for i, word in enumerate(words):
                        _string_end_checks(report, lam, i, name, members, word, later)


def theorem_suite(ell: int, nmax: int) -> VerificationReport:
    """Exhaustive structural checks over all partitions of size up to nmax.

    The sweep runs level by level, n = 0..nmax.  Level n is a table of
    every partition of size n and its regularization (lam and lam' lie in
    the same level), grown from level n - 1's, starting at {(): ()}: each
    partition lists its children (partitions._children), each image one
    ladder step up from its parent's.  From the level the sweep reads:

    - D(rho) for every ell-regular rho of size n, by inverting the table:
      D(rho) is the dominance-least member of rho's ladder class (James), so
      also its lex-least one, and the level lists its partitions in
      reverse-lex order, so the last lam with R(lam) = rho is D(rho).  The
      keys are exactly the ell-regular partitions of size n.  The ladder
      nodes of size n are these D(rho), so lam is a node exactly when it is
      the last member of its fibre: one lookup, with no lock test.
    - the JM, core and L-partition answers of every lam of the level,
      decided once per pair {lam, lam'}: the three conditions are kept under
      conjugation (hooks stay, arm and leg swap).  They are decided in the
      order core => JM => L-partition, so each pair costs the L test, an
      L-partition also the JM test, and a JM partition also the core test.
      Core => JM: a core has no hook divisible by ell, so no Fayers
      witness.  JM => L: in a JM partition a box with a divisible hook h has
      a row or a column of divisible hooks, distinct multiples of ell, so
      h >= ell * (arm + 1) or h >= ell * (leg + 1), and h / ell <=
      min(arm, leg) fails.  So only four (jm, core, L) triples occur, and
      the level holds each answer as one of four shared tuples.
    - the Mullineux images of the ell-regular partitions, read off
      Mullineux's symbol (regular._mullineux_symbol) in O(len(rho)) per
      ell-rim, once per pair {rho, m(rho)}: m is an involution (Mullineux),
      so one read gives both images.  The check m(R(lam)) == R(lam') is one
      lookup.  It constrains m only through "m(R(lam)) = R(lam') exactly
      when lam is an L-partition": a class that holds an L-partition pins
      m(rho), but on a class with none the suite only rules out the images
      R(lam') of its members, so any other wrong image passes.  47 of the
      405 ell-regular rho at (3, 16) and 134 of the 339 at (4, 14) have no
      L-partition in their class.  The tier-1 tests that check m there are
      test_mullineux_symbol_kernel_is_an_involution, and
      test_mullineux_matches_one_box_reference and its large-partition
      twin, which hold m to the crystal twist in tests/oracles.py.
    - the members of size n of the three classes whose strings are walked:
      JM, ell-partition (ell-regular and JM) and weak (ell-regular with D
      JM), added to one set per class that holds every finished size.

    An e-step of a string walk lands on a finished size, so its check reads
    the class's set.  An f-step lands on a larger size: its check waits in a
    queue for that size and is decided as soon as that level's members are
    in the sets.  Checks that land past nmax are decided at the end, each
    distinct partition once, by the predicates (jm._is_jm,
    partitions._is_regular, regular._deregularize), memoized for the call;
    JM is asked there of any partition, L-partition or not, since most
    f-step targets past nmax are L-partitions.

    Apart from those lookups a check costs what its predicate costs, with
    no argument checks: one pass over the rows per partition and model
    gives every residue's reduced word, each i-string is walked from that
    word one box per step, cores are read off the abacus, JM membership
    reads each runner's highest bead and lowest gap, and the L-partition
    check reads the beads once, testing each against the nearby gaps of its
    runner.  No check builds a hook grid.  A passing check is counted; only
    a failed one builds its record and text.  No table outlives the call,
    and no process-wide cache is read or filled.
    """
    check_ell(ell, minimum=3)
    check_count("nmax", nmax)
    report = VerificationReport(suite="crystal-theorems", ell=ell, params={"nmax": nmax})
    classes: dict[str, set[Partition]] = {"jm": set(), "ell-partition": set(), "weak": set()}  # every checked size
    queued: defaultdict[int, list[tuple]] = defaultdict(list)  # f-step checks by the size they land on
    reg: dict[Partition, Partition] = {(): ()}
    for n in range(nmax + 1):
        if n:  # the level, in order, each image one ladder step from its parent's
            reg = {lam: _add_to_ladder(reg[mu], box, ell) for mu, lam, box in _children(reg)}
        _check_level(report, n, reg, ell, classes, queued)
    del reg  # the checks past nmax read no level
    decided: dict[Partition, bool] = {}  # JM past nmax, each partition decided once

    def is_jm(lam: Partition) -> bool:
        answer = decided.get(lam)
        if answer is None:
            answer = decided[lam] = _is_jm(lam, ell)
        return answer

    decide = {
        "jm": is_jm,
        "ell-partition": lambda lam: _is_regular(lam, ell) and is_jm(lam),
        "weak": lambda lam: _is_regular(lam, ell) and is_jm(_deregularize(lam, ell)),
    }
    for size in sorted(queued):
        checks = queued[size]
        for member, cur in {(check[2], check[5]) for check in checks}:
            if decide[member](cur):
                classes[member].add(cur)
        _end_checks(report, checks, classes)
    return report
