"""Crystal graph construction, isomorphism checks, theorem suites, DOT export."""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition, _is_regular, _transpose, check_count, check_ell, partitions_of
from .rimhooks import _is_core
from .crystal import CLASSICAL, LADDER, ReducedWord, apply_e, apply_f, check_model, reduced_words
from .jm import _is_ell_partition, _is_jm
from .regular import (
    _deregularize,
    _is_L_partition,
    _is_ladder_node,
    _mullineux_level,
    _regularize,
)
from .strings import _format

Edge = tuple[Partition, Partition, int]


class CrystalGraph(NamedTuple):
    ell: int
    model: str
    depth: int
    levels: tuple[tuple[Partition, ...], ...]
    edges: tuple[Edge, ...]

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
            for i, word in enumerate(reduced_words(lam, ell, model)):
                mu = apply_f(lam, word)
                if mu is not None:
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
    lowering operators, and the string lengths agree.  All four answers on
    each side are read from one reduced word, and one pass over the rows of
    lam (and one of its image) gives the words of every residue.
    """
    check_ell(ell)
    report = VerificationReport(suite="crystal-isomorphism", ell=ell, params={"depth": depth})
    regularized = _ClassTable(_regularize)
    for lam in build_crystal(ell, depth, LADDER).nodes:
        image = regularized(lam, ell)
        pairs = zip(reduced_words(lam, ell, LADDER), reduced_words(image, ell, CLASSICAL))
        for i, (ladder, classical) in enumerate(pairs):
            for apply in (apply_f, apply_e):
                expected = apply(image, classical)
                moved = apply(lam, ladder)
                actual = None if moved is None else regularized(moved, ell)
                report.check(actual == expected, lam, i, expected, actual)
            phi, ladder_phi = len(classical.plus), len(ladder.plus)
            report.check(ladder_phi == phi, lam, i, f"phi {phi}", f"phi {ladder_phi}")
            eps, ladder_eps = len(classical.minus), len(ladder.minus)
            report.check(ladder_eps == eps, lam, i, f"epsilon {eps}", f"epsilon {ladder_eps}")
    return report


class _ClassTable:
    """Memoized fn(lam, ell), never None, per partition size: a class's membership or a
    map such as _regularize.  A sweep owns its tables; dropping the sizes it has passed
    keeps a few levels in them, never every partition seen."""

    def __init__(self, fn):
        self._fn = fn
        self._by_size: dict[int, dict] = {}

    def __call__(self, lam: Partition, ell: int):
        table = self._by_size.setdefault(sum(lam), {})
        value = table.get(lam)
        if value is None:
            value = table[lam] = self._fn(lam, ell)
        return value

    def drop_below(self, n: int) -> None:
        for size in [size for size in self._by_size if size < n]:
            del self._by_size[size]


def _weak_table(jm_table: _ClassTable) -> _ClassTable:
    """Weak ell-partition membership that asks *jm_table* about D(lam): D(lam)
    has the size of lam, so its answer shares the table's level."""
    return _ClassTable(lambda lam, ell: _is_regular(lam, ell) and jm_table(_deregularize(lam, ell), ell))


def _string_end_checks(
    report: VerificationReport,
    lam: Partition,
    i: int,
    ell: int,
    member: str,
    in_class,
    word: ReducedWord,
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
    """
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


def theorem_suite(ell: int, nmax: int) -> VerificationReport:
    """Exhaustive structural checks over all partitions of size up to nmax.

    The sweep runs level by level, n = 0..nmax.  Level n streams from
    partitions_of into a table of its regularizations (lam and lam' lie in
    the same level), and the sweep holds:

    - the Mullineux images of the ell-regular partitions of sizes n - 1 and
      n, keyed by exactly those partitions.  Level n's table is built from
      level n - 1's, which is then dropped, by m(rho) = f_{-i} m(e_i rho)
      for the smallest live residue i (Ford-Kleshchev), so an image costs
      one read of rho's reduced words and one of its image's, and the check
      m(R(lam)) == R(lam') is one lookup.
    - membership in the JM, ell-partition and weak classes, memoized per
      size, since the string-end checks ask about the same neighbours of
      many partitions; sizes below n go when level n is done.  Weak
      membership asks the JM table about D(lam), which has the size of lam.

    Apart from those lookups a check costs what its predicate costs, with
    no argument checks: one pass over the rows per partition and model
    gives every residue's reduced word, each i-string is walked from that
    word one box per step, cores are read off the abacus, the ladder node
    test (made at most once) reads the blocking table up to the first row
    that is not locked, and only the JM witness and the L-partition checks
    build a hook grid.  No table outlives the call, and no process-wide
    cache is read or filled.
    """
    check_ell(ell, minimum=3)
    check_count("nmax", nmax)
    report = VerificationReport(suite="crystal-theorems", ell=ell, params={"nmax": nmax})
    jm_table = _ClassTable(_is_jm)
    ell_table = _ClassTable(_is_ell_partition)
    weak_table = _weak_table(jm_table)
    below: dict[Partition, Partition] = {}
    for n in range(nmax + 1):
        reg = {lam: _regularize(lam, ell) for lam in partitions_of(n)}  # the level, in order
        here = _mullineux_level((lam for lam in reg if _is_regular(lam, ell)), below, ell)
        for lam in reg:
            jm = jm_table(lam, ell)
            core = _is_core(lam, ell)
            balanced = _is_L_partition(lam, ell)
            node = (jm or core or balanced) and _is_ladder_node(lam, ell)
            if jm:
                report.check(node, lam, None, "JM partitions are ladder nodes", "not a node")
                for i, word in enumerate(reduced_words(lam, ell, LADDER)):
                    _string_end_checks(report, lam, i, ell, "jm", jm_table, word)
            if core:
                report.check(node, lam, None, "cores are ladder nodes", "not a node")
            if balanced:
                report.check(node, lam, None, "L-partitions are ladder nodes", "not a node")
            mull = here[reg[lam]]
            ok = (mull == reg[_transpose(lam)]) == balanced
            expected = f"mullineux(R(lam)) == R(lam') iff L-partition ({balanced})"
            report.check(ok, lam, None, expected, "" if ok else _format(mull))  # kept on failure only
            if lam in here:
                words = None  # one classical read serves both classes
                for name, table in (("ell-partition", ell_table), ("weak", weak_table)):
                    if table(lam, ell):
                        words = words or reduced_words(lam, ell, CLASSICAL)
                        for i, word in enumerate(words):
                            _string_end_checks(report, lam, i, ell, name, table, word)
        below = here
        for table in (jm_table, ell_table, weak_table):
            table.drop_below(n)
    return report
