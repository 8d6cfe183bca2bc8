"""Crystal graph construction, isomorphism checks, theorem suites, DOT export."""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import (
    Partition,
    all_partitions,
    check_ell,
    is_regular,
    transpose,
)
from .rimhooks import is_core
from .crystal import (
    CLASSICAL,
    LADDER,
    e_hat,
    e_tilde,
    epsilon,
    f_hat,
    f_tilde,
    ladder_epsilon,
    ladder_phi,
    phi,
)
from .jm import is_ell_partition, is_jm
from .regular import (
    NotRegularError,
    deregularize,
    is_L_partition,
    is_ladder_node,
    is_weak_ell_partition,
    mullineux,
    regularize,
)
from .strings import format_partition

Edge = tuple[Partition, Partition, int]


@dataclass(frozen=True)
class CrystalGraph:
    ell: int
    model: str
    depth: int
    levels: tuple[tuple[Partition, ...], ...]
    edges: tuple[Edge, ...]

    @property
    def nodes(self) -> list[Partition]:
        return [lam for level in self.levels for lam in level]


@dataclass
class VerificationReport:
    suite: str
    ell: int
    params: dict
    checks: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, lam: Partition, residue: int | None, expected, actual) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(
                {
                    "input": format_partition(lam),
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
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if model not in (CLASSICAL, LADDER):
        raise ValueError(f"model must be {CLASSICAL!r} or {LADDER!r}, got {model!r}")
    f = f_tilde if model == CLASSICAL else f_hat
    levels: list[tuple[Partition, ...]] = [((),)]
    edges: list[Edge] = []
    for _ in range(depth):
        frontier: set[Partition] = set()
        for lam in levels[-1]:
            for i in range(ell):
                mu = f(lam, i, ell)
                if mu is not None:
                    edges.append((lam, mu, i))
                    frontier.add(mu)
        levels.append(tuple(sorted(frontier)))
    edges.sort(key=lambda e: (sum(e[0]), e[0], e[2]))
    return CrystalGraph(ell=ell, model=model, depth=depth, levels=tuple(levels), edges=tuple(edges))


def export_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT text: one rank block per level, edges labeled by residue."""
    lines = [f"digraph {graph.model}_crystal {{"]
    lines.append("  rankdir=TB;")
    lines.append("  node [shape=box];")
    for level in graph.levels:
        names = " ".join(f'"{format_partition(lam)}";' for lam in level)
        lines.append(f"  {{ rank=same; {names} }}")
    for src, dst, i in graph.edges:
        lines.append(f'  "{format_partition(src)}" -> "{format_partition(dst)}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_isomorphism(ell: int, depth: int) -> VerificationReport:
    """Check that regularization intertwines the two crystals node by node.

    For every ladder-crystal node through the given depth and every residue:
    regularize(f_hat(lam)) == f_tilde(regularize(lam)), the same for the
    lowering operators, and the string lengths agree.
    """
    check_ell(ell)
    report = VerificationReport(suite="crystal-isomorphism", ell=ell, params={"depth": depth})
    graph = build_crystal(ell, depth, LADDER)
    for level in graph.levels:
        for lam in level:
            image = regularize(lam, ell)
            for i in range(ell):
                down = f_hat(lam, i, ell)
                expected = f_tilde(image, i, ell)
                actual = None if down is None else regularize(down, ell)
                report.check(actual == expected, lam, i, expected, actual)
                up = e_hat(lam, i, ell)
                expected_up = e_tilde(image, i, ell)
                actual_up = None if up is None else regularize(up, ell)
                report.check(actual_up == expected_up, lam, i, expected_up, actual_up)
                report.check(
                    ladder_phi(lam, i, ell) == phi(image, i, ell),
                    lam,
                    i,
                    f"phi {phi(image, i, ell)}",
                    f"phi {ladder_phi(lam, i, ell)}",
                )
                report.check(
                    ladder_epsilon(lam, i, ell) == epsilon(image, i, ell),
                    lam,
                    i,
                    f"epsilon {epsilon(image, i, ell)}",
                    f"epsilon {ladder_epsilon(lam, i, ell)}",
                )
    return report


def _weak_or_false(lam: Partition, ell: int) -> bool:
    try:
        return is_weak_ell_partition(lam, ell)
    except NotRegularError:
        return False


def _string_end_checks(
    report: VerificationReport,
    lam: Partition,
    i: int,
    ell: int,
    member: str,
    in_class,
    f_op,
    e_op,
    phi_op,
    eps_op,
) -> None:
    """f^phi and e^epsilon stay in the class; strictly intermediate powers leave it."""
    width = phi_op(lam, i, ell)
    cur = lam
    for k in range(1, width + 1):
        cur = f_op(cur, i, ell)
        report.check(cur is not None, lam, i, f"{member}: f^{k} defined", "undefined")
        if cur is None:
            return
        if k == width:
            report.check(in_class(cur, ell), lam, i, f"{member} after f^phi", "outside class")
        elif k < width - 1:
            report.check(not in_class(cur, ell), lam, i, f"not {member} after f^{k}", "inside class")
    depth = eps_op(lam, i, ell)
    cur = lam
    for k in range(1, depth + 1):
        cur = e_op(cur, i, ell)
        report.check(cur is not None, lam, i, f"{member}: e^{k} defined", "undefined")
        if cur is None:
            return
        if k == depth:
            report.check(in_class(cur, ell), lam, i, f"{member} after e^epsilon", "outside class")
        elif k > 1:
            report.check(not in_class(cur, ell), lam, i, f"not {member} after e^{k}", "inside class")


def theorem_suite(ell: int, nmax: int) -> VerificationReport:
    """Exhaustive structural checks over all partitions of size up to nmax."""
    check_ell(ell, minimum=3)
    if nmax < 0:
        raise ValueError(f"nmax must be non-negative, got {nmax}")
    report = VerificationReport(suite="crystal-theorems", ell=ell, params={"nmax": nmax})
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            jm = is_jm(lam, ell)
            if jm:
                report.check(
                    is_ladder_node(lam, ell), lam, None, "JM partitions are ladder nodes", "not a node"
                )
                for i in range(ell):
                    _string_end_checks(
                        report, lam, i, ell, "jm", is_jm, f_hat, e_hat, ladder_phi, ladder_epsilon
                    )
            if is_core(lam, ell):
                report.check(
                    is_ladder_node(lam, ell), lam, None, "cores are ladder nodes", "not a node"
                )
            balanced = is_L_partition(lam, ell)
            if balanced:
                report.check(
                    is_ladder_node(lam, ell), lam, None, "L-partitions are ladder nodes", "not a node"
                )
            reg_transpose = regularize(transpose(lam), ell)
            mull = mullineux(regularize(lam, ell), ell)
            report.check(
                (mull == reg_transpose) == balanced,
                lam,
                None,
                f"mullineux(R(lam)) == R(lam') iff L-partition ({balanced})",
                format_partition(mull),
            )
            if is_regular(lam, ell):
                if is_ell_partition(lam, ell):
                    for i in range(ell):
                        _string_end_checks(
                            report, lam, i, ell, "ell-partition", is_ell_partition,
                            f_tilde, e_tilde, phi, epsilon,
                        )
                if _weak_or_false(lam, ell):
                    for i in range(ell):
                        _string_end_checks(
                            report, lam, i, ell, "weak", _weak_or_false,
                            f_tilde, e_tilde, phi, epsilon,
                        )
    return report


def regular_counts(ell: int, nmax: int) -> list[int]:
    """Number of ell-regular partitions of each n through nmax."""
    return [sum(1 for lam in all_partitions(n) if is_regular(lam, ell)) for n in range(nmax + 1)]


def ladder_node_levels(ell: int, nmax: int) -> list[set[Partition]]:
    """Deregularizations of the regular partitions, level by level."""
    return [
        {deregularize(lam, ell) for lam in all_partitions(n) if is_regular(lam, ell)}
        for n in range(nmax + 1)
    ]
