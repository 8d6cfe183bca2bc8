"""Acceptance gate: one test per criterion, exact values, pinned time bounds.

Every check is exact equality; the only tolerances are wall-clock budgets
(criterion 1 under 1 s, criterion 2 under 120 s, criterion 4 under 60 s per
modulus).  Each test prints a single "criterion N ...: PASS" line on success.
"""

from __future__ import annotations

import json
import time

from laddercrystal.cli import main
from laddercrystal.crystal import (
    box_type,
    e_hat,
    e_tilde,
    epsilon,
    f_hat,
    f_tilde,
    i_signature,
    ladder_epsilon,
    ladder_phi,
    phi,
)
from laddercrystal.graph import (
    CLASSICAL,
    LADDER,
    build_crystal,
    theorem_suite,
    verify_isomorphism,
)
from laddercrystal.jm import (
    JMDecomposition,
    compose_jm,
    count_jm,
    decompose_jm,
    enumerate_jm,
    is_ell_partition,
    is_generalized_ell_partition,
    is_jm,
    star_condition,
)
from laddercrystal.partitions import (
    EQUAL,
    GREATER,
    LESS,
    all_partitions,
    dominance_compare,
    hook_grid,
    is_regular,
    transpose,
)
from laddercrystal.regular import (
    UNLOCKED,
    deregularize,
    is_L_partition,
    is_ladder_node,
    ladder_counts,
    lock_labels,
    mullineux,
    reg_class,
    regularize,
)

import oracles

BIG_JM = (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)


def test_criterion_1_golden_examples():
    t0 = time.monotonic()

    # regularization of (2,2,2,1,1,1) and its six-member class
    assert regularize((2, 2, 2, 1, 1, 1), 3) == (3, 3, 2, 1)
    rc = reg_class((2, 2, 2, 1, 1, 1), 3)
    assert rc.representative == (3, 3, 2, 1)
    assert rc.members == (
        (2, 2, 2, 1, 1, 1),
        (2, 2, 2, 2, 1),
        (3, 2, 1, 1, 1, 1),
        (3, 2, 2, 2),
        (3, 3, 1, 1, 1),
        (3, 3, 2, 1),
    )

    # deregularization of (6,5,4,3,1,1) with its lock map
    lam = (6, 5, 4, 3, 1, 1)
    assert deregularize(lam, 3) == (3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    labels = lock_labels(lam, 3)
    picture = [
        "".join(
            "U" if labels[(row, col)] == UNLOCKED else "L"
            for col in range(1, lam[row - 1] + 1)
        )
        for row in range(1, len(lam) + 1)
    ]
    assert picture == ["LLLUUU", "LLLUU", "LLUU", "LLU", "L", "L"]

    # classical operators on (8,5,4,1) and its full 1-string
    lam = (8, 5, 4, 1)
    assert f_tilde(lam, 1, 3) == (8, 5, 4, 2)
    assert e_tilde(lam, 1, 3) == (7, 5, 4, 1)
    top = lam
    while (up := e_tilde(top, 1, 3)) is not None:
        top = up
    string = [top]
    while (down := f_tilde(string[-1], 1, 3)) is not None:
        string.append(down)
    assert string == [(7, 5, 4, 1), (8, 5, 4, 1), (8, 5, 4, 2)]

    # ladder 2-chain from (5,3,1,1,1,1,1): five nodes, then nothing
    chain = [(5, 3, 1, 1, 1, 1, 1)]
    while (down := f_hat(chain[-1], 2, 3)) is not None:
        chain.append(down)
    assert chain == [
        (5, 3, 1, 1, 1, 1, 1),
        (6, 3, 1, 1, 1, 1, 1),
        (6, 3, 1, 1, 1, 1, 1, 1),
        (6, 4, 1, 1, 1, 1, 1, 1),
        (6, 4, 2, 1, 1, 1, 1, 1),
    ]
    assert e_hat(chain[0], 2, 3) is None  # the chain starts at its string top

    # commuting square on (2,1,1,1)
    lam = (2, 1, 1, 1)
    assert regularize(lam, 3) == (2, 2, 1)
    assert f_hat(lam, 2, 3) == (2, 1, 1, 1, 1)
    assert f_tilde((2, 2, 1), 2, 3) == (3, 2, 1)
    assert regularize((2, 1, 1, 1, 1), 3) == (3, 2, 1)

    # decompose / compose round trip
    dec = decompose_jm(BIG_JM, 3)
    assert dec == JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1))
    assert compose_jm(dec, 3) == BIG_JM
    raw = JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1, 0))
    assert compose_jm(raw, 3) == BIG_JM

    # JM count and the six partitions over core (3,1) with weight 3
    assert count_jm((3, 1), 3, 3) == 6
    assert enumerate_jm((3, 1), 3, 3) == [
        (12, 1),
        (9, 4),
        (9, 1, 1, 1, 1),
        (6, 4, 1, 1, 1),
        (6, 1, 1, 1, 1, 1, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]

    # hook-length grid of (10,8,3,2,2,1,1,1,1,1)
    assert hook_grid((10, 8, 3, 2, 2, 1, 1, 1, 1, 1)) == (
        (19, 13, 10, 8, 7, 6, 5, 4, 2, 1),
        (16, 10, 7, 5, 4, 3, 2, 1),
        (10, 4, 1),
        (8, 2),
        (7, 1),
        (5,),
        (4,),
        (3,),
        (2,),
        (1,),
    )

    # box-type map of (4,2,1,1): border row/column 0 through col/row 6
    expected = [
        "aaaabdd",
        "aabdeji",
        "abejigk",
        "acjgkkk",
        "behkkkk",
        "fjgkkkk",
        "fkkkkkk",
    ]
    for row, line in enumerate(expected):
        for col, kind in enumerate(line):
            assert box_type((4, 2, 1, 1), (row, col)) == kind

    # 2-signature of (6,5,3,3,2,2,1)
    assert i_signature((6, 5, 3, 3, 2, 2, 1), 2, 3).word == "+---"

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"golden examples took {elapsed:.2f} s"
    print("criterion 1 (golden examples): PASS")


def test_criterion_2_equivalence_oracles():
    t0 = time.monotonic()
    checked = 0
    for ell in (3, 4, 5):
        for n in range(19):
            for lam in all_partitions(n):
                checked += 1
                assert is_jm(lam, ell) == is_generalized_ell_partition(lam, ell), lam
                assert is_ell_partition(lam, ell) == (
                    is_regular(lam, ell) and star_condition(lam, ell)
                ), lam

                # second L-partition definition, written out from arm/leg
                grid = hook_grid(lam)
                cols = transpose(lam)
                balanced = True
                for row in range(1, len(lam) + 1):
                    for col in range(1, lam[row - 1] + 1):
                        h = grid[row - 1][col - 1]
                        a = lam[row - 1] - col
                        g = cols[col - 1] - row
                        if h % ell == 0 and a < (ell - 1) * g and g < (ell - 1) * a:
                            balanced = False
                assert is_L_partition(lam, ell) == balanced, lam

                # ladder-node triple: hook test, all boxes locked, fixed by S
                labels = lock_labels(lam, ell)
                node = is_ladder_node(lam, ell)
                assert node == all(v != UNLOCKED for v in labels.values()), lam
                assert node == (deregularize(lam, ell) == lam), lam
    elapsed = time.monotonic() - t0
    assert checked == 3 * 1597
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.2f} s"
    print(f"criterion 2 (equivalence oracles, {checked} partition/modulus pairs): PASS")


def test_criterion_3_regularization_suite():
    t0 = time.monotonic()
    for ell in (3, 4):
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for n in range(17):
            for lam in all_partitions(n):
                image = regularize(lam, ell)
                classes.setdefault(image, []).append(lam)

                assert regularize(image, ell) == image, lam
                floor = deregularize(lam, ell)
                assert deregularize(floor, ell) == floor, lam
                assert regularize(floor, ell) == image, lam
                assert deregularize(image, ell) == floor, lam
                assert ladder_counts(lam, ell) == ladder_counts(image, ell), lam
                assert ladder_counts(lam, ell) == ladder_counts(floor, ell), lam

        for image, members in classes.items():
            assert [m for m in members if is_regular(m, ell)] == [image]
            floor = deregularize(image, ell)
            for member in members:
                assert dominance_compare(image, member) in (GREATER, EQUAL), member
                assert dominance_compare(floor, member) in (LESS, EQUAL), member
    elapsed = time.monotonic() - t0
    print(f"criterion 3 (regularization suite, n <= 16, {elapsed:.1f} s): PASS")


def test_criterion_4_crystal_suite():
    for ell, depth in ((3, 12), (4, 10), (5, 10)):
        t0 = time.monotonic()
        classical = build_crystal(ell, depth, CLASSICAL)
        ladder = build_crystal(ell, depth, LADDER)
        counts = oracles.regular_counts(ell, depth)
        assert [len(level) for level in classical.levels] == counts
        assert [len(level) for level in ladder.levels] == counts

        # e and f invert each other wherever both sides are defined
        for lam in classical.nodes:
            for i in range(ell):
                if (down := f_tilde(lam, i, ell)) is not None:
                    assert e_tilde(down, i, ell) == lam
                if (up := e_tilde(lam, i, ell)) is not None:
                    assert f_tilde(up, i, ell) == lam
                assert (epsilon(lam, i, ell) > 0) == (e_tilde(lam, i, ell) is not None)
                assert (phi(lam, i, ell) > 0) == (f_tilde(lam, i, ell) is not None)
        for lam in ladder.nodes:
            for i in range(ell):
                if (down := f_hat(lam, i, ell)) is not None:
                    assert e_hat(down, i, ell) == lam
                if (up := e_hat(lam, i, ell)) is not None:
                    assert f_hat(up, i, ell) == lam
                assert (ladder_epsilon(lam, i, ell) > 0) == (e_hat(lam, i, ell) is not None)
                assert (ladder_phi(lam, i, ell) > 0) == (f_hat(lam, i, ell) is not None)

        iso = verify_isomorphism(ell, depth)
        assert iso.passed, iso.failures[:3]
        theorems = theorem_suite(ell, depth)
        assert theorems.passed, theorems.failures[:3]

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"crystal suite at ell={ell} took {elapsed:.2f} s"
    print("criterion 4 (crystal suites at ell=3 depth 12, ell=4,5 depth 10): PASS")


def test_criterion_5_mullineux_suite():
    t0 = time.monotonic()
    for n in range(15):
        for lam in all_partitions(n):
            if is_regular(lam, 3):
                image = mullineux(lam, 3)
                assert sum(image) == n, lam
                assert mullineux(image, 3) == lam, lam
                assert oracles.mullineux(lam, 3) == image, lam
            if is_L_partition(lam, 3):
                assert mullineux(regularize(lam, 3), 3) == regularize(transpose(lam), 3), lam
    elapsed = time.monotonic() - t0
    print(f"criterion 5 (Mullineux suite, n <= 14, {elapsed:.1f} s): PASS")


def test_criterion_6_determinism(tmp_path, capsys):
    outputs = {}
    for model in (CLASSICAL, LADDER):
        runs = []
        for attempt in ("first", "second"):
            dot_path = tmp_path / f"{model}-{attempt}.dot"
            code = main(
                [
                    "crystal",
                    "build",
                    "--ell",
                    "3",
                    "--depth",
                    "8",
                    "--model",
                    model,
                    "--dot",
                    str(dot_path),
                ]
            )
            assert code == 0
            stdout = capsys.readouterr().out
            json.loads(stdout)  # stdout is one well-formed JSON document
            runs.append((stdout.encode(), dot_path.read_bytes()))
        assert runs[0] == runs[1], f"{model} build is not reproducible"
        outputs[model] = runs[0]
    assert outputs[CLASSICAL] != outputs[LADDER]
    print("criterion 6 (byte-identical JSON and DOT across runs): PASS")
