"""The (ell,0)-JM layer: witnesses, classifications, decomposition, counting."""

from __future__ import annotations

import importlib
import random
import time

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    _hook_grid,
    all_partitions,
    hook_grid,
    is_regular,
    partitions_of,
    size,
    transpose,
)
from laddercrystal.jm import (
    InvalidDecompositionError,
    JMDecomposition,
    NotACoreError,
    NotJMPartitionError,
    _compose,
    _core_frame,
    _fayers_witness,
    _frame_rows,
    _is_jm,
    _only_horizontal_hereditarily,
    _runners,
    compose_jm,
    count_jm,
    decompose_jm,
    enumerate_jm,
    fayers_witness,
    is_ell_partition,
    is_generalized_ell_partition,
    is_jm,
    star_condition,
)
from laddercrystal.rimhooks import (
    HORIZONTAL,
    VERTICAL,
    _removable_rim_hooks,
    _remove,
    adjacent,
    ell_core,
    is_core,
    removable_rim_hooks,
)

from laddercrystal.cli import _cores

import oracles
from strategies import partitions, jm_moduli


JM_EXAMPLE = (10, 8, 3, 2, 2, 1, 1, 1, 1, 1)


def test_hook_grid_of_running_example():
    assert hook_grid(JM_EXAMPLE) == (
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


def test_witness_golden():
    assert fayers_witness(JM_EXAMPLE, 3) is None
    witness = fayers_witness((3, 1, 1, 1), 3)
    assert witness is not None
    assert witness.base == (1, 1)
    assert witness.row_mate == (1, 2)
    assert witness.col_mate == (3, 1)


@given(partitions(), jm_moduli())
def test_witness_shape_is_valid(lam, ell):
    witness = fayers_witness(lam, ell)
    if witness is None:
        return
    (a, b) = witness.base
    (a2, y) = witness.row_mate
    (x, b2) = witness.col_mate
    assert a2 == a and b2 == b
    grid = hook_grid(lam)
    assert grid[a - 1][b - 1] % ell == 0
    assert grid[a - 1][y - 1] % ell != 0
    assert grid[x - 1][b - 1] % ell != 0


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 14)])
def test_witness_matches_the_rescan_reference(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            assert _fayers_witness(lam, ell) == oracles.jm_witness(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_witness_matches_the_rescan_reference_on_large_partitions(ell):
    rng = random.Random(7300 + ell)
    for _ in range(30):
        lam = oracles.random_partition(rng.randint(500, 3000), rng)
        assert _fayers_witness(lam, ell) == oracles.jm_witness(lam, ell), lam
    # JM partitions have no witness, so both scans run to the end; their
    # one-box neighbours are near misses with a witness deep in the diagram
    for lam in oracles.large_jm_partitions(ell, rng, 6):
        assert _fayers_witness(lam, ell) is None and oracles.jm_witness(lam, ell) is None
        for near in oracles.one_box_away(lam):
            assert _fayers_witness(near, ell) == oracles.jm_witness(near, ell), near


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_abacus_jm_matches_the_witness_on_large_partitions(ell):
    # _is_jm reads the beads; the hook condition on the grid is its oracle,
    # on composed JM partitions and their one-box neighbours (mostly near misses)
    rng = random.Random(7400 + ell)
    for lam in oracles.large_jm_partitions(ell, rng, 6) + oracles.large_jm_partitions(ell, rng, 4, hooks=(100, 300)):
        assert _is_jm(lam, ell) and oracles.jm(lam, ell), lam
        for near in oracles.one_box_away(lam):
            assert _is_jm(near, ell) == oracles.jm(near, ell), near


def test_is_jm_reads_no_hook_grid(monkeypatch):
    # and builds a conjugate only of a partition with more rows than columns
    def forbidden(*args):
        raise AssertionError("is_jm built a hook grid")

    def tall_only(lam):
        assert len(lam) > lam[0], f"is_jm built the conjugate of {lam}"
        return transpose(lam)

    jm_module = importlib.import_module("laddercrystal.jm")
    monkeypatch.setattr(jm_module, "_hook_grid", forbidden)
    monkeypatch.setattr(jm_module, "_transpose", tall_only)
    assert is_jm(JM_EXAMPLE, 3) and is_jm((), 3) and is_jm((2,), 3) and is_jm((3, 1), 3)
    assert not is_jm((2, 2), 3) and not is_jm((3, 3), 3)
    assert is_jm((10**12,), 3)
    assert not is_jm((10**12, 10**12 - 1, 2), 3)
    assert is_jm((1,) * 300_000, 3)


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_short_side_checks_match_the_kernels_on_the_tall_side(ell, monkeypatch):
    # is_jm and is_generalized_ell_partition read lam or lam', whichever has
    # fewer rows; their kernels, run on the orientation with more rows, check
    # that the conditions are symmetric rather than assume it
    shapes = [lam for n in range(17) for lam in all_partitions(n)]
    rng = random.Random(2560 + ell)
    for lam in oracles.large_jm_partitions(ell, rng, 4):
        shapes += [transpose(mu) for mu in [lam, *oracles.one_box_away(lam)]]
    tall = [transpose(lam) if lam and len(lam) < lam[0] else lam for lam in shapes]
    public = [
        (is_jm(lam, ell), is_jm(transpose(lam), ell))
        + (is_generalized_ell_partition(lam, ell), is_generalized_ell_partition(transpose(lam), ell))
        for lam in shapes
    ]
    monkeypatch.setattr(importlib.import_module("laddercrystal.jm"), "_fewer_rows", lambda lam: lam)
    unswitched = is_generalized_ell_partition.__wrapped__
    for lam, mu, answers in zip(shapes, tall, public):
        jm, generalized = _is_jm(mu, ell), unswitched(mu, ell)
        assert answers == (jm, jm, generalized, generalized), lam


def test_short_side_checks_read_one_bead_per_column(monkeypatch):
    # (1,) * 100_000 has 100_000 rows and one column: its conjugate's beads
    # are one row padded to ell rows
    rimhooks_module = importlib.import_module("laddercrystal.rimhooks")
    beads, read = rimhooks_module._beads, []

    def counted(lam, ell):
        for bead in beads(lam, ell):
            read.append(bead)
            yield bead

    monkeypatch.setattr(rimhooks_module, "_beads", counted)
    lam = (1,) * 100_000
    assert is_jm(lam, 3)
    assert len(read) <= lam[0] + 3, len(read)
    read.clear()
    assert is_generalized_ell_partition.__wrapped__(lam, 3)
    assert len(read) <= lam[0] + 3, len(read)


@given(partitions(max_part=7, max_len=7), jm_moduli())
def test_jm_iff_no_witness_and_transpose_symmetric(lam, ell):
    assert is_jm(lam, ell) == (fayers_witness(lam, ell) is None)
    assert is_jm(lam, ell) == is_jm(transpose(lam), ell)


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_jm_on_either_orientation_matches_the_witness(ell):
    # is_jm reads the beads of lam and of lam' (whose beads are lam's gaps,
    # reflected); fayers_witness scans the hook grid of lam's own orientation
    for n in range(17):
        for lam in all_partitions(n):
            assert is_jm(lam, ell) == is_jm(transpose(lam), ell) == (fayers_witness(lam, ell) is None), lam


@pytest.mark.parametrize(
    "fn",
    [is_jm, fayers_witness, is_ell_partition, is_generalized_ell_partition, star_condition, decompose_jm],
)
def test_public_boundary_rejects_non_partitions(fn):
    for bad in ((1, 2), [1, 2], (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            fn(bad, 3)


def test_public_boundary_accepts_lists():
    lam = list(JM_EXAMPLE)
    assert is_jm(lam, 3) and fayers_witness(lam, 3) is None
    assert is_generalized_ell_partition(lam, 3)
    assert is_ell_partition([4, 1], 3) and not is_ell_partition([3, 3, 3], 3)
    assert star_condition([3, 1], 3) == star_condition((3, 1), 3)
    assert decompose_jm(lam, 3) == decompose_jm(JM_EXAMPLE, 3)
    assert not is_jm([3, 2], 3) and fayers_witness([3, 2], 3) == fayers_witness((3, 2), 3)


def test_jm_requires_ell_at_least_three():
    with pytest.raises(ValueError):
        is_jm((2, 1), 2)
    with pytest.raises(ValueError):
        count_jm((1,), 1, 2)


@pytest.mark.parametrize("ell", [3, 4])
def test_jm_equals_generalized_ell_partition(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            assert is_jm(lam, ell) == is_generalized_ell_partition(lam, ell)


@pytest.mark.parametrize("ell", [6, 7])
def test_jm_equals_generalized_ell_partition_from_ell_3(ell):
    # at ell = 2, where is_jm refuses, (2, 2) is a generalized 2-partition
    # with a witness: the hook 2 at (1, 2) lies beside the 3 at (1, 1) and
    # over the 1 at (2, 2).  No other partition of up to 12 boxes differs
    # there
    assert is_generalized_ell_partition((2, 2), 2) and oracles.generalized((2, 2), 2)
    assert oracles.jm_witness((2, 2), 2) == ((1, 2), (1, 1), (2, 2))
    mismatches = [
        lam for n in range(13) for lam in all_partitions(n) if oracles.jm(lam, 2) != is_generalized_ell_partition(lam, 2)
    ]
    assert mismatches == [(2, 2)]
    for n in range(17):
        for lam in all_partitions(n):
            assert is_jm(lam, ell) == is_generalized_ell_partition(lam, ell), lam


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_runners_match_the_abacus_oracle(ell):
    for n in range(19):
        for lam in all_partitions(n):
            assert _runners(lam, ell) == oracles.runners(lam, ell), lam


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_runners_match_the_abacus_oracle_on_large_partitions(ell):
    rng = random.Random(7500 + ell)
    shapes = [oracles.random_partition(rng.randint(500, 5000), rng) for _ in range(12)]
    if ell > 2:  # composed JM partitions, with hooks on several runners
        shapes += oracles.large_jm_partitions(ell, rng, 6)
    for lam in shapes:
        assert _runners(lam, ell) == oracles.runners(lam, ell), lam


def _assert_matches_walk(lam, ell):
    assert _only_horizontal_hereditarily(lam, ell) == oracles.only_horizontal(lam, ell), (lam, ell)
    assert is_generalized_ell_partition(lam, ell) == oracles.generalized(lam, ell), (lam, ell)


@pytest.mark.parametrize("ell,nmax", [(2, 14), (3, 18), (4, 16), (5, 14)])
def test_hereditary_checks_match_the_walk(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            _assert_matches_walk(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_hereditary_checks_match_the_walk_on_random_partitions(ell):
    rng = random.Random(7100 + ell)
    for _ in range(750):
        _assert_matches_walk(oracles.random_partition(rng.randint(20, 90), rng), ell)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_hereditary_checks_match_the_walk_on_multi_row_jm_partitions(ell):
    # cores with a frame of several rows or columns carry hooks on several
    # rows, where the walk reaches many partitions; every one-box neighbour
    # is a near miss
    rng = random.Random(7200 + ell)
    for core in rng.sample(oracles.cores(ell, 12)[1:], 12):
        members = enumerate_jm(core, rng.randint(2, 5), ell)
        for lam in rng.sample(members, min(6, len(members))):
            assert is_generalized_ell_partition(lam, ell) and oracles.generalized(lam, ell)
            for near in oracles.one_box_away(lam):
                _assert_matches_walk(near, ell)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_only_horizontal_on_runner_ends_matches_the_runner_levels(ell):
    # the check reads each runner's lowest gap and highest bead
    # (rimhooks._runner_ends); the walk over every partition that removals
    # reach checks it on every partition of n <= 18
    for n in range(19):
        for lam in partitions_of(n):
            assert _only_horizontal_hereditarily.__wrapped__(lam, ell) == oracles.only_horizontal(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4])
def test_opposite_hooks_touch_iff_their_contents_differ_by_ell(ell):
    # The abacus check relies on this: after removing h, an opposite hook g
    # touches h exactly when its northeast box's content is h's plus or
    # minus ell, i.e. g moves the same bead again or the bead one level above.
    pairs = touching = 0
    for n in range(15):
        for lam in all_partitions(n):
            for h in removable_rim_hooks(lam, ell):
                if h.shape not in (HORIZONTAL, VERTICAL):
                    continue
                opposite = VERTICAL if h.shape == HORIZONTAL else HORIZONTAL
                for g in removable_rim_hooks(_remove(lam, h), ell):
                    if g.shape != opposite:
                        continue
                    (hr, hc), (gr, gc) = h.boxes[0], g.boxes[0]
                    pairs += 1
                    touching += adjacent(h, g)
                    assert adjacent(h, g) == (abs((hc - hr) - (gc - gr)) == ell), (lam, h, g)
    assert pairs > touching > 0


def _multi_row_case(r, rho):
    """At ell = 3: a core of r rows of difference 2 and horizontal hook tallies rho."""
    return compose_jm(JMDecomposition(mu=(), r=r, s=0, rho=rho, sigma=()), 3)


MULTI_ROW_CASES = [
    _multi_row_case(8, tuple(2 * k for k in range(9, 0, -1))),  # 342 boxes
    _multi_row_case(10, tuple(range(11, 0, -1))),  # 308 boxes
]


@pytest.mark.parametrize("lam", MULTI_ROW_CASES, ids=lambda lam: f"n{size(lam)}")
def test_hereditary_checks_with_hooks_on_many_rows(lam):
    # the walk took minutes here (it reaches every product of per-row peels);
    # the abacus checks take under a millisecond, so the bound leaves room
    # for a loaded machine and still catches a return of the walk
    start = time.perf_counter()
    assert is_generalized_ell_partition(lam, 3)
    assert is_ell_partition(lam, 3)
    assert is_jm(lam, 3)
    assert time.perf_counter() - start < 10


def test_star_condition_golden():
    # a single row has one hook per column, so divisibility is all-or-none
    assert star_condition((3,), 3)
    assert star_condition((6,), 3)
    # column 1 of the big example mixes hook 3 with non-multiples
    assert not star_condition(JM_EXAMPLE, 3)
    assert not star_condition((2, 2, 2, 1, 1, 1), 3)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_star_condition_matches_a_column_scan(ell):
    # each column's hook lengths, written out from arm and leg
    for n in range(15):
        for lam in all_partitions(n):
            cols = transpose(lam)
            expected = all(
                len({(lam[row] - col - 1 + cols[col] - row) % ell == 0 for row in range(cols[col])}) == 1
                for col in range(len(cols))
            )
            assert star_condition(lam, ell) == expected, lam


@pytest.mark.parametrize("ell", [3, 4])
def test_ell_partition_is_regular_plus_star(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            expected = is_regular(lam, ell) and star_condition(lam, ell)
            assert is_ell_partition(lam, ell) == expected


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_ell_partitions_are_the_regular_jm_partitions(ell):
    # the (ell,0)-Carter partitions are the ell-regular members of the JM
    # class, so the theorem sweep reads ell-partition membership off its JM
    # table
    for n in range(21):
        for lam in all_partitions(n):
            assert is_ell_partition(lam, ell) == (is_regular(lam, ell) and is_jm(lam, ell)), lam


def test_decompose_golden():
    lam = (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)
    dec = decompose_jm(lam, 3)
    assert dec == JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1))
    assert compose_jm(dec, 3) == lam


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 16)])
def test_decompose_matches_the_removal_walk(ell, nmax):
    members = [lam for n in range(nmax + 1) for lam in all_partitions(n) if is_jm(lam, ell)]
    for lam in members:
        assert decompose_jm(lam, ell) == oracles.decompose(lam, ell), lam
    # hooks on several rows, hooks of both kinds, and the one case where a
    # vertical hook puts a box on a row of the frame (mu empty, sigma_s > 0)
    decs = [decompose_jm(lam, ell) for lam in members]
    assert len(decs) == {3: 294, 4: 232, 5: 289}[ell]
    assert any(len(d.rho) > 1 for d in decs)
    assert any(d.rho and d.sigma for d in decs)
    assert any(not d.mu and len(d.sigma) == d.s + 1 for d in decs)


def test_decompose_removes_no_rim_hooks(monkeypatch):
    # the walk called _removable_rim_hooks once per unit of weight plus one
    calls = 0

    def counted(lam, ell):
        nonlocal calls
        calls += 1
        return _removable_rim_hooks(lam, ell)

    for name in ("rimhooks", "jm"):
        module = importlib.import_module(f"laddercrystal.{name}")
        if hasattr(module, "_removable_rim_hooks"):
            monkeypatch.setattr(module, "_removable_rim_hooks", counted)
    dec = JMDecomposition(mu=(1,), r=3, s=2, rho=(900, 300, 20, 1), sigma=(40, 3))
    lam = compose_jm(dec, 3)
    assert len(lam) > 100 and ell_core(lam, 3).weight == 1264
    assert decompose_jm(lam, 3) == dec
    assert calls == 0


def test_hereditary_checks_at_large_weight():
    # weight 603: far deeper than the interpreter's recursion limit allows a
    # recursive peel to go
    dec = JMDecomposition(mu=(1,), r=3, s=2, rho=(600,), sigma=(2, 1))
    lam = transpose(compose_jm(dec, 3))
    assert ell_core(lam, 3) == ((8, 6, 4, 3, 3, 2, 2, 1, 1), 603)
    assert is_jm(lam, 3)
    assert is_generalized_ell_partition(lam, 3)
    assert decompose_jm(lam, 3) == JMDecomposition(mu=(1,), r=2, s=3, rho=(2, 1), sigma=(600,))
    horizontal = compose_jm(JMDecomposition(mu=(1,), r=3, s=2, rho=(600,), sigma=()), 3)
    assert is_ell_partition(horizontal, 3)
    # 600 horizontal hooks peel off row 1 before (2, 2) shows a bent one
    assert not is_ell_partition((3 * 600 + 2, 2), 3)


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_the_frame_rebuilds_its_core(ell):
    # compose_jm builds its core from the frame, and the other callers of
    # _compose hold the core the frame was read from
    for core in _cores(ell, 60):
        frame = _core_frame(core, ell)
        assert frame == oracles.frame(core, ell), core
        assert _frame_rows(*frame, ell) == list(core) == list(oracles.frame_rows(*frame, ell)), core


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_core_frame_reads_its_columns_without_a_transpose(ell):
    # s is read from the multiplicities of the core's smallest parts, as the
    # leading run of the conjugate's differences gives it
    for core in _cores(ell, 40):
        assert _core_frame(core, ell) == oracles.frame(core, ell), core


def _tallies(t, k):
    """The partitions of t into at most k parts."""
    return [lam for lam in all_partitions(t) if len(lam) <= k]


@pytest.mark.parametrize("ell", [3, 4])
def test_compose_on_the_core_matches_the_frame_form(ell):
    # every (rho, sigma) that enumerate_jm builds
    for core in _cores(ell, 12):
        mu, r, s = _core_frame(core, ell)
        for w in range(7):
            for t in range(w + 1):
                for rho in _tallies(t, r + 1):
                    for sigma in _tallies(w - t, s + 1):
                        if oracles.fits(mu, r, s, rho, sigma):
                            expected = oracles.compose(core, rho, sigma, ell)
                            assert _compose(core, rho, sigma, ell) == expected, (core, rho, sigma)


def _jm_members(core, w, ell):
    """Fayers: the JM partitions of this core and weight are the core plus
    each (rho, sigma) of total size w that fits its frame; largest first."""
    mu, r, s = oracles.frame(core, ell)
    pairs = [(rho, sigma) for t in range(w + 1) for rho in _tallies(t, r + 1) for sigma in _tallies(w - t, s + 1)]
    return sorted((oracles.compose(core, *pair, ell) for pair in pairs if oracles.fits(mu, r, s, *pair)), reverse=True)


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_enumerate_jm_matches_the_transpose_oracle(ell):
    # the same members in the same order as the frame rule composed through
    # two conjugates per member, for every core of size <= 15 and weight <= 7
    pairs = 0
    for core in _cores(ell, 15):
        for w in range(8):
            pairs += 1
            assert enumerate_jm(core, w, ell) == _jm_members(core, w, ell), (core, w)
    assert pairs == {3: 144, 4: 400, 5: 752, 6: 1320}[ell]  # 2,616 in all


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_compose_jm_matches_the_transpose_oracle(ell):
    # every (rho, sigma) of total size <= 5 on every core of size <= 10, with
    # up to one part past each limit: compose_jm refuses exactly the pairs
    # that do not fit, and builds the others as the frame rule does
    accepted = refused = 0
    for core in _cores(ell, 10):
        mu, r, s = _core_frame(core, ell)
        for w in range(6):
            for t in range(w + 1):
                for rho in _tallies(t, r + 2):
                    for sigma in _tallies(w - t, s + 2):
                        dec = JMDecomposition(mu, r, s, rho, sigma)
                        if not oracles.fits(mu, r, s, rho, sigma):
                            with pytest.raises(InvalidDecompositionError):
                                compose_jm(dec, ell)
                            refused += 1
                            continue
                        accepted += 1
                        assert compose_jm(dec, ell) == oracles.compose(core, rho, sigma, ell), dec
    assert (accepted, refused) == {3: (523, 323), 4: (788, 712), 5: (1265, 1345), 6: (1565, 1897)}[ell]


def test_compose_canonicalizes_trailing_zeros():
    dec = JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1, 0))
    assert compose_jm(dec, 3) == (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)


def test_compose_empty_mu_frames():
    assert compose_jm(JMDecomposition((), 0, 1, (), ()), 3) == (1, 1)
    assert compose_jm(JMDecomposition((), 1, 1, (), ()), 3) == (3, 1, 1)
    assert compose_jm(JMDecomposition((), 0, 1, (1,), ()), 3) == (4, 1)
    assert compose_jm(JMDecomposition((), 0, 2, (), ()), 3) == (2, 2, 1, 1)


def test_compose_rejects_double_full_arms_on_empty_mu():
    # with no sub-partition, boxes cannot pile onto both the last row and column
    with pytest.raises(InvalidDecompositionError):
        compose_jm(JMDecomposition((), 0, 1, (1,), (1, 1)), 3)


@pytest.mark.parametrize("field", ["r", "s"])
@pytest.mark.parametrize("value", [1.5, True, False, "1", None, -1])
def test_compose_rejects_non_count_frames(field, value):
    # r=1.5 raised TypeError, and r=True was read as 1 and returned (2,)
    dec = JMDecomposition((), 0, 0, (), ())._replace(**{field: value})
    with pytest.raises(InvalidDecompositionError, match=f"{field} must be"):
        compose_jm(dec, 3)


def test_decompose_rejects_non_jm():
    with pytest.raises(NotJMPartitionError):
        decompose_jm((2, 2), 3)


def test_count_rejects_non_core():
    with pytest.raises(NotACoreError):
        count_jm((3,), 1, 3)


def test_count_and_enumerate_reject_negative_weight():
    for fn in (count_jm, enumerate_jm):
        with pytest.raises(ValueError, match="weight must be non-negative"):
            fn((), -1, 3)


@pytest.mark.parametrize("weight", [True, False, 2.5, "3", None])
def test_count_and_enumerate_reject_non_integer_weights(weight):
    # count_jm((), True, 3) used to return 2, and 2.5 raised TypeError
    for fn in (count_jm, enumerate_jm):
        with pytest.raises(ValueError, match="weight must be an integer"):
            fn((), weight, 3)


def test_count_golden():
    assert count_jm((3, 1), 3, 3) == 6
    assert enumerate_jm((3, 1), 3, 3) == [
        (12, 1),
        (9, 4),
        (9, 1, 1, 1, 1),
        (6, 4, 1, 1, 1),
        (6, 1, 1, 1, 1, 1, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]


def test_count_degenerate_core_regression():
    # a core whose frame touches both margins used to be double counted
    assert count_jm((2,), 1, 3) == 2
    assert enumerate_jm((2,), 1, 3) == [(5,), (2, 1, 1, 1)]
    assert count_jm((2,), 0, 3) == 1


@pytest.mark.parametrize("ell", [3, 4])
def test_count_matches_enumeration_and_brute_force(ell):
    cores = [
        lam
        for n in range(0, 7)
        for lam in all_partitions(n)
        if is_core(lam, ell)
    ]
    for core in cores:
        for w in range(0, 4):
            found = enumerate_jm(core, w, ell)
            assert count_jm(core, w, ell) == len(found)
            brute = sorted(
                (
                    lam
                    for lam in all_partitions(size(core) + ell * w)
                    if is_jm(lam, ell) and ell_core(lam, ell) == (core, w)
                ),
                reverse=True,
            )
            assert found == brute


@pytest.mark.parametrize("ell", [3, 4])
def test_enumerated_partitions_round_trip(ell):
    for core in [(), (1,), (2,), (3, 1), (1, 1)]:
        if not is_core(core, ell):
            continue
        for w in range(0, 4):
            for lam in enumerate_jm(core, w, ell):
                dec = decompose_jm(lam, ell)
                assert compose_jm(dec, ell) == lam


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_enumerated_partitions_are_jm_of_their_core_and_weight(ell):
    # enumerate_jm trusts Fayers's theorem; this holds it to the hook
    # condition and the peeled core on every (core, w) the other tests enumerate
    cases = [(core, w) for core in _cores(ell, 12) for w in range(7)]
    if ell == 3:
        cases.append(((1,), 40))
    for core, w in cases:
        for lam in enumerate_jm(core, w, ell):
            assert oracles.jm(lam, ell), lam
            assert oracles.core(lam, ell) == (core, w), lam


def _past_limits(limit):
    """Tallies with limit - 1, limit and limit + 1 parts: below, at and just past it."""
    return [(1,) * k for k in range(max(limit - 1, 0), limit + 2)]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_compose_accepts_exactly_the_frames_that_read_back_and_fit(ell):
    # compose_jm accepts (mu, r, s, rho, sigma) exactly when the frame's rows
    # form an ell-core whose frame reads back as (mu, r, s), and rho and
    # sigma fit that frame; it then builds the core plus the hooks
    frames = valid = 0
    for n in range(15):
        for mu in all_partitions(n):
            for r in range(4):
                for s in range(4):
                    frames += 1
                    core = oracles.frame_rows(mu, r, s, ell)
                    reads_back = oracles.frame(core, ell) == (mu, r, s) and not oracles.rim_hooks(core, ell)
                    valid += reads_back
                    for rho in _past_limits(r + 1):
                        for sigma in _past_limits(s + 1):
                            dec = JMDecomposition(mu, r, s, rho, sigma)
                            try:
                                lam = compose_jm(dec, ell)
                            except InvalidDecompositionError:
                                lam = None  # refused
                            accepted = reads_back and oracles.fits(mu, r, s, rho, sigma)
                            assert lam == (oracles.compose(core, rho, sigma, ell) if accepted else None), dec
    assert frames == 8128
    assert valid == {3: 32, 4: 208, 5: 688, 6: 1536}[ell]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_decompose_rejects_exactly_the_non_jm_partitions(ell):
    members = 0
    for n in range(19):
        for lam in all_partitions(n):
            if oracles.jm(lam, ell):
                members += 1
                assert decompose_jm(lam, ell) == oracles.decompose(lam, ell), lam
            else:
                with pytest.raises(NotJMPartitionError):
                    decompose_jm(lam, ell)
    assert members == {3: 294, 4: 330, 5: 414, 6: 522}[ell]


def test_the_fit_rule_rejects_readings_that_compose_back(monkeypatch):
    # without _fits these non-JM partitions would read back as decompositions
    monkeypatch.setattr("laddercrystal.jm._fits", lambda *frame: True)
    accepted = 0
    for ell in (3, 4, 5, 6):
        for n in range(19):
            for lam in all_partitions(n):
                if _fayers_witness(lam, ell) is not None:
                    try:
                        decompose_jm(lam, ell)
                    except NotJMPartitionError:
                        continue
                    accepted += 1
    assert accepted == 46


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_decompose_rejects_exactly_the_non_jm_neighbours_of_large_partitions(ell):
    rng = random.Random(7400 + ell)
    for lam in oracles.large_jm_partitions(ell, rng, 8, hooks=(100, 300)):
        assert size(lam) >= 600
        assert decompose_jm(lam, ell) == oracles.decompose(lam, ell)
        for near in oracles.one_box_away(lam):
            if oracles.jm(near, ell):
                assert decompose_jm(near, ell) == oracles.decompose(near, ell), near
            else:
                with pytest.raises(NotJMPartitionError):
                    decompose_jm(near, ell)


def test_decompose_builds_no_hook_grid(monkeypatch):
    big = compose_jm(JMDecomposition(mu=(1,), r=3, s=2, rho=(900, 300, 20, 1), sigma=(40, 3)), 3)
    near_misses = [lam for lam in oracles.one_box_away(big) if not oracles.jm(lam, 3)]
    assert near_misses
    calls = 0

    def counted(lam):
        nonlocal calls
        calls += 1
        return _hook_grid(lam)

    for name in ("partitions", "jm"):
        monkeypatch.setattr(importlib.import_module(f"laddercrystal.{name}"), "_hook_grid", counted)
    assert decompose_jm(big, 3).rho == (900, 300, 20, 1)
    for lam in [(2, 2), (3, 3)] + near_misses:
        with pytest.raises(NotJMPartitionError):
            decompose_jm(lam, 3)
    assert calls == 0
