"""The (ell,0)-JM layer: witnesses, classifications, decomposition, counting."""

from __future__ import annotations

import importlib
import random
import time

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    _hook_grid,
    add_box,
    addable_corners,
    all_partitions,
    check_partition,
    hook_grid,
    is_regular,
    partitions_of,
    remove_box,
    removable_corners,
    size,
    transpose,
)
from laddercrystal.jm import (
    FayersWitness,
    InvalidDecompositionError,
    JMDecomposition,
    NotACoreError,
    NotJMPartitionError,
    _compose,
    _core_frame,
    _fayers_witness,
    _frame_rows,
    _leading_run,
    _only_horizontal_hereditarily,
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
    _ell_core,
    _removable_rim_hooks,
    _remove,
    adjacent,
    ell_core,
    is_core,
    removable_rim_hooks,
)

from laddercrystal.cli import _cores

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


def _reference_witness(lam, ell):
    """The first witness found by rescanning a row and a column per divisible box."""
    grid = hook_grid(lam)
    cols = transpose(lam)
    for a in range(1, len(lam) + 1):
        row_hooks = grid[a - 1]
        for b in range(1, lam[a - 1] + 1):
            if row_hooks[b - 1] % ell:
                continue
            y = next((c for c in range(1, lam[a - 1] + 1) if row_hooks[c - 1] % ell), None)
            if y is None:
                continue
            x = next((r for r in range(1, cols[b - 1] + 1) if grid[r - 1][b - 1] % ell), None)
            if x is None:
                continue
            return FayersWitness((a, b), (a, y), (x, b))
    return None


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 14)])
def test_witness_matches_the_rescan_reference(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            assert _fayers_witness(lam, ell) == _reference_witness(lam, ell), lam


def _large_jm_partitions(ell, rng, count, hooks=(1, 60)):
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


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_witness_matches_the_rescan_reference_on_large_partitions(ell):
    rng = random.Random(7300 + ell)
    for _ in range(30):
        lam = _random_partition(rng.randint(500, 3000), rng)
        assert _fayers_witness(lam, ell) == _reference_witness(lam, ell), lam
    # JM partitions have no witness, so both scans run to the end; their
    # one-box neighbours are near misses with a witness deep in the diagram
    for lam in _large_jm_partitions(ell, rng, 6):
        assert _fayers_witness(lam, ell) is None and _reference_witness(lam, ell) is None
        for near in _one_box_away(lam):
            assert _fayers_witness(near, ell) == _reference_witness(near, ell), near


@given(partitions(max_part=7, max_len=7), jm_moduli())
def test_jm_iff_no_witness_and_transpose_symmetric(lam, ell):
    assert is_jm(lam, ell) == (fayers_witness(lam, ell) is None)
    assert is_jm(lam, ell) == is_jm(transpose(lam), ell)


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


def _reference_only_horizontal(lam, ell):
    """Walk every partition that hook removals reach; each hook must be horizontal."""
    seen = {lam}
    todo = [lam]
    while todo:
        cur = todo.pop()
        hooks = removable_rim_hooks(cur, ell)
        if any(h.shape != HORIZONTAL for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            if rest not in seen:
                seen.add(rest)
                todo.append(rest)
    return True


def _reference_generalized(lam, ell):
    """Walk every partition that hook removals reach: each hook must be
    horizontal or vertical, and removing one must not expose a touching hook
    of the opposite orientation."""
    seen = {lam}
    todo = [(lam, removable_rim_hooks(lam, ell))]
    while todo:
        cur, hooks = todo.pop()
        if any(h.shape not in (HORIZONTAL, VERTICAL) for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            rest_hooks = removable_rim_hooks(rest, ell)
            opposite = VERTICAL if hook.shape == HORIZONTAL else HORIZONTAL
            for other in rest_hooks:
                if other.shape == opposite and adjacent(hook, other):
                    return False
            if rest not in seen:
                seen.add(rest)
                todo.append((rest, rest_hooks))
    return True


def _assert_matches_walk(lam, ell):
    assert _only_horizontal_hereditarily(lam, ell) == _reference_only_horizontal(lam, ell), (lam, ell)
    assert is_generalized_ell_partition(lam, ell) == _reference_generalized(lam, ell), (lam, ell)


@pytest.mark.parametrize("ell,nmax", [(2, 14), (3, 18), (4, 16), (5, 14)])
def test_hereditary_checks_match_the_walk(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            _assert_matches_walk(lam, ell)


def _random_partition(n, rng):
    """A partition of n from parts drawn up to a random cap (long rows or long columns)."""
    cap = rng.choice([2, 5, int(n**0.5) + 1, n // 4 + 1, n])
    parts = []
    while n:
        part = rng.randint(1, min(cap, n))
        parts.append(part)
        n -= part
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_hereditary_checks_match_the_walk_on_random_partitions(ell):
    rng = random.Random(7100 + ell)
    for _ in range(750):
        _assert_matches_walk(_random_partition(rng.randint(20, 90), rng), ell)


def _one_box_away(lam):
    return [add_box(lam, b) for b in addable_corners(lam)] + [remove_box(lam, b) for b in removable_corners(lam)]


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_hereditary_checks_match_the_walk_on_multi_row_jm_partitions(ell):
    # cores with a frame of several rows or columns carry hooks on several
    # rows, where the walk reaches many partitions; every one-box neighbour
    # is a near miss
    rng = random.Random(7200 + ell)
    cores = [c for n in range(1, 13) for c in all_partitions(n) if is_core(c, ell)]
    for core in rng.sample(cores, 12):
        members = enumerate_jm(core, rng.randint(2, 5), ell)
        for lam in rng.sample(members, min(6, len(members))):
            assert is_generalized_ell_partition(lam, ell) and _reference_generalized(lam, ell)
            for near in _one_box_away(lam):
                _assert_matches_walk(near, ell)


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


def test_decompose_golden():
    lam = (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)
    dec = decompose_jm(lam, 3)
    assert dec == JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1))
    assert compose_jm(dec, 3) == lam


def _reference_decompose(lam, ell):
    """Remove rim hooks down to the core and tally them: horizontal hooks
    first (topmost first) by the row of their northeast box, then vertical
    ones (leftmost first) by its column; for a JM partition the tallies do
    not depend on the order."""
    rho_count, sigma_count = {}, {}
    cur = lam
    while hooks := removable_rim_hooks(cur, ell):
        horizontal = [h for h in hooks if h.shape == HORIZONTAL]
        if horizontal:
            hook = horizontal[0]
            row = hook.boxes[0][0]
            rho_count[row] = rho_count.get(row, 0) + 1
        else:
            hook = min(hooks, key=lambda h: h.boxes[0][1])
            col = hook.boxes[0][1]
            sigma_count[col] = sigma_count.get(col, 0) + 1
        cur = _remove(cur, hook)
    mu, r, s = _core_frame(cur, ell)
    rho = tuple(rho_count.get(i, 0) for i in range(1, max(rho_count, default=0) + 1))
    sigma = tuple(sigma_count.get(j, 0) for j in range(1, max(sigma_count, default=0) + 1))
    assert len(rho) <= r + 1 and len(sigma) <= s + 1, (lam, rho, sigma)
    return JMDecomposition(mu, r, s, rho, sigma)


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 16)])
def test_decompose_matches_the_removal_walk(ell, nmax):
    members = [lam for n in range(nmax + 1) for lam in all_partitions(n) if is_jm(lam, ell)]
    for lam in members:
        assert decompose_jm(lam, ell) == _reference_decompose(lam, ell), lam
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
        assert _frame_rows(*_core_frame(core, ell), ell) == list(core), core


def _reference_compose(mu, r, s, rho, sigma, ell):
    """_compose as it was: the core rebuilt from its frame (mu, r, s)."""
    rows = _frame_rows(mu, r, s, ell) + [0] * (r + 1)
    for i, mult in enumerate(rho):
        rows[i] += mult * ell
    cols = list(transpose(tuple(p for p in rows if p))) + [0] * (s + 1)
    for j, mult in enumerate(sigma):
        cols[j] += mult * ell
    return transpose(tuple(p for p in cols if p))


@pytest.mark.parametrize("ell", [3, 4])
def test_compose_on_the_core_matches_the_frame_form(ell):
    # every (rho, sigma) that enumerate_jm builds
    for core in _cores(ell, 12):
        mu, r, s = _core_frame(core, ell)
        for w in range(7):
            for t in range(w + 1):
                for rho in map(transpose, partitions_of(t, r + 1)):
                    for sigma in map(transpose, partitions_of(w - t, s + 1)):
                        if not mu and len(rho) == r + 1 and len(sigma) == s + 1:
                            continue
                        expected = _reference_compose(mu, r, s, rho, sigma, ell)
                        assert _compose(core, rho, sigma, ell) == expected, (core, rho, sigma)


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
    # enumerate_jm trusts Fayers's theorem; this holds it to the hook-grid
    # test and the abacus on every (core, w) the other tests enumerate
    cases = [(core, w) for core in _cores(ell, 12) for w in range(7)]
    if ell == 3:
        cases.append(((1,), 40))
    for core, w in cases:
        for lam in enumerate_jm(core, w, ell):
            assert _fayers_witness(lam, ell) is None, lam
            assert _ell_core(lam, ell) == (core, w), lam


def _reference_validate_decomposition(dec, ell):
    """compose_jm's frame and fit checks as five separate conditions, before
    they became a read-back of the frame and one fit rule."""
    mu, rho, sigma, r, s = dec.mu, dec.rho, dec.sigma, dec.r, dec.s
    if not is_core(mu, ell):
        return False
    if _leading_run(mu, ell) or _leading_run(transpose(mu), ell):
        return False
    if len(rho) > r + 1 or len(sigma) > s + 1:
        return False
    return bool(mu) or len(rho) != r + 1 or len(sigma) != s + 1


def _reference_decompose_witness_first(lam, ell):
    """decompose_jm as it was: the Fayers-witness test on a hook grid, then
    the frame reading, then a check that it composes back."""
    if _fayers_witness(lam, ell) is not None:
        raise NotJMPartitionError(f"{lam} is not ({ell},0)-JM")
    core = ell_core(lam, ell).core
    mu, r, s = _core_frame(core, ell)
    pad = (0,) * (r + s + 2)
    rho = check_partition([(a - b) // ell for a, b in zip((lam + pad)[: r + 1], core + pad)])
    cols = transpose(_compose(core, rho, (), ell)) + pad
    sigma = check_partition([(a - b) // ell for a, b in zip((transpose(lam) + pad)[: s + 1], cols)])
    assert _compose(core, rho, sigma, ell) == lam
    return JMDecomposition(mu, r, s, rho, sigma)


def _past_limits(limit):
    """Tallies with limit - 1, limit and limit + 1 parts: below, at and just past it."""
    return [(1,) * k for k in range(max(limit - 1, 0), limit + 2)]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_compose_accepts_exactly_the_old_frames_and_fits(ell):
    mus = [mu for n in range(15) for mu in all_partitions(n)]
    frames = valid = 0
    for mu in mus:
        for r in range(4):
            for s in range(4):
                frames += 1
                for rho in _past_limits(r + 1):
                    for sigma in _past_limits(s + 1):
                        dec = JMDecomposition(mu, r, s, rho, sigma)
                        expected = _reference_validate_decomposition(dec, ell)
                        try:
                            lam = compose_jm(dec, ell)
                        except InvalidDecompositionError:
                            assert not expected, dec
                            continue
                        assert expected, dec
                        assert lam == _reference_compose(mu, r, s, rho, sigma, ell)
                valid += _reference_validate_decomposition(JMDecomposition(mu, r, s, (), ()), ell)
    assert frames == 8128
    assert valid == {3: 32, 4: 208, 5: 688, 6: 1536}[ell]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_decompose_rejects_exactly_the_non_jm_partitions(ell):
    members = 0
    for n in range(19):
        for lam in all_partitions(n):
            if _fayers_witness(lam, ell) is None:
                members += 1
                assert decompose_jm(lam, ell) == _reference_decompose_witness_first(lam, ell), lam
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
    for lam in _large_jm_partitions(ell, rng, 8, hooks=(100, 300)):
        assert size(lam) >= 600
        assert decompose_jm(lam, ell) == _reference_decompose_witness_first(lam, ell)
        for near in _one_box_away(lam):
            if _fayers_witness(near, ell) is None:
                assert decompose_jm(near, ell) == _reference_decompose_witness_first(near, ell), near
            else:
                with pytest.raises(NotJMPartitionError):
                    decompose_jm(near, ell)


def test_decompose_builds_no_hook_grid(monkeypatch):
    big = compose_jm(JMDecomposition(mu=(1,), r=3, s=2, rho=(900, 300, 20, 1), sigma=(40, 3)), 3)
    near_misses = [lam for lam in _one_box_away(big) if _fayers_witness(lam, 3) is not None]
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
