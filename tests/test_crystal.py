"""Crystal operators: signatures, reduction, e/f pairs, box types."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laddercrystal.crystal import (
    CLASSICAL,
    LADDER,
    MINUS,
    PLUS,
    SignatureEntry,
    SignatureWord,
    apply_e,
    apply_f,
    box_type,
    e_hat,
    e_tilde,
    epsilon,
    f_hat,
    f_tilde,
    i_signature,
    ladder_epsilon,
    ladder_i_signature,
    ladder_phi,
    phi,
    reduce_signature,
    reduced_word,
    reduced_words,
    residue_content,
)
from laddercrystal.jm import is_jm
from laddercrystal.partitions import (
    addable_corners,
    all_partitions,
    boxes,
    ladder_index,
    removable_corners,
    residue,
    size,
)

import oracles
from strategies import partitions, moduli


MODELS = (
    (CLASSICAL, i_signature, (epsilon, phi, e_tilde, f_tilde)),
    (LADDER, ladder_i_signature, (ladder_epsilon, ladder_phi, e_hat, f_hat)),
)


def _assert_operators_match_the_oracle(lam, i, ell):
    for model, signature, operators in MODELS:
        entries = oracles.signature(lam, i, ell, model)
        sig = signature(lam, i, ell)
        assert list(sig) == entries, (lam, i, model)
        assert list(reduce_signature(sig)) == oracles.reduced(entries), (lam, i, model)
        got = tuple(op(lam, i, ell) for op in operators)
        assert got == oracles.operators(lam, i, ell, model), (lam, i, model)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_kernel_matches_reference_signatures(ell):
    for n in range(13):
        for lam in all_partitions(n):
            for i in range(ell):
                _assert_operators_match_the_oracle(lam, i, ell)


def _assert_reader_matches_the_oracle(lam, ell):
    # the oracle reads one residue per call, box by box
    for model, signature, _ in MODELS:
        words = reduced_words(lam, ell, model)
        assert len(words) == ell
        for i in range(ell):
            want = oracles.word(lam, i, ell, model)
            assert words[i] == want, (lam, i, model)
            assert reduced_word(lam, i, ell, model) == want, (lam, i, model)
            assert list(signature(lam, i, ell)) == oracles.signature(lam, i, ell, model), (lam, i, model)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_one_pass_reader_matches_the_per_residue_reader(ell):
    for n in range(15):
        for lam in all_partitions(n):
            _assert_reader_matches_the_oracle(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_one_pass_reader_matches_on_large_partitions(ell):
    rng = random.Random(30800 + ell)
    for _ in range(12):
        _assert_reader_matches_the_oracle(oracles.random_partition(rng.randint(500, 3000), rng), ell)


PUBLIC_OPERATORS = [
    e_tilde,
    f_tilde,
    e_hat,
    f_hat,
    epsilon,
    phi,
    ladder_epsilon,
    ladder_phi,
    i_signature,
    ladder_i_signature,
]


@pytest.mark.parametrize("fn", PUBLIC_OPERATORS)
def test_public_operators_reject_non_partitions(fn):
    for bad in ((1, 2), [1, 2], (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            fn(bad, 0, 3)


@pytest.mark.parametrize("fn", PUBLIC_OPERATORS)
def test_public_operators_reject_bad_residues_and_moduli(fn):
    # a bool is not a residue: True would act as residue 1
    for i, ell in ((1.0, 3), (True, 3), ("1", 3), (-1, 3), (3, 3), (0, 1), (0, 3.0)):
        with pytest.raises(ValueError):
            fn((2, 1), i, ell)


def test_single_residue_reads_hold_nothing_per_residue_at_any_modulus():
    # a read of residue i keeps residue i's entries alone: a list per
    # residue took about 69 MB at ell = 10**6, and at ell = 10**30 it never
    # returned.  At that modulus every operator must still agree with the
    # reference, which reads the residue's boxes off the corners.
    tracemalloc.start()
    try:
        for fn in PUBLIC_OPERATORS:
            for i in (0, 1, 2, 10**5 - 1):
                fn((2, 1), i, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    ell = 10**30
    for lam in ((2, 1), oracles.random_partition(2048, random.Random(2048))):
        corners = addable_corners(lam) + removable_corners(lam)
        for i in sorted({residue(box, ell) for box in corners} | {0, 1, ell - 1}):
            _assert_operators_match_the_oracle(lam, i, ell)


def test_residue_content_and_box_type_reject_non_partitions():
    for bad in ((1, 2), [1, 2], (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            residue_content(bad, 3)
        with pytest.raises(ValueError):
            box_type(bad, (1, 1))
    assert residue_content([2, 1, 0], 3) == residue_content((2, 1), 3) == (1, 1, 1)
    assert box_type([2, 1], (1, 1)) == box_type((2, 1), (1, 1))


@pytest.mark.parametrize("fn", PUBLIC_OPERATORS)
def test_public_operators_accept_lists(fn):
    for lam in ((2, 1), (8, 5, 4, 1), (3, 3, 1, 1)):
        for i in range(3):
            assert fn(list(lam), i, 3) == fn(lam, i, 3)
            assert fn(lam + (0,), i, 3) == fn(lam, i, 3)


def test_classical_signature_golden():
    sig = i_signature((8, 5, 4, 1), 1, 3)
    assert sig.word == "+-+-"
    assert [entry.box for entry in sig] == [(4, 2), (3, 4), (2, 6), (1, 8)]
    reduced = reduce_signature(sig)
    assert reduced.word == "+-"
    assert [entry.box for entry in reduced] == [(4, 2), (1, 8)]


def test_one_string_of_8541():
    lam = (8, 5, 4, 1)
    assert epsilon(lam, 1, 3) == 1
    assert phi(lam, 1, 3) == 1
    assert e_tilde(lam, 1, 3) == (7, 5, 4, 1)
    assert f_tilde(lam, 1, 3) == (8, 5, 4, 2)
    assert e_tilde((7, 5, 4, 1), 1, 3) is None
    assert f_tilde((8, 5, 4, 2), 1, 3) is None


def test_signature_of_6533221():
    assert i_signature((6, 5, 3, 3, 2, 2, 1), 2, 3).word == "+---"


def test_ladder_signature_golden():
    sig = ladder_i_signature((5, 3, 1, 1, 1, 1, 1), 2, 3)
    assert sig.word == "++++"
    assert [entry.box for entry in sig] == [(3, 2), (2, 4), (8, 1), (1, 6)]


def test_ladder_two_string_golden():
    lam = (5, 3, 1, 1, 1, 1, 1)
    assert ladder_epsilon(lam, 2, 3) == 0
    assert ladder_phi(lam, 2, 3) == 4
    chain = [lam]
    while True:
        nxt = f_hat(chain[-1], 2, 3)
        if nxt is None:
            break
        chain.append(nxt)
    assert chain == [
        (5, 3, 1, 1, 1, 1, 1),
        (6, 3, 1, 1, 1, 1, 1),
        (6, 3, 1, 1, 1, 1, 1, 1),
        (6, 4, 1, 1, 1, 1, 1, 1),
        (6, 4, 2, 1, 1, 1, 1, 1),
    ]
    assert e_hat(lam, 2, 3) is None


def test_classical_reading_order():
    # entries run along rows from the bottom left to the top right
    for lam in [(4, 2, 1), (5, 5, 3, 2), (6, 1, 1)]:
        for i in range(3):
            entries = list(i_signature(lam, i, 3))
            rows = [entry.box[0] for entry in entries]
            assert rows == sorted(rows, reverse=True)
            assert len(set(rows)) == len(rows)


@given(partitions(), moduli(), st.data())
def test_ladder_reading_order(lam, ell, data):
    i = data.draw(st.integers(0, ell - 1))
    entries = list(ladder_i_signature(lam, i, ell))
    keys = [(ladder_index(entry.box, ell), entry.box[0]) for entry in entries]
    assert keys == sorted(keys)
    for entry in entries:
        assert residue(entry.box, ell) == i


@given(st.text(alphabet=[PLUS, MINUS], max_size=30))
def test_reduce_matches_rewriting_oracle(word):
    entries = tuple(SignatureEntry(sign, (k + 1, 1)) for k, sign in enumerate(word))
    reduced = reduce_signature(SignatureWord(entries=entries, order="classical"))
    assert list(reduced) == oracles.reduced(list(entries))
    # canonical form: all plusses before all minuses
    assert "-+" not in reduced.word


@given(partitions(), moduli(), st.data())
def test_e_f_inverse(lam, ell, data):
    i = data.draw(st.integers(0, ell - 1))
    up = f_tilde(lam, i, ell)
    if up is not None:
        assert e_tilde(up, i, ell) == lam
        assert size(up) == size(lam) + 1
    down = e_tilde(lam, i, ell)
    if down is not None:
        assert f_tilde(down, i, ell) == lam
    lup = f_hat(lam, i, ell)
    if lup is not None:
        assert e_hat(lup, i, ell) == lam
    ldown = e_hat(lam, i, ell)
    if ldown is not None:
        assert f_hat(ldown, i, ell) == lam


@given(partitions(max_part=6, max_len=6), moduli(), st.data())
def test_counters_match_operator_orbits(lam, ell, data):
    i = data.draw(st.integers(0, ell - 1))
    steps = 0
    cur = lam
    while (nxt := e_tilde(cur, i, ell)) is not None:
        cur = nxt
        steps += 1
    assert steps == epsilon(lam, i, ell)
    steps = 0
    cur = lam
    while (nxt := f_hat(cur, i, ell)) is not None:
        cur = nxt
        steps += 1
    assert steps == ladder_phi(lam, i, ell)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_string_edits_repeat_one_box_edits(ell):
    # e^k removes the first k minus boxes of one reduced word and f^k adds
    # the last k plus boxes: reading a fresh word after each box finds the
    # next box of the first word, and none after its last
    for n in range(13):
        for lam in all_partitions(n):
            for i in range(ell):
                for model in ("classical", "ladder"):
                    word = reduced_word(lam, i, ell, model)
                    for edit, path, good in (
                        (apply_e, word.minus, lambda w: w.minus[:1]),
                        (apply_f, word.plus[::-1], lambda w: w.plus[-1:]),
                    ):
                        cur = lam
                        for k, box in enumerate(path, start=1):
                            fresh = reduced_word(cur, i, ell, model)
                            assert good(fresh) == [box], (lam, i, model, k)
                            cur = edit(cur, fresh)
                        assert edit(cur, reduced_word(cur, i, ell, model)) is None, (lam, i, model)


@given(partitions(), moduli())
def test_residue_content_totals(lam, ell):
    content = residue_content(lam, ell)
    assert len(content) == ell
    assert sum(content) == size(lam)
    for i in range(ell):
        assert content[i] == sum(1 for box in boxes(lam) if residue(box, ell) == i)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_residue_content_matches_a_count_per_box(ell):
    for n in range(13):
        for lam in all_partitions(n):
            counts = [0] * ell
            for box in boxes(lam):
                counts[residue(box, ell)] += 1
            assert residue_content(lam, ell) == tuple(counts), (lam, ell)


def test_residue_content_of_a_long_row_is_arithmetic():
    # one row of 10**18 - 1 boxes: a third of them on each residue at ell = 3
    third = (10**18 - 1) // 3
    assert residue_content((10**18 - 1,), 3) == (third, third, third)
    # row 2 of 10**18 - 1 boxes at ell = 4: one extra box on each of residues 3, 0 and 1
    assert residue_content((10**18, 10**18 - 1), 4) == (5 * 10**17, 5 * 10**17, 5 * 10**17 - 1, 5 * 10**17)


@pytest.mark.parametrize("ell", [3, 4])
def test_jm_ladder_signatures_never_cancel(ell):
    # JM partitions have ladder signatures that are already reduced
    for n in range(0, 11):
        for lam in all_partitions(n):
            if not is_jm(lam, ell):
                continue
            for i in range(ell):
                sig = ladder_i_signature(lam, i, ell)
                assert reduce_signature(sig).word == sig.word


def test_box_type_map_of_4211():
    # full 7x7 grid of position types, rows 0..6 top to bottom, cols 0..6
    lam = (4, 2, 1, 1)
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
            assert box_type(lam, (row, col)) == kind, (row, col)


def test_box_type_rejects_negative_positions():
    with pytest.raises(ValueError):
        box_type((2, 1), (-1, 2))


@given(partitions(max_part=6, max_len=6))
def test_box_types_classify_corners(lam):
    removable = set(removable_corners(lam))
    addable = set(addable_corners(lam))
    for a in range(1, len(lam) + 2):
        width = lam[a - 1] if a <= len(lam) else 0
        for b in range(1, width + 2):
            kind = box_type(lam, (a, b))
            assert (kind == "e") == ((a, b) in removable)
            assert (kind == "j") == ((a, b) in addable)
