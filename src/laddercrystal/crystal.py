"""Classical and ladder crystal operators on partitions.

Both models read one signature word per residue over the addable (+) and
removable (-) boxes of that residue, cancel adjacent "-+" pairs, and act at
the surviving good/cogood box.  They differ only in the reading order: the
classical word runs bottom-left to top-right; the ladder word runs ladder
by ladder, top-to-bottom within each ladder.  One pass over the rows, from
the bottom up, reads the words of every residue at once: a row's removable
box has the residue of its last box and its addable box the next one, so
each row feeds at most two words.  That pass meets the boxes in the
classical order, so it reduces each classical word as it reads: a
removable box goes onto its residue's minus list, and an addable box pops
that list or joins the plus list, with no entry record, sort or second
loop.  In the ladder model the pass records entries (ladder, row, box,
plus); sorting a word puts it in order by (ladder, row), and the same
stack rule then reduces it.  ``reduced_words`` gives all ell reduced words
in O(len(lam) + ell).  A read of one residue, behind every single-residue
function, records only that residue's entries, so ``reduced_word`` sorts
(in the ladder model) and reduces one word, in O(len(lam)) time and memory
at any ell.  epsilon, phi, the good box and the cogood box are all read
from a reduced word, and ``apply_e`` / ``apply_f`` remove the good box or
add the cogood one with one tuple splice.  Removing the good box turns its
"-" into a "+" in place and leaves the rest of the word as it was, so the
next good box is the next minus box (and the next cogood box the plus box
before the last): a walk along an i-string edits the partition box by box
from its first word, reading no further word.

The kernel checks nothing: the public operators check the partition, the
modulus and the residue once per call, and the graph sweeps check their
arguments before they start.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .partitions import Box, Partition, check_box, check_ell, check_partition, check_residue

PLUS = "+"
MINUS = "-"

CLASSICAL = "classical"
LADDER = "ladder"


class SignatureEntry(namedtuple("SignatureEntry", "sign box")):
    """One entry of a signature: sign (str, PLUS or MINUS) and box (Box)."""

    __slots__ = ()


class SignatureWord:
    """The entries of a signature in reading order, and the order's name.

    A frozen record that iterates its entries, so not a tuple of its fields.
    """

    __slots__ = ("entries", "order")

    def __init__(self, entries: tuple[SignatureEntry, ...], order: str) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={self.entries!r}, order={self.order!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries and self.order == other.order

    def __hash__(self) -> int:
        return hash((self.entries, self.order))

    def __reduce__(self):
        return type(self), (self.entries, self.order)

    @property
    def word(self) -> str:
        return "".join(e.sign for e in self.entries)

    def __iter__(self):
        return iter(self.entries)


class ReducedWord(namedtuple("ReducedWord", "plus minus")):
    """A reduced signature "+...+-...-": its plus boxes, then its minus boxes.

    plus and minus are lists of boxes (list[Box]).  phi is len(plus),
    epsilon is len(minus); the cogood box is plus[-1] and the good box
    minus[0].
    """

    __slots__ = ()


_new_tuple = tuple.__new__


def check_model(model: str) -> None:
    if model not in (CLASSICAL, LADDER):
        raise ValueError(f"model must be {CLASSICAL!r} or {LADDER!r}, got {model!r}")


def _checked(lam, i: int, ell: int) -> Partition:
    """lam as a partition, after checking the modulus and the residue."""
    check_residue(i, ell)
    return check_partition(lam)


def _read(lam: Partition, i: int | None, ell: int, model: str) -> list:
    """lam's signature words of residue i, or of every residue when i is
    None, from one pass over its rows; every word read passes here.

    The rows are read once, from the bottom up, which is the classical
    order.  Row r's removable box (r, lam_r) has the residue lam_r - r of
    its last box, and its addable box (r, lam_r + 1) the next residue (the
    first box of the empty row below the diagram is always addable), so
    each row feeds at most two words.

    A classical read of every residue reduces each word as the rows arrive
    and returns ell ReducedWords: a removable box goes onto its residue's
    minus list, and an addable box pops that list or joins the plus list.
    Every other read returns the entry lists, in the classical order: an
    entry is (ladder, row, box, plus), with plus True for the addable box
    and False for the removable one, so sorting a list gives the ladder
    order, by (ladder, row), which no two boxes share.  A read of residue i
    keeps one list: residue c goes to slot (c - i) mod ell, and only slot 0
    is kept, so the read holds O(len(lam)) at any ell.  The slots are filled
    from one list allocated in a single step, so a modulus past memory fails
    before the first row is read.
    """
    rows = lam + (0,)
    below = 0
    row = len(rows)
    if i is None and model == CLASSICAL:
        words = [_new_tuple(ReducedWord, ([], [])) for _ in [None] * ell]  # skips namedtuple's Python-level __new__
        for part in reversed(rows):
            last = (part - row) % ell
            if part > below:
                words[last][1].append((row, part))
            if row == 1 or rows[row - 2] > part:
                plus, minus = words[(last + 1) % ell]
                if minus:
                    minus.pop()
                else:
                    plus.append((row, part + 1))
            below = part
            row -= 1
        return words
    shift, width = (0, ell) if i is None else (i, 1)
    step = ell - 1
    entries: list[list[tuple]] = [[] for _ in [None] * width]
    for part in reversed(rows):
        slot = (part - row - shift) % ell
        if part > below and slot < width:
            entries[slot].append((row + step * (part - 1), row, (row, part), False))
        if row == 1 or rows[row - 2] > part:
            slot = slot + 1 if slot < step else 0
            if slot < width:
                entries[slot].append((row + step * part, row, (row, part + 1), True))
        below = part
        row -= 1
    return entries


def _cancel(words: list[list[tuple]], ladder: bool) -> list[ReducedWord]:
    """Each entry list reduced: sorted first into the ladder order when
    *ladder*, then adjacent "-+" pairs cancelled by the stack rule of the
    classical read, so the survivors read "+...+-...-"."""
    reduced = []
    for entries in words:
        if ladder:
            entries.sort()
        plus: list[Box] = []
        minus: list[Box] = []
        for _, _, box, up in entries:
            if not up:
                minus.append(box)
            elif minus:
                minus.pop()
            else:
                plus.append(box)
        reduced.append(_new_tuple(ReducedWord, (plus, minus)))
    return reduced


def reduced_words(lam: Partition, ell: int, model: str) -> list[ReducedWord]:
    """The reduced i-signatures of lam for i = 0..ell-1, from one pass over
    its rows, in O(len(lam) + ell): the classical words are reduced as the
    rows are read; the ladder words are recorded, sorted and reduced."""
    if model == CLASSICAL:
        return _read(lam, None, ell, CLASSICAL)
    return _cancel(_read(lam, None, ell, LADDER), True)


def reduced_word(lam: Partition, i: int, ell: int, model: str) -> ReducedWord:
    """The reduced i-signature of lam in the reading order of *model*: the
    pass records residue i's entries alone, sorts them in the ladder model
    and reduces them, in O(len(lam)) time and memory at any ell."""
    return _cancel(_read(lam, i, ell, model), model == LADDER)[0]


def _signature_word(lam, i: int, ell: int, model: str) -> SignatureWord:
    entries, = _read(_checked(lam, i, ell), i, ell, model)
    if model == LADDER:
        entries.sort()
    return SignatureWord(
        tuple(SignatureEntry(PLUS if plus else MINUS, box) for _, _, box, plus in entries), model
    )


def apply_e(lam: Partition, word: ReducedWord) -> Partition | None:
    """Remove the good box, the first minus box of lam's reduced word, or None when epsilon is 0."""
    if not word.minus:
        return None
    row, col = word.minus[0]
    return lam[: row - 1] + ((col - 1,) if col > 1 else ()) + lam[row:]


def apply_f(lam: Partition, word: ReducedWord) -> Partition | None:
    """Add the cogood box, the last plus box of lam's reduced word, or None when phi is 0."""
    if not word.plus:
        return None
    row, col = word.plus[-1]
    return lam[: row - 1] + (col,) + lam[row:]


def i_signature(lam: Partition, i: int, ell: int) -> SignatureWord:
    """Classical signature: entries ordered from the bottom row upward."""
    return _signature_word(lam, i, ell, CLASSICAL)


def ladder_i_signature(lam: Partition, i: int, ell: int) -> SignatureWord:
    """Ladder signature: by increasing ladder index, top-to-bottom in a ladder."""
    return _signature_word(lam, i, ell, LADDER)


def reduce_signature(sig: SignatureWord) -> SignatureWord:
    """Cancel adjacent "-+" pairs exhaustively, leaving a word "+...+-...-"."""
    (plus, minus), = _cancel([[(None, None, box, sign != MINUS) for sign, box in sig]], False)
    kept = [SignatureEntry(PLUS, b) for b in plus] + [SignatureEntry(MINUS, b) for b in minus]
    return SignatureWord(tuple(kept), sig.order)


def epsilon(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(_checked(lam, i, ell), i, ell, CLASSICAL).minus)


def phi(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(_checked(lam, i, ell), i, ell, CLASSICAL).plus)


def ladder_epsilon(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(_checked(lam, i, ell), i, ell, LADDER).minus)


def ladder_phi(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(_checked(lam, i, ell), i, ell, LADDER).plus)


def e_tilde(lam: Partition, i: int, ell: int) -> Partition | None:
    """Remove the good i-box (classical), or None when epsilon is 0."""
    lam = _checked(lam, i, ell)
    return apply_e(lam, reduced_word(lam, i, ell, CLASSICAL))


def f_tilde(lam: Partition, i: int, ell: int) -> Partition | None:
    """Add the cogood i-box (classical), or None when phi is 0."""
    lam = _checked(lam, i, ell)
    return apply_f(lam, reduced_word(lam, i, ell, CLASSICAL))


def e_hat(lam: Partition, i: int, ell: int) -> Partition | None:
    """Remove the good i-box (ladder reading), or None."""
    lam = _checked(lam, i, ell)
    return apply_e(lam, reduced_word(lam, i, ell, LADDER))


def f_hat(lam: Partition, i: int, ell: int) -> Partition | None:
    """Add the cogood i-box (ladder reading), or None."""
    lam = _checked(lam, i, ell)
    return apply_f(lam, reduced_word(lam, i, ell, LADDER))


def residue_content(lam: Partition, ell: int) -> tuple[int, ...]:
    """How many boxes of each residue the diagram holds.

    Row r's boxes have the consecutive residues (1 - r), (2 - r), ... mod
    ell, so its p boxes give every residue p // ell boxes and one more to
    the p % ell residues from (1 - r) mod ell on.  Those runs are end
    markers on a list of 2 ell residues, summed once and folded mod ell:
    O(len(lam) + ell), however long the rows.
    """
    check_ell(ell)
    rounds = 0
    marks = [0] * (2 * ell)
    for row, part in enumerate(check_partition(lam), start=1):
        whole, extra = divmod(part, ell)
        rounds += whole
        first = (1 - row) % ell
        marks[first] += 1
        marks[first + extra] -= 1
    runs = list(accumulate(marks))
    return tuple(rounds + runs[i] + runs[i + ell] for i in range(ell))


# Box types (a)-(k).  Positions on row 0 or column 0 count as inside the
# diagram; type (e) boxes are exactly the removable ones and type (j)
# positions exactly the addable ones.


def _inside(lam: Partition, pos: Box) -> bool:
    row, col = pos
    return row <= 0 or col <= 0 or (row <= len(lam) and col <= lam[row - 1])


def box_type(lam: Partition, pos: Box) -> str:
    lam = check_partition(lam)
    row, col = pos = check_box(pos)
    if row < 0 or col < 0:
        raise ValueError(f"position must have non-negative coordinates: {pos}")
    if _inside(lam, pos):
        below = _inside(lam, (row + 1, col))
        right = _inside(lam, (row, col + 1))
        if _inside(lam, (row + 1, col + 1)):
            return "a"
        if below and right:
            return "b"
        if col == 0 and not _inside(lam, (row, 1)):
            return "f"
        if below and not right:
            return "c"
        if right and not below:
            return "d"
        return "e"
    diagonal = (row - 1, col - 1)
    if not _inside(lam, diagonal):
        return "k"
    return {"e": "g", "c": "h", "d": "i", "b": "j", "f": "k"}.get(box_type(lam, diagonal), "k")
