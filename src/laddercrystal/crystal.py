"""Classical and ladder crystal operators on partitions.

Both models read one signature word over the addable (+) and removable (-)
boxes of one residue, cancel adjacent "-+" pairs, and act at the surviving
good/cogood box.  They differ only in the reading order: the classical word
runs bottom-left to top-right; the ladder word runs ladder by ladder,
top-to-bottom within each ladder.  So one kernel, ``reduced_word``, serves
both models and every residue: it checks its arguments once, reads the word
in one pass over the rows (re-sorted for the ladder order) and cancels it.
epsilon, phi, the good box and the cogood box are all read from the reduced
word; the public operators are one-line wrappers around the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .partitions import Box, Partition, check_ell, contains

PLUS = "+"
MINUS = "-"

CLASSICAL = "classical"
LADDER = "ladder"


class SignatureEntry(NamedTuple):
    sign: str
    box: Box


@dataclass(frozen=True)
class SignatureWord:
    entries: tuple[SignatureEntry, ...]
    order: str

    @property
    def word(self) -> str:
        return "".join(e.sign for e in self.entries)

    def __iter__(self):
        return iter(self.entries)


class ReducedWord(NamedTuple):
    """A reduced signature "+...+-...-": its plus boxes, then its minus boxes.

    phi is len(plus), epsilon is len(minus); the cogood box is plus[-1] and
    the good box minus[0].
    """

    plus: list[Box]
    minus: list[Box]


def check_model(model: str) -> None:
    if model not in (CLASSICAL, LADDER):
        raise ValueError(f"model must be {CLASSICAL!r} or {LADDER!r}, got {model!r}")


def _read(lam: Partition, i: int, ell: int, model: str) -> list[SignatureEntry]:
    """The i-signature of lam in the model's reading order.

    One pass runs over the rows from the bottom up, which is the classical
    order; the ladder order re-sorts by (ladder index, row).  No row carries
    two entries: its addable and removable boxes differ in residue by one.
    """
    check_ell(ell)
    if not 0 <= i < ell:
        raise ValueError(f"residue must lie in 0..{ell - 1}, got {i}")
    check_model(model)
    depth = len(lam)
    entries = []
    if -depth % ell == i:  # (depth + 1, 1) is always addable; its residue is -depth
        entries.append(SignatureEntry(PLUS, (depth + 1, 1)))
    below = 0
    for row in range(depth, 0, -1):
        part = lam[row - 1]
        last = (part - row) % ell  # residue of the row's last box
        minus = part > below and last == i
        plus = (row == 1 or lam[row - 2] > part) and (last + 1) % ell == i
        assert not (minus and plus), f"duplicate signature row for {lam}, i={i}"
        if minus:
            entries.append(SignatureEntry(MINUS, (row, part)))
        elif plus:
            entries.append(SignatureEntry(PLUS, (row, part + 1)))
        below = part
    if model == LADDER:
        entries.sort(key=lambda e: (e.box[0] + (ell - 1) * (e.box[1] - 1), e.box[0]))
    return entries


def _cancel(entries) -> ReducedWord:
    """Cancel adjacent "-+" pairs exhaustively; the survivors are "+...+-...-"."""
    plus: list[Box] = []
    minus: list[Box] = []
    for sign, box in entries:
        if sign == MINUS:
            minus.append(box)
        elif minus:
            minus.pop()
        else:
            plus.append(box)
    return ReducedWord(plus, minus)


def reduced_word(lam: Partition, i: int, ell: int, model: str) -> ReducedWord:
    """The reduced i-signature of lam in the reading order of *model*."""
    return _cancel(_read(lam, i, ell, model))


def apply_e(lam: Partition, word: ReducedWord, k: int = 1) -> Partition | None:
    """e^k: remove the first k minus boxes of lam's reduced word, or None when epsilon < k.

    Removing the good box turns its "-" into a "+" in place and leaves the
    rest of the word as it was, so the next good box is the next minus box.
    The boxes lie in distinct rows, so they can be removed in any order.
    """
    if len(word.minus) < k:
        return None
    while k:
        k -= 1
        row, col = word.minus[k]
        lam = lam[: row - 1] + ((col - 1,) if col > 1 else ()) + lam[row:]
    return lam


def apply_f(lam: Partition, word: ReducedWord, k: int = 1) -> Partition | None:
    """f^k: add the last k plus boxes of lam's reduced word, or None when phi < k.

    Adding the cogood box turns its "+" into a "-" in place, so the next
    cogood box is the plus box before it.
    """
    if len(word.plus) < k:
        return None
    while k:
        row, col = word.plus[-k]
        lam = lam[: row - 1] + (col,) + lam[row:]
        k -= 1
    return lam


def i_signature(lam: Partition, i: int, ell: int) -> SignatureWord:
    """Classical signature: entries ordered from the bottom row upward."""
    return SignatureWord(tuple(_read(lam, i, ell, CLASSICAL)), CLASSICAL)


def ladder_i_signature(lam: Partition, i: int, ell: int) -> SignatureWord:
    """Ladder signature: by increasing ladder index, top-to-bottom in a ladder."""
    return SignatureWord(tuple(_read(lam, i, ell, LADDER)), LADDER)


def reduce_signature(sig: SignatureWord) -> SignatureWord:
    """Cancel adjacent "-+" pairs exhaustively, leaving a word "+...+-...-"."""
    plus, minus = _cancel(sig)
    kept = [SignatureEntry(PLUS, b) for b in plus] + [SignatureEntry(MINUS, b) for b in minus]
    return SignatureWord(tuple(kept), sig.order)


def epsilon(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(lam, i, ell, CLASSICAL).minus)


def phi(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(lam, i, ell, CLASSICAL).plus)


def ladder_epsilon(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(lam, i, ell, LADDER).minus)


def ladder_phi(lam: Partition, i: int, ell: int) -> int:
    return len(reduced_word(lam, i, ell, LADDER).plus)


def e_tilde(lam: Partition, i: int, ell: int) -> Partition | None:
    """Remove the good i-box (classical), or None when epsilon is 0."""
    return apply_e(lam, reduced_word(lam, i, ell, CLASSICAL))


def f_tilde(lam: Partition, i: int, ell: int) -> Partition | None:
    """Add the cogood i-box (classical), or None when phi is 0."""
    return apply_f(lam, reduced_word(lam, i, ell, CLASSICAL))


def e_hat(lam: Partition, i: int, ell: int) -> Partition | None:
    """Remove the good i-box (ladder reading), or None."""
    return apply_e(lam, reduced_word(lam, i, ell, LADDER))


def f_hat(lam: Partition, i: int, ell: int) -> Partition | None:
    """Add the cogood i-box (ladder reading), or None."""
    return apply_f(lam, reduced_word(lam, i, ell, LADDER))


def residue_content(lam: Partition, ell: int) -> tuple[int, ...]:
    """How many boxes of each residue the diagram holds."""
    check_ell(ell)
    counts = [0] * ell
    for row, part in enumerate(lam, start=1):
        for col in range(1, part + 1):
            counts[(col - row) % ell] += 1
    return tuple(counts)


# Box types (a)-(k).  Positions on row 0 or column 0 count as inside the
# diagram; type (e) boxes are exactly the removable ones and type (j)
# positions exactly the addable ones.


def _inside(lam: Partition, pos: Box) -> bool:
    row, col = pos
    if row <= 0 or col <= 0:
        return True
    return contains(lam, pos)


def box_type(lam: Partition, pos: Box) -> str:
    row, col = pos
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
