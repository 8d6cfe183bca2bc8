"""Text form of partitions: "3,2^2,1^5" with caret exponents, "empty" for ()."""

from __future__ import annotations

from .partitions import Partition, check_partition


def parse_partition(text: str) -> Partition:
    """Parse "3,2^2,1^5" (exponents optional) or "empty"; raises ValueError."""
    text = text.strip()
    if text in ("empty", ""):
        return ()
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        part, caret, exponent = token.partition("^")
        # isdecimal() takes Unicode decimal digits, which int() reads, but not the
        # signs, underscores and spaces int() would also accept
        if not part.isdecimal() or (caret and not exponent.isdecimal()):
            raise ValueError(f"malformed partition token {token!r} in {text!r}")
        mult = int(exponent) if caret else 1
        if mult < 1:
            raise ValueError(f"exponent must be positive in {token!r}")
        parts.extend([int(part)] * mult)
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    """Canonical text form: comma-separated parts, never exponents."""
    return _format(check_partition(lam))


def _format(lam: Partition) -> str:
    return ",".join(map(str, lam)) or "empty"
