"""Text form of partitions: "3,2^2,1^5" with caret exponents, "empty" for ()."""

from __future__ import annotations

import re

from .partitions import Partition, check_partition

_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str) -> Partition:
    """Parse "3,2^2,1^5" (exponents optional) or "empty"; raises ValueError."""
    text = text.strip()
    if text in ("empty", ""):
        return ()
    parts: list[int] = []
    for token in text.split(","):
        m = _TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"malformed partition token {token.strip()!r} in {text!r}")
        part = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) else 1
        if mult < 1:
            raise ValueError(f"exponent must be positive in {token.strip()!r}")
        parts.extend([part] * mult)
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    """Canonical text form: comma-separated parts, never exponents."""
    return _format(check_partition(lam))


def _format(lam: Partition) -> str:
    return ",".join(map(str, lam)) or "empty"
