"""Byte-size constants and the size parser behind the CLI's size options."""

import re

from .errors import ConfigError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# Decimal units, used for device capacities and rates.
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

_SUFFIXES = {
    "": 1,
    "b": 1,
    "kib": KIB,
    "mib": MIB,
    "gib": GIB,
    "kb": KB,
    "mb": MB,
    "gb": GB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str | int) -> int:
    """Parse a byte count like ``4MiB``, ``64kb`` or ``65536``.

    Binary suffixes (KiB/MiB/GiB) are powers of 1024, decimal ones
    (KB/MB/GB) powers of 1000. Bare numbers are bytes. The arithmetic is
    exact, so ``2.01kb`` is 2,010 bytes and a count of any length parses.
    """
    if isinstance(text, int):
        return text
    m = _SIZE_RE.match(text)
    if not m:
        raise ConfigError(f"unparseable size {text!r}")
    from fractions import Fraction  # here: importing the package need not load decimal (about 0.45 MiB)

    value, suffix = m.groups()
    factor = _SUFFIXES.get(suffix.lower())
    if factor is None:
        raise ConfigError(f"unknown size suffix {suffix!r} in {text!r}")
    result = Fraction(value) * factor
    if result.denominator != 1:
        raise ConfigError(f"size {text!r} is not a whole number of bytes")
    return int(result)
