import pytest

from hybridgc.errors import ConfigError
from hybridgc.units import GIB, MIB, parse_size


@pytest.mark.parametrize(
    "text,expected",
    [
        ("65536", 65536),
        ("4MiB", 4 * MIB),
        ("64kb", 64_000),
        ("2GiB", 2 * GIB),
        ("1.5KiB", 1536),
        ("32GB", 32_000_000_000),
        ("0", 0),
        (123, 123),
        ("2.01kb", 2010),  # exact: a float product misses the whole number
        pytest.param("9" * 400, 10**400 - 1, id="400-digit-count"),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("bad", ["4MiBs", "abc", "1.0.0KiB", "-5", ""])
def test_parse_size_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_size(bad)


def test_parse_size_rejects_fractional_bytes():
    with pytest.raises(ConfigError):
        parse_size("1.0001KiB")

