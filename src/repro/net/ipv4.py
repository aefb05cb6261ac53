"""IPv4 addresses and prefixes.

Addresses are wrapped 32-bit integers; prefixes are (network, length) pairs
with the host bits required to be zero.  The /24 helpers are first-class
because IODA counts connectivity in units of /24 blocks: BGP visibility is
"number of routable /24-equivalents", and active probing tracks the state of
individual /24s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from repro.errors import PrefixError

__all__ = [
    "IPv4Address",
    "Prefix",
    "parse_prefix",
    "SLASH24_COUNT",
]

_MAX_ADDRESS = 2 ** 32 - 1

#: Number of /24 blocks in the full IPv4 space.
SLASH24_COUNT = 2 ** 24


@total_ordering
@dataclass(frozen=True, slots=True)
class IPv4Address:
    """An IPv4 address as a wrapped 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_ADDRESS:
            raise PrefixError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation.

        >>> IPv4Address.parse("192.0.2.1").value
        3221225985
        """
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise PrefixError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise PrefixError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise PrefixError(f"malformed IPv4 address: {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def slash24(self) -> int:
        """Index of the /24 block containing this address."""
        return self.value >> 8

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value


@total_ordering
@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix: a network address and a mask length.

    The network address must have all host bits zero; violating inputs raise
    :class:`PrefixError` rather than being silently truncated, because a
    nonzero host bit in routing data is almost always a parsing bug.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise PrefixError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= _MAX_ADDRESS:
            raise PrefixError(f"network address out of range: {self.network}")
        if self.network & (self.host_mask()):
            raise PrefixError(
                f"host bits set in {IPv4Address(self.network)}/{self.length}")

    def host_mask(self) -> int:
        """Bit mask covering the host portion."""
        return (1 << (32 - self.length)) - 1

    def netmask(self) -> int:
        """Bit mask covering the network portion."""
        return _MAX_ADDRESS ^ self.host_mask()

    @property
    def num_slash24s(self) -> int:
        """Number of /24-equivalents covered.

        Prefixes longer than /24 count as zero: IODA's BGP signal counts
        whole /24 blocks, and a /25 does not make its covering /24 routable
        by itself.
        """
        if self.length > 24:
            return 0
        return 1 << (24 - self.length)

    def slash24s(self) -> Iterator[int]:
        """Yield the indices of the /24 blocks covered (empty if longer
        than /24)."""
        if self.length > 24:
            return
        first = self.network >> 8
        yield from range(first, first + self.num_slash24s)

    def contains(self, address: IPv4Address) -> bool:
        """Whether ``address`` falls inside the prefix."""
        return (address.value & self.netmask()) == self.network

    def covers(self, other: "Prefix") -> bool:
        """Whether this prefix covers ``other`` (equal or less specific)."""
        if other.length < self.length:
            return False
        return (other.network & self.netmask()) == self.network

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)


def parse_prefix(text: str) -> Prefix:
    """Parse ``a.b.c.d/len`` notation.

    >>> str(parse_prefix("10.0.0.0/8"))
    '10.0.0.0/8'
    """
    head, sep, tail = text.strip().partition("/")
    if not sep or not tail.isdigit():
        raise PrefixError(f"malformed prefix: {text!r}")
    return Prefix(IPv4Address.parse(head).value, int(tail))
