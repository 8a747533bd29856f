"""Byte-level instance encoding: delimiters, escaping, pairs, size bounds.

An instance is a plain byte string. Two byte values act as structural
delimiters: '#' joins a data part to a query part and '@' joins the two
halves of a packed value. Payload bytes that collide with a delimiter (or
with the escape byte itself) are rewritten with a backslash escape:

    '#'  ->  \\h        '@'  ->  \\a        '\\'  ->  \\\\

The escapes hold no delimiter byte, so every raw '#' or '@' in an
instance is structural, and arbitrary payloads survive a round trip
bit-exactly. Joining two clean payloads therefore costs exactly one extra
byte; each delimiter or escape byte inside a payload costs one more.
"""
from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass

from .errors import MalformedInstance

Instance = bytes

ESCAPE = 0x5C  # '\'


def escape_payload(payload: Instance) -> Instance:
    # Escape byte first or it would re-escape the substitutions.
    return (
        payload.replace(b"\\", b"\\\\").replace(b"#", b"\\h").replace(b"@", b"\\a")
    )


# Swaps '#' and '\': the last decoding pass of unescape_payload.
_SWAP_HASH_ESCAPE = bytes.maketrans(b"#\\", b"\\#")


def unescape_payload(escaped: Instance) -> Instance:
    """Invert escape_payload; rejects raw delimiters and bad escapes.

    A valid escaping is a sequence of tokens: a byte other than '#', '@'
    and '\\', or one of the escapes \\\\, \\h and \\a. The tokens pair
    each run of backslashes from its left end, and so does a left-to-right
    replace of \\\\, so after it every backslash left over opens a \\h or
    \\a escape. A valid escaping holds no raw '#' or '@', which leaves
    both free to stand in during the passes: '#' for a decoded backslash,
    '@' for a decoded '@'. The input is valid iff it holds no raw
    delimiter and every backslash still left after the \\a replace opens a
    \\h; then \\h turns into a lone backslash standing for '#', and one
    translate swaps '#' and '\\' back. An invalid input goes to _reject,
    whose token scan locates the first bad token.
    """
    if b"#" in escaped or b"@" in escaped:
        _reject(escaped)
    if b"\\" not in escaped:
        return escaped
    x = escaped.replace(b"\\\\", b"#").replace(b"\\a", b"@")
    if x.count(b"\\") != x.count(b"\\h"):
        _reject(escaped)
    return x.replace(b"\\h", b"\\").translate(_SWAP_HASH_ESCAPE)


# Longest prefix of well-formed tokens: plain bytes and the three escapes.
_TOKENS = re.compile(rb"(?:[^#@\\]|\\[ha\\])*")


def _reject(escaped: Instance):
    """Raise for the first malformed token of an invalid escaping."""
    at = _TOKENS.match(escaped).end()
    if escaped[at] != ESCAPE:
        raise MalformedInstance(f"unescaped delimiter at offset {at}")
    if at + 1 == len(escaped):
        raise MalformedInstance("dangling escape byte at end of payload")
    raise MalformedInstance(f"unknown escape sequence at offset {at}")


def _split_once(x: Instance, sep: bytes) -> tuple[Instance, Instance]:
    # Escaping leaves no raw delimiter in a payload, so every raw one is
    # structural.
    found = x.count(sep)
    if found != 1:
        raise MalformedInstance(
            f"expected exactly one unescaped '{sep.decode()}', found {found}"
        )
    left, _, right = x.partition(sep)
    return left, right


@dataclass(frozen=True)
class Pair:
    """A data part joined with a query part."""

    data: Instance
    query: Instance


def encode_pair(pair: Pair) -> Instance:
    return escape_payload(pair.data) + b"#" + escape_payload(pair.query)


def decode_pair(x: Instance) -> Pair:
    left, right = _split_once(x, b"#")
    return Pair(unescape_payload(left), unescape_payload(right))


def pack_at(x1: Instance, x2: Instance) -> Instance:
    """Join two instances into one, recoverable with split_packed."""
    return escape_payload(x1) + b"@" + escape_payload(x2)


def split_packed(z: Instance) -> tuple[Instance, Instance]:
    left, right = _split_once(z, b"@")
    return unescape_payload(left), unescape_payload(right)


@dataclass(frozen=True)
class PolylogBound:
    """Finite-scale stand-in for a polylog size bound: a*log2(n)^k + b.

    Sizes below 2 are clamped to 2 before the logarithm so the bound is
    total and monotone. a and b must be finite and nonnegative, k a
    nonnegative int.
    """

    a: float
    k: int
    b: float

    def __post_init__(self):
        # NaN fails the comparison, so it is rejected too.
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValueError("coefficients must be finite and nonnegative")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError("exponent must be a nonnegative integer")

    def __call__(self, n) -> float:
        return self.a * math.log2(max(n, 2)) ** self.k + self.b

    def describe(self) -> str:
        return f"{self.a}*log2(n)^{self.k}+{self.b}"


ZERO_BOUND = PolylogBound(0.0, 0, 0.0)


def parse_bound(text: str) -> PolylogBound:
    """Parse the 'a,k,b' form used on the command line and in config files."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 'a,k,b', got {text!r}")
    return PolylogBound(float(parts[0]), int(parts[1]), float(parts[2]))


def shifted_bound(bound: PolylogBound, pad: int) -> PolylogBound:
    """A bound dominating n -> bound(n + pad), valid once n >= max(pad, 2).

    Uses log2(n + pad) <= log2(2n) = log2(n) + 1 <= 2*log2(n) for n >= 2,
    so inflating the coefficient by 2^k suffices.
    """
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    if pad == 0:
        return bound
    return PolylogBound(bound.a * 2 ** bound.k, bound.k, bound.b)


@dataclass(frozen=True)
class LanguageOfPairs:
    """A set of data/query pairs given by a total membership predicate.

    short_query_bound caps |query| as a function of |data| for members;
    factorization.check_short_query probes it on samples.
    """

    name: str
    membership: Callable[[Instance, Instance], bool]
    short_query_bound: PolylogBound

    def member(self, pair: Pair) -> bool:
        return self.membership(pair.data, pair.query)
