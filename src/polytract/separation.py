"""Counting argument: visit orders outgrow any fixed digest budget.

Over edgeless graphs on n nodes, every numbering realizes a different
visit order (the traversal restarts at the smallest unvisited number), so
n! distinct orders occur. A digest of at most b bits can take at most
2^(b+1) - 1 values, 2^b of them of exactly b bits; once n! exceeds that,
two graphs with different orders must share a digest, so no decider
reading only the digest can answer every order query. The collision is
exhibited concretely for the truncation digest, which keeps the first b
bits of the encoded graph.

Everything here is exact big-integer arithmetic except the fractional
capacity column 2^bound(n), which is compared through logarithms.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import permutations

from .encoding import PolylogBound
from .errors import CapExceeded
from .problems.bds import NumberedGraph, bds_order, graph_to_bytes

ENUMERATION_CAP = 7      # 7! = 5040 numberings; beyond that it drags


def edgeless_orders(n: int):
    """Yield (graph, visit order) for each of the n! numberings of the
    edgeless graph on n nodes."""
    if n > ENUMERATION_CAP:
        raise CapExceeded(
            f"n={n} exceeds the edgeless enumeration cap {ENUMERATION_CAP}")
    for numbering in permutations(range(1, n + 1)):
        g = NumberedGraph(n, numbering, array("q"))
        yield g, bds_order(g)


def realizable_orders(n: int) -> set:
    """Distinct visit orders over the edgeless graphs on n nodes."""
    return {order for _, order in edgeless_orders(n)}


def count_realizable_orders(n: int) -> int:
    return len(realizable_orders(n))


def truncation_digest(data: bytes, bits: int) -> bytes:
    """Keep the first `bits` bits of data (big-endian bit order)."""
    if bits < 0:
        raise ValueError("bit budget must be nonnegative")
    nbytes = (bits + 7) // 8
    chunk = bytearray(data[:nbytes].ljust(nbytes, b"\x00"))
    drop = nbytes * 8 - bits
    if drop and nbytes:
        chunk[-1] &= 0xFF << drop & 0xFF
    return bytes(chunk)


@dataclass(frozen=True)
class CollisionWitness:
    first: NumberedGraph
    second: NumberedGraph
    digest: bytes
    bits: int


def find_truncation_collision(n: int, bits: int) -> CollisionWitness | None:
    """Two edgeless graphs with different orders but equal truncated digests.

    Guaranteed to exist whenever 2^bits < n!; returns None otherwise only
    if the enumeration really found no clash.
    """
    seen: dict[bytes, tuple[NumberedGraph, tuple]] = {}
    for g, order in edgeless_orders(n):
        digest = truncation_digest(graph_to_bytes(g), bits)
        if digest in seen:
            other, other_order = seen[digest]
            if other_order != order:
                return CollisionWitness(other, g, digest, bits)
        else:
            seen[digest] = (g, order)
    return None


def log2_factorial(n: int) -> float:
    return sum(math.log2(i) for i in range(2, n + 1))


@dataclass
class SeparationReport:
    bound: PolylogBound
    rows: list[dict]
    factorial_beats_power_from_4: bool
    collision: CollisionWitness | None

    @property
    def passed(self) -> bool:
        return self.factorial_beats_power_from_4

    def to_dict(self) -> dict:
        d = {
            "bound": self.bound.describe(),
            "rows": self.rows,
            "factorial_beats_2^n_for_n>=4": self.factorial_beats_power_from_4,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.collision is not None:
            d["collision"] = {
                "bits": self.collision.bits,
                "digest": self.collision.digest.hex(),
                "first_numbering": list(self.collision.first.numbering),
                "second_numbering": list(self.collision.second.numbering),
            }
        return d

    def csv_lines(self) -> list[str]:
        header = ("n,factorial,2^n,bound_bits,log2_factorial,"
                  "beats_2^n,beats_bound,realizable")
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r['n']},{r['factorial']},{r['two_pow_n']},{r['bound_bits']:.4f},"
                f"{r['log2_factorial']:.4f},{r['beats_two_pow_n']},"
                f"{r['beats_bound_capacity']},{r['realizable'] if r['realizable'] is not None else ''}"
            )
        return lines


def separation_report(
    n_values,
    bound: PolylogBound,
    enumerate_max: int = 5,
) -> SeparationReport:
    """Tabulate n! against 2^n and against 2^bound(n), with enumeration,
    and exhibit a 6-bit truncation collision at n = 5 (5! = 120 > 2^6).
    n! > 2^n from 4 on holds only if some n >= 4 was checked."""
    rows = []
    from_4 = []
    for n in n_values:
        fact = math.factorial(n)
        two_n = 1 << n
        bound_bits = bound(n)
        lf = log2_factorial(n)
        beats_two_n = fact > two_n
        if n >= 4:
            from_4.append(beats_two_n)
        realizable = None
        if n <= enumerate_max:
            realizable = count_realizable_orders(n)
        rows.append({
            "n": n,
            "factorial": fact,
            "two_pow_n": two_n,
            "bound_bits": round(bound_bits, 6),
            "log2_factorial": round(lf, 6),
            "beats_two_pow_n": beats_two_n,
            "beats_bound_capacity": lf > bound_bits,
            "realizable": realizable,
        })
    return SeparationReport(bound, rows, bool(from_4) and all(from_4),
                            find_truncation_collision(5, 6))
