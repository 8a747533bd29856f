"""Reference answers for the benchmark, written from the documented formats.

Nothing here imports polytract. Each function restates one problem from
its specification (the module docstrings of the package and its README),
so a verdict the package gets wrong cannot also be wrong here by sharing
code with it.
"""
from __future__ import annotations

import re


# ------------------------------------------------------------ visit order


def bds_visit_order(numbering, edges) -> list[int]:
    """Breadth-depth visit order of nodes 1..n.

    numbering[i] is the number of node i+1. Start at the smallest number,
    record it; record every unrecorded neighbor of the current node in
    ascending number order and push them so the smallest sits on top; pop
    the next current node (already recorded). Restart at the smallest
    unrecorded number when the stack is empty.
    """
    n = len(numbering)
    number = {node: numbering[node - 1] for node in range(1, n + 1)}
    adjacent = {node: set() for node in range(1, n + 1)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    recorded: dict[int, int] = {}
    pending = sorted(range(1, n + 1), key=number.__getitem__, reverse=True)
    stack: list[int] = []
    while len(recorded) < n:
        if stack:
            current = stack.pop()
        else:
            while pending[-1] in recorded:
                pending.pop()
            current = pending.pop()
            recorded[current] = len(recorded)
        fresh = sorted((w for w in adjacent[current] if w not in recorded),
                       key=number.__getitem__)
        for w in fresh:
            recorded[w] = len(recorded)
        stack.extend(fresh[::-1])
    return list(recorded)


def bds_before(numbering, edges, u: int, v: int) -> bool:
    """Is node u recorded strictly before node v?"""
    order = bds_visit_order(numbering, edges)
    return order.index(u) < order.index(v)


# ------------------------------------------------------ circuit evaluation


def cvp_value(nodes: dict[int, tuple]) -> bool:
    """Value of the single output node; nodes maps id -> (kind, *args)."""
    memo: dict[int, bool] = {}

    def value(node_id: int) -> bool:
        if node_id not in memo:
            kind, *args = nodes[node_id]
            if kind == "input":
                memo[node_id] = bool(args[0])
            elif kind == "not":
                memo[node_id] = not value(args[0])
            elif kind == "and":
                memo[node_id] = value(args[0]) and value(args[1])
            elif kind == "or":
                memo[node_id] = value(args[0]) or value(args[1])
            else:
                memo[node_id] = value(args[0])
        return memo[node_id]

    (out,) = [i for i, node in nodes.items() if node[0] == "output"]
    return value(out)


# ------------------------------------------------------------ word counts


def word_count(text: bytes, word: str) -> int:
    """Occurrences of word among the lowercased whitespace tokens."""
    return sum(1 for token in text.decode("utf-8").split() if token.lower() == word)


def count_at_least(text: bytes, word: str, k: int, lexicon) -> bool:
    return word in lexicon and word_count(text, word) >= k


# --------------------------------------------------------- byte encoding

_ESCAPED = [bytes([b]) for b in range(256)]
_ESCAPED[ord("#")], _ESCAPED[ord("@")], _ESCAPED[ord("\\")] = b"\\h", b"\\a", b"\\\\"
_TOKENS = rb"(?:[^#@\\]|\\[ha\\])*"
_PAIR = re.compile(rb"(%s)#(%s)" % (_TOKENS, _TOKENS))
_PACKED = re.compile(rb"(%s)@(%s)" % (_TOKENS, _TOKENS))


def escape(payload: bytes) -> bytes:
    return b"".join(map(_ESCAPED.__getitem__, payload))


def _unescape(escaped: bytes) -> bytes:
    # In a valid payload every backslash opens a two-byte escape, so
    # splitting on escaped backslashes from the left leaves pieces whose
    # remaining escapes are all \h or \a.
    return b"\\".join(piece.replace(b"\\h", b"#").replace(b"\\a", b"@")
                      for piece in escaped.split(b"\\\\"))


def decode(x: bytes, delimiter: bytes) -> tuple[bytes, bytes] | None:
    """The two payloads joined by delimiter ('#' or '@'), or None if x is
    not exactly two escaped payloads around one raw delimiter."""
    m = (_PAIR if delimiter == b"#" else _PACKED).fullmatch(x)
    if m is None:
        return None
    return _unescape(m.group(1)), _unescape(m.group(2))
