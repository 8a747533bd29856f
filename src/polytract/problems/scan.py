"""Lines of plain decimals, read by json's C scanner.

The text forms decided in bulk, bds graph blocks and cvp circuits once
their kind words are coded, are lines of decimals with single spaces.
read_ints checks such text's layout with one translate and reads all of
its numbers with json's scanner, which is faster than int() over split
tokens. Text it turns down is the caller's to read line by line.
"""
from __future__ import annotations

import json

_DIGITS = b"0123456789"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")
_read_json = json.JSONDecoder().raw_decode


def read_ints(text: bytes, skeleton: bytes) -> list[int] | None:
    """The integers of text, which ends in a newline, when text with its
    digits deleted is exactly skeleton and every field is a decimal as
    json reads one, else None. skeleton holds spaces, newlines and minus
    signs only, so a field is its digits with at most a sign: json then
    turns down an empty field, a leading zero and a field longer than
    int() converts."""
    # A line with no field at all would read as json's empty list.
    if text.translate(None, _DIGITS) != skeleton or text.startswith(b"\n"):
        return None
    try:
        return _read_json("[%s]" % text.translate(_TO_COMMAS)[:-1].decode())[0]
    except ValueError:
        return None
