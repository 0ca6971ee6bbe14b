"""Scalar reference implementation of CLP's core message encoding.

This module is the *ground truth* for the engine: a faithful, pure-Python
re-implementation of the reference's tokenizer + typed-variable encoder
semantics. The vectorized batch kernels in ``clp_core_ray.vec`` are tested for
exact equivalence against these functions.

Semantics re-derived from (citations relative to /root/reference/):
- tokenizer rules: components/core/src/clp/ir/parsing.cpp:20-94,
  ir/parsing.hpp:36-69
- placeholder bytes: components/core/src/clp/ir/types.hpp:11-16
- canonical int form: components/core/src/clp/EncodedVariableInterpreter.cpp:31-68
- 54-bit packed float: EncodedVariableInterpreter.cpp:69-204
- logtype escaping: components/core/src/clp/ir/parsing.inc:12-33,
  LogTypeDictionaryEntry.cpp:35-105
- decode: EncodedVariableInterpreter.cpp:299-367

Design divergence (same observable semantics, retry-safe at scale): dictionary
variable IDs are 64-bit FNV-1a content hashes of the variable string rather
than sequential per-archive integers, so IDs are globally stable without any
cross-partition coordination; the variable "dictionary" is then simply the
distinct (var_id, value) table. CLP itself scopes dictionaries per archive
(VariableDictionaryWriter.cpp:7-37), so a global content-addressed id space is
a strict strengthening.
"""

from __future__ import annotations

from typing import Callable, Iterator

# Variable placeholder bytes (ir/types.hpp:11-16)
PLACEHOLDER_INT = "\x11"
PLACEHOLDER_DICT = "\x12"
PLACEHOLDER_FLOAT = "\x13"
PLACEHOLDER_ESCAPE = "\\"

# variable kind codes, one per placeholder byte (PLACEHOLDER_*)
VT_INT = 0
VT_FLOAT = 1
VT_DICT = 2

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_FLOAT_DIGITS_MASK = (1 << 54) - 1

_ALLOWED = set("+-.0123456789_\\")
_ALLOWED.update(chr(c) for c in range(ord("A"), ord("Z") + 1))
_ALLOWED.update(chr(c) for c in range(ord("a"), ord("z") + 1))

_HEX_CHARS = set("0123456789abcdefABCDEF")
_PLACEHOLDER_KIND = {PLACEHOLDER_INT: VT_INT, PLACEHOLDER_FLOAT: VT_FLOAT,
                     PLACEHOLDER_DICT: VT_DICT}


def placeholder_positions(logtype) -> list[int]:
    """Indexes of the variable placeholders of ``logtype`` (a str or a list
    of its characters). '\\' escapes the next character, so an escaped
    placeholder byte is literal text (parsing.inc:12-33)."""
    out = []
    i = 0
    n = len(logtype)
    while i < n:
        c = logtype[i]
        if c == PLACEHOLDER_ESCAPE:
            i += 2
            continue
        if c in _PLACEHOLDER_KIND:
            out.append(i)
        i += 1
    return out


def placeholder_kinds(logtype: str) -> list[int]:
    """Each variable's kind in order (VT_INT / VT_FLOAT / VT_DICT): the
    logtype's placeholder bytes are the only record of it (ir/types.hpp:11-16)."""
    return [_PLACEHOLDER_KIND[logtype[i]]
            for i in placeholder_positions(logtype)]


def is_delim(c: str) -> bool:
    """Everything except ``+-.0-9A-Z\\_a-z`` is a delimiter (parsing.cpp:20-24)."""
    return c not in _ALLOWED


def could_be_multi_digit_hex_value(s: str) -> bool:
    """parsing.hpp:36-49."""
    return len(s) >= 2 and all(c in _HEX_CHARS for c in s)


def token_bounds(msg: str) -> Iterator[tuple[int, int]]:
    """Yield (begin, end) bounds of each *variable* token (parsing.cpp:43-94).

    A token (maximal run of non-delimiters) is a variable iff it contains a
    decimal digit, or is directly preceded by '=' and contains a letter, or
    could be a multi-digit hex value.
    """
    n = len(msg)
    end = 0
    while end < n:
        begin = end
        while begin < n and is_delim(msg[begin]):
            begin += 1
        if begin == n:
            return
        end = begin
        has_digit = False
        has_alpha = False
        while end < n and not is_delim(msg[end]):
            c = msg[end]
            if "0" <= c <= "9":
                has_digit = True
            elif ("a" <= c <= "z") or ("A" <= c <= "Z"):
                has_alpha = True
            end += 1
        tok = msg[begin:end]
        if (
            has_digit
            or (begin > 0 and msg[begin - 1] == "=" and has_alpha)
            or could_be_multi_digit_hex_value(tok)
        ):
            yield begin, end


def is_var(s: str) -> bool:
    """Whether the entire string is a single variable token (parsing.cpp:32-41)."""
    for b, e in token_bounds(s):
        return b == 0 and e == len(s)
    return False


def encode_int(s: str) -> int | None:
    """Canonical-form int64 parse; None if not representable.

    EncodedVariableInterpreter.cpp:31-68: no leading zeros, no '+' sign, '-'
    must be followed by 1-9, must fit int64.
    """
    n = len(s)
    if n == 0:
        return None
    if s[0] == "-":
        if n < 2 or not ("1" <= s[1] <= "9"):
            return None
        body = s[1:]
    else:
        if not ("0" <= s[0] <= "9"):
            return None
        if n > 1 and s[0] == "0":
            return None
        body = s
    if not body.isdigit() or not body.isascii():
        return None
    v = int(s)
    if v < INT64_MIN or v > INT64_MAX:
        return None
    return v


def encode_float(s: str) -> int | None:
    """Pack a canonical decimal string into CLP's 64-bit float format.

    EncodedVariableInterpreter.cpp:69-149. Layout (MSB→LSB):
    [1b negative][1b unused][54b digits][4b num_digits-1][4b decimal_pos_from_right-1]
    Returns the encoding bit-cast to *signed* int64, or None if unrepresentable.
    """
    if not s:
        return None
    pos = 0
    max_length = 17  # 16 digits + decimal point
    is_negative = False
    if s[0] == "-":
        is_negative = True
        pos = 1
        max_length += 1
    if len(s) > max_length:
        return None
    num_digits = 0
    decimal_point_pos = None
    digits = 0
    for i in range(pos, len(s)):
        c = s[i]
        if "0" <= c <= "9":
            digits = digits * 10 + (ord(c) - 48)
            num_digits += 1
        elif decimal_point_pos is None and c == ".":
            decimal_point_pos = len(s) - 1 - i
        else:
            return None
    if decimal_point_pos is None or decimal_point_pos == 0 or num_digits == 0:
        return None
    if num_digits > 16:
        return None
    enc = 1 if is_negative else 0
    enc <<= 55
    enc |= digits & _FLOAT_DIGITS_MASK
    enc <<= 4
    enc |= (num_digits - 1) & 0x0F
    enc <<= 4
    enc |= (decimal_point_pos - 1) & 0x0F
    return enc - (1 << 64) if enc >= (1 << 63) else enc


def decode_float(encoded: int) -> str:
    """Inverse of :func:`encode_float` (EncodedVariableInterpreter.cpp:151-204)."""
    u = encoded & ((1 << 64) - 1)
    decimal_pos = (u & 0x0F) + 1
    u >>= 4
    num_digits = (u & 0x0F) + 1
    u >>= 4
    digits = u & _FLOAT_DIGITS_MASK
    u >>= 55
    is_negative = u > 0
    digstr = str(digits).rjust(num_digits, "0")
    out = digstr[: num_digits - decimal_pos] + "." + digstr[num_digits - decimal_pos :]
    return "-" + out if is_negative else out


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit content hash, bit-cast to signed int64 (dict var ids)."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h - (1 << 64) if h >= (1 << 63) else h


def _append_escaped(constant: str, out: list[str]) -> None:
    """Escape placeholder/escape bytes in a logtype constant (parsing.inc:12-33)."""
    for c in constant:
        if c == PLACEHOLDER_ESCAPE or c in _PLACEHOLDER_KIND:
            out.append(PLACEHOLDER_ESCAPE)
        out.append(c)


def encode_message(msg: str) -> tuple[str, list[int], list[int], list[str]]:
    """Encode one message → (logtype, encoded_vars, var_types, dict_vars).

    Mirrors EncodedVariableInterpreter::encode_and_add_to_dictionary
    (EncodedVariableInterpreter.cpp:206-228, 432-452) with content-hash dict
    ids. ``encoded_vars[i]`` holds: the int value (VT_INT), the packed float
    (VT_FLOAT), or the FNV-1a hash of the string (VT_DICT); ``dict_vars``
    carries the VT_DICT strings in order.
    """
    logtype: list[str] = []
    encoded_vars: list[int] = []
    var_types: list[int] = []
    dict_vars: list[str] = []
    last_end = 0
    for b, e in token_bounds(msg):
        _append_escaped(msg[last_end:b], logtype)
        tok = msg[b:e]
        iv = encode_int(tok)
        if iv is not None:
            logtype.append(PLACEHOLDER_INT)
            encoded_vars.append(iv)
            var_types.append(VT_INT)
        else:
            fv = encode_float(tok)
            if fv is not None:
                logtype.append(PLACEHOLDER_FLOAT)
                encoded_vars.append(fv)
                var_types.append(VT_FLOAT)
            else:
                logtype.append(PLACEHOLDER_DICT)
                encoded_vars.append(fnv1a64(tok.encode("utf-8")))
                var_types.append(VT_DICT)
                dict_vars.append(tok)
        last_end = e
    _append_escaped(msg[last_end:], logtype)
    return "".join(logtype), encoded_vars, var_types, dict_vars


def decode_message(
    logtype: str,
    encoded_vars: list[int],
    dict_vars: list[str] | None = None,
    dict_lookup: Callable[[int], str] | None = None,
) -> str:
    """Reconstruct the original message (EncodedVariableInterpreter.cpp:299-367).

    Dictionary variables resolve from ``dict_vars`` (inline, in placeholder
    order) or ``dict_lookup(var_id)`` (broadcast dictionary).
    """
    out: list[str] = []
    var_ix = 0
    dict_ix = 0
    i = 0
    n = len(logtype)
    while i < n:
        c = logtype[i]
        if c == PLACEHOLDER_ESCAPE:
            i += 1
            if i < n:
                out.append(logtype[i])
        elif c == PLACEHOLDER_INT:
            out.append(str(encoded_vars[var_ix]))
            var_ix += 1
        elif c == PLACEHOLDER_FLOAT:
            out.append(decode_float(encoded_vars[var_ix]))
            var_ix += 1
        elif c == PLACEHOLDER_DICT:
            if dict_vars is not None:
                out.append(dict_vars[dict_ix])
                dict_ix += 1
            elif dict_lookup is not None:
                out.append(dict_lookup(encoded_vars[var_ix]))
            else:
                raise ValueError("dict var present but no dictionary provided")
            var_ix += 1
        else:
            out.append(c)
        i += 1
    return "".join(out)
