"""Vectorized CLP decoder: encoded columns → original message text.

Inverse of :mod:`clp_core_ray.vec.tokenizer`; mirrors
EncodedVariableInterpreter::decode_variables_into_message
(/root/reference/components/core/src/clp/EncodedVariableInterpreter.cpp:299-367)
but over whole Arrow batches with numpy.

Dictionary variables resolve either inline (``dict_vars`` list column carried
with the row) or via a broadcast dictionary table (var_id → value), matching
CLP's decode-time dictionary lookup (J2 in SURVEY.md §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray import encoding as E
from clp_core_ray.vec.tokenizer import _cumsum0, _string_buffers

# variable kind (VT_*) of each placeholder byte, -1 for every other byte
_KIND = np.full(256, -1, dtype=np.int8)
_KIND[ord(E.PLACEHOLDER_INT)] = E.VT_INT
_KIND[ord(E.PLACEHOLDER_FLOAT)] = E.VT_FLOAT
_KIND[ord(E.PLACEHOLDER_DICT)] = E.VT_DICT


def _list_flat(arr: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """(row offsets int64, flattened values) of a list array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    values = arr.values[offsets[0] : offsets[-1]] if arr.offset else arr.values
    # arr.offsets already accounts for slicing in pyarrow; normalize to 0-based
    return offsets - offsets[0], arr.flatten()


def _active_escapes(data: np.ndarray, row_starts_mask: np.ndarray) -> np.ndarray:
    """Mask of backslashes acting as escapes (odd-run-parity aware).

    In a run of consecutive backslashes, positions 0, 2, 4... are escapes and
    positions 1, 3, ... are the escaped literal characters.
    """
    esc = data == 0x5C
    prev_esc = np.empty(len(data), dtype=bool)
    prev_esc[0] = False
    prev_esc[1:] = esc[:-1]
    prev_esc[row_starts_mask] = False
    run_start = esc & ~prev_esc
    rs_pos = np.flatnonzero(run_start)
    esc_pos = np.flatnonzero(esc)
    if len(esc_pos) == 0:
        return esc
    run_of = np.searchsorted(rs_pos, esc_pos, side="right") - 1
    offset_in_run = esc_pos - rs_pos[run_of]
    active = np.zeros(len(data), dtype=bool)
    active[esc_pos[offset_in_run % 2 == 0]] = True
    return active


def _scan_placeholders(offsets: np.ndarray, data: np.ndarray):
    """The variables of concatenated logtypes (``data``, row byte
    ``offsets``) → (active-escape mask, byte position of each placeholder,
    its kind VT_*): the vectorized :func:`encoding.placeholder_kinds`. A
    placeholder byte after an active escape is literal text."""
    if not len(data):
        return np.zeros(0, bool), np.zeros(0, np.int64), np.zeros(0, np.int8)
    row_starts = np.zeros(len(data), dtype=bool)
    rs = offsets[:-1]
    row_starts[rs[rs < len(data)]] = True
    active_esc = _active_escapes(data, row_starts)
    escaped = np.zeros(len(data), dtype=bool)
    esc_next = np.flatnonzero(active_esc) + 1
    escaped[esc_next[esc_next < len(data)]] = True
    ph_pos = np.flatnonzero((_KIND[data] >= 0) & ~escaped)
    return active_esc, ph_pos, _KIND[data[ph_pos]]


def placeholder_kinds(logtype: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Each row's variable kinds, read from its logtype's placeholder
    bytes → (row offsets into the kinds int64, kinds int8 VT_*)."""
    offsets, data = _string_buffers(logtype)
    _, ph_pos, kinds = _scan_placeholders(offsets, data)
    return np.searchsorted(ph_pos, offsets), kinds


def _render_floats(packed: np.ndarray) -> pa.Array:
    """Decode packed floats → canonical decimal strings (vectorized)."""
    u = packed.view(np.uint64)
    dec_pos = (u & np.uint64(0x0F)).astype(np.int64) + 1
    u2 = u >> np.uint64(4)
    num_digits = (u2 & np.uint64(0x0F)).astype(np.int64) + 1
    u3 = u2 >> np.uint64(4)
    digits = u3 & np.uint64((1 << 54) - 1)
    neg = (u3 >> np.uint64(55)) > 0

    n = len(packed)
    out_len = num_digits + 1 + neg.astype(np.int64)
    out_off = _cumsum0(out_len)
    buf = np.empty(out_off[-1], dtype=np.uint8)
    if n:
        maxd = int(num_digits.max())
        # digit matrix, most significant first, zero padded to num_digits
        col = np.arange(maxd, dtype=np.int64)
        # position from the right within the digit string
        pos_from_right = num_digits[:, None] - 1 - col[None, :]
        valid = pos_from_right >= 0
        pfr = np.where(valid, pos_from_right, 0).astype(np.uint64)
        digm = ((digits[:, None] // (np.uint64(10) ** pfr)) % np.uint64(10)).astype(np.uint8)
        # assemble: [sign] digits-with-dot
        starts = out_off[:-1]
        row = np.repeat(np.arange(n), maxd)
        colf = np.tile(col, n)
        validf = valid.ravel()
        row = row[validf]
        colf = colf[validf]
        # dst index for digit at column c: start + neg + c, +1 if c >= dot_left
        dot_left = num_digits - dec_pos  # index of '.' within digit string
        dst = starts[row] + neg[row].astype(np.int64) + colf + (colf >= dot_left[row])
        buf[dst] = digm.ravel()[validf] + ord("0")
        buf[starts[neg] ] = ord("-")
        buf[starts + neg.astype(np.int64) + dot_left] = ord(".")
    return pa.Array.from_buffers(
        pa.large_string(),
        n,
        [None, pa.py_buffer(out_off.astype(np.int64).tobytes()), pa.py_buffer(buf.tobytes())],
    )


def decode_batch(
    logtype: pa.Array,
    encoded_vars: pa.Array,
    dict_vars: pa.Array | None = None,
    dict_ids: np.ndarray | pa.Array | None = None,
    dict_values: pa.Array | None = None,
) -> pa.Array:
    """Decode a batch → large_string array of original messages. Each
    variable's kind is its placeholder byte in the logtype.

    Provide either ``dict_vars`` (inline list<string> per row) or the broadcast
    dictionary (``dict_ids`` int64 + ``dict_values`` string, aligned).
    """
    offsets, data = _string_buffers(logtype)
    nrows = len(offsets) - 1
    nbytes = len(data)
    if nbytes == 0:
        return pa.array([""] * nrows, type=pa.large_string())

    active_esc, ph_pos, vt = _scan_placeholders(offsets, data)
    _, ev_flat = _list_flat(encoded_vars)
    ev = np.asarray(ev_flat, dtype=np.int64)
    if len(ph_pos) != len(ev):
        raise ValueError(f"placeholder/var count mismatch: {len(ph_pos)} vs {len(ev)}")

    # render each var type → string pieces aligned with placeholder order
    is_int = vt == E.VT_INT
    is_float = vt == E.VT_FLOAT
    is_dict = vt == E.VT_DICT

    piece_len = np.zeros(len(ev), dtype=np.int64)
    int_strs = pc.cast(pa.array(ev[is_int]), pa.large_string()) if is_int.any() else None
    float_strs = _render_floats(ev[is_float]) if is_float.any() else None
    if is_dict.any():
        if dict_vars is not None:
            _, dv_flat = _list_flat(dict_vars)
            dict_strs = dv_flat.cast(pa.large_string())
            if len(dict_strs) != int(is_dict.sum()):
                raise ValueError("inline dict_vars count mismatch")
        else:
            if dict_ids is None or dict_values is None:
                raise ValueError("dict vars present but no dictionary provided")
            ids_np = np.asarray(dict_ids, dtype=np.int64)
            need = ev[is_dict]
            # sortedness via comparison, not np.diff: ids are full-range
            # int64 content hashes, and diff overflows (a drop from +9e18
            # to -9e18 wraps positive), which would fake "sorted"
            if len(ids_np) > 1 and (ids_np[1:] > ids_np[:-1]).all():
                # sorted dictionary → binary search: O(k log n) per batch with
                # no per-call hash-table build (pc.index_in rebuilds a hash of
                # the whole dict every call — ~20ms at 200k entries, which
                # dominates small-batch decode)
                posn = np.searchsorted(ids_np, need)
                posn[posn >= len(ids_np)] = 0
                if len(need) and not np.array_equal(ids_np[posn], need):
                    raise KeyError("var id missing from broadcast dictionary")
                pos = pa.array(posn)
            else:
                pos = pc.index_in(pa.array(need), pa.array(ids_np))
                if pos.null_count:
                    raise KeyError("var id missing from broadcast dictionary")
            dict_strs = pc.take(dict_values, pos).cast(pa.large_string())
    else:
        dict_strs = None

    def _buf(a):
        o, d = _string_buffers(a)
        return o, d

    if int_strs is not None:
        o, _ = _buf(int_strs)
        piece_len[is_int] = np.diff(o)
    if float_strs is not None:
        o, _ = _buf(float_strs)
        piece_len[is_float] = np.diff(o)
    if dict_strs is not None:
        o, _ = _buf(dict_strs)
        piece_len[is_dict] = np.diff(o)

    # output contributions per logtype byte
    contrib = np.ones(nbytes, dtype=np.int64)
    contrib[active_esc] = 0
    contrib[ph_pos] = piece_len
    cs = _cumsum0(contrib)
    out = np.empty(cs[-1], dtype=np.uint8)
    out_pos = cs[:-1]

    copy_mask = ~active_esc
    copy_mask[ph_pos] = False
    out[out_pos[copy_mask]] = data[copy_mask]

    # ragged copy of rendered pieces into their slots
    def _scatter(mask: np.ndarray, strs: pa.Array) -> None:
        o, d = _buf(strs)
        lens = np.diff(o)
        total = int(o[-1])
        if total == 0:
            return
        dst_start = out_pos[ph_pos[mask]]
        src = np.arange(total) - np.repeat(o[:-1], lens)
        out[np.repeat(dst_start, lens) + src] = d[np.repeat(o[:-1], lens) + src]

    if int_strs is not None:
        _scatter(is_int, int_strs)
    if float_strs is not None:
        _scatter(is_float, float_strs)
    if dict_strs is not None:
        _scatter(is_dict, dict_strs)

    out_offsets = cs[offsets]
    return pa.Array.from_buffers(
        pa.large_string(),
        nrows,
        [None, pa.py_buffer(out_offsets.astype(np.int64).tobytes()), pa.py_buffer(out.tobytes())],
    )
