"""CLP IR stream byte format (S3 in SURVEY.md §2.1).

Implements the v0.0.2 log-event IR streams CLP exchanges with logging
libraries — both widths:

- eight-byte encoding: magic ``FD 2F B5 30``; each event = encoded vars
  (tag 0x19 + int64 BE) / dictionary vars (0x11/0x12/0x13 length + bytes)
  interleaved in token order, logtype (0x21/0x22/0x23 length + bytes), then
  timestamp 0x30 + int64 BE epoch millis.
- four-byte encoding: magic ``FD 2F B5 29``; vars tag 0x18 + int32 BE,
  timestamps are deltas vs the previous event (tags 0x31..0x34 by width;
  the first delta is vs the preamble's REFERENCE_TIMESTAMP).

Reference: components/core/src/clp/ffi/ir_stream/protocol_constants.hpp,
encoding_methods.cpp (serialize_log_event/serialize_message/
serialize_timestamp), utils.cpp (serialize_metadata),
decoding_methods.cpp; promotion rules ffi/encoding_methods.hpp:72-76 and
encoding_methods.inc (encode_float_properties bit layouts, four-byte caps:
int32 ints, ≤8-digit floats with digits < 2^25); conformance cases ported
from tests/test-ir_encoding_methods.cpp.

One framer writes the wire format: ``ArchiveIrStage``. An archive row
already holds the eight-byte encoding, so the stage gathers logtype and
dictionary strings by id and frames every event of a batch with numpy
offsets; the four-byte width re-packs the vars that fit 32 bits and demotes
the rest to dictionary vars. Text → IR (``write_ir``) encodes a block with
the archive's vectorized encoder, gives it its own dictionaries
(:func:`batch_dicts`) and frames it through the same stage. IR search
compiles its query against a stream's own dictionaries with the archive's
subquery compiler. ``serialize_ir_stream`` is the scalar reference, one
message at a time, that the framer is tested against. Ray parallelism is
one stream per task (write_ir / read_ir below).
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa

from clp_core_ray import encoding as E

# ---- protocol constants (protocol_constants.hpp) ----------------------------
MAGIC_FOUR = bytes([0xFD, 0x2F, 0xB5, 0x29])
MAGIC_EIGHT = bytes([0xFD, 0x2F, 0xB5, 0x30])
EOF_BYTE = b"\x00"

META_ENCODING_JSON = 0x01
META_LEN_UBYTE = 0x11
META_LEN_USHORT = 0x12

VAR_FOUR = 0x18
VAR_EIGHT = 0x19
VARSTR_UBYTE = 0x11
VARSTR_USHORT = 0x12
VARSTR_INT = 0x13
LOGTYPE_UBYTE = 0x21
LOGTYPE_USHORT = 0x22
LOGTYPE_INT = 0x23
TS_VAL = 0x30
TS_DELTA_BYTE = 0x31
TS_DELTA_SHORT = 0x32
TS_DELTA_INT = 0x33
TS_DELTA_LONG = 0x34
UTC_OFFSET_CHANGE = 0x3F

VERSION_KEY = "VERSION"
BACKWARD_COMPAT_VERSION = "0.0.2"
TS_PATTERN_KEY = "TIMESTAMP_PATTERN"
TS_PATTERN_SYNTAX_KEY = "TIMESTAMP_PATTERN_SYNTAX"
TZ_ID_KEY = "TZ_ID"
REF_TS_KEY = "REFERENCE_TIMESTAMP"
VARIABLES_SCHEMA_ID_KEY = "VARIABLES_SCHEMA_ID"
VARIABLE_ENCODING_METHODS_ID_KEY = "VARIABLE_ENCODING_METHODS_ID"
VARIABLES_SCHEMA_VERSION = "com.yscope.clp.VariablesSchemaV2"
VARIABLE_ENCODING_METHODS_VERSION = "com.yscope.clp.VariableEncodingMethodsV1"

_FOUR_DIGITS_MASK = (1 << 25) - 1


# ---- serialization -----------------------------------------------------------


def _serialize_length(length: int, ubyte: int, ushort: int, as_int: int) -> bytes:
    if length <= 0xFF:
        return struct.pack(">BB", ubyte, length)
    if length <= 0xFFFF:
        return struct.pack(">BH", ushort, length)
    if length <= 0x7FFFFFFF:
        return struct.pack(">Bi", as_int, length)
    raise ValueError(f"length {length} too long for IR encoding")


def serialize_preamble(
    four_byte: bool,
    timestamp_pattern: str = "%Y-%m-%dT%H:%M:%S.%3",
    timestamp_pattern_syntax: str = "",
    time_zone_id: str = "UTC",
    reference_timestamp: int = 0,
    extra_metadata: dict | None = None,
) -> bytes:
    """Magic number + JSON metadata frame (serialize_preamble +
    serialize_metadata, encoding_methods.cpp:110-132,175-198)."""
    meta = {
        VERSION_KEY: BACKWARD_COMPAT_VERSION,
        VARIABLES_SCHEMA_ID_KEY: VARIABLES_SCHEMA_VERSION,
        VARIABLE_ENCODING_METHODS_ID_KEY: VARIABLE_ENCODING_METHODS_VERSION,
        TS_PATTERN_KEY: timestamp_pattern,
        TS_PATTERN_SYNTAX_KEY: timestamp_pattern_syntax,
        TZ_ID_KEY: time_zone_id,
    }
    if four_byte:
        meta[REF_TS_KEY] = str(int(reference_timestamp))
    if extra_metadata:
        meta.update(extra_metadata)
    blob = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode()
    out = [MAGIC_FOUR if four_byte else MAGIC_EIGHT, bytes([META_ENCODING_JSON])]
    n = len(blob)
    if n <= 0xFF:
        out.append(struct.pack(">BB", META_LEN_UBYTE, n))
    elif n <= 0xFFFF:
        out.append(struct.pack(">BH", META_LEN_USHORT, n))
    else:
        raise ValueError("metadata longer than 64 KiB")
    out.append(blob)
    return b"".join(out)


def _encode_int_four(tok: str) -> int | None:
    """encode_integer_string<int32> (encoding_methods.inc:304-338)."""
    v = E.encode_int(tok)
    if v is None or not (-(2**31) <= v <= 2**31 - 1):
        return None
    return v


def _encode_float_four(tok: str) -> int | None:
    """encode_float_string<four_byte> → 32-bit [1|25|3|3] layout
    (encoding_methods.inc encode_float_properties four-byte branch)."""
    neg = tok.startswith("-")
    body = tok[1:] if neg else tok
    if len(body) > 9:  # 8 digits + decimal point
        return None
    if body.count(".") != 1 or body.endswith("."):
        return None
    digs = body.replace(".", "")
    if not digs.isdigit() or len(digs) < 1 or len(digs) > 8:
        return None
    digits = int(digs)
    if digits > _FOUR_DIGITS_MASK:
        return None
    dec_from_right = len(body) - 1 - body.index(".")
    if dec_from_right < 1:
        return None
    enc = (1 << 31) if neg else 0
    enc |= (digits & _FOUR_DIGITS_MASK) << 6
    enc |= ((len(digs) - 1) & 0x7) << 3
    enc |= (dec_from_right - 1) & 0x7
    return enc - (1 << 32) if enc >= (1 << 31) else enc  # as signed int32


def four_byte_float_to_eight(enc4: int) -> int:
    """encode_four_byte_float_as_eight_byte (ffi/encoding_methods.hpp:72-76):
    unpack [1|25|3|3] and repack as [1|1|54|4|4]."""
    u = enc4 & 0xFFFFFFFF
    neg = (u >> 31) & 1
    digits = (u >> 6) & _FOUR_DIGITS_MASK
    num_digits = ((u >> 3) & 0x7) + 1
    dec_pos = (u & 0x7) + 1
    out = (neg << 63) | (digits << 8) | ((num_digits - 1) << 4) | (dec_pos - 1)
    return out - (1 << 64) if out >= (1 << 63) else out


def eight_byte_float_to_four(enc8) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`four_byte_float_to_eight` over an int64 array:
    unpack [1|1|54|4|4] and repack as [1|25|3|3] → (int32 encodings,
    fits). ``fits`` is False where the float breaks a four-byte cap (more
    than 8 digits, or digits >= 2^25); its encoding there is undefined."""
    u = np.asarray(enc8, dtype=np.int64).view(np.uint64)
    digits = (u >> np.uint64(8)) & np.uint64(E._FLOAT_DIGITS_MASK)
    num_digits_m1 = (u >> np.uint64(4)) & np.uint64(0xF)
    fits = (num_digits_m1 < 8) & (digits <= _FOUR_DIGITS_MASK)
    out = (((u >> np.uint64(63)) << np.uint64(31))
           | ((digits & np.uint64(_FOUR_DIGITS_MASK)) << np.uint64(6))
           | ((num_digits_m1 & np.uint64(0x7)) << np.uint64(3))
           | (u & np.uint64(0x7)))
    return out.astype(np.uint32).view(np.int32), fits


def _serialize_dict_var(tok_bytes: bytes) -> bytes:
    return _serialize_length(len(tok_bytes), VARSTR_UBYTE, VARSTR_USHORT, VARSTR_INT) + tok_bytes


def _serialize_logtype(lt_bytes: bytes) -> bytes:
    return _serialize_length(len(lt_bytes), LOGTYPE_UBYTE, LOGTYPE_USHORT, LOGTYPE_INT) + lt_bytes


def _serialize_ts_delta(delta: int) -> bytes:
    if -(2**7) <= delta <= 2**7 - 1:
        return struct.pack(">Bb", TS_DELTA_BYTE, delta)
    if -(2**15) <= delta <= 2**15 - 1:
        return struct.pack(">Bh", TS_DELTA_SHORT, delta)
    if -(2**31) <= delta <= 2**31 - 1:
        return struct.pack(">Bi", TS_DELTA_INT, delta)
    return struct.pack(">Bq", TS_DELTA_LONG, delta)


def serialize_message_eight(message: str) -> bytes:
    """eight_byte_encoding::serialize_message: vars then logtype, no ts
    (also the payload of a KV-IR ClpStr value, utils.hpp
    serialize_clp_string)."""
    logtype, evs, vts, dvs = E.encode_message(message)
    out = []
    di = 0
    for ev, vt in zip(evs, vts):
        if vt == E.VT_DICT:
            out.append(_serialize_dict_var(dvs[di].encode()))
            di += 1
        else:
            out.append(struct.pack(">Bq", VAR_EIGHT, ev))
    out.append(_serialize_logtype(logtype.encode()))
    return b"".join(out)


def serialize_log_event_eight(ts_ms: int, message: str) -> bytes:
    """eight_byte_encoding::serialize_log_event (encoding_methods.cpp:134-171)."""
    return serialize_message_eight(message) + struct.pack(">Bq", TS_VAL, int(ts_ms))


def serialize_message_four(message: str) -> bytes:
    """four_byte_encoding::serialize_message (encoding_methods.cpp:200-258):
    re-classifies each token under the 4-byte caps (int32 ints, ≤8-digit
    floats) — tokens that no longer fit become dictionary vars, changing
    their logtype placeholder (the reference does the same via
    encode_message_generically<four_byte_...>)."""
    out = []
    lt: list[str] = []
    last = 0
    msg = message
    for b, e in E.token_bounds(msg):  # yields variable tokens only
        tok = msg[b:e]
        E._append_escaped(msg[last:b], lt)
        last = e
        enc_f = _encode_float_four(tok)
        if enc_f is not None:
            out.append(struct.pack(">Bi", VAR_FOUR, enc_f))
            lt.append(E.PLACEHOLDER_FLOAT)
            continue
        enc_i = _encode_int_four(tok)
        if enc_i is not None:
            out.append(struct.pack(">Bi", VAR_FOUR, enc_i))
            lt.append(E.PLACEHOLDER_INT)
            continue
        out.append(_serialize_dict_var(tok.encode()))
        lt.append(E.PLACEHOLDER_DICT)
    E._append_escaped(msg[last:], lt)
    out.append(_serialize_logtype("".join(lt).encode()))
    return b"".join(out)


def serialize_log_event_four(ts_delta_ms: int, message: str) -> bytes:
    """four_byte_encoding::serialize_log_event = message + ts delta."""
    return serialize_message_four(message) + _serialize_ts_delta(int(ts_delta_ms))


def serialize_ir_stream(
    ts_ms,
    messages,
    four_byte: bool = True,
    **preamble_kwargs,
) -> bytes:
    """Full stream: preamble + events + EOF byte.

    ``ts_ms``: int64 epoch-millis sequence; ``messages``: str sequence.
    Four-byte streams store timestamp deltas (first delta vs
    REFERENCE_TIMESTAMP = first event's timestamp, LogEventSerializer.cpp).
    """
    ts_ms = [int(t) for t in ts_ms]
    ref = ts_ms[0] if (four_byte and ts_ms) else 0
    out = [serialize_preamble(four_byte, reference_timestamp=ref, **preamble_kwargs)]
    prev = ref
    for t, m in zip(ts_ms, messages):
        if four_byte:
            out.append(serialize_log_event_four(t - prev, m))
            prev = t
        else:
            out.append(serialize_log_event_eight(t, m))
    out.append(EOF_BYTE)
    return b"".join(out)


# ---- archive columns → IR ----------------------------------------------------

#: Big-endian widths of a length prefix (``_serialize_length``) and of a
#: timestamp delta (``_serialize_ts_delta``), narrowest first.
_LENGTH_WIDTHS = (">u1", ">u2", ">i4")
_DELTA_WIDTHS = (">i1", ">i2", ">i4", ">i8")
_VARSTR_TAGS = (VARSTR_UBYTE, VARSTR_USHORT, VARSTR_INT)
_LOGTYPE_TAGS = (LOGTYPE_UBYTE, LOGTYPE_USHORT, LOGTYPE_INT)
_DELTA_TAGS = (TS_DELTA_BYTE, TS_DELTA_SHORT, TS_DELTA_INT, TS_DELTA_LONG)


def _ragged_copy(out: np.ndarray, dst: np.ndarray, src: np.ndarray,
                 src_start: np.ndarray, lens: np.ndarray) -> None:
    """out[dst[i]:dst[i]+lens[i]] = src[src_start[i]:…+lens[i]] for all i."""
    from clp_core_ray.vec.tokenizer import _cumsum0

    total = int(lens.sum())
    if not total:
        return
    rel = np.arange(total, dtype=np.int64) - np.repeat(
        _cumsum0(lens, np.int64)[:-1], lens)
    out[np.repeat(dst, lens) + rel] = src[np.repeat(src_start, lens) + rel]


class _WireItems:
    """The wire items of a batch of events, in stream order: each a
    header (a tag, then a big-endian value or length, at most 9 bytes) and
    a payload (a byte range of a source buffer, maybe empty)."""

    def __init__(self, n: int):
        self.hdr = np.zeros((n, 9), dtype=np.uint8)
        self.hlen = np.zeros(n, dtype=np.int64)
        self.plen = np.zeros(n, dtype=np.int64)
        self.payloads = []  # (items, source buffer, source starts)

    def put_value(self, items, tag: int, values: np.ndarray, dtype: str):
        width = np.dtype(dtype).itemsize
        self.hdr[items, 0] = tag
        self.hdr[items, 1:1 + width] = np.ascontiguousarray(
            values.astype(dtype)).view(np.uint8).reshape(len(values), width)
        self.hlen[items] = 1 + width

    def put_tagged(self, items, values: np.ndarray, tags, widths):
        """Each value behind the first tag whose width holds it."""
        left = np.ones(len(values), dtype=bool)
        for tag, dt in zip(tags, widths):
            info = np.iinfo(np.dtype(dt))
            m = left & (values >= info.min) & (values <= info.max)
            self.put_value(items[m], tag, values[m], dt)
            left &= ~m
        if left.any():
            raise ValueError("value too large for IR encoding")

    def put_strings(self, items, off: np.ndarray, data: np.ndarray,
                    pos: np.ndarray, tags):
        """Length-tagged strings ``pos`` of the (offsets, data) buffers."""
        lens = off[pos + 1] - off[pos]
        self.put_tagged(items, lens, tags, _LENGTH_WIDTHS)
        self.plen[items] = lens
        self.payloads.append((items, data, off[pos]))

    def starts(self) -> np.ndarray:
        from clp_core_ray.vec.tokenizer import _cumsum0

        return _cumsum0(self.hlen + self.plen, np.int64)

    def frame(self, start: np.ndarray) -> np.ndarray:
        """Every item's header then payload, back to back."""
        body = np.empty(int(start[-1]), dtype=np.uint8)
        col = np.arange(self.hdr.shape[1])
        m = col[None, :] < self.hlen[:, None]
        body[(start[:-1, None] + col[None, :])[m]] = self.hdr[m]
        for items, data, src in self.payloads:
            _ragged_copy(body, start[items] + self.hlen[items], data, src,
                         self.plen[items])
        return body


def _chunk_cuts(est: np.ndarray, target_bytes: int | None) -> list[int]:
    """Event indexes splitting a block into ~``target_bytes`` streams by
    the per-event sizes ``est``: [0, …, len(est)]."""
    cuts = [0, len(est)]
    if target_bytes and len(est):
        cum = np.cumsum(est)
        n_chunks = max(1, int(np.ceil(cum[-1] / target_bytes)))
        if n_chunks > 1:
            marks = np.arange(1, n_chunks) * (cum[-1] / n_chunks)
            inner = np.unique(np.searchsorted(cum, marks, side="left") + 1)
            cuts = [0, *[int(i) for i in inner if 0 < i < len(est)], len(est)]
    return cuts


def _ts_ms(ts) -> np.ndarray:
    """A timestamp or int64-ms column → int64 epoch millis (CLP timestamps
    are epoch millis; finer resolutions truncate)."""
    import pyarrow.compute as pc

    if pa.types.is_timestamp(ts.type):
        ts = pc.cast(pc.cast(ts, pa.timestamp("ms"), safe=False), pa.int64())
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    return np.asarray(ts, dtype=np.int64)


def batch_dicts(logtype, dict_vars):
    """A batch's own dictionaries, from its encoded ``logtype`` and
    ``dict_vars`` columns → ``decompress.ArchiveDicts``: the distinct
    logtypes under their ``stages.encode.logtype_ids`` and the distinct
    dictionary values under the same FNV-1a 64 ids, each side sorted by
    id as ``load_dicts`` returns an archive's. Two values sharing an id
    raise ``ValueError``, as the archive finalize does."""
    import pyarrow.compute as pc

    from clp_core_ray.pipelines.decompress import ArchiveDicts
    from clp_core_ray.stages.encode import logtype_ids

    def side(values):
        values = pc.unique(values)
        ids = np.asarray(logtype_ids(values), dtype=np.int64)
        order = np.argsort(ids)
        if (np.diff(ids[order]) == 0).any():
            raise ValueError("dictionary id collision (FNV-1a 64)")
        return ids[order], values.take(pa.array(order))

    lt_ids, lt_values = side(logtype)
    var_ids, var_values = side(pc.list_flatten(dict_vars))
    return ArchiveDicts(lt_ids, lt_values, var_ids, var_values, None, None,
                        [], lt_values.nbytes + var_values.nbytes)


class ArchiveIrStage:
    """Archive rows → IR streams, straight from the encoded columns
    (``logtype_id``, ``encoded_vars``, ``ts``): no text decode, no
    re-tokenize. Each var's kind is its placeholder in the template.

    The eight-byte event is the archive encoding on the wire: ``0x19`` +
    int64 per encoded var, the dictionary vars' strings and the logtype,
    each length-tagged, then ``0x30`` + the timestamp. The four-byte event
    re-packs the vars that fit 32 bits (ints in int32, floats of at most 8
    digits below 2^25) as ``0x18`` + int32 and demotes every other int or
    float to a dictionary var holding its decoded text; the logtype's
    placeholder byte of a demoted var becomes the dictionary placeholder,
    rewritten once per distinct (logtype, demotion mask). Timestamps are
    deltas, as ``serialize_ir_stream`` writes them. The streams are byte
    for byte those of ``serialize_ir_stream`` over the decoded text.

    ``dicts`` is the ``load_dicts`` result when the stage runs in the
    calling process, or a ref to it inside a Ray task, as for
    ``ArchiveDecodeStage``. Called on a batch, the stage writes its events
    as one stream (or ~``target_bytes`` streams) under ``out_dir`` and
    returns their (path, n_events) rows.
    """

    def __init__(self, dicts, out_dir: str, four_byte: bool = True,
                 target_bytes: int | None = None):
        self.dicts = dicts
        self.out_dir = out_dir
        self.four_byte = four_byte
        self.target_bytes = target_bytes
        self._loaded = False

    def _load(self):
        from clp_core_ray.pipelines.decompress import resolve
        from clp_core_ray.vec.decoder import placeholder_kinds
        from clp_core_ray.vec.tokenizer import _string_buffers

        self.dicts = resolve(self.dicts)
        self.lt_off, self.lt_data = _string_buffers(self.dicts.lt_values)
        self.kind_off, self.kinds = placeholder_kinds(self.dicts.lt_values)
        self.var_off, self.var_data = _string_buffers(self.dicts.var_values)
        self._loaded = True

    def streams(self, batch: pa.Table) -> list[tuple[bytes, int]]:
        """The batch's events as (stream bytes, n_events) chunks."""
        from clp_core_ray.pipelines.decompress import lookup
        from clp_core_ray.vec.decoder import _list_flat

        n = batch.num_rows
        if n == 0:
            return [(serialize_ir_stream([], [], self.four_byte), 0)]
        if not self._loaded:
            self._load()
        ts = _ts_ms(batch.column("ts"))
        d = self.dicts
        lt_pos = lookup(d.lt_ids, batch.column("logtype_id"), "logtype")
        var_off, ev_arr = _list_flat(batch.column("encoded_vars"))
        ev = np.asarray(ev_arr, dtype=np.int64)
        nv = np.diff(var_off)
        # each var's kind: its placeholder in the row's template
        if not np.array_equal(np.diff(self.kind_off)[lt_pos], nv):
            raise ValueError("placeholder/var count mismatch")
        vt = np.empty(len(ev), dtype=np.int8)
        _ragged_copy(vt, var_off[:-1], self.kinds, self.kind_off[lt_pos], nv)

        # wire items in event order: each var, the logtype, the timestamp
        rows = np.arange(n, dtype=np.int64)
        var_item = np.arange(len(ev), dtype=np.int64) + 2 * np.repeat(rows, nv)
        lt_item = var_off[1:] + 2 * rows
        ts_item = lt_item + 1
        first_item = lt_item - nv
        items = _WireItems(len(ev) + 2 * n)
        is_dict = vt == E.VT_DICT
        items.put_strings(var_item[is_dict], self.var_off, self.var_data,
                          lookup(d.var_ids, ev[is_dict], "var"),
                          _VARSTR_TAGS)
        if self.four_byte:
            self._four_byte_items(items, ev, vt, var_item, lt_item, var_off,
                                  lt_pos)
            deltas = np.r_[0, np.diff(ts)]
            items.put_tagged(ts_item, deltas, _DELTA_TAGS, _DELTA_WIDTHS)
        else:
            items.put_value(var_item[~is_dict], VAR_EIGHT, ev[~is_dict], ">i8")
            items.put_strings(lt_item, self.lt_off, self.lt_data, lt_pos,
                              _LOGTYPE_TAGS)
            items.put_value(ts_item, TS_VAL, ts, ">i8")

        event_bounds = np.r_[first_item, len(var_item) + 2 * n]
        start = items.starts()
        cuts = _chunk_cuts(np.diff(start[event_bounds]), self.target_bytes)
        if self.four_byte and len(cuts) > 2:
            # a chunk's first delta is 0: its reference timestamp is its
            # own first event's
            heads = np.asarray(cuts[1:-1])
            items.put_tagged(ts_item[heads], np.zeros(len(heads), np.int64),
                             _DELTA_TAGS, _DELTA_WIDTHS)
            start = items.starts()
        body = items.frame(start)
        ev_start = start[event_bounds]
        out = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            ref = int(ts[lo]) if self.four_byte else 0
            out.append((serialize_preamble(self.four_byte,
                                           reference_timestamp=ref)
                        + body[ev_start[lo]:ev_start[hi]].tobytes()
                        + EOF_BYTE, hi - lo))
        return out

    def _four_byte_items(self, items: _WireItems, ev, vt, var_item, lt_item,
                         var_off, lt_pos):
        """Four-byte var and logtype items: vars that fit 32 bits as
        ``0x18`` + int32, the other ints and floats demoted to dictionary
        vars of their decoded text, and each logtype with a demotion
        rewritten."""
        from clp_core_ray.vec.decoder import _render_floats
        from clp_core_ray.vec.tokenizer import _string_buffers

        is_int = vt == E.VT_INT
        is_float = vt == E.VT_FLOAT
        enc4 = np.zeros(len(ev), dtype=np.int32)
        fits = is_int & (ev >= -(2**31)) & (ev <= 2**31 - 1)
        enc4[fits] = ev[fits]
        enc4[is_float], fits[is_float] = eight_byte_float_to_four(ev[is_float])
        items.put_value(var_item[fits], VAR_FOUR, enc4[fits], ">i4")

        dem_int = np.flatnonzero(is_int & ~fits)
        dem_float = np.flatnonzero(is_float & ~fits)
        demoted = np.concatenate([dem_int, dem_float])
        if len(demoted):
            d_off, d_data = _string_buffers(pa.concat_arrays([
                pa.array(ev[dem_int]).cast(pa.large_string()),
                _render_floats(ev[dem_float])]))
            items.put_strings(var_item[demoted], d_off, d_data,
                              np.arange(len(demoted), dtype=np.int64),
                              _VARSTR_TAGS)

        dem_row = np.zeros(len(lt_item), dtype=bool)
        dem_row[np.searchsorted(var_off, demoted, side="right") - 1] = True
        plain = np.flatnonzero(~dem_row)
        items.put_strings(lt_item[plain], self.lt_off, self.lt_data,
                          lt_pos[plain], _LOGTYPE_TAGS)
        rows = np.flatnonzero(dem_row)
        if len(rows):
            r_off, r_data, r_pos = self._demoted_logtypes(
                rows, lt_pos, var_off, demoted)
            items.put_strings(lt_item[rows], r_off, r_data, r_pos,
                              _LOGTYPE_TAGS)

    def _demoted_logtypes(self, rows, lt_pos, var_off, demoted):
        """(offsets, data, per-row position) of the rewritten logtypes of
        ``rows``: the placeholder of each demoted var becomes
        PLACEHOLDER_DICT, once per distinct (logtype, demotion mask)."""
        import pyarrow.compute as pc

        from clp_core_ray.vec.tokenizer import _cumsum0, _string_buffers

        # key per row: its logtype position, then one mask byte per var
        mask = np.zeros(int(var_off[-1]), dtype=np.uint8)
        mask[demoted] = 1
        nv = var_off[rows + 1] - var_off[rows]
        key_off = _cumsum0(nv + 8, np.int64)
        key = np.empty(int(key_off[-1]), dtype=np.uint8)
        key[(key_off[:-1, None] + np.arange(8)).ravel()] = \
            lt_pos[rows].astype("<i8").view(np.uint8)
        _ragged_copy(key, key_off[:-1] + 8, mask, var_off[rows], nv)
        keys = pa.Array.from_buffers(
            pa.large_binary(), len(rows),
            [None, pa.py_buffer(key_off.tobytes()), pa.py_buffer(key)])
        enc = pc.dictionary_encode(keys)
        rewritten = []
        for k in enc.dictionary.to_pylist():
            at = int(np.frombuffer(k[:8], "<i8")[0])
            lt = list(self.lt_data[self.lt_off[at]:self.lt_off[at + 1]]
                      .tobytes().decode())
            for i, m in zip(E.placeholder_positions(lt), k[8:]):
                if m:
                    lt[i] = E.PLACEHOLDER_DICT
            rewritten.append("".join(lt))
        r_off, r_data = _string_buffers(pa.array(rewritten,
                                                 type=pa.large_string()))
        return r_off, r_data, np.asarray(enc.indices, dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from clp_core_ray.state.atomic import atomic_write_bytes

        paths, events = [], []
        for blob, n in self.streams(batch):
            # content-named atomic write: a retried task re-serializes the
            # same events → same name, overwrites instead of duplicating
            paths.append(atomic_write_bytes(blob, self.out_dir,
                                            prefix="events", suffix=".clp.ir"))
            events.append(n)
        return pa.table({"path": pa.array(paths),
                         "n_events": pa.array(events, type=pa.int64())})


# ---- deserialization ---------------------------------------------------------


class IrCorrupted(ValueError):
    pass


class IrIncomplete(ValueError):
    pass


class _Reader:
    __slots__ = ("mv", "pos")

    def __init__(self, data: bytes):
        self.mv = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.mv):
            raise IrIncomplete(f"need {n} bytes at {self.pos}, have {len(self.mv)}")
        out = self.mv[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]


def deserialize_preamble(r: _Reader) -> tuple[bool, dict]:
    """→ (four_byte, metadata). get_encoding_type + deserialize_preamble
    (decoding_methods.cpp)."""
    magic = bytes(r.take(4))
    if magic == MAGIC_FOUR:
        four = True
    elif magic == MAGIC_EIGHT:
        four = False
    else:
        raise IrCorrupted(f"bad magic number {magic.hex()}")
    mtype = r.u8()
    if mtype != META_ENCODING_JSON:
        raise IrCorrupted(f"unsupported metadata encoding 0x{mtype:02x}")
    ltag = r.u8()
    if ltag == META_LEN_UBYTE:
        n = r.u8()
    elif ltag == META_LEN_USHORT:
        n = r.unpack(">H")
    else:
        raise IrCorrupted(f"bad metadata length tag 0x{ltag:02x}")
    meta = json.loads(bytes(r.take(n)).decode())
    return four, meta


def deserialize_ir_stream(data: bytes) -> tuple[dict, pa.Table]:
    """Stream bytes → (metadata, encoded events table).

    The table uses the archive representation (logtype:large_string with
    placeholders, encoded_vars:list<int64> promoted to eight-byte,
    dict_vars:list<string>, ts:int64 epoch ms) — i.e.
    exactly what vec.decoder.decode_batch consumes, so text reconstruction
    stays vectorized."""
    r = _Reader(data)
    four, meta = deserialize_preamble(r)
    prev_ts = int(meta.get(REF_TS_KEY, "0")) if four else 0

    logtypes: list[str] = []
    ts_out: list[int] = []
    row_evs: list[list[int]] = []
    row_vts: list[list[int]] = []
    row_dvs: list[list[str]] = []

    evs: list[int] = []
    vts: list[int] = []
    dvs: list[str] = []
    pending_logtype: str | None = None

    def finish_event(ts_val: int):
        nonlocal evs, vts, dvs, pending_logtype
        if pending_logtype is None:
            raise IrCorrupted("timestamp before logtype")
        logtypes.append(pending_logtype)
        ts_out.append(ts_val)
        row_evs.append(evs)
        row_vts.append(vts)
        row_dvs.append(dvs)
        evs, vts, dvs = [], [], []
        pending_logtype = None

    while True:
        tag = r.u8()
        if tag == 0x00:  # Eof
            break
        if tag == VAR_EIGHT:
            if four:
                raise IrCorrupted("eight-byte var in four-byte stream")
            evs.append(r.unpack(">q"))
            vts.append(-1)  # resolved by the logtype placeholder below
        elif tag == VAR_FOUR:
            if not four:
                raise IrCorrupted("four-byte var in eight-byte stream")
            evs.append(r.unpack(">i"))
            vts.append(-4)
        elif tag in (VARSTR_UBYTE, VARSTR_USHORT, VARSTR_INT):
            n = (r.u8() if tag == VARSTR_UBYTE
                 else r.unpack(">H") if tag == VARSTR_USHORT
                 else r.unpack(">i"))
            dvs.append(bytes(r.take(n)).decode())
            evs.append(0)  # slot; filled with hash id below
            vts.append(E.VT_DICT)
        elif tag in (LOGTYPE_UBYTE, LOGTYPE_USHORT, LOGTYPE_INT):
            n = (r.u8() if tag == LOGTYPE_UBYTE
                 else r.unpack(">H") if tag == LOGTYPE_USHORT
                 else r.unpack(">i"))
            pending_logtype = bytes(r.take(n)).decode()
        elif tag == TS_VAL:
            if four:
                raise IrCorrupted("absolute timestamp in four-byte stream")
            finish_event(r.unpack(">q"))
        elif tag in (TS_DELTA_BYTE, TS_DELTA_SHORT, TS_DELTA_INT, TS_DELTA_LONG):
            if not four:
                raise IrCorrupted("delta timestamp in eight-byte stream")
            d = (r.unpack(">b") if tag == TS_DELTA_BYTE
                 else r.unpack(">h") if tag == TS_DELTA_SHORT
                 else r.unpack(">i") if tag == TS_DELTA_INT
                 else r.unpack(">q"))
            prev_ts += d
            finish_event(prev_ts)
        elif tag == UTC_OFFSET_CHANGE:
            r.unpack(">q")  # recorded but unused here
        else:
            raise IrCorrupted(f"unknown tag 0x{tag:02x} at {r.pos - 1}")

    # the logtype placeholders give each var its kind (the wire doesn't
    # distinguish int/float tags): check the dict vars against them and
    # promote four-byte floats to the eight-byte archive representation
    for i, lt in enumerate(logtypes):
        kinds = E.placeholder_kinds(lt)
        ev, vt, dv = row_evs[i], row_vts[i], row_dvs[i]
        if len(kinds) != len(ev):
            raise IrCorrupted(
                f"event {i}: {len(ev)} vars on the wire, {len(kinds)} placeholders"
            )
        di = 0
        for j, k in enumerate(kinds):
            if k == E.VT_DICT:
                if vt[j] != E.VT_DICT:
                    raise IrCorrupted(f"event {i}: var {j} should be a dict var")
                ev[j] = E.fnv1a64(dv[di].encode())
                di += 1
            elif k == E.VT_FLOAT and vt[j] == -4:
                ev[j] = four_byte_float_to_eight(ev[j])
        if di != len(dv):
            raise IrCorrupted(f"event {i}: unconsumed dictionary vars")

    return meta, _events_table(ts_out, logtypes, row_evs, row_dvs)


def _events_table(ts, logtypes, evs, dvs) -> pa.Table:
    """Per-event lists → the events table of :func:`deserialize_ir_stream`."""
    return pa.table({"ts": pa.array(ts, pa.int64()),
                     "logtype": pa.array(logtypes, pa.large_string()),
                     "encoded_vars": pa.array(evs, pa.list_(pa.int64())),
                     "dict_vars": pa.array(dvs, pa.list_(pa.string()))})


#: The typed 0-row (ts, text) table of the IR readers and searches.
EMPTY_TEXT = pa.schema([("ts", pa.int64()),
                        ("text", pa.large_string())]).empty_table()


def decode_ir_stream_to_text(data: bytes) -> pa.Table:
    """Stream bytes → (ts:int64 ms, text) via the vectorized decoder."""
    from clp_core_ray.vec.decoder import decode_batch

    meta, tbl = deserialize_ir_stream(data)
    if len(tbl) == 0:
        return EMPTY_TEXT
    text = decode_batch(tbl.column("logtype"), tbl.column("encoded_vars"),
                        dict_vars=tbl.column("dict_vars"))
    return pa.table({"ts": tbl.column("ts"), "text": text})


def _promote_demoted(tbl: pa.Table) -> pa.Table:
    """Deserialized events in the archive's eight-byte encoding: each
    dictionary var whose text the archive encodes as an int or a float (a
    var the four-byte width demoted) is that encoded var again, and its
    logtype placeholder with it. Otherwise a query's precise number would
    compile to an int or float placeholder and miss the demoted events."""
    import pyarrow.compute as pc

    from clp_core_ray.vec.tokenizer import encode_batch

    dv = tbl.column("dict_vars").combine_chunks()
    own = encode_batch(dv.flatten())  # each value as a message of its own
    numeric = (E.PLACEHOLDER_INT, E.PLACEHOLDER_FLOAT)
    promo = np.flatnonzero(np.asarray(pc.is_in(
        own["logtype"], value_set=pa.array(numeric, pa.large_string())),
        dtype=bool))
    if not len(promo):
        return tbl
    off = np.asarray(dv.offsets, dtype=np.int64)
    off -= off[0]
    lts = tbl.column("logtype").to_pylist()
    evs = tbl.column("encoded_vars").to_pylist()
    dvs = dv.to_pylist()
    own_lt = own["logtype"].to_pylist()
    own_ev = own["encoded_vars"].to_pylist()
    for i in np.unique(np.searchsorted(off, promo, side="right") - 1).tolist():
        lt, k, kept = list(lts[i]), int(off[i]), []
        for j, p in enumerate(E.placeholder_positions(lt)):
            if lt[p] != E.PLACEHOLDER_DICT:
                continue
            if own_lt[k] in numeric:
                lt[p], evs[i][j] = own_lt[k], own_ev[k][0]
            else:
                kept.append(dvs[i][k - off[i]])
            k += 1
        lts[i], dvs[i] = "".join(lt), kept
    return _events_table(tbl.column("ts"), lts, evs, dvs)


def search_ir_stream(data: bytes, query: str, ignore_case: bool = False,
                     ts_min: int | None = None,
                     ts_max: int | None = None) -> pa.Table:
    """Two-phase wildcard search over ONE IR stream → (ts, text) hits.

    The clo-over-IR search shape (the package searches IR chunks before they
    are archived): the stream's distinct logtypes and dictionary vars are
    its dictionaries (:func:`batch_dicts`), and the query compiles against
    them through the archive's subquery compiler (``grep.compile_query``).
    As in an archive scan, only the rows some subquery can match decode
    and wildcard-verify, and a dictionary miss returns before any decode.
    ``ts_min``/``ts_max`` (epoch ms, inclusive) pre-filter rows before any
    decode."""
    import pyarrow.compute as pc

    from clp_core_ray.pipelines.grep import compile_query
    from clp_core_ray.pipelines.search import _subquery_mask, wildcard_to_regex
    from clp_core_ray.stages.encode import logtype_ids
    from clp_core_ray.vec.decoder import decode_batch

    _, tbl = deserialize_ir_stream(data)
    if ts_min is not None:
        tbl = tbl.filter(pc.greater_equal(tbl.column("ts"), ts_min))
    if ts_max is not None:
        tbl = tbl.filter(pc.less_equal(tbl.column("ts"), ts_max))
    if len(tbl) == 0:
        return EMPTY_TEXT
    tbl = _promote_demoted(tbl)
    d = batch_dicts(tbl.column("logtype"), tbl.column("dict_vars"))
    cq = compile_query(query, d.lt_ids, d.lt_values, var_ids=d.var_ids,
                       var_values=d.var_values, ignore_case=ignore_case)
    if not cq.match_all and not cq.subqueries:
        return EMPTY_TEXT  # dictionary miss
    tbl = tbl.append_column("logtype_id", logtype_ids(tbl.column("logtype")))
    tbl = tbl.filter(pa.array(_subquery_mask(tbl, cq)))
    text = decode_batch(tbl.column("logtype"), tbl.column("encoded_vars"),
                        dict_vars=tbl.column("dict_vars"))
    rx = wildcard_to_regex(cq.processed)
    hit = pc.match_substring_regex(text, "(?i)" + rx if ignore_case else rx)
    return pa.table({"ts": tbl.column("ts").combine_chunks(),
                     "text": text}).filter(hit)


def search_ir(paths, query: str, ignore_case: bool = False,
              ts_min: int | None = None, ts_max: int | None = None):
    """Wildcard search across IR stream files → Dataset[(ts, text)].

    Each file compiles the query against its own dictionaries before
    decoding (:func:`search_ir_stream`; S3 source + §2.11 search
    semantics, no archive required)."""
    return _map_ir_files(paths, lambda _p, data: search_ir_stream(
        data, query, ignore_case, ts_min, ts_max))


# ---- Ray integration ---------------------------------------------------------


def _ir_files(paths) -> list[str]:
    """``paths`` itself, or, given a directory, its ``.clp.ir`` files
    sorted."""
    import os

    if not isinstance(paths, str):
        return list(paths)
    return [os.path.join(paths, f) for f in sorted(os.listdir(paths))
            if f.endswith(".clp.ir")]


def _map_ir_files(paths, per_file):
    """Dataset of the tables ``per_file(path, stream bytes)`` gives for the
    IR stream files ``paths`` (see :func:`_ir_files`), read in Ray tasks."""
    import ray.data as rd

    def read(batch: pa.Table) -> pa.Table:
        tbls = []
        for p in batch.column("path").to_pylist():
            with open(p, "rb") as f:
                tbls.append(per_file(p, f.read()))
        return pa.concat_tables(tbls) if tbls else EMPTY_TEXT

    return rd.from_items([{"path": p} for p in _ir_files(paths)]).map_batches(
        read, batch_format="pyarrow")


def ir_block_writer(out_dir: str, four_byte: bool = True, ts_col: str = "ts",
                    text_col: str = "text", target_bytes: int | None = None,
                    _test_crash_marker: str | None = None):
    """The per-block writer of :func:`write_ir`: a callable that writes one
    block (a table with ``ts_col`` and ``text_col``) to IR stream file(s)
    under ``out_dir`` and returns their (path, n_events) rows. The block is
    encoded by the archive's encoder, given its own dictionaries
    (:func:`batch_dicts`) and framed by :class:`ArchiveIrStage`."""
    import os

    from clp_core_ray.stages.encode import logtype_ids
    from clp_core_ray.vec.tokenizer import encode_batch

    def write_block(batch: pa.Table) -> pa.Table:
        enc = encode_batch(batch.column(text_col))
        stage = ArchiveIrStage(batch_dicts(enc["logtype"], enc["dict_vars"]),
                               out_dir, four_byte, target_bytes)
        events = pa.table({"ts": batch.column(ts_col),
                           "logtype_id": logtype_ids(enc["logtype"]),
                           "encoded_vars": enc["encoded_vars"]})
        if _test_crash_marker and not os.path.exists(_test_crash_marker):
            # failure injection (tests only): die mid-write on the first
            # chunk, leaving a torn .inprogress tmp — Ray retries the
            # task; the content-named rename must make the retry exact
            blob = stage.streams(events)[0][0]
            fd = os.open(_test_crash_marker, os.O_CREAT | os.O_WRONLY)
            os.close(fd)
            with open(os.path.join(
                    out_dir, f"events-dead.{os.getpid()}.inprogress"),
                    "wb") as f:
                f.write(blob[: max(1, len(blob) // 2)])
            os._exit(1)
        return stage(events)

    return write_block


def write_ir(ds, out_dir: str, four_byte: bool = True, ts_col: str = "ts",
             text_col: str = "text",
             target_bytes: int | None = None,
             _test_crash_marker: str | None = None) -> list[str]:
    """Dataset → IR stream files under out_dir (K8 analogue).

    One file per block by default; ``target_bytes`` (clo's
    ``--ir-target-size``, default 128 MiB at
    clo/CommandLineArguments.hpp:187) additionally splits each block into
    ~target-sized streams at event granularity (split points from the
    events' framed sizes — each chunk is a self-contained stream with its
    own preamble/EOF, so size parity is approximate exactly like the
    reference's roll-after-crossing check).
    Returns the written paths (accounting is collected via the small
    per-block result table). ``ts_col`` may be a timestamp or int64-ms
    column."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_block = ir_block_writer(out_dir, four_byte, ts_col, text_col,
                                  target_bytes, _test_crash_marker)
    acct = ds.map_batches(write_block, batch_format="pyarrow").to_pandas()
    # job complete: sweep dead attempts' .inprogress tmps (readers filter on
    # the .clp.ir extension anyway)
    from clp_core_ray.pipelines.compress import sweep_inprogress

    sweep_inprogress(out_dir)
    return sorted(acct["path"].tolist())


def read_ir(paths) -> "object":
    """IR stream files → Dataset[(ts:int64 ms, text)] (S3 source)."""
    return _map_ir_files(paths,
                         lambda _p, data: decode_ir_stream_to_text(data))


def compress_from_ir(paths, out_dir: str, four_byte_hint: bool | None = None,
                     **compress_kwargs):
    """Build a CLP archive directly from ``.clp.ir`` stream files — ``clp c``
    over IR inputs (FileCompressor.cpp:271-329 consumes IR streams through the
    same Archive writer as raw text; clp/compression.cpp file loop).

    Each IR file is one logical input file: ``conv_id`` = the file's stem and
    ``turn_idx`` = the event's index within the stream, so per-file event
    order survives the archive round trip (CLP's message-index-within-file
    ordering contract). One read task per file; deserialization is the
    per-file sequential part (the IR wire format is delta-encoded and cannot
    be split), while encode/route/sink parallelism comes from the normal
    compress pipeline downstream.
    """
    import os

    import pyarrow.compute as pc

    from clp_core_ray.pipelines.compress import compress

    paths = _ir_files(paths)
    if not paths:
        raise ValueError("compress_from_ir: no .clp.ir inputs")

    def as_turns(path: str, data: bytes) -> pa.Table:
        t = decode_ir_stream_to_text(data)
        stem = os.path.basename(path)
        stem = stem[: -len(".clp.ir")] if stem.endswith(".clp.ir") else stem
        n = len(t)
        return pa.table({
            "conv_id": pa.array([stem] * n, type=pa.large_string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": pa.array(["system"] * n, type=pa.large_string()),
            "text": t.column("text"),
            "tool": pa.array([""] * n, type=pa.large_string()),
            "ts": pc.cast(t.column("ts"), pa.timestamp("ms")),
        })

    label = compress_kwargs.pop("input_label", f"ir:{len(paths)} streams")
    return compress(None, out_dir, ds=_map_ir_files(paths, as_turns),
                    input_label=label, **compress_kwargs)
