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

The heavy vectorized work (tokenize + 8-byte var encoding) reuses
vec.tokenizer.encode_batch; per-event byte assembly is plain Python — IR is
the interchange path, not the flagship archive path. Ray parallelism is
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
    var_types:list<int8>, dict_vars:list<string>, ts:int64 epoch ms) — i.e.
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

    # resolve non-dict var kinds from the logtype placeholders (the wire
    # doesn't distinguish int/float tags — the placeholder byte does), and
    # promote four-byte vars to the eight-byte archive representation
    for i, lt in enumerate(logtypes):
        kinds = _placeholder_kinds(lt)
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
            elif k == E.VT_FLOAT:
                if vt[j] == -4:
                    ev[j] = four_byte_float_to_eight(ev[j])
                vt[j] = E.VT_FLOAT
            else:
                vt[j] = E.VT_INT
        if di != len(dv):
            raise IrCorrupted(f"event {i}: unconsumed dictionary vars")

    n = len(logtypes)
    off = np.zeros(n + 1, dtype=np.int32)
    if n:
        off[1:] = np.cumsum([len(e) for e in row_evs], dtype=np.int32)
    doff = np.zeros(n + 1, dtype=np.int32)
    if n:
        doff[1:] = np.cumsum([len(d) for d in row_dvs], dtype=np.int32)
    flat_ev = [v for e in row_evs for v in e]
    flat_vt = [v for e in row_vts for v in e]
    flat_dv = [s for d in row_dvs for s in d]
    tbl = pa.table(
        {
            "ts": pa.array(ts_out, type=pa.int64()),
            "logtype": pa.array(logtypes, type=pa.large_string()),
            "encoded_vars": pa.ListArray.from_arrays(
                pa.array(off), pa.array(flat_ev, type=pa.int64())
            ),
            "var_types": pa.ListArray.from_arrays(
                pa.array(off), pa.array(flat_vt, type=pa.int8())
            ),
            "dict_vars": pa.ListArray.from_arrays(
                pa.array(doff), pa.array(flat_dv, type=pa.string())
            ),
        }
    )
    return meta, tbl


def _placeholder_kinds(logtype: str) -> list[int]:
    """Placeholder kinds in order, honoring '\\\\' escapes
    (LogTypeDictionaryEntry.cpp placeholder walk)."""
    kinds = []
    i = 0
    n = len(logtype)
    while i < n:
        c = logtype[i]
        if c == "\\":
            i += 2
            continue
        if c == E.PLACEHOLDER_INT:
            kinds.append(E.VT_INT)
        elif c == E.PLACEHOLDER_FLOAT:
            kinds.append(E.VT_FLOAT)
        elif c == E.PLACEHOLDER_DICT:
            kinds.append(E.VT_DICT)
        i += 1
    return kinds


def decode_ir_stream_to_text(data: bytes) -> pa.Table:
    """Stream bytes → (ts:int64 ms, text) via the vectorized decoder."""
    from clp_core_ray.vec.decoder import decode_batch

    meta, tbl = deserialize_ir_stream(data)
    if len(tbl) == 0:
        return pa.table({"ts": pa.array([], type=pa.int64()),
                         "text": pa.array([], type=pa.large_string())})
    text = decode_batch(
        tbl.column("logtype"), tbl.column("encoded_vars"),
        tbl.column("var_types"), dict_vars=tbl.column("dict_vars"),
    )
    return pa.table({"ts": tbl.column("ts"), "text": text})


def search_ir_stream(data: bytes, query: str, ignore_case: bool = False,
                     ts_min: int | None = None,
                     ts_max: int | None = None) -> pa.Table:
    """Two-phase wildcard search over ONE IR stream → (ts, text) hits.

    The clo-over-IR search shape (the package searches IR chunks before they
    are archived): the stream's distinct logtypes act as its dictionary —
    candidate templates are pruned exactly like archive search
    (Grep.cpp:482-495), then only candidate rows decode and wildcard-verify.
    ``ts_min``/``ts_max`` (epoch ms, inclusive) pre-filter rows before any
    decode."""
    import pyarrow.compute as pc

    from clp_core_ray.pipelines.search import (
        _candidate_templates,
        wildcard_to_regex,
    )
    from clp_core_ray.vec.decoder import decode_batch

    empty = pa.table({"ts": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.large_string())})
    meta, tbl = deserialize_ir_stream(data)
    if len(tbl) == 0:
        return empty
    if ts_min is not None:
        tbl = tbl.filter(pc.greater_equal(tbl.column("ts"), ts_min))
    if ts_max is not None:
        tbl = tbl.filter(pc.less_equal(tbl.column("ts"), ts_max))
    if len(tbl) == 0:
        return empty
    wq = f"*{query.strip('*')}*" if query.strip("*") else "*"
    enc = pc.dictionary_encode(tbl.column("logtype").combine_chunks())
    cand = _candidate_templates(enc.dictionary, wq, ignore_case)
    if not cand.any():
        return empty
    tbl = tbl.filter(pa.array(cand[np.asarray(enc.indices, dtype=np.int64)]))
    text = decode_batch(tbl.column("logtype"), tbl.column("encoded_vars"),
                        tbl.column("var_types"), dict_vars=tbl.column("dict_vars"))
    rx = wildcard_to_regex(wq)
    if ignore_case:
        rx = "(?i)" + rx
    m = pc.match_substring_regex(text, rx)
    return pa.table({"ts": tbl.column("ts").combine_chunks(),
                     "text": text}).filter(m)


def search_ir(paths, query: str, ignore_case: bool = False,
              ts_min: int | None = None, ts_max: int | None = None):
    """Wildcard search across IR stream files → Dataset[(ts, text)].

    One task per file; each file prunes on its own logtype set before
    decoding (S3 source + §2.11 search semantics, no archive required)."""
    import ray.data as rd

    if isinstance(paths, str):
        import os

        paths = [os.path.join(paths, f) for f in sorted(os.listdir(paths))
                 if f.endswith(".clp.ir")]

    def scan(batch: pa.Table) -> pa.Table:
        tbls = []
        for p in batch.column("path").to_pylist():
            with open(p, "rb") as f:
                tbls.append(search_ir_stream(f.read(), query, ignore_case,
                                             ts_min, ts_max))
        return pa.concat_tables(tbls) if tbls else pa.table(
            {"ts": pa.array([], type=pa.int64()),
             "text": pa.array([], type=pa.large_string())})

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        scan, batch_format="pyarrow"
    )


# ---- Ray integration ---------------------------------------------------------


def ir_block_writer(out_dir: str, four_byte: bool = True, ts_col: str = "ts",
                    text_col: str = "text", target_bytes: int | None = None,
                    _test_crash_marker: str | None = None):
    """The per-block writer of :func:`write_ir`: a callable that writes one
    block (a table with ``ts_col`` and ``text_col``) to IR stream file(s)
    under ``out_dir`` and returns their (path, n_events) rows."""
    import os

    import numpy as np
    import pyarrow.compute as pc

    from clp_core_ray.state.atomic import atomic_write_bytes

    def write_block(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            # CLP timestamps are epoch millis; truncate finer resolutions
            ts = pc.cast(pc.cast(ts, pa.timestamp("ms"), safe=False), pa.int64())
        ts_list = ts.to_pylist()
        msgs = batch.column(text_col).to_pylist()
        cuts = [0, len(msgs)]
        if target_bytes and len(msgs):
            est = (pc.binary_length(pc.fill_null(
                pc.cast(batch.column(text_col), pa.large_string()), ""))
                .combine_chunks().to_numpy(zero_copy_only=False)
                .astype(np.int64) + 12)
            cum = np.cumsum(est)
            n_chunks = max(1, int(np.ceil(cum[-1] / target_bytes)))
            if n_chunks > 1:
                marks = np.arange(1, n_chunks) * (cum[-1] / n_chunks)
                inner = np.unique(np.searchsorted(cum, marks, side="left") + 1)
                cuts = [0, *[int(i) for i in inner if 0 < i < len(msgs)],
                        len(msgs)]
        out_paths, out_events = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            blob = serialize_ir_stream(ts_list[lo:hi], msgs[lo:hi],
                                       four_byte=four_byte)
            if _test_crash_marker and not os.path.exists(_test_crash_marker):
                # failure injection (tests only): die mid-write on the first
                # chunk, leaving a torn .inprogress tmp — Ray retries the
                # task; the content-named rename must make the retry exact
                fd = os.open(_test_crash_marker, os.O_CREAT | os.O_WRONLY)
                os.close(fd)
                with open(os.path.join(
                        out_dir, f"events-dead.{os.getpid()}.inprogress"),
                        "wb") as f:
                    f.write(blob[: max(1, len(blob) // 2)])
                os._exit(1)
            # content-named atomic write: a retried task re-serializes the
            # same events → same name, overwrites instead of duplicating
            path = atomic_write_bytes(blob, out_dir, prefix="events",
                                      suffix=".clp.ir")
            out_paths.append(path)
            out_events.append(hi - lo)
        return pa.table({"path": pa.array(out_paths),
                         "n_events": pa.array(out_events, type=pa.int64())})

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
    serialized-size estimate: text bytes + per-event framing — each chunk is
    a self-contained stream with its own preamble/EOF, so size parity is
    approximate exactly like the reference's roll-after-crossing check).
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
    import ray.data as rd

    if isinstance(paths, str):
        import os

        paths = [
            os.path.join(paths, f) for f in sorted(__import__("os").listdir(paths))
            if f.endswith(".clp.ir")
        ]

    def read_file(batch: pa.Table) -> pa.Table:
        tbls = []
        for p in batch.column("path").to_pylist():
            with open(p, "rb") as f:
                tbls.append(decode_ir_stream_to_text(f.read()))
        return pa.concat_tables(tbls) if tbls else pa.table(
            {"ts": pa.array([], type=pa.int64()),
             "text": pa.array([], type=pa.large_string())})

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        read_file, batch_format="pyarrow"
    )


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
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress

    if isinstance(paths, str):
        paths = [os.path.join(paths, f) for f in sorted(os.listdir(paths))
                 if f.endswith(".clp.ir")]
    if not paths:
        raise ValueError("compress_from_ir: no .clp.ir inputs")

    def read_file(batch: pa.Table) -> pa.Table:
        tbls = []
        for p in batch.column("path").to_pylist():
            with open(p, "rb") as f:
                t = decode_ir_stream_to_text(f.read())
            stem = os.path.basename(p)
            stem = stem[: -len(".clp.ir")] if stem.endswith(".clp.ir") else stem
            n = len(t)
            tbls.append(pa.table({
                "conv_id": pa.array([stem] * n, type=pa.large_string()),
                "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
                "role": pa.array(["system"] * n, type=pa.large_string()),
                "text": t.column("text"),
                "tool": pa.array([""] * n, type=pa.large_string()),
                "ts": pc.cast(t.column("ts"), pa.timestamp("ms")),
            }))
        return pa.concat_tables(tbls)

    ds = rd.from_items([{"path": p} for p in paths]).map_batches(
        read_file, batch_format="pyarrow"
    )
    label = compress_kwargs.pop("input_label", f"ir:{len(paths)} streams")
    return compress(None, out_dir, ds=ds, input_label=label, **compress_kwargs)
