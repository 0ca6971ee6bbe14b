"""Structured key-value IR streams (clp_s's IR format, version 0.1.0).

Rebuilds ffi/ir_stream's KV-pair serializer/deserializer
(Serializer.cpp:524-780, protocol_constants.hpp:59-101,
utils.hpp:173-235) from the wire-format constants:

- preamble: magic number (four/eight-byte variant) + JSON metadata
  (VERSION 0.1.0 + schema/encoding version ids)
- two schema trees — AUTO-GENERATED keys (ids serialized as the ones'
  complement, utils.hpp:211-213) and USER-GENERATED keys — grown
  incrementally: the first event that uses a key emits a schema-tree-node
  unit (type tag 0x71-0x76, parent-id tag 0x60-0x62, key string)
- each log event = [new tree nodes][auto-gen (node-id, value) pairs]
  [user-gen node ids][user-gen values] — node-id tags 0x65-0x67; an empty
  user-gen map serializes as ValueEmpty (Serializer.cpp:713-715)
- values: range-tagged ints (0x51-0x54), raw-bits float (0x56), bools
  (0x57/0x58), plain strings (0x41-0x43), CLP-encoded strings for text with
  spaces (0x59/0x5A + the unstructured message encoding, utils.hpp:179-190),
  null (0x5F), empty object (0x5E); arrays serialize as their compact-JSON
  rendering in a (CLP) string (Serializer.cpp:323-334 — the reference uses
  msgpack's ostream rendering; we use compact JSON, an explicit divergence:
  both store the array as opaque text).

Ray surface: :func:`write_kv_ir` / :func:`read_kv_ir` move batches of
NDJSON records into/out of KV-IR files (one file per input block; the byte
protocol is inherently per-record, so these are actor-pool-shaped stages).
"""

from __future__ import annotations

import json
import struct

import pyarrow as pa

from clp_core_ray import encoding as E
from clp_core_ray import ir as unstructured_ir
from clp_core_ray.ir import (
    EOF_BYTE,
    IrCorrupted,
    MAGIC_EIGHT,
    MAGIC_FOUR,
    META_ENCODING_JSON,
    META_LEN_UBYTE,
    META_LEN_USHORT,
    _Reader,
    four_byte_float_to_eight,
    serialize_message_eight,
    serialize_message_four,
)

VERSION_VALUE = "0.1.0"
USER_DEFINED_METADATA_KEY = "USER_DEFINED_METADATA"

# value tags (protocol_constants.hpp Payload)
STRLEN_UBYTE = 0x41
STRLEN_USHORT = 0x42
STRLEN_UINT = 0x43
VALUE_INT8 = 0x51
VALUE_INT16 = 0x52
VALUE_INT32 = 0x53
VALUE_INT64 = 0x54
VALUE_FLOAT = 0x56
VALUE_TRUE = 0x57
VALUE_FALSE = 0x58
VALUE_FOUR_BYTE_CLP_STR = 0x59
VALUE_EIGHT_BYTE_CLP_STR = 0x5A
VALUE_EMPTY = 0x5E
VALUE_NULL = 0x5F

PARENT_ID_BYTE = 0x60
PARENT_ID_SHORT = 0x61
PARENT_ID_INT = 0x62
NODE_ID_BYTE = 0x65
NODE_ID_SHORT = 0x66
NODE_ID_INT = 0x67

NODE_INT = 0x71
NODE_FLOAT = 0x72
NODE_BOOL = 0x73
NODE_STR = 0x74
NODE_UNSTRUCTURED_ARRAY = 0x75
NODE_OBJ = 0x76

_NODE_TAGS = (NODE_INT, NODE_FLOAT, NODE_BOOL, NODE_STR,
              NODE_UNSTRUCTURED_ARRAY, NODE_OBJ)
_ID_TAGS = (NODE_ID_BYTE, NODE_ID_SHORT, NODE_ID_INT)
_PARENT_TAGS = (PARENT_ID_BYTE, PARENT_ID_SHORT, PARENT_ID_INT)

ROOT_ID = 0

# unstructured-IR vars inside ClpStr values
_VAR_FOUR = unstructured_ir.VAR_FOUR
_VAR_EIGHT = unstructured_ir.VAR_EIGHT
_VARSTR = (unstructured_ir.VARSTR_UBYTE, unstructured_ir.VARSTR_USHORT,
           unstructured_ir.VARSTR_INT)
_LOGTYPE = (unstructured_ir.LOGTYPE_UBYTE, unstructured_ir.LOGTYPE_USHORT,
            unstructured_ir.LOGTYPE_INT)


def _node_type_of(val) -> int:
    """get_schema_tree_node_type_from_msgpack_val (Serializer.cpp:249-278):
    null and maps share the Obj node type."""
    if isinstance(val, bool):
        return NODE_BOOL
    if isinstance(val, int):
        return NODE_INT
    if isinstance(val, float):
        return NODE_FLOAT
    if isinstance(val, str):
        return NODE_STR
    if isinstance(val, list):
        return NODE_UNSTRUCTURED_ARRAY
    if val is None or isinstance(val, dict):
        return NODE_OBJ
    raise IrCorrupted(f"unserializable value type {type(val).__name__}")


def _serialize_id(node_id: int, is_auto: bool, tags, out: list) -> None:
    """encode_and_serialize_schema_tree_node_id (utils.hpp:198-231): size-
    tagged signed big-endian; auto-gen ids stored as the ones' complement."""
    enc = ~node_id if is_auto else node_id
    if node_id <= 0x7F:
        out.append(struct.pack(">Bb", tags[0], enc))
    elif node_id <= 0x7FFF:
        out.append(struct.pack(">Bh", tags[1], enc))
    elif node_id <= 0x7FFFFFFF:
        out.append(struct.pack(">Bi", tags[2], enc))
    else:
        raise IrCorrupted(f"schema tree node id {node_id} out of range")


def _serialize_string(s: bytes, out: list) -> None:
    n = len(s)
    if n <= 0xFF:
        out.append(struct.pack(">BB", STRLEN_UBYTE, n))
    elif n <= 0xFFFF:
        out.append(struct.pack(">BH", STRLEN_USHORT, n))
    else:
        out.append(struct.pack(">BI", STRLEN_UINT, n))
    out.append(s)


def _serialize_value(val, four_byte: bool, out: list) -> None:
    if isinstance(val, bool):
        out.append(bytes([VALUE_TRUE if val else VALUE_FALSE]))
    elif isinstance(val, int):
        if -(2**7) <= val <= 2**7 - 1:
            out.append(struct.pack(">Bb", VALUE_INT8, val))
        elif -(2**15) <= val <= 2**15 - 1:
            out.append(struct.pack(">Bh", VALUE_INT16, val))
        elif -(2**31) <= val <= 2**31 - 1:
            out.append(struct.pack(">Bi", VALUE_INT32, val))
        else:
            out.append(struct.pack(">Bq", VALUE_INT64, val))
    elif isinstance(val, float):
        out.append(struct.pack(">Bd", VALUE_FLOAT, val))
    elif isinstance(val, str):
        if " " not in val:
            _serialize_string(val.encode(), out)
        elif four_byte:
            out.append(bytes([VALUE_FOUR_BYTE_CLP_STR]))
            out.append(serialize_message_four(val))
        else:
            out.append(bytes([VALUE_EIGHT_BYTE_CLP_STR]))
            out.append(serialize_message_eight(val))
    elif isinstance(val, list):
        # arrays store as opaque text (compact JSON here; msgpack ostream
        # rendering in the reference)
        _serialize_value(json.dumps(val, separators=(",", ":")), four_byte, out)
    elif val is None:
        out.append(bytes([VALUE_NULL]))
    else:
        raise IrCorrupted(f"unserializable value type {type(val).__name__}")


class _SchemaTree:
    """Incremental (parent, key, type) → id map; root = 0, ids sequential."""

    def __init__(self):
        self.ids: dict[tuple[int, str, int], int] = {}
        self.meta: dict[int, tuple[int, str, int]] = {}

    def get_or_insert(self, parent: int, key: str, type_tag: int):
        loc = (parent, key, type_tag)
        nid = self.ids.get(loc)
        if nid is not None:
            return nid, False
        nid = len(self.ids) + 1  # 0 is the root
        self.ids[loc] = nid
        self.meta[nid] = loc
        return nid, True

    def insert_from_wire(self, parent: int, key: str, type_tag: int) -> int:
        nid, new = self.get_or_insert(parent, key, type_tag)
        if not new:
            raise IrCorrupted(f"duplicate schema tree node {(parent, key)}")
        return nid


class KvIrSerializer:
    """Streaming KV-IR serializer (Serializer.cpp:524-780 semantics)."""

    def __init__(self, four_byte: bool = True, user_defined_metadata=None):
        self.four_byte = four_byte
        self.auto_tree = _SchemaTree()
        self.user_tree = _SchemaTree()
        meta = {
            unstructured_ir.VERSION_KEY: VERSION_VALUE,
            unstructured_ir.VARIABLES_SCHEMA_ID_KEY:
                unstructured_ir.VARIABLES_SCHEMA_VERSION,
            unstructured_ir.VARIABLE_ENCODING_METHODS_ID_KEY:
                unstructured_ir.VARIABLE_ENCODING_METHODS_VERSION,
        }
        if user_defined_metadata is not None:
            if not isinstance(user_defined_metadata, dict):
                raise IrCorrupted("user-defined metadata must be an object")
            meta[USER_DEFINED_METADATA_KEY] = user_defined_metadata
        mjson = json.dumps(meta, separators=(",", ":")).encode()
        head = [MAGIC_FOUR if four_byte else MAGIC_EIGHT,
                bytes([META_ENCODING_JSON])]
        if len(mjson) <= 0xFF:
            head.append(struct.pack(">BB", META_LEN_UBYTE, len(mjson)))
        elif len(mjson) <= 0xFFFF:
            head.append(struct.pack(">BH", META_LEN_USHORT, len(mjson)))
        else:
            raise IrCorrupted("metadata longer than 64 KiB")
        head.append(mjson)
        self._chunks: list[bytes] = [b"".join(head)]

    def _dfs(self, kv_map: dict, tree: _SchemaTree, is_auto: bool,
             tree_buf: list, emit_id_buf: list, emit_val_buf: list) -> None:
        """serialize_msgpack_map_using_dfs (Serializer.cpp:434-521): nested
        maps are descended into before the remaining siblings."""
        stack = [(ROOT_ID, iter(kv_map.items()))]
        while stack:
            parent, it = stack[-1]
            try:
                key, val = next(it)
            except StopIteration:
                stack.pop()
                continue
            if not isinstance(key, str):
                raise IrCorrupted("map keys must be strings")
            type_tag = _node_type_of(val)
            nid, new = tree.get_or_insert(parent, key, type_tag)
            if new:  # schema-tree-node unit (Serializer.cpp:750-780)
                tree_buf.append(bytes([type_tag]))
                _serialize_id(parent, is_auto, _PARENT_TAGS, tree_buf)
                _serialize_string(key.encode(), tree_buf)
            if isinstance(val, dict) and val:
                stack.append((nid, iter(val.items())))
                continue
            # one bytes chunk per id and per value, so id/value sequences
            # stay pairwise alignable for the auto-gen interleave
            tmp: list = []
            _serialize_id(nid, is_auto, _ID_TAGS, tmp)
            emit_id_buf.append(b"".join(tmp))
            if isinstance(val, dict):  # empty map
                emit_val_buf.append(bytes([VALUE_EMPTY]))
            else:
                tmp = []
                _serialize_value(val, self.four_byte, tmp)
                emit_val_buf.append(b"".join(tmp))

    @staticmethod
    def _interleave(ids: list, vals: list) -> list:
        out: list = []
        for i, v in zip(ids, vals):
            out.append(i)
            out.append(v)
        return out

    def serialize_event(self, user_gen: dict, auto_gen: dict | None = None):
        """One KV log event: auto-gen pairs interleave (id, value); user-gen
        node ids group before their values (Serializer.cpp:729-744 buffer
        concatenation order)."""
        tree_buf: list = []
        seq_buf: list = []
        user_val_buf: list = []
        if auto_gen:
            # auto-gen values interleave with their ids in the seq buf:
            # _dfs appends ids and values in matching order (one bytes chunk
            # each — _serialize_id/_serialize_value may append 2 chunks, so
            # join per pair via sub-lists)
            auto_ids: list = []
            auto_vals: list = []
            self._dfs(auto_gen, self.auto_tree, True, tree_buf,
                      auto_ids, auto_vals)
            seq_buf.extend(self._interleave(auto_ids, auto_vals))
        if user_gen:
            self._dfs(user_gen, self.user_tree, False, tree_buf,
                      seq_buf, user_val_buf)
        else:
            seq_buf.append(bytes([VALUE_EMPTY]))
        self._chunks.append(b"".join(
            [b"".join(tree_buf), b"".join(seq_buf), b"".join(user_val_buf)]
        ))

    def tobytes(self, eof: bool = True) -> bytes:
        return b"".join(self._chunks) + (EOF_BYTE if eof else b"")


def serialize_kv_ir_stream(records, auto_gen=None, four_byte: bool = True,
                           user_defined_metadata=None) -> bytes:
    """records: iterable of dicts (user-gen); auto_gen: parallel iterable of
    dicts or None."""
    ser = KvIrSerializer(four_byte, user_defined_metadata)
    if auto_gen is None:
        for rec in records:
            ser.serialize_event(rec)
    else:
        for rec, auto in zip(records, auto_gen):
            ser.serialize_event(rec, auto)
    return ser.tobytes()


# ---- deserialization ---------------------------------------------------------


def _read_id(r: _Reader, tag: int, tags) -> tuple[bool, int]:
    if tag == tags[0]:
        v = r.unpack(">b")
    elif tag == tags[1]:
        v = r.unpack(">h")
    elif tag == tags[2]:
        v = r.unpack(">i")
    else:
        raise IrCorrupted(f"bad node-id tag 0x{tag:02x}")
    if v < 0:
        return True, ~v
    return False, v


def _read_string(r: _Reader, tag: int) -> str:
    if tag == STRLEN_UBYTE:
        n = r.u8()
    elif tag == STRLEN_USHORT:
        n = r.unpack(">H")
    elif tag == STRLEN_UINT:
        n = r.unpack(">I")
    else:
        raise IrCorrupted(f"bad string tag 0x{tag:02x}")
    return bytes(r.take(n)).decode()


def _read_clp_message(r: _Reader, four: bool) -> str:
    """Var/dict/logtype units of one embedded CLP message → decoded text."""
    evs: list[int] = []
    kinds_wire: list[int] = []
    dvs: list[str] = []
    while True:
        tag = r.u8()
        if tag == _VAR_FOUR and four:
            evs.append(r.unpack(">i"))
            kinds_wire.append(-4)
        elif tag == _VAR_EIGHT and not four:
            evs.append(r.unpack(">q"))
            kinds_wire.append(-1)
        elif tag in _VARSTR:
            n = (r.u8() if tag == _VARSTR[0]
                 else r.unpack(">H") if tag == _VARSTR[1]
                 else r.unpack(">i"))
            dvs.append(bytes(r.take(n)).decode())
            evs.append(0)
            kinds_wire.append(E.VT_DICT)
        elif tag in _LOGTYPE:
            n = (r.u8() if tag == _LOGTYPE[0]
                 else r.unpack(">H") if tag == _LOGTYPE[1]
                 else r.unpack(">i"))
            logtype = bytes(r.take(n)).decode()
            break
        else:
            raise IrCorrupted(f"bad clp-string unit tag 0x{tag:02x}")
    kinds = E.placeholder_kinds(logtype)
    if len(kinds) != len(evs):
        raise IrCorrupted("clp-string var count != placeholder count")
    di = 0
    vals: list[int] = []
    for k, wire, ev in zip(kinds, kinds_wire, evs):
        if k == E.VT_DICT:
            if wire != E.VT_DICT:
                raise IrCorrupted("clp-string var kind mismatch")
            vals.append(0)
            di += 1
        elif k == E.VT_FLOAT:
            vals.append(four_byte_float_to_eight(ev) if wire == -4 else ev)
        else:
            vals.append(ev)
    return E.decode_message(logtype, vals, dict_vars=dvs)


def _read_value(r: _Reader, tag: int, four: bool):
    if tag == VALUE_INT8:
        return r.unpack(">b")
    if tag == VALUE_INT16:
        return r.unpack(">h")
    if tag == VALUE_INT32:
        return r.unpack(">i")
    if tag == VALUE_INT64:
        return r.unpack(">q")
    if tag == VALUE_FLOAT:
        return r.unpack(">d")
    if tag == VALUE_TRUE:
        return True
    if tag == VALUE_FALSE:
        return False
    if tag == VALUE_NULL:
        return None
    if tag == VALUE_EMPTY:
        return {}
    if tag in (STRLEN_UBYTE, STRLEN_USHORT, STRLEN_UINT):
        return _read_string(r, tag)
    if tag == VALUE_FOUR_BYTE_CLP_STR:
        return _read_clp_message(r, True)
    if tag == VALUE_EIGHT_BYTE_CLP_STR:
        return _read_clp_message(r, False)
    raise IrCorrupted(f"bad value tag 0x{tag:02x}")


def _place(root: dict, tree: _SchemaTree, nid: int, val):
    """Insert a (node id, value) pair into the nested record dict."""
    path: list[tuple[str, int]] = []
    cur = nid
    while cur != ROOT_ID:
        parent, key, type_tag = tree.meta[cur]
        path.append((key, type_tag))
        cur = parent
    path.reverse()
    d = root
    for key, _ in path[:-1]:
        d = d.setdefault(key, {})
    key, type_tag = path[-1]
    if type_tag == NODE_UNSTRUCTURED_ARRAY and isinstance(val, str):
        val = json.loads(val)
    d[key] = val


def deserialize_kv_ir_stream(data: bytes):
    """Stream bytes → (metadata, [(auto_gen, user_gen) record dicts])."""
    r = _Reader(data)
    four, meta = unstructured_ir.deserialize_preamble(r)
    auto_tree = _SchemaTree()
    user_tree = _SchemaTree()
    out = []
    while True:
        tag = r.u8()
        if tag == 0x00:  # Eof
            break
        if tag in _NODE_TAGS:
            ptag = r.u8()
            is_auto, parent = _read_id(r, ptag, _PARENT_TAGS)
            key = _read_string(r, r.u8())
            (auto_tree if is_auto else user_tree).insert_from_wire(
                parent, key, tag
            )
            continue
        # a log event starts: either node-id units or the empty-user marker
        auto_pairs: list = []
        user_ids: list = []
        while tag in _ID_TAGS:
            is_auto, nid = _read_id(r, tag, _ID_TAGS)
            if is_auto:
                auto_pairs.append((nid, _read_value(r, r.u8(), four)))
                tag = r.u8()
            else:
                user_ids.append(nid)
                tag = r.u8()
        if not user_ids:
            if tag != VALUE_EMPTY:
                raise IrCorrupted(
                    f"expected empty-user-map marker, got 0x{tag:02x}"
                )
            user_vals: list = []
        else:
            user_vals = [_read_value(r, tag, four)]
            for _ in range(len(user_ids) - 1):
                user_vals.append(_read_value(r, r.u8(), four))
        auto = {}
        for nid, val in auto_pairs:
            _place(auto, auto_tree, nid, val)
        user = {}
        for nid, val in zip(user_ids, user_vals):
            _place(user, user_tree, nid, val)
        out.append((auto, user))
    return meta, out


# ---- Ray surface ---------------------------------------------------------


def write_kv_ir(ds, out_dir: str, line_col: str = "raw",
                idx_col: str = "log_event_idx", four_byte: bool = True):
    """Dataset[(log_event_idx, raw NDJSON)] → KV-IR files (one per block).

    Each record's index travels in the AUTO-GENERATED namespace (the
    reference reserves it for serializer-added keys). Returns the list of
    written paths."""
    import os
    import uuid

    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)

    def write(batch: pa.Table) -> pa.Table:
        ser = KvIrSerializer(four_byte)
        idxs = batch.column(idx_col).to_pylist()
        for idx, line in zip(idxs, batch.column(line_col).to_pylist()):
            ser.serialize_event(json.loads(line), {"log_event_idx": idx})
        path = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.kvir")
        with open(path, "wb") as f:
            f.write(ser.tobytes())
        return pa.table({"path": pa.array([path], type=pa.string()),
                         "rows": pa.array([len(batch)], type=pa.int64())})

    acct = [pa.table(b) for b in ds.map_batches(write, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")]
    return (pa.concat_tables(acct).column("path").to_pylist() if acct else [])


def read_kv_ir(paths):
    """KV-IR files → Dataset[(log_event_idx, json)] (canonical sorted-key
    rendering of the user-gen record, like clps_decompress output)."""
    import ray.data as rd

    def read(batch: pa.Table) -> pa.Table:
        idxs: list[int] = []
        js: list[str] = []
        for path in batch.column("path").to_pylist():
            with open(path, "rb") as f:
                _, events = deserialize_kv_ir_stream(f.read())
            for auto, user in events:
                idxs.append(int(auto.get("log_event_idx", len(idxs))))
                js.append(json.dumps(user, sort_keys=True))
        return pa.table({"log_event_idx": pa.array(idxs, type=pa.int64()),
                         "json": pa.array(js, type=pa.large_string())})

    return rd.from_items([{"path": p} for p in sorted(paths)]).map_batches(
        read, batch_format="pyarrow"
    )
