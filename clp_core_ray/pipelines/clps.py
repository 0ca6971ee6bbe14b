"""clp_s (semi-structured JSON) engine subset — SURVEY.md §1.4.

Rebuilds the clp_s data model Ray-Data-first (Dataset in, Dataset out — no
driver-side record loops):

- input is a Dataset of raw NDJSON lines with a stable ``log_event_idx``
  (helpers build it from text files or a parquet string column with exact
  per-row-group indices — the driver touches only footers)
- records parse vectorized via pyarrow.json (simdjson's role, JsonParser.cpp);
  batches mixing types on one path fall back to a per-signature sub-parse
  (clp_s's node identity includes type, SchemaTree.hpp:27-40)
- each record's **schema** = its set of present (leaf path, type) pairs; the
  schema id is a content hash of that set (SchemaMap dedup keyed on
  (parent, key, type), SchemaTree.hpp:183)
- records shuffle once by schema id and are stored as per-schema columnar
  tables (ArchiveWriter.hpp:89-98); string leaves containing spaces are
  ClpStrings — recursively CLP-encoded with the core kernels
  (JsonParser.cpp:195-207) into (logtype, vars) sub-columns; other strings
  are VarStrings stored verbatim
- ordered reconstruction merges schema tables by log_event_idx
  (JsonConstructor.cpp:63-160's k-way merge → a Dataset sort here), with a
  vectorized JSON serializer (template + binary_join_element_wise) and a
  per-row fallback for floats/lists/exotic escapes

Scope: objects nested to any depth, scalar leaves (int64/double/bool/string),
lists of scalars, and arrays of objects (stored as list<struct> columns).
Partitioning assumption: ``out_dir`` must be shared storage on a multi-node
cluster (each schema group writes its table from the worker that owns it).
"""

from __future__ import annotations

import io
import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj
import pyarrow.parquet as pq

from clp_core_ray.encoding import fnv1a64
from clp_core_ray.vec.decoder import decode_batch
from clp_core_ray.vec.tokenizer import encode_batch

SCHEMA_META = "schemas.json"
_FILE_SHIFT = 40  # log_event_idx = (file_seq << 40) | row_in_file


# ---- input builders ---------------------------------------------------------


def ndjson_from_parquet_column(path_or_dir, column: str):
    """Dataset[(log_event_idx, raw)] from a parquet string column.

    Exact global order without any shuffle: the driver reads only footers to
    enumerate (file, row_group, base_row); each task reads one row group.
    """
    import ray.data as rd

    files = _parquet_files(path_or_dir)
    items = []
    for fi, f in enumerate(sorted(files)):
        md = pq.ParquetFile(f).metadata
        base = 0
        for rg in range(md.num_row_groups):
            items.append({"path": f, "rg": rg,
                          "base": (fi << _FILE_SHIFT) + base})
            base += md.row_group(rg).num_rows

    def read(batch: pa.Table) -> pa.Table:
        tbls = []
        for path, rg, base in zip(
            batch.column("path").to_pylist(),
            batch.column("rg").to_pylist(),
            batch.column("base").to_pylist(),
        ):
            t = pq.ParquetFile(path).read_row_group(rg, columns=[column])
            idx = np.arange(len(t), dtype=np.int64) + base
            tbls.append(pa.table({
                "log_event_idx": pa.array(idx),
                "raw": t.column(column).combine_chunks().cast(pa.large_string()),
            }))
        return pa.concat_tables(tbls)

    return rd.from_items(items).map_batches(read, batch_format="pyarrow")


def ndjson_from_files(paths):
    """Dataset[(log_event_idx, raw)] from NDJSON text files (one task/file)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    items = [{"path": p, "seq": i} for i, p in enumerate(sorted(paths))]

    def read(batch: pa.Table) -> pa.Table:
        tbls = []
        for path, seq in zip(batch.column("path").to_pylist(),
                             batch.column("seq").to_pylist()):
            with open(path, "rb") as f:
                lines = f.read().splitlines()
            lines = [ln for ln in lines if ln.strip()]
            idx = np.arange(len(lines), dtype=np.int64) + (seq << _FILE_SHIFT)
            tbls.append(pa.table({
                "log_event_idx": pa.array(idx),
                "raw": pa.array([ln.decode() for ln in lines],
                                type=pa.large_string()),
            }))
        return pa.concat_tables(tbls)

    return rd.from_items(items).map_batches(read, batch_format="pyarrow")


def _parquet_files(path_or_dir) -> list[str]:
    if isinstance(path_or_dir, (list, tuple)):
        return list(path_or_dir)
    if os.path.isdir(path_or_dir):
        return [
            os.path.join(r, f)
            for r, _, fs in os.walk(path_or_dir)
            for f in fs
            if f.endswith(".parquet")
        ]
    return [path_or_dir]


def _as_line_dataset(source):
    """Normalize clps_compress input to Dataset[(log_event_idx, raw)]."""
    import ray.data as rd

    if isinstance(source, list):  # in-memory lines (tests / small inputs)
        return rd.from_arrow(pa.table({
            "log_event_idx": pa.array(range(len(source)), type=pa.int64()),
            "raw": pa.array(source, type=pa.large_string()),
        }))
    if isinstance(source, (str, tuple)):  # file path(s)
        return ndjson_from_files(source)
    # a Dataset: must carry log_event_idx + a raw line column
    names = source.schema().names
    if "raw" not in names or "log_event_idx" not in names:
        raise ValueError(
            "Dataset input needs (log_event_idx, raw) columns — use "
            "ndjson_from_files / ndjson_from_parquet_column to build one"
        )
    return source


# ---- parse + schema assignment ---------------------------------------------


def _demote_timestamp_type(t: pa.DataType):
    """Recursively replace timestamp types with string; None if unchanged."""
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        return pa.string()
    if pa.types.is_struct(t):
        changed = False
        fields = []
        for f in t:
            nt = _demote_timestamp_type(f.type)
            changed |= nt is not None
            fields.append(pa.field(f.name, nt or f.type))
        return pa.struct(fields) if changed else None
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        nt = _demote_timestamp_type(t.value_type)
        if nt is None:
            return None
        return pa.large_list(nt) if pa.types.is_large_list(t) else pa.list_(nt)
    return None


def _parse_lines(lines: list[str]) -> pa.Table:
    buf = io.BytesIO(("\n".join(lines)).encode())
    t = pj.read_json(buf)
    # pyarrow.json infers ISO-like date strings as timestamps; clp_s keeps
    # them as strings (DateString handling belongs to the timestamp range
    # index, TimestampEntry.hpp:19-58) — reparse with those fields demoted so
    # the round-trip stays byte-exact
    fields = []
    changed = False
    for f in t.schema:
        nt = _demote_timestamp_type(f.type)
        changed |= nt is not None
        fields.append(pa.field(f.name, nt or f.type))
    if changed:
        buf.seek(0)
        t = pj.read_json(buf, parse_options=pj.ParseOptions(
            explicit_schema=pa.schema(fields)))
    return t


def _type_sig(v) -> str:
    """Type signature of a python-parsed JSON value (fallback bucketing)."""
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, str):
        return "str"
    if isinstance(v, list):
        inner = {_type_sig(x) for x in v if x is not None}
        return f"list<{inner.pop() if len(inner) == 1 else 'mixed'}>"
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{_type_sig(x)}" for k, x in sorted(v.items())) + "}"
    return "null"


def _parse_batch(lines: list[str]) -> list[tuple[np.ndarray, pa.Table]]:
    """Vectorized parse with a mixed-type fallback.

    Returns [(row_indices, parsed_table)] covering all rows. The fast path is
    one pyarrow.json parse; if the batch mixes types on a path
    (ArrowInvalid: "column changed from X to Y"), rows are bucketed by their
    python-parsed type signature and each homogeneous bucket parses
    vectorized. Per-row work happens only on such pathological batches.
    """
    try:
        return [(np.arange(len(lines)), _parse_lines(lines))]
    except pa.ArrowInvalid:
        pass
    sigs: dict[str, list[int]] = {}
    for i, ln in enumerate(lines):
        sigs.setdefault(_type_sig(json.loads(ln)), []).append(i)
    out = []
    for rows in sigs.values():
        idx = np.array(rows, dtype=np.int64)
        out.append((idx, _parse_lines([lines[i] for i in rows])))
    return out


def _flatten(tbl: pa.Table) -> dict[str, pa.Array]:
    """Nested struct columns → flat {dotted.path: array} leaves.

    list<...> columns (scalar lists AND arrays of objects,
    JsonParser.cpp:168,235-248 Structured/UnstructuredArray) stay as single
    leaves — parquet stores them natively."""
    out: dict[str, pa.Array] = {}

    def walk(prefix: str, arr: pa.ChunkedArray | pa.Array):
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_struct(arr.type):
            for f in arr.type:
                child = arr.field(f.name)
                # propagate parent nulls into children
                if arr.null_count:
                    child = pc.if_else(pc.is_valid(arr), child, pa.nulls(len(arr), child.type))
                walk(f"{prefix}.{f.name}" if prefix else f.name, child)
        else:
            out[prefix] = arr

    for name in tbl.column_names:
        walk(name, tbl.column(name))
    return out


def _type_name(t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return "bool"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return f"list<{_type_name(t.value_type)}>"
    if pa.types.is_struct(t):
        return "{" + ",".join(f"{f.name}:{_type_name(f.type)}" for f in t) + "}"
    return "str"


def schema_ids_for(
    leaves: dict[str, pa.Array], n: int
) -> tuple[np.ndarray, dict, dict]:
    """Per-row schema id = FNV hash over the sorted present (path:type) set.

    Returns (sid_per_row, {sid: sorted key entries}, {sid: present paths})."""
    paths = sorted(leaves)
    present = np.zeros((len(paths), n), dtype=bool)
    for i, p in enumerate(paths):
        present[i] = np.asarray(pc.is_valid(leaves[p]))
    token = [fnv1a64(f"{p}:{_type_name(leaves[p].type)}".encode()) for p in paths]
    token = np.array(token, dtype=np.int64).view(np.uint64)
    # order-independent combine: sum of per-leaf tokens mixed with position-free
    # multiplier (commutative), then re-hash
    with np.errstate(over="ignore"):
        acc = (present * token[:, None]).sum(axis=0, dtype=np.uint64)
        acc = (acc ^ (acc >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    sid = acc.view(np.int64)
    key_of = {}
    paths_of = {}
    for row_sid in np.unique(sid):
        rows = np.flatnonzero(sid == row_sid)
        mask = present[:, rows[0]]
        pairs = sorted(
            (f"{paths[i]}:{_type_name(leaves[paths[i]].type)}", paths[i])
            for i in np.flatnonzero(mask)
        )
        key_of[int(row_sid)] = [e for e, _ in pairs]
        paths_of[int(row_sid)] = [p for _, p in pairs]
    return sid, key_of, paths_of


# ---- compress ----------------------------------------------------------------


def _ipc_bytes(t: pa.Table) -> bytes:
    """Table → compressed Arrow IPC stream bytes (the shuffle payload)."""
    sink = pa.BufferOutputStream()
    opts = pa.ipc.IpcWriteOptions(compression="lz4")
    with pa.ipc.new_stream(sink, t.schema, options=opts) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _ipc_table(b) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(b)).read_all()


def clps_compress(source, out_dir: str, timestamp_key: str | None = None,
                  _parse_audit_dir: str | None = None) -> dict:
    """Compress NDJSON → per-schema columnar tables + schema map.

    ``source``: NDJSON file path(s), a Dataset[(log_event_idx, raw)] (see
    ndjson_from_files / ndjson_from_parquet_column), or a list of lines
    (tests / small inputs). One shuffle (groupby schema_id); everything else
    is map_batches. Returns {schema_id: n_records} (small accounting).

    Each record parses exactly ONCE: the assign stage ships the already-
    parsed leaf columns through the schema shuffle as per-(batch, schema)
    compressed Arrow IPC chunks — the write stage just concatenates chunks
    (JsonParser.cpp parses once into its in-memory schema tables too; round-2
    shipped raw lines and re-parsed per group, 2x the dominant CPU cost).
    ``_parse_audit_dir`` (tests) records per-call parsed-row counts so the
    parse-once property is assertable.
    """
    ds = _as_line_dataset(source)
    os.makedirs(out_dir, exist_ok=True)

    # phase 1: parse (vectorized, once) + schema ids; emit one IPC chunk per
    # (input batch, schema id) with only that schema's present leaf columns
    def assign(batch: pa.Table) -> pa.Table:
        lines = batch.column("raw").to_pylist()
        if _parse_audit_dir:
            # audit counters are named by the batch's log_event_idx content
            # and written atomically, so a retried parse task overwrites its
            # own counter instead of double-counting (state/atomic.py)
            from clp_core_ray.state.atomic import atomic_write_bytes

            os.makedirs(_parse_audit_dir, exist_ok=True)
            atomic_write_bytes(
                str(len(lines)).encode(), _parse_audit_dir,
                prefix=__import__("hashlib").sha1(
                    np.ascontiguousarray(
                        np.asarray(batch.column("log_event_idx"),
                                   dtype=np.int64)).tobytes()
                ).hexdigest()[:16],
                suffix=".cnt")
        lei = np.asarray(batch.column("log_event_idx"), dtype=np.int64)
        out_sid: list[int] = []
        out_key: list[str] = []
        out_n: list[int] = []
        out_chunk: list[bytes] = []
        for rows, parsed in _parse_batch(lines):
            leaves = _flatten(parsed)
            s, key_of, paths_of = schema_ids_for(leaves, len(rows))
            for sid_val in np.unique(s):
                sel = np.flatnonzero(s == sid_val)
                take = pa.array(sel)
                cols: dict[str, pa.Array] = {
                    "log_event_idx": pa.array(lei[rows[sel]])
                }
                for p in paths_of[int(sid_val)]:
                    cols[p] = leaves[p].take(take)
                out_sid.append(int(sid_val))
                out_key.append(json.dumps(key_of[int(sid_val)]))
                out_n.append(len(sel))
                out_chunk.append(_ipc_bytes(pa.table(cols)))
        return pa.table({
            "schema_id": pa.array(out_sid, type=pa.int64()),
            "schema_key": pa.array(out_key, type=pa.string()),
            "n_rows": pa.array(out_n, type=pa.int64()),
            "chunk": pa.array(out_chunk, type=pa.large_binary()),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    # phase 2: shuffle the (small) chunk rows by schema id → concatenate each
    # schema's chunks into its columnar table (rows within a schema share one
    # present-(path:type) set, so chunk schemas agree by construction)
    ts_path = (timestamp_key or "").strip()

    def write_schema_table(group: pa.Table) -> pa.Table:
        sid = group.column("schema_id")[0].as_py()
        merged = pa.concat_tables(
            (_ipc_table(c) for c in group.column("chunk").to_pylist()),
            promote_options="permissive",
        ).combine_chunks()
        n_records = len(merged)
        leaves = {c: merged.column(c).combine_chunks()
                  for c in merged.column_names if c != "log_event_idx"}
        cols: dict[str, pa.Array] = {
            "log_event_idx": merged.column("log_event_idx").combine_chunks()
        }
        clp_encoded: list[str] = []
        for path, arr in sorted(leaves.items()):
            safe = path.replace("/", "_")
            if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
                has_space = pc.any(
                    pc.match_substring(pc.fill_null(arr, ""), " ")
                ).as_py()
                if has_space:  # ClpString → recursive CLP encoding
                    enc = encode_batch(arr)
                    cols[f"{safe}\x00logtype"] = enc["logtype"]
                    cols[f"{safe}\x00vars"] = enc["encoded_vars"]
                    cols[f"{safe}\x00dictvars"] = enc["dict_vars"]
                    cols[f"{safe}\x00isnull"] = pc.is_null(arr)
                    clp_encoded.append(safe)
                    continue
            cols[safe] = arr
        t = pa.table(cols)
        meta = {
            "schema_id": str(sid),
            "schema_key": group.column("schema_key")[0].as_py(),
            "clp_encoded": json.dumps(clp_encoded),
        }
        # timestamp range index (clp_s TimestampEntry.hpp:19-58): min/max of
        # the user-designated timestamp leaf, used for archive pruning
        if ts_path and ts_path in leaves and len(t):
            col = leaves[ts_path]
            if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                mn, mx = pc.min(col).as_py(), pc.max(col).as_py()
                if mn is not None:
                    meta["ts_min"] = str(mn)
                    meta["ts_max"] = str(mx)
                    meta["ts_key"] = ts_path
            elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                # DateString handling (JsonParser.cpp:310-330,
                # TimestampEntry.hpp:19-58): parse the designated string leaf
                # by pattern into epoch ms; the range index then covers
                # date-string JSON, and a hidden parsed column supports
                # row-level time predicates at search time
                from clp_core_ray.timestamps import parse_and_strip

                parsed = parse_and_strip(pc.fill_null(col, ""))
                ts_ms = parsed["ts_ms"]
                if pc.any(pc.is_valid(ts_ms)).as_py():
                    meta["ts_min"] = str(pc.min(ts_ms).as_py())
                    meta["ts_max"] = str(pc.max(ts_ms).as_py())
                    meta["ts_key"] = ts_path
                    meta["ts_string"] = "1"  # range unit: epoch ms (parsed)
                    t = t.append_column("\x00ts_ms", ts_ms)
        t = t.replace_schema_metadata({k: v for k, v in meta.items()})
        # schema id IS the file identity: atomic pid-tmp -> replace makes a
        # retried/speculative group task overwrite its own output and keeps
        # readers from ever seeing a torn table (state/atomic.py)
        from clp_core_ray.state.atomic import atomic_replace_table

        atomic_replace_table(
            t,
            os.path.join(out_dir, f"schema_{sid & 0xFFFFFFFFFFFFFFFF:016x}.parquet"),
            compression="zstd",
        )
        return pa.table({"schema_id": pa.array([sid]),
                         "n_records": pa.array([n_records])})

    acct = (
        assigned.groupby("schema_id")
        .map_groups(write_schema_table, batch_format="pyarrow")
        .to_pandas()
    )
    # job complete: sweep dead attempts' tmps (schema readers filter on the
    # .parquet suffix, but stale tmps pollute listings and size accounting)
    from clp_core_ray.pipelines.compress import sweep_inprogress

    sweep_inprogress(out_dir)
    schemas = dict(zip(acct.schema_id.astype(int), acct.n_records.astype(int)))
    with open(os.path.join(out_dir, SCHEMA_META), "w") as f:
        json.dump({str(k): int(v) for k, v in schemas.items()}, f)
    return schemas


# ---- decompress --------------------------------------------------------------


def _schema_files(out_dir: str) -> list[str]:
    """Schema-table sources of an archive dir OR a single-file archive
    (``.clpsfa``): plain paths for dirs, ``sfa::member`` tokens for SFAs —
    every consumer opens them through sfa.open_source (the
    ArchiveReaderAdaptor role), so search/decompress/index work unchanged
    on both layouts."""
    from clp_core_ray.pipelines.sfa import SfaReader, is_sfa, member_token

    if is_sfa(out_dir):
        return [member_token(out_dir, n) for n in SfaReader(out_dir).names()
                if n.startswith("schema_") and n.endswith(".parquet")]
    return [
        os.path.join(out_dir, f)
        for f in sorted(os.listdir(out_dir))
        if f.startswith("schema_") and f.endswith(".parquet")
    ]


def _decoded_view(t: pa.Table, meta: dict) -> pa.Table:
    """Schema table → logical view: ClpString leaves decoded back to text."""
    cols = {"log_event_idx": t.column("log_event_idx")}
    for safe in json.loads(meta.get("clp_encoded", "[]")):
        if f"{safe}\x00logtype" not in t.column_names:
            continue  # column-pruned read (projection): leaf not materialized
        text = decode_batch(
            t.column(f"{safe}\x00logtype"), t.column(f"{safe}\x00vars"),
            dict_vars=t.column(f"{safe}\x00dictvars"),
        )
        isnull = t.column(f"{safe}\x00isnull")
        cols[safe] = pc.if_else(isnull, pa.nulls(len(t), pa.large_string()), text)
    for name in t.column_names:
        if "\x00" not in name and name != "log_event_idx":
            cols[name] = t.column(name)
    # the parsed-string-timestamp helper column rides along for row-level time
    # predicates (never serialized back to JSON — see _serialize_schema_table)
    if "\x00ts_ms" in t.column_names:
        cols["\x00ts_ms"] = t.column("\x00ts_ms")
    return pa.table(cols)


def _json_escape_vec(arr: pa.Array):
    """Vectorized JSON string-escape; returns None if exotic control chars
    force the per-row fallback."""
    arr = arr.cast(pa.large_string())
    # exotic control chars or non-ASCII (json.dumps \uXXXX-escapes those) →
    # per-row fallback keeps byte-compatibility
    if pc.any(
        pc.match_substring_regex(arr, r"[\x00-\x08\x0b\x0c\x0e-\x1f]|[^\x00-\x7f]")
    ).as_py():
        return None
    for raw, esc in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                     ("\t", "\\t"), ("\r", "\\r")):
        arr = pc.replace_substring(arr, raw, esc)
    return arr


def _serialize_schema_table(view: pa.Table) -> pa.Array:
    """Rows → JSON lines (json.dumps(sort_keys=True)-compatible).

    Fast path: fixed present set per schema ⇒ one byte template with value
    slots, stitched by binary_join_element_wise. Floats / lists / exotic
    strings fall back to per-row json.dumps (identical output format).
    """
    paths = sorted(c for c in view.column_names
                   if c != "log_event_idx" and "\x00" not in c)
    n = len(view)

    Q = pa.scalar('"', type=pa.large_string())
    EMPTY = pa.scalar("", type=pa.large_string())

    def value_strings(col):
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        t = col.type
        if pa.types.is_boolean(t):
            return pc.if_else(
                col,
                pa.scalar("true", type=pa.large_string()),
                pa.scalar("false", type=pa.large_string()),
            )
        if pa.types.is_integer(t):
            return pc.cast(col, pa.large_string())
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            esc = _json_escape_vec(col)
            if esc is None:
                return None
            return pc.binary_join_element_wise(Q, esc, Q, EMPTY)
        return None  # float / list / struct → fallback

    vals = []
    for p in paths:
        v = value_strings(view.column(p))
        if v is None or (view.column(p).null_count or 0) > 0:
            vals = None
            break
        vals.append(v)

    if vals is not None:
        # template pieces around each value slot, nested by dotted path with
        # json.dumps' default separators (", ", ": ")
        templ = _json_template(paths)
        if templ is None:
            vals = None

    if vals is not None:
        pieces, slot_order = templ
        parts: list = []
        for i, piece in enumerate(pieces[:-1]):
            parts.append(pa.array([piece] * n, type=pa.large_string()))
            parts.append(vals[slot_order[i]])
        parts.append(pa.array([pieces[-1]] * n, type=pa.large_string()))
        parts.append(pa.scalar("", type=pa.large_string()))  # join separator
        return pc.binary_join_element_wise(*parts)

    # fallback: per-row assembly (runs inside the worker task, never driver)
    pylists = {p: view.column(p).to_pylist() for p in paths}
    out = []
    for i in range(n):
        obj: dict = {}
        for path in paths:
            v = pylists[path][i]
            if v is None:
                continue
            parts_ = path.split(".")
            cur = obj
            for q in parts_[:-1]:
                cur = cur.setdefault(q, {})
            cur[parts_[-1]] = v
        out.append(json.dumps(obj, sort_keys=True))
    return pa.array(out, type=pa.large_string())


def _json_template(paths: list[str]):
    """(pieces, slot_order): byte pieces around the value slots plus the
    path-index each slot takes, matching json.dumps(obj, sort_keys=True)
    byte-for-byte. Slot order is read back from the rendered template (nested
    sort order need not equal dotted-path sort order). Returns None (→
    per-row fallback) if a key collides with the sentinel syntax."""
    import re as _re

    obj: dict = {}
    for i, p in enumerate(paths):
        parts = p.split(".")
        cur = obj
        for q in parts[:-1]:
            cur = cur.setdefault(q, {})
            if not isinstance(cur, dict):
                return None
        cur[parts[-1]] = f"~SLOT{i}~"
    rendered = json.dumps(obj, sort_keys=True)
    sp = _re.split(r'"~SLOT(\d+)~"', rendered)
    pieces, slot_order = sp[0::2], [int(x) for x in sp[1::2]]
    if len(slot_order) != len(paths) or sorted(slot_order) != list(range(len(paths))):
        return None
    return pieces, slot_order


def clps_decompress(out_dir: str, ordered: bool = True):
    """Archive → Dataset[(log_event_idx, json)] (K5, JsonConstructor.cpp).

    One map task per schema file decodes ClpStrings and serializes records;
    ``ordered=True`` adds the k-way-merge-equivalent Dataset sort."""
    import ray.data as rd

    files = _schema_files(out_dir)

    def rebuild(batch: pa.Table) -> pa.Table:
        tbls = []
        from clp_core_ray.pipelines.sfa import open_source

        for path in batch.column("path").to_pylist():
            t = pq.read_table(open_source(path))
            meta = {k.decode(): v.decode() for k, v in (t.schema.metadata or {}).items()}
            view = _decoded_view(t, meta)
            js = _serialize_schema_table(view)
            tbls.append(pa.table({
                "log_event_idx": view.column("log_event_idx").combine_chunks(),
                "json": js,
            }))
        return pa.concat_tables(tbls) if tbls else pa.table(
            {"log_event_idx": pa.array([], type=pa.int64()),
             "json": pa.array([], type=pa.large_string())})

    ds = rd.from_items([{"path": f} for f in files]).map_batches(
        rebuild, batch_format="pyarrow"
    )
    if ordered:
        ds = ds.sort("log_event_idx")
    return ds


def clps_extract_ordered_chunks(out_dir: str, dest_dir: str,
                                target_chunk_bytes: int,
                                stream_id: str | None = None) -> list[dict]:
    """``clp-s x --ordered --target-ordered-chunk-size`` parity
    (JsonConstructor::construct_in_order, JsonConstructor.cpp:63-171).

    Greedy record-level chunking over the ordered stream: a chunk closes at
    the FIRST record that brings its byte count (json line + ``\\n``) to
    >= target; files are named ``<stream_id>_<first_idx>_<last_idx+1>.jsonl``
    (end exclusive, FileWriter rename at JsonConstructor.cpp:99-107) and the
    returned manifest rows mirror the results-cache metadata document
    (path / stream_id / begin_msg_ix / end_msg_ix / is_last_chunk,
    JsonConstructor.cpp:109-133); the manifest is also written to
    ``chunks.json`` in ``dest_dir``.

    Distributed shape — the serialized stream never lands on the driver:

    1. decode+serialize once (``clps_decompress``), sort, and STAGE each
       block as a parquet part carrying (log_event_idx, json, nbytes);
       the stage task returns one summary row (idx range, total bytes).
    2. the driver walks the greedy boundaries over batch byte totals and
       opens the ``nbytes`` column of ONLY the ~one staged part containing
       each boundary (O(#chunks) small column-pruned reads).
    3. boundaries broadcast; each record maps to its chunk by searchsorted
       and one ``map_groups`` task per chunk writes its file.
    """
    import shutil

    import ray.data as rd

    os.makedirs(dest_dir, exist_ok=True)
    stream = stream_id or os.path.basename(os.path.normpath(out_dir))
    stage_dir = os.path.join(dest_dir, "_ordered_stage")
    shutil.rmtree(stage_dir, ignore_errors=True)
    os.makedirs(stage_dir)

    def stage(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"first_idx": pa.array([], type=pa.int64()),
                             "last_idx": pa.array([], type=pa.int64()),
                             "total_bytes": pa.array([], type=pa.int64()),
                             "path": pa.array([], type=pa.string())})
        # +1 per record: the written newline counts toward the chunk size
        nbytes = pc.add(pc.binary_length(batch.column("json")), 1)
        first = pc.min(batch.column("log_event_idx")).as_py()
        last = pc.max(batch.column("log_event_idx")).as_py()
        t = batch.append_column("nbytes", pc.cast(nbytes, pa.int64()))
        from clp_core_ray.state.atomic import atomic_replace_table

        path = os.path.join(stage_dir, f"part_{first:020d}.parquet")
        atomic_replace_table(t, path, compression="zstd")
        return pa.table({"first_idx": pa.array([first], type=pa.int64()),
                         "last_idx": pa.array([last], type=pa.int64()),
                         "total_bytes": pa.array(
                             [int(pc.sum(nbytes).as_py())], type=pa.int64()),
                         "path": pa.array([path], type=pa.string())})

    summaries = (
        clps_decompress(out_dir, ordered=True)
        .map_batches(stage, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    manifest: list[dict] = []
    if len(summaries) == 0 or target_chunk_bytes is None:
        shutil.rmtree(stage_dir, ignore_errors=True)
        return manifest
    summaries = summaries.sort_values("first_idx").reset_index(drop=True)

    # ---- driver greedy walk: record-exact boundaries, lazy length reads
    boundaries: list[int] = []  # inclusive last log_event_idx per closed chunk
    carry = 0  # bytes already in the open chunk
    for _, s in summaries.iterrows():
        if carry + int(s.total_bytes) < target_chunk_bytes:
            carry += int(s.total_bytes)
            continue
        part = pq.read_table(s.path, columns=["log_event_idx", "nbytes"])
        idx = part.column("log_event_idx").to_numpy()
        cum = carry + np.cumsum(part.column("nbytes").to_numpy())
        base = 0
        while True:
            pos = int(np.searchsorted(cum[base:], target_chunk_bytes)) + base
            if pos >= cum.size:
                carry = int(cum[-1]) if cum.size > base else 0
                if base:
                    carry = int(cum[-1] - cum[base - 1])
                break
            boundaries.append(int(idx[pos]))
            cum = cum - cum[pos]
            base = pos + 1
            if base >= cum.size:
                carry = 0
                break
    n_chunks = len(boundaries) + (1 if carry > 0 else 0)
    if n_chunks == 0:
        shutil.rmtree(stage_dir, ignore_errors=True)
        return manifest
    bounds = np.asarray(boundaries, dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        cid = np.searchsorted(bounds,
                              batch.column("log_event_idx").to_numpy(),
                              side="left")
        return batch.append_column("chunk_id",
                                   pa.array(cid, type=pa.int64()))

    def write_chunk(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group.column("log_event_idx"))
        g = group.take(order)
        first = g.column("log_event_idx")[0].as_py()
        last = g.column("log_event_idx")[g.num_rows - 1].as_py()
        name = f"{stream}_{first}_{last + 1}.jsonl"
        lines = pc.binary_join_element_wise(
            pc.cast(g.column("json").combine_chunks(), pa.large_string()),
            pa.scalar("", type=pa.large_string()),
            pa.scalar("\n", type=pa.large_string()))
        offs = np.frombuffer(lines.buffers()[1], dtype=np.int64)
        lo = int(offs[lines.offset])
        hi = int(offs[lines.offset + len(lines)])
        with open(os.path.join(dest_dir, name), "wb") as f:
            f.write(memoryview(lines.buffers()[2])[lo:hi])
        cid = int(g.column("chunk_id")[0].as_py())
        return pa.table({
            "path": pa.array([name]),
            "stream_id": pa.array([stream]),
            "begin_msg_ix": pa.array([first], type=pa.int64()),
            "end_msg_ix": pa.array([last + 1], type=pa.int64()),
            "is_last_chunk": pa.array([cid == n_chunks - 1]),
            "nbytes": pa.array(
                [int(pc.sum(pc.add(pc.binary_length(g.column("json")), 1))
                     .as_py())], type=pa.int64()),
        })

    rows = (
        rd.read_parquet(stage_dir, file_extensions=["parquet"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("chunk_id")
        .map_groups(write_chunk, batch_format="pyarrow")
        .to_pandas()
    )
    shutil.rmtree(stage_dir, ignore_errors=True)
    manifest = rows.sort_values("begin_msg_ix").to_dict("records")
    for m in manifest:
        m["is_last_chunk"] = bool(m["is_last_chunk"])
    with open(os.path.join(dest_dir, "chunks.json"), "w") as f:
        json.dump(manifest, f, default=str)
    return manifest


def clps_compress_from_kv_ir(paths, out_dir: str,
                             timestamp_key: str | None = None) -> dict:
    """Ingest structured key-value IR streams into a clp_s archive
    (JsonParser::parse_from_ir, clp_s/JsonParser.hpp:83): deserialize the
    KV-IR events back to records, then run the normal per-schema columnar
    compression. The auto-gen ``log_event_idx`` keeps the global order."""
    from clp_core_ray.ir_kv import read_kv_ir

    src = read_kv_ir(paths).map_batches(
        lambda b: pa.table({"log_event_idx": b.column("log_event_idx"),
                            "raw": b.column("json")}),
        batch_format="pyarrow",
    )
    return clps_compress(src, out_dir, timestamp_key=timestamp_key)


# ---- archive splitting ---------------------------------------------------
#
# clp_s rolls to a new archive when the in-flight encoded size reaches
# --target-encoded-size (JsonParser.cpp:570-575,918 split_archive;
# CommandLineArguments.cpp:219-221). Re-expressed for the Dataset shape:
# the input is packed into record-count-bounded groups up front (footer /
# length metadata only — no data read), and each group compresses into a
# self-contained sub-archive with its own schema tables + schemas.json.
# Search and reconstruction iterate sub-archives, pruning by each archive's
# aggregated timestamp range before opening any schema table.

ARCHIVES_META = "archives.json"
DEFAULT_ARCHIVE_RECORDS = 1_000_000


def _archive_ts_range(archive_dir: str):
    """(ts_min, ts_max) over the archive's schema-table footers, or None."""
    lo = hi = None
    from clp_core_ray.pipelines.sfa import open_source

    for f in _schema_files(archive_dir):
        md = pq.ParquetFile(open_source(f)).schema_arrow.metadata or {}
        if b"ts_min" not in md:
            continue
        mn, mx = int(md[b"ts_min"].decode()), int(md[b"ts_max"].decode())
        lo = mn if lo is None else min(lo, mn)
        hi = mx if hi is None else max(hi, mx)
    return None if lo is None else (lo, hi)


def clps_compress_split(source, base_dir: str, timestamp_key: str | None = None,
                        max_records: int = DEFAULT_ARCHIVE_RECORDS) -> dict:
    """Compress NDJSON into record-count-bounded sub-archives.

    ``source``: a list of lines, NDJSON file path(s), or a parquet column
    spec ``(path_or_dir, column)``. Returns the archives.json manifest dict
    {archive_name: {n_records, ts_min, ts_max}}.
    """
    os.makedirs(base_dir, exist_ok=True)
    groups: list = []

    if isinstance(source, list) and all(isinstance(x, str) for x in source) \
            and source and source[0].lstrip().startswith("{"):
        # in-memory lines: chunk directly, carrying the global record index
        for i in range(0, len(source), max_records):
            groups.append(("lines", i, source[i:i + max_records]))
    elif isinstance(source, tuple) and len(source) == 2:
        # (parquet path/dir, column): pack row-group SLICES by footer row
        # counts (a row group bigger than the cap splits into index slices —
        # planning stays metadata-only, tasks slice after the read)
        path_or_dir, column = source
        items: list[tuple[str, int, int, int, int]] = []
        for fi, f in enumerate(sorted(_parquet_files(path_or_dir))):
            md = pq.ParquetFile(f).metadata
            base = 0
            for rg in range(md.num_row_groups):
                n = md.row_group(rg).num_rows
                for off in range(0, n, max_records):
                    ln = min(max_records, n - off)
                    items.append((f, rg, (fi << _FILE_SHIFT) + base + off,
                                  off, ln))
                base += n
        cur: list = []
        cur_n = 0
        for it in items:
            if cur and cur_n + it[4] > max_records:
                groups.append(("rg", column, cur))
                cur, cur_n = [], 0
            cur.append(it)
            cur_n += it[4]
        if cur:
            groups.append(("rg", column, cur))
    else:
        # NDJSON file path(s): one group per cumulative byte budget; each
        # file keeps its GLOBAL sequence so log_event_idx stays unique
        paths = [source] if isinstance(source, str) else list(source)
        budget = max_records * 256  # ~bytes per record heuristic
        cur, cur_b = [], 0
        for seq, p in enumerate(sorted(paths)):
            sz = os.path.getsize(p)
            if cur and cur_b + sz > budget:
                groups.append(("files", cur))
                cur, cur_b = [], 0
            cur.append((seq, p))
            cur_b += sz
        if cur:
            groups.append(("files", cur))

    import ray.data as rd

    manifest: dict = {}
    for i, g in enumerate(groups):
        name = f"archive_{i:04d}"
        adir = os.path.join(base_dir, name)
        # resume: a sub-archive whose schema map exists is complete (the map
        # is written LAST by clps_compress) — reruns skip it and only
        # unfinished archives recompress (the fragment-resume model,
        # state/manifest.pending_fragments)
        if os.path.exists(os.path.join(adir, SCHEMA_META)):
            with open(os.path.join(adir, SCHEMA_META)) as f:
                done_counts = json.load(f)
            rng = _archive_ts_range(adir)
            manifest[name] = {
                "n_records": int(sum(done_counts.values())),
                **({"ts_min": rng[0], "ts_max": rng[1]} if rng else {}),
            }
            continue
        kind = g[0]
        if kind == "rg":
            _, column, items = g

            def read(batch: pa.Table, _column=column) -> pa.Table:
                tbls = []
                for path, rg, base, off, ln in zip(
                    batch.column("path").to_pylist(),
                    batch.column("rg").to_pylist(),
                    batch.column("base").to_pylist(),
                    batch.column("off").to_pylist(),
                    batch.column("ln").to_pylist(),
                ):
                    t = pq.ParquetFile(path).read_row_group(
                        rg, columns=[_column]
                    ).slice(off, ln)
                    idx = np.arange(len(t), dtype=np.int64) + base
                    tbls.append(pa.table({
                        "log_event_idx": pa.array(idx),
                        "raw": t.column(_column).combine_chunks().cast(
                            pa.large_string()),
                    }))
                return pa.concat_tables(tbls)

            src = rd.from_items(
                [{"path": f, "rg": rg, "base": b, "off": o, "ln": ln}
                 for f, rg, b, o, ln in items]
            ).map_batches(read, batch_format="pyarrow")
        elif kind == "lines":
            _, start, chunk = g
            src = rd.from_arrow(pa.table({
                "log_event_idx": pa.array(
                    np.arange(start, start + len(chunk), dtype=np.int64)),
                "raw": pa.array(chunk, type=pa.large_string()),
            }))
        else:  # files
            _, seq_paths = g

            def read_files(batch: pa.Table) -> pa.Table:
                tbls = []
                for path, seq in zip(batch.column("path").to_pylist(),
                                     batch.column("seq").to_pylist()):
                    with open(path, "rb") as f:
                        ls = [ln for ln in f.read().splitlines() if ln.strip()]
                    idx = np.arange(len(ls), dtype=np.int64) + (seq << _FILE_SHIFT)
                    tbls.append(pa.table({
                        "log_event_idx": pa.array(idx),
                        "raw": pa.array([ln.decode() for ln in ls],
                                        type=pa.large_string()),
                    }))
                return pa.concat_tables(tbls)

            src = rd.from_items(
                [{"path": p, "seq": s} for s, p in seq_paths]
            ).map_batches(read_files, batch_format="pyarrow")
        # an incomplete (crashed) archive dir restarts clean — no stale
        # schema tables can survive into the rerun
        import shutil

        shutil.rmtree(adir, ignore_errors=True)
        counts = clps_compress(src, adir, timestamp_key=timestamp_key)
        rng = _archive_ts_range(adir)
        manifest[name] = {
            "n_records": int(sum(counts.values())),
            **({"ts_min": rng[0], "ts_max": rng[1]} if rng else {}),
        }
    with open(os.path.join(base_dir, ARCHIVES_META), "w") as f:
        json.dump(manifest, f)
    return manifest


def select_split_archives(base_dir: str,
                          ts_range: tuple[float, float] | None = None) -> list[str]:
    """Sub-archive dirs whose manifest time range intersects ``ts_range``
    (unknown range → keep, clg's conservative selection semantics)."""
    with open(os.path.join(base_dir, ARCHIVES_META)) as f:
        manifest = json.load(f)
    keep = []
    for name in sorted(manifest):
        m = manifest[name]
        if ts_range is not None and "ts_min" in m:
            lo, hi = ts_range
            if m["ts_max"] < lo or m["ts_min"] > hi:
                continue
        keep.append(os.path.join(base_dir, name))
    return keep


def clps_search_split(base_dir: str, query: str,
                      ts_range: tuple[float, float] | None = None,
                      projection: list[str] | None = None):
    """KQL search across a split archive set → one union Dataset.

    Archive-level pruning happens on the manifest (no footer reads for
    skipped archives); surviving archives then prune per schema table as
    usual (EvaluateTimestampIndex at both granularities)."""
    from clp_core_ray.functions.filters import clps_search

    dirs = select_split_archives(base_dir, ts_range)
    if not dirs:
        import ray.data as rd

        return rd.from_arrow(pa.table(
            {"log_event_idx": pa.array([], type=pa.int64()),
             "json": pa.array([], type=pa.large_string())}))
    parts = [clps_search(d, query, ts_range=ts_range, projection=projection)
             for d in dirs]
    out = parts[0]
    return out.union(*parts[1:]) if len(parts) > 1 else out


def clps_decompress_split(base_dir: str, ordered: bool = True):
    """Reconstruct all sub-archives → Dataset[(log_event_idx, json)]."""
    dirs = select_split_archives(base_dir)
    parts = [clps_decompress(d, ordered=False) for d in dirs]
    out = parts[0]
    if len(parts) > 1:
        out = out.union(*parts[1:])
    return out.sort("log_event_idx") if ordered else out


def schema_counts(out_dir: str) -> pa.Table:
    """A5: per-schema record counts from the schema map."""
    from clp_core_ray.pipelines.sfa import read_member_json

    m = read_member_json(out_dir, SCHEMA_META)
    ks = sorted(m, key=int)
    return pa.table(
        {"schema_id": pa.array([int(k) for k in ks], type=pa.int64()),
         "n_records": pa.array([m[k] for k in ks], type=pa.int64())}
    )


_TYPE_TAIL = re.compile(r"^(.*):((?:bool|int|float|str)|list<.*>|\{.*\})$")


def clps_field_index(out_dir: str) -> pa.Table:
    """Column-metadata index of an archive: (field_path, type, n_records).

    The clp_s indexer role (indexer/IndexManager.hpp:12-24): walk each
    archive schema root→leaf, emit dot-joined leaf paths with their types so
    a SQL engine can resolve column metadata across archives. Here the walk
    already happened at compress time — each schema table's footer carries
    its sorted (path:type) set and schemas.json its record count — so the
    index is a footer-only aggregation, no data read. Divergence from the
    reference: array-typed leaves are indexed with a list<...> type instead
    of being skipped (IndexManager indexes primitive leaves only).
    """
    from clp_core_ray.pipelines.sfa import open_source, read_member_json

    counts = {int(k): int(v)
              for k, v in read_member_json(out_dir, SCHEMA_META).items()}
    agg: dict[tuple[str, str], int] = {}
    for f_ in _schema_files(out_dir):
        md = pq.ParquetFile(open_source(f_)).schema_arrow.metadata or {}
        sid = int(md.get(b"schema_id", b"0").decode())
        key = json.loads(md.get(b"schema_key", b"[]").decode())
        n = counts.get(sid, 0)
        for entry in key:
            m = _TYPE_TAIL.match(entry)
            path, typ = (m.group(1), m.group(2)) if m else (entry, "str")
            k = (path, typ)
            agg[k] = agg.get(k, 0) + n
    items = sorted(agg.items())
    return pa.table(
        {"field_path": pa.array([p for (p, _), _ in items], type=pa.string()),
         "type": pa.array([t for (_, t), _ in items], type=pa.string()),
         "n_records": pa.array([n for _, n in items], type=pa.int64())}
    )


def clps_search_kv_ir(paths, query: str):
    """KQL directly over KV-IR streams — no archive in between (the
    in-flight filter a log viewer applies to IR chunks; the reference
    searches only archives, clp_s/search/*, so IR-stream search is this
    repo's extension). Per batch: parse the canonical JSON back to nested
    Arrow, flatten to dotted leaves, and evaluate the DNF with the same
    ``eval_dnf`` kernel the archive scan uses. Returns
    Dataset[(log_event_idx, json)] of hits."""
    from clp_core_ray.functions.filters import eval_dnf, parse_kql, to_dnf
    from clp_core_ray.ir_kv import read_kv_ir

    dnf = to_dnf(parse_kql(query))

    def filt(batch: pa.Table) -> pa.Table:
        lines = batch.column("json").to_pylist()
        flat = pa.table(_flatten(_parse_lines(lines)))
        mask = eval_dnf(flat, dnf)
        return batch.filter(mask)

    return read_kv_ir(paths).map_batches(filt, batch_format="pyarrow") \
        .select_columns(["log_event_idx", "json"])
