"""Decompression: archive → original turn text (clp x, K4/K5 in SURVEY.md).

Mirrors FileDecompressor (clp/FileDecompressor.cpp:9-76): open the encoded
columns, decode each message through the dictionaries, and emit text; ordered
reconstruction is a sort by (conv_id, turn_idx) — the rebuild's analogue of
clp_s's k-way merge by log_event_idx (JsonConstructor.cpp:63-160).

``load_dicts`` is the one reader of an archive's dictionaries (the
DictionaryReader role, clg.cpp:176-199): decode, search, IR extraction,
merge and ``dictdump`` all take its ``ArchiveDicts``, loaded once per call.
An archive decodes on one of two sides, chosen by its
sink bytes through ``execution.choose`` (``LOCAL_DECODE_BYTES`` for
decompress and IR extraction, ``LOCAL_TEXT_EXTRACT_BYTES`` for text
extraction). At or under it the archive decodes in the calling process, as
``clp x``'s FileDecompressor does: pyarrow reads the sinks and the decode
stage runs over 32K-row slices, with no Ray job. Above it the decode is a
Ray Data job with the dictionaries broadcast via ray.put. A var dictionary
over ``execution.DICT_BROADCAST_BYTES`` always decodes on Ray, by a
partitioned join.

IR extraction decodes nothing: ``ir.ArchiveIrStage`` writes each IR event
from the encoded columns and the dictionaries, on either side, with the
same read → stage shape as the decode.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from clp_core_ray import encoding as E
from clp_core_ray import execution
from clp_core_ray.execution import choose
from clp_core_ray.vec.decoder import decode_batch

_DECODE_BATCH = 32 * 1024  # rows per decode stage call, either side


def lookup(sorted_ids: np.ndarray, need, what: str) -> np.ndarray:
    """Positions of the ids ``need`` in ``sorted_ids``; ``KeyError`` when
    one is missing (a row the dictionary cannot decode)."""
    need = np.asarray(need, dtype=np.int64)
    pos = np.searchsorted(sorted_ids, need)
    pos[pos >= len(sorted_ids)] = 0
    if len(need) and (not len(sorted_ids)
                      or not np.array_equal(sorted_ids[pos], need)):
        raise KeyError(f"{what} id missing from the archive dictionary")
    return pos


class ArchiveDicts(NamedTuple):
    """An archive's dictionaries as :func:`load_dicts` reads them: each
    side's ids sorted (int64) with its columns aligned to them."""
    lt_ids: np.ndarray
    lt_values: pa.Array            # templates
    var_ids: np.ndarray | None     # var side None when not read
    var_values: pa.Array | None
    var_classes: pa.Array | None   # the ``classes`` segment index, if read
    by_class: dict | None          # class → logtype ids; None when absent
    var_files: list                # the var.dict parts
    nbytes: int

    def templates(self, logtype_ids) -> pa.Array:
        """The logtype template of each id (``KeyError`` on a miss)."""
        return self.lt_values.take(lookup(self.lt_ids, logtype_ids,
                                          "logtype"))


def var_dict_files(archive_dir: str) -> list[str]:
    """The archive's var.dict parts, sorted."""
    vdir = os.path.join(archive_dir, "var.dict")
    return [os.path.join(vdir, f) for f in sorted(os.listdir(vdir))
            if f.endswith(".parquet")]


def load_dicts(archive_dir: str, var_columns=("var_id", "value")):
    """The one reader of ``logtype.dict.parquet``, ``var.dict/`` and
    ``class_logtypes.json`` → :class:`ArchiveDicts`.

    The var side reads ``var_columns`` (every column when None; ask for
    ``classes`` to get the segment index), and is not read when
    ``var_columns`` is empty. Ids are sorted so every consumer resolves
    them with one binary search (:func:`lookup`)."""
    ldict = pq.read_table(os.path.join(archive_dir, "logtype.dict.parquet"),
                          columns=["logtype_id", "logtype"])
    order = pa.array(np.argsort(np.asarray(ldict.column("logtype_id"),
                                           dtype=np.int64), kind="stable"))
    ldict = ldict.take(order)
    lt_ids = np.asarray(ldict.column("logtype_id"), dtype=np.int64)
    idx_path = os.path.join(archive_dir, "class_logtypes.json")
    by_class = None
    if os.path.exists(idx_path):
        with open(idx_path) as f:
            by_class = json.load(f)
    vfiles = var_dict_files(archive_dir)
    var = (None, None, None)
    nbytes = ldict.nbytes
    if var_columns is None or var_columns:
        vdict = pa.concat_tables(
            pq.read_table(f, columns=None if var_columns is None
                          else list(var_columns)) for f in vfiles
        ).sort_by("var_id")
        var = (np.asarray(vdict.column("var_id"), dtype=np.int64),
               vdict.column("value").combine_chunks(),
               vdict.column("classes").combine_chunks()
               if "classes" in vdict.column_names else None)
        nbytes += vdict.nbytes
    return ArchiveDicts(lt_ids, ldict.column("logtype").combine_chunks(),
                        *var, by_class, vfiles, nbytes)


def resolve(x):
    """``x`` itself, or the object it points to when it is a Ray ref (a
    zero-copy plasma get inside a task)."""
    import ray

    return ray.get(x) if isinstance(x, ray.ObjectRef) else x


class ArchiveDecodeStage:
    """Decode for compact archives (T3): resolves logtype templates by id,
    then decodes encoded_vars through the var dictionary.

    ``dicts`` is the ``load_dicts`` result itself when the stage runs in the
    calling process, or a plasma ref to it inside a Ray task, resolved
    lazily on the first batch (:func:`resolve`).
    Stateless tasks let the streaming executor fuse read → decode into ONE
    task per block; an actor pool here would de-fuse the chain and ship
    every encoded block through the object store to reach the actor
    (measured 2× wall on the compress side for the same pattern).
    """

    def __init__(self, dicts, out_col: str = "text"):
        self.dicts = dicts
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = self.dicts = resolve(self.dicts)
        decoded = decode_batch(
            d.templates(batch.column("logtype_id")),
            batch.column("encoded_vars"),
            dict_ids=d.var_ids,
            dict_values=d.var_values,
        )
        return batch.append_column(self.out_col, decoded)


def _vardict_uncompressed_bytes(archive_dir: str) -> int:
    """Footer-only estimate of the var dict's in-memory size (no data read),
    measured against ``execution.DICT_BROADCAST_BYTES``."""
    total = 0
    for f in var_dict_files(archive_dir):
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            total += md.row_group(rg).total_byte_size
    return total


def _over_broadcast_cap(archive_dir: str) -> bool:
    return (_vardict_uncompressed_bytes(archive_dir)
            > execution.DICT_BROADCAST_BYTES)


def _sink_files(routed: str) -> list[str]:
    """Every sink file under ``routed``, sorted. *.parquet only: a dead
    task attempt's *.inprogress tmp (swept by compress(), but a reader may
    race a crashed job) must never reach the parquet reader."""
    return sorted(os.path.join(root, f) for root, _, files in os.walk(routed)
                  for f in files if f.endswith(".parquet"))


def first_parquet(routed: str) -> str | None:
    """The first sink file under ``routed`` (it carries the archive's sink
    schema), or None when the archive holds no sink file."""
    files = _sink_files(routed)
    return files[0] if files else None


#: Column types of the transcript row model, for the 0-row result of an
#: archive without sink files (there is no footer to read them from).
_ROW_TYPES = {"conv_id": pa.string(), "turn_idx": pa.int32(),
              "role": pa.string(), "tool": pa.string(),
              "ts": pa.timestamp("us"), "text": pa.large_string()}


def decompress(archive_dir: str, columns=("conv_id", "turn_idx"), ordered: bool = False,
               prefilter=None):
    """Dataset[(…columns, text)] reconstructed from the archive; an archive
    decoded in process comes back as one ``rd.from_arrow`` block.

    ``prefilter`` (batch→batch over the raw encoded rows) runs BEFORE the
    decode stage, so callers that only need a row subset (e.g. context
    extraction around search matches) never pay decode for pruned rows."""
    import ray.data as rd

    out = _decode(archive_dir, columns, ordered, prefilter)
    return rd.from_arrow(out) if isinstance(out, pa.Table) else out


def _decode(archive_dir: str, columns, ordered: bool = False, prefilter=None,
            stage: str = "decode"):
    """The archive's rows as (…columns, text): a ``pa.Table`` decoded in
    this process when ``execution.choose(stage, sink bytes)`` says so and
    the var dict is under the broadcast cap, else a lazy Ray Dataset."""
    files = _sink_files(os.path.join(archive_dir, "routed"))
    if not files:  # an empty input wrote no sink file
        return pa.schema(
            [(c, _ROW_TYPES.get(c, pa.null())) for c in [*columns, "text"]]
        ).empty_table()
    need = list(columns) + ["logtype_id", "encoded_vars"]
    over_cap = _over_broadcast_cap(archive_dir)
    if not over_cap and choose(
            stage, sum(os.path.getsize(f) for f in files)) == "local":
        return _decode_local(archive_dir, files, need, columns, ordered,
                             prefilter)
    return _decode_ray(archive_dir, need, over_cap, columns, ordered,
                       prefilter)


def _read_sinks(files: list[str], need: list[str]) -> pa.Table:
    """The ``need`` columns of every sink file, read by pyarrow into one
    table (no Ray job)."""
    return pa.concat_tables(
        (pq.read_table(f, columns=need, partitioning=None) for f in files),
        promote_options="permissive").combine_chunks()


def _decode_local(archive_dir: str, files: list[str], need: list[str],
                  columns, ordered: bool, prefilter) -> pa.Table:
    """Decode in the calling process: pyarrow reads the sinks, then
    ``prefilter`` and the decode stage run over 32K-row slices."""
    stage = ArchiveDecodeStage(load_dicts(archive_dir))
    t = _read_sinks(files, need)
    keep = [*columns, "text"]
    parts = []
    # one slice even of 0 rows: its decode gives the output schema
    for o in range(0, t.num_rows or 1, _DECODE_BATCH):
        b = t.slice(o, _DECODE_BATCH)
        if prefilter is not None:
            b = prefilter(b)
        parts.append(stage(b).select(keep))
    out = pa.concat_tables(parts)
    return out.sort_by([(c, "ascending") for c in columns]) if ordered else out


def _decode_ray(archive_dir: str, need: list[str], over_cap: bool, columns,
                ordered: bool, prefilter):
    """Decode as a Ray Data job → lazy Dataset: the dictionaries broadcast
    via ray.put, or, over the broadcast cap, the partitioned join."""
    import ray
    import ray.data as rd

    if over_cap:
        # join keys for the partitioned fallback ride the read
        need += [c for c in ("conv_id", "turn_idx") if c not in need]
    ds = rd.read_parquet(os.path.join(archive_dir, "routed"), columns=need,
                         file_extensions=["parquet"])
    if prefilter is not None:
        ds = ds.map_batches(prefilter, batch_format="pyarrow")

    if over_cap:
        out = _decode_partitioned(ds, load_dicts(archive_dir, var_columns=()))
    else:
        out = ds.map_batches(
            ArchiveDecodeStage(ray.put(load_dicts(archive_dir))),
            batch_format="pyarrow",
            batch_size=_DECODE_BATCH,
        )
    out = out.map_batches(
        lambda b: b.select(list(columns) + ["text"]), batch_format="pyarrow"
    )
    if ordered:
        out = out.sort(list(columns))
    return out


def _decode_partitioned(ds, dicts: ArchiveDicts):
    """Over-cap decode (SURVEY §2.4 J2 fallback): resolve dictionary
    variables by a HASH-PARTITIONED join of encoded rows against the
    var-dict Dataset instead of a plasma broadcast — the path for var
    dictionaries too large for a worker heap.

    Two bounded-bucket exchanges, all-vectorized inside each group:

    1. Explode each row's dict-var slots to (rowkey, slot, var_id); union
       with the var-dict Dataset tagged by side; bucket on var_id hash;
       per bucket one argsort + searchsorted resolves every slot. Only the
       dict SHARD for a bucket is ever resident — never the whole dict.
    2. Union resolved slots with the encoded rows; bucket on conv_id hash;
       per bucket sort both sides by (conv_id, turn_idx[, slot]), fold the
       values into an aligned ``list<string>`` per row, and decode with
       ``decode_batch(dict_vars=...)``.

    Relies on the flagship archive invariant that (conv_id, turn_idx) is
    unique per row (the same stable ordering key the reconstruction sort
    uses). ``dicts`` is ``load_dicts`` without the var side: the logtype
    dict (templates only, always small) still broadcasts, and the var-dict
    Dataset reads its ``var_files``. Costs one extra read of the encoded
    columns plus two shuffles — the price of not broadcasting; activated
    only above ``execution.DICT_BROADCAST_BYTES``."""
    import ray
    import ray.data as rd

    from clp_core_ray.pipelines.temporal import _key_and_bucket
    from clp_core_ray.pipelines.windows import scaled_buckets
    from clp_core_ray.vec.decoder import (_cumsum0, _list_flat,
                                          placeholder_kinds)

    nb = scaled_buckets()
    lt_ref = ray.put(dicts)
    schema = ds.schema()
    row_cols = list(schema.names)
    row_types = dict(zip(schema.names, schema.types))

    def _dict_counts_slots(templates: pa.Array):
        """Each var's dict flag, each row's dict-var count and each dict
        var's slot, from the placeholders of the rows' templates."""
        offsets, kinds = placeholder_kinds(templates)
        is_dict = kinds == E.VT_DICT
        cs = _cumsum0(is_dict.astype(np.int64))
        cnts = np.diff(cs[offsets])
        starts = _cumsum0(cnts)[:-1]
        slots = np.arange(int(cnts.sum()), dtype=np.int64) - np.repeat(
            starts, cnts)
        return is_dict, cnts, slots

    # ---- stage 1: slot resolution via var_id-hash buckets ----------------
    def explode(b: pa.Table) -> pa.Table:
        is_dict, cnts, slots = _dict_counts_slots(
            resolve(lt_ref).templates(b.column("logtype_id")))
        _, ev_flat = _list_flat(b.column("encoded_vars"))
        need_ids = np.asarray(ev_flat, dtype=np.int64)[is_dict]
        conv = pc.take(b.column("conv_id").combine_chunks(),
                       pa.array(np.repeat(np.arange(b.num_rows), cnts)))
        turn = pc.take(b.column("turn_idx").combine_chunks(),
                       pa.array(np.repeat(np.arange(b.num_rows), cnts)))
        t = pa.table({
            "conv_id": conv, "turn_idx": turn,
            "_slot": pa.array(slots), "var_id": pa.array(need_ids),
            "value": pa.nulls(len(need_ids), type=pa.large_string()),
            "_side": pa.array(np.ones(len(need_ids), dtype=np.int8))})
        _, jb = _key_and_bucket(t.column("var_id"), nb)
        return t.append_column("_jb", jb)

    def dict_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        t = pa.table({
            "conv_id": pa.nulls(n, type=row_types["conv_id"]),
            "turn_idx": pa.nulls(n, type=row_types["turn_idx"]),
            "_slot": pa.nulls(n, type=pa.int64()),
            "var_id": b.column("var_id"),
            "value": b.column("value").combine_chunks().cast(
                pa.large_string()),
            "_side": pa.array(np.zeros(n, dtype=np.int8))})
        _, jb = _key_and_bucket(t.column("var_id"), nb)
        return t.append_column("_jb", jb)

    vds = rd.read_parquet(dicts.var_files, columns=["var_id", "value"])

    def resolve_slots(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("_side"), dtype=np.int8)
        dic = g.filter(pa.array(side == 0))
        slot = g.filter(pa.array(side == 1))
        ids = np.asarray(dic.column("var_id"), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        pos = lookup(ids[order], slot.column("var_id"), "var")
        vals = pc.take(dic.column("value").combine_chunks(),
                       pa.array(order[pos]))
        return pa.table({
            "conv_id": slot.column("conv_id"),
            "turn_idx": slot.column("turn_idx"),
            "_slot": slot.column("_slot"),
            "value": vals})

    resolved = (
        ds.map_batches(explode, batch_format="pyarrow")
        .union(vds.map_batches(dict_side, batch_format="pyarrow"))
        .groupby("_jb")
        .map_groups(resolve_slots, batch_format="pyarrow")
    )

    # ---- stage 2: fold values back per row + decode per conv bucket ------
    def rows_side(b: pa.Table) -> pa.Table:
        cols = {c: b.column(c) for c in row_cols}
        cols["_slot"] = pa.nulls(b.num_rows, type=pa.int64())
        cols["value"] = pa.nulls(b.num_rows, type=pa.large_string())
        cols["_side"] = pa.array(np.zeros(b.num_rows, dtype=np.int8))
        t = pa.table(cols)
        _, rb = _key_and_bucket(t.column("conv_id"), nb)
        return t.append_column("_rb", rb)

    def resolved_side(b: pa.Table) -> pa.Table:
        cols = {}
        for c in row_cols:
            if c in ("conv_id", "turn_idx"):
                cols[c] = b.column(c).combine_chunks().cast(row_types[c])
            else:
                cols[c] = pa.nulls(b.num_rows, type=row_types[c])
        cols["_slot"] = b.column("_slot")
        cols["value"] = b.column("value")
        cols["_side"] = pa.array(np.ones(b.num_rows, dtype=np.int8))
        t = pa.table(cols)
        _, rb = _key_and_bucket(t.column("conv_id"), nb)
        return t.append_column("_rb", rb)

    def fold_decode(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("_side"), dtype=np.int8)
        rows = g.filter(pa.array(side == 0))
        res = g.filter(pa.array(side == 1))
        if rows.num_rows == 0:
            return pa.table(
                {c: pa.nulls(0, type=g.schema.field(c).type)
                 for c in row_cols}
            ).append_column("text", pa.nulls(0, type=pa.large_string()))
        rows = rows.take(pc.sort_indices(rows, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")]))
        res = res.take(pc.sort_indices(res, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending"),
            ("_slot", "ascending")]))
        templates = resolve(lt_ref).templates(rows.column("logtype_id"))
        _, cnts, _ = _dict_counts_slots(templates)
        if int(cnts.sum()) != res.num_rows:
            raise ValueError("resolved slot count mismatch")
        dict_vars = pa.LargeListArray.from_arrays(
            pa.array(_cumsum0(cnts)),
            res.column("value").combine_chunks())
        text = decode_batch(templates,
                            rows.column("encoded_vars").combine_chunks(),
                            dict_vars=dict_vars)
        return rows.select(row_cols).append_column("text", text)

    return (
        ds.map_batches(rows_side, batch_format="pyarrow")
        .union(resolved.map_batches(resolved_side, batch_format="pyarrow"))
        .groupby("_rb")
        .map_groups(fold_decode, batch_format="pyarrow")
    )


def extract_ir_chunks(archive_dir: str, out_dir: str,
                      four_byte: bool = True,
                      target_bytes: int | None = None) -> list[str]:
    """Archive → CLP IR stream chunk files (K8: the reference's clo IR
    extraction job, clo/OutputHandler.hpp IR-chunk role — the log viewer
    consumes archives as IR chunks, not text).

    No message is decoded: ``ir.ArchiveIrStage`` writes each event from
    the encoded columns and the archive's dictionaries, byte for byte the
    stream ``ir.serialize_ir_stream`` would write from the decoded text.
    The same stage runs on either side. An archive of at most
    ``execution.LOCAL_DECODE_BYTES`` of sinks is read by pyarrow in
    process and written as one chunk (or ~``target_bytes`` chunks); above
    it the extraction is ``read_parquet → map_batches(stage)`` with the
    dictionaries broadcast, one chunk per block, which keeps it streaming.
    A var dictionary over ``execution.DICT_BROADCAST_BYTES`` cannot be
    broadcast: that archive takes the partitioned decode, and
    ``ir.write_ir`` re-encodes and frames its text. Returns the chunk
    paths.
    """
    from clp_core_ray.ir import ArchiveIrStage, write_ir

    files = _sink_files(os.path.join(archive_dir, "routed"))
    need = ["ts", "logtype_id", "encoded_vars"]
    if files and _over_broadcast_cap(archive_dir):
        # only the partitioned decode resolves an over-cap var dictionary:
        # decode it, then re-encode and frame the text
        return write_ir(_decode_ray(archive_dir, list(need), True, ("ts",),
                                    False, None),
                        out_dir, four_byte=four_byte, target_bytes=target_bytes)
    os.makedirs(out_dir, exist_ok=True)
    if not files or choose(
            "decode", sum(os.path.getsize(f) for f in files)) == "local":
        # an archive without sink files gives one stream of no events
        stage = ArchiveIrStage(load_dicts(archive_dir) if files else None,
                               out_dir, four_byte, target_bytes)
        t = _read_sinks(files, need) if files else pa.table({})
        return sorted(stage(t).column("path").to_pylist())
    import ray
    import ray.data as rd

    from clp_core_ray.pipelines.compress import sweep_inprogress

    stage = ArchiveIrStage(ray.put(load_dicts(archive_dir)), out_dir,
                           four_byte, target_bytes)
    acct = rd.read_parquet(os.path.join(archive_dir, "routed"), columns=need,
                           file_extensions=["parquet"]).map_batches(
        stage, batch_format="pyarrow", batch_size=_DECODE_BATCH)
    paths = [p for b in acct.iter_batches(batch_format="pyarrow")
             for p in b.column("path").to_pylist()]
    # job complete: sweep dead attempts' .inprogress tmps (readers filter on
    # the .clp.ir extension anyway)
    sweep_inprogress(out_dir)
    return sorted(paths)


def _write_log_files(g: pa.Table, out_dir: str) -> list[str]:
    """Rebuild every source file whose messages ``g`` holds (all of them:
    a file's rows never span two groups) into ``out_dir`` → the written
    paths."""
    from clp_core_ray.sources.textlog import reconstruct_file_text

    if g.num_rows == 0:
        return []
    paths_out = []
    ids = g.column("conv_id").combine_chunks()
    codes = np.asarray(ids.dictionary_encode().indices, dtype=np.int64)
    order = np.lexsort((np.asarray(g.column("turn_idx")), codes))
    cs = codes[order]
    starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
    ends = np.append(starts[1:], len(cs))
    ts_ms = pc.cast(pc.cast(g.column("ts"), pa.timestamp("ms"), safe=False),
                    pa.int64())
    for s, e in zip(starts, ends):
        idx = pa.array(order[s:e], type=pa.int64())
        src_path = ids[order[s]].as_py()
        sub = pa.table({
            "path": pa.array([src_path] * (e - s)),
            "msg_idx": g.column("turn_idx").take(idx).cast(pa.int64()),
            "ts_ms": ts_ms.take(idx),
            "pattern_id": g.column("pattern_id").take(idx),
            "ts_begin": g.column("ts_begin").take(idx),
            "content": g.column("text").take(idx),
        })
        name = src_path.replace("/", "_").lstrip("_")
        dst = os.path.join(out_dir, name)
        txt = reconstruct_file_text(sub)
        if g.column("eof_nl")[order[s]].as_py():
            txt += "\n"
        with open(dst, "w") as f:
            f.write(txt)
        paths_out.append(dst)
    return paths_out


def extract_text_logs(archive_dir: str, out_dir: str) -> list[str]:
    """Reconstruct original log FILES from an archive written by
    ``compress_text_logs`` — `clp x` (FileDecompressor.cpp:9-76): decode
    each message, re-insert its timestamp with the original pattern, join
    in message order, one output file per input file. An archive decoded
    in process is assembled straight from the decoded table; on Ray, file
    assembly runs distributed (one map_groups task per file-hash bucket
    writes its files to shared storage). Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    dec = _decode(
        archive_dir,
        ("conv_id", "turn_idx", "ts", "pattern_id", "ts_begin", "eof_nl"),
        stage="text_extract",
    )
    if isinstance(dec, pa.Table):
        return sorted(_write_log_files(dec, out_dir))

    from clp_core_ray.pipelines.temporal import _key_and_bucket
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = scaled_buckets()

    def bucket(b):
        _, bk = _key_and_bucket(b.column("conv_id"), nb)
        return b.append_column("_bucket", bk)

    def write_files(g: pa.Table) -> pa.Table:
        return pa.table({"path": pa.array(_write_log_files(g, out_dir),
                                          type=pa.large_string())})

    acct = (dec.map_batches(bucket, batch_format="pyarrow")
            .groupby("_bucket").map_groups(write_files, batch_format="pyarrow"))
    return sorted(p for b in acct.iter_batches(batch_format="pyarrow")
                  for p in b.column("path").to_pylist())
