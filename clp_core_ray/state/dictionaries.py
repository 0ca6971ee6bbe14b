"""Logtype / variable dictionary tables (T1/T2/A4 in SURVEY.md).

CLP interns strings into per-archive dictionaries with sequential ids
(VariableDictionaryWriter.cpp:7-37, LogTypeDictionaryWriter.cpp). Here ids are
content hashes computed inline during encode (no coordination). An
archive's dictionary tables are built from the encode stage's dict deltas
(entries new to each task) by ``write_archive_dicts``: in the calling
process into one var.dict part when the deltas are small
(``execution.LOCAL_FINALIZE_BYTES``), else by an N-bucket Ray merge;
``logtype_dict``/``var_dict`` derive the same tables from an encoded Dataset
as a bucketed distinct-value aggregate over per-batch-deduped partials.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clp_core_ray.execution import choose
from clp_core_ray.vec.tokenizer import _fnv1a64_tokens, _string_buffers


N_DEDUP_BUCKETS = 64


def _check_id_collisions(group: pa.Table, order: np.ndarray, dup_mask: np.ndarray,
                         value_col: str) -> None:
    """Rows sharing an id (adjacent in `order`; dup_mask over order[1:]) must
    carry equal values — a content-hash collision would otherwise silently
    decode wrong text (ADVICE r1). Cheap: runs only on the already-sorted
    duplicate positions."""
    if not dup_mask.any():
        return
    import pyarrow.compute as pc

    vals = group.column(value_col).combine_chunks()
    a = vals.take(pa.array(order[:-1][dup_mask]))
    b = vals.take(pa.array(order[1:][dup_mask]))
    eq = pc.all(pc.equal(a, b)).as_py()
    if eq is not True:
        bad = np.flatnonzero(~np.asarray(pc.equal(a, b), dtype=bool))[:3]
        raise ValueError(
            f"dictionary id collision: same id, different {value_col!r} "
            f"(first offending pairs at sorted dup positions {bad.tolist()})"
        )


def distinct_by_key(partials_ds, key: str, n_buckets: int = N_DEDUP_BUCKETS,
                    check_value_col: str | None = None):
    """Global distinct-by-key over per-batch-deduped partials.

    Explicit hash-partitioned dedup (SURVEY.md §2.7): bucket = hash & (B-1),
    shuffle by bucket (B groups, not one per key!), then a *vectorized* dedup
    inside each bucket. One python call per bucket, not per key — a
    per-key map_groups would make 600k python calls.

    ``check_value_col`` enables hash-collision detection: duplicate keys must
    agree on that column (fails loudly instead of decoding wrong text).
    """
    import pyarrow.compute as pc

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = pc.bit_wise_and(batch.column(key), n_buckets - 1)
        return batch.append_column("_bucket", pc.cast(b, pa.int32()))

    def dedup(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column(key).combine_chunks(), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        change = np.ones(len(ids), dtype=bool)
        if len(ids) > 1:
            change[1:] = ids[order][1:] != ids[order][:-1]
        if check_value_col is not None and len(ids) > 1:
            _check_id_collisions(group, order, ~change[1:], check_value_col)
        return group.take(np.sort(order[change])).drop_columns(["_bucket"])

    return (
        partials_ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(dedup, batch_format="pyarrow")
    )


def logtype_dict(encoded_ds):
    """Dataset[(logtype_id:int64, logtype:large_string, n_vars:int32)] distinct."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "logtype_id": batch.column("logtype_id"),
                "logtype": batch.column("logtype"),
                "n_vars": batch.column("n_vars"),
            }
        )
        return (
            t.group_by(["logtype_id"], use_threads=False)
            .aggregate([("logtype", "first"), ("n_vars", "first")])
            .rename_columns(["logtype_id", "logtype", "n_vars"])
        )

    partials = encoded_ds.map_batches(partial, batch_format="pyarrow")
    return distinct_by_key(partials, "logtype_id", check_value_col="logtype")


def var_dict(encoded_ds):
    """Dataset[(var_id:int64, value:string)] — distinct dictionary variables.

    Ids are recomputed from the flattened dict_vars strings (same FNV-1a as
    encode), per-batch deduped before the bucketed global distinct.
    """

    def partial(batch: pa.Table) -> pa.Table:
        dv = batch.column("dict_vars").combine_chunks()
        flat = dv.flatten()
        if len(flat) == 0:
            return pa.table({"var_id": pa.array([], type=pa.int64()),
                             "value": pa.array([], type=pa.string())})
        uniq = flat.unique()
        offsets, data = _string_buffers(uniq)
        ids = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets)).view(np.int64)
        return pa.table({"var_id": pa.array(ids), "value": uniq.cast(pa.string())})

    partials = encoded_ds.map_batches(partial, batch_format="pyarrow")
    return distinct_by_key(partials, "var_id", check_value_col="value")


#: Dict-delta rows (``EncodeStage._flush_dict_deltas``), the finalize's
#: input: one row per (entry, class); kind 0 = logtype, kind 1 = variable.
UNIFIED_SCHEMA = pa.schema([("kind", pa.int8()), ("id", pa.int64()),
                            ("value", pa.large_string()),
                            ("n_vars", pa.int32()),
                            ("logtype_class", pa.string())])

N_FINALIZE_BUCKETS = 16


def write_archive_dicts(out_dir: str, delta_dir: str | None = None,
                        prededup_refs: list | None = None) -> dict:
    """Persist logtype.dict.parquet / var.dict/ + class→logtype map.

    CLP persists both dictionaries inside the archive
    (streaming_archive/Constants.hpp:7-16: logtype.dict, var.dict, segindex);
    the class→logtype_ids map is our segment index analogue — search prunes
    sink partitions with it (J4).

    Without ``prededup_refs``, dict-delta files in ``delta_dir`` that sum to
    at most ``execution.LOCAL_FINALIZE_BYTES`` are read and merged in the
    calling process into one var.dict part (``_finalize_local``), as CLP's
    DictionaryWriter finalizes in the writing process. Otherwise the
    finalize is a bucketed two-phase Ray merge: ``_prededup_files`` tasks
    read and dedup the files, each returning its rows split into the N
    id-hash buckets (phase 1), then ``_finalize_dicts_parallel`` merges
    each bucket into its own var.dict part (phase 2). ``prededup_refs`` are
    phase-1 tasks already started (the compress delta watcher submits them
    during the sink write) and always take the Ray merge.

    Returns {n_logtypes, classes, side ("local"/"ray"), input_bytes}.
    """
    fs, files, nbytes = _delta_files(delta_dir)
    if prededup_refs is None and choose("finalize", nbytes) == "local":
        info = _finalize_local(out_dir, [_read_delta(p, fs) for p in files])
        side = "local"
    else:
        if prededup_refs is None:
            prededup_refs = _submit_prededup(fs, files)
        info = _finalize_dicts_parallel(out_dir, prededup_refs=prededup_refs)
        side = "ray"
    return {**info, "side": side, "input_bytes": nbytes}


def _delta_files(delta_dir: str | None) -> tuple:
    """(filesystem, sorted dict-delta paths, their summed bytes) in
    ``delta_dir``, a local path or a storage URI."""
    from pyarrow import fs as pafs

    from clp_core_ray.stages.encode import _resolve_fs

    if not delta_dir:
        return None, [], 0
    fs, path = _resolve_fs(delta_dir)
    try:
        infos = fs.get_file_info(pafs.FileSelector(path))
    except FileNotFoundError:
        infos = []
    infos = sorted((i for i in infos if i.type == pafs.FileType.File
                    and i.path.endswith(".arrow")), key=lambda i: i.path)
    return fs, [i.path for i in infos], int(sum(i.size for i in infos))


def _submit_prededup(fs, files: list) -> list:
    """Phase-1 tasks over the dict-delta ``files``, in at most 16 file
    groups."""
    import ray

    task = ray.remote(num_returns=N_FINALIZE_BUCKETS)(_prededup_files)
    return [task.remote(g.tolist(), fs)
            for g in np.array_split(np.array(files), 16) if len(g)]


def _dedup_unified(t: pa.Table) -> pa.Table:
    """Dedup a unified dict-delta table by (kind, id, class) — both logtype
    and var rows keep one row per class they appear in (the class list IS the
    per-entry segment index, DictionaryWriter.hpp:179-202). The hash-collision
    check compares values of adjacent same-(kind, id) rows regardless of
    class. Pure table→table so it runs on the driver or inside a Ray task."""
    import pyarrow.compute as pc

    t = t.combine_chunks()
    n = len(t)
    if n == 0:
        return t
    kinds = np.asarray(t.column("kind"), dtype=np.int8).astype(np.int64)
    ids = np.asarray(t.column("id"), dtype=np.int64)
    cls = t.column("logtype_class").combine_chunks()
    enc = pc.dictionary_encode(cls)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(pc.fill_null(enc.indices, -1), dtype=np.int64)
    order = np.lexsort((codes, ids, kinds))
    change = np.ones(n, dtype=bool)
    if n > 1:
        change[1:] = (
            (kinds[order][1:] != kinds[order][:-1])
            | (ids[order][1:] != ids[order][:-1])
            | (codes[order][1:] != codes[order][:-1])
        )
        same_id = (kinds[order][1:] == kinds[order][:-1]) & (
            ids[order][1:] == ids[order][:-1]
        )
        if same_id.any():  # hash-collision check (ADVICE r1)
            vals = t.column("value").combine_chunks()
            a = vals.take(pa.array(order[:-1][same_id]))
            b = vals.take(pa.array(order[1:][same_id]))
            if pc.all(pc.equal(a, b)).as_py() is not True:
                raise ValueError("dictionary id collision (FNV-1a 64)")
    return t.take(np.sort(order[change]))


def _var_rows_to_dict_table(vt: pa.Table) -> pa.Table:
    """(kind-1 delta rows, one per (id, class)) → var-dict table
    (var_id, value, classes:list<string>). The classes column is the
    per-variable segment index (dict entry → containing sink partitions,
    DictionaryWriter.hpp:179-202) used by search partition pruning
    (clg.cpp:249-298)."""
    import pyarrow.compute as pc

    empty = pa.table(
        {"var_id": pa.array([], pa.int64()), "value": pa.array([], pa.string()),
         "classes": pa.array([], pa.list_(pa.string()))}
    )
    if vt.num_rows == 0:
        return empty
    # sorted by (id, class): the bytes written do not depend on the order
    # the delta rows arrived in
    cls = pc.fill_null(vt.column("logtype_class").cast(pa.string()), "")
    order = np.asarray(pc.sort_indices(
        pa.table({"id": vt.column("id"), "cls": cls}),
        sort_keys=[("id", "ascending"), ("cls", "ascending")]))
    sids = np.asarray(vt.column("id"), dtype=np.int64)[order]
    change = np.ones(len(sids), dtype=bool)
    change[1:] = sids[1:] != sids[:-1]
    starts = np.flatnonzero(change)
    offsets = np.append(starts, len(sids)).astype(np.int32)
    cls_sorted = cls.take(pa.array(order)).combine_chunks()
    classes = pa.ListArray.from_arrays(pa.array(offsets), cls_sorted)
    first = pa.array(order[starts])
    return pa.table(
        {"var_id": pa.array(sids[starts]),
         "value": vt.column("value").take(first).cast(pa.string()),
         "classes": classes}
    )


def _read_delta(path: str, fs=None) -> pa.Table:
    """Read one dict-delta file (Arrow IPC)."""
    import pyarrow.ipc as ipc

    if fs is None:
        from pyarrow import fs as pafs

        fs = pafs.LocalFileSystem()
    with fs.open_input_file(path) as f:
        return ipc.open_file(f).read_all()


def _bucket_split(t: pa.Table) -> tuple:
    """Dedup unified rows and split them into the N id-hash finalize buckets
    (an id never spans buckets, so each bucket merges on its own). One Ray
    task return per bucket lets each merge task fetch only its own slice."""
    t = _dedup_unified(t).combine_chunks()
    ids = np.asarray(t.column("id"), dtype=np.int64)
    b = (ids & (N_FINALIZE_BUCKETS - 1)).astype(np.int64)
    order = np.argsort(b, kind="stable")
    bounds = np.searchsorted(b[order], np.arange(N_FINALIZE_BUCKETS + 1))
    # take (not slice) per bucket: a slice serializes its whole parent
    # buffer into the object store, take materializes compact arrays
    return tuple(
        t.take(order[bounds[i]:bounds[i + 1]])
        for i in range(N_FINALIZE_BUCKETS)
    )


def _prededup_files(paths: list, fs=None):
    """Phase 1: read delta files, dedup, split into the finalize buckets
    (also submitted by the compress delta watcher, to overlap finalize with
    the sink write)."""
    return _bucket_split(pa.concat_tables([_read_delta(p, fs) for p in paths]))


def _merge_write_bucket(b: int, var_part_path: str, *parts) -> pa.Table:
    """Merge one id-hash bucket's pre-deduped slices: write its var-dict
    parquet part, return its (small) logtype rows for the driver."""
    import pyarrow.compute as pc

    t = _dedup_unified(pa.concat_tables(parts) if parts
                       else UNIFIED_SCHEMA.empty_table())
    # ids are hash-bucketed, so an id never spans buckets — per-bucket class
    # aggregation is globally correct
    var_tbl = _var_rows_to_dict_table(t.filter(pc.equal(t.column("kind"), 1)))
    # use_dictionary=False: dict-var values are mostly unique, so parquet
    # dictionary pages cost ~15x encode time AND more bytes (measured 2.6s
    # -> 0.14s per part, 47 -> 42 MB total at sf1.6)
    from clp_core_ray.state.atomic import atomic_replace_table

    atomic_replace_table(var_tbl, var_part_path, compression="zstd",
                         use_dictionary=False)
    return t.filter(pc.equal(t.column("kind"), 0))


def _finalize_dicts_parallel(out_dir: str, prededup_refs: list) -> dict:
    """Phase 2: one task per id-hash bucket merges the phase-1 slices of
    ``prededup_refs`` (each entry: the N bucket refs of one phase-1 task)
    and writes its var.dict part; the driver writes the small logtype
    dictionary + class index. With no refs (empty input) every part is
    empty but still carries the var-dict schema."""
    import os

    import ray

    merge_task = ray.remote(_merge_write_bucket)
    vdir = _fresh_var_dict_dir(out_dir)
    lt_refs = [
        merge_task.remote(
            b, os.path.join(vdir, f"part-{b}.parquet"),
            *[group_refs[b] for group_refs in prededup_refs],
        )
        for b in range(N_FINALIZE_BUCKETS)
    ]
    return _write_logtype_dict(out_dir, pa.concat_tables(ray.get(lt_refs)))


def _finalize_local(out_dir: str, tables: list) -> dict:
    """The finalize in the calling process over unified rows (dict deltas
    or ``compact._archive_unified_rows``): the one-bucket case of the Ray
    merge, with its dedup, hash-collision check and writers, into one
    var.dict part. With no tables (empty input) that part is empty but
    still carries the var-dict schema."""
    import os

    vdir = _fresh_var_dict_dir(out_dir)
    lt = _merge_write_bucket(0, os.path.join(vdir, "part-0.parquet"), *tables)
    return _write_logtype_dict(out_dir, lt)


def _fresh_var_dict_dir(out_dir: str) -> str:
    """An empty ``<out_dir>/var.dict``: a rerun into the same dir may take
    the other finalize side, and its parts must not mix with stale ones."""
    import os
    import shutil

    vdir = os.path.join(out_dir, "var.dict")
    shutil.rmtree(vdir, ignore_errors=True)
    os.makedirs(vdir)
    return vdir


def _write_logtype_dict(out_dir: str, lt: pa.Table) -> dict:
    """logtype.dict.parquet + class_logtypes.json from kind-0 unified rows
    (one row per (logtype, class)), sorted by (id, class) so the bytes
    written do not depend on the order the rows arrived in."""
    import json
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lt = lt.take(pc.sort_indices(lt, sort_keys=[("id", "ascending"),
                                                ("logtype_class", "ascending")]))
    ids = np.asarray(lt.column("id"), dtype=np.int64)
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ldict = pa.table({
        "logtype_id": lt.column("id"),
        "logtype": lt.column("value").cast(pa.string()),
        "n_vars": lt.column("n_vars"),
    }).filter(pa.array(first))
    by_class: dict = {}
    for i, c in zip(ids.tolist(), lt.column("logtype_class").to_pylist()):
        if c is not None:
            ids_of = by_class.setdefault(c, [])
            if not ids_of or ids_of[-1] != i:
                ids_of.append(i)
    pq.write_table(ldict, os.path.join(out_dir, "logtype.dict.parquet"))
    with open(os.path.join(out_dir, "class_logtypes.json"), "w") as f:
        json.dump({c: by_class[c] for c in sorted(by_class)}, f)
    return {"n_logtypes": len(ldict), "classes": sorted(by_class)}

