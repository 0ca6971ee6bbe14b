"""Archive compaction: merge N self-contained archives into one (new op).

CLP archives are immutable, self-contained units — each carries its own
dictionaries and segments (streaming_archive/writer/Archive.hpp:1-60,
clp/compression.cpp:133-163 groups inputs into archives). Continuous
ingestion therefore accumulates many small archives, and every search pays
a per-archive dictionary load + compile. The reference has no merge tool;
this module adds one, and the repo's content-hash dictionary ids
(stages/encode.py) make it nearly metadata-only:

- identical content hashes to the SAME id in every archive, so encoded
  sink rows are valid under the union dictionary with NO id remap — data
  files are hard-linked (object-store rename at scale), never re-encoded
  and never shuffled;
- only the dictionaries and the segment indexes (class lists,
  class_logtypes.json) actually merge, via the same 16-way id-hash bucket
  tasks the compress finalize path uses (state/dictionaries.py);
- the lineage manifest records the merged time range and summed class
  counts so multi-archive pruning keeps working over the result.

Cost: O(dictionary bytes) compute + O(#files) metadata ops — independent
of archive data volume.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from clp_core_ray.state.atomic import inprogress_path
from clp_core_ray.state.dictionaries import (
    N_FINALIZE_BUCKETS,
    _dedup_unified,
    _finalize_dicts_parallel,
)

__all__ = ["compact_fragments", "merge_archives"]


def _archive_unified_rows(archive_dir: str) -> pa.Table:
    """An archive's FINAL dictionaries re-expressed as unified delta rows
    (kind, id, value, n_vars, logtype_class — one row per (entry, class)),
    the input format of the compress finalize path, so merge reuses its
    dedup + collision-check + bucket-write machinery verbatim."""
    parts = []

    # var dict: explode the per-entry classes segment index back to rows
    vdir = os.path.join(archive_dir, "var.dict")
    for f in sorted(os.listdir(vdir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(vdir, f)).combine_chunks()
        cls = t.column("classes").combine_chunks()
        if isinstance(cls, pa.ChunkedArray):
            cls = cls.combine_chunks()
        parent = pc.list_parent_indices(cls)
        n = len(parent)
        parts.append(pa.table({
            "kind": pa.array(np.ones(n, dtype=np.int8)),
            "id": t.column("var_id").take(parent).cast(pa.int64()),
            "value": t.column("value").take(parent).cast(pa.large_string()),
            "n_vars": pa.array(np.zeros(n, dtype=np.int32)),
            "logtype_class": pc.list_flatten(cls).cast(pa.string()),
        }))

    # logtype dict + class_logtypes.json → one row per (logtype, class)
    lt = pq.read_table(os.path.join(archive_dir, "logtype.dict.parquet"))
    with open(os.path.join(archive_dir, "class_logtypes.json")) as fh:
        by_class = json.load(fh)
    lt_ids = lt.column("logtype_id").combine_chunks()
    for cls_name, ids in sorted(by_class.items()):
        ids_arr = pa.array(ids, type=pa.int64())
        pos = pc.index_in(ids_arr, lt_ids)
        if pc.any(pc.is_null(pos)).as_py():
            raise ValueError(
                f"{archive_dir}: class_logtypes.json references logtype ids "
                f"missing from logtype.dict.parquet"
            )
        n = len(ids_arr)
        parts.append(pa.table({
            "kind": pa.array(np.zeros(n, dtype=np.int8)),
            "id": ids_arr,
            "value": lt.column("logtype").take(pos).cast(pa.large_string()),
            "n_vars": lt.column("n_vars").take(pos).cast(pa.int32()),
            "logtype_class": pa.array([cls_name] * n, type=pa.string()),
        }))

    if not parts:
        return pa.table({
            "kind": pa.array([], pa.int8()), "id": pa.array([], pa.int64()),
            "value": pa.array([], pa.large_string()),
            "n_vars": pa.array([], pa.int32()),
            "logtype_class": pa.array([], pa.string()),
        })
    return pa.concat_tables(parts)


def _dict_buckets(archive_dir: str):
    """One archive's unified dict rows, deduped and split into the N id-hash
    finalize buckets (ids never span buckets, so per-bucket merge tasks are
    globally correct) — the same contract as the compress path's prededup."""
    t = _dedup_unified(_archive_unified_rows(archive_dir)).combine_chunks()
    ids = np.asarray(t.column("id"), dtype=np.int64)
    b = (ids & (N_FINALIZE_BUCKETS - 1)).astype(np.int64)
    order = np.argsort(b, kind="stable")
    bounds = np.searchsorted(b[order], np.arange(N_FINALIZE_BUCKETS + 1))
    return tuple(
        t.take(order[bounds[i]:bounds[i + 1]])
        for i in range(N_FINALIZE_BUCKETS)
    )


def _link_routed(archive_dir: str, out_routed: str, prefix: str) -> dict:
    """Hard-link (fallback: copy) one archive's routed sink files into the
    merged layout, preserving hive partition dirs. Filenames get a
    per-source prefix so same-named parts from different archives coexist.
    Metadata-only on one filesystem; the multi-node analogue is an
    object-store rename."""
    import shutil

    routed = os.path.join(archive_dir, "routed")
    n_files = n_bytes = 0
    for root, _dirs, files in os.walk(routed):
        rel = os.path.relpath(root, routed)
        dest_dir = out_routed if rel == "." else os.path.join(out_routed, rel)
        made = False
        for f in sorted(files):
            if not f.endswith(".parquet"):
                continue
            if not made:
                os.makedirs(dest_dir, exist_ok=True)
                made = True
            src = os.path.join(root, f)
            dst = os.path.join(dest_dir, f"{prefix}-{f}")
            if not os.path.exists(dst):
                try:
                    os.link(src, dst)
                except OSError:
                    shutil.copy2(src, dst)
            n_files += 1
            n_bytes += os.path.getsize(src)
    return {"files": n_files, "bytes": n_bytes}


def merge_archives(archive_dirs: list[str], out_dir: str) -> dict:
    """Merge self-contained archives into one at ``out_dir``.

    Data files are linked as-is (content-hash ids need no remap); the
    dictionaries + segment indexes union through the parallel 16-bucket
    finalize (hash-collision check included); the manifest records the
    merged time range and summed class counts. GLT layouts are NOT merged —
    they are derived state, rebuilt on demand from the merged rows.
    Returns the manifest info dict."""
    import ray

    from clp_core_ray.state import manifest as mf

    archive_dirs = [os.path.normpath(d) for d in archive_dirs]
    if len(archive_dirs) < 1:
        raise ValueError("merge_archives needs at least one archive")
    for d in archive_dirs:
        if not os.path.isdir(os.path.join(d, "routed")):
            raise ValueError(f"not an archive (no routed/ sink): {d}")

    os.makedirs(out_dir, exist_ok=True)
    buckets_task = ray.remote(num_returns=N_FINALIZE_BUCKETS)(_dict_buckets)
    link_task = ray.remote(_link_routed)

    out_routed = os.path.join(out_dir, "routed")
    dict_refs = [buckets_task.remote(d) for d in archive_dirs]
    link_refs = [
        link_task.remote(d, out_routed, f"a{i:03d}")
        for i, d in enumerate(archive_dirs)
    ]

    _finalize_dicts_parallel(out_dir, prededup_refs=dict_refs)

    # manifest: union of the sources' lineage
    ts_min = ts_max = None
    class_counts: dict[str, int] = {}
    total_bytes = 0
    for d in archive_dirs:
        for m in mf.read_manifests(d):
            if m.get("ts_min") is not None:
                ts_min = m["ts_min"] if ts_min is None else min(ts_min, m["ts_min"])
            if m.get("ts_max") is not None:
                ts_max = m["ts_max"] if ts_max is None else max(ts_max, m["ts_max"])
            for k, v in (m.get("class_counts") or {}).items():
                class_counts[k] = class_counts.get(k, 0) + int(v)
            total_bytes += int(m.get("archive_bytes") or 0)
    linked = ray.get(link_refs)
    info = {
        "input": ";".join(archive_dirs),
        "sink": out_routed,
        "merged_from": len(archive_dirs),
        "linked_files": int(sum(r["files"] for r in linked)),
        "class_counts": class_counts,
        "archive_bytes": total_bytes,
        "ts_min": ts_min,
        "ts_max": ts_max,
    }
    mf.record_fragment(out_dir, "merge", info)
    return info


# ---------------------------------------------------------------------------
# Fragment compaction: the scheduler's hot tail → one compact cold archive
# ---------------------------------------------------------------------------

COMPACTIONS_DIR = "_compactions"


def _compaction_id(frag_ids: list[str]) -> str:
    import hashlib

    return hashlib.sha1("\n".join(sorted(frag_ids)).encode()).hexdigest()[:12]


def _archive_committed(archive_dir: str) -> bool:
    d = os.path.join(archive_dir, "_manifests")
    if os.path.isdir(d) and any(f.endswith(".json") for f in os.listdir(d)):
        return True
    # clp_s archives commit by writing the schema map (clps.SCHEMA_META)
    return os.path.isfile(os.path.join(archive_dir, "schemas.json"))


def _finish_retirement(frag_base: str, journal: dict,
                       journal_path: str) -> None:
    """Phase 3 (idempotent, resumable): mark each fragment retired and
    drop its sink data, then mark the journal done."""
    import shutil

    from clp_core_ray.state import manifest as mf

    for frag in journal["fragments"]:
        mpath = os.path.join(frag_base, "_manifests", f"{frag}.json")
        if os.path.isfile(mpath):
            with open(mpath) as f:
                if not json.load(f).get("retired_into"):
                    mf.retire_fragment(frag_base, frag, journal["archive"])
        sink = os.path.join(frag_base, f"fragment={frag}")
        shutil.rmtree(sink, ignore_errors=True)
    journal["done"] = True
    tmp = inprogress_path(journal_path)
    with open(tmp, "w") as f:
        json.dump(journal, f)
    os.replace(tmp, journal_path)


#: An undone journal younger than this is another compactor's ACTIVE run
#: (same lease discipline as state/jobs.py); older ones are crash leftovers.
COMPACTION_LEASE_S = 600.0


def compact_fragments(frag_base: str, archive_dir: str,
                      lease_s: float = COMPACTION_LEASE_S,
                      **compress_kwargs) -> dict:
    """Compact the ingest scheduler's accumulated fragments
    (pipelines/ingest.py sinks: inline-encoded, dictionary-less) into ONE
    self-contained dictionary archive — the hot-tail → cold-tier step of
    continuous ingestion (the reference package's archive lifecycle:
    small compression-job outputs become searchable dictionary archives).

    Crash-safe two-phase protocol, journaled under
    ``<frag_base>/_compactions/``:

    1. Select completed, UNRETIRED fragments; write the journal (fragment
       list + target archive) atomically BEFORE any data work.
    2. Build the compact archive: streaming decode of the fragments'
       inline rows (DecodeStage) → the normal flagship compress (real
       dictionaries + segment indexes + per-archive manifest). The
       archive's manifest commit is the data commit point.
    3. Retire each fragment (manifest keeps input ownership — the
       scheduler never re-ingests; readers skip it) and remove its sink;
       mark the journal done.

    Resume semantics: an undone journal whose archive COMMITTED → finish
    phase 3 only (recompacting would duplicate rows into a second
    archive); archive not committed → drop the partial archive and
    rebuild from the SAME journaled fragment list. Always safe to re-run;
    a crash between commit and full retirement temporarily double-stores
    (never double-reads: fragment search skips retired entries one by one
    as they land).

    Returns {archive, fragments, rows, resumed}."""
    import shutil

    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.stages.encode import DecodeStage
    from clp_core_ray.state import manifest as mf

    jdir = os.path.join(frag_base, COMPACTIONS_DIR)
    os.makedirs(jdir, exist_ok=True)

    # resume any incomplete prior compaction FIRST (never recompact rows
    # that already committed into an archive)
    resumed = None
    import time as _time

    for name in sorted(os.listdir(jdir)):
        if not name.endswith(".json"):
            continue
        jpath = os.path.join(jdir, name)
        with open(jpath) as f:
            j = json.load(f)
        if j.get("done"):
            continue
        if _archive_committed(j["archive"]):
            _finish_retirement(frag_base, j, jpath)
            resumed = j
        elif _time.time() - os.path.getmtime(jpath) < lease_s:
            # a CONCURRENT compactor owns this journal (lease fresh);
            # touching its partial build would corrupt it — stand down
            return {"archive": None, "fragments": [], "rows": 0,
                    "resumed": False, "active": j["id"]}
        else:
            # crash leftover: data never committed — drop the partial
            # build, forget the journal; its fragments are still
            # unretired and will be selected again below
            shutil.rmtree(j["archive"], ignore_errors=True)
            os.unlink(jpath)

    frags = [m for m in mf.select_fragments(frag_base)
             if m.get("sink") and str(m.get("fragment_id", "")) != "merge"]
    if not frags:
        return {"archive": None, "fragments": [],
                "rows": 0, "resumed": bool(resumed)}
    frag_ids = [m["fragment_id"] for m in frags]
    cid = _compaction_id(frag_ids)
    out_arch = os.path.join(archive_dir, f"compacted-{cid}")
    jpath = os.path.join(jdir, f"{cid}.json")
    journal = {"id": cid, "fragments": frag_ids, "archive": out_arch,
               "done": False}
    try:
        # O_EXCL claim (the jobs-table discipline): exactly one compactor
        # wins a given fragment set; the loser stands down
        fd = os.open(jpath, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return {"archive": None, "fragments": [], "rows": 0,
                "resumed": bool(resumed), "active": cid}
    with os.fdopen(fd, "w") as f:
        json.dump(journal, f)

    fmts = {m.get("format") or "inline" for m in frags}
    if len(fmts) > 1:
        raise ValueError(f"mixed fragment formats in one base: {fmts}")
    fmt = fmts.pop()
    if fmt == "inline":
        # transcript fragments: streaming inline decode -> flagship compress
        sinks = [m["sink"] for m in frags]
        need = ["conv_id", "turn_idx", "role", "tool", "ts", "logtype",
                "logtype_id", "encoded_vars", "var_types", "dict_vars"]
        ds = rd.read_parquet(sinks, columns=need,
                             file_extensions=["parquet"])
        decode = DecodeStage(out_col="text")

        def to_transcript(b: pa.Table) -> pa.Table:
            b = decode(b)
            return b.select(["conv_id", "turn_idx", "role", "text", "tool",
                             "ts"])

        ds = ds.map_batches(to_transcript, batch_format="pyarrow")
        counts = compress(
            None, out_arch, ds=ds,
            input_label=f"compaction:{cid} ({len(frag_ids)} fragments)",
            **compress_kwargs)
        rows = int(pc.sum(counts.column("cnt")).as_py() or 0)
    elif fmt == "clps":
        # NDJSON fragments: per-fragment decompress with a global event
        # offset (fragment order preserved), recompress as ONE clp_s
        # archive — schema tables merge naturally through the schema split
        from clp_core_ray.pipelines.clps import (clps_compress,
                                                 clps_decompress)

        parts = []
        off = 0
        for m in sorted(frags, key=lambda x: x["fragment_id"]):
            d = clps_decompress(m["sink"], ordered=False)

            def shift(b: pa.Table, _off=off) -> pa.Table:
                return pa.table({
                    "log_event_idx": pc.add(
                        b.column("log_event_idx").combine_chunks(),
                        pa.scalar(_off, type=pa.int64())),
                    "raw": b.column("json").combine_chunks()
                    .cast(pa.large_string()),
                })

            parts.append(d.map_batches(shift, batch_format="pyarrow"))
            off += int(m.get("rows") or 0)
        ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        schemas = clps_compress(ds, out_arch)
        rows = int(sum(schemas.values()))
    elif fmt == "clp":
        # textlog fragments are already full archives: compaction is the
        # metadata-only dictionary merge (data files hard-linked)
        info = merge_archives([m["sink"] for m in frags], out_arch)
        rows = int(sum(info.get("class_counts", {}).values()))
    else:
        raise ValueError(f"unknown fragment format: {fmt}")
    _finish_retirement(frag_base, journal, jpath)
    return {"archive": out_arch, "fragments": frag_ids, "rows": rows,
            "resumed": bool(resumed), "format": fmt}
