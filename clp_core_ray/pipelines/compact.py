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
  class_logtypes.json) actually merge, through the compress finalize
  (state/dictionaries.py): in process into one var.dict part while the
  sources' dictionaries total at most ``execution.LOCAL_FINALIZE_BYTES``,
  else via the 16-way id-hash bucket tasks;
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

from clp_core_ray.execution import choose
from clp_core_ray.state.atomic import inprogress_path
from clp_core_ray.state.dictionaries import (
    N_FINALIZE_BUCKETS,
    _bucket_split,
    _finalize_dicts_parallel,
    _finalize_local,
)

__all__ = ["compact_fragments", "merge_archives"]


def _archive_unified_rows(archive_dir: str) -> pa.Table:
    """An archive's FINAL dictionaries re-expressed as unified delta rows
    (kind, id, value, n_vars, logtype_class — one row per (entry, class)),
    the input format of the compress finalize path, so merge reuses its
    dedup + collision-check + bucket-write machinery verbatim."""
    from clp_core_ray.pipelines import decompress
    from clp_core_ray.vec.decoder import placeholder_kinds

    d = decompress.load_dicts(archive_dir,
                              var_columns=("var_id", "value", "classes"))
    # var dict: explode the per-entry classes segment index back to rows
    parent = pc.list_parent_indices(d.var_classes)
    n = len(parent)
    parts = [pa.table({
        "kind": pa.array(np.ones(n, dtype=np.int8)),
        "id": pa.array(d.var_ids).take(parent),
        "value": d.var_values.take(parent).cast(pa.large_string()),
        "n_vars": pa.array(np.zeros(n, dtype=np.int32)),
        "logtype_class": pc.list_flatten(d.var_classes).cast(pa.string()),
    })]

    # logtype dict + class index → one row per (logtype, class); a
    # logtype's var count is its placeholder count
    n_vars = np.diff(placeholder_kinds(d.lt_values)[0]).astype(np.int32)
    for cls_name, ids in sorted(d.by_class.items()):
        pos = decompress.lookup(d.lt_ids, ids, "logtype")
        n = len(ids)
        parts.append(pa.table({
            "kind": pa.array(np.zeros(n, dtype=np.int8)),
            "id": pa.array(ids, type=pa.int64()),
            "value": d.lt_values.take(pos).cast(pa.large_string()),
            "n_vars": pa.array(n_vars[pos]),
            "logtype_class": pa.array([cls_name] * n, type=pa.string()),
        }))
    return pa.concat_tables(parts)


def _dict_buckets(archive_dir: str):
    """One archive's dictionaries as the finalize's phase-1 output: unified
    rows, deduped and split into the N id-hash buckets."""
    return _bucket_split(_archive_unified_rows(archive_dir))


def _dict_bytes(archive_dir: str) -> int:
    """On-disk bytes of one archive's dictionaries: var.dict/ parts plus
    logtype.dict.parquet."""
    vdir = os.path.join(archive_dir, "var.dict")
    return (sum(os.path.getsize(os.path.join(vdir, f))
                for f in os.listdir(vdir))
            + os.path.getsize(os.path.join(archive_dir, "logtype.dict.parquet")))


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
    dictionaries + segment indexes union through the compress finalize
    (hash-collision check included): in this process into one var.dict
    part when the sources' dictionaries total at most
    ``execution.LOCAL_FINALIZE_BYTES``, else through the 16-bucket Ray
    merge, with the links made by Ray tasks alongside. The manifest records
    the merged time range, summed class counts and the finalize's side,
    input bytes and seconds. GLT layouts are NOT merged — they are derived
    state, rebuilt on demand from the merged rows. When ``out_dir``'s
    parent dir carries a ``_catalog/``, the merged archive is registered
    there, as ``compress`` does. Returns the manifest info dict."""
    import time

    import ray

    from clp_core_ray.state import manifest as mf

    archive_dirs = [os.path.normpath(d) for d in archive_dirs]
    if len(archive_dirs) < 1:
        raise ValueError("merge_archives needs at least one archive")
    for d in archive_dirs:
        if not os.path.isdir(os.path.join(d, "routed")):
            raise ValueError(f"not an archive (no routed/ sink): {d}")

    os.makedirs(out_dir, exist_ok=True)
    out_routed = os.path.join(out_dir, "routed")
    prefixes = [f"a{i:03d}" for i in range(len(archive_dirs))]
    dict_bytes = sum(_dict_bytes(d) for d in archive_dirs)
    t0 = time.time()
    if choose("finalize", dict_bytes) == "local":
        side = "local"
        _finalize_local(out_dir,
                        [_archive_unified_rows(d) for d in archive_dirs])
        finalize_sec = time.time() - t0
        linked = [_link_routed(d, out_routed, p)
                  for d, p in zip(archive_dirs, prefixes)]
    else:
        side = "ray"
        buckets_task = ray.remote(num_returns=N_FINALIZE_BUCKETS)(_dict_buckets)
        link_task = ray.remote(_link_routed)
        dict_refs = [buckets_task.remote(d) for d in archive_dirs]
        link_refs = [link_task.remote(d, out_routed, p)
                     for d, p in zip(archive_dirs, prefixes)]
        _finalize_dicts_parallel(out_dir, prededup_refs=dict_refs)
        finalize_sec = time.time() - t0
        linked = ray.get(link_refs)

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
    info = {
        "input": ";".join(archive_dirs),
        "sink": out_routed,
        "merged_from": len(archive_dirs),
        "linked_files": int(sum(r["files"] for r in linked)),
        "class_counts": class_counts,
        "archive_bytes": total_bytes,
        "ts_min": ts_min,
        "ts_max": ts_max,
        "metrics": {"finalize_side": side,
                    "dict_input_bytes": dict_bytes,
                    "finalize_sec": round(finalize_sec, 3)},
    }
    mf.record_fragment(out_dir, "merge", info)
    # like compress(): a parent dir with a _catalog/ registers the archive
    from clp_core_ray.state import catalog as _cat

    parent = os.path.dirname(os.path.abspath(out_dir))
    if _cat.has_catalog(parent):
        _cat.register_archive(parent, out_dir)
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


class _JournalHeartbeat:
    """Keeps a compaction's lease fresh while it builds its archive: a
    thread touches the journal's mtime every ``lease_s / 4`` seconds, so a
    build that runs longer than the lease is not mistaken for a crash
    leftover. Stops when its ``with`` block exits or once the journal is
    gone."""

    def __init__(self, jpath: str, lease_s: float):
        import threading

        self.jpath = jpath
        self.period_s = max(lease_s / 4, 0.1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_JournalHeartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            try:
                os.utime(self.jpath)
            except FileNotFoundError:
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _owns_journal(jpath: str, owner: str) -> bool:
    """The journal at ``jpath`` still exists and names ``owner``."""
    try:
        with open(jpath) as f:
            return json.load(f).get("owner") == owner
    except FileNotFoundError:
        return False


def compact_fragments(frag_base: str, archive_dir: str,
                      lease_s: float = COMPACTION_LEASE_S) -> dict:
    """Compact the ingest scheduler's accumulated fragments
    (pipelines/ingest.py: each ``clp`` fragment is a dictionary archive)
    into ONE self-contained dictionary archive — the hot-tail → cold-tier
    step of continuous ingestion (the reference package's archive
    lifecycle: small compression-job outputs merge into larger archives).

    Crash-safe two-phase protocol, journaled under
    ``<frag_base>/_compactions/``:

    1. Select completed, UNRETIRED fragments; write the journal (fragment
       list + target archive) atomically BEFORE any data work.
    2. Build the compact archive: for ``clp`` fragments the
       metadata-only ``merge_archives`` (sink files hard-linked, only the
       dictionaries and segment indexes merge); ``clps`` fragments are
       decompressed and recompressed as one clp_s archive. The archive's
       manifest commit is the data commit point.
    3. Retire each fragment (manifest keeps input ownership — the
       scheduler never re-ingests; readers skip it) and remove its sink;
       mark the journal done.

    While phase 2 runs, a heartbeat thread keeps the journal's mtime (its
    lease) fresh; before phase 3 the compactor re-reads the journal and
    stands down (``lost``) if it is gone or names another owner, since a
    second compactor then took the run over.

    Resume semantics: an undone journal whose archive COMMITTED → finish
    phase 3 only (recompacting would duplicate rows into a second
    archive); archive not committed → drop the partial archive and
    rebuild from the SAME journaled fragment list. Always safe to re-run;
    a crash between commit and full retirement temporarily double-stores
    (never double-reads: fragment search skips retired entries one by one
    as they land).

    Returns {archive, fragments, rows, resumed}, plus ``active`` or
    ``lost`` (the journal id) when it stood down."""
    import shutil
    import uuid

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
               "done": False, "owner": uuid.uuid4().hex}
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
    with _JournalHeartbeat(jpath, lease_s):
        rows = _build_compacted(fmt, frags, frag_ids, cid, out_arch)
    if not _owns_journal(jpath, journal["owner"]):
        return {"archive": None, "fragments": [], "rows": 0,
                "resumed": bool(resumed), "lost": cid}
    _finish_retirement(frag_base, journal, jpath)
    return {"archive": out_arch, "fragments": frag_ids, "rows": rows,
            "resumed": bool(resumed), "format": fmt}


def _build_compacted(fmt: str, frags: list, frag_ids: list, cid: str,
                     out_arch: str) -> int:
    """Phase 2 of ``compact_fragments``: build the compact archive of
    ``frags`` at ``out_arch``; returns its row count."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.stages.encode import DecodeStage

    if fmt == "inline":
        # inline fragments (no "format": rows carry their logtype and
        # dict_vars): streaming decode -> flagship compress. The ingest
        # runners no longer write them; this branch remains only because
        # perfbench/tracing.py's traced transcript ingest still does.
        sinks = [m["sink"] for m in frags]
        need = ["conv_id", "turn_idx", "role", "tool", "ts", "logtype",
                "logtype_id", "encoded_vars", "dict_vars"]
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
            input_label=f"compaction:{cid} ({len(frag_ids)} fragments)")
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
        # transcript and textlog fragments are already full archives:
        # compaction is the metadata-only dictionary merge (data files
        # hard-linked)
        info = merge_archives([m["sink"] for m in frags], out_arch)
        rows = int(sum(info.get("class_counts", {}).values()))
    else:
        raise ValueError(f"unknown fragment format: {fmt}")
    return rows
