"""Search results cache — the clp-package results-cache role
(clp-py-utils/initialize-results-cache.py, scheduler/query/query_scheduler.py:
completed query jobs land in a results collection; repeated jobs and stream
extractions consult it instead of re-scanning archives).

Rebuilt without MongoDB: one parquet file per (archive-state, query,
params) content key under ``<base>/_results_cache/``, written atomically
(tmp → ``os.replace``, the repo-wide sink discipline). The key hashes the
ARCHIVE MANIFEST CONTENTS, not timestamps — any compression job that adds
or rewrites an archive changes the manifests and therefore the key, so
stale hits are structurally impossible and no invalidation protocol is
needed. Concurrent writers of the same key race benignly (same bytes,
atomic rename, last-wins).
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from clp_core_ray.state.atomic import inprogress_path

CACHE_DIR = "_results_cache"


def _archive_state(base_dir: str) -> str:
    """Digest of every archive's manifest contents under ``base_dir``."""
    from clp_core_ray.state import catalog as cat

    h = hashlib.sha1()
    if cat.has_catalog(base_dir):
        dirs = sorted(e["dir"] for e in cat.read_catalog(base_dir))
    else:
        dirs = sorted(
            os.path.join(base_dir, d) for d in os.listdir(base_dir)
            if os.path.isdir(os.path.join(base_dir, d))
            and not d.startswith("_"))
    for d in dirs:
        h.update(os.path.relpath(d, base_dir).encode())
        mdir = os.path.join(d, "_manifests")
        if os.path.isdir(mdir):
            for name in sorted(os.listdir(mdir)):
                with open(os.path.join(mdir, name), "rb") as f:
                    h.update(name.encode())
                    h.update(f.read())
    return h.hexdigest()


def cache_key(base_dir: str, query: str, params: dict | None = None) -> str:
    payload = json.dumps({"state": _archive_state(base_dir), "q": query,
                          "p": params or {}}, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:32]


def cached_search(base_dir: str, query: str, search_fn,
                  params: dict | None = None) -> pa.Table:
    """Return the cached result table for (archive state, query, params),
    computing and atomically persisting it on miss. ``search_fn`` is
    called with no arguments and must return a ``pa.Table`` or a Ray
    Dataset (consumed via Arrow batches).

    Filenames are ``<state16>-<key>.parquet`` — the archive-state digest
    rides in the name, so each write can purge entries of superseded
    archive generations (the sketch-sidecar discipline): without eviction
    every compression/retention run would strand its predecessors' files
    and the cache would grow without bound."""
    d = os.path.join(base_dir, CACHE_DIR)
    os.makedirs(d, exist_ok=True)
    state = _archive_state(base_dir)[:16]
    key = cache_key(base_dir, query, params)
    path = os.path.join(d, f"{state}-{key}.parquet")
    if os.path.isfile(path):
        return pq.read_table(path)
    res = search_fn()
    if not isinstance(res, pa.Table):
        tabs = [pa.table(b) for b in res.iter_batches(batch_format="pyarrow")]
        res = pa.concat_tables(tabs) if tabs else pa.table({})
    tmp = inprogress_path(path)
    pq.write_table(res, tmp)
    os.replace(tmp, path)
    # dead-generation purge: any entry whose name carries a different
    # archive-state prefix can never hit again (the state hash feeds the
    # lookup key), so it is garbage the moment the archives changed
    for name in os.listdir(d):
        if (name.endswith(".parquet") and "-" in name
                and not name.startswith(f"{state}-")):
            try:
                os.unlink(os.path.join(d, name))
            except OSError:
                pass               # concurrent purge — already gone
    return res


# ---------------------------------------------------------------------------
# Per-archive sketch sidecars: metadata-only cross-archive distinct counts
# ---------------------------------------------------------------------------

SKETCH_DIR = "_sketches"


def _archive_dirs(base_dir: str) -> list[str]:
    from clp_core_ray.state import catalog as cat

    if cat.has_catalog(base_dir):
        return sorted(e["dir"] for e in cat.read_catalog(base_dir))
    return sorted(
        os.path.join(base_dir, d) for d in os.listdir(base_dir)
        if os.path.isdir(os.path.join(base_dir, d)) and not d.startswith("_"))


def sketch_archives(base_dir: str, *, column: str = "conv_id",
                    p: int = 12) -> int:
    """Maintenance job (runs like compaction, NOT in the compress hot
    path): ensure every archive under ``base_dir`` has an HLL register
    sidecar for ``column``. One streaming scan per MISSING sidecar only —
    the sidecar is keyed by the archive's manifest-content hash, so an
    unchanged archive is never rescanned and a changed one resketchs
    automatically. Returns the number of archives (re)sketched."""
    import hashlib

    import ray.data as rd

    from clp_core_ray.functions.sketch import _hash_col, _registers

    built = 0
    for adir in _archive_dirs(base_dir):
        mdir = os.path.join(adir, "_manifests")
        if not os.path.isdir(mdir):
            continue
        h = hashlib.sha1()
        for name in sorted(os.listdir(mdir)):
            with open(os.path.join(mdir, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
        sdir = os.path.join(adir, SKETCH_DIR)
        os.makedirs(sdir, exist_ok=True)
        path = os.path.join(
            sdir, f"{column}-hll{p}-{h.hexdigest()[:16]}.parquet")
        if os.path.isfile(path):
            continue
        # data rows live under routed/ (hive per class); dict tables and
        # deltas do not carry the sketch column
        import glob

        files = sorted(glob.glob(os.path.join(adir, "routed", "**",
                                              "*.parquet"), recursive=True))
        if not files:
            continue
        ds = rd.read_parquet(files, columns=[column])
        m = 1 << p

        def partial(b: pa.Table) -> pa.Table:
            regs = _registers(_hash_col(b.column(column)), p)
            return pa.table({"regs": pa.array([regs],
                                              type=pa.list_(pa.uint8()))})

        import numpy as np

        folded = np.zeros(m, dtype=np.uint8)
        for b in ds.map_batches(partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            part = np.asarray(pa.table(b).column("regs").combine_chunks()
                              .flatten(), dtype=np.uint8).reshape(-1, m)
            np.maximum.reduce(np.vstack([folded[None, :], part]), axis=0,
                              out=folded)
        tmp = inprogress_path(path)
        pq.write_table(pa.table({"regs": pa.array([folded],
                                                  type=pa.list_(pa.uint8()))}),
                       tmp)
        os.replace(tmp, path)
        # stale sidecars for older manifest states are dead weight
        for f in os.listdir(sdir):
            fp = os.path.join(sdir, f)
            if f.startswith(f"{column}-hll{p}-") and fp != path:
                os.unlink(fp)
        built += 1
    return built


def catalog_distinct(base_dir: str, *, column: str = "conv_id",
                     p: int = 12) -> int:
    """Approximate distinct count of ``column`` across ALL archives from
    the stored sketch sidecars only — registers union losslessly
    (elementwise max), so the answer costs #archives × 2^p bytes of
    metadata and ZERO data scans. Missing sidecars are built first
    (``sketch_archives`` is idempotent and manifest-keyed)."""
    import numpy as np

    from clp_core_ray.functions.sketch import _estimate

    sketch_archives(base_dir, column=column, p=p)
    m = 1 << p
    folded = np.zeros(m, dtype=np.uint8)
    found = False
    for adir in _archive_dirs(base_dir):
        sdir = os.path.join(adir, SKETCH_DIR)
        if not os.path.isdir(sdir):
            continue
        for f in os.listdir(sdir):
            if f.startswith(f"{column}-hll{p}-"):
                regs = np.asarray(
                    pq.read_table(os.path.join(sdir, f)).column("regs")
                    .combine_chunks().flatten(), dtype=np.uint8)
                np.maximum(folded, regs, out=folded)
                found = True
    if not found:
        return 0
    return int(round(_estimate(folded)))
