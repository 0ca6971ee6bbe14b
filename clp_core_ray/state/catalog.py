"""Append-safe global archive catalog — the GlobalSQLiteMetadataDB /
GlobalMySQLMetadataDB role (clp/GlobalSQLiteMetadataDB.cpp: one central table
tracking ALL archives, written by concurrent compression jobs, read by the
query scheduler for archive selection).

Rebuilt without a database or a lock: the catalog is a ``_catalog/``
directory of one JSON entry per archive, each entry file named by the hash
of its archive path and written atomically (tmp → ``os.replace``). Two
concurrent compress jobs write two distinct files — append safety comes from
the filesystem's atomic rename, not coordination; re-registering the same
archive overwrites its own entry (last-wins, idempotent).

Entries carry the selection attributes (ts range, input label, tags, row
count), so archive selection is a catalog-only read — no per-archive
manifest walk, which is what makes selection O(archives) cheap when a base
dir holds thousands of archives.
"""

from __future__ import annotations

import hashlib
import json
import os

from clp_core_ray.state.atomic import inprogress_path

CATALOG_DIR = "_catalog"


def catalog_dir(base_dir: str) -> str:
    return os.path.join(base_dir, CATALOG_DIR)


def init_catalog(base_dir: str) -> str:
    """Create the catalog dir (idempotent). Its presence switches archive
    discovery under ``base_dir`` from directory scanning to catalog reads."""
    d = catalog_dir(base_dir)
    os.makedirs(d, exist_ok=True)
    return d


def has_catalog(base_dir: str) -> bool:
    return os.path.isdir(catalog_dir(base_dir))


def _entry_name(archive_rel: str) -> str:
    return hashlib.sha1(archive_rel.encode()).hexdigest()[:24] + ".json"


def register_archive(base_dir: str, archive_dir: str,
                     extra: dict | None = None) -> str:
    """Write/overwrite the catalog entry for one archive (atomic, lock-free).

    Selection attributes are derived from the archive's lineage manifests at
    registration time (the INSERT a reference compression job issues against
    the global metadata DB on archive completion)."""
    from clp_core_ray.state import manifest as mf

    rel = os.path.relpath(os.path.abspath(archive_dir),
                          os.path.abspath(base_dir))
    info: dict = {"archive": rel, "ts_min": None, "ts_max": None,
                  "input": None, "tags": [], "rows": 0}
    tags: set = set()
    for m in mf.read_manifests(archive_dir):
        tags.update(m.get("tags") or [])
        if m.get("ts_min") is not None:
            info["ts_min"] = (m["ts_min"] if info["ts_min"] is None
                              else min(info["ts_min"], m["ts_min"]))
        if m.get("ts_max") is not None:
            info["ts_max"] = (m["ts_max"] if info["ts_max"] is None
                              else max(info["ts_max"], m["ts_max"]))
        info["input"] = info["input"] or m.get("input")
        info["rows"] += int(sum((m.get("class_counts") or {}).values()))
    info["tags"] = sorted(tags)
    if extra:
        info.update(extra)
    d = init_catalog(base_dir)
    name = _entry_name(rel)
    tmp = inprogress_path(os.path.join(d, name))
    with open(tmp, "w") as f:
        json.dump(info, f)
    final = os.path.join(d, name)
    os.replace(tmp, final)
    return final


def read_catalog(base_dir: str) -> list[dict]:
    """All catalog entries, archive paths resolved to absolute dirs."""
    d = catalog_dir(base_dir)
    out = []
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(d, name)) as f:
            e = json.load(f)
        e["dir"] = os.path.join(base_dir, e["archive"])
        e["tags"] = set(e.get("tags") or [])
        out.append(e)
    return out


def retention_sweep(base_dir: str, *, before_us: int,
                    dry_run: bool = False,
                    orphan_grace_s: float = 24 * 3600.0) -> list[str]:
    """Archive TTL enforcement (the reference package's archive-deletion
    job role, `clp-package` del-archives script semantics): drop every
    archive whose ENTIRE time range ends before ``before_us``.

    Order makes this crash-safe without coordination: the catalog entry is
    unlinked FIRST (the atomic commit point — selection stops routing
    queries at the archive immediately), then the archive directory is
    removed. A crash between the two leaves an orphaned directory that no
    query will read; this sweep's SECOND pass collects such untracked
    directories — but only ones untouched for ``orphan_grace_s`` seconds,
    because a compress job registers its archive only on completion, so a
    young untracked dir may be an in-flight build, not an orphan. The
    reverse unlink order would leave a catalog entry pointing at nothing
    and break multi-archive search. Archives with unknown ts_max are kept
    (unknown age is not old age). Returns the removed archive dirs.
    """
    import shutil
    import time

    removed = []
    d = catalog_dir(base_dir)
    tracked = set()
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(d, name)
        with open(path) as f:
            e = json.load(f)
        tracked.add(e["archive"])
        if e.get("ts_max") is None or int(e["ts_max"]) >= before_us:
            continue
        target = os.path.join(base_dir, e["archive"])
        if dry_run:
            removed.append(target)
            continue
        os.unlink(path)            # commit point: archive leaves selection
        shutil.rmtree(target, ignore_errors=True)
        removed.append(target)
        tracked.discard(e["archive"])
    # orphan pass: untracked archive dirs (crash between unlink and rmtree,
    # or a compress job that died after writing data but before register)
    now = time.time()
    for name in sorted(os.listdir(base_dir)):
        full = os.path.join(base_dir, name)
        if (name.startswith("_") or name in tracked
                or not os.path.isdir(full)):
            continue
        try:
            age = now - max(os.path.getmtime(full),
                            max((os.path.getmtime(os.path.join(r, f))
                                 for r, _, fs in os.walk(full) for f in fs),
                                default=0.0))
        except OSError:
            continue               # racing writer — clearly not an orphan
        if age < orphan_grace_s:
            continue
        if not dry_run:
            shutil.rmtree(full, ignore_errors=True)
        removed.append(full)
    return removed
