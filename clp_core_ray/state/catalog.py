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
    info = {"archive": rel, **mf.fold_manifests(archive_dir)}
    info["tags"] = sorted(info["tags"])
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


#: Suffix of a retention tombstone in the catalog dir: ``<entry>.tombstone``
#: names the archive a sweep is removing, written before its entry goes.
TOMBSTONE = ".tombstone"


def retention_sweep(base_dir: str, *, before_us: int,
                    dry_run: bool = False) -> list[str]:
    """Archive TTL enforcement (the reference package's archive-deletion
    job role, `clp-package` del-archives script semantics): drop every
    archive whose ENTIRE time range ends before ``before_us``.

    Crash-safe without coordination, in this order per archive: a
    tombstone naming the archive is written to the catalog dir, the
    catalog entry is unlinked (the commit point — selection stops routing
    queries at the archive), the directory is removed, and the tombstone
    goes last. Every sweep also finishes the tombstones it finds, so a
    sweep that crashed part-way is completed by the next one. Only
    tombstoned archives are ever removed: an un-catalogued dir under
    ``base_dir`` (a build not yet registered, a ``fragment=`` dir) is
    never touched. The reverse unlink order would leave a catalog entry
    pointing at nothing and break multi-archive search. Archives with
    unknown ts_max are kept (unknown age is not old age). Returns the
    removed archive dirs.
    """
    import shutil

    d = catalog_dir(base_dir)
    doomed: dict[str, str] = {}  # entry stem → archive path under base_dir
    for name in sorted(os.listdir(d)):
        stem, ext = os.path.splitext(name)
        if ext not in (".json", TOMBSTONE):
            continue
        with open(os.path.join(d, name)) as f:
            e = json.load(f)
        if ext == TOMBSTONE or (e.get("ts_max") is not None
                                and int(e["ts_max"]) < before_us):
            doomed[stem] = e["archive"]
    removed = []
    for stem, rel in sorted(doomed.items()):
        target = os.path.join(base_dir, rel)
        removed.append(target)
        if dry_run:
            continue
        tomb = os.path.join(d, stem + TOMBSTONE)
        tmp = inprogress_path(tomb)
        with open(tmp, "w") as f:
            json.dump({"archive": rel}, f)
        os.replace(tmp, tomb)
        try:
            os.unlink(os.path.join(d, stem + ".json"))  # commit point
        except FileNotFoundError:
            pass  # a crashed sweep already committed
        shutil.rmtree(target, ignore_errors=True)
        os.unlink(tomb)
    return removed
