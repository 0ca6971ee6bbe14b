"""Per-partition lineage manifests → checkpoint/resume (SURVEY.md §4).

CLP's natural checkpoint is the archive: completed archives survive task
failure because stats are recorded per archive as it closes
(compression_task.py:306-360). Here the unit is an *input fragment* (a group
of input files / a row range); each fragment's sink write is recorded as an
atomically-renamed JSON manifest next to the data:

    <out_dir>/fragment=<id>/...parquet       (the routed sink data)
    <out_dir>/_manifests/<id>.json           (written only after the data)

Resume = list the manifest dir, skip fragments already present (anti-join of
pending fragments against completed ids), so a rerun after a crash only
reprocesses unfinished fragments and the sinks end up byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
import time


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifests")


def completed_fragments(out_dir: str) -> set[str]:
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return set()
    return {f[:-5] for f in os.listdir(d) if f.endswith(".json")}


def record_fragment(out_dir: str, fragment_id: str, info: dict) -> None:
    """Atomically persist a fragment's lineage record (write tmp + rename)."""
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    payload = {"fragment_id": fragment_id, "completed_at": time.time(), **info}
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f, default=str)
    os.replace(tmp, os.path.join(d, f"{fragment_id}.json"))


def read_manifests(out_dir: str) -> list[dict]:
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for f in sorted(os.listdir(d)):
        if f.endswith(".json"):
            with open(os.path.join(d, f)) as fh:
                out.append(json.load(fh))
    return out


def fold_manifests(out_dir: str) -> dict:
    """An archive's selection attributes, folded over its manifests:
    {ts_min, ts_max, input, tags (set), rows}. A time bound no manifest
    records stays None (unknown)."""
    info = {"ts_min": None, "ts_max": None, "input": None, "tags": set(),
            "rows": 0}
    for m in read_manifests(out_dir):
        info["tags"].update(m.get("tags") or [])
        if m.get("ts_min") is not None:
            info["ts_min"] = (m["ts_min"] if info["ts_min"] is None
                              else min(info["ts_min"], m["ts_min"]))
        if m.get("ts_max") is not None:
            info["ts_max"] = (m["ts_max"] if info["ts_max"] is None
                              else max(info["ts_max"], m["ts_max"]))
        info["input"] = info["input"] or m.get("input")
        info["rows"] += int(sum((m.get("class_counts") or {}).values()))
    return info


def pending_fragments(all_ids: list[str], out_dir: str) -> list[str]:
    done = completed_fragments(out_dir)
    return [f for f in all_ids if f not in done]


def retire_fragment(out_dir: str, fragment_id: str, into: str) -> None:
    """Mark a fragment as compacted into ``into`` (atomic rewrite).

    The manifest SURVIVES as the input-ownership record — the ingest
    scheduler's completed-inputs anti-join still sees it, so compaction
    never causes re-ingestion — but fragment READERS (select_fragments
    default, search_fragments) skip retired entries: their rows now live
    in the compact archive."""
    d = manifest_dir(out_dir)
    path = os.path.join(d, f"{fragment_id}.json")
    with open(path) as f:
        man = json.load(f)
    man["retired_into"] = into
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(man, f, default=str)
    os.replace(tmp, path)


def select_fragments(out_dir: str, path_glob: str | None = None,
                     ts_range: tuple[int, int] | None = None,
                     include_retired: bool = False) -> list[dict]:
    """Archive/fragment pruning by input path and time range (J5).

    The reference's clg selects archives from the metadata DB by file path
    and --tge/--tle begin/end timestamps before opening any archive data
    (clg.cpp archive iteration + metadata time-range columns); here the
    manifests play the metadata-DB role: a fragment survives only if its
    ``input`` matches ``path_glob`` and its [ts_min, ts_max] (epoch µs)
    overlaps ``ts_range``. Fragments without a recorded ts range are kept
    (unknown → cannot prune), mirroring conservative candidate semantics.
    Retired fragments (compacted into an archive) are skipped unless
    ``include_retired``.
    """
    import fnmatch

    out = []
    for man in read_manifests(out_dir):
        if man.get("retired_into") and not include_retired:
            continue
        if path_glob is not None:
            inp = man.get("input", "")
            # grouped fragments record a LIST of member files — the fragment
            # matches when any member does
            members = inp if isinstance(inp, list) else [inp]
            if not any(fnmatch.fnmatch(str(m), path_glob) for m in members):
                continue
        if ts_range is not None and "ts_min" in man and "ts_max" in man:
            lo, hi = ts_range
            if int(man["ts_max"]) < lo or int(man["ts_min"]) > hi:
                continue
        out.append(man)
    return out


def fsck_archive(out_dir: str) -> dict:
    """Archive integrity check (the metadata-vs-storage audit an operator
    runs after incidents): per-class row counts recorded in the lineage
    manifests must equal the actual parquet footer totals under
    ``routed/`` — footer metadata only, no data scan — plus torn-write
    detection (``*.inprogress`` survivors) and unreadable-footer probing.

    Returns {ok, classes: {cls: {expected, actual}}, problems: [...]}.
    Reference analogue: the consistency between the global metadata DB's
    archive row counts and the archive files themselves.
    """
    import glob

    import pyarrow.parquet as pq

    if (not os.path.isdir(os.path.join(out_dir, "routed"))
            and any(n.startswith("fragment=")
                    for n in os.listdir(out_dir))):
        return _fsck_fragment_base(out_dir)
    expected: dict[str, int] = {}
    for man in read_manifests(out_dir):
        if man.get("retired_into"):
            continue  # its sink moved into the compact archive
        for cls, n in (man.get("class_counts") or {}).items():
            expected[cls] = expected.get(cls, 0) + int(n)
    actual: dict[str, int] = {}
    problems: list[str] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "routed", "**", "*"),
                                 recursive=True)):
        rel = os.path.relpath(path, out_dir)
        if path.endswith(".inprogress"):
            problems.append(f"torn write: {rel}")
            continue
        if not path.endswith(".parquet") or not os.path.isfile(path):
            continue
        cls = os.path.basename(os.path.dirname(path)).split("=", 1)[-1]
        try:
            actual[cls] = actual.get(cls, 0) \
                + pq.ParquetFile(path).metadata.num_rows
        except Exception as exc:  # truncated/corrupt footer
            problems.append(f"unreadable parquet: {rel} ({exc})")
    classes = {}
    for cls in sorted(set(expected) | set(actual)):
        e, a = expected.get(cls, 0), actual.get(cls, 0)
        classes[cls] = {"expected": e, "actual": a}
        if e != a:
            problems.append(
                f"count mismatch class={cls}: manifests say {e}, "
                f"files hold {a}")
    return {"ok": not problems, "classes": classes, "problems": problems}


def _fsck_fragment_base(out_dir: str) -> dict:
    """fsck for an ingest-scheduler FRAGMENT base (no central routed/
    sink): per unretired fragment, the manifest's recorded row count must
    equal the footer total of its data files — the parquet under the
    archive's ``routed/`` for ``clp`` fragments (dictionaries are parquet
    too, but hold no rows), every parquet under the sink otherwise
    (clp_s fragments' schema tables) — still footer-metadata-only. Retired fragments must have NO surviving sink
    dir; orphan fragment dirs with no manifest are flagged."""
    import glob

    import pyarrow.parquet as pq

    problems: list[str] = []
    frags: dict[str, dict] = {}
    seen_dirs = {n for n in os.listdir(out_dir) if n.startswith("fragment=")}
    for man in read_manifests(out_dir):
        fid = man.get("fragment_id")
        sink = man.get("sink")
        dname = f"fragment={fid}"
        seen_dirs.discard(dname)
        if man.get("retired_into"):
            if sink and os.path.isdir(sink):
                problems.append(
                    f"retired fragment still has data: {dname}")
            continue
        if not sink:
            continue
        expected = int(man.get("rows") or 0)
        actual = 0
        data = (os.path.join(sink, "routed") if man.get("format") == "clp"
                else sink)
        for path in sorted(glob.glob(os.path.join(sink, "**", "*"),
                                     recursive=True)):
            if path.endswith(".inprogress"):
                problems.append(
                    f"torn write: {os.path.relpath(path, out_dir)}")
            elif (path.startswith(data + os.sep) and path.endswith(".parquet")
                  and os.path.isfile(path)):
                try:
                    actual += pq.ParquetFile(path).metadata.num_rows
                except Exception as exc:
                    problems.append(
                        f"unreadable parquet: "
                        f"{os.path.relpath(path, out_dir)} ({exc})")
        frags[fid] = {"expected": expected, "actual": actual}
        if expected != actual:
            problems.append(
                f"count mismatch fragment={fid}: manifest says "
                f"{expected}, files hold {actual}")
    for orphan in sorted(seen_dirs):
        problems.append(f"untracked fragment dir: {orphan}")
    return {"ok": not problems, "classes": frags, "problems": problems}
