"""Continuous-ingestion scheduler — the reference package's long-lived
compression scheduler daemon (job-orchestration/job_orchestration/scheduler/
compress/compression_scheduler.py:149 main poll loop, :355-396
search_and_schedule_new_tasks: poll for new inputs, partition them into
jobs, dispatch, record job state, retry failures; several scheduler/worker
processes share one job table).

Rebuilt Ray-Data-first: each poll discovers input files not yet owned by a
completed fragment OR an active claim, packs the remainder into
size-bounded fragment jobs (the deterministic partitioner run_fragments
uses), claims each job through the lock-free job table (state/jobs.py,
O_EXCL claims) and runs it as one fused read→encode→route→sink pass
(compress.run_one_fragment, which writes the fragment as a dictionary
archive, so compaction is a metadata-only merge; a small fragment is
compressed in the polling process, a larger one as a Ray Data job).
Failed fragments are retried on later polls up to ``max_attempts``, then
parked. Safety properties:

- **Concurrent pollers never double-compress an input** on the common
  path: files under a fresh running claim are excluded from discovery
  before grouping, the job claim is an atomic O_EXCL create, and so is
  the claim on each of its member files (state/jobs.py claim_files).
  Pollers whose discovery snapshots differ can pack a shared file into
  different groups with different fragment ids; the group that loses a
  file claim is given up, and its other files return on a later poll.
- **Retry keeps the ORIGINAL grouping**: a failed/expired job is retried
  with the file list recorded in its claim, never regrouped with newer
  arrivals — so its fragment id is stable and its partial sink files are
  reused/overwritten by content hash, not orphaned under a new id.
- **Crash-safe**: the fragment manifest remains the only authoritative
  completion record (written after the sink), exactly as in
  run_fragments; job files are observability + coordination state.

``watch`` is the daemon loop (CLI: ``ingest --watch``); one ``poll`` call
is one scheduler iteration, so cron/driver recurrence works too.

Metadata scale (honest bounds): each poll's discovery is O(input files)
driver work and the completed-inputs anti-join reads every fragment
manifest — O(fragments ingested ever), same asymptotics as the reference
scheduler's job-table scan, just on files instead of SQL rows. Done-job
records are TTL-pruned; manifests are the permanent ownership ledger. At
millions of accumulated fragments an operator shards the watch by input
prefix (one daemon per shard, separate out_dirs under one catalog), which
also shards the metadata.
"""

from __future__ import annotations

import glob as _glob
import os
import socket
import time
import uuid

from clp_core_ray.state import jobs as jb
from clp_core_ray.state import manifest as mf


#: Done job records older than this are pruned (the fragment MANIFEST is
#: the authoritative completion record; job files are observability).
DONE_JOB_TTL_S = 7 * 24 * 3600.0

#: Discovery glob per ingest format when the caller doesn't override it.
DEFAULT_PATTERNS = {"transcripts": "*.parquet", "ndjson": "*.ndjson",
                    "textlog": "*.log"}


def _default_owner() -> str:
    """``host:pid:nonce``, new on every call: the threads of one process
    (and successive polls) are distinct claim owners."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:12]}"


def run_one_ndjson_fragment(frag: str, paths: list[str],
                            out_dir: str) -> int:
    """NDJSON fragment runner: one clp_s archive per fragment
    (clps_compress — parse-once schema split), manifest-committed like the
    transcript runner so the claim machinery is format-agnostic."""
    import time as _time

    from clp_core_ray.pipelines.clps import (_archive_ts_range,
                                             clps_compress,
                                             ndjson_from_files)

    t0 = _time.time()
    sink = os.path.join(out_dir, f"fragment={frag}")
    os.makedirs(sink, exist_ok=True)
    schemas = clps_compress(ndjson_from_files(paths), sink)
    rows = int(sum(schemas.values()))
    wall = _time.time() - t0
    info = {
        "input": paths[0] if len(paths) == 1 else paths,
        "sink": sink,
        "rows": rows,
        "format": "clps",
        "class_counts": {f"schema_{k}": int(v) for k, v in schemas.items()},
        "metrics": {"wall_sec": round(wall, 3),
                    "rows_per_sec": round(rows / max(wall, 1e-9), 1)},
    }
    ts = _archive_ts_range(sink)
    if ts is not None:
        info["ts_min"], info["ts_max"] = int(ts[0]), int(ts[1])
    mf.record_fragment(out_dir, frag, info)
    return rows


def run_one_textlog_fragment(frag: str, paths: list[str],
                             out_dir: str) -> int:
    """Raw-text-log fragment runner (`clp c`'s primary input shape): like
    the transcript runner, each fragment becomes a dictionary archive
    (compress.archive_fragment), here built by compress_text_logs
    (timestamp-pattern message assembly + the normal encode path)."""
    from clp_core_ray.pipelines.compress import (archive_fragment,
                                                 compress_text_logs)

    return archive_fragment(frag, paths, out_dir,
                            lambda sink: compress_text_logs(paths, sink))


def clps_search_fragments(out_dir: str, query: str,
                          ts_range: tuple[float, float] | None = None,
                          projection: list[str] | None = None):
    """KQL search across an NDJSON-ingest fragment base: manifest-pruned
    unretired fragments (time range narrows before any footer is read),
    each searched with the full clp_s pruning stack (schema sets, ts
    index, projection I/O pruning), lazily unioned."""
    from clp_core_ray.functions.filters import clps_search

    tr = None
    if ts_range is not None:
        tr = (int(ts_range[0]), int(ts_range[1]))
    frags = mf.select_fragments(out_dir, ts_range=tr)
    parts = [clps_search(m["sink"], query, ts_range=ts_range,
                         projection=projection)
             for m in frags if m.get("format") == "clps" and m.get("sink")]
    if not parts:
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "log_event_idx": pa.array([], type=pa.int64()),
            "json": pa.array([], type=pa.large_string())}))
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def poll(input_dir: str, out_dir: str, *,
         pattern: str | None = None,
         fmt: str = "transcripts",
         target_bytes: int | None = None,
         owner: str | None = None,
         lease_s: float = jb.DEFAULT_LEASE_S,
         max_attempts: int = jb.DEFAULT_MAX_ATTEMPTS,
         max_parallel_fragments: int = 4) -> dict:
    """One scheduler iteration. Returns a summary dict:
    ``{"done": [frag...], "failed": [frag...], "skipped_active": n,
    "parked": [frag...]}``.

    A fragment whose compress runs in process (``execution.choose``
    "compress" on its files' bytes) runs on the calling thread. The others
    run through a small driver thread pool of ``max_parallel_fragments``
    threads — each is its own streaming Ray pipeline using every CPU, so
    parallelism here only overlaps pipeline startup/teardown gaps
    (measured ~25%% on 8 fragments), it does not oversubscribe workers.
    In-process work stays off the pool because each pool thread's malloc
    arena keeps its peak under the package's trim threshold
    (``clp_core_ray._tune_malloc``). Claims/manifests stay per-fragment
    atomic."""
    from concurrent.futures import ThreadPoolExecutor

    from clp_core_ray.execution import choose
    from clp_core_ray.pipelines.compress import (_fragment_id,
                                                 completed_inputs,
                                                 group_input_files,
                                                 input_bytes,
                                                 run_one_fragment)

    if fmt not in ("transcripts", "ndjson", "textlog"):
        raise ValueError(f"unknown ingest format: {fmt}")
    runner = {"transcripts": run_one_fragment,
              "ndjson": run_one_ndjson_fragment,
              "textlog": run_one_textlog_fragment}[fmt]
    pattern = pattern or DEFAULT_PATTERNS[fmt]
    owner = owner or _default_owner()
    os.makedirs(out_dir, exist_ok=True)
    done_ids = mf.completed_fragments(out_dir)
    jobs = jb.read_jobs(out_dir)
    now = time.time()

    summary: dict = {"done": [], "failed": [], "skipped_active": 0,
                     "parked": []}
    lock = __import__("threading").Lock()
    pool = ThreadPoolExecutor(max_workers=max(1, max_parallel_fragments))
    futures = []

    def _run_sync(frag: str, files: list[str], attempt: int) -> None:
        t0 = time.time()
        try:
            rows = runner(frag, files, out_dir)
        except Exception as e:  # noqa: BLE001 — job isolation: one bad
            # fragment must not kill the daemon (scheduler loop semantics)
            jb.mark_failed(out_dir, frag, files, owner, attempt, repr(e))
            with lock:
                summary["failed"].append(frag)
            return
        jb.mark_done(out_dir, frag, owner, rows=rows,
                     wall_sec=time.time() - t0, attempt=attempt,
                     files=files)
        with lock:
            summary["done"].append(frag)

    def _run(frag: str, files: list[str], attempt: int) -> None:
        if fmt != "ndjson" and choose("compress",
                                      input_bytes(files)) == "local":
            _run_sync(frag, files, attempt)
        else:
            futures.append(pool.submit(_run_sync, frag, files, attempt))

    # -- pass 1: adopt retryable work (failed, or running past its lease) --
    claimed_files: set[str] = set()
    for frag, rec in jobs.items():
        state = rec.get("state")
        files = rec.get("files") or []
        if frag in done_ids:
            # completed but job file says otherwise (owner died between
            # manifest commit and mark_done) — normalize
            if state == "running":
                jb.mark_done(out_dir, frag, rec.get("owner", "?"),
                             rows=0, wall_sec=0.0, files=files)
            # done-record TTL: the MANIFEST is the authoritative completion
            # record, so old done job files are pure observability state —
            # prune them or _jobs/ grows one file per fragment forever
            elif (state == "done"
                  and now - float(rec.get("t", 0)) > DONE_JOB_TTL_S):
                jb.clear_job(out_dir, frag)
            continue
        if state == "running":
            if now - float(rec.get("t", now)) < lease_s:
                claimed_files.update(files)
                summary["skipped_active"] += 1
                continue
            state, rec = "failed", {**rec}  # lease expired → retryable
        if state == "failed":
            attempt = int(rec.get("attempt", 1))
            if attempt >= max_attempts:
                claimed_files.update(files)
                summary["parked"].append(frag)
                continue
            claimed_files.update(files)
            jb.takeover(out_dir, frag, files, owner, attempt + 1)
            if not jb.claim_files(out_dir, frag, files):
                jb.clear_job(out_dir, frag)  # a file went to another group
                continue
            _run(frag, files, attempt + 1)

    # -- pass 2: discover, group and claim NEW work ------------------------
    files = sorted(_glob.glob(os.path.join(input_dir, pattern)))
    completed = completed_inputs(out_dir)
    new = [f for f in files if f not in completed and f not in claimed_files]
    groups = (group_input_files(new, target_bytes)
              if target_bytes else [[f] for f in new])
    for g in groups:
        frag = _fragment_id(g)
        if frag in done_ids:
            continue
        if not jb.try_claim(out_dir, frag, g, owner):
            summary["skipped_active"] += 1
            continue
        if not jb.claim_files(out_dir, frag, g):
            # another poller's group holds a member file: give this group
            # up; its other files come back on a later poll
            jb.clear_job(out_dir, frag)
            summary["skipped_active"] += 1
            continue
        _run(frag, g, 1)
    for f in futures:
        f.result()  # job exceptions are handled inside _run_sync
    pool.shutdown()
    summary["done"].sort()
    summary["failed"].sort()
    return summary


def watch(input_dir: str, out_dir: str, *,
          interval_s: float = 5.0,
          max_polls: int | None = None,
          idle_exit: int | None = None,
          stop_file: str | None = None,
          compact_into: str | None = None,
          compact_min_fragments: int = 4,
          **poll_kwargs) -> list[dict]:
    """The daemon loop: poll forever (or until ``max_polls`` iterations,
    ``idle_exit`` consecutive no-work polls, or ``stop_file`` appears —
    the operator's kill switch). Returns the per-poll summaries.

    ``compact_into``: the full archive lifecycle in one daemon — whenever
    a poll finds no new arrivals and at least ``compact_min_fragments``
    unretired fragments have accumulated, compact the hot tail into a
    dictionary archive under this directory (compact.compact_fragments;
    auto-registers in the dir's global catalog if one exists). Compaction
    runs in the ingest lull, so it never competes with arrival bursts."""
    out = []
    idle = 0
    n = 0
    while True:
        s = poll(input_dir, out_dir, **poll_kwargs)
        if compact_into is not None and not (s["done"] or s["failed"]):
            from clp_core_ray.state import manifest as mf

            live = [m for m in mf.select_fragments(out_dir)
                    if m.get("sink")]
            if len(live) >= compact_min_fragments:
                from clp_core_ray.pipelines.compact import compact_fragments

                s["compacted"] = compact_fragments(out_dir, compact_into)
        out.append(s)
        n += 1
        worked = bool(s["done"] or s["failed"] or s.get("compacted"))
        idle = 0 if worked else idle + 1
        if max_polls is not None and n >= max_polls:
            break
        if idle_exit is not None and idle >= idle_exit:
            break
        if stop_file is not None and os.path.exists(stop_file):
            break
        time.sleep(interval_s)
    return out
