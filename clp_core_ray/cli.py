"""Job-submission CLI — the `ray job submit` entrypoint for this engine.

Mirrors the reference's command-line surface (clp c/x compress/extract:
components/core/src/clp/clp/CommandLineArguments.hpp; clg search:
clg/CommandLineArguments.hpp; clo count / count-by-time:
clo/OutputHandler.hpp:255-286) as one module runnable on a cluster:

    ray job submit --working-dir . -- python -m clp_core_ray compress \
        --input /data/transcripts --out /archives/run1

Ray init is guarded: under `ray job submit` (or any pre-initialised driver)
the existing session is reused; standalone it connects to RAY_ADDRESS or
local. The CLI owns its Ray session only when it created one.
"""
from __future__ import annotations

import argparse
import json
import sys
import time


def _ensure_ray():
    """Connect if nobody has; return True if WE initialised (and must shut down)."""
    import ray

    import clp_core_ray

    if ray.is_initialized():
        return False
    clp_core_ray._export_tuning_env()  # worker tuning env, pre-init opt-in
    ray.init(include_dashboard=False, ignore_reinit_error=True)
    return True


def _emit(obj) -> None:
    print(json.dumps(obj, default=str))


def _print_limited(ds, lines, limit: int) -> int:
    """Print the ``lines`` (batch → list of str) of ``ds`` up to ``limit``,
    clg's default sink, stopping the one execution there → lines printed."""
    shown = 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        for line in lines(b)[:limit - shown]:
            print(line)
            shown += 1
        if shown >= limit:
            break
    return shown


def _write_out(ds, out: str) -> int:
    """Write ``ds`` as parquet under ``out`` → its row count, from one
    execution of ``ds``."""
    ds = ds.materialize()
    ds.write_parquet(out, compression="zstd")
    return ds.count()


def _print_counted(ds, col: str, limit: int) -> dict:
    """Print the ``col`` values of ``ds`` up to ``limit`` and count every
    row → ``{"rows": rows, "rows_shown": printed}``."""
    shown = total = 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        head = b.column(col).slice(0, max(0, limit - shown)).to_pylist()
        for v in head:
            print(v)
        shown += len(head)
        total += b.num_rows
    return {"rows": total, "rows_shown": shown}


def cmd_compress(args) -> dict:
    import os

    from clp_core_ray.pipelines.compress import compress, dir_bytes, raw_text_bytes
    from clp_core_ray.sources.transcripts import CACHE_DIR

    t0 = time.time()
    src = args.input
    # the synthetic-dataset path is EXPLICIT: a bare scale factor (e.g.
    # "0.01") or the generator's own cache layout. Any existing user path is
    # real input — never silently replaced with generated data (r2 ADVICE).
    synth_sf = None
    if not os.path.exists(src):
        try:
            synth_sf = float(src)
        except ValueError:
            raise SystemExit(
                f"--input {src!r} does not exist (pass a transcript parquet "
                f"path/dir, or a bare scale factor like 0.01 for the "
                f"synthetic dataset)"
            )
    norm = os.path.abspath(src.rstrip("/"))
    is_cache = (os.path.dirname(norm) == CACHE_DIR
                and os.path.basename(norm).startswith("transcripts_sf"))
    files = None
    if synth_sf is None and not is_cache:
        # an arbitrary transcript parquet file or dir of shards (the
        # reference's archive-per-input-group model,
        # clp/compression.cpp:133-163)
        files = ([norm] if os.path.isfile(norm) else sorted(
            os.path.join(norm, f) for f in os.listdir(norm)
            if f.endswith(".parquet")))
        if not files:
            raise SystemExit(f"--input {src!r}: no parquet shards found")
    if getattr(args, "fragments", False):
        # checkpointed mode: one fragment per input shard, resume skips the
        # ones whose lineage manifest already exists (north-rule resume path)
        from clp_core_ray.pipelines.compress import run_fragments
        from clp_core_ray.state import manifest as mf

        done = run_fragments(synth_sf if synth_sf is not None else src,
                             args.out, files=files,
                             target_bytes=args.fragment_target_bytes)
        total = len(mf.read_manifests(args.out))
        return {
            "cmd": "compress", "out": args.out, "mode": "fragments",
            "fragments_run": len(done), "fragments_done": total,
            "sec": round(time.time() - t0, 3),
            "archive_bytes": dir_bytes(args.out),
        }
    tags = getattr(args, "tag", None) or None
    codec_kw = dict(codec=getattr(args, "codec", "zstd") or "zstd",
                    codec_level=getattr(args, "codec_level", None))
    if synth_sf is not None:
        counts = compress(synth_sf, args.out, tags=tags, **codec_kw)
    elif is_cache:
        counts = compress(src, args.out, tags=tags, **codec_kw)
    else:
        counts = compress(files, args.out, input_label=src, tags=tags,
                          **codec_kw)
    wall = time.time() - t0
    total = sum(counts.column("cnt").to_pylist())
    out = {
        "cmd": "compress", "out": args.out, "rows": total,
        "classes": counts.num_rows, "sec": round(wall, 3),
        "rows_per_sec": round(total / wall, 1) if wall else None,
        "archive_bytes": dir_bytes(args.out),
    }
    if synth_sf is not None or is_cache:
        try:
            out["raw_text_bytes"] = raw_text_bytes(
                synth_sf if synth_sf is not None else src
            )
        except Exception:
            pass
    return out


def cmd_decompress(args) -> dict:
    from clp_core_ray.pipelines.decompress import decompress

    t0 = time.time()
    prefilter = None
    if getattr(args, "conv_id", None):
        import pyarrow as pa
        import pyarrow.compute as pc

        import ray

        keep_ref = ray.put(pa.array(args.conv_id, type=pa.large_string()))

        def prefilter(b):
            return b.filter(pc.is_valid(pc.index_in(
                b.column("conv_id").combine_chunks().cast(pa.large_string()),
                ray.get(keep_ref))))

    ds = decompress(args.archive, ordered=args.ordered, prefilter=prefilter)
    rows = _write_out(ds, args.out)
    return {"cmd": "decompress", "out": args.out, "rows": rows,
            "sec": round(time.time() - t0, 3)}


def cmd_search(args) -> dict:
    """clg/clo search: ``--archive`` and every ``--also`` target resolve
    into plans through the one search resolver, the plans run once, and
    the matches are counted, bucketed by time, written or printed."""
    import functools

    from clp_core_ray.pipelines import search as S
    from clp_core_ray.pipelines.aggregate import time_bucket

    queries = args.query
    if getattr(args, "regex", False):
        # clg --regex role: translate BEFORE compilation; unsupported
        # constructs raise, mirroring the reference's error codes
        queries = [S.regex_to_wildcard(q) for q in queries]
    prune = {k: v for k, v in (("path_glob", args.path_glob),
                               ("ts_min", args.ts_min),
                               ("ts_max", args.ts_max),
                               ("tags", getattr(args, "tag", None)))
             if v is not None}
    targets = [args.archive, *(getattr(args, "also", None) or [])]
    multi = len(queries) > 1  # batched multi-query: one scan, one decode
    context = getattr(args, "context", None)
    t0 = time.time()

    def result(**kw) -> dict:
        if context:
            kw["context"] = context
        if multi:
            kw["queries"] = len(queries)
        if len(targets) > 1:
            kw["targets"] = len(targets)
        return {"cmd": "search", **kw, "sec": round(time.time() - t0, 3)}

    if multi and (args.count or args.count_by_time):
        raise SystemExit("--count/--count-by-time apply to single-query "
                         "searches")
    if context:
        if len(targets) > 1 or multi or not S._is_archive(args.archive):
            raise SystemExit("--context applies to one query on a single "
                             "archive target")
        if prune:
            raise SystemExit("--context does not combine with prune flags")
        ds = S.search_context(args.archive, queries[0], before=context,
                              after=context, ignore_case=args.ignore_case)

        def lines(b) -> list:
            return [f"{'*' if m else ' '} {t}" for t, m in zip(
                b["text"].to_pylist(), b["is_match"].to_pylist())]
    else:
        plans = [p for t in targets for p in S._target_plans(
            t, queries, args.ignore_case,
            columns=["ts"] if args.count_by_time else None,
            query_idx=multi or args.count, **prune)]
        if args.count:
            return result(count=S._query_counts(plans, 1)[0])
        if args.count_by_time:
            # reference clo takes the bucket in ms; calendar units also
            # accepted
            kw = ({"bucket_ms": int(args.count_by_time)}
                  if args.count_by_time.isdigit()
                  else {"granularity": args.count_by_time})
            t = S._count_matches(plans, "bucket",
                                 functools.partial(time_bucket, **kw))
            return result(buckets=t.num_rows,
                          total=sum(t["cnt"].to_pylist()))
        ds = S._run_plans(plans)
        if args.out:
            return result(out=args.out, rows=_write_out(ds, args.out))

        def lines(b) -> list:
            if not multi:
                return b["text"].to_pylist()
            return [f"[{qi}] {t}" for qi, t in zip(
                b["query_idx"].to_pylist(), b["text"].to_pylist())]
    return result(rows_shown=_print_limited(ds, lines, args.limit))


def cmd_stats(args) -> dict:
    from clp_core_ray.pipelines.search import list_archives

    rows = [dict(r, tags=sorted(r.get("tags") or []))
            for r in list_archives(args.archive)]
    return {"cmd": "stats", "archives": len(rows), "detail": rows}


def cmd_catalog_init(args) -> dict:
    """Create a global archive catalog under a base dir (the
    GlobalSQLiteMetadataDB role); subsequent compress jobs whose output dir
    lives under the base register automatically and archive selection
    becomes catalog-only."""
    from clp_core_ray.state import catalog as cat

    d = cat.init_catalog(args.base)
    return {"cmd": "catalog-init", "catalog": d,
            "entries": len(cat.read_catalog(args.base))}


def cmd_compact(args) -> dict:
    """Fragment-tail compaction (hot → cold tier): see
    pipelines/compact.py compact_fragments."""
    from clp_core_ray.pipelines.compact import compact_fragments

    t0 = time.time()
    res = compact_fragments(args.frags, args.archive_dir)
    return {"cmd": "compact", "archive": res["archive"],
            "fragments": len(res["fragments"]), "rows": res["rows"],
            "resumed": res["resumed"],
            "wall_sec": round(time.time() - t0, 3)}


def cmd_retention(args) -> dict:
    """Archive TTL sweep (the package's del-archives job role): drop every
    catalogued archive whose whole time range ends before the cutoff —
    catalog entry first (atomic: selection stops routing immediately),
    directory second."""
    from clp_core_ray.state import catalog as cat

    removed = cat.retention_sweep(args.base, before_us=args.before_us,
                                  dry_run=args.dry_run)
    return {"cmd": "retention", "dry_run": bool(args.dry_run),
            "removed": removed}


def cmd_fsck(args) -> dict:
    """Archive integrity audit: manifest row counts vs parquet footers
    (metadata only), torn-write and corrupt-footer detection."""
    from clp_core_ray.state.manifest import fsck_archive

    rep = fsck_archive(args.archive)
    return {"cmd": "fsck", **rep}


def cmd_catalog_distinct(args) -> dict:
    """Metadata-only cross-archive distinct count: merges per-archive HLL
    sketch sidecars (built on demand, manifest-keyed, idempotent) — the
    global-cardinality question answered with zero data scans once
    sidecars exist."""
    from clp_core_ray.state.results_cache import catalog_distinct

    est = catalog_distinct(args.base, column=args.column)
    return {"cmd": "catalog-distinct", "column": args.column,
            "approx_distinct": est}


def cmd_ingest(args) -> dict:
    """Continuous-ingestion scheduler (compression_scheduler.py role).
    Default: ONE poll — compress exactly the input files no completed
    fragment or active claim owns, with claim-based concurrent-poller
    safety and failed-fragment retry. ``--watch`` runs the daemon loop."""
    from clp_core_ray.pipelines import ingest as ing

    t0 = time.time()
    kw = dict(pattern=args.pattern, fmt=args.format,
              target_bytes=args.fragment_target_bytes,
              lease_s=args.lease_s, max_attempts=args.max_attempts)
    if args.watch:
        polls = ing.watch(args.input, args.out,
                          interval_s=args.interval_s,
                          max_polls=args.max_polls,
                          idle_exit=args.idle_exit,
                          stop_file=args.stop_file,
                          compact_into=args.compact_into,
                          compact_min_fragments=args.compact_min_fragments,
                          **kw)
        done = sorted({f for p in polls for f in p["done"]})
        failed = sorted({f for p in polls for f in p["failed"]})
        compacted = [p["compacted"]["archive"] for p in polls
                     if p.get("compacted", {}).get("archive")]
        return {"cmd": "ingest", "watch": True, "polls": len(polls),
                "new_fragments": done, "failed_fragments": failed,
                "compacted_archives": compacted,
                "wall_sec": round(time.time() - t0, 3)}
    s = ing.poll(args.input, args.out, **kw)
    return {"cmd": "ingest", "new_fragments": s["done"],
            "failed_fragments": s["failed"],
            "skipped_active": s["skipped_active"], "parked": s["parked"],
            "wall_sec": round(time.time() - t0, 3)}


def cmd_ir_extract(args) -> dict:
    """clo IR-chunk extraction (K8): archive → .clp.ir chunk files."""
    import time as _t

    from clp_core_ray.pipelines.decompress import extract_ir_chunks

    t0 = _t.time()
    paths = extract_ir_chunks(args.archive, args.out,
                              four_byte=not args.eight_byte,
                              target_bytes=getattr(args, "target_size", None))
    return {"cmd": "ir-extract", "out": args.out, "chunks": len(paths),
            "sec": round(_t.time() - t0, 3)}


def cmd_ir_search(args) -> dict:
    """Wildcard search over IR stream files (no archive required)."""
    import time as _t

    from clp_core_ray.ir import search_ir

    t0 = _t.time()
    ds = search_ir(args.input, args.query, ignore_case=args.ignore_case,
                   ts_min=args.ts_min, ts_max=args.ts_max)
    if args.out:
        return {"cmd": "ir-search", "out": args.out,
                "rows": _write_out(ds, args.out),
                "sec": round(_t.time() - t0, 3)}
    return {"cmd": "ir-search", **_print_counted(ds, "text", args.limit),
            "sec": round(_t.time() - t0, 3)}


def cmd_glt_write(args) -> dict:
    """Archive → grouped-logtype-table layout (reference `glt` binary's
    compress role, glt/streaming_archive/writer)."""
    import time as _t

    from clp_core_ray.pipelines.glt import write_glt

    t0 = _t.time()
    kwargs = {}
    if args.target_rows:
        kwargs["target_rows_per_part"] = args.target_rows
    tables = write_glt(args.archive, out_dir=args.out, **kwargs)
    return {"cmd": "glt-write", "archive": args.archive,
            "dedicated_tables": len(tables),
            "rows": int(sum(tables.values())),
            "sec": round(_t.time() - t0, 3)}


def cmd_glt_search(args) -> dict:
    """Column-engine search over the GLT layout (glt binary's search role;
    results equal the row engine's, decode-verified)."""
    import time as _t

    from clp_core_ray.pipelines.glt import glt_search

    t0 = _t.time()
    ds = glt_search(args.archive, args.query, ignore_case=args.ignore_case,
                    glt_dir=args.glt_dir)
    if args.out:
        return {"cmd": "glt-search", "out": args.out,
                "rows": _write_out(ds, args.out),
                "sec": round(_t.time() - t0, 3)}
    return {"cmd": "glt-search", **_print_counted(ds, "text", args.limit),
            "sec": round(_t.time() - t0, 3)}


def _is_split_archive(path: str) -> bool:
    import os

    from clp_core_ray.pipelines.clps import ARCHIVES_META

    return os.path.isfile(os.path.join(path, ARCHIVES_META))


def cmd_json_compress(args) -> dict:
    """clp-s c: NDJSON file(s) → per-schema columnar archive(s)."""
    import glob
    import time as _t

    from clp_core_ray.pipelines.clps import clps_compress, clps_compress_split

    paths = sorted(p for pat in args.input for p in glob.glob(pat))
    if not paths:
        raise SystemExit(f"json-compress: no input files match {args.input}")
    t0 = _t.time()
    if args.split_records:
        if getattr(args, "single_file_archive", False):
            raise SystemExit("--single-file-archive packs ONE archive; "
                             "combine with --split-records is not supported")
        manifest = clps_compress_split(
            paths, args.out, timestamp_key=args.timestamp_key,
            max_records=args.split_records)
        return {"cmd": "json-compress", "out": args.out,
                "archives": len(manifest),
                "records": sum(m["n_records"] for m in manifest.values()),
                "sec": round(_t.time() - t0, 3)}
    from clp_core_ray.pipelines.clps import ndjson_from_files

    # list input must go through ndjson_from_files: clps_compress treats a
    # bare list as in-memory LINES, not paths
    counts = clps_compress(ndjson_from_files(paths), args.out,
                           timestamp_key=args.timestamp_key)
    out = args.out
    if getattr(args, "single_file_archive", False):
        import shutil

        from clp_core_ray.pipelines.sfa import pack_sfa

        out = pack_sfa(args.out)
        shutil.rmtree(args.out, ignore_errors=True)
    return {"cmd": "json-compress", "out": out,
            "schemas": len(counts), "records": sum(counts.values()),
            "sec": round(_t.time() - t0, 3)}


def cmd_json_extract(args) -> dict:
    """clp-s x: archive → NDJSON (ordered k-way-merge equivalent)."""
    import time as _t

    from clp_core_ray.pipelines.clps import (clps_decompress,
                                             clps_decompress_split)

    t0 = _t.time()
    if getattr(args, "ordered_chunk_size", None):
        if _is_split_archive(args.archive):
            raise SystemExit("--ordered-chunk-size works on a single "
                             "archive (extract sub-archives separately)")
        from clp_core_ray.pipelines.clps import clps_extract_ordered_chunks

        manifest = clps_extract_ordered_chunks(
            args.archive, args.out, args.ordered_chunk_size)
        return {"cmd": "json-extract", "out": args.out,
                "chunks": len(manifest),
                "bytes": sum(m["nbytes"] for m in manifest),
                "sec": round(_t.time() - t0, 3)}
    fn = clps_decompress_split if _is_split_archive(args.archive) \
        else clps_decompress
    ds = fn(args.archive, ordered=args.ordered)
    if args.out.endswith(".jsonl") or args.out.endswith(".ndjson"):
        rows = 0
        with open(args.out, "w") as f:
            for b in ds.iter_batches(batch_format="pyarrow"):
                for line in b.column("json").to_pylist():
                    f.write(line)
                    f.write("\n")
                    rows += 1
    else:
        rows = _write_out(ds, args.out)
    return {"cmd": "json-extract", "out": args.out, "rows": rows,
            "sec": round(_t.time() - t0, 3)}


def cmd_json_search(args) -> dict:
    """clp-s s: KQL query over archive(s), split-manifest + schema pruning."""
    import time as _t

    from clp_core_ray.functions.filters import clps_search
    from clp_core_ray.pipelines.clps import clps_search_split

    ts_range = None
    if args.ts_min is not None or args.ts_max is not None:
        ts_range = (args.ts_min if args.ts_min is not None else float("-inf"),
                    args.ts_max if args.ts_max is not None else float("inf"))
    t0 = _t.time()
    proj = args.projection or None
    if _is_split_archive(args.archive):
        ds = clps_search_split(args.archive, args.query, ts_range=ts_range,
                               projection=proj)
    else:
        ds = clps_search(args.archive, args.query, ts_range=ts_range,
                         projection=proj)
    if args.out:
        return {"cmd": "json-search", "out": args.out,
                "rows": _write_out(ds, args.out),
                "sec": round(_t.time() - t0, 3)}
    return {"cmd": "json-search", **_print_counted(ds, "json", args.limit),
            "sec": round(_t.time() - t0, 3)}


def cmd_log_compress(args) -> dict:
    """clp c over raw text log files (tar/gz/zip expand recursively)."""
    from clp_core_ray.pipelines.compress import compress_text_logs, dir_bytes

    t0 = time.time()
    counts = compress_text_logs(args.input, args.out,
                                tags=(args.tag or None))
    total = sum(counts.column("cnt").to_pylist())
    return {"cmd": "log-compress", "out": args.out, "rows": total,
            "sec": round(time.time() - t0, 3),
            "archive_bytes": dir_bytes(args.out)}


def cmd_log_extract(args) -> dict:
    """clp x: reconstruct original log files byte-identically."""
    from clp_core_ray.pipelines.decompress import extract_text_logs

    t0 = time.time()
    paths = extract_text_logs(args.archive, args.out)
    return {"cmd": "log-extract", "out": args.out, "files": len(paths),
            "sec": round(time.time() - t0, 3)}


def cmd_incr_compress(args) -> dict:
    """Incremental compress: delta-only generation against --base."""
    from clp_core_ray.pipelines.incremental import compress_incremental

    t0 = time.time()
    res = compress_incremental(args.input, args.base)
    return {"cmd": "incr-compress", "base": args.base,
            "sec": round(time.time() - t0, 3), **res}


def cmd_incr_extract(args) -> dict:
    from clp_core_ray.pipelines.incremental import decompress_incremental

    t0 = time.time()
    ds = decompress_incremental(args.base)
    return {"cmd": "incr-extract", "out": args.out,
            "rows": _write_out(ds, args.out),
            "sec": round(time.time() - t0, 3)}


def cmd_incr_search(args) -> dict:
    from clp_core_ray.pipelines.incremental import search_incremental

    t0 = time.time()
    ds = search_incremental(args.base, args.query,
                            ignore_case=args.ignore_case)
    rows = _print_limited(ds, lambda b: b["text"].to_pylist(), args.limit)
    return {"cmd": "incr-search", "rows": rows,
            "sec": round(time.time() - t0, 3)}


def cmd_dictdump(args) -> dict:
    """Dump archive dictionaries human-readable (make-dictionaries-readable
    parity: make-dictionaries-readable.cpp:60-121 — logtype placeholders
    render as \\i \\f \\d, escaped bytes appear literally, newlines as \\n;
    plus the segment-index .hr files)."""
    import os

    from clp_core_ray.encoding import (
        PLACEHOLDER_DICT,
        PLACEHOLDER_ESCAPE,
        PLACEHOLDER_FLOAT,
        PLACEHOLDER_INT,
    )
    from clp_core_ray.pipelines import decompress

    renders = {PLACEHOLDER_INT: "\\i", PLACEHOLDER_FLOAT: "\\f",
               PLACEHOLDER_DICT: "\\d"}

    def human(v: str) -> str:
        out, i = [], 0
        while i < len(v):
            c = v[i]
            if c == PLACEHOLDER_ESCAPE and i + 1 < len(v):
                out.append(v[i + 1])
                i += 2
                continue
            out.append(renders.get(c, c))
            i += 1
        return "".join(out).replace("\n", "\\n")

    os.makedirs(args.output_dir, exist_ok=True)
    d = decompress.load_dicts(args.archive,
                              var_columns=("var_id", "value", "classes"))
    with open(os.path.join(args.output_dir, "logtype.dict.hr"), "w") as f:
        for lid, v in zip(d.lt_ids.tolist(), d.lt_values.to_pylist()):
            f.write(f"{lid}\t{human(v)}\n")

    with open(os.path.join(args.output_dir, "var.dict.hr"), "w") as f, \
         open(os.path.join(args.output_dir, "var.segindex.hr"), "w") as g:
        for vid, v, cls in zip(d.var_ids.tolist(), d.var_values.to_pylist(),
                               d.var_classes.to_pylist()):
            f.write(f"{vid}\t{v.replace(chr(10), chr(92) + 'n')}\n")
            g.write(f"{vid}\t{','.join(sorted(cls or []))}\n")

    if d.by_class is not None:
        with open(os.path.join(args.output_dir,
                               "logtype.segindex.hr"), "w") as f:
            for cls in sorted(d.by_class):
                ids = ",".join(map(str, sorted(d.by_class[cls])))
                f.write(f"{cls}\t{ids}\n")
    return {"cmd": "dictdump", "logtypes": len(d.lt_ids),
            "vars": len(d.var_ids), "output_dir": args.output_dir}



def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clp_core_ray",
        description="Ray-Data-native CLP-class log engine (job-submit entrypoint)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compress", help="parse→enrich→route→aggregate (clp c)")
    c.add_argument("--input", required=True,
                   help="sf dir or transcript parquet path")
    c.add_argument("--out", required=True, help="archive output dir")
    c.add_argument("--tag", action="append",
                   help="archive tag recorded in the manifest (repeatable; "
                        "search --tag selects on it)")
    c.add_argument("--codec", default="zstd",
                   help="segment codec: passthrough|zstd|lz4|gzip|brotli|"
                        "snappy (Compressor.hpp breadth; default zstd)")
    c.add_argument("--codec-level", type=int, default=None,
                   help="codec compression level (default: codec-specific)")
    c.add_argument("--fragment-target-bytes", type=int, default=None,
                   help="pack small input files into ~this-many-byte "
                        "fragments (reference scheduler partition.py role); "
                        "default: one fragment per file")
    c.add_argument("--fragments", action="store_true",
                   help="checkpointed mode: fragment-per-shard with resume "
                        "(rerun skips completed fragments)")
    c.set_defaults(fn=cmd_compress)

    ing = sub.add_parser("ingest",
                         help="compress files no completed fragment owns "
                              "yet (continuous-ingestion poll)")
    ing.add_argument("--input", required=True, help="watched input dir")
    ing.add_argument("--out", required=True, help="fragment archive dir")
    ing.add_argument("--pattern", default=None,
                     help="input glob within --input (default per format: "
                          "*.parquet / *.ndjson / *.log)")
    ing.add_argument("--format", choices=["transcripts", "ndjson", "textlog"],
                     default="transcripts",
                     help="transcripts: parquet shards -> one "
                          "dictionary archive per fragment; ndjson: JSON "
                          "logs -> one clp_s archive per fragment "
                          "(KQL-searchable); "
                          "textlog: raw .log files -> one dictionary "
                          "archive per fragment (wildcard-searchable)")
    ing.add_argument("--fragment-target-bytes", type=int, default=None,
                     help="pack NEW files into ~this-many-byte fragments")
    ing.add_argument("--watch", action="store_true",
                     help="daemon loop: keep polling until --max-polls, "
                          "--idle-exit consecutive empty polls, or "
                          "--stop-file appears")
    ing.add_argument("--interval-s", type=float, default=5.0,
                     help="seconds between watch polls (default 5)")
    ing.add_argument("--max-polls", type=int, default=None)
    ing.add_argument("--idle-exit", type=int, default=None,
                     help="exit after N consecutive no-work polls")
    ing.add_argument("--stop-file", default=None,
                     help="exit when this path appears (kill switch)")
    ing.add_argument("--lease-s", type=float, default=600.0,
                     help="running-claim lease; expired claims are retried")
    ing.add_argument("--max-attempts", type=int, default=3,
                     help="per-fragment attempts before parking it")
    ing.add_argument("--compact-into", default=None,
                     help="with --watch: compact the fragment tail into "
                          "dictionary archives under this dir during "
                          "ingest lulls")
    ing.add_argument("--compact-min-fragments", type=int, default=4,
                     help="compact only once this many fragments "
                          "accumulated (default 4)")
    ing.set_defaults(fn=cmd_ingest)

    cmp2 = sub.add_parser(
        "compact",
        help="compact the ingest scheduler's fragment tail into one "
             "dictionary archive (crash-safe journaled two-phase)")
    cmp2.add_argument("--frags", required=True,
                      help="fragment base dir (ingest --out)")
    cmp2.add_argument("--archive-dir", required=True,
                      help="directory receiving compacted-<id> archives "
                           "(e.g. a catalog base)")
    cmp2.set_defaults(fn=cmd_compact)

    x = sub.add_parser("decompress", help="archive → text parquet (clp x)")
    x.add_argument("--archive", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--ordered", action="store_true",
                   help="stable (conv_id, turn_idx) order")
    x.add_argument("--conv-id", action="append",
                   help="extract only these conversations (repeatable; "
                        "clp x single-file extraction role — the prefilter "
                        "runs before decode, so unrequested convs never "
                        "decode)")
    x.set_defaults(fn=cmd_decompress)

    s = sub.add_parser("search", help="wildcard search (clg / clo)")
    s.add_argument("--archive", required=True,
                   help="one archive dir or a base dir of archives")
    s.add_argument("--query", required=True, action="append",
                   help="wildcard query; repeat for a batched multi-query "
                        "search (one scan, one decode)")
    s.add_argument("--ignore-case", action="store_true")
    s.add_argument("--regex", action="store_true",
                   help="treat each --query as a regex; translated to CLP "
                        "wildcard syntax (clg's regex_utils subset: "
                        "literals, '.', '.*', '.+', ^/$ anchors)")
    s.add_argument("--count", action="store_true", help="clg --count")
    s.add_argument("--count-by-time", metavar="BUCKET",
                   help="clo count-by-time: bucket size in ms (digits, "
                        "reference contract) or hour/minute/day")
    s.add_argument("--out", help="write matches to parquet instead of stdout")
    s.add_argument("--limit", type=int, default=1000,
                   help="max matches printed to stdout")
    s.add_argument("--path-glob", help="archive input-path prune")
    s.add_argument("--ts-min", type=int, help="archive ts-range prune (us)")
    s.add_argument("--ts-max", type=int, help="archive ts-range prune (us)")
    s.add_argument("--tag", action="append",
                   help="only archives carrying ANY of these tags (repeatable)")
    s.add_argument("--context", type=int,
                   help="print N conversation turns around each match "
                        "(grep -C over CLP results)")
    s.add_argument("--also", action="append",
                   help="additional search targets (repeatable) — "
                        "federates the search across storage tiers, e.g. "
                        "the hot fragment base plus the compacted cold "
                        "archive dir")
    s.set_defaults(fn=cmd_search)

    ci = sub.add_parser("catalog-init",
                        help="create a global archive catalog (_catalog/) "
                             "under a base dir; concurrent compress jobs "
                             "register lock-free")
    ci.add_argument("--base", required=True, help="archives base dir")
    ci.set_defaults(fn=cmd_catalog_init)

    fs = sub.add_parser("fsck",
                        help="archive integrity audit: manifests vs "
                             "parquet footers, torn writes")
    fs.add_argument("--archive", required=True, help="one archive dir")
    fs.set_defaults(fn=cmd_fsck)

    cd = sub.add_parser("catalog-distinct",
                        help="approx distinct count across all archives "
                             "from HLL sketch sidecars (no data scan)")
    cd.add_argument("--base", required=True, help="archives base dir")
    cd.add_argument("--column", default="conv_id")
    cd.set_defaults(fn=cmd_catalog_distinct)

    rt = sub.add_parser("retention",
                        help="TTL sweep: remove catalogued archives whose "
                             "ts range ends before the cutoff")
    rt.add_argument("--base", required=True, help="archives base dir")
    rt.add_argument("--before-us", type=int, required=True,
                    help="epoch-microsecond cutoff")
    rt.add_argument("--dry-run", action="store_true",
                    help="report without deleting")
    rt.set_defaults(fn=cmd_retention)

    st = sub.add_parser("stats", help="list archives + manifests")
    st.add_argument("--archive", required=True, help="base dir of archives")
    st.set_defaults(fn=cmd_stats)

    ie = sub.add_parser("ir-extract",
                        help="archive → CLP IR chunk files (clo K8)")
    ie.add_argument("--archive", required=True, help="one archive dir")
    ie.add_argument("--out", required=True, help="chunk output dir")
    ie.add_argument("--eight-byte", action="store_true",
                    help="8-byte encoded events (default 4-byte)")
    ie.add_argument("--target-size", type=int,
                    help="~bytes per IR chunk (clo --ir-target-size, "
                         "reference default 128 MiB)")
    ie.set_defaults(fn=cmd_ir_extract)

    isrch = sub.add_parser("ir-search",
                           help="wildcard search over IR stream files")
    isrch.add_argument("--input", required=True,
                       help="dir of .clp.ir files (or one file's dir)")
    isrch.add_argument("--query", required=True)
    isrch.add_argument("--ignore-case", action="store_true")
    isrch.add_argument("--out", help="write hits to parquet instead of stdout")
    isrch.add_argument("--limit", type=int, default=1000)
    isrch.add_argument("--ts-min", type=int, help="epoch-ms prune")
    isrch.add_argument("--ts-max", type=int, help="epoch-ms prune")
    isrch.set_defaults(fn=cmd_ir_search)

    gw = sub.add_parser("glt-write",
                        help="archive → grouped-logtype tables (glt c)")
    gw.add_argument("--archive", required=True)
    gw.add_argument("--out", help="GLT dir (default <archive>/glt)")
    gw.add_argument("--target-rows", type=int,
                    help="salt hot logtypes into ~this many rows per part")
    gw.set_defaults(fn=cmd_glt_write)

    gs = sub.add_parser("glt-search",
                        help="column-engine search over GLT layout (glt s)")
    gs.add_argument("--archive", required=True)
    gs.add_argument("--query", required=True)
    gs.add_argument("--ignore-case", action="store_true")
    gs.add_argument("--glt-dir", help="default <archive>/glt")
    gs.add_argument("--out", help="write hits to parquet instead of stdout")
    gs.add_argument("--limit", type=int, default=1000)
    gs.set_defaults(fn=cmd_glt_search)

    jc = sub.add_parser("json-compress",
                        help="NDJSON → columnar archive (clp-s c)")
    jc.add_argument("--input", required=True, nargs="+",
                    help="NDJSON file path(s) or glob(s)")
    jc.add_argument("--out", required=True, help="archive output dir")
    jc.add_argument("--timestamp-key",
                    help="record key holding the timestamp (range index)")
    jc.add_argument("--split-records", type=int,
                    help="roll a new sub-archive every N records "
                         "(clp-s archive splitting)")
    jc.add_argument("--single-file-archive", action="store_true",
                    help="pack the archive into one .clpsfa file "
                         "(clp-s c --single-file-archive); json-extract/"
                         "json-search accept the file directly")
    jc.set_defaults(fn=cmd_json_compress)

    jx = sub.add_parser("json-extract",
                        help="archive → NDJSON / parquet (clp-s x)")
    jx.add_argument("--archive", required=True,
                    help="archive dir (split base dirs auto-detected)")
    jx.add_argument("--out", required=True,
                    help=".jsonl/.ndjson file or parquet dir")
    jx.add_argument("--ordered", action="store_true",
                    help="k-way-merge order by log_event_idx")
    jx.add_argument("--ordered-chunk-size", type=int,
                    help="split ordered output into >=N-byte .jsonl chunks "
                         "(clp-s --target-ordered-chunk-size; implies "
                         "--ordered, --out is the chunk directory)")
    jx.set_defaults(fn=cmd_json_extract)

    js = sub.add_parser("json-search", help="KQL search (clp-s s)")
    js.add_argument("--archive", required=True,
                    help="archive dir (split base dirs auto-detected)")
    js.add_argument("--query", required=True, help="KQL query string")
    js.add_argument("--out", help="write hits to parquet instead of stdout")
    js.add_argument("--limit", type=int, default=1000,
                    help="max hits printed to stdout")
    js.add_argument("--ts-min", type=float, help="epoch-ms range prune")
    js.add_argument("--ts-max", type=float, help="epoch-ms range prune")
    js.add_argument("--projection", action="append",
                    help="output only this column path (repeatable; "
                         "clp-s search --projection)")
    js.set_defaults(fn=cmd_json_search)

    lc = sub.add_parser("log-compress",
                        help="compress raw text log files (clp c)")
    lc.add_argument("--input", required=True,
                    help="log file / dir of logs (.gz/.tar.*/.zip ok)")
    lc.add_argument("--out", required=True)
    lc.add_argument("--tag", action="append",
                    help="archive tag (repeatable)")
    lc.set_defaults(fn=cmd_log_compress)

    lx = sub.add_parser("log-extract",
                        help="reconstruct original log files (clp x)")
    lx.add_argument("--archive", required=True)
    lx.add_argument("--out", required=True)
    lx.set_defaults(fn=cmd_log_extract)

    ic = sub.add_parser("incr-compress",
                        help="delta-only generation vs a layered base")
    ic.add_argument("--input", required=True, help="sf dir / transcript dir")
    ic.add_argument("--base", required=True, help="generation-layered base dir")
    ic.set_defaults(fn=cmd_incr_compress)

    ix = sub.add_parser("incr-extract",
                        help="reconstruct the current snapshot from a base")
    ix.add_argument("--base", required=True)
    ix.add_argument("--out", required=True)
    ix.set_defaults(fn=cmd_incr_extract)

    isr = sub.add_parser("incr-search",
                         help="ownership-masked search across generations")
    isr.add_argument("--base", required=True)
    isr.add_argument("--query", required=True)
    isr.add_argument("--ignore-case", action="store_true")
    isr.add_argument("--limit", type=int, default=1000)
    isr.set_defaults(fn=cmd_incr_search)

    dd = sub.add_parser(
        "dictdump", help="dump dictionaries human-readable "
        "(make-dictionaries-readable)")
    dd.add_argument("--archive", required=True, help="one archive dir")
    dd.add_argument("--output-dir", required=True)
    dd.set_defaults(fn=cmd_dictdump)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    owned = _ensure_ray()
    try:
        _emit(args.fn(args))
        return 0
    finally:
        if owned:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
