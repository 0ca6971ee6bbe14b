"""Flagship pipeline: parse → enrich → route → aggregate over transcripts.

This is the Ray-Data rebuild of CLP compression (clp/compression.cpp:57-191 →
FileCompressor → Archive.write_msg), restructured as a streaming Dataset
pipeline:

    read_parquet(transcripts)                     # S1; column-pruned
      → RouteStage (logtype_class)                # fan-out key, from raw text
      → EnrichStage (broadcast role/tool meta)    # J6, no shuffle
      → EncodeStage (logtype + typed vars)        # M3/M4 vectorized kernels
      → per-class parquet files, written by the   # K1 fan-out sinks
        same task (FusedSinkStage)
      + logtype/var dictionary datasets           # T1/T2
      + per-class counts folded from task stats   # A1 (partial+final)
      + per-fragment lineage manifests            # checkpoint/resume

Scale notes: the only exchange is the dictionary finalize's id-hash bucket
merge over the encode tasks' dict deltas (deltas of at most
``execution.LOCAL_FINALIZE_BYTES`` merge in the calling process instead);
the encode path is per-batch, and each task returns a few pre-aggregated
stats rows instead of its encoded data. Sinks are partitioned parquet (one
dir per class), never a single file. Fragmented execution (run_fragments)
bounds the blast radius of a failure to one fragment and makes reruns skip
completed work.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from clp_core_ray.execution import choose, cluster_cpus
from clp_core_ray.sources.transcripts import (read_transcripts,
                                              transcript_files,
                                              transcripts_path)
from clp_core_ray.stages import encode
from clp_core_ray.stages.encode import DecodeStage, EncodeStage
from clp_core_ray.stages.enrich import EnrichStage
from clp_core_ray.stages.route import RouteStage
from clp_core_ray.state import manifest as mf
from clp_core_ray.state.atomic import atomic_write_table

# Segment codec choices (K2 breadth): the reference's Compressor.hpp offers
# passthrough/zstd/lzma; parquet's codec set maps passthrough→NONE and covers
# the high-ratio niche with gzip/brotli (parquet has no lzma). zstd level 3
# is CLP's own default (CommandLineArguments.hpp:90).
CODECS = {
    "passthrough": ("none", None),
    "zstd": ("zstd", 3),
    "lz4": ("lz4", None),
    "gzip": ("gzip", None),
    "brotli": ("brotli", None),
    "snappy": ("snappy", None),
}


def _codec(name: str, level: int | None):
    if name not in CODECS:
        raise ValueError(f"unknown codec {name!r}; choose {sorted(CODECS)}")
    c, default_level = CODECS[name]
    return c, (level if level is not None else default_level)


ENCODE_BATCH_SIZE = 16 * 1024  # rows; ~2-4 MB of text per batch → warm scratch
FUSED_ROWS_PER_BLOCK = 64 * 1024  # fused-sink file target → ≥~7k rows/class file
# Parallelism (≥1 block/CPU) takes priority over the file-size target only
# while blocks still hold at least this many rows; below it a small job keeps
# fewer, bigger blocks instead of shattering into per-class files of a few
# hundred rows each.
FUSED_MIN_ROWS_PER_BLOCK = 4096
# parquet dictionary pages only for genuinely repetitive columns:
# dictionary-encoding the mostly-unique var/text columns costs ~1.5x write
# time AND more bytes (measured 20.4s/384MB default vs 13.9s/352MB selective
# at sf1.6, 16 CPUs).
SINK_DICT_COLS = ["conv_id", "role", "tool", "role_group", "tool_category"]
# one row per (task, class) a FusedSinkStage call wrote
_STATS_SCHEMA = pa.schema([("logtype_class", pa.string()),
                           ("cnt", pa.int64()),
                           ("ts_min", pa.int64()),
                           ("ts_max", pa.int64())])


class _DeltaWatcher:
    """Overlap dictionary finalize with the sink write: a driver thread polls
    the delta dir and submits pre-dedup Ray tasks for new files as encode
    tasks flush them (atomic rename makes partially-written files
    invisible), once at least ``min_batch`` are pending. By the time a large
    sink write returns, most of the finalize's read+dedup work is done or in
    flight — the serial tail is just the per-bucket merge. A small write
    flushes too few files for a batch; the watcher then submits nothing and
    ``write_archive_dicts`` picks the finalize side from the delta bytes
    (small inputs merge in process)."""

    def __init__(self, delta_dir: str, poll_s: float = 0.25, min_batch: int = 24):
        import threading

        self.delta_dir = delta_dir
        self.poll_s = poll_s
        self.min_batch = min_batch
        self.seen: set[str] = set()
        self.refs: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_DeltaWatcher":
        self._thread.start()
        return self

    def _pending(self) -> list[str]:
        try:
            names = os.listdir(self.delta_dir)
        except FileNotFoundError:
            return []
        return [n for n in names
                if n.endswith(".arrow") and n not in self.seen]

    def _submit(self, names: list[str]) -> None:
        import ray

        from clp_core_ray.state.dictionaries import N_FINALIZE_BUCKETS, _prededup_files

        if not hasattr(self, "_task"):
            self._task = ray.remote(num_returns=N_FINALIZE_BUCKETS)(_prededup_files)
        self.refs.append(
            self._task.remote([os.path.join(self.delta_dir, n) for n in names])
        )
        self.seen.update(names)

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            p = self._pending()
            if len(p) >= self.min_batch:
                self._submit(p)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def finish(self) -> list:
        """Stop polling, submit any remaining files, return all task refs."""
        self.stop()
        p = self._pending()
        if p:
            self._submit(p)
        return self.refs


class FullEncodeStage:
    """route → enrich → encode fused into one stage (single object-store hop).

    Runs as stateless tasks: the instance lives for a whole block, so
    dictionary delta dedup (T1/T2) is per-block; the finalize distinct
    removes cross-block duplicates.

    With ``compact=True`` (what ``compress`` writes) the per-row ``logtype``
    string, its var count ``n_vars`` and inline ``dict_vars`` are dropped
    from the output: rows carry ``logtype_id`` and ``encoded_vars`` — CLP's
    storage model (three columns + dictionaries, File.hpp:17-22). Decode
    then resolves both through the archive dictionaries, and each var's
    kind and count through the template's placeholders. ``compact=False`` keeps both inline
    for in-memory decode (``build_encoded``, ``roundtrip_check``); the
    traced ingest in perfbench/tracing.py also writes such rows as
    fragments.
    """

    def __init__(self, keep_text: bool = False, dict_delta_dir: str | None = None,
                 compact: bool = False, dict_cap_entries: int | None = None):
        self.route = RouteStage()
        self.enrich = EnrichStage()
        self.encode = EncodeStage(
            keep_text=keep_text,
            dict_delta_dir=dict_delta_dir,
            keep_dict_vars=not compact,
            dict_cap_entries=dict_cap_entries,
        )
        self.compact = compact

    def __call__(self, batch):
        out = self.encode(self.enrich(self.route(batch)))
        if self.compact:
            out = out.drop_columns(["logtype", "n_vars"])
        return out


class FusedSinkStage:
    """Encode + sink write fused into one task — CLP's per-worker segment
    writer (Archive.cpp:298-316 feeding Segment.cpp in the same process),
    re-expressed for Ray Data.

    Each task encodes its block in ENCODE_BATCH_SIZE slices, writes the
    per-class parquet files itself (state/atomic.py: content-named,
    tmp → os.replace), and emits only tiny (class, cnt, ts_min, ts_max)
    stats rows — the encoded data never enters the object store (an
    encode → write_parquet pipeline would ship every encoded block through
    it: encode task → plasma → write task)."""

    def __init__(self, routed_dir: str, dict_delta_dir: str | None = None,
                 compact: bool = False, dict_cap_entries: int | None = None,
                 dict_cols=(), row_group_rows: int = 64 * 1024,
                 codec: str = "zstd", codec_level: int | None = None):
        self.stage = FullEncodeStage(
            dict_delta_dir=dict_delta_dir, compact=compact,
            dict_cap_entries=dict_cap_entries,
        )
        self.routed_dir = routed_dir
        self.dict_cols = list(dict_cols)
        self.row_group_rows = row_group_rows
        self.compression, self.compression_level = _codec(codec, codec_level)

    def __call__(self, block: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # split each encode slice by class while it is still cache-resident
        # (one big concat + per-class filters over the full block would make
        # two extra DRAM passes over the encoded data — the write side is
        # memory-bound, not CPU-bound, at high concurrency)
        bufs: dict[str, list[pa.Table]] = {}
        for off in range(0, len(block), ENCODE_BATCH_SIZE):
            piece = block.slice(off, ENCODE_BATCH_SIZE)
            if not len(piece):
                continue
            enc = self.stage(piece)
            cls_col = enc.column("logtype_class")
            for cls in pc.unique(cls_col).to_pylist():
                sub = enc.filter(pc.equal(cls_col, cls))
                bufs.setdefault(cls, []).append(
                    sub.drop_columns(["logtype_class"])
                )
        if not bufs:
            return _STATS_SCHEMA.empty_table()
        dict_cols = None
        out_cls: list[str] = []
        out_cnt: list[int] = []
        out_lo: list = []
        out_hi: list = []
        for cls in sorted(bufs):
            # chunked concat is metadata-only (no data copy)
            sub = pa.concat_tables(bufs[cls])
            if dict_cols is None:
                dict_cols = [c for c in self.dict_cols
                             if c in sub.schema.names]
            d = os.path.join(self.routed_dir, f"logtype_class={cls}")
            os.makedirs(d, exist_ok=True)
            # the name hashes the FULL row keys, so a retried task replaces
            # its own file instead of duplicating it; the class dir keeps
            # classes apart
            atomic_write_table(sub, d, prefix="part",
                               cols=["conv_id", "turn_idx", "ts"],
                               compression=self.compression,
                               compression_level=self.compression_level,
                               use_dictionary=dict_cols,
                               row_group_size=self.row_group_rows)
            mm = pc.min_max(
                sub.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
            )
            out_cls.append(cls)
            out_cnt.append(len(sub))
            out_lo.append(mm["min"].as_py())
            out_hi.append(mm["max"].as_py())
        return pa.table([out_cls, out_cnt, out_lo, out_hi],
                        schema=_STATS_SCHEMA)


def fold_sink_stats(stats: pa.Table) -> tuple[pa.Table, tuple[int, int] | None]:
    """FusedSinkStage stats rows (one per task and class) → (per-class
    count table sorted by class, (ts_min, ts_max) or None)."""
    agg: dict[str, int] = {}
    lo = hi = None
    if stats.num_rows:
        for cls, c, l, h in zip(stats.column("logtype_class").to_pylist(),
                                stats.column("cnt").to_pylist(),
                                stats.column("ts_min").to_pylist(),
                                stats.column("ts_max").to_pylist()):
            agg[cls] = agg.get(cls, 0) + c
            if l is not None:
                lo = l if lo is None else min(lo, l)
            if h is not None:
                hi = h if hi is None else max(hi, h)
    counts_tbl = pa.table({
        "logtype_class": pa.array(sorted(agg), type=pa.string()),
        "cnt": pa.array([agg[k] for k in sorted(agg)], type=pa.int64()),
    })
    return counts_tbl, ((lo, hi) if lo is not None else None)


def _class_counts(counts_tbl: pa.Table) -> dict[str, int]:
    return dict(zip(counts_tbl.column("logtype_class").to_pylist(),
                    counts_tbl.column("cnt").to_pylist()))


def _rows_from_footers(files) -> int:
    """Exact row count from parquet footers (metadata only, no data read)."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _sink_blocks(files: list[str]) -> int:
    """Read blocks for a fused-sink write of transcript parquet ``files``.

    Block = sink-file granularity: parallelism (≥1 block/CPU) wins while
    blocks still hold at least FUSED_MIN_ROWS_PER_BLOCK rows; below that a
    small job keeps fewer, bigger blocks instead of shattering the archive
    into per-class files of a few hundred rows (search pays per-file
    footer+planning cost). The row count comes from parquet footers only.
    """
    expected_rows = _rows_from_footers(files)
    ncpu = cluster_cpus()
    by_file = expected_rows // FUSED_ROWS_PER_BLOCK or 1
    by_min = expected_rows // FUSED_MIN_ROWS_PER_BLOCK or 1
    return max(1, min(4 * ncpu, max(by_file, min(ncpu, by_min))))


def build_encoded(ds, keep_text: bool = False):
    """transcripts Dataset → routed+enriched+encoded Dataset (lazy), rows
    carrying their ``logtype`` and ``dict_vars`` for in-memory decode."""
    return ds.map_batches(
        FullEncodeStage(keep_text=keep_text,
                        dict_cap_entries=encode.DICT_CAP_ENTRIES),
        batch_format="pyarrow",
        batch_size=ENCODE_BATCH_SIZE,
    )


def input_bytes(files) -> int:
    """Stat'd size of an input's files, the size ``compress`` chooses its
    side by. A missing file counts 0 (its reader raises)."""
    return sum(os.path.getsize(f) for f in files if os.path.isfile(f))


def messages_to_transcripts(b: pa.Table) -> pa.Table:
    """Assembled log messages → the transcript row model: conv_id = file
    path, turn_idx = message index, with the timestamp-pattern columns
    (pattern_id, ts_begin, eof_nl) riding through the archive so extraction
    can re-insert timestamps byte-identically (TimestampPattern.cpp:751
    role)."""
    import pyarrow.compute as pc

    n = b.num_rows
    return pa.table({
        "conv_id": b.column("path").cast(pa.large_string()),
        "turn_idx": b.column("msg_idx").cast(pa.int32()),
        "role": pa.array(["log"] * n, type=pa.large_string()),
        "text": b.column("content"),
        "tool": pa.array([""] * n, type=pa.large_string()),
        "ts": pc.cast(b.column("ts_ms"), pa.timestamp("ms")),
        "pattern_id": b.column("pattern_id"),
        "ts_begin": b.column("ts_begin"),
        "eof_nl": b.column("eof_nl"),
    })


def _path_input(src, fmt: str):
    """A path-named input → (its files, an in-process reader returning one
    transcript-shaped table, a Ray Data reader). ``fmt`` "transcripts":
    ``src`` is a scale factor, its cache dir or a list of parquet files;
    "textlog": raw log files, a directory of them, or one file."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if fmt == "textlog":
        from clp_core_ray.sources.textlog import (load_log_files, log_files,
                                                  read_log_messages)

        files = log_files(src)
        return (files,
                lambda: messages_to_transcripts(
                    load_log_files(pa.table({"path": files}))),
                lambda: read_log_messages(files).map_batches(
                    messages_to_transcripts, batch_format="pyarrow"))
    files = (list(src) if isinstance(src, (list, tuple))
             else transcript_files(src))
    return (files,
            lambda: pa.concat_tables(
                [pq.read_table(f, partitioning=None) for f in files]),
            lambda: rd.read_parquet(
                files, override_num_blocks=_sink_blocks(files)))


def compress(
    sf_dir_or_sf,
    out_dir: str,
    ds=None,
    input_label: str | None = None,
    tags: list | None = None,
    catalog_base: str | None = None,
    codec: str = "zstd",
    codec_level: int | None = None,
    fmt: str = "transcripts",
):
    """Run the flagship pipeline; returns the per-class count table (small).

    Writes routed sinks to <out_dir>/routed/ partitioned by logtype_class,
    the archive's dictionaries and a manifest with per-class counts. Sink
    rows hold CLP's three columns (ts, logtype id, encoded vars, plus the
    row metadata); logtype templates and dictionary variables live only in
    the dictionaries.

    The input is named by paths (``sf_dir_or_sf``: a scale factor, its
    cache dir or a list of transcript parquet files; raw log files with
    ``fmt="textlog"``), or is an arbitrary transcript Dataset ``ds`` (the
    archive-per-input-group model, clp/compression.cpp:133-163 file
    grouping). A path-named input of at most
    ``execution.LOCAL_COMPRESS_BYTES`` stat'd bytes is read and written in
    the calling process, by one ``FusedSinkStage`` call (one file per
    class, as CLP's ``clp c`` writes in the process that reads the
    files); a larger one, and every ``ds``, is a Ray Data job.
    ``input_label`` is recorded as the manifest's input. ``tags``
    are free-form archive labels persisted in the manifest; multi-archive
    search selects on them (the package metadata-DB tag column's role).
    ``catalog_base`` registers the finished archive in that base dir's
    global catalog (state/catalog.py, the GlobalSQLiteMetadataDB INSERT a
    reference job issues on completion) — lock-free, so concurrent compress
    jobs may share one catalog. When unset, the archive is still registered
    automatically if its parent dir already carries a ``_catalog/``.
    """
    import time

    from clp_core_ray.state.dictionaries import write_archive_dicts

    if ds is None:
        files, read_local, read_ray = _path_input(sf_dir_or_sf, fmt)
        nbytes = input_bytes(files)
        side = choose("compress", nbytes)
        if input_label is None:
            input_label = (";".join(files) if fmt == "textlog"
                           or isinstance(sf_dir_or_sf, (list, tuple))
                           else str(transcripts_path(sf_dir_or_sf)))
    else:
        nbytes, side = None, "ray"
        if input_label is None:
            input_label = "dataset-override"
    delta_dir = os.path.join(out_dir, "dict.deltas")
    routed_dir = os.path.join(out_dir, "routed")
    t0 = time.time()
    os.makedirs(routed_dir, exist_ok=True)
    sink = FusedSinkStage(
        routed_dir=routed_dir, dict_delta_dir=delta_dir, compact=True,
        dict_cap_entries=encode.DICT_CAP_ENTRIES,
        dict_cols=SINK_DICT_COLS, codec=codec, codec_level=codec_level,
    )
    watcher = None
    try:
        if side == "local":
            stats = sink(read_local())
        else:
            # pre-dedup of dictionary deltas overlaps the sink write (its
            # ~20 cpu-s disappear into idle write slots), leaving only the
            # fast bucket merge after the write — finalize 3.2s → 0.3s at
            # 16 CPUs once the merge's parquet writes skip dictionary pages
            watcher = _DeltaWatcher(delta_dir).start()
            stats = _to_table((read_ray() if ds is None else ds).map_batches(
                sink, batch_format="pyarrow", batch_size=None))
    finally:
        # a failed write must not leave the poller thread running
        if watcher is not None:
            watcher.stop()
        # the write is over: any surviving *.inprogress is a dead attempt
        # (a task killed mid-write, whose retry wrote its OWN tmp and
        # replaced the final name; or a failed in-process write). Readers
        # also filter to *.parquet, but a stale tmp would still count
        # toward archive_bytes and confuse directory listings — sweep it.
        sweep_inprogress(routed_dir)
    t_write = time.time()
    counts_tbl, ts_range = fold_sink_stats(stats)
    # a watcher that submitted no phase-1 task (and the local side, which
    # starts none) leaves the finalize side to the delta volume; finish()
    # would submit the pending files to Ray
    dicts = write_archive_dicts(
        out_dir, delta_dir,
        prededup_refs=(watcher.finish()
                       if watcher is not None and watcher.refs else None))
    # the deltas are write scratch: drop them before the archive is measured
    # and committed. A crash before the manifest leaves an uncommitted
    # archive; its rerun re-encodes every row and re-flushes every delta.
    if os.path.isdir(delta_dir):
        shutil.rmtree(delta_dir)
    t_dicts = time.time()
    mf.record_fragment(
        out_dir,
        "full",
        {
            "input": input_label,
            "sink": routed_dir,
            "class_counts": _class_counts(counts_tbl),
            "archive_bytes": dir_bytes(out_dir),
            **({"tags": list(tags)} if tags else {}),
            **({"ts_min": ts_range[0], "ts_max": ts_range[1]} if ts_range else {}),
            # per-partition metrics alongside lineage (north-rule: manifests
            # carry both; write/finalize walls + derived throughput)
            "metrics": {
                "compress_side": side,
                "input_bytes": nbytes,
                "write_sec": round(t_write - t0, 3),
                "finalize_sec": round(t_dicts - t_write, 3),
                "finalize_side": dicts["side"],
                "dict_input_bytes": dicts["input_bytes"],
                "rows_per_sec": round(
                    sum(counts_tbl.column("cnt").to_pylist())
                    / max(t_dicts - t0, 1e-9), 1),
            },
        },
    )
    from clp_core_ray.state import catalog as _cat

    if catalog_base is None:
        parent = os.path.dirname(os.path.abspath(out_dir))
        if _cat.has_catalog(parent):
            catalog_base = parent
    if catalog_base is not None:
        _cat.register_archive(catalog_base, out_dir)
    return counts_tbl


def sweep_inprogress(sink_dir: str) -> int:
    """Unlink dead *.inprogress attempts under a completed sink dir.

    Call only after the write that produced the dir has fully finished: a
    retried task replaces its own deterministic final name but can never
    remove a killed attempt's pid-suffixed tmp file. Returns the count."""
    n = 0
    for root, _, files in os.walk(sink_dir):
        for f in files:
            if f.endswith(".inprogress"):
                try:
                    os.unlink(os.path.join(root, f))
                    n += 1
                except FileNotFoundError:
                    pass
    return n


def dir_bytes(d: str) -> int:
    return sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(d) for f in fs
    )


ENCODING_COLUMNS = {"logtype_id", "encoded_vars", "var_types", "n_vars"}


def encoded_message_bytes(out_dir: str) -> int:
    """Compressed bytes of the message-encoding columns + dictionaries.

    CLP's compression ratio compares raw log bytes against (segments +
    dicts); our sinks also carry row metadata (conv_id, ts, enrichments)
    that raw CLP wouldn't store, so the honest numerator is the encoding
    columns' parquet chunk sizes plus the dictionary files.
    """
    import pyarrow.parquet as pq

    total = 0
    routed = os.path.join(out_dir, "routed")
    for r, _, fs in os.walk(routed):
        for f in fs:
            if not f.endswith(".parquet"):
                continue
            md = pq.ParquetFile(os.path.join(r, f)).metadata
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                for c in range(g.num_columns):
                    col = g.column(c)
                    root = col.path_in_schema.split(".")[0]
                    if root in ENCODING_COLUMNS:
                        total += col.total_compressed_size
    total += dir_bytes(os.path.join(out_dir, "var.dict"))
    lt = os.path.join(out_dir, "logtype.dict.parquet")
    if os.path.exists(lt):
        total += os.path.getsize(lt)
    return total


def raw_text_bytes(sf_dir_or_sf) -> int:
    """Total UTF-8 bytes of the raw message text (CLP's compression-ratio
    denominator, cf. raw_num_bytes in EncodedVariableInterpreter.cpp:240)."""
    import pyarrow.compute as pc

    ds = read_transcripts(sf_dir_or_sf, columns=["text"])

    def n(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"b": pa.array([pc.sum(pc.binary_length(
                batch.column("text").cast(pa.large_binary()))).as_py() or 0],
                type=pa.int64())}
        )

    tbl = _to_table(ds.map_batches(n, batch_format="pyarrow"))
    return int(pa.compute.sum(tbl.column("b")).as_py() or 0)


def _to_table(ds) -> pa.Table:
    tables = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(tables) if tables else pa.table({})


def group_input_files(files: list[str],
                      target_bytes: int) -> list[list[str]]:
    """Size-bounded input partitioning: pack input files into ~target-byte
    fragments (the reference scheduler's compression-job partitioner,
    package scheduler/compress/partition.py:99-227 — group paths whose
    names sort together, then bound each group by size so a corpus of
    millions of tiny logs yields ~⌈total/target⌉ archive-sized jobs instead
    of one micro-archive per file).

    Deterministic for a given (files, target) — fragment membership, and
    with it the fragment ids, are resume-stable across reruns. A single
    file larger than the target gets its own fragment (never split here;
    the encode stage streams it in blocks anyway)."""
    sizes = {f: os.path.getsize(f) for f in files}
    # basename sort ≈ the reference's filename-similarity grouping: shards
    # of one source (app-2024-01-*.parquet) pack into the same fragments
    ordered = sorted(files, key=lambda f: (os.path.basename(f), f))
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_b = 0
    for f in ordered:
        if cur and cur_b + sizes[f] > target_bytes:
            groups.append(cur)
            cur, cur_b = [], 0
        cur.append(f)
        cur_b += sizes[f]
    if cur:
        groups.append(cur)
    return groups


def _fragment_id(group: list[str]) -> str:
    """Stable fragment id: single files keep their basename (back-compat
    with existing manifests); multi-file groups get a content-derived id
    from the member paths, so a rerun with the same inputs resumes."""
    if len(group) == 1:
        return os.path.splitext(os.path.basename(group[0]))[0]
    import hashlib

    h = hashlib.sha1("\n".join(group).encode()).hexdigest()[:12]
    return f"group-{len(group)}-{h}"


def run_fragments(sf_dir_or_sf, out_dir: str,
                  files: list[str] | None = None,
                  target_bytes: int | None = None) -> list[str]:
    """Checkpointed execution: one fragment per input group, skip completed.

    Each fragment is an independent sub-pipeline (read its input shard(s) →
    encode → a dictionary archive, run_one_fragment); its manifest is
    recorded only after the archive commits, so a rerun after a crash
    reprocesses only unfinished fragments (resume = anti-join of fragment
    ids against the manifest dir). Returns the fragment ids processed in
    this run.

    ``files`` overrides input discovery (the CLI passes a real user
    directory's parquet shards here; without it the synthetic transcript
    cache for ``sf_dir_or_sf`` is used). ``target_bytes`` packs small input
    files into ~target-sized fragments (group_input_files) instead of the
    default one-fragment-per-file — at real-corpus scale (millions of tiny
    logs) per-file fragments would mean per-archive dict/manifest overhead
    and no size balancing.
    """
    if files is None:
        files = transcript_files(sf_dir_or_sf)
    groups = (group_input_files(files, target_bytes)
              if target_bytes else [[f] for f in files])
    frag_ids = [_fragment_id(g) for g in groups]
    todo = mf.pending_fragments(frag_ids, out_dir)
    by_id = dict(zip(frag_ids, groups))
    for frag in todo:
        run_one_fragment(frag, by_id[frag], out_dir)
    return todo


def run_one_fragment(frag: str, paths: list[str], out_dir: str) -> int:
    """Compress ONE fragment of transcript parquet shards — the unit of
    work a scheduler poller claims — into a dictionary archive at
    ``<out_dir>/fragment=<frag>`` (:func:`archive_fragment`). As in CLP,
    where each compression task's archive is its checkpoint, the fragment
    needs no re-encode later: compacting fragments is ``merge_archives``.
    Returns the fragment's row count."""
    return archive_fragment(frag, paths, out_dir,
                            lambda sink: compress(paths, sink))


def archive_fragment(frag: str, paths: list[str], out_dir: str,
                     write) -> int:
    """Write one fragment as a dictionary archive at
    ``<out_dir>/fragment=<frag>`` (``write(sink)`` builds it and returns
    its per-class count table) and commit the fragment's manifest:
    ``"format": "clp"``, rows, class counts and the ts range folded from
    the archive's own manifests. The manifest records only after the
    archive committed, so a crash mid-fragment leaves no completed record
    and a retry rebuilds it (content-hash sink files make the retry
    collision-free). Returns the fragment's row count."""
    import time

    t0 = time.time()
    sink = os.path.join(out_dir, f"fragment={frag}")
    class_counts = _class_counts(write(sink))
    n_rows = int(sum(class_counts.values()))
    wall = time.time() - t0
    ts = mf.fold_manifests(sink)
    mf.record_fragment(
        out_dir,
        frag,
        {
            "input": paths[0] if len(paths) == 1 else paths,
            "sink": sink,
            "rows": n_rows,
            "format": "clp",
            "metrics": {"wall_sec": round(wall, 3),
                        "rows_per_sec": round(n_rows / max(wall, 1e-9), 1)},
            "class_counts": class_counts,
            **({"ts_min": int(ts["ts_min"]), "ts_max": int(ts["ts_max"])}
               if ts["ts_min"] is not None else {}),
        },
    )
    return n_rows


def roundtrip_check(sf_dir_or_sf) -> pa.Table:
    """Per-turn text round-trip equality under stable (conv_id, turn_idx) order.

    Returns one row: (n_turns, n_ok) — the north-rule per-row invariant.
    """
    import pyarrow.compute as pc

    ds = read_transcripts(sf_dir_or_sf)
    encoded = build_encoded(ds, keep_text=True)
    decoded = encoded.map_batches(DecodeStage(out_col="decoded"), batch_format="pyarrow")

    def check(batch: pa.Table) -> pa.Table:
        ok = pc.equal(batch.column("text"), batch.column("decoded"))
        return pa.table(
            {
                "n_turns": pa.array([len(batch)], type=pa.int64()),
                "n_ok": pa.array([pc.sum(ok).as_py() or 0], type=pa.int64()),
            }
        )

    parts = decoded.map_batches(check, batch_format="pyarrow")
    tbl = _to_table(parts)
    return pa.table(
        {
            "n_turns": pa.array([pa.compute.sum(tbl.column("n_turns")).as_py()]),
            "n_ok": pa.array([pa.compute.sum(tbl.column("n_ok")).as_py()]),
        }
    )


def compress_text_logs(paths, out_dir: str, **compress_kwargs):
    """Compress raw text log files into an archive — the reference's primary
    `clp c` input shape (FileCompressor.cpp:111-194: message assembly by
    timestamp-pattern sniffing, then the same encode path as everything
    else): ``compress(paths, fmt="textlog")``. tar/gz/zip inputs expand
    recursively (S2); messages map onto the transcript row model
    (:func:`messages_to_transcripts`)."""
    if not isinstance(paths, str):
        paths = list(paths)
    label = compress_kwargs.pop(
        "input_label",
        paths if isinstance(paths, str) else f"{len(paths)} log files")
    return compress(paths, out_dir, input_label=str(label), fmt="textlog",
                    **compress_kwargs)


def completed_inputs(out_dir: str) -> set[str]:
    """Input paths already owned by a completed fragment (from manifests)."""
    done: set[str] = set()
    for m in mf.read_manifests(out_dir):
        inp = m.get("input")
        if isinstance(inp, list):
            done.update(inp)
        elif inp:
            done.add(inp)
    return done
