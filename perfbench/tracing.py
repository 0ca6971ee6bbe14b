"""The traced run: per-layer self time and counts from spans.

End-to-end numbers are measured with tracing off; this run is separate.
Layers that Ray Data would run inside worker processes are called here in
the benchmark's own process, one call at a time and in pipeline order,
through their public entry points (``FusedSinkStage`` per input block,
``ArchiveDecodeStage``, ``assemble_messages``, ``jobs.try_claim`` and so
on). A search runs the
program's own ``search_archive``; only its final ``map_batches`` runs in
this process, on the batches Ray Data reads and bundles for it. Each call
into a layer is wrapped in a span — name, start, end, parent span and run
id — by rebinding the layer's name for the duration of the pass, from
these benchmark files only; the program is not modified. Counts are
recorded at the same boundaries.

A layer's self time is its span's duration minus the part covered by its
child spans. Each operation is one root span ``op.<name>``; the traced wall
is the sum of the root spans, and ``unattributed_s`` is the traced wall
minus the layers' summed self time — the benchmark's glue plus the Ray Data
launch and scheduling of the calls that stay opaque (the rebuild inside a
transcript compaction, IR extraction). Passes alternate with untraced
passes of the same operations through the public functions;
``trace.overhead_s`` is the traced pass wall minus the untraced one, and is
negative when running layers directly saves more Ray Data launch cost than
the spans add. Spans stay in memory and are written once, at the end, as
JSON lines.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DECODE_BATCH = 32 * 1024  # rows per ArchiveDecodeStage call


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.run_id = ""
        self.search_batch_size = None  # search_archive's map_batches size
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, v: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + v

    def wrap(self, fn, name: str, on_call=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def rebind(self, targets):
        """Wrap ``owner.attr`` in a span for each (owner, attr, span name
        [, on_call]) target; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, *cb in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, *cb))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> tuple[dict[str, float], float, float]:
        """(self seconds per span name, summed root wall, summed self
        seconds of every non-root span)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        root = layers = 0.0
        for s, c in zip(self.spans, child):
            d = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + d - c
            if s["parent"] is None:
                root += d
            else:
                layers += d - c
        return out, root, layers

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _layer_targets():
    """Every layer entry point the traced pass rebinds, with the counts
    taken at that boundary."""
    from clp_core_ray.pipelines import compact, compress, decompress, grep
    from clp_core_ray.sources import textlog
    from clp_core_ray.stages import encode
    from clp_core_ray.stages.enrich import EnrichStage
    from clp_core_ray.stages.route import RouteStage
    from clp_core_ray.state import jobs, manifest
    from clp_core_ray import timestamps

    def enc_bytes(tr, args, out):
        texts = args[0]
        tr.count("vec.tokenizer.bytes_in",
                 pc.sum(pc.binary_length(texts)).as_py() or 0)

    def dec_rows(tr, args, out):
        tr.count("vec.decoder.rows", len(out))

    def subqueries(tr, args, out):
        tr.count("pipelines.grep.subqueries", len(out.subqueries))

    def parsed(tr, args, out):
        tr.count("sources.textlog.lines", len(args[0]))

    return [
        (compress.FusedSinkStage, "__call__", "pipelines.compress.sink"),
        (RouteStage, "__call__", "stages.route"),
        (EnrichStage, "__call__", "stages.enrich"),
        (encode.EncodeStage, "__call__", "stages.encode"),
        (encode, "encode_batch", "vec.tokenizer.encode", enc_bytes),
        (encode.EncodeStage, "_flush_dict_deltas",
         "stages.encode.delta_flush"),
        (decompress, "decode_batch", "vec.decoder.decode", dec_rows),
        (encode, "decode_batch", "vec.decoder.decode", dec_rows),
        (grep, "compile_query", "pipelines.grep.compile", subqueries),
        (textlog, "parse_and_strip", "timestamps.parse", parsed),
        (timestamps, "format_batch", "timestamps.format"),
        (manifest, "record_fragment", "state.manifest.commit"),
        (jobs, "try_claim", "state.jobs.claim"),
        (jobs, "mark_done", "state.jobs.commit"),
        (compact, "merge_archives", "pipelines.compact.merge"),
        (compact, "_finalize_dicts_parallel", "state.dictionaries.merge"),
        (compact, "_finish_retirement", "pipelines.compact.retire"),
        (compress, "compress", "pipelines.compact.rebuild"),
    ]


# ---------------------------------------------------------------------------
# operations, layer by layer
# ---------------------------------------------------------------------------

def _blocks(tr: Tracer, corpus, files):
    """Input blocks as the program's sources hand them to the encode path:
    one parquet shard, or one text-log file assembled into messages and
    mapped onto the transcript row model (``compress_text_logs``)."""
    from clp_core_ray.sources.textlog import assemble_messages

    for path in files:
        if corpus.kind == "transcripts":
            with tr.span("sources.read"):
                t = pq.read_table(path)
            tr.count("sources.rows", t.num_rows)
            yield t
            continue
        with tr.span("sources.read"):
            with open(path, "rb") as f:
                text = f.read().decode("utf-8", errors="replace")
            lines = text.split("\n")
            if lines and lines[-1] == "":
                lines.pop()
        with tr.span("sources.textlog.assemble"):
            m = assemble_messages(pa.array(lines, type=pa.large_string()),
                                  path, eof_nl=text.endswith("\n"))
        n = m.num_rows
        tr.count("sources.rows", n)
        tr.count("sources.textlog.messages", n)
        yield pa.table({
            "conv_id": m.column("path").cast(pa.large_string()),
            "turn_idx": m.column("msg_idx").cast(pa.int32()),
            "role": pa.array(["log"] * n, type=pa.large_string()),
            "text": m.column("content"),
            "tool": pa.array([""] * n, type=pa.large_string()),
            "ts": pc.cast(m.column("ts_ms"), pa.timestamp("ms")),
            "pattern_id": m.column("pattern_id"),
            "ts_begin": m.column("ts_begin"),
            "eof_nl": m.column("eof_nl"),
        })


def _class_counts(stats: list[pa.Table]) -> dict:
    agg: dict[str, int] = {}
    for s in stats:
        for c, n in zip(s.column("logtype_class").to_pylist(),
                        s.column("cnt").to_pylist()):
            agg[c] = agg.get(c, 0) + n
    return agg


def _write_path(tr: Tracer, corpus, files, out_dir: str, compact: bool):
    """Blocks → ``FusedSinkStage`` → dictionary finalize, as ``compress``
    runs them. Returns the class counts."""
    from clp_core_ray.pipelines.compress import FusedSinkStage
    from clp_core_ray.state.dictionaries import write_archive_dicts

    dict_cols = ["conv_id", "role", "tool", "role_group", "tool_category"]
    delta = os.path.join(out_dir, "dict.deltas") if compact else None
    if not compact:
        dict_cols.append("logtype")
    sink = FusedSinkStage(routed_dir=os.path.join(out_dir, "routed"),
                          dict_delta_dir=delta, compact=compact,
                          dict_cols=dict_cols)
    os.makedirs(os.path.join(out_dir, "routed"), exist_ok=True)
    stats = [sink(b) for b in _blocks(tr, corpus, files)]
    if compact:
        with tr.span("state.dictionaries.finalize"):
            write_archive_dicts(out_dir, delta)
    return _class_counts(stats)


def compress(tr: Tracer, corpus, out_dir: str) -> None:
    from clp_core_ray.state import manifest as mf

    counts = _write_path(tr, corpus, corpus.files, out_dir, compact=True)
    mf.record_fragment(out_dir, "full", {"input": "perfbench",
                                         "sink": os.path.join(out_dir, "routed"),
                                         "class_counts": counts})
    _archive_counts(tr, out_dir)
    if sum(counts.values()) != corpus.reference.num_rows:
        raise AssertionError("traced compress lost rows")


def _archive_counts(tr: Tracer, archive: str) -> None:
    """Sink files and bytes, archive bytes by column from parquet footers,
    dictionary sizes and delta volume."""
    from clp_core_ray.pipelines.compress import dir_bytes

    col_key = {"logtype_id": "logtype_id_bytes",
               "encoded_vars": "encoded_vars_bytes",
               "var_types": "var_types_bytes", "ts": "ts_bytes"}
    files = glob.glob(os.path.join(archive, "routed", "*", "*.parquet"))
    tr.count("pipelines.compress.sink_files", len(files))
    for f in files:
        tr.count("pipelines.compress.sink_bytes", os.path.getsize(f))
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for c in range(g.num_columns):
                col = g.column(c)
                key = col_key.get(col.path_in_schema.split(".")[0],
                                  "other_col_bytes")
                tr.count(f"pipelines.compress.{key}",
                         col.total_compressed_size)
    lt = os.path.join(archive, "logtype.dict.parquet")
    tr.count("state.dictionaries.logtype_dict_bytes", os.path.getsize(lt))
    tr.count("state.dictionaries.var_dict_bytes",
             dir_bytes(os.path.join(archive, "var.dict")))
    lt_n = pq.ParquetFile(lt).metadata.num_rows
    var_n = sum(pq.ParquetFile(f).metadata.num_rows for f in
                glob.glob(os.path.join(archive, "var.dict", "*.parquet")))
    tr.count("state.dictionaries.logtype_entries", lt_n)
    tr.count("state.dictionaries.var_entries", var_n)
    delta_n = 0
    for f in glob.glob(os.path.join(archive, "dict.deltas", "*")):
        if f.endswith(".arrow"):
            with pa.memory_map(f) as src:
                delta_n += pa.ipc.open_file(src).read_all().num_rows
        elif f.endswith(".parquet"):
            delta_n += pq.ParquetFile(f).metadata.num_rows
    tr.count("stages.encode.delta_entries", delta_n)
    tr.count("stages.encode.final_entries", lt_n + var_n)


def _decode_archive(tr: Tracer, archive: str, columns) -> pa.Table:
    """``load_dicts`` once, then ``ArchiveDecodeStage`` per read batch."""
    import ray

    from clp_core_ray.pipelines.decompress import (ArchiveDecodeStage,
                                                   load_dicts)

    with tr.span("pipelines.decompress.load_dicts"):
        dicts = load_dicts(archive)
    stage = ArchiveDecodeStage(ray.put(dicts))
    need = list(columns) + ["logtype_id", "encoded_vars", "var_types"]
    out = []
    for f in sorted(glob.glob(os.path.join(archive, "routed", "*",
                                           "*.parquet"))):
        with tr.span("pipelines.decompress.read"):
            t = pq.read_table(f, columns=need, partitioning=None)
        for b in t.to_batches(DECODE_BATCH):
            out.append(stage(pa.Table.from_batches([b]))
                       .select(list(columns) + ["text"]))
    return pa.concat_tables(out)


def decompress(tr: Tracer, corpus, archive: str) -> None:
    import ops

    t = _decode_archive(tr, archive, ops.DECOMPRESS_COLUMNS)
    got = ops._sorted_keys(t, with_text=True)
    if not got.equals(ops._sorted_keys(corpus.reference, with_text=True)):
        raise ops.Mismatch("traced decompress differs from the input")


class _InlineBatches:
    """What ``Dataset.map_batches`` returns while a traced search runs: the
    upstream batches, bundled by Ray Data at the requested batch size, go
    through the program's own batch function in this process, so the
    layers it calls can be traced."""

    def __init__(self, tr: Tracer, ds, fn, batch_size):
        self.tr, self.ds, self.fn = tr, ds, fn
        self.batch_size = batch_size

    def iter_batches(self, batch_format: str = "pyarrow", **_):
        tr = self.tr
        tr.search_batch_size = self.batch_size
        it = iter(self.ds.iter_batches(batch_format="pyarrow",
                                       batch_size=self.batch_size))
        while True:
            with tr.span("pipelines.search.read"):
                b = next(it, None)
            if b is None:
                return
            b = pa.table(b)
            tr.count("pipelines.search.rows_scanned", b.num_rows)
            with tr.span("pipelines.search.filter"):
                out = self.fn(b)
            tr.count("pipelines.search.hits", out.num_rows)
            yield out


@contextlib.contextmanager
def _inline_map_batches(tr: Tracer):
    import ray.data as rd

    orig = rd.Dataset.map_batches
    rd.Dataset.map_batches = (lambda ds, fn, batch_size=None, **_:
                              _InlineBatches(tr, ds, fn, batch_size))
    try:
        yield
    finally:
        rd.Dataset.map_batches = orig


def search(tr: Tracer, archive: str, query: str, expected) -> None:
    """The program's own ``search_archive``, with its scan run in the
    calling process: compile, prune (``_prune_keep_classes``,
    ``_class_paths``), the Ray Data read of the kept classes, candidate
    filter, ``decode_batch``, and the regex verify."""
    import ops
    from clp_core_ray.pipelines import decompress
    from clp_core_ray.pipelines import search as s
    from clp_core_ray.vec import decoder

    routed = os.path.join(archive, "routed")

    def kept(tr, args, out):
        tr.count("pipelines.search.classes_kept",
                 len(os.listdir(routed)) if out is None else len(out))

    def files(tr, args, out):
        n = (len(out) if isinstance(out, list) else
             len(glob.glob(os.path.join(out, "*", "*.parquet"))))
        tr.count("pipelines.search.files_read", n)

    def decoded(tr, args, out):
        tr.count("vec.decoder.rows", len(out))
        tr.count("pipelines.search.rows_candidate", len(out))
        tr.count("pipelines.search.decode_batches")

    targets = [
        (s, "compile_for_archive", "pipelines.search.compile"),
        (s, "_prune_keep_classes", "pipelines.search.prune", kept),
        (s, "_class_paths", "pipelines.search.prune", files),
        (s, "wildcard_to_regex", "pipelines.search.verify"),
        (pc, "match_substring_regex", "pipelines.search.verify"),
        (decompress, "load_dicts", "pipelines.decompress.load_dicts"),
        (decoder, "decode_batch", "vec.decoder.decode", decoded),
    ]
    with tr.rebind(targets), _inline_map_batches(tr):
        got = ops._sorted_keys(ops._consume(s.search_archive(archive, query)))
    if not got.equals(expected):
        raise ops.Mismatch(f"traced search {query!r}: {got.num_rows} hits, "
                           f"oracle {expected.num_rows}")


def ingest(tr: Tracer, corpus, files: list[str], inbox: str, base: str,
           rows_so_far: int) -> None:
    """One ``ingest.poll`` round, one fragment at a time: claim, run the
    fragment (``run_one_fragment`` for transcripts, ``compress_text_logs``
    for text logs), commit its manifest, mark the job done. Returns the
    rows the fragments hold."""
    from clp_core_ray.pipelines.compress import _fragment_id
    from clp_core_ray.state import jobs
    from clp_core_ray.state import manifest as mf

    import ops

    os.makedirs(inbox, exist_ok=True)
    new = []
    for f in files:
        dst = os.path.join(inbox, os.path.basename(f))
        os.link(f, dst)
        new.append(dst)
    for f in new:
        frag = _fragment_id([f])
        if not jobs.try_claim(base, frag, [f], "perfbench"):
            raise AssertionError(f"fragment {frag} already claimed")
        t0 = time.perf_counter()
        with tr.span("pipelines.ingest.fragment"):
            sink = os.path.join(base, f"fragment={frag}")
            if corpus.kind == "transcripts":
                counts = _write_path(tr, corpus, [f], sink, compact=False)
                info = {}
            else:
                counts = _write_path(tr, corpus, [f], sink, compact=True)
                mf.record_fragment(sink, "full", {
                    "input": f, "sink": os.path.join(sink, "routed"),
                    "class_counts": counts})
                info = {"format": "clp"}
            rows = sum(counts.values())
            mf.record_fragment(base, frag, {
                "input": f, "sink": sink, "rows": rows,
                "class_counts": counts, **info})
        tr.count("pipelines.ingest.fragments")
        jobs.mark_done(base, frag, "perfbench", rows=rows,
                       wall_sec=time.perf_counter() - t0)
    n = ops._rows_in_manifests(base)
    if n != rows_so_far:
        raise ops.Mismatch(f"traced ingest: {n} rows in fragments")
    return n


def compact(tr: Tracer, base: str, archives: str, rows: int) -> str:
    from clp_core_ray.pipelines.compact import compact_fragments

    with tr.span("pipelines.compact"):
        res = compact_fragments(base, archives)
    if res["rows"] != rows:
        raise AssertionError(f"traced compact: {res['rows']} rows")
    return res["archive"]


def extract(tr: Tracer, corpus, archive: str, out_dir: str,
            files: list[str]) -> None:
    """Text logs: decode, then rebuild each file with its timestamps
    (``reconstruct_file_text``) and compare bytes. Transcripts:
    ``extract_ir_chunks`` as one opaque call."""
    import ops
    from clp_core_ray.pipelines.decompress import extract_ir_chunks

    if corpus.kind == "transcripts":
        with tr.span("pipelines.decompress.extract"):
            extract_ir_chunks(archive, out_dir)
        return
    from clp_core_ray.sources.textlog import reconstruct_file_text

    t = _decode_archive(tr, archive, ("conv_id", "turn_idx", "ts",
                                      "pattern_id", "ts_begin", "eof_nl"))
    os.makedirs(out_dir, exist_ok=True)
    with tr.span("pipelines.decompress.extract"):
        ids = t.column("conv_id").combine_chunks()
        ts_ms = pc.cast(pc.cast(t.column("ts"), pa.timestamp("ms"),
                                safe=False), pa.int64())
        for path in pc.unique(ids).to_pylist():
            sel = pc.equal(ids, path)
            sub = t.filter(sel)
            txt = reconstruct_file_text(pa.table({
                "path": sub.column("conv_id"),
                "msg_idx": sub.column("turn_idx").cast(pa.int64()),
                "ts_ms": ts_ms.filter(sel),
                "pattern_id": sub.column("pattern_id"),
                "ts_begin": sub.column("ts_begin"),
                "content": sub.column("text"),
            }))
            if sub.column("eof_nl")[0].as_py():
                txt += "\n"
            with open(os.path.join(out_dir, os.path.basename(path)),
                      "w") as f:
                f.write(txt)
    for src in files:
        with open(src, "rb") as a, open(os.path.join(
                out_dir, os.path.basename(src)), "rb") as b:
            if a.read() != b.read():
                raise ops.Mismatch(f"traced extract: {src} differs")


# ---------------------------------------------------------------------------
# the pass and its metrics
# ---------------------------------------------------------------------------

def _traced_pass(tr: Tracer, run, label: str) -> float:
    import corpus
    import ops

    c = run.corpus
    t0 = time.perf_counter()

    def op(name, fn, *args):
        tr.run_id = f"{label}/{name}"
        with tr.span(f"op.{name}"):
            return run.ledger.attempt(f"traced {name}", fn, tr, *args)

    d = run.fresh("traced")
    op("compress", compress, c, os.path.join(d, "archive"))
    op("decompress", decompress, c, os.path.join(d, "archive"))
    for kind in corpus.QUERY_KINDS:
        q = c.queries[c.query_kinds.index(kind)]
        op(f"search.{kind}", search, run.archive, q, run.expected[q])
    inbox, base = os.path.join(d, "inbox"), os.path.join(d, "base")
    rows = 0
    for r, (files, ref, _) in enumerate(ops.rounds(c)):
        rows += ref.num_rows
        if op("ingest", ingest, c, files, inbox, base, rows) is None:
            break
        arch = op("compact", compact, base, os.path.join(d, "archives"),
                  ref.num_rows)
        if not arch:
            break
        op("extract", extract, c, arch, os.path.join(d, f"extract-{r}"),
           files)
    shutil.rmtree(d, ignore_errors=True)
    return time.perf_counter() - t0


def _untraced_pass(run) -> float:
    """The same operations through the public functions, tracing off."""
    import corpus

    t0 = time.perf_counter()
    run.archive_round()
    for kind in corpus.QUERY_KINDS:
        run.search_round(run.corpus.query_kinds.index(kind), record=False)
    for _ in run.lifecycle(record=False):
        pass
    return time.perf_counter() - t0


def traced(run, seconds: float, span_path: str) -> tuple[dict, dict]:
    tr = Tracer()
    traced_walls, untraced_walls = [], []
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        with tr.rebind(_layer_targets()):
            traced_walls.append(_traced_pass(
                tr, run, f"{run.cfg['corpus']}/s{run.seed}/pass{k}"))
        untraced_walls.append(_untraced_pass(run))
        k += 1
    self_s, root_s, layer_s = tr.self_times()
    per = 1.0 / k
    c = tr.counts

    def s(name):
        return self_s.get(name, 0.0) * per

    def n(name):
        return c.get(name, 0) * per

    frag = tr.durations("pipelines.ingest.fragment")
    dec_batches = c.get("pipelines.search.decode_batches", 0)
    m = {
        "sources.read_s": s("sources.read"),
        "sources.rows": n("sources.rows"),
        "sources.textlog.assemble_s": s("sources.textlog.assemble"),
        "sources.textlog.lines": n("sources.textlog.lines"),
        "sources.textlog.messages": n("sources.textlog.messages"),
        "timestamps.parse_s": s("timestamps.parse"),
        "timestamps.format_s": s("timestamps.format"),
        "stages.route_s": s("stages.route"),
        "stages.enrich_s": s("stages.enrich"),
        "stages.encode_s": s("stages.encode"),
        "stages.encode.delta_flush_s": s("stages.encode.delta_flush"),
        "stages.encode.delta_entries": n("stages.encode.delta_entries"),
        "stages.encode.delta_dup_ratio": (
            c.get("stages.encode.delta_entries", 0)
            / max(c.get("stages.encode.final_entries", 0), 1)),
        "vec.tokenizer.encode_s": s("vec.tokenizer.encode"),
        "vec.tokenizer.bytes_in": n("vec.tokenizer.bytes_in"),
        "vec.decoder.decode_s": s("vec.decoder.decode"),
        "vec.decoder.rows": n("vec.decoder.rows"),
        "pipelines.compress.sink_write_s": s("pipelines.compress.sink"),
        "pipelines.compress.sink_files": n("pipelines.compress.sink_files"),
        "pipelines.compress.sink_bytes": n("pipelines.compress.sink_bytes"),
    }
    for key in ("logtype_id_bytes", "encoded_vars_bytes", "var_types_bytes",
                "ts_bytes", "other_col_bytes"):
        m[f"pipelines.compress.{key}"] = n(f"pipelines.compress.{key}")
    for key in ("logtype_dict_bytes", "var_dict_bytes", "logtype_entries",
                "var_entries"):
        m[f"state.dictionaries.{key}"] = n(f"state.dictionaries.{key}")
    m.update({
        "state.dictionaries.finalize_s": s("state.dictionaries.finalize"),
        "state.dictionaries.merge_s": s("state.dictionaries.merge"),
        "pipelines.grep.compile_s": s("pipelines.grep.compile"),
        "pipelines.grep.subqueries": n("pipelines.grep.subqueries"),
        "pipelines.search.compile_s": s("pipelines.search.compile"),
        "pipelines.search.prune_s": s("pipelines.search.prune"),
        "pipelines.search.classes_kept": n("pipelines.search.classes_kept"),
        "pipelines.search.files_read": n("pipelines.search.files_read"),
        "pipelines.search.read_s": s("pipelines.search.read"),
        "pipelines.search.rows_scanned": n("pipelines.search.rows_scanned"),
        "pipelines.search.filter_s": s("pipelines.search.filter"),
        "pipelines.search.rows_candidate":
            n("pipelines.search.rows_candidate"),
        "pipelines.search.verify_s": s("pipelines.search.verify"),
        "pipelines.search.hits": n("pipelines.search.hits"),
        "pipelines.search.useful_ratio": (
            c.get("pipelines.search.hits", 0)
            / max(c.get("pipelines.search.rows_candidate", 0), 1)),
        "pipelines.search.batch_fill": (
            c.get("pipelines.search.rows_candidate", 0)
            / max(dec_batches, 1) / (tr.search_batch_size or 1)),
        "pipelines.decompress.load_dicts_s":
            s("pipelines.decompress.load_dicts"),
        "pipelines.decompress.read_s": s("pipelines.decompress.read"),
        "pipelines.decompress.extract_s": s("pipelines.decompress.extract"),
        "pipelines.ingest.fragment_median_s":
            statistics.median(frag) if frag else 0.0,
        "pipelines.ingest.fragment_max_s": max(frag) if frag else 0.0,
        "pipelines.ingest.fragments": n("pipelines.ingest.fragments"),
        "pipelines.ingest.retries": n("pipelines.ingest.retries"),
        "state.jobs.claim_s": s("state.jobs.claim"),
        "state.jobs.commit_s": s("state.jobs.commit"),
        "state.manifest.commit_s": s("state.manifest.commit"),
        "pipelines.compact.journal_s": s("pipelines.compact"),
        "pipelines.compact.merge_s": s("pipelines.compact.merge"),
        "pipelines.compact.rebuild_s": s("pipelines.compact.rebuild"),
        "pipelines.compact.retire_s": s("pipelines.compact.retire"),
        "unattributed_s": (root_s - layer_s) * per,
        "trace.coverage": layer_s / max(root_s, 1e-9),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.untraced_wall_s": statistics.median(untraced_walls),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls)),
        "trace.passes": float(k),
        "reference.zstd3_ratio": run.corpus.zstd3_ratio,
    })
    tr.dump(span_path, {"workload": run.cfg, "seed": run.seed, "passes": k})
    metrics = {k_: (v, unit_of(k_)) for k_, v in m.items()}
    return metrics, {"span_file": os.path.relpath(span_path),
                     "spans": len(tr.spans)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_in"):
        return "B"
    if name.endswith(("_ratio", "coverage", "batch_fill")):
        return "ratio"
    return "count"
