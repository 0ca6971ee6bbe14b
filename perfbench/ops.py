"""The user-facing operations the benchmark times, and their oracles.

Each operation calls only the program's public functions and returns its
wall time (the call plus consuming its result) together with what the
oracle needs. Oracles run outside the timed region and raise
``Mismatch``; the caller counts that, like any exception, as a failed
operation.
"""

from __future__ import annotations

import os
import re
import time

import pyarrow as pa
import pyarrow.compute as pc

# decompress() output columns besides text: every row column both archive
# kinds carry, so "all columns + text" means the same on each workload
DECOMPRESS_COLUMNS = ("conv_id", "turn_idx", "role", "tool", "ts")
# input files arrive over this many ingest.poll rounds
INGEST_ROUNDS = 3


class Mismatch(AssertionError):
    """An operation returned output that disagrees with its oracle."""


def _consume(ds) -> pa.Table:
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(parts) if parts else pa.table({})


def _sorted_keys(t: pa.Table, with_text: bool = False) -> pa.Table:
    cols = ["conv_id", "turn_idx"] + (["text"] if with_text else [])
    if t.num_rows == 0:
        return pa.table({c: pa.array([], pa.string() if c != "turn_idx"
                                      else pa.int32()) for c in cols})
    t = t.select(cols)
    t = pa.table({
        "conv_id": t.column("conv_id").cast(pa.string()),
        "turn_idx": t.column("turn_idx").cast(pa.int32()),
        **({"text": t.column("text").cast(pa.string())} if with_text else {}),
    })
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _rows_in_manifests(base: str) -> int:
    from clp_core_ray.state import manifest as mf

    return sum(sum(int(v) for v in (m.get("class_counts") or {}).values())
               for m in mf.read_manifests(base))


# ---------------------------------------------------------------------------
# archive: compress → decompress
# ---------------------------------------------------------------------------

def compress(corpus, out_dir: str) -> float:
    """Compress the corpus into a fresh archive; checks that the routed
    class counts sum to the input rows."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress as _compress
    from clp_core_ray.pipelines.compress import compress_text_logs

    t0 = time.perf_counter()
    if corpus.kind == "transcripts":
        counts = _compress(None, out_dir, ds=rd.read_parquet(corpus.files),
                           input_label="perfbench")
    else:
        counts = compress_text_logs(corpus.files, out_dir)
    wall = time.perf_counter() - t0
    n = int(pc.sum(counts.column("cnt")).as_py() or 0)
    if n != corpus.reference.num_rows:
        raise Mismatch(f"compress routed {n} rows, "
                       f"input has {corpus.reference.num_rows}")
    return wall


def decompress(corpus, archive: str) -> float:
    """Decompress every row of the archive; checks per-turn text equality
    with the input."""
    from clp_core_ray.pipelines.decompress import decompress as _decompress

    t0 = time.perf_counter()
    out = _consume(_decompress(archive, columns=DECOMPRESS_COLUMNS))
    wall = time.perf_counter() - t0
    got = _sorted_keys(out, with_text=True)
    want = _sorted_keys(corpus.reference, with_text=True)
    if not got.equals(want):
        bad = (got.num_rows if got.num_rows != want.num_rows else
               int(pc.sum(pc.invert(pc.equal(got.column("text"),
                                             want.column("text")))).as_py()))
        raise Mismatch(f"decompress: {bad} of {want.num_rows} turns differ")
    return wall


def compression_ratio(corpus, archive: str) -> float:
    from clp_core_ray.pipelines.compress import encoded_message_bytes

    return corpus.raw_bytes / encoded_message_bytes(archive)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def oracle_regex(query: str) -> str:
    """A query's hit condition, written independently of the program: the
    message contains the wildcard pattern, ``*`` any run, ``?`` any one
    character (searches are implicitly ``*query*``)."""
    out = []
    for ch in query:
        out.append("(?s:.*)" if ch == "*" else "(?s:.)" if ch == "?"
                   else re.escape(ch))
    return "".join(out)


def expected_hits(reference: pa.Table, query: str) -> pa.Table:
    m = pc.match_substring_regex(reference.column("text"),
                                 oracle_regex(query))
    return _sorted_keys(reference.filter(m))


def search(archive: str, query: str, expected: pa.Table) -> tuple[float, int]:
    """One query; checks the hits equal the oracle's."""
    from clp_core_ray.pipelines.search import search_archive

    t0 = time.perf_counter()
    out = _consume(search_archive(archive, query))
    wall = time.perf_counter() - t0
    got = _sorted_keys(out)
    if not got.equals(expected):
        raise Mismatch(f"search {query!r}: {got.num_rows} hits, "
                       f"oracle {expected.num_rows}")
    return wall, got.num_rows


# ---------------------------------------------------------------------------
# lifecycle: per arrival round, ingest poll → compact → extract
# ---------------------------------------------------------------------------

def rounds(corpus) -> list[tuple[list[str], pa.Table, int]]:
    """The input files in INGEST_ROUNDS arrival batches, each with its
    reference rows and raw text bytes."""
    per = -(-len(corpus.files) // INGEST_ROUNDS)
    out, start = [], 0
    for r in range(INGEST_ROUNDS):
        sl = slice(r * per, (r + 1) * per)
        n = sum(corpus.file_rows[sl])
        out.append((corpus.files[sl], corpus.reference.slice(start, n),
                    sum(corpus.file_bytes[sl])))
        start += n
    return out


def ingest(corpus, files: list[str], inbox: str, base: str,
           rows_so_far: int) -> float:
    """``files`` arrive in the inbox; one ``ingest.poll``. Checks that no
    fragment failed and that the fragments' class counts sum to the rows
    of every file ingested so far."""
    from clp_core_ray.pipelines.ingest import poll

    os.makedirs(inbox, exist_ok=True)
    for f in files:
        os.link(f, os.path.join(inbox, os.path.basename(f)))
    fmt = "transcripts" if corpus.kind == "transcripts" else "textlog"
    t0 = time.perf_counter()
    s = poll(inbox, base, fmt=fmt)
    wall = time.perf_counter() - t0
    failed = len(s["failed"]) + len(s["parked"])
    if failed:
        raise Mismatch(f"ingest: {failed} fragments failed")
    n = _rows_in_manifests(base)
    if n != rows_so_far:
        raise Mismatch(f"ingest: fragments hold {n} rows, "
                       f"input so far has {rows_so_far}")
    return wall


def compact(base: str, archives: str, rows: int) -> tuple[float, str]:
    """Compact the fragments of the last poll; ``rows`` is what they hold."""
    from clp_core_ray.pipelines.compact import compact_fragments

    t0 = time.perf_counter()
    res = compact_fragments(base, archives)
    wall = time.perf_counter() - t0
    if res["rows"] != rows or not res["archive"]:
        raise Mismatch(f"compact: {res['rows']} rows, "
                       f"the last poll's input has {rows}")
    return wall, res["archive"]


def extract(corpus, archive: str, out_dir: str, inbox: str,
            files: list[str], ref: pa.Table) -> float:
    """Text logs: ``extract_text_logs`` must reproduce each of ``files``
    byte for byte. Transcripts: ``extract_ir_chunks`` must hold the text of
    every turn in ``ref``."""
    from clp_core_ray.pipelines.decompress import (extract_ir_chunks,
                                                   extract_text_logs)

    t0 = time.perf_counter()
    if corpus.kind == "textlog":
        paths = extract_text_logs(archive, out_dir)
    else:
        paths = extract_ir_chunks(archive, out_dir)
    wall = time.perf_counter() - t0
    if corpus.kind == "textlog":
        want = {os.path.join(inbox, os.path.basename(f))
                .replace("/", "_").lstrip("_"): f for f in files}
        got = {os.path.basename(p): p for p in paths}
        if set(got) != set(want):
            raise Mismatch(f"extract: {len(got)} files, expected {len(want)}")
        for name, src in want.items():
            with open(src, "rb") as a, open(got[name], "rb") as b:
                if a.read() != b.read():
                    raise Mismatch(f"extract: {name} differs from its input")
    else:
        from clp_core_ray.ir import decode_ir_stream_to_text

        texts = []
        for p in paths:
            with open(p, "rb") as fh:
                texts.extend(decode_ir_stream_to_text(fh.read())
                             .column("text").to_pylist())
        if sorted(texts) != sorted(ref.column("text").to_pylist()):
            raise Mismatch("extract: IR chunks do not hold the input turns")
    return wall
