"""Retry-atomic sink writes shared by every file-writing stage.

Ray retries a killed task from scratch; a sink is retry-exact iff
(a) the final file name is a pure function of the file's CONTENT, so the
    retried attempt overwrites its own output instead of duplicating it, and
(b) the bytes appear at the final name atomically — written to an
    ``.inprogress`` tmp in the same directory, then ``os.replace``d — so
    readers never observe a torn file.

Tmp names are unique per WRITER, not per process (``inprogress_path``: pid +
thread id). Two writers of one final name — a speculative retry in another
process, or two threads of one process such as racing ingest pollers —
each write their own tmp and each ``os.replace`` succeeds (last-wins,
identical content). A pid-only tmp would be shared by threads of one
process, and the slower thread's replace would find its tmp already moved.

Every retry-exact sink writes through here: the compress FusedSinkStage
(proven retry-exact by the failure-injection tests in
tests/test_pipeline.py), and the GLT, IR-chunk and audit sinks. Reference
parity: CLP's
writers likewise only expose completed segments (clp/streaming_archive
Segment close-then-rename role).

Content addressing means two byte-identical payloads coalesce into ONE file;
callers must ensure distinct payloads hash distinct (hash FULL key columns,
never just endpoints — ADVICE r3).
"""

from __future__ import annotations

import hashlib
import os
import threading

import pyarrow as pa


def inprogress_path(final_path: str) -> str:
    """The ``.inprogress`` tmp a writer of ``final_path`` writes before its
    ``os.replace``: unique per process AND thread, so no two live writers
    ever share one."""
    return f"{final_path}.{os.getpid()}-{threading.get_ident()}.inprogress"


def content_name(prefix: str, table: pa.Table, cols=None) -> str:
    """Deterministic name from a table's content: sha1 over row count and the
    FULL buffers of ``cols`` (default: every column)."""
    h = hashlib.sha1()
    h.update(prefix.encode())
    h.update(str(table.num_rows).encode())
    for c in (cols if cols is not None else table.schema.names):
        col = table.column(c)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h.update(c.encode())
        for buf in col.buffers():
            if buf is not None:
                h.update(buf)
    return f"{prefix}-{h.hexdigest()[:24]}"


def atomic_write_table(table: pa.Table, dir_: str, *, prefix: str = "part",
                       cols=None, **pq_kwargs) -> str:
    """Write ``table`` under ``dir_`` with a content-derived final name via
    tmp → ``os.replace``. Returns the final path. Two live attempts of one
    retried task each write their own tmp and replace the SAME final
    name with identical content (last-wins, both correct)."""
    import pyarrow.parquet as pq

    name = content_name(prefix, table, cols=cols)
    final = os.path.join(dir_, name + ".parquet")
    tmp = inprogress_path(os.path.join(dir_, name))
    pq.write_table(table, tmp, **pq_kwargs)
    os.replace(tmp, final)
    return final


def atomic_replace_table(table: pa.Table, final_path: str,
                         **pq_kwargs) -> str:
    """Write ``table`` to a DETERMINISTIC final path via tmp →
    ``os.replace`` — for writers whose file name IS the identity (a clp_s
    schema table is ``schema_<id>.parquet``, a stage part is keyed by its
    first row index). Retried/speculative attempts each write their own tmp
    and replace the same final name with identical content; readers never
    observe a torn or half-truncated file (a bare ``pq.write_table`` to the
    final name truncates-then-writes in place)."""
    import pyarrow.parquet as pq

    tmp = inprogress_path(final_path)
    pq.write_table(table, tmp, **pq_kwargs)
    os.replace(tmp, final_path)
    return final_path


def atomic_write_bytes(blob: bytes, dir_: str, *, prefix: str,
                       suffix: str) -> str:
    """Write raw bytes with a content-hash name via tmp → ``os.replace``."""
    name = f"{prefix}-{hashlib.sha1(blob).hexdigest()[:24]}{suffix}"
    final = os.path.join(dir_, name)
    tmp = inprogress_path(os.path.join(dir_, name))
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, final)
    return final
