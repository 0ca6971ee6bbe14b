"""Raw text-log ingestion: line reading + message assembly (S1 + M1).

A raw log file is split into *messages*: a new message begins at each line
whose timestamp parses; timestamp-less lines are appended to the previous
message (MessageParser.cpp:84-165). Assembly is per-file (ordering contract:
line order within a file), vectorized: classify every line in one batch, then
group lines between boundaries with ragged joins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clp_core_ray.timestamps import parse_and_strip
from clp_core_ray.vec.tokenizer import _cumsum0, _string_buffers


def assemble_messages(lines: pa.Array, path: str = "",
                      eof_nl: bool = True) -> pa.Table:
    """Lines of ONE file (in order) → message table.

    Columns: path, msg_idx, ts_ms (nullable), pattern_id, ts_begin, content,
    eof_nl (constant per file: did the original end with a newline — needed
    for byte-identical FILE reconstruction, not message round-trips).
    Multi-line messages join their continuation lines with '\\n'.
    """
    parsed = parse_and_strip(lines)
    pid = np.asarray(parsed["pattern_id"])
    n = len(pid)
    if n == 0:
        return pa.table(
            {"path": pa.array([], type=pa.string()),
             "msg_idx": pa.array([], type=pa.int64()),
             "ts_ms": pa.array([], type=pa.int64()),
             "pattern_id": pa.array([], type=pa.int32()),
             "ts_begin": pa.array([], type=pa.int32()),
             "content": pa.array([], type=pa.large_string()),
             "eof_nl": pa.array([], type=pa.bool_())}
        )
    is_start = pid >= 0
    is_start[0] = True
    msg_of_line = np.cumsum(is_start) - 1
    n_msgs = int(msg_of_line[-1]) + 1

    # join content lines per message with '\n'
    c_off, c_data = _string_buffers(parsed["content"])
    line_len = np.diff(c_off)
    # newline before every line that is not a message start
    nl = (~is_start).astype(np.int64)
    out_line_len = line_len + nl
    out_len_per_msg = np.bincount(msg_of_line, weights=out_line_len).astype(np.int64)
    msg_off = _cumsum0(out_len_per_msg, dtype=np.int64)
    out = np.empty(int(msg_off[-1]), dtype=np.uint8)
    dst_line_start = _cumsum0(out_line_len, dtype=np.int64)[:-1] + nl  # content dst
    total = int(line_len.sum())
    if total:
        pos = np.arange(total) - np.repeat(c_off[:-1], line_len)
        out[np.repeat(dst_line_start, line_len) + pos] = c_data[
            np.repeat(c_off[:-1], line_len) + pos
        ]
    out[(dst_line_start - 1)[nl == 1]] = ord("\n")

    ts_ms_line = parsed["ts_ms"]
    starts = np.flatnonzero(is_start)
    return pa.table(
        {
            "path": pa.array([path] * n_msgs, type=pa.string()),
            "msg_idx": pa.array(np.arange(n_msgs), type=pa.int64()),
            "ts_ms": ts_ms_line.take(pa.array(starts)),
            "pattern_id": parsed["pattern_id"].take(pa.array(starts)),
            "ts_begin": parsed["ts_begin"].take(pa.array(starts)),
            "content": pa.Array.from_buffers(
                pa.large_string(), n_msgs,
                [None, pa.py_buffer(msg_off.tobytes()), pa.py_buffer(out.tobytes())],
            ),
            "eof_nl": pa.array([bool(eof_nl)] * n_msgs, type=pa.bool_()),
        }
    )


def expand_log_payload(name: str, data: bytes, out: list) -> None:
    """Recursively expand compressed/archived inputs into (name, bytes) text
    payloads — the LibarchiveReader role (clp/LibarchiveReader.hpp:19, use at
    clp/clp/FileCompressor.cpp:271-281): gzip members, tar archives (incl.
    .tar.gz/.tar.bz2/.tar.xz), and zip archives, nested arbitrarily.
    """
    import gzip
    import io
    import tarfile
    import zipfile

    if data[:2] == b"\x1f\x8b":
        inner = name[:-3] if name.endswith(".gz") else name + "!gunzip"
        expand_log_payload(inner, gzip.decompress(data), out)
        return
    if data[:4] == b"PK\x03\x04":
        with zipfile.ZipFile(io.BytesIO(data)) as z:
            for info in z.infolist():
                if not info.is_dir():
                    expand_log_payload(f"{name}:{info.filename}", z.read(info), out)
        return
    if len(data) >= 512:
        try:
            with tarfile.open(fileobj=io.BytesIO(data)) as t:
                members = [m for m in t.getmembers() if m.isreg()]
                for m in members:
                    expand_log_payload(
                        f"{name}:{m.name}", t.extractfile(m).read(), out
                    )
                return
        except tarfile.ReadError:
            pass
    out.append((name, data))


def log_files(paths: list[str] | str) -> list[str]:
    """The input files of ``paths``: a list as given, a directory's files
    in name order, or one file."""
    import os

    if not isinstance(paths, str):
        return list(paths)
    if os.path.isdir(paths):
        return [os.path.join(paths, f) for f in sorted(os.listdir(paths))]
    return [paths]


def load_log_files(batch: pa.Table) -> pa.Table:
    """A table of input file paths (column ``path``) → their assembled
    messages, file after file. Compressed inputs (.gz/.tar.*/.zip) expand
    recursively, one assembled unit per archive entry (S2)."""
    tables = []
    for p in batch.column("path").to_pylist():
        with open(p, "rb") as f:
            raw = f.read()
        payloads: list = []
        expand_log_payload(p, raw, payloads)
        for name, data in payloads:
            text = data.decode("utf-8", errors="replace")
            eof_nl = text.endswith("\n")
            lines = text.split("\n")
            if lines and lines[-1] == "":
                lines.pop()
            tables.append(
                assemble_messages(pa.array(lines, type=pa.large_string()),
                                  name, eof_nl=eof_nl)
            )
    return pa.concat_tables(tables) if tables else assemble_messages(
        pa.array([], type=pa.large_string())
    )


def read_log_messages(paths: list[str] | str):
    """Dataset of assembled messages from raw log files.

    One task per file (a file is the assembly unit — CLP's FileCompressor
    works file-at-a-time too); line order within the file is preserved by
    reading the file inside the task (:func:`load_log_files`).
    """
    import ray.data as rd

    index = rd.from_items([{"path": p} for p in log_files(paths)])
    return index.map_batches(load_log_files, batch_format="pyarrow",
                             batch_size=1)


def reconstruct_file_text(msg_table: pa.Table) -> str:
    """Inverse of assembly for ONE file's messages (sorted by msg_idx):
    re-render timestamps, re-insert, join with '\\n' (K4 semantics)."""
    from clp_core_ray.timestamps import format_batch, insert_timestamps

    t = msg_table.sort_by("msg_idx")
    pid = np.asarray(t.column("pattern_id"))
    ts = np.asarray(t.column("ts_ms").combine_chunks().fill_null(0))
    begin = np.asarray(t.column("ts_begin"))
    content = t.column("content").combine_chunks()
    has = pid >= 0
    rendered = np.full(len(pid), "", dtype=object)
    if has.any():
        rendered[has] = format_batch(ts[has], pid[has]).to_pylist()
    restored = insert_timestamps(
        content, pa.array(rendered.tolist(), type=pa.large_string()), begin
    )
    return "\n".join(restored.to_pylist())
