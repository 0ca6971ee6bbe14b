"""clp_s single-file archive (SFA) — the one-file shippable artifact
``clp-s c --single-file-archive`` emits.

Reference roles (spec only, no code ported): SingleFileArchiveDefs.hpp (magic
+ header + packed-stream layout), ArchiveWriter::write_single_file_archive,
ArchiveReaderAdaptor.cpp (uniform reader over dir vs single-file archives),
PackedStreamReader.cpp (seek to a member by offset without unpacking).

Format (little-endian):

    [8B magic "CLPSFA1\\n"]
    [member payloads, concatenated, 64-byte aligned]
    [JSON directory  {"name": [offset, size], ...}]
    [8B dir_offset][8B dir_size][8B magic tail "CLPSFA1\\n"]

Members are the archive directory's files verbatim (``schema_*.parquet``,
``schemas.json``), so every existing reader keeps its parquet/JSON machinery
and reads members as ZERO-COPY mmap slices — the Ray-side analogue of
PackedStreamReader's seek-to-offset (no extraction, no temp dir).

Member addressing inside Ray tasks uses picklable path tokens
``"<sfa_path>::<member>"`` (``member_token``); ``open_source`` resolves a
token to a ``pa.BufferReader`` over the mapped slice (or passes a plain path
through), so scan tasks are oblivious to which layout they're reading —
the ArchiveReaderAdaptor role.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from clp_core_ray.state.atomic import inprogress_path

MAGIC = b"CLPSFA1\n"
SFA_SUFFIX = ".clpsfa"
_ALIGN = 64


def is_sfa(path: str) -> bool:
    return path.endswith(SFA_SUFFIX) and os.path.isfile(path)


def pack_sfa(archive_dir: str, out_path: str | None = None) -> str:
    """Pack a clp_s archive directory into one single-file archive.

    Atomic (tmp → os.replace, the state/atomic.py discipline). Returns the
    SFA path. Members keep their file names; nested dirs are not packed
    (a clp_s archive dir is flat)."""
    out_path = out_path or archive_dir.rstrip("/") + SFA_SUFFIX
    names = sorted(
        f for f in os.listdir(archive_dir)
        if os.path.isfile(os.path.join(archive_dir, f))
        and not f.endswith(".inprogress")
    )
    directory: dict[str, list[int]] = {}
    tmp = inprogress_path(out_path)
    with open(tmp, "wb") as out:
        out.write(MAGIC)
        pos = len(MAGIC)
        for name in names:
            pad = (-pos) % _ALIGN
            out.write(b"\0" * pad)
            pos += pad
            with open(os.path.join(archive_dir, name), "rb") as f:
                data = f.read()
            out.write(data)
            directory[name] = [pos, len(data)]
            pos += len(data)
        dir_bytes = json.dumps(directory).encode()
        out.write(dir_bytes)
        out.write(pos.to_bytes(8, "little"))
        out.write(len(dir_bytes).to_bytes(8, "little"))
        out.write(MAGIC)
    os.replace(tmp, out_path)
    return out_path


class SfaReader:
    """Zero-copy member access into a single-file archive via mmap slices."""

    def __init__(self, path: str):
        self.path = path
        self._mm = pa.memory_map(path, "r")
        size = self._mm.size()
        if size < len(MAGIC) * 2 + 16:
            raise ValueError(f"not a single-file archive: {path}")
        if (self._mm.read_at(len(MAGIC), 0) != MAGIC
                or self._mm.read_at(len(MAGIC), size - len(MAGIC)) != MAGIC):
            raise ValueError(f"bad single-file-archive magic: {path}")
        foot = self._mm.read_at(16, size - len(MAGIC) - 16)
        dir_off = int.from_bytes(foot[:8], "little")
        dir_size = int.from_bytes(foot[8:16], "little")
        self.directory: dict[str, list[int]] = json.loads(
            self._mm.read_at(dir_size, dir_off)
        )

    def names(self) -> list[str]:
        return sorted(self.directory)

    def buffer(self, name: str) -> pa.Buffer:
        off, size = self.directory[name]
        self._mm.seek(off)
        return self._mm.read_buffer(size)  # zero-copy slice of the mmap

    def open(self, name: str) -> pa.BufferReader:
        return pa.BufferReader(self.buffer(name))

    def read_bytes(self, name: str) -> bytes:
        return self.buffer(name).to_pybytes()


def member_token(sfa_path: str, name: str) -> str:
    return f"{sfa_path}::{name}"


def open_source(path_or_token: str):
    """Path token → something pq.ParquetFile / pq.read_table accept.

    Plain paths pass through; ``sfa::member`` tokens open a zero-copy reader
    into the mapped archive. Runs inside scan tasks — tokens are plain
    strings, so they pickle into Ray work items like any path."""
    if SFA_SUFFIX + "::" in path_or_token:
        sfa_path, name = path_or_token.split("::", 1)
        return SfaReader(sfa_path).open(name)
    return path_or_token


def read_member_json(archive: str, name: str):
    """Load a JSON member from an archive dir OR a single-file archive."""
    if is_sfa(archive):
        return json.loads(SfaReader(archive).read_bytes(name))
    with open(os.path.join(archive, name)) as f:
        return json.load(f)
