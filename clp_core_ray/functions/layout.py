"""Z-order (Morton) data layout for multi-dimensional read pruning.

The 100-TB problem this solves: a table queried by BOTH user and time can
be sorted by only one of them — the other dimension scatters across every
file and range queries on it read the whole dataset. Interleaving the two
key's bits (Morton order) makes files cover small HYPER-RECTANGLES of the
(user, time) space, so a predicate on either dimension — or both — prunes
to the files whose per-file min/max envelope intersects it.

Reference analogue: clp's archives are implicitly laid out by (time,
source) via input partitioning; this generalizes the idea to arbitrary
column pairs as a Ray Data layout job: one global sort by the interleaved
key (Ray's distributed range-partitioned sort — THE canonical all-to-all,
run once at write time to make every later read cheap), per-file stats in
a manifest, and a pruned reader that intersects predicates driver-side.

All numeric work is vectorized; ranks come from int64 min/max scaling to
32-bit lattice coordinates (monotone, so per-file envelopes on the raw
values remain valid prune filters).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from clp_core_ray.state.atomic import inprogress_path


def _spread32(x: np.ndarray) -> np.ndarray:
    """Interleave zeros between the bits of 32-bit ints (u64 out)."""
    v = x.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def zorder_key(a: np.ndarray, b: np.ndarray,
               a_range: tuple[int, int], b_range: tuple[int, int]
               ) -> np.ndarray:
    """Morton-interleaved uint64 key of two int64 columns, each min/max
    scaled to a 32-bit lattice coordinate (monotone per dimension)."""

    def scale(x, lo, hi):
        span = max(int(hi) - int(lo), 1)
        # scale into [0, 2^32) without int64 overflow: float64 has 53
        # mantissa bits, plenty for a 32-bit target lattice
        f = (x.astype(np.float64) - float(lo)) / float(span)
        return np.minimum((f * 4294967295.0), 4294967295.0).astype(np.uint64)

    return (_spread32(scale(a, *a_range) >> np.uint64(0)) << np.uint64(1)) \
        | _spread32(scale(b, *b_range))


def write_zordered(ds, out_dir: str, *, col_a: str, col_b: str,
                   target_rows_per_file: int = 250_000) -> str:
    """Lay a Dataset out in Morton order of (col_a, col_b) — one global
    sort — and write one parquet file per sorted block plus a stats
    manifest (per-file min/max of both columns). Returns ``out_dir``.

    Sink discipline: content-free ordinal names are unsafe under retries,
    so each block writes ``part-<blockhash>.parquet`` via tmp→rename and
    the manifest is written once, last, atomically."""
    import ray
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    # pass 1: global min/max of both dims (scalar per batch)
    def rng(b: pa.Table) -> pa.Table:
        return pa.table({
            "alo": pa.array([pc.min(b.column(col_a)).as_py()]),
            "ahi": pa.array([pc.max(b.column(col_a)).as_py()]),
            "blo": pa.array([pc.min(b.column(col_b).cast(pa.int64())).as_py()]),
            "bhi": pa.array([pc.max(b.column(col_b).cast(pa.int64())).as_py()]),
        })

    tabs = [pa.table(x) for x in ds.map_batches(rng, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(tabs)
    a_range = (pc.min(t.column("alo")).as_py(), pc.max(t.column("ahi")).as_py())
    b_range = (pc.min(t.column("blo")).as_py(), pc.max(t.column("bhi")).as_py())

    def add_key(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column(col_a), dtype=np.int64)
        bb = np.asarray(b.column(col_b).cast(pa.int64()), dtype=np.int64)
        z = zorder_key(a, bb, a_range, b_range)
        return b.append_column("_zkey", pa.array(z.view(np.int64)))

    keyed = ds.map_batches(add_key, batch_format="pyarrow").sort("_zkey")
    n = keyed.count()
    nblocks = max(1, n // target_rows_per_file)
    keyed = keyed.repartition(nblocks)

    def write_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"file": pa.array([], type=pa.string()),
                             "a_min": pa.array([], type=pa.int64()),
                             "a_max": pa.array([], type=pa.int64()),
                             "b_min": pa.array([], type=pa.int64()),
                             "b_max": pa.array([], type=pa.int64()),
                             "rows": pa.array([], type=pa.int64())})
        import hashlib

        body = b.drop_columns(["_zkey"])
        h = hashlib.sha1()
        h.update(np.asarray(b.column("_zkey"), dtype=np.int64).tobytes())
        name = f"part-{h.hexdigest()[:16]}.parquet"
        tmp = inprogress_path(os.path.join(out_dir, name))
        pq.write_table(body, tmp)
        os.replace(tmp, os.path.join(out_dir, name))
        bi = b.column(col_b).cast(pa.int64())
        return pa.table({
            "file": pa.array([name]),
            "a_min": pa.array([pc.min(b.column(col_a)).as_py()]),
            "a_max": pa.array([pc.max(b.column(col_a)).as_py()]),
            "b_min": pa.array([pc.min(bi).as_py()]),
            "b_max": pa.array([pc.max(bi).as_py()]),
            "rows": pa.array([b.num_rows])})

    stats = [pa.table(x) for x in
             keyed.map_batches(write_block, batch_size=None,
                               batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    man = pa.concat_tables([s for s in stats if s.num_rows]).to_pylist()
    final = os.path.join(out_dir, "_zmanifest.json")
    tmp = inprogress_path(final)
    with open(tmp, "w") as f:
        json.dump({"col_a": col_a, "col_b": col_b, "files": man}, f)
    os.replace(tmp, final)
    # dead-attempt sweep (the fused-sink discipline)
    for fn in os.listdir(out_dir):
        if fn.endswith(".inprogress"):
            os.unlink(os.path.join(out_dir, fn))
    return out_dir


def read_pruned(out_dir: str, *, a_between: tuple[int, int] | None = None,
                b_between: tuple[int, int] | None = None):
    """Ray Dataset over ONLY the files whose stats envelope intersects the
    predicates (driver-side manifest intersection), with the exact row
    filter applied on top. Returns (dataset, files_read, files_total)."""
    import ray.data as rd

    with open(os.path.join(out_dir, "_zmanifest.json")) as f:
        man = json.load(f)
    keep = []
    for e in man["files"]:
        if a_between and (e["a_max"] < a_between[0]
                          or e["a_min"] > a_between[1]):
            continue
        if b_between and (e["b_max"] < b_between[0]
                          or e["b_min"] > b_between[1]):
            continue
        keep.append(os.path.join(out_dir, e["file"]))
    total = len(man["files"])
    if not keep:
        return None, 0, total
    ds = rd.read_parquet(keep)
    col_a, col_b = man["col_a"], man["col_b"]

    def exact(b: pa.Table) -> pa.Table:
        m = np.ones(b.num_rows, dtype=bool)
        if a_between:
            a = np.asarray(b.column(col_a), dtype=np.int64)
            m &= (a >= a_between[0]) & (a <= a_between[1])
        if b_between:
            bb = np.asarray(b.column(col_b).cast(pa.int64()),
                            dtype=np.int64)
            m &= (bb >= b_between[0]) & (bb <= b_between[1])
        return b.filter(pa.array(m))

    return ds.map_batches(exact, batch_format="pyarrow"), len(keep), total
