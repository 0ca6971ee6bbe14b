"""Incremental compression: generation-layered archives over snapshot drift.

CLP's unit of resume is the archive — the distributed scheduler streams
per-archive stats so finished archives survive task failure
(executor/compress/compression_task.py:301-360) — and its archives are
immutable: new data means new archives. This module extends that model to
INPUT-level incrementality: re-running compression against a drifted
snapshot compresses only the conversations whose content actually changed.
That is the 100-TB operating shape — daily snapshot drift is typically ≪1%
of the corpus, and a full recompress would be >100× wasted work.

Layout under ``base_dir``::

    gen-0000/            full archive (first run)
    gen-0001/            delta archive: ONLY added/changed convs of run 1
    ...
    state/conv_owner.parquet   (conv_id, conv_hash, owner) — full snapshot
                               state AFTER the latest generation

``owner`` is the generation that last (re)compressed a conversation.
Reconstruction decompresses each generation with a prefilter keeping only
the conversations it still owns — a conversation removed from the snapshot
simply has no owner row, and a changed conversation's old rows are masked
because ownership moved to the newer generation. No archive is ever
rewritten (object-store-immutability friendly); reclaiming dead rows is a
compaction concern (`pipelines/compact.merge_archives`), not a correctness
one.

Scale notes: the per-conversation hash pass exchanges one (conv_id, hash)
row per conversation per batch (XOR partials — order-independent, so no
sort); the diff is `snapshot_diff`'s single hash-exchange shuffle; only the
DELTA conv-id set (added+changed) is ever collected to the driver and
broadcast (the drift premise — the full owner table stays in parquet and is
updated with Dataset ops, never driver-joined).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

N_BUCKETS = 64  # floor; operating point is windows.scaled_buckets()
_ROT = np.uint64(0x9E3779B97F4A7C15)


def _turn_hash(batch: pa.Table) -> np.ndarray:
    """Per-turn uint64 content hash covering everything round-trip-relevant:
    text, turn_idx, ts, role, tool."""
    from clp_core_ray.functions.curation import content_hash64

    h = np.asarray(content_hash64(batch.column("text"))).view(np.uint64).copy()
    idx = np.asarray(batch.column("turn_idx").combine_chunks().cast(pa.int64()))
    h ^= (idx.view(np.uint64) + _ROT) * np.uint64(0x100000001B3)
    if "ts" in batch.column_names:
        ts = batch.column("ts").combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.timestamp("us"), safe=False), pa.int64())
        h ^= np.asarray(ts).view(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    for col in ("role", "tool"):
        if col in batch.column_names:
            h ^= np.asarray(
                content_hash64(batch.column(col))).view(np.uint64)
    return h


def conv_hashes(ds, num_buckets: int | None = None):
    """Dataset[(conv_id, conv_hash:int64)] — one row per conversation.

    XOR-fold of per-turn hashes: commutative and associative, so per-batch
    partials need no ordering and the final per-conv fold is exact no matter
    how turns were split across blocks. Exchange: one row per (conv, batch).
    """
    from clp_core_ray.pipelines.temporal import _key_and_bucket
    from clp_core_ray.pipelines.windows import scaled_buckets

    num_buckets = num_buckets or scaled_buckets()

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.large_string()),
                             "_h": pa.array([], pa.int64()),
                             "_bucket": pa.array([], pa.int32())})
        h = _turn_hash(b)
        ids = b.column("conv_id").combine_chunks()
        codes_arr = ids.dictionary_encode()
        codes = np.asarray(codes_arr.indices, dtype=np.int64)
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        folded = np.bitwise_xor.reduceat(h[order], starts)
        first_ids = ids.take(pa.array(order[starts], type=pa.int64()))
        _, bucket = _key_and_bucket(first_ids, num_buckets)
        return pa.table({"conv_id": first_ids,
                         "_h": pa.array(folded.view(np.int64)),
                         "_bucket": bucket})

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "conv_id" not in g.column_names:
            return pa.table({"conv_id": pa.array([], pa.large_string()),
                             "conv_hash": pa.array([], pa.int64())})
        ids = g.column("conv_id").combine_chunks()
        codes = np.asarray(ids.dictionary_encode().indices, dtype=np.int64)
        h = np.asarray(g.column("_h").combine_chunks()).view(np.uint64)
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        folded = np.bitwise_xor.reduceat(h[order], starts)
        return pa.table({
            "conv_id": ids.take(pa.array(order[starts], type=pa.int64())),
            "conv_hash": pa.array(folded.view(np.int64)),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_bucket").map_groups(fold, batch_format="pyarrow"))


def _gen_dirs(base_dir: str) -> list[str]:
    if not os.path.isdir(base_dir):
        return []
    return sorted(
        os.path.join(base_dir, d) for d in os.listdir(base_dir)
        if re.fullmatch(r"gen-\d{4}", d)
    )


def _owner_path(base_dir: str) -> str:
    return os.path.join(base_dir, "state", "conv_owner.parquet")


def compress_incremental(source, base_dir: str, **compress_kwargs) -> dict:
    """Compress a snapshot incrementally against ``base_dir``'s generations.

    ``source``: sf_dir / sf float (read_transcripts input) or a transcripts
    Dataset factory — a zero-arg callable returning the Dataset, called once
    per pass (the hash pass and the compress pass each need a fresh lazy
    pipeline). First run writes gen-0000 (full); later runs diff per-conv
    hashes and compress ONLY added/changed conversations into gen-NNNN.

    Returns {"generation", "added", "changed", "removed", "compressed_rows"}.
    """
    import ray

    from clp_core_ray.functions.curation import snapshot_diff
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import read_transcripts

    def make_ds():
        if callable(source):
            return source()
        return read_transcripts(source)

    gens = _gen_dirs(base_dir)
    gen_n = len(gens)
    gen_dir = os.path.join(base_dir, f"gen-{gen_n:04d}")
    label = f"incremental:gen-{gen_n}"

    new_hashes = conv_hashes(make_ds()).materialize()

    if gen_n == 0:
        counts = compress(None, gen_dir, ds=make_ds(), input_label=label,
                          **compress_kwargs)
        n_rows = int(pc.sum(counts.column("cnt")).as_py()) if counts.num_rows else 0
        owner = new_hashes.map_batches(
            lambda b: b.append_column(
                "owner", pa.array(np.zeros(b.num_rows, dtype=np.int32))),
            batch_format="pyarrow")
        _write_owner(base_dir, owner)
        return {"generation": 0, "added": new_hashes.count(), "changed": 0,
                "removed": 0, "compressed_rows": n_rows}

    import ray.data as rd

    old_owner = rd.read_parquet(_owner_path(base_dir))
    delta = snapshot_diff(
        old_owner.select_columns(["conv_id", "conv_hash"]), new_hashes,
        id_col="conv_id", content_col="conv_hash", precomputed_hash=True,
    ).materialize()

    # the DELTA is the only thing collected to the driver (drift premise)
    by_status: dict[str, list[str]] = {"added": [], "removed": [], "changed": []}
    for b in delta.iter_batches(batch_format="pyarrow"):
        for cid, st in zip(b.column("conv_id").to_pylist(),
                           b.column("status").to_pylist()):
            by_status[st].append(cid)
    recompress = sorted(by_status["added"] + by_status["changed"])
    dead = sorted(by_status["removed"] + by_status["changed"])

    n_rows = 0
    if recompress:
        keep_ref = ray.put(pa.array(recompress, type=pa.large_string()))

        def keep_only(b: pa.Table) -> pa.Table:
            keep = ray.get(keep_ref)
            return b.filter(pc.is_valid(pc.index_in(
                b.column("conv_id").combine_chunks().cast(pa.large_string()),
                keep)))

        counts = compress(None, gen_dir,
                          ds=make_ds().map_batches(keep_only,
                                                   batch_format="pyarrow"),
                          input_label=label, **compress_kwargs)
        n_rows = int(pc.sum(counts.column("cnt")).as_py()) if counts.num_rows else 0
    else:
        os.makedirs(gen_dir, exist_ok=True)
        with open(os.path.join(gen_dir, "EMPTY"), "w") as f:
            f.write("no added/changed conversations this generation\n")

    # new owner state: old rows whose conv survived untouched + delta rows
    # owned by this generation — Dataset ops end to end, only the delta id
    # set is broadcast
    dead_or_new = ray.put(pa.array(recompress + by_status["removed"],
                                   type=pa.large_string()))

    def drop_touched(b: pa.Table) -> pa.Table:
        gone = ray.get(dead_or_new)
        return b.filter(pc.is_null(pc.index_in(
            b.column("conv_id").combine_chunks().cast(pa.large_string()), gone)))

    new_ref = ray.put(pa.array(recompress, type=pa.large_string()))

    def keep_new(b: pa.Table) -> pa.Table:
        keep = ray.get(new_ref)
        t = b.filter(pc.is_valid(pc.index_in(
            b.column("conv_id").combine_chunks().cast(pa.large_string()), keep)))
        return t.append_column(
            "owner", pa.array(np.full(t.num_rows, gen_n, dtype=np.int32)))

    owner = (old_owner.map_batches(drop_touched, batch_format="pyarrow")
             .union(new_hashes.map_batches(keep_new, batch_format="pyarrow")))
    _write_owner(base_dir, owner)
    return {"generation": gen_n, "added": len(by_status["added"]),
            "changed": len(by_status["changed"]),
            "removed": len(by_status["removed"]), "compressed_rows": n_rows}


def _write_owner(base_dir: str, owner_ds) -> None:
    """Atomically replace state/conv_owner.parquet (write new, then swap)."""
    import shutil

    state = os.path.join(base_dir, "state")
    tmp = os.path.join(state, "conv_owner.parquet.tmp")
    final = _owner_path(base_dir)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    owner_ds.write_parquet(tmp, compression="zstd")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def _owned_by_generation(base_dir: str) -> list[tuple[str, pa.Array]]:
    """``(generation dir, the conv_ids it still owns)`` for every
    generation that owns any, per state/conv_owner.parquet; the conv_ids
    are a large_string array (:func:`search.owned_rows`).

    Scale note: the owner table (one row per live conversation) is read on
    the driver to split it by generation — fine to ~10^8 convs (a few GB);
    beyond that, split it with a Dataset filter per generation instead (the
    archives and the decode path never materialize either way)."""
    gens = _gen_dirs(base_dir)
    if not gens:
        raise ValueError(f"no generations under {base_dir}")
    owner = pq.read_table(_owner_path(base_dir), columns=["conv_id", "owner"])
    own = np.asarray(owner.column("owner"), dtype=np.int64)
    out = []
    for g, gen_dir in enumerate(gens):
        mine = owner.column("conv_id").filter(pa.array(own == g))
        if len(mine) and not os.path.exists(os.path.join(gen_dir, "EMPTY")):
            out.append((gen_dir,
                        mine.combine_chunks().cast(pa.large_string())))
    return out


def decompress_incremental(base_dir: str, columns=("conv_id", "turn_idx")):
    """Reconstruct the CURRENT snapshot from all generations.

    Each generation decompresses with a prefilter keeping only conversations
    it still owns (:func:`_owned_by_generation`); superseded and removed
    conversations never reach the decode stage. Owner sets ship once per
    generation via ray.put. Returns the union Dataset."""
    import ray

    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.pipelines.search import owned_rows

    parts = []
    for gen_dir, mine in _owned_by_generation(base_dir):
        keep_ref = ray.put(mine)

        def prefilter(b: pa.Table, _ref=keep_ref) -> pa.Table:
            return owned_rows(b, ray.get(_ref))

        parts.append(decompress(gen_dir, columns=columns,
                                prefilter=prefilter))
    if not parts:
        import ray.data as rd

        return rd.from_items([])
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def incremental_stats(base_dir: str) -> dict:
    """Small accounting view: generations, live convs per generation."""
    owner = pq.read_table(_owner_path(base_dir), columns=["owner"])
    own = np.asarray(owner.column("owner"), dtype=np.int64)
    gens = _gen_dirs(base_dir)
    per_gen = {int(g): int((own == g).sum()) for g in np.unique(own)}
    return {"generations": len(gens), "live_convs": len(own),
            "live_convs_by_gen": per_gen}


def search_incremental(base_dir: str, query: str, ignore_case: bool = False):
    """Wildcard search across all generations with ownership masking.

    Each generation's archive is planned as a search target
    (``search._target_plans``) whose scan keeps only the conversations the
    generation still owns — hits superseded by a later generation or
    removed from the snapshot never reach decode — and all plans run once,
    so results are exactly what searching the current snapshot would
    return."""
    from clp_core_ray.pipelines.search import _run_plans, _target_plans

    return _run_plans([p for gen_dir, mine in _owned_by_generation(base_dir)
                       for p in _target_plans(gen_dir, [query], ignore_case,
                                              owned=mine)])


def rebase_incremental(base_dir: str, new_base_dir: str) -> dict:
    """Compact a generation-layered base into a fresh single-generation one
    (tombstone GC): the reconstructed current snapshot — live rows only —
    recompresses as the new gen-0000, dropping every superseded/removed
    row still occupying old cell files. The old base stays untouched until
    the caller swaps directories (the same immutable-then-swap discipline
    as _write_owner); resume-safety comes free because the new base is
    built in full before anything references it."""
    from clp_core_ray.pipelines.compress import compress

    def live_rows():
        return decompress_incremental(
            base_dir, columns=("conv_id", "turn_idx", "role", "tool", "ts"))

    return compress_incremental(live_rows, new_base_dir)
