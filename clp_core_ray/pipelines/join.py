"""Join strategies: broadcast for small sides, hash-shuffle for large ones.

The reference's only joins are dictionary-id lookups (J1-J3 in SURVEY.md §2.4)
and metadata enrichment; at 100-TB scale the general rule is: broadcast the
side that fits comfortably in every worker's heap (ship once via ``ray.put``,
read per actor in ``__init__``), and fall back to a partitioned hash join —
``Dataset.join`` — when the build side exceeds the broadcast budget.
``auto_join`` makes that decision from the build side's estimated in-memory
size so callers don't hard-code an assumption that breaks at 100× data
(the round-1 ``orders_by_nation`` mistake: customer broadcast unconditionally).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

#: Build sides above this estimated size are hash-joined, not broadcast.
#: 64 MiB × concurrency copies stays well inside a worker heap; beyond it,
#: re-shipping the table to every actor costs more than a shuffle.
BROADCAST_BYTES_CAP = 64 << 20


def broadcast_join(ds, small: pa.Table, left_on: str, right_on: str,
                   take_cols: list[str]):
    """Map-side lookup join: ``small`` is put in the object store once and
    every task resolves ``left_on`` against it per batch (J6 pattern).

    Task-based on purpose: an Arrow table in plasma is fetched to each node
    once and mapped zero-copy by every task there, so tasks cost no more
    than an actor pool — and a pool sized near the CPU count deadlocks a
    multi-operator pipeline on a small cluster (observed with concurrency=4
    on 4 CPUs: the pool reserves every slot and downstream ops starve).

    Unmatched left rows get nulls (left-outer semantics, like ``pc.index_in``).
    """
    import ray

    ref = ray.put(small.select([right_on] + take_cols).combine_chunks())

    def attach(batch: pa.Table) -> pa.Table:
        tab = ray.get(ref)  # node-local zero-copy after first fetch
        pos = pc.index_in(batch.column(left_on), tab.column(right_on))
        for c in take_cols:
            batch = batch.append_column(c, pc.take(tab.column(c), pos))
        return batch

    return ds.map_batches(attach, batch_format="pyarrow")


def hash_join(left_ds, right_ds, left_on: str, right_on: str,
              join_type: str = "inner", num_partitions: int | None = None):
    """Partitioned hash join via ``Dataset.join`` (both sides shuffled by key).

    ``num_partitions`` defaults to the cluster CPU count — one aggregator
    partition per core; raise it when either side exceeds memory per core.
    """
    from clp_core_ray.execution import cluster_cpus

    ncpu = cluster_cpus()
    if num_partitions is None:
        num_partitions = max(4, ncpu)
    # fractional CPUs for the shuffle aggregators so a partition count near
    # the cluster CPU count can't starve the map side of the exchange
    agg_cpus = 0.5 if num_partitions >= ncpu else 1
    return left_ds.join(
        right_ds,
        join_type=join_type,
        num_partitions=num_partitions,
        on=(left_on,),
        right_on=(right_on,),
        aggregator_ray_remote_args={"num_cpus": agg_cpus},
    )


def estimated_bytes(build: "pa.Table | object") -> int:
    """In-memory size estimate for the build side (Table or Dataset)."""
    if isinstance(build, pa.Table):
        return build.nbytes
    sz = build.size_bytes()  # parquet-encoded estimate; inflate for in-memory
    return int(sz * 3) if sz is not None else 1 << 60


def auto_join(left_ds, build, left_on: str, right_on: str,
              take_cols: list[str], broadcast_cap: int = BROADCAST_BYTES_CAP):
    """Pick broadcast vs hash join from the build side's estimated size.

    ``build`` may be a pyarrow Table (already loaded driver-side metadata) or
    a Dataset.  Under ``broadcast_cap`` it is broadcast; above, both sides
    are hash-partitioned and joined without ever materializing the build
    side in one place.
    """
    size = estimated_bytes(build)
    if size <= broadcast_cap:
        if not isinstance(build, pa.Table):
            tabs = [pa.table(b) for b in
                    build.select_columns([right_on] + take_cols)
                    .iter_batches(batch_format="pyarrow")]
            build = pa.concat_tables(tabs) if tabs else pa.table({})
        logger.info("auto_join: broadcast (%d bytes)", size)
        return broadcast_join(left_ds, build, left_on, right_on, take_cols)
    logger.info("auto_join: hash join (%d bytes > cap %d)", size, broadcast_cap)
    import ray.data as rd

    if isinstance(build, pa.Table):
        build = rd.from_arrow(build)
    build = build.select_columns([right_on] + take_cols)
    return hash_join(left_ds, build, left_on, right_on)


# --------------------------------------------------------------------------
# Bloom-filter semi-join
# --------------------------------------------------------------------------

#: Default filter size: 2^23 bits = 1 MiB — ~1% false positives at 10M build
#: keys with 5 hashes; still a single broadcast object at any cluster size.
BLOOM_LOG2_BITS = 23
BLOOM_N_HASHES = 5


def _bloom_positions(h: np.ndarray, log2_bits: int, n_hashes: int) -> np.ndarray:
    """Double hashing (Kirsch & Mitzenmacher): pos_i = h1 + i·h2 mod m.
    Returns (n, n_hashes) bit positions from one 64-bit hash per key."""
    mask = np.uint64((1 << log2_bits) - 1)
    h1 = h & mask
    h2 = (h >> np.uint64(32)) | np.uint64(1)  # odd => full-period stride
    i = np.arange(n_hashes, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        return ((h1[:, None] + i * h2[:, None]) & mask).astype(np.int64)


def build_bloom(ds, key: str, *, log2_bits: int = BLOOM_LOG2_BITS,
                n_hashes: int = BLOOM_N_HASHES) -> np.ndarray:
    """Fold a Dataset's key column into one bloom bit array (packed uint64).

    Each batch reduces to a fixed 2^log2_bits-bit partial filter (one row per
    batch, same exchange shape as the HLL sketch); the driver ORs the
    partials. The exchange is O(batches × 2^log2_bits/8) bytes no matter how
    many keys the build side has.
    """
    from clp_core_ray.functions.sketch import _hash_col

    words = 1 << max(0, log2_bits - 6)

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(words, dtype=np.uint64)
        if len(batch):
            posn = _bloom_positions(_hash_col(batch.column(key)),
                                    log2_bits, n_hashes).reshape(-1)
            np.bitwise_or.at(bits, posn >> 6,
                             np.uint64(1) << (posn & 63).astype(np.uint64))
        return pa.table({"bits": pa.array([bits.tobytes()], type=pa.binary())})

    acc = np.zeros(words, dtype=np.uint64)
    for b in ds.select_columns([key]).map_batches(
            partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        for blob in b.column("bits").to_pylist():
            acc |= np.frombuffer(blob, dtype=np.uint64)
    return acc


def bloom_semi_join(left_ds, right_ds, left_on: str, right_on: str | None = None,
                    *, log2_bits: int = BLOOM_LOG2_BITS,
                    n_hashes: int = BLOOM_N_HASHES, exact: bool = True,
                    broadcast_cap: int = BROADCAST_BYTES_CAP):
    """Semi-join: keep left rows whose key appears in ``right_ds``.

    The 100-TB join pattern: the build side folds to a 2^log2_bits-bit bloom
    filter (1 MiB at the default — broadcastable at any scale, unlike the raw
    key set), every probe batch drops non-members BEFORE any shuffle, and
    only the surviving sliver pays the exact distinct-key hash join. With a
    1% false-positive rate and 0.1% join selectivity the exchange shrinks
    ~99% versus shuffling the whole probe side.

    ``exact=False`` skips the verification join and returns the bloom
    superset (≤ fp-rate extra rows) — useful when a later stage re-verifies.
    """
    import ray
    import ray.data as rd

    right_on = right_on or left_on
    # materialize the build side's KEY COLUMN once: the bloom fold, the
    # size gate and the exact-verify pass all read it (three plan
    # executions otherwise — read+filter re-ran per consumer)
    right_keys = right_ds.select_columns([right_on]).materialize()
    bits = build_bloom(right_keys, right_on,
                       log2_bits=log2_bits, n_hashes=n_hashes)
    bits_ref = ray.put(bits)

    def probe(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return batch
        from clp_core_ray.functions.sketch import _hash_col
        arr = ray.get(bits_ref)
        posn = _bloom_positions(_hash_col(batch.column(left_on)),
                                log2_bits, n_hashes)
        hit = (arr[posn >> 6] >> (posn & 63).astype(np.uint64)
               & np.uint64(1)).astype(bool).all(axis=1)
        return batch.filter(pa.array(hit))

    survivors = left_ds.map_batches(probe, batch_format="pyarrow")
    if not exact:
        return survivors

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(right_on).aggregate([])

    keys = right_keys.map_batches(local_distinct, batch_format="pyarrow")
    if estimated_bytes(right_keys) <= broadcast_cap:
        # small key column: verify via broadcast membership — no shuffle
        parts = [pa.table(b) for b in keys.iter_batches(batch_format="pyarrow")]
        kt = (pa.concat_tables(parts) if parts
              else pa.table({right_on: pa.array([], type=pa.int64())}))
        keys_ref = ray.put(pc.unique(kt.column(right_on).combine_chunks()))

        def verify(batch: pa.Table) -> pa.Table:
            if not len(batch):
                return batch
            member = pc.is_in(batch.column(left_on),
                              value_set=ray.get(keys_ref))
            return batch.filter(member)

        return survivors.map_batches(verify, batch_format="pyarrow")
    # big key column: distributed distinct, then hash-join only the sliver
    key_ds = keys.groupby(right_on).count()
    drop = [c for c in key_ds.columns() if c != right_on]
    key_ds = key_ds.drop_columns(drop)
    if right_on != left_on:
        key_ds = key_ds.rename_columns({right_on: left_on})
    return hash_join(survivors, key_ds, left_on, left_on)


def _distinct_keys_marker(right_keys, right_on: str, marker: str):
    """EXACT distinct key values of ``right_keys`` + a constant marker
    column: per-batch pc.unique, key-hash-bucket groupby, per-bucket
    pc.unique on the VALUES (grouping on values, not hashes — no collision
    caveat). Output rows = |distinct keys|."""
    import ray

    from clp_core_ray.functions.sketch import _hash_col
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = scaled_buckets()

    def batch_distinct(b: pa.Table) -> pa.Table:
        u = pc.unique(b.column(right_on).combine_chunks())
        t = pa.table({right_on: u})
        h = _hash_col(t.column(right_on))
        return t.append_column(
            "_dbucket", pa.array((h % np.uint64(nb)).astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        u = pc.unique(g.column(right_on).combine_chunks())
        return pa.table({
            right_on: u,
            marker: pa.array(np.ones(len(u), dtype=np.int8)),
        })

    return (right_keys.map_batches(batch_distinct, batch_format="pyarrow")
            .groupby("_dbucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def anti_join(left_ds, right_ds, left_on: str, right_on: str | None = None,
              *, log2_bits: int = BLOOM_LOG2_BITS,
              n_hashes: int = BLOOM_N_HASHES,
              broadcast_cap: int = BROADCAST_BYTES_CAP):
    """EXACT anti-join: keep left rows whose key does NOT appear in
    ``right_ds`` (NOT EXISTS semantics — the incremental-dedup /
    "not yet processed" / orphan-detection primitive).

    Bloom-accelerated like :func:`bloom_semi_join`, inverted: a bloom MISS
    is a proof of absence (no false negatives), so miss rows are kept with
    zero exchange; only the bloom-HIT sliver (true members + ~1% false
    positives) pays the exact join — against the distinct right-key table
    (value-exact grouping, see :func:`_distinct_keys_marker`) — and the
    join's UNMATCHED rows (the false positives) are added back. The left
    side is consumed twice (miss pass + hit pass), both cheap probe scans;
    that beats shuffling the full left through an exchange when the
    anti-join survivor rate is high, which is the common case.
    """
    import ray

    right_on = right_on or left_on
    right_keys = right_ds.select_columns([right_on]).materialize()
    if right_keys.count() == 0:  # empty build side: NOT EXISTS keeps all
        return left_ds
    bits = build_bloom(right_keys, right_on,
                       log2_bits=log2_bits, n_hashes=n_hashes)
    bits_ref = ray.put(bits)

    def probe_mask(batch: pa.Table) -> np.ndarray:
        from clp_core_ray.functions.sketch import _hash_col

        arr = ray.get(bits_ref)
        posn = _bloom_positions(_hash_col(batch.column(left_on)),
                                log2_bits, n_hashes)
        return (arr[posn >> 6] >> (posn & 63).astype(np.uint64)
                & np.uint64(1)).astype(bool).all(axis=1)

    def keep_misses(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return batch
        return batch.filter(pa.array(~probe_mask(batch)))

    def keep_hits(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return batch
        return batch.filter(pa.array(probe_mask(batch)))

    misses = left_ds.map_batches(keep_misses, batch_format="pyarrow")
    hits = left_ds.map_batches(keep_hits, batch_format="pyarrow")

    marker_col = "__in_right"
    # avoid key-name collision in the join output
    rk_name = right_on if right_on != left_on else f"_r_{right_on}"
    marker = _distinct_keys_marker(right_keys, right_on, marker_col)
    if rk_name != right_on:
        marker = marker.map_batches(
            lambda t: t.rename_columns([rk_name, marker_col]),
            batch_format="pyarrow")
    joined = auto_join(hits, marker, left_on, rk_name, [marker_col],
                       broadcast_cap=broadcast_cap)
    fps = joined.map_batches(
        lambda b: b.filter(pc.is_null(b.column(marker_col)))
        .drop_columns([marker_col]),
        batch_format="pyarrow")
    return misses.union(fps)
