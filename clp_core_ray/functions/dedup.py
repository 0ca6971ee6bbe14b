"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shapes follow the scale-correct patterns: content-hash → hash-partitioned
min-id for exact dedup; shingle→minhash→band→bucket groupby for MinHash-LSH
(candidate pairs only ever materialize per bucket); SimHash as a per-row
64-bit signature. Verification (exact Jaccard) runs only on LSH candidates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray.execution import cluster_cpus
from clp_core_ray.functions.text import fingerprints, word_shingle_hashes

_SPLITMIX64 = np.uint64(0x9E3779B97F4A7C15)

# --------------------------------------------------------------------------
# exact dedup
# --------------------------------------------------------------------------


def exact_dedup_survivors(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset[(hash, doc_id)] → min id per content hash (first-wins dedup).

    Per-batch partial min, then a small groupby — the shuffle carries one row
    per distinct hash per batch (A4 pattern).
    """

    def partial(batch: pa.Table) -> pa.Table:
        h = fingerprints(batch.column(text_col))
        t = pa.table({"content_hash": h, id_col: batch.column(id_col)})
        return t.group_by(["content_hash"]).aggregate([(id_col, "min")]).rename_columns(
            ["content_hash", id_col]
        )

    from ray.data.aggregate import Min

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min(id_col, alias_name=id_col))
    )


# --------------------------------------------------------------------------
# MinHash + LSH
# --------------------------------------------------------------------------

N_PERM = 64
N_BANDS = 16  # 16 bands × 4 rows → catches jaccard ≳ 0.5 reliably
BUCKET_CAP = 2000  # above this, star-pair instead of all-pairs (and log)
_MERSENNE = np.uint64((1 << 61) - 1)


def _log_oversized_bucket(kind: str, size: int, cap: int) -> None:
    import logging

    logging.getLogger("clp_core_ray.dedup").warning(
        "%s bucket with %d docs exceeds cap %d: star-pairing against the "
        "min-id representative (O(n) pairs, component stays connected)",
        kind, size, cap,
    )


def _perm_params(n_perm: int = N_PERM, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    return a, b


_A, _B = _perm_params()


def minhash_signatures(texts: pa.Array, k_shingle: int = 3) -> np.ndarray:
    """(n_rows, N_PERM) uint64 MinHash signatures over word k-shingles.

    Rows with no shingles get all-max signatures (never collide).
    """
    shingles, offsets = word_shingle_hashes(texts, k=k_shingle)
    n = len(offsets) - 1
    sig = np.full((n, N_PERM), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(shingles) == 0:
        return sig
    with np.errstate(over="ignore"):
        # universal hashing h_k(s) = (a_k * s + b_k) mod 2^61-1 (vectorized
        # over shingles × perms, banded to bound memory)
        hv = (shingles[:, None] * _A[None, :] + _B[None, :]) % _MERSENNE
    counts = np.diff(offsets)
    nonempty = counts > 0
    # per-row min via minimum.reduceat on each perm column
    idx = offsets[:-1].clip(0, max(len(shingles) - 1, 0))
    red = np.minimum.reduceat(hv, idx, axis=0) if len(shingles) else hv
    sig[nonempty] = red[nonempty]
    return sig


def band_hashes(sig: np.ndarray) -> np.ndarray:
    """(n_rows, N_BANDS) int64 band bucket keys (FNV-mix of each band's rows)."""
    n, p = sig.shape
    rows_per_band = p // N_BANDS
    out = np.empty((n, N_BANDS), dtype=np.uint64)
    PRIME = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for b in range(N_BANDS):
            h = np.full(n, np.uint64(0xCBF29CE484222325))
            for r in range(rows_per_band):
                h = (h ^ sig[:, b * rows_per_band + r]) * PRIME
            out[:, b] = h
    return out.view(np.int64)


def _signature_table(batch: pa.Table, id_col: str, text_col: str,
                     k_shingle: int) -> pa.Table:
    """(doc_id, sig: fixed_size_list<int64>[N_PERM]) — one row per doc."""
    sig = minhash_signatures(batch.column(text_col), k_shingle)
    return pa.table({
        id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sig.view(np.int64).reshape(-1)), N_PERM
        ),
    })


def _explode_bands(sig_tbl: pa.Table, id_col: str) -> pa.Table:
    """Signature rows → LIGHT (band, band_hash, doc_id) shuffle rows.

    The 512-byte signature does NOT ride the band shuffle (round-2 shipped it
    once per band = 16x the needed exchange payload); verification re-joins
    signatures per candidate pair instead."""
    n = len(sig_tbl)
    sig = np.asarray(
        sig_tbl.column("sig").combine_chunks().flatten(), dtype=np.int64
    ).reshape(n, N_PERM).view(np.uint64)
    bh = band_hashes(sig)
    ids = np.asarray(sig_tbl.column(id_col), dtype=np.int64)
    return pa.table({
        "band": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
        "band_hash": pa.array(bh.reshape(-1)),
        id_col: pa.array(np.repeat(ids, N_BANDS)),
    })


def _bucket_pairs_vectorized(group: pa.Table, id_col: str,
                             cap: int = BUCKET_CAP) -> pa.Table:
    """Candidate pairs for every LSH bucket inside one coarse bucket —
    fully vectorized, no Python work per LSH bucket.

    One lexsort orders the (band, band_hash, doc) rows; runs of equal
    (band, band_hash) are the LSH buckets; duplicate docs within a run are
    dropped; pair expansion is repeat/arange arithmetic. Runs larger than
    ``cap`` emit star pairs against their min doc instead of O(n²) pairs
    (boilerplate-heavy corpora produce huge buckets; the star keeps the
    duplicate component connected with O(n) pairs) — and are LOGGED, never
    silently dropped. The star case is the same expansion with the per-row
    pair count capped to the run's first row, so one formula serves both.
    Emitted pairs satisfy doc_a < doc_b (docs sorted within the run).
    """
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64())})
    m = len(group)
    if m < 2:
        return empty
    band = np.asarray(group.column("band"), dtype=np.int64)
    bh = np.asarray(group.column("band_hash"), dtype=np.uint64)
    doc = np.asarray(group.column(id_col), dtype=np.int64)
    order = np.lexsort((doc, bh, band))
    band, bh, doc = band[order], bh[order], doc[order]
    keep = np.ones(m, dtype=bool)  # drop duplicate (band, hash, doc) rows
    keep[1:] = ((band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
                | (doc[1:] != doc[:-1]))
    band, bh, doc = band[keep], bh[keep], doc[keep]
    m = len(doc)
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, m))
    run_of_row = np.cumsum(new_run) - 1
    pos = np.arange(m) - starts[run_of_row]
    n_of_row = counts[run_of_row]
    # pairs this row opens: all-pairs rows pair with every later row of the
    # run; over-cap runs pair only their first row (the star)
    c = np.where(n_of_row <= cap, n_of_row - 1 - pos,
                 np.where(pos == 0, n_of_row - 1, 0))
    if (counts > cap).any():
        _log_oversized_bucket("MinHash-LSH", int(counts.max()), cap)
    total = int(c.sum())
    if total == 0:
        return empty
    rep = np.repeat(np.arange(m), c)
    off = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(c)[:-1])), c)
    return pa.table({"doc_a": pa.array(doc[rep]),
                     "doc_b": pa.array(doc[rep + 1 + off])})


def minhash_lsh_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      threshold: float = 0.5, k_shingle: int = 3):
    """Near-duplicate pairs via MinHash-LSH, verified by signature similarity.

    Stage 1 (map_batches): one (doc_id, sig) row per doc, kept in the object
    store. Stage 2: explode to LIGHT (band, band_hash, doc_id) rows — 20
    bytes/row instead of shipping the 512-byte signature per band — and
    groupby band+hash into candidate pairs (distinct). Stage 3 (verify):
    join each side's signature back (broadcast under the auto_join cap,
    partitioned hash join above it) and keep pairs with estimated Jaccard =
    fraction of matching minhashes ≥ threshold.
    Returns Dataset[(doc_a, doc_b, est_jaccard)] with doc_a < doc_b, distinct.
    """
    from clp_core_ray.pipelines.join import auto_join

    sig_ds = ds.map_batches(
        lambda b: _signature_table(b, id_col, text_col, k_shingle),
        batch_format="pyarrow",
    ).materialize()

    n_buckets = max(64, 4 * cluster_cpus())

    def add_cbucket(b: pa.Table) -> pa.Table:
        # coarse bucket = hash of (band, band_hash): the shuffle key moves
        # from billions of tiny LSH buckets to O(CPUs) groups so the
        # map_groups Python callback runs per COARSE bucket; LSH-bucket
        # boundaries are recovered vectorized inside (run detection on one
        # lexsort). Without this, candidate generation pays a Python call
        # per LSH bucket — the bottleneck at corpus scale, not the shuffle.
        band = np.asarray(b.column("band"), dtype=np.int64).astype(np.uint64)
        bh = np.asarray(b.column("band_hash"), dtype=np.uint64)
        key = bh ^ (band * np.uint64(0x9E3779B97F4A7C15))
        return b.append_column(
            "_cb", pa.array((key % np.uint64(n_buckets)).astype(np.int32))
        )

    cands = (
        sig_ds.map_batches(lambda b: _explode_bands(b, id_col),
                           batch_format="pyarrow")
        .map_batches(add_cbucket, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(lambda g: _bucket_pairs_vectorized(g, id_col),
                    batch_format="pyarrow")
    )
    cands = _distinct_pairs(cands)

    # verify pass: signatures shipped once per SIDE of a surviving candidate
    # pair (plus once per doc for the build side), not once per band.
    # Under the broadcast cap the whole signature matrix goes to plasma ONCE
    # and both sides resolve by searchsorted inside one map stage — the
    # two-join formulation (one broadcast per side) stays as the
    # over-cap fallback.
    from clp_core_ray.pipelines.join import BROADCAST_BYTES_CAP, estimated_bytes

    def _verify_tbl(t: pa.Table, sa: np.ndarray, sb: np.ndarray) -> pa.Table:
        est = (sa == sb).mean(axis=1) if len(t) else np.zeros(0)
        keep = pa.array(est >= threshold)
        return pa.table({
            "doc_a": t.column("doc_a").combine_chunks().cast(pa.int64()),
            "doc_b": t.column("doc_b").combine_chunks().cast(pa.int64()),
            "est_jaccard": pa.array(est),
        }).filter(keep)

    if estimated_bytes(sig_ds) <= BROADCAST_BYTES_CAP:
        import ray

        blocks = [t for t in ray.get(sig_ds.to_arrow_refs()) if t.num_columns]
        stbl = pa.concat_tables(blocks) if blocks else pa.table(
            {id_col: pa.array([], type=pa.int64()),
             "sig": pa.array([], type=pa.list_(pa.int64()))})
        ids = np.asarray(stbl.column(id_col), dtype=np.int64)
        order = np.argsort(ids)
        mat = np.asarray(stbl.column("sig").combine_chunks().flatten(),
                         dtype=np.int64).reshape(max(len(stbl), 0), N_PERM)
        sig_ref = ray.put((ids[order], mat[order]))

        def verify_broadcast(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return _verify_tbl(t, np.zeros((0, N_PERM), dtype=np.int64),
                                   np.zeros((0, N_PERM), dtype=np.int64))
            sids, smat = ray.get(sig_ref)
            a = np.asarray(t.column("doc_a"), dtype=np.int64)
            b = np.asarray(t.column("doc_b"), dtype=np.int64)
            sa = smat[np.searchsorted(sids, a)]
            sb = smat[np.searchsorted(sids, b)]
            return _verify_tbl(t, sa, sb)

        return cands.map_batches(verify_broadcast, batch_format="pyarrow")

    sig_a = sig_ds.map_batches(lambda t: t.rename_columns(["_ida", "sig_a"]),
                               batch_format="pyarrow")
    sig_b = sig_ds.map_batches(lambda t: t.rename_columns(["_idb", "sig_b"]),
                               batch_format="pyarrow")
    joined = auto_join(cands, sig_a, "doc_a", "_ida", ["sig_a"])
    joined = auto_join(joined, sig_b, "doc_b", "_idb", ["sig_b"])

    def verify(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64()),
                             "est_jaccard": pa.array([], type=pa.float64())})
        sa = np.asarray(t.column("sig_a").combine_chunks().flatten(),
                        dtype=np.int64).reshape(n, N_PERM)
        sb = np.asarray(t.column("sig_b").combine_chunks().flatten(),
                        dtype=np.int64).reshape(n, N_PERM)
        return _verify_tbl(t, sa, sb)

    return joined.map_batches(verify, batch_format="pyarrow")


def _distinct_pairs(pairs_ds):
    """Distinct (doc_a, doc_b) rows (a pair can surface from several bands):
    per-batch unique, then the bucketed global distinct."""
    from clp_core_ray.state.dictionaries import distinct_by_key

    def add_key(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("doc_a"), dtype=np.int64)
        b = np.asarray(batch.column("doc_b"), dtype=np.int64)
        key = ((a.astype(np.uint64) << np.uint64(32)) ^ b.astype(np.uint64)).view(
            np.int64
        )
        _, first = np.unique(key, return_index=True)
        return batch.take(np.sort(first)).append_column(
            "pair_key", pa.array(key[np.sort(first)])
        )

    deduped = distinct_by_key(
        pairs_ds.map_batches(add_key, batch_format="pyarrow"), "pair_key"
    )
    return deduped.map_batches(
        lambda b: b.drop_columns(["pair_key"]), batch_format="pyarrow"
    )


def dup_clusters(pairs: pa.Table, max_rounds: int = 20) -> pa.Table:
    """Connected components over near-dup pairs → (doc_id, cluster_id).

    Iterative min-label propagation (the shuffle-friendly formulation the
    pair volume demands at scale; here vectorized rounds over the edge list
    until fixpoint). cluster_id = smallest doc_id in the component, so keeping
    doc_id == cluster_id implements keep-one-per-cluster dedup.
    """
    a = np.asarray(pairs.column("doc_a"), dtype=np.int64)
    b = np.asarray(pairs.column("doc_b"), dtype=np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    label = nodes.copy()
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    for _ in range(max_rounds):
        new = label.copy()
        # propagate min label across each edge, both directions
        np.minimum.at(new, ia, label[ib])
        np.minimum.at(new, ib, label[ia])
        # pointer jumping: labels are always node ids, so one searchsorted
        # maps label value → its node slot; follow one hop
        new = np.minimum(new, label[np.searchsorted(nodes, new)])
        if (new == label).all():
            break
        label = new
    return pa.table(
        {"doc_id": pa.array(nodes), "cluster_id": pa.array(label)}
    )


def dup_clusters_ds(pairs_ds, max_rounds: int = 20,
                    driver_cap_bytes: int | None = None):
    """Distributed connected components over a pairs Dataset (doc_a, doc_b).

    The iterative-shuffle formulation for pair volumes beyond driver RAM:
    each round hash-joins the static edge list against the current label
    table on both endpoints, emits the neighbor's label across every edge,
    takes a per-node min (groupby), then pointer-jumps: labels are node ids,
    so joining the label column back onto the label table substitutes each
    node's label with its label's label (one extra 1:1 hash join). The jump
    doubles the propagation horizon per round → O(log diameter) rounds even
    on path graphs. Labels decrease monotonically, so the global label sum
    is a convergence certificate — when it stops falling, components are
    stable. Near-dup clusters are dense, so 2-3 rounds in practice.
    Returns (doc_id, cluster_id).
    """
    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    from clp_core_ray.pipelines.join import hash_join

    npart = max(4, cluster_cpus())

    # One repartition+materialize up front: (a) the edge list is re-joined
    # every round — without this the whole upstream pair pipeline (LSH etc.)
    # re-executes per round; (b) repartition folds the zero-column empty
    # blocks that groupby().map_groups() emits for empty sort partitions
    # into schema-bearing blocks (Dataset.join rejects column-less blocks).
    pairs_ds = pairs_ds.repartition(npart).materialize()

    # size gate (the auto_join discipline): a pair set that fits driver-side
    # shouldn't pay ~9 distributed joins of fixed latency per propagation
    # round — run the vectorized numpy label propagation instead. The
    # distributed path below is the same algorithm for edge lists beyond
    # driver RAM.
    from clp_core_ray.pipelines.join import BROADCAST_BYTES_CAP, estimated_bytes

    cap = BROADCAST_BYTES_CAP if driver_cap_bytes is None else driver_cap_bytes
    if estimated_bytes(pairs_ds) <= cap:
        blocks = [t.select(["doc_a", "doc_b"])
                  for t in ray.get(pairs_ds.to_arrow_refs())
                  if t.num_columns]
        tab = pa.concat_tables(blocks) if blocks else pa.table(
            {"doc_a": pa.array([], type=pa.int64()),
             "doc_b": pa.array([], type=pa.int64())})
        return rd.from_arrow(dup_clusters(tab, max_rounds=max_rounds))

    def nodes_of(batch: pa.Table) -> pa.Table:
        ids = pa.concat_arrays([
            batch.column("doc_a").combine_chunks().cast(pa.int64()),
            batch.column("doc_b").combine_chunks().cast(pa.int64()),
        ])
        return pa.table({"doc_id": ids, "cluster_id": ids})

    labels = (
        pairs_ds.map_batches(nodes_of, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Min("cluster_id", alias_name="cluster_id"))
    )

    def _sum(ds) -> int:
        out = ds.aggregate(Sum("cluster_id", alias_name="s"))
        return int(out["s"])

    # repartition before every materialize: hash-aggregate/union outputs
    # include zero-column blocks for empty partitions, which Dataset.join
    # rejects; repartition folds them into schema-bearing blocks
    labels = labels.repartition(npart).materialize()
    prev = _sum(labels)
    for _ in range(max_rounds):
        # Each join is materialized before the next launches: a single
        # execution plan holding N JoinOperators spins up N aggregator
        # pools at once and deadlocks a small cluster (observed with the
        # unioned two-join plan on 4 CPUs); one join in flight at a time
        # keeps the exchange's resource needs constant.
        la = hash_join(pairs_ds, labels, "doc_a", "doc_id",
                       num_partitions=npart).map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_b"),
                                "cluster_id": t.column("cluster_id")}),
            batch_format="pyarrow").materialize()
        lb = hash_join(pairs_ds, labels, "doc_b", "doc_id",
                       num_partitions=npart).map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_a"),
                                "cluster_id": t.column("cluster_id")}),
            batch_format="pyarrow").materialize()
        labels = (
            labels.union(la, lb)
            .groupby("doc_id")
            .aggregate(Min("cluster_id", alias_name="cluster_id"))
            .repartition(npart)
            .materialize()
        )
        # pointer jump: replace each label with its label's label (1:1 join
        # on cluster_id → doc_id; every label value is a node id, so the
        # inner join keeps every row exactly once)
        hop = labels.map_batches(
            lambda t: t.rename_columns(["p_doc", "p_cluster"]),
            batch_format="pyarrow",
        )
        labels = hash_join(labels, hop, "cluster_id", "p_doc",
                           num_partitions=npart).map_batches(
            lambda t: pa.table({
                "doc_id": t.column("doc_id"),
                "cluster_id": pc.min_element_wise(
                    t.column("cluster_id"), t.column("p_cluster")),
            }),
            batch_format="pyarrow",
        ).repartition(npart).materialize()
        cur = _sum(labels)
        if cur == prev:
            break
        prev = cur
    return labels


# --------------------------------------------------------------------------
# SimHash
# --------------------------------------------------------------------------


def simhash64(texts: pa.Array) -> pa.Array:
    """64-bit SimHash over word unigram hashes (sign of per-bit vote sums)."""
    shingles, offsets = word_shingle_hashes(texts, k=1)
    n = len(offsets) - 1
    bits = ((shingles[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int32) * 2 - 1
    sums = np.zeros((n, 64), dtype=np.int64)
    if len(shingles):
        idx = offsets[:-1].clip(0, len(shingles) - 1)
        red = np.add.reduceat(bits, idx, axis=0)
        nonempty = np.diff(offsets) > 0
        sums[nonempty] = red[nonempty]
    sig = (sums > 0).astype(np.uint64)
    packed = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(64):
            packed |= sig[:, j] << np.uint64(j)
    return pa.array(packed.view(np.int64))


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard for verification of candidate pairs."""

    def grams(t):
        import re

        w = [x for x in re.split(r"[^a-zà-ÿ]+", t.lower()) if x]
        return {tuple(w[i : i + k]) for i in range(max(0, len(w) - k + 1))}

    ga, gb = grams(text_a), grams(text_b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / max(1, len(ga | gb))


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def ngram_jaccard_pairs(ds, threshold: float = 0.4, k: int = 3,
                        id_col: str = "doc_id", text_col: str = "text"):
    """EXACT pairs with word-k-gram Jaccard ≥ threshold, distributed.

    Same block-self-join shape as :func:`embedding_dup_pairs`: shingle sets
    are hashed per block (vectorized FNV over split words, empties dropped —
    the :func:`ngram_jaccard` tokenization), blocks stay in the object store,
    and one task per (block_i, block_j) computes all cross Jaccards via
    bit-packed set matrices (shared vocab → packbits → AND + popcount; the
    inner loop is per-row-of-A with the whole of B vectorized). Pairs where
    either side has no grams are excluded. Exact is O(n²) by nature — the
    100-TB scale path is :func:`minhash_lsh_pairs` over the same shingles.
    """
    import re

    import ray
    import ray.data as rd

    from hashlib import blake2b

    def prep(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        sets, offs = [], [0]
        for t in texts:
            w = [x for x in re.split(r"[^a-zà-ÿ]+", (t or "").lower()) if x]
            # deterministic cross-process hash (builtin hash() is salted
            # per worker, which would desync the shared vocab across blocks)
            grams = {
                int.from_bytes(
                    blake2b("\x1f".join(w[i:i + k]).encode(),
                            digest_size=8).digest(), "little") >> 1
                for i in range(max(0, len(w) - k + 1))
            }
            sets.append(np.fromiter(grams, dtype=np.int64, count=len(grams)))
            offs.append(offs[-1] + len(grams))
        flat = (np.concatenate(sets) if sets else np.zeros(0, np.int64))
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            "grams": pa.LargeListArray.from_arrays(
                pa.array(offs, type=pa.int64()), pa.array(flat)),
        })

    blocks = ds.map_batches(prep, batch_format="pyarrow").materialize().to_arrow_refs()

    def _unpack(t: pa.Table):
        col = t.column("grams").combine_chunks()
        offs = np.asarray(col.offsets, dtype=np.int64)
        vals = np.asarray(col.values, dtype=np.int64)
        return vals, offs - offs[0]

    @ray.remote
    def pair_block(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        va, oa = _unpack(ta)
        vb, ob = _unpack(tb)
        ia = np.asarray(ta.column(id_col), dtype=np.int64)
        ib = np.asarray(tb.column(id_col), dtype=np.int64)
        vocab = np.unique(np.concatenate([va, vb]))
        nbits = len(vocab)
        if nbits == 0:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64())})

        def pack(vals, offs, n):
            bits = np.zeros((n, nbits), dtype=np.uint8)
            rows = np.repeat(np.arange(n), np.diff(offs))
            bits[rows, np.searchsorted(vocab, vals)] = 1
            return np.packbits(bits, axis=1)

        pa_bits = pack(va, oa, len(ia))
        pb_bits = pack(vb, ob, len(ib))
        sa = np.diff(oa)
        sb = np.diff(ob)
        out_a, out_b = [], []
        for r in range(len(ia)):
            if sa[r] == 0:
                continue
            inter = _POPCOUNT8[pb_bits & pa_bits[r]].sum(axis=1).astype(np.int64)
            union = sa[r] + sb - inter
            m = (sb > 0) & (inter >= threshold * union)
            if same:
                m &= ia[r] < ib
            if m.any():
                hits = ib[m]
                out_a.append(np.full(len(hits), ia[r]))
                out_b.append(hits)
        if not out_a:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64())})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        return pa.table({"doc_a": pa.array(np.minimum(a, b)),
                         "doc_b": pa.array(np.maximum(a, b))})

    tasks = [pair_block.remote(blocks[i], blocks[j], i == j)
             for i in range(len(blocks)) for j in range(i, len(blocks))]
    tables = [t for t in ray.get(tasks) if t.num_rows] if tasks else []
    out = (pa.concat_tables(tables) if tables
           else pa.table({"doc_a": pa.array([], type=pa.int64()),
                          "doc_b": pa.array([], type=pa.int64())}))
    return rd.from_arrow(out)


# --------------------------------------------------------------------------
# embedding-cosine near-dup
# --------------------------------------------------------------------------


def embedding_dup_pairs(ds, id_col: str = "vec_id", emb_col: str = "embedding",
                        threshold: float = 0.95):
    """EXACT pairs with cosine ≥ threshold via a distributed block self-join.

    The normalized dataset stays in the object store as Arrow blocks; one raw
    Ray task per (block_i, block_j) pair (i ≤ j) computes the cross matmul
    and emits qualifying id pairs. Nothing materializes on the driver except
    the (small) result pair list. Raw tasks are justified here because the
    Dataset API has no self-join; total flops are inherently O(n²) for the
    exact problem — for approximate near-dup at 100-TB scale use
    :func:`embedding_dup_pairs_lsh` (bucketed, near-linear).
    """
    import ray
    import ray.data as rd

    def prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 0
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim or 1
            ),
        })

    blocks = ds.map_batches(prep, batch_format="pyarrow").materialize().to_arrow_refs()

    @ray.remote
    def pair_block(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ma = _fixed_matrix(ta, "nemb")
        mb = _fixed_matrix(tb, "nemb")
        ia = np.asarray(ta.column(id_col), dtype=np.int64)
        ib = np.asarray(tb.column(id_col), dtype=np.int64)
        scores = ma @ mb.T
        ii, jj = np.nonzero(scores >= np.float32(threshold))
        # a < b emits each unordered pair exactly once (cross-block pairs from
        # the j > i task carry the other orientation of the same id ranges)
        if same:
            keep = ia[ii] < ib[jj]
            a, b = ia[ii][keep], ib[jj][keep]
        else:
            a, b = ia[ii], ib[jj]
        return pa.table({"doc_a": pa.array(np.minimum(a, b)),
                         "doc_b": pa.array(np.maximum(a, b))})

    tasks = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            tasks.append(pair_block.remote(blocks[i], blocks[j], i == j))
    tables = [t for t in ray.get(tasks) if t.num_rows] if tasks else []
    out = (pa.concat_tables(tables) if tables
           else pa.table({"doc_a": pa.array([], type=pa.int64()),
                          "doc_b": pa.array([], type=pa.int64())}))
    # cross-block i<j emits each unordered pair once; same-block handled by <
    return rd.from_arrow(out)


def embedding_dup_pairs_lsh(ds, id_col: str = "vec_id", emb_col: str = "embedding",
                            threshold: float = 0.9, n_bits: int = 8,
                            n_bands: int = 8, seed: int = 11,
                            bucket_cap: int = 4000):
    """APPROXIMATE near-dup pairs via hyperplane (sign-random-projection) LSH.

    Scale path: each vector lands in ``n_bands`` buckets keyed by the sign
    pattern of ``n_bits`` random projections; exact cosine runs only within
    buckets (groupby shuffle carries n_bands copies). Recall for cosine ≥ t is
    1-(1-p^n_bits)^n_bands with p = 1-acos(t)/π (≈0.99 at t=0.9 with 8×8).
    """

    def explode(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        dim = m.shape[1] if m.size else 1
        planes = rng_planes(dim, n_bits * n_bands, seed)
        signs = (m @ planes.T) > 0  # (n, bits*bands)
        n = len(batch)
        keys = np.zeros((n, n_bands), dtype=np.uint64)
        for band in range(n_bands):
            block = signs[:, band * n_bits : (band + 1) * n_bits]
            k = np.zeros(n, dtype=np.uint64)
            for b in range(n_bits):
                k = (k << np.uint64(1)) | block[:, b].astype(np.uint64)
            keys[:, band] = (k << np.uint64(8)) | np.uint64(band)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        return pa.table({
            "bucket": pa.array(keys.reshape(-1).view(np.int64)),
            id_col: pa.array(np.repeat(ids, n_bands)),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(np.repeat(m.astype(np.float32), n_bands, axis=0).reshape(-1)),
                dim,
            ),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        uniq, first = np.unique(ids, return_index=True)
        empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                          "doc_b": pa.array([], type=pa.int64())})
        if len(uniq) < 2:
            return empty
        m = _fixed_matrix(group, "nemb")[first]
        if len(uniq) > bucket_cap:
            _log_oversized_bucket("embedding-LSH", len(uniq), bucket_cap)
            # star pairing vs the min-id representative keeps the component
            # connected with O(n) pairs instead of O(n²)
            s = m[1:] @ m[0]
            keep = s >= np.float32(threshold)
            return pa.table({"doc_a": pa.array(np.full(keep.sum(), uniq[0])),
                             "doc_b": pa.array(uniq[1:][keep])})
        scores = m @ m.T
        ii, jj = np.nonzero(scores >= np.float32(threshold))
        keep = ii < jj
        return pa.table({"doc_a": pa.array(uniq[ii[keep]]),
                         "doc_b": pa.array(uniq[jj[keep]])})

    pairs = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    return _distinct_pairs(pairs)


def rng_planes(dim: int, n: int, seed: int) -> np.ndarray:
    """Deterministic random hyperplanes (same on every worker)."""
    return np.random.default_rng(seed).normal(size=(n, dim))


def _fixed_matrix(t: pa.Table, col: str) -> np.ndarray:
    arr = t.column(col).combine_chunks()
    dim = arr.type.list_size
    return np.asarray(arr.flatten(), dtype=np.float32).reshape(len(t), dim)


def _emb_matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch.column(emb_col).combine_chunks()
    if pa.types.is_fixed_size_list(col.type):
        return np.asarray(col.flatten(), dtype=np.float64).reshape(
            len(batch), col.type.list_size
        )
    flat = np.asarray(col.flatten(), dtype=np.float64)
    offsets = np.asarray(col.offsets, dtype=np.int64)
    dim = int(offsets[1] - offsets[0]) if len(offsets) > 1 else 0
    return flat.reshape(len(batch), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


# --------------------------------------------------------------------------
# SemDeDup: semantic (cluster-then-prune) deduplication
# --------------------------------------------------------------------------


def semantic_dedup(ds, centroids: np.ndarray, *, threshold: float = 0.95,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   block_rows: int = 4096):
    """SemDeDup (Abbas et al., arXiv:2303.09540): assign each embedding to its
    nearest centroid, then prune near-duplicates *within* each cluster.

    Survivor rule (deterministic, SQL-expressible): a row survives iff no
    row in the same cluster with a smaller id has cosine similarity >=
    ``threshold`` to it — i.e. each near-dup set keeps its minimum id.
    Comparison is against ALL smaller-id cluster members (not just surviving
    ones), which makes the result order-independent and exactly matches a
    ``NOT EXISTS`` anti-join oracle.

    Scale shape: the O(n²) pairwise work is confined to one cluster at a
    time — SemDeDup's whole point — so total flops are sum(n_c²) ≈ n²/k.
    Assignment is a broadcast matmul per batch (centroids are k×d, tiny);
    the only shuffle is the groupby on cluster id. Within a cluster the gram
    matrix is computed in ``block_rows``-row slabs so memory stays bounded
    for fat clusters; pick k so the expected cluster fits a worker heap
    (k ~ n/100k at 100-TB scale, per the paper's 50k-cluster config).

    Returns a Dataset of (id_col, cluster) survivors.
    """
    from clp_core_ray.functions.clustering import _assign

    cent = np.ascontiguousarray(centroids, dtype=np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        m = _emb_matrix(batch, emb_col)
        lab = _assign(m, cent) if len(batch) else np.zeros(0, np.int64)
        return batch.select([id_col, emb_col]).append_column(
            "cluster", pa.array(lab, type=pa.int64()))

    def prune(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column(id_col).combine_chunks(), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        m = _normalize(_emb_matrix(group, emb_col))[order]
        ids = ids[order]
        n = len(ids)
        dup = np.zeros(n, dtype=bool)
        # slab r0:r1 vs every row with a smaller index (cluster is id-sorted)
        for r0 in range(0, n, block_rows):
            r1 = min(r0 + block_rows, n)
            sims = m[r0:r1] @ m[:r1].T                      # (r1-r0, r1)
            local = np.arange(r0, r1)[:, None]
            sims[np.arange(r1)[None, :] >= local] = -np.inf  # keep j < i only
            dup[r0:r1] = (sims >= threshold).any(axis=1)
        keep = ~dup
        cl = group.column("cluster").combine_chunks()
        return pa.table({
            id_col: pa.array(ids[keep]),
            "cluster": pa.array(
                np.asarray(cl, dtype=np.int64)[order][keep], type=pa.int64()),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return assigned.groupby("cluster").map_groups(prune, batch_format="pyarrow")


def fuzzy_dedup(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                threshold: float = 0.5, k_shingle: int = 3,
                carry_cols: tuple[str, ...] = ()):
    """End-to-end MinHash-LSH fuzzy dedup → ``(doc_id, cluster_id)`` for
    EVERY document in the corpus (plus ``carry_cols`` passed through the
    join untouched, for downstream keep-policy scoring).

    Composition of the three scale-safe pieces: ``minhash_lsh_pairs``
    (band-bucket LSH + signature verify), ``dup_clusters_ds`` (distributed
    min-label connected components with pointer jumping), and a left join of
    the full corpus onto the cluster map — documents that never surfaced in
    a near-dup pair are their own cluster. Keep-one-per-cluster dedup is then
    ``filter(doc_id == cluster_id)``; the full map is returned so callers can
    also build redirect tables (the shape NeMo-Curator / SlimPajama-style
    fuzzy-dedup pipelines need).

    The cluster map's size is bounded by the number of documents appearing in
    at least one pair, so the final join is size-gated: broadcast under the
    auto-join cap, partitioned left-outer hash join above it.
    """
    pairs = minhash_lsh_pairs(docs_ds, id_col, text_col, threshold, k_shingle)
    clusters = dup_clusters_ds(pairs)  # materialized (doc_id, cluster_id)
    return cluster_map_join(docs_ds, clusters, id_col, carry_cols)


def cluster_map_join(docs_ds, clusters, id_col: str,
                     carry_cols: tuple[str, ...] = ()):
    """Left-join the full corpus onto a (doc_id, cluster_id) component map;
    rows absent from the map become their own cluster (singletons). The map
    is the small side by construction (only ids that surfaced in a pair), so
    the join is size-gated: broadcast under the auto-join cap, partitioned
    left-outer hash join above it. Shared tail of every end-to-end dedup
    (MinHash ``fuzzy_dedup``, SimHash ``simhash_dedup``)."""
    import ray

    from clp_core_ray.pipelines.join import (BROADCAST_BYTES_CAP,
                                             broadcast_join, estimated_bytes,
                                             hash_join)

    left = docs_ds.select_columns([id_col, *carry_cols])

    def finish(t: pa.Table) -> pa.Table:
        cid = pc.coalesce(t.column("cluster_id").cast(pa.int64()),
                          t.column(id_col).cast(pa.int64()))
        cols = {id_col: t.column(id_col).combine_chunks().cast(pa.int64()),
                "cluster_id": cid.combine_chunks()}
        for c in carry_cols:
            cols[c] = t.column(c).combine_chunks()
        return pa.table(cols)

    if estimated_bytes(clusters) <= BROADCAST_BYTES_CAP:
        # empty shuffle partitions surface as column-less blocks; drop them
        blocks = [t for t in ray.get(clusters.to_arrow_refs())
                  if t.num_columns == 2]
        if not blocks:
            blocks = [pa.table({"doc_id": pa.array([], type=pa.int64()),
                                "cluster_id": pa.array([], type=pa.int64())})]
        tab = pa.concat_tables(blocks).rename_columns(["_cdoc", "cluster_id"])
        joined = broadcast_join(left, tab, id_col, "_cdoc", ["cluster_id"])
    else:
        renamed = clusters.map_batches(
            lambda t: t.rename_columns(["_cdoc", "cluster_id"]),
            batch_format="pyarrow")
        joined = hash_join(left, renamed, id_col, "_cdoc",
                           join_type="left_outer")
    return joined.map_batches(finish, batch_format="pyarrow")


def simhash_dedup(sig_ds, *, id_col: str = "vec_id", sig_col: str = "sig",
                  max_hamming: int = 3, carry_cols: tuple[str, ...] = ()):
    """End-to-end SimHash-family dedup → ``(id, cluster_id)`` for EVERY row.

    The exact-recall counterpart of ``fuzzy_dedup``: ``hamming_ball_pairs``
    (pigeonhole multi-index over 64-bit signatures, recall 1.0 within the
    radius) → ``dup_clusters_ds`` (distributed min-label components) →
    ``cluster_map_join`` (singletons self-cluster). Input rows must already
    carry the signature column (``simhash64`` for text, ``sign_signature``
    for embeddings) so signature choice stays a caller policy."""
    pairs = hamming_ball_pairs(sig_ds, sig_col=sig_col, id_col=id_col,
                               max_hamming=max_hamming)
    pairs = pairs.map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b"]),
        batch_format="pyarrow")
    clusters = dup_clusters_ds(pairs)
    return cluster_map_join(sig_ds, clusters, id_col, carry_cols)


def fuzzy_dedup_keep_best(docs_ds, score_col: str, id_col: str = "doc_id",
                          text_col: str = "text", threshold: float = 0.5,
                          k_shingle: int = 3, num_buckets: int | None = None):
    """Quality-aware fuzzy dedup: one survivor per near-dup cluster, chosen
    by HIGHEST ``score_col`` (ties → smallest ``id_col``) instead of the
    min-id policy ``filter(doc_id == cluster_id)`` implies.

    The keep-best policy is what production curation pipelines actually run
    (keep the longest / highest-quality member, not the lowest id). Shape:
    the :func:`fuzzy_dedup` cluster map carries the score through its join,
    then a per-batch argmax partial (one row per cluster per batch) feeds a
    cluster-hash-bucketed final argmax — the shuffle moves at most one row
    per (cluster, batch), never the corpus. Returns ``(id_col, cluster_id)``
    for the surviving documents only.
    """
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = num_buckets or scaled_buckets()

    cmap = fuzzy_dedup(docs_ds, id_col, text_col, threshold, k_shingle,
                       carry_cols=(score_col,))

    def _argmax(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cl = np.asarray(t.column("cluster_id"), dtype=np.int64)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        sc = np.asarray(pc.cast(t.column(score_col).combine_chunks(),
                                pa.float64()))
        order = np.lexsort((ids, -sc, cl))  # cluster, score desc, id asc
        first = np.ones(len(cl), dtype=bool)
        clo = cl[order]
        first[1:] = clo[1:] != clo[:-1]
        sel = order[first]
        return cl[sel], ids[sel], sc[sel]

    def partial(t: pa.Table) -> pa.Table:
        cl, ids, sc = _argmax(t)
        b = ((cl.astype(np.uint64) * _SPLITMIX64) >> np.uint64(32)) \
            % np.uint64(nb)
        return pa.table({"cluster_id": cl, id_col: ids, score_col: sc,
                         "_bucket": b.astype(np.int32)})

    def final(g: pa.Table) -> pa.Table:
        cl, ids, _ = _argmax(g)
        return pa.table({id_col: ids, "cluster_id": cl})

    return (cmap.map_batches(partial, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(final, batch_format="pyarrow"))


# --------------------------------------------------------------------------
# exact duplicated-substring spans (suffix-array semantics via rolling hash)
# --------------------------------------------------------------------------
#
# "Deduplicating Training Data Makes Language Models Better" (Lee et al.,
# 2022) removes every substring of >= L tokens that appears more than once
# in the corpus, found with a suffix array. At Ray scale the equivalent
# EXACT semantics come from rolling-hash L-char windows:
#
#   stage 1  per-batch rolling hashes of every window, per-batch
#            unique+count partials -> groupby(hash).sum -> hashes with
#            global count >= min_count (the candidate set — tiny next to
#            the window stream, it is only the *duplicated* content)
#   stage 2  candidate membership redistributed either as a broadcast
#            sorted array (ray.put once, searchsorted per batch) or, above
#            the cap, as a fixed-size bloom fold — membership may
#            over-approximate freely because
#   stage 3  marked windows (and only those) ship their actual L-char text
#            into a hash-bucketed exact groupby: windows whose *string*
#            occurs >= min_count times survive.  Hash collisions and bloom
#            false positives die here, so the result is exact, never
#            approximate.
#   stage 4  per-doc gaps-and-islands merge of surviving window starts into
#            maximal [start, end) character spans (vectorized lexsort +
#            cumsum inside doc-hash buckets).
#
# Exchange cost: stage 1 ships ~16 B per input char (8 B hash + count,
# after per-batch dedup) — the same order as suffix-array construction's
# 8 B/char and the price of exactness; stages 3/4 scale with the volume of
# *duplicated* text only.

_RH_B = np.uint64(0x100000001B3)  # FNV prime; odd => invertible mod 2^64
_RH_BINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


def _rolling_window_hashes(texts: list, window: int):
    """Vectorized rolling hashes of every ``window``-char slice.

    Returns ``(h, n_win, pos)``: one uint64 hash per window across all docs
    (doc-major, position-minor), windows per doc, and each window's char
    offset within its doc. Operates on code points (UTF-32), so offsets
    match Python ``str`` indexing and SQL ``substring`` semantics.

    The hash of text[i:i+L] is sum_t c[i+t] * Binv^t, computed for ALL i in
    one pass: with prefix sums S over c[j] * Binv^(local j), the window sum
    is (S[i+L] - S[i]) * B^i — B odd makes Binv exact mod 2^64, and uint64
    wraparound IS the modulus. A final splitmix mix spreads the polynomial
    structure before bucketing.
    """
    lens = np.fromiter((len(t) if t is not None else 0 for t in texts),
                       dtype=np.int64, count=len(texts))
    total = int(lens.sum())
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), np.zeros(len(texts), np.int64), z
    joined = "".join(t or "" for t in texts)
    buf = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    buf = buf.astype(np.uint64)
    offs = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    maxlen = int(lens.max())
    bpow = np.ones(maxlen + 1, dtype=np.uint64)
    binvpow = np.ones(maxlen + 1, dtype=np.uint64)
    if maxlen:
        np.multiply.accumulate(np.full(maxlen, _RH_B), out=bpow[1:])
        np.multiply.accumulate(np.full(maxlen, _RH_BINV), out=binvpow[1:])
    local = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens)
    s = np.zeros(total + 1, dtype=np.uint64)
    np.cumsum(buf * binvpow[local], out=s[1:])

    n_win = np.maximum(lens - window + 1, 0)
    woffs = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(n_win, out=woffs[1:])
    n_tot = int(woffs[-1])
    pos = np.arange(n_tot, dtype=np.int64) - np.repeat(woffs[:-1], n_win)
    gidx = pos + np.repeat(offs[:-1], n_win)
    h = (s[gidx + window] - s[gidx]) * bpow[pos]
    # splitmix64 finalizer
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h = h ^ (h >> np.uint64(31))
    return h, n_win, pos


def _pow2_buckets(n_buckets: int | None) -> int:
    """Resolve a bucket count for mask-based (power-of-two) bucketing:
    the cluster-scaled default rounded UP to the next power of two."""
    if n_buckets is not None:
        return n_buckets
    from clp_core_ray.pipelines.windows import scaled_buckets

    return 1 << (scaled_buckets() - 1).bit_length()


def dup_spans_ds(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 window: int = 40, min_count: int = 2,
                 n_buckets: int | None = None,
                 driver_cap_bytes: int | None = None):
    """Exact duplicated-substring spans over a document Dataset.

    Returns Dataset[(id_col, span_start, span_end)] — maximal merged
    [start, end) character ranges covered by ``window``-char slices whose
    exact text occurs at >= ``min_count`` sites corpus-wide (a site is a
    (doc, position); repeats inside one doc count). Lee et al. 2022
    substring-dedup semantics; see the stage walkthrough above.
    """
    import ray

    from clp_core_ray.functions.sketch import _finalize
    from clp_core_ray.pipelines.join import (BLOOM_LOG2_BITS, BLOOM_N_HASHES,
                                             BROADCAST_BYTES_CAP,
                                             _bloom_positions, build_bloom)

    cap = BROADCAST_BYTES_CAP if driver_cap_bytes is None else driver_cap_bytes
    n_buckets = _pow2_buckets(n_buckets)

    def partial_counts(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        h, _, _ = _rolling_window_hashes(texts, window)
        uniq, cnt = np.unique(h, return_counts=True)
        # int64 bit-view: groupby keys and the bloom's _hash_col path both
        # expect signed ints; hash-range bucket instead of a full key sort —
        # the bucket fold is a vectorized np.unique, not a Ray sort of every
        # window hash
        return pa.table({
            "_hbucket": pa.array((uniq & np.uint64(
                n_buckets - 1)).astype(np.int32)),
            "win_hash": pa.array(uniq.view(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64))})

    def bucket_dups(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "win_hash" not in group.column_names:
            return pa.table({"win_hash": pa.array([], type=pa.int64())})
        hs = np.asarray(group.column("win_hash"), dtype=np.int64)
        cs = np.asarray(group.column("cnt"), dtype=np.int64)
        uniq, inv = np.unique(hs, return_inverse=True)
        tot = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tot, inv, cs)
        return pa.table({"win_hash": pa.array(uniq[tot >= min_count])})

    # the candidate set is the SMALL side (only duplicated content) —
    # materialize once so the count gate and the collect/bloom fold don't
    # re-execute the window scan
    candidates = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("_hbucket").map_groups(bucket_dups, batch_format="pyarrow")
        .materialize()
    )

    # membership for the mark stage: broadcast sorted array under the cap
    # (exact), bloom fold above it (over-approximate; stage 3 verifies)
    n_cand = candidates.count()
    use_bloom = n_cand * 8 > cap
    if use_bloom:
        bits_ref = ray.put(build_bloom(candidates, "win_hash",
                                       log2_bits=BLOOM_LOG2_BITS))
    else:
        blocks = [t for t in ray.get(candidates.to_arrow_refs())
                  if t.num_columns]
        cand = (np.sort(np.concatenate(
            [np.asarray(t.column("win_hash"), dtype=np.int64)
             for t in blocks])) if blocks else np.zeros(0, dtype=np.int64))
        bits_ref = ray.put(cand)

    mask_buckets = np.uint64(n_buckets - 1)

    def mark(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        h, n_win, pos = _rolling_window_hashes(texts, window)
        member = ray.get(bits_ref)
        if not len(h):
            hit = np.zeros(0, dtype=bool)
        elif use_bloom:
            # same key transform as build_bloom's _hash_col on the int64
            # column: bit-view then splitmix
            posn = _bloom_positions(_finalize(h), BLOOM_LOG2_BITS,
                                    BLOOM_N_HASHES)
            hit = (member[posn >> 6] >> (posn & 63).astype(np.uint64)
                   & np.uint64(1)).astype(bool).all(axis=1)
        else:
            hq = h.view(np.int64)
            idx = np.searchsorted(member, hq)
            idx_c = np.minimum(idx, max(len(member) - 1, 0))
            hit = (member[idx_c] == hq) if len(member) else np.zeros(
                len(h), dtype=bool)
        sel = np.flatnonzero(hit)
        if not len(sel):
            return pa.table({
                "_bucket": pa.array([], type=pa.int32()),
                "win": pa.array([], type=pa.string()),
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64())})
        doc_of = np.repeat(np.arange(len(texts)), n_win)
        # extract the marked windows' text in one decode: gather the code
        # points into an (n_sel, window) block, decode once, slice flat
        joined = "".join(t or "" for t in texts)
        buf = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        lens = np.fromiter((len(t) if t is not None else 0 for t in texts),
                           dtype=np.int64, count=len(texts))
        offs = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        g0 = offs[doc_of[sel]] + pos[sel]
        block = buf[g0[:, None] + np.arange(window)]
        flat = block.tobytes().decode("utf-32-le")
        wins = [flat[i * window:(i + 1) * window] for i in range(len(sel))]
        bucket = (h[sel] & mask_buckets).astype(np.int32)
        return pa.table({"_bucket": pa.array(bucket),
                         "win": pa.array(wins, type=pa.string()),
                         id_col: pa.array(ids[doc_of[sel]]),
                         "pos": pa.array(pos[sel])})

    def verify_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "pos": pa.array([], type=pa.int64())})
        counts = group.group_by("win").aggregate([("win", "count")])
        kept = counts.filter(
            pc.greater_equal(counts.column("win_count"),
                             min_count)).column("win")
        keep = pc.is_in(group.column("win"), value_set=kept.combine_chunks())
        out = group.filter(keep)
        return out.select([id_col, "pos"])

    marked = (
        ds.map_batches(mark, batch_format="pyarrow")
        .groupby("_bucket").map_groups(verify_bucket, batch_format="pyarrow")
    )

    def merge_spans(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "pos" not in group.column_names:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "span_start": pa.array([], type=pa.int64()),
                             "span_end": pa.array([], type=pa.int64())})
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        pos = np.asarray(group.column("pos"), dtype=np.int64)
        order = np.lexsort((pos, ids))
        ids, pos = ids[order], pos[order]
        # new island when the doc changes or the window starts past the
        # previous window's end (gap > window chars)
        brk = np.ones(len(ids), dtype=bool)
        if len(ids) > 1:
            brk[1:] = (ids[1:] != ids[:-1]) | (pos[1:] - pos[:-1] > window)
        gid = np.cumsum(brk) - 1
        starts = pos[brk]
        last = np.zeros(gid[-1] + 1, dtype=np.int64)
        np.maximum.at(last, gid, pos)
        return pa.table({id_col: pa.array(ids[brk]),
                         "span_start": pa.array(starts),
                         "span_end": pa.array(last + window)})

    def doc_bucket(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        b = (ids % np.int64(n_buckets)).astype(np.int32)
        return batch.append_column("_dbucket", pa.array(b))

    return (
        marked.map_batches(doc_bucket, batch_format="pyarrow")
        .groupby("_dbucket").map_groups(merge_spans, batch_format="pyarrow")
    )


def scrub_dup_spans(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    window: int = 40, min_count: int = 2,
                    n_buckets: int | None = None, spans=None):
    """The deduplicated corpus: every duplicated span cut from every doc.

    Returns Dataset[(id_col, text_col)] with each doc's duplicated spans
    removed. Divergence from Lee et al. 2022 (they keep one occurrence):
    removing ALL occurrences is order-independent — no global first-site
    tiebreak shuffle — and gives the stricter guarantee (no window of the
    output corpus below ``min_count`` sites survives from a duplicated one).

    Spans are the small side (duplicated content only): folded to per-doc
    start/end lists and auto-joined (broadcast under the cap, hash join
    above). Cutting loops only over docs that HAVE spans.
    """
    from clp_core_ray.pipelines.join import auto_join

    n_buckets = _pow2_buckets(n_buckets)
    if spans is None:
        spans = dup_spans_ds(ds, id_col=id_col, text_col=text_col,
                             window=window, min_count=min_count,
                             n_buckets=n_buckets)

    def fold(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "span_start" not in group.column_names:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "_starts": pa.array([], type=pa.list_(pa.int64())),
                "_ends": pa.array([], type=pa.list_(pa.int64()))})
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        st = np.asarray(group.column("span_start"), dtype=np.int64)
        en = np.asarray(group.column("span_end"), dtype=np.int64)
        order = np.lexsort((st, ids))
        ids, st, en = ids[order], st[order], en[order]
        brk = np.ones(len(ids), dtype=bool)
        brk[1:] = ids[1:] != ids[:-1]
        offs = np.append(np.flatnonzero(brk), len(ids)).astype(np.int32)
        return pa.table({
            id_col: pa.array(ids[brk]),
            "_starts": pa.ListArray.from_arrays(offs, pa.array(st)),
            "_ends": pa.ListArray.from_arrays(offs, pa.array(en))})

    def bucket(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        return batch.append_column(
            "_sbucket", pa.array((ids % np.int64(n_buckets)).astype(np.int32)))

    folded = (spans.map_batches(bucket, batch_format="pyarrow")
              .groupby("_sbucket").map_groups(fold, batch_format="pyarrow"))

    joined = auto_join(ds.select_columns([id_col, text_col]), folded,
                       id_col, id_col, ["_starts", "_ends"])

    def cut(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        starts = batch.column("_starts").to_pylist()
        ends = batch.column("_ends").to_pylist()
        out = []
        for t, ss, ee in zip(texts, starts, ends):
            t = t or ""
            if not ss:
                out.append(t)
                continue
            parts, prev = [], 0
            for s, e in zip(ss, ee):
                parts.append(t[prev:s])
                prev = e
            parts.append(t[prev:])
            out.append("".join(parts))
        return pa.table({id_col: batch.column(id_col),
                         text_col: pa.array(out, type=pa.string())})

    return joined.map_batches(cut, batch_format="pyarrow")


# --------------------------------------------------------------------------
# hamming-ball near-dup pairs (SimHash-family multi-index)
# --------------------------------------------------------------------------


def sign_signature(batch: pa.Table, emb_col: str = "embedding") -> pa.Array:
    """int64 sign-bit signature of an embedding column: bit j = (emb[j] > 0).

    The projection-free SimHash of an already-random-basis embedding; dims
    beyond 64 are ignored, missing dims read as 0-bits."""
    d_m = _emb_matrix(batch, emb_col)
    d = min(64, d_m.shape[1])
    bits = (d_m[:, :d] > 0).astype(np.uint64)
    packed = np.zeros(len(d_m), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(d):
            packed |= bits[:, j] << np.uint64(j)
    return pa.array(packed.view(np.int64))


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array via the byte table."""
    return _POPCOUNT8[x.view(np.uint8).reshape(len(x), 8)].sum(
        axis=1).astype(np.int64)


def hamming_ball_pairs(ds, *, sig_col: str = "sig", id_col: str = "vec_id",
                       max_hamming: int = 3, num_buckets: int | None = None):
    """EXACT ``(id_a, id_b)`` pairs whose 64-bit signatures differ in at
    most ``max_hamming`` bits — the SimHash-family near-dup join.

    Pigeonhole multi-index: the 64 bits split into ``max_hamming + 1``
    contiguous bands; a pair inside the ball cannot differ in every band,
    so exact-match banding is a GUARANTEED-superset candidate generator
    (unlike MinHash this is deterministic recall 1.0). Band rows are
    (band, band_value, id, sig) = ~28 B; candidates expand inside coarse
    hash buckets with the run-detection arithmetic the LSH stage uses, and
    the popcount verification is inline (the signature rides the band row),
    so no verify join. A final distinct pass dedupes pairs surfacing from
    several bands.

    Intended operating point is small radii (k ≤ ~8), where bands are wide
    and selective; at large k bands narrow toward uniform collision and the
    candidate volume approaches all-pairs — inherent to hamming LSH, not a
    knob. No star cap: exactness is the contract here; pathological runs
    are logged by size through the candidate count instead.
    """
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = num_buckets or scaled_buckets()
    bands = max_hamming + 1
    if bands > 64:
        raise ValueError("max_hamming must be < 64")
    bounds = np.linspace(0, 64, bands + 1).astype(np.int64)

    def explode(batch: pa.Table) -> pa.Table:
        sig = np.asarray(batch.column(sig_col), dtype=np.int64).view(np.uint64)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        n = len(sig)
        band_of = np.repeat(np.arange(bands, dtype=np.int64), n)
        sig_t = np.tile(sig, bands)
        lo = bounds[:-1][band_of].astype(np.uint64)
        width = (bounds[1:] - bounds[:-1])[band_of].astype(np.uint64)
        with np.errstate(over="ignore"):
            val = (sig_t >> lo) & ((np.uint64(1) << width) - np.uint64(1))
            mix = (val ^ (np.uint64(0x9E3779B97F4A7C15)
                          * (band_of.view(np.uint64) + np.uint64(1))))
            mix = (mix ^ (mix >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            mix = mix ^ (mix >> np.uint64(31))
        return pa.table({
            "_cb": pa.array((mix % np.uint64(nb)).astype(np.int32)),
            "band": pa.array(band_of),
            "band_hash": pa.array(val.view(np.int64)),
            id_col: pa.array(np.tile(ids, bands)),
            "sig": pa.array(sig_t.view(np.int64)),
        })

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                          "doc_b": pa.array([], type=pa.int64())})
        m = len(group)
        if m < 2:
            return empty
        band = np.asarray(group.column("band"), dtype=np.int64)
        bh = np.asarray(group.column("band_hash"), dtype=np.int64)
        doc = np.asarray(group.column(id_col), dtype=np.int64)
        sig = np.asarray(group.column("sig"), dtype=np.int64).view(np.uint64)
        order = np.lexsort((doc, bh, band))
        band, bh, doc, sig = band[order], bh[order], doc[order], sig[order]
        keep = np.ones(m, dtype=bool)
        keep[1:] = ((band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
                    | (doc[1:] != doc[:-1]))
        band, bh, doc, sig = band[keep], bh[keep], doc[keep], sig[keep]
        m = len(doc)
        new_run = np.ones(m, dtype=bool)
        new_run[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.flatnonzero(new_run)
        counts = np.diff(np.append(starts, m))
        run_of_row = np.cumsum(new_run) - 1
        pos = np.arange(m) - starts[run_of_row]
        c = counts[run_of_row] - 1 - pos  # all later rows of the run
        total = int(c.sum())
        if total == 0:
            return empty
        rep = np.repeat(np.arange(m), c)
        off = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(c)[:-1])), c)
        other = rep + 1 + off
        with np.errstate(over="ignore"):
            ham = _popcount64(sig[rep] ^ sig[other])
        ok = ham <= max_hamming
        return pa.table({"doc_a": pa.array(doc[rep][ok]),
                         "doc_b": pa.array(doc[other][ok])})

    cand = (ds.map_batches(explode, batch_format="pyarrow")
            .groupby("_cb").map_groups(per_bucket, batch_format="pyarrow"))
    out = _distinct_pairs(cand)
    return out.map_batches(
        lambda t: t.rename_columns(["id_a", "id_b"]), batch_format="pyarrow")


def _bucket_cross_pairs(group: pa.Table, cap: int = BUCKET_CAP) -> pa.Table:
    """Cross-side candidate pairs for every LSH bucket inside one coarse
    bucket — the two-corpus analogue of :func:`_bucket_pairs_vectorized`.

    Rows carry a ``side`` column (0 = left, 1 = right). One lexsort orders
    (band, band_hash, side, doc); within each (band, band_hash) run the
    left rows occupy a prefix and every left row pairs with the run's
    right rows — pure repeat/arange arithmetic, no Python per bucket.
    Duplicate (band, hash, side, doc) rows are dropped. A run whose right
    side exceeds ``cap`` pairs each left row with its first ``cap`` rights
    (LOGGED, never silent): unlike the self-join there is no transitive
    component to preserve, so the cap is an explicit recall bound on
    boilerplate-heavy buckets."""
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64())})
    m = len(group)
    if m < 2:
        return empty
    band = np.asarray(group.column("band"), dtype=np.int64)
    bh = np.asarray(group.column("band_hash"), dtype=np.uint64)
    doc = np.asarray(group.column("doc"), dtype=np.int64)
    side = np.asarray(group.column("side"), dtype=np.int8)
    order = np.lexsort((doc, side, bh, band))
    band, bh, doc, side = band[order], bh[order], doc[order], side[order]
    keep = np.ones(m, dtype=bool)
    keep[1:] = ((band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
                | (side[1:] != side[:-1]) | (doc[1:] != doc[:-1]))
    band, bh, doc, side = band[keep], bh[keep], doc[keep], side[keep]
    m = len(doc)
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, m))
    run_of_row = np.cumsum(new_run) - 1
    n_left = np.bincount(run_of_row, weights=(side == 0),
                         minlength=len(starts)).astype(np.int64)
    n_right = counts - n_left
    eff_right = np.minimum(n_right, cap)
    if (n_right > cap).any():
        _log_oversized_bucket("fuzzy-join-LSH", int(n_right.max()), cap)
    c = np.where(side == 0, eff_right[run_of_row], 0)
    total = int(c.sum())
    if total == 0:
        return empty
    rep = np.repeat(np.arange(m), c)
    off = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(c)[:-1])), c)
    right_base = (starts + n_left)[run_of_row[rep]]
    return pa.table({"doc_a": pa.array(doc[rep]),
                     "doc_b": pa.array(doc[right_base + off])})


def fuzzy_join(left_ds, right_ds, *, threshold: float = 0.5,
               id_col: str = "doc_id", text_col: str = "text",
               k_shingle: int = 3):
    """Near-duplicate JOIN between two large corpora via a shared MinHash
    band shuffle — both sides stream (neither is broadcast; contrast
    :func:`clp_core_ray.functions.curation.fuzzy_decontaminate`, the
    small-bench-side broadcast variant).

    Pipeline: per-side signature tables (kept at rest), LIGHT
    (band, band_hash, doc, side) shuffle rows (21 B — the signature never
    rides the exchange), coarse-bucket groupby with vectorized cross-pair
    expansion, global pair distinct, then signature verification (broadcast
    under the cap, two partitioned joins above it).
    Returns Dataset[(doc_a, doc_b, est_jaccard)] — doc_a from the left
    corpus, doc_b from the right, estimated Jaccard >= threshold.
    """
    import ray

    from clp_core_ray.pipelines.join import (
        BROADCAST_BYTES_CAP,
        auto_join,
        estimated_bytes,
    )

    def sig_side(ds, side_val):
        def fn(b: pa.Table) -> pa.Table:
            t = _signature_table(b, id_col, text_col, k_shingle)
            return pa.table({
                "doc": t.column(id_col),
                "sig": t.column("sig"),
                "side": pa.array(
                    np.full(len(t), side_val, dtype=np.int8)),
            })

        return ds.map_batches(fn, batch_format="pyarrow").materialize()

    sig_l = sig_side(left_ds, 0)
    sig_r = sig_side(right_ds, 1)

    n_buckets = max(64, 4 * cluster_cpus())

    def explode(b: pa.Table) -> pa.Table:
        t = _explode_bands(b.select(["doc", "sig"]), "doc")
        side = np.repeat(np.asarray(b.column("side"), dtype=np.int8),
                         N_BANDS)
        band = np.asarray(t.column("band"), dtype=np.int64).astype(np.uint64)
        bh = np.asarray(t.column("band_hash"), dtype=np.uint64)
        key = bh ^ (band * np.uint64(0x9E3779B97F4A7C15))
        return (t.append_column("side", pa.array(side))
                .append_column("_cb", pa.array(
                    (key % np.uint64(n_buckets)).astype(np.int32))))

    cands = (sig_l.union(sig_r)
             .map_batches(explode, batch_format="pyarrow")
             .groupby("_cb")
             .map_groups(_bucket_cross_pairs, batch_format="pyarrow"))
    cands = _distinct_pairs(cands)

    def _verify_tbl(t: pa.Table, sa: np.ndarray, sb: np.ndarray) -> pa.Table:
        est = (sa == sb).mean(axis=1) if len(t) else np.zeros(0)
        return pa.table({
            "doc_a": t.column("doc_a").combine_chunks().cast(pa.int64()),
            "doc_b": t.column("doc_b").combine_chunks().cast(pa.int64()),
            "est_jaccard": pa.array(est),
        }).filter(pa.array(est >= threshold))

    def _collect_sigs(sig_ds):
        blocks = [t for t in ray.get(sig_ds.to_arrow_refs()) if t.num_rows]
        if not blocks:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros((0, N_PERM), dtype=np.int64))
        stbl = pa.concat_tables(blocks)
        ids = np.asarray(stbl.column("doc"), dtype=np.int64)
        mat = np.asarray(stbl.column("sig").combine_chunks().flatten(),
                         dtype=np.int64).reshape(len(stbl), N_PERM)
        order = np.argsort(ids)
        return ids[order], mat[order]

    if (estimated_bytes(sig_l) + estimated_bytes(sig_r)
            <= BROADCAST_BYTES_CAP):
        sig_ref = ray.put((*_collect_sigs(sig_l), *_collect_sigs(sig_r)))

        def verify_broadcast(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                z = np.zeros((0, N_PERM), dtype=np.int64)
                return _verify_tbl(t, z, z)
            lids, lmat, rids, rmat = ray.get(sig_ref)
            a = np.asarray(t.column("doc_a"), dtype=np.int64)
            b = np.asarray(t.column("doc_b"), dtype=np.int64)
            return _verify_tbl(t, lmat[np.searchsorted(lids, a)],
                               rmat[np.searchsorted(rids, b)])

        return cands.map_batches(verify_broadcast, batch_format="pyarrow")

    ja = auto_join(cands, sig_l.map_batches(
        lambda t: pa.table({"_ida": t.column("doc"), "sig_a": t.column("sig")}),
        batch_format="pyarrow"), "doc_a", "_ida", ["sig_a"])
    jb = auto_join(ja, sig_r.map_batches(
        lambda t: pa.table({"_idb": t.column("doc"), "sig_b": t.column("sig")}),
        batch_format="pyarrow"), "doc_b", "_idb", ["sig_b"])

    def verify(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            z = np.zeros((0, N_PERM), dtype=np.int64)
            return _verify_tbl(pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64())}), z, z)
        sa = np.asarray(t.column("sig_a").combine_chunks().flatten(),
                        dtype=np.int64).reshape(n, N_PERM)
        sb = np.asarray(t.column("sig_b").combine_chunks().flatten(),
                        dtype=np.int64).reshape(n, N_PERM)
        return _verify_tbl(t, sa, sb)

    return jb.map_batches(verify, batch_format="pyarrow")


def keep_first_by_content(ds, *, content_col: str = "text",
                          order_cols=("doc_id",), normalize=None,
                          n_buckets: int | None = None):
    """Generic EXACT keep-first dedup over any unit table: of all rows
    sharing a content value, keep the one with the lexicographically
    smallest ``order_cols`` tuple (the unit-level generalization of
    :func:`exact_dedup_survivors` — feed it documents, exploded lines,
    or transcript turns).

    ``normalize``: optional vectorized pa.Array → pa.Array canonicalizer
    applied before comparison (e.g. lowercase + digit-run collapse =
    template-level dedup of log-like text). The ORIGINAL columns ride
    through untouched.

    Exactness without a collision caveat: rows are routed by content hash
    but the final per-bucket pass groups on the content STRING (one
    pyarrow sort, run detection on adjacent equality). Exchange = one row
    per distinct content per batch (per-batch pre-dedup), including the
    content string — the unavoidable payload of exact dedup.
    """
    from clp_core_ray.functions.text import fingerprints
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = _pow2_buckets(n_buckets or scaled_buckets())
    order_cols = list(order_cols)
    # with no normalizer the content column itself is the compare key —
    # don't ship it twice through the shuffle
    key_col = "_norm" if normalize is not None else content_col
    sort_keys = [(key_col, "ascending")] + [
        (c, "ascending") for c in order_cols]

    def _first_per_content(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        idx = pc.sort_indices(t, sort_keys=sort_keys)
        t = t.take(idx)
        col = t.column(key_col).combine_chunks()
        if t.num_rows == 1:
            return t
        neq = pc.not_equal(col.slice(1), col.slice(0, len(col) - 1))
        keep = np.ones(t.num_rows, dtype=bool)
        keep[1:] = np.asarray(pc.fill_null(neq, True))
        return t.filter(pa.array(keep))

    def partial(batch: pa.Table) -> pa.Table:
        t = batch
        if normalize is not None:
            norm = normalize(batch.column(content_col).combine_chunks())
            if isinstance(norm, pa.ChunkedArray):
                norm = norm.combine_chunks()
            t = t.append_column("_norm", norm)
        t = _first_per_content(t)
        h = np.asarray(fingerprints(t.column(key_col).combine_chunks()),
                       dtype=np.uint64)
        return t.append_column(
            "_kbucket", pa.array((h & np.uint64(nb - 1)).astype(np.int32)))

    def per_bucket(g: pa.Table) -> pa.Table:
        out = _first_per_content(g.drop_columns(["_kbucket"]))
        return (out.drop_columns(["_norm"]) if normalize is not None
                else out)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_kbucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def line_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text",
               sep: str = "\n", min_len: int = 1,
               n_buckets: int | None = None):
    """C4/RefinedWeb-style exact line-level dedup with keep-first
    semantics: split each document on ``sep``, keep only the FIRST
    (id, line_idx) site of every duplicated line corpus-wide, reassemble
    the scrubbed documents. Lines shorter than ``min_len`` characters
    (e.g. blank separators) are exempt — always kept, never deduped — so
    document structure survives.

    Returns Dataset[(id_col, text_col)] covering EVERY input document
    (a doc whose lines are all removed comes back as the empty string).
    Shuffle shape: explode → keep_first_by_content (distinct-per-batch
    exchange) → id-bucket reassembly groupby; the original docs table is
    never joined back — kept lines carry their text.
    """
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = _pow2_buckets(n_buckets or scaled_buckets())

    def explode(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        parts = pc.split_pattern(texts, sep)
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        parent = parts.value_parent_indices()
        flat = parts.flatten()
        n_per = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        line_idx = (np.arange(len(flat), dtype=np.int64)
                    - np.repeat(np.cumsum(np.concatenate(
                        ([0], n_per[:-1].astype(np.int64)))), n_per))
        ids = batch.column(id_col).combine_chunks().take(parent)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: ids,
            "line_idx": pa.array(line_idx),
            "line": flat,
            "_exempt": pa.array(lens < min_len),
        })

    units = ds.map_batches(explode, batch_format="pyarrow")
    dedupable = units.map_batches(
        lambda b: b.filter(pc.invert(b.column("_exempt"))),
        batch_format="pyarrow")
    exempt = units.map_batches(
        lambda b: b.filter(b.column("_exempt")), batch_format="pyarrow")
    winners = keep_first_by_content(
        dedupable, content_col="line", order_cols=(id_col, "line_idx"),
        n_buckets=nb)
    kept = winners.union(exempt)

    def bucket(batch: pa.Table) -> pa.Table:
        from clp_core_ray.functions.text import fingerprints as fp

        ids = batch.column(id_col).combine_chunks()
        if pa.types.is_string(ids.type) or pa.types.is_large_string(ids.type):
            h = np.asarray(fp(ids), dtype=np.uint64)
        else:
            h = np.asarray(ids, dtype=np.int64).astype(np.uint64)
            h *= np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            "_rbucket", pa.array((h & np.uint64(nb - 1)).astype(np.int32)))

    def reassemble(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["_rbucket", "_exempt"])
        idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending"),
                                            ("line_idx", "ascending")])
        t = t.take(idx)
        ids = t.column(id_col)
        n = t.num_rows
        if n == 0:
            return pa.table({id_col: ids,
                             text_col: pa.array([], type=pa.large_string())})
        same = np.zeros(n, dtype=bool)
        eq = pc.equal(ids.combine_chunks().slice(1),
                      ids.combine_chunks().slice(0, n - 1))
        same[1:] = np.asarray(pc.fill_null(eq, False))
        starts = np.flatnonzero(~same)
        # join each doc's kept lines with sep (vectorized via one
        # binary-join over list offsets)
        offs = np.append(starts, n).astype(np.int64)
        lines = t.column("line").combine_chunks().cast(pa.large_string())
        lists = pa.LargeListArray.from_arrays(pa.array(offs), lines)
        joined = pc.binary_join(
            lists, pa.scalar(sep, type=pa.large_string()))
        return pa.table({id_col: ids.take(pa.array(starts)),
                         text_col: joined})

    rebuilt = (kept.map_batches(bucket, batch_format="pyarrow")
               .groupby("_rbucket")
               .map_groups(reassemble, batch_format="pyarrow"))

    # docs that lost every line (and sep-less empty docs) must still appear
    from clp_core_ray.pipelines.join import auto_join

    base = ds.map_batches(
        lambda b: pa.table({id_col: b.column(id_col)}),
        batch_format="pyarrow")
    joined = auto_join(base, rebuilt.map_batches(
        lambda t: t.rename_columns(["_rid", "_rtext"]),
        batch_format="pyarrow"), id_col, "_rid", ["_rtext"])
    return joined.map_batches(
        lambda b: pa.table({
            id_col: b.column(id_col),
            text_col: pc.fill_null(b.column("_rtext"), ""),
        }), batch_format="pyarrow")


# --------------------------------------------------------------------------
# Edit-distance (Levenshtein) near-dup pairs — exact, length-band blocked
# --------------------------------------------------------------------------


def _levenshtein_pairs(a_list, b_list, max_dist: int) -> np.ndarray:
    """Unit-cost Levenshtein for aligned pairs, DP vectorized across the
    PAIR axis: the j-loop is sequential (cur[j-1] dependency) but every
    step is a numpy op over all pairs at once — O(Lmax²) vector steps
    regardless of pair count, never a per-pair Python DP."""
    n = len(a_list)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    la = np.fromiter((len(x) for x in a_list), dtype=np.int64, count=n)
    lb = np.fromiter((len(x) for x in b_list), dtype=np.int64, count=n)
    L = int(max(la.max(), lb.max()))
    ac = np.zeros((n, L), dtype=np.int32)
    bc = np.zeros((n, L), dtype=np.int32)
    for i, x in enumerate(a_list):
        ac[i, :len(x)] = np.frombuffer(x.encode("utf-32-le"),
                                       dtype=np.uint32)[:len(x)]
    for i, x in enumerate(b_list):
        bc[i, :len(x)] = np.frombuffer(x.encode("utf-32-le"),
                                       dtype=np.uint32)[:len(x)]
    out = np.empty(n, dtype=np.int64)
    prev = np.tile(np.arange(L + 1, dtype=np.int32), (n, 1))
    done = la == 0
    out[done] = lb[done]
    for i in range(1, L + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = ac[:, i - 1:i]
        for j in range(1, L + 1):
            cost = (ai[:, 0] != bc[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1),
                                   prev[:, j - 1] + cost)
        hit = la == i
        if hit.any():
            out[hit] = cur[hit, lb[hit]]
        prev = cur
    return out


def edit_distance_pairs(ds, *, text_col: str = "text",
                        max_dist: int = 2):
    """All DISTINCT string pairs within edit distance ``max_dist`` — the
    record-linkage primitive (typo-level near-identical names/templates).

    Exact, via lossless length-band blocking: |len(a)−len(b)| ≤ k forces
    band(a) = band(b) or band(b)+1 for band = len // (k+1), so each
    distinct string is emitted to its native band and band+1 and every
    qualifying pair co-occurs in exactly the higher native band (pairs
    where both members are replicas are skipped — that pair already met
    one band lower). Distinct-string reduction is a count_by exchange;
    in-band verification is the pair-axis-vectorized DP above. Within a
    band the candidate set is all pairs of distinct strings whose length
    band matches — quadratic in the band's DISTINCT-string count (the
    honest cost of exact edit distance; MinHash/SimHash are the
    approximate scale paths, reference parity: this is a new capability).
    """
    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import count_by

    k = max_dist
    distinct = count_by(ds, text_col).select_columns([text_col])

    def emit(batch: pa.Table) -> pa.Table:
        s = batch.column(text_col)
        ln = np.asarray(pc.utf8_length(s), dtype=np.int64)
        band = ln // (k + 1)
        native = pa.table({"_band": pa.array(band), text_col: s,
                           "_native": pa.array(np.ones(len(ln), dtype=bool))})
        repl = pa.table({"_band": pa.array(band + 1), text_col: s,
                         "_native": pa.array(np.zeros(len(ln), dtype=bool))})
        return pa.concat_tables([native, repl])

    def band_pairs(g: pa.Table) -> pa.Table:
        names = g.column(text_col).to_pylist()
        nat = np.asarray(g.column("_native"), dtype=bool)
        order = np.argsort(np.asarray(
            pa.array(names).cast(pa.string())))  # deterministic
        names = [names[i] for i in order]
        nat = nat[order]
        n = len(names)
        if n < 2:
            return pa.table({"name_a": pa.array([], type=pa.string()),
                             "name_b": pa.array([], type=pa.string()),
                             "dist": pa.array([], type=pa.int64())})
        iu, ju = np.triu_indices(n, 1)
        keep = nat[iu] | nat[ju]  # both-replica pairs met one band lower
        ln = np.fromiter((len(x) for x in names), dtype=np.int64, count=n)
        keep &= np.abs(ln[iu] - ln[ju]) <= k
        iu, ju = iu[keep], ju[keep]
        d = _levenshtein_pairs([names[i] for i in iu],
                               [names[j] for j in ju], k)
        hit = d <= k
        return pa.table({"name_a": pa.array([names[i] for i in iu[hit]]),
                         "name_b": pa.array([names[j] for j in ju[hit]]),
                         "dist": pa.array(d[hit])})

    return (distinct.map_batches(emit, batch_format="pyarrow")
            .groupby("_band")
            .map_groups(band_pairs, batch_format="pyarrow"))


def _jaro_winkler_matrix(sa: list, sb: list) -> np.ndarray:
    """Jaro-Winkler similarity for aligned string pair lists, vectorized
    across the PAIR axis (DuckDB semantics, pinned empirically: p = 0.1,
    prefix ≤ 4, Winkler boost only when jaro > 0.7). O(L²) vectorized
    steps regardless of pair count — the edit-distance DP's discipline."""
    n = len(sa)
    if n == 0:
        return np.zeros(0)
    # DuckDB's jaro_winkler_similarity operates on raw UTF-8 BYTES (a
    # non-BMP char counts as 4 lattice cells), verified empirically — so
    # the lattice holds utf-8 bytes, not code points. Cells are uint16
    # padded with 256 (outside the byte range, since U+0000 legitimately
    # encodes as byte 0).
    ea = [x.encode("utf-8") for x in sa]
    eb = [x.encode("utf-8") for x in sb]
    la = np.array([len(x) for x in ea], dtype=np.int64)
    lb = np.array([len(x) for x in eb], dtype=np.int64)
    L = max(int(la.max(initial=1)), int(lb.max(initial=1)))
    A = np.full((n, L), 256, dtype=np.uint16)
    B = np.full((n, L), 256, dtype=np.uint16)
    for i, x in enumerate(ea):
        if x:
            A[i, :len(x)] = np.frombuffer(x, dtype=np.uint8)
    for i, x in enumerate(eb):
        if x:
            B[i, :len(x)] = np.frombuffer(x, dtype=np.uint8)
    win = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    usedB = np.zeros((n, L), dtype=bool)
    matchA = np.zeros((n, L), dtype=bool)
    for i in range(L):
        found = np.zeros(n, dtype=bool)
        active = i < la
        for j in range(L):
            ok = (active & ~found & ~usedB[:, j] & (j < lb)
                  & (j >= i - win) & (j <= i + win)
                  & (A[:, i] == B[:, j]) & (A[:, i] != 256))
            usedB[:, j] |= ok
            found |= ok
        matchA[:, i] = found
    m = matchA.sum(axis=1).astype(np.float64)
    # gather matched chars in order on both sides via cumsum scatter
    seqA = np.full((n, L), 256, dtype=np.uint16)
    seqB = np.full((n, L), 256, dtype=np.uint16)
    ia = np.cumsum(matchA, axis=1) - 1
    ib = np.cumsum(usedB, axis=1) - 1
    rows, cols = np.nonzero(matchA)
    seqA[rows, ia[rows, cols]] = A[rows, cols]
    rows, cols = np.nonzero(usedB)
    seqB[rows, ib[rows, cols]] = B[rows, cols]
    # classic strcmp95 semantics (DuckDB follows it): FULL transposition
    # count halved with INTEGER division — an odd mismatch count floors
    t = (((seqA != seqB) & (seqA != 256)).sum(axis=1) // 2).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = np.where(
            m > 0,
            (m / la + m / lb + (m - t) / np.maximum(m, 1)) / 3.0, 0.0)
    pref = np.zeros(n, dtype=np.int64)
    same = np.ones(n, dtype=bool)
    for i in range(min(4, L)):
        same &= (i < la) & (i < lb) & (A[:, i] == B[:, i])
        pref += same
    return np.where(jaro > 0.7, jaro + pref * 0.1 * (1.0 - jaro), jaro)


def jaro_winkler_pairs(ds, *, text_col: str = "text",
                       threshold: float = 0.9):
    """All DISTINCT string pairs with Jaro-Winkler similarity ≥
    ``threshold`` — the fuzzy record-linkage sibling of
    ``edit_distance_pairs``. JW admits no lossless blocking key
    (transposed prefixes can still score high), so this is the EXACT
    all-pairs variant over the DISTINCT value set — dictionary-sized
    inputs (names, templates), quadratic in distinct count, honestly
    labeled; MinHash/SimHash remain the approximate scale paths. The
    distinct reduction is one count_by exchange; scoring is the
    pair-axis-vectorized kernel above."""
    from clp_core_ray.pipelines.aggregate import count_by

    distinct = count_by(ds, text_col).select_columns([text_col])

    def all_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"name_a": pa.array([], type=pa.string()),
                          "name_b": pa.array([], type=pa.string()),
                          "jw": pa.array([], type=pa.float64())})
        if g.num_rows < 2 or text_col not in g.column_names:
            return empty
        names = sorted(set(g.column(text_col).to_pylist()))
        n = len(names)
        ia, ib = np.triu_indices(n, k=1)
        sa = [names[i] for i in ia]
        sb = [names[i] for i in ib]
        jw = _jaro_winkler_matrix(sa, sb)
        keep = jw >= threshold
        from clp_core_ray.pipelines.aggregate import sql_round

        return pa.table({
            "name_a": pa.array([sa[i] for i in np.flatnonzero(keep)]),
            "name_b": pa.array([sb[i] for i in np.flatnonzero(keep)]),
            "jw": pa.array(sql_round(jw[keep], 6))})

    one = distinct.map_batches(
        lambda b: b.append_column("_g", pa.array(
            np.zeros(b.num_rows, dtype=np.int32))),
        batch_format="pyarrow")
    return one.groupby("_g").map_groups(all_pairs, batch_format="pyarrow")
