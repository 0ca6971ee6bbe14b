"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (ray.put once, read per actor), per-batch partial
top-k, merged on the driver (candidates are k per query per batch — tiny).

Scale path: IVF — a kmeans codebook trained on a sample, rows bucketed by
nearest centroid, queries probe only the nearest `n_probe` buckets so most
batches are filtered before the matmul.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray.functions.dedup import _emb_matrix, _normalize
from clp_core_ray.state.atomic import inprogress_path


def _collect_normalized(ds, id_col: str, emb_col: str):
    """Driver-side collect of the full normalized matrix — demo-scale only
    (used by knn_label_vote; the scale paths are topk_cosine / _ivf and
    dedup.embedding_dup_pairs' block self-join)."""
    import numpy as np
    import pyarrow as pa

    mats, ids = [], []
    for b in ds.iter_batches(batch_format="pyarrow"):
        t = pa.table(b)
        mats.append(_emb_matrix(t, emb_col))
        ids.append(np.asarray(t.column(id_col), dtype=np.int64))
    mat = _normalize(np.concatenate(mats)) if mats else np.zeros((0, 0))
    return mat, (np.concatenate(ids) if ids else np.zeros(0, np.int64))


def topk_cosine(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                id_col: str = "vec_id", emb_col: str = "embedding",
                exclude_self: bool = True):
    """Brute-force exact top-k: returns pa.Table(query_id, neighbor_id, rank).

    Ties broken by neighbor_id ascending (deterministic).
    """
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    ref = ray.put((q, np.asarray(query_ids, dtype=np.int64)))

    class PartialTopK:
        # stateless task instance: the query matrix rides a plasma ref and
        # is resolved lazily per task (zero-copy), so the stage fuses with
        # the upstream read rather than paying an actor pool's block hop
        def __init__(self):
            self.q = None
            self.qids = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.q is None:
                self.q, self.qids = ray.get(ref)
            e = _normalize(_emb_matrix(batch, emb_col))
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            scores = self.q @ e.T  # (n_q, n_batch)
            if exclude_self:
                mask = self.qids[:, None] == ids[None, :]
                scores[mask] = -np.inf
            kk = min(k, scores.shape[1])
            part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
            nq = len(self.qids)
            return pa.table(
                {
                    "query_id": pa.array(np.repeat(self.qids, kk)),
                    "neighbor_id": pa.array(ids[part].reshape(-1)),
                    "score": pa.array(
                        np.take_along_axis(scores, part, axis=1).reshape(-1)
                    ),
                }
            )

    parts = ds.map_batches(PartialTopK(), batch_format="pyarrow")
    cand = pa.concat_tables(
        pa.table(b) for b in parts.iter_batches(batch_format="pyarrow")
    )
    # final exact top-k per query on the tiny candidate set
    return _merge_topk(cand, k)


def train_ivf_centroids(sample: np.ndarray, n_centroids: int = 16,
                        n_iter: int = 10, seed: int = 11) -> np.ndarray:
    """Tiny deterministic k-means (driver-side, on a sample)."""
    rng = np.random.default_rng(seed)
    x = _normalize(np.asarray(sample, dtype=np.float64))
    c = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(n_iter):
        assign = (x @ c.T).argmax(axis=1)
        for j in range(len(c)):
            m = assign == j
            if m.any():
                v = x[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    c[j] = v / n
    return c


def topk_cosine_ivf(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    n_centroids: int = 16, n_probe: int = 4,
                    sample_rows: int = 4096, exclude_self: bool = True):
    """IVF-bucketed approximate top-k (the 100-TB shape).

    Rows are assigned to their nearest centroid inside map_batches; only rows
    whose centroid is among any query's `n_probe` nearest participate in the
    matmul. Recall < 1.0 by construction; verified ≥0.9 vs brute force in
    tests at these defaults.
    """
    import ray

    # train centroids on a RANDOM sample, not the first blocks — limit()
    # would see only the head of the dataset and skew centroids on sorted
    # or sharded-by-source inputs. count() is parquet-metadata-cheap.
    cents = train_ivf_centroids(
        _sample_matrix(ds, emb_col, sample_rows), n_centroids
    )
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]
    probe_set = np.unique(probes)
    ref = ray.put((q, np.asarray(query_ids, dtype=np.int64), cents, probe_set))

    class ProbedTopK:
        # stateless task instance (same lazy-plasma pattern as PartialTopK)
        def __init__(self):
            self.q = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.q is None:
                self.q, self.qids, self.cents, self.probe_set = ray.get(ref)
            e = _normalize(_emb_matrix(batch, emb_col))
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            assign = (e @ self.cents.T).argmax(axis=1)
            m = np.isin(assign, self.probe_set)
            if not m.any():
                return pa.table(
                    {"query_id": pa.array([], type=pa.int64()),
                     "neighbor_id": pa.array([], type=pa.int64()),
                     "score": pa.array([], type=pa.float64())}
                )
            e, ids = e[m], ids[m]
            scores = self.q @ e.T
            if exclude_self:
                scores[self.qids[:, None] == ids[None, :]] = -np.inf
            kk = min(k, scores.shape[1])
            part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
            return pa.table(
                {"query_id": pa.array(np.repeat(self.qids, kk)),
                 "neighbor_id": pa.array(ids[part].reshape(-1)),
                 "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1))}
            )

    parts = ds.map_batches(ProbedTopK(), batch_format="pyarrow")
    cand = pa.concat_tables(
        pa.table(b) for b in parts.iter_batches(batch_format="pyarrow")
    )
    if len(cand) == 0:
        return pa.table(
            {"query_id": pa.array([], type=pa.int64()),
             "neighbor_id": pa.array([], type=pa.int64()),
             "rank": pa.array([], type=pa.int64())}
        )
    return _merge_topk(cand, k)


def _merge_topk(cand: pa.Table, k: int) -> pa.Table:
    """Exact top-k per query over the candidate set: rank by score desc,
    ties by neighbor_id asc (deterministic across partitionings)."""
    qid = np.asarray(cand.column("query_id"), dtype=np.int64)
    nid = np.asarray(cand.column("neighbor_id"), dtype=np.int64)
    sc = np.asarray(cand.column("score"), dtype=np.float64)
    order = np.lexsort((nid, -sc, qid))
    qs, ns = qid[order], nid[order]
    new_q = np.ones(len(qs), dtype=bool)
    new_q[1:] = qs[1:] != qs[:-1]
    grp_start = np.flatnonzero(new_q)
    rank = np.arange(len(qs)) - np.repeat(grp_start, np.diff(np.append(grp_start, len(qs))))
    keep = rank < k
    return pa.table(
        {"query_id": pa.array(qs[keep]),
         "neighbor_id": pa.array(ns[keep]),
         "rank": pa.array((rank[keep] + 1).astype(np.int64))}
    )


def _sample_matrix(ds, emb_col: str, sample_rows: int, seed: int = 11) -> np.ndarray:
    """Random-sample up to ``sample_rows`` embeddings (head-skew-free)."""
    n_total = ds.count() or 1
    frac = min(1.0, (2.0 * sample_rows) / n_total)
    sample_ds = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    return _emb_matrix(
        pa.concat_tables(
            pa.table(b)
            for b in sample_ds.limit(sample_rows).iter_batches(batch_format="pyarrow")
        ),
        emb_col,
    )


def _cells_root(index_dir: str) -> str:
    """Active cells directory: the ``CURRENT`` pointer names the live
    generation (written atomically by compaction); absent → ``cells``,
    the build-time default. The pointer file is what makes compaction a
    single-commit-point operation readers can never observe half-done."""
    import os

    cur = os.path.join(index_dir, "CURRENT")
    if os.path.isfile(cur):
        with open(cur) as f:
            return os.path.join(index_dir, f.read().strip())
    return os.path.join(index_dir, "cells")


def build_ivf_index(ds, index_dir: str, n_centroids: int = 16,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    sample_rows: int = 4096, seed: int = 11) -> np.ndarray:
    """Write an IVF index *at rest*: rows bucketed by nearest centroid into
    hive-partitioned parquet (``cells/ivf_cell=N/``), centroids alongside.

    This is the 100-TB ANN shape the in-flight ``topk_cosine_ivf`` lacks:
    there every batch is still scanned to assign centroids per query run;
    here assignment happens once at build time and a probe reads ONLY the
    probed cells' partitions off storage (IVF coarse quantizer role,
    cf. reference's archive partition pruning at clg.cpp:249-298).
    Returns the centroid matrix.
    """
    import ray

    cents = train_ivf_centroids(
        _sample_matrix(ds, emb_col, sample_rows, seed), n_centroids, seed=seed
    )
    ref = ray.put(cents)

    def assign_cell(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        e = _normalize(_emb_matrix(batch, emb_col))
        cell = (e @ c.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("ivf_cell", pa.array(cell))

    ds.map_batches(assign_cell, batch_format="pyarrow").write_parquet(
        _cells_root(index_dir), partition_cols=["ivf_cell"],
        compression="zstd"
    )
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"cell": pa.array(range(len(cents)), type=pa.int64()),
                  "centroid": pa.FixedSizeListArray.from_arrays(
                      pa.array(cents.reshape(-1)), cents.shape[1])}),
        f"{index_dir}/centroids.parquet",
    )
    return cents


def ivf_index_append(index_dir: str, ds, id_col: str = "vec_id",
                     emb_col: str = "embedding") -> int:
    """Append new vectors to an existing at-rest IVF index WITHOUT rebuild.

    New rows are assigned to the FROZEN centroids and written as additional
    parquet parts inside the cells' hive directories — purely additive, so
    it composes with object-store immutability and concurrent probes (the
    same new-archives-not-rewrites discipline as `pipelines/incremental`).
    Centroids drift from optimal as the distribution shifts; recall, not
    correctness, degrades — rebuild is a compaction decision. Returns the
    number of appended rows."""
    import pyarrow.parquet as pq
    import ray

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)
    ref = ray.put(cents)

    def assign_cell(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        e = _normalize(_emb_matrix(batch, emb_col))
        cell = (e @ c.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("ivf_cell", pa.array(cell))

    assigned = ds.map_batches(assign_cell, batch_format="pyarrow")
    n = assigned.count()
    assigned.write_parquet(_cells_root(index_dir),
                           partition_cols=["ivf_cell"], compression="zstd")
    return n


def ivf_index_delete(index_dir: str, ids) -> None:
    """Tombstone vector ids: appended (never rewritten) under
    ``tombstones/``; probes drop tombstoned rows before scoring. Dead rows
    occupy cell files until ``ivf_index_compact``. File name is the HASH
    of the id set (tmp → os.replace), so a retried delete overwrites its
    own file instead of appending a duplicate — the repo-wide sink
    discipline."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    d = os.path.join(index_dir, "tombstones")
    os.makedirs(d, exist_ok=True)
    a = np.sort(np.asarray(list(ids), dtype=np.int64))
    name = f"dead-{hashlib.sha1(a.tobytes()).hexdigest()[:20]}.parquet"
    tmp = inprogress_path(os.path.join(d, name))
    pq.write_table(pa.table({"vec_id": pa.array(a)}), tmp)
    os.replace(tmp, os.path.join(d, name))


def _load_tombstones(index_dir: str) -> "pa.Array | None":
    import os

    import pyarrow.parquet as pq

    d = os.path.join(index_dir, "tombstones")
    if not os.path.isdir(d):
        return None
    tabs = [pq.read_table(os.path.join(d, f))
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    if not tabs:
        return None
    return pa.concat_tables(tabs).column("vec_id").combine_chunks()


def ivf_index_topk(index_dir: str, queries: np.ndarray, query_ids: np.ndarray,
                   k: int = 10, n_probe: int = 4, id_col: str = "vec_id",
                   emb_col: str = "embedding", exclude_self: bool = True):
    """Probe an at-rest IVF index: only partitions for the union of the
    queries' ``n_probe`` nearest cells are read (partition-pruned at the
    parquet fragment level), then brute-force cosine within them.

    With ``n_probe >= n_centroids`` this reads everything and is exact —
    equal to ``topk_cosine`` output — which is how it is oracled.
    """
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)

    q = _normalize(np.asarray(queries, dtype=np.float64))
    n_probe = min(n_probe, len(cents))
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]
    probe_set = [int(c) for c in np.unique(probes)]

    # partition pruning by construction: only the probed cells' hive dirs
    # are handed to the reader, so unprobed partitions never leave storage
    import os

    paths = [os.path.join(p, f)
             for c in probe_set
             if os.path.isdir(
                 p := os.path.join(_cells_root(index_dir), f"ivf_cell={c}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not paths:
        return pa.table(
            {"query_id": pa.array([], type=pa.int64()),
             "neighbor_id": pa.array([], type=pa.int64()),
             "rank": pa.array([], type=pa.int64())}
        )
    cells_ds = rd.read_parquet(paths, columns=[id_col, emb_col])
    dead = _load_tombstones(index_dir)
    dead_ref = ray.put(dead) if dead is not None else None
    ref = ray.put((q, np.asarray(query_ids, dtype=np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        if dead_ref is not None:
            batch = batch.filter(pc.is_null(pc.index_in(
                batch.column(id_col).combine_chunks().cast(pa.int64()),
                ray.get(dead_ref))))
        if batch.num_rows == 0:
            return pa.table(
                {"query_id": pa.array([], type=pa.int64()),
                 "neighbor_id": pa.array([], type=pa.int64()),
                 "score": pa.array([], type=pa.float64())})
        qm, qids = ray.get(ref)
        e = _normalize(_emb_matrix(batch, emb_col))
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        scores = qm @ e.T
        if exclude_self:
            scores[qids[:, None] == ids[None, :]] = -np.inf
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table(
            {"query_id": pa.array(np.repeat(qids, kk)),
             "neighbor_id": pa.array(ids[part].reshape(-1)),
             "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1))}
        )

    cand = pa.concat_tables(
        pa.table(b)
        for b in cells_ds.map_batches(score, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    if len(cand) == 0:
        return pa.table(
            {"query_id": pa.array([], type=pa.int64()),
             "neighbor_id": pa.array([], type=pa.int64()),
             "rank": pa.array([], type=pa.int64())}
        )
    return _merge_topk(cand, k)


def _majority_vote(qid: np.ndarray, nlab: np.ndarray, id_col: str) -> pa.Table:
    """(query, neighbor-label) rows → majority label per query (one numpy
    grouped-count pass; count ties break to the smaller label)."""
    o = np.lexsort((nlab, qid))
    q, l = qid[o], nlab[o]
    new_run = np.ones(len(q), dtype=bool)
    new_run[1:] = (q[1:] != q[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, len(q)))
    rq, rl = q[starts], l[starts]
    o2 = np.lexsort((rl, -counts, rq))
    rq, rl = rq[o2], rl[o2]
    first = np.ones(len(rq), dtype=bool)
    first[1:] = rq[1:] != rq[:-1]
    return pa.table(
        {id_col: pa.array(rq[first], type=pa.int64()),
         "label_pred": pa.array(rl[first].astype(np.int32), type=pa.int32())}
    )


def knn_label_vote_ds(ds, k: int = 5, id_col: str = "vec_id",
                      emb_col: str = "embedding", label_col: str = "label"):
    """Distributed kNN label vote — every row is a query; nothing lands on
    the driver but the final (id, label) table.

    Same block self-join shape as :func:`dedup.embedding_dup_pairs`: the
    normalized blocks (with labels) stay in the object store; one raw task
    per (query block, data block) emits per-query partial top-k candidates
    with the neighbors' labels attached, and one reduce task per query block
    merges its candidates to exact top-k and votes. Candidate volume per
    reduce = k x n_blocks per query — bounded, never the matrix.
    """
    import ray
    import ray.data as rd

    def prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            label_col: batch.column(label_col).combine_chunks().cast(pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
        })

    blocks = ds.map_batches(prep, batch_format="pyarrow").materialize() \
        .to_arrow_refs()

    from clp_core_ray.functions.dedup import _fixed_matrix

    @ray.remote
    def pair(ta: pa.Table, tb: pa.Table) -> pa.Table:
        ma = _fixed_matrix(ta, "nemb")
        mb = _fixed_matrix(tb, "nemb")
        ia = np.asarray(ta.column(id_col), dtype=np.int64)
        ib = np.asarray(tb.column(id_col), dtype=np.int64)
        lb = np.asarray(tb.column(label_col), dtype=np.int64)
        scores = (ma @ mb.T).astype(np.float64)
        scores[ia[:, None] == ib[None, :]] = -np.inf  # exclude self
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table({
            "query_id": pa.array(np.repeat(ia, kk)),
            "neighbor_id": pa.array(ib[part].reshape(-1)),
            "neighbor_label": pa.array(lb[part].reshape(-1)),
            "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1)),
        })

    @ray.remote
    def reduce_votes(*cands) -> pa.Table:
        cand = pa.concat_tables(cands)
        top = _merge_topk(cand.select(["query_id", "neighbor_id", "score"]), k)
        # resolve the kept neighbors' labels from the candidate rows
        cn = np.asarray(cand.column("neighbor_id"), dtype=np.int64)
        cl = np.asarray(cand.column("neighbor_label"), dtype=np.int64)
        order = np.argsort(cn, kind="stable")
        cn, cl = cn[order], cl[order]
        nid = np.asarray(top.column("neighbor_id"), dtype=np.int64)
        nlab = cl[np.searchsorted(cn, nid)]
        qid = np.asarray(top.column("query_id"), dtype=np.int64)
        return _majority_vote(qid, nlab, id_col)

    nb = len(blocks)
    refs = [
        reduce_votes.remote(*[pair.remote(blocks[i], blocks[j])
                              for j in range(nb)])
        for i in range(nb)
    ]
    return rd.from_arrow(pa.concat_tables(ray.get(refs)))


def knn_label_vote_ivf(ds, index_dir: str, k: int = 5, n_probe: int = 4,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       label_col: str = "label"):
    """kNN label vote with candidates routed through the at-rest IVF index —
    the scale path for :func:`knn_label_vote_ds`'s exact O(blocks²)
    self-join.

    Each query block computes its queries' ``n_probe`` nearest cells once;
    one raw task per (query block, probed cell) scores ONLY the probing
    subset of the block against that cell's partition, so total matmul work
    is ~n·n_probe/n_cells of the exact join's n². The cell partitions carry
    the label column from index build time (build_ivf_index passes all input
    columns through), so votes need no extra join. Exact — identical to
    ``knn_label_vote_ds`` — when ``n_probe >= n_cells`` (every cell read);
    partial probes trade recall for the pruning (bounded in pytest).
    """
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from clp_core_ray.functions.dedup import _fixed_matrix

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)
    n_probe = min(n_probe, len(cents))

    def prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        probes = (np.argsort(-(m @ cents.T), axis=1)[:, :n_probe]
                  .astype(np.int32) if m.size else
                  np.zeros((0, n_probe), dtype=np.int32))
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
            "probes": pa.FixedSizeListArray.from_arrays(
                pa.array(probes.reshape(-1)), n_probe),
        })

    qblocks = ds.map_batches(prep, batch_format="pyarrow").materialize() \
        .to_arrow_refs()

    @ray.remote
    def load_cell(paths: list) -> pa.Table:
        import pyarrow.parquet as _pq

        t = pa.concat_tables(
            _pq.read_table(p, columns=[id_col, emb_col, label_col])
            for p in paths)
        m = _normalize(_emb_matrix(t, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        return pa.table({
            id_col: t.column(id_col).combine_chunks().cast(pa.int64()),
            label_col: t.column(label_col).combine_chunks().cast(pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
        })

    cell_refs = {}
    for c in range(len(cents)):
        p = os.path.join(_cells_root(index_dir), f"ivf_cell={c}")
        if os.path.isdir(p):
            paths = [os.path.join(p, f) for f in sorted(os.listdir(p))
                     if f.endswith(".parquet")]
            if paths:
                cell_refs[c] = load_cell.remote(paths)

    def _empty_cand() -> pa.Table:
        return pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "neighbor_id": pa.array([], type=pa.int64()),
            "neighbor_label": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64())})

    @ray.remote
    def pair(qt: pa.Table, cellt: pa.Table, cell_id: int) -> pa.Table:
        probes = np.asarray(
            qt.column("probes").combine_chunks().flatten(), dtype=np.int64
        ).reshape(len(qt), -1)
        sub = np.flatnonzero((probes == cell_id).any(axis=1))
        if not len(sub) or not len(cellt):
            return _empty_cand()
        ma = _fixed_matrix(qt, "nemb")[sub]
        ia = np.asarray(qt.column(id_col), dtype=np.int64)[sub]
        mb = _fixed_matrix(cellt, "nemb")
        ib = np.asarray(cellt.column(id_col), dtype=np.int64)
        lb = np.asarray(cellt.column(label_col), dtype=np.int64)
        scores = (ma @ mb.T).astype(np.float64)
        scores[ia[:, None] == ib[None, :]] = -np.inf  # exclude self
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table({
            "query_id": pa.array(np.repeat(ia, kk)),
            "neighbor_id": pa.array(ib[part].reshape(-1)),
            "neighbor_label": pa.array(lb[part].reshape(-1)),
            "score": pa.array(
                np.take_along_axis(scores, part, axis=1).reshape(-1)),
        })

    @ray.remote
    def reduce_votes(*cands) -> pa.Table:
        cand = pa.concat_tables(cands)
        if len(cand) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "label_pred": pa.array([], type=pa.int32())})
        top = _merge_topk(cand.select(["query_id", "neighbor_id", "score"]), k)
        cn = np.asarray(cand.column("neighbor_id"), dtype=np.int64)
        cl = np.asarray(cand.column("neighbor_label"), dtype=np.int64)
        order = np.argsort(cn, kind="stable")
        cn, cl = cn[order], cl[order]
        nid = np.asarray(top.column("neighbor_id"), dtype=np.int64)
        nlab = cl[np.searchsorted(cn, nid)]
        qid = np.asarray(top.column("query_id"), dtype=np.int64)
        return _majority_vote(qid, nlab, id_col)

    refs = [
        reduce_votes.remote(*[pair.remote(qb, cr, c)
                              for c, cr in cell_refs.items()])
        for qb in qblocks
    ]
    return rd.from_arrow(pa.concat_tables(ray.get(refs)))


def knn_label_vote(ds, k: int = 5, id_col: str = "vec_id",
                   emb_col: str = "embedding", label_col: str = "label"):
    """Predict each row's label by majority over its k nearest neighbors.

    Driver-side reference implementation (collects the matrix) kept as the
    oracle for :func:`knn_label_vote_ds`, the distributed block-self-join
    path that never materializes the matrix on the driver.
    """
    lab_parts = [
        pa.table(b) for b in
        ds.select_columns([id_col, label_col]).iter_batches(batch_format="pyarrow")
    ]
    lab = pa.concat_tables(lab_parts)
    lab_ids = np.asarray(lab.column(id_col), dtype=np.int64)
    lab_vals = np.asarray(lab.column(label_col), dtype=np.int64)
    order = np.argsort(lab_ids)
    lab_ids, lab_vals = lab_ids[order], lab_vals[order]

    mat, ids = _collect_normalized(ds, id_col, emb_col)
    topk = topk_cosine(ds, mat, ids, k=k, id_col=id_col, emb_col=emb_col)
    qid = np.asarray(topk.column("query_id"), dtype=np.int64)
    nid = np.asarray(topk.column("neighbor_id"), dtype=np.int64)
    nlab = lab_vals[np.searchsorted(lab_ids, nid)]
    return _majority_vote(qid, nlab, id_col)


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the compressed-scan ANN path.
#
# IVF (above) prunes WHICH rows are read; PQ shrinks WHAT is read per row:
# each normalized vector is split into `m` subspaces and every subvector is
# replaced by the id of its nearest per-subspace codebook entry, so a
# d-dim float32 vector (4*d bytes) becomes m uint8 codes (m bytes — 32x
# smaller at d=64, m=8). Queries scan only the code table using asymmetric
# distance (ADC): one (m, n_codes) lookup table of exact dot-product
# contributions per query, one gather+sum per row. At 100 TB the code table
# is what streams through the object store; the raw embeddings are read
# only to build the index. Approximate by construction (recall bounded in
# tests); pair with the IVF partitioning above for probe-then-scan.
# (No reference analogue — new LLM-pipeline operator; the at-rest layout
# mirrors build_ivf_index's parquet index shape.)
# ---------------------------------------------------------------------------


def train_pq(sample: np.ndarray, m: int = 8, n_codes: int = 16,
             n_iter: int = 10, seed: int = 11) -> np.ndarray:
    """Per-subspace k-means codebooks, shape (m, n_codes, d//m).

    Deterministic: seeded init, fixed iteration count. Trained on
    normalized vectors (cosine scoring downstream). d must divide by m.
    """
    x = _normalize(np.asarray(sample, dtype=np.float64))
    d = x.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, n_codes, dsub))
    for s in range(m):
        xs = x[:, s * dsub:(s + 1) * dsub]
        c = xs[rng.choice(len(xs), size=min(n_codes, len(xs)), replace=False)]
        for _ in range(n_iter):
            # argmin ||x-c||^2 == argmax (x.c - ||c||^2/2)
            assign = (xs @ c.T - 0.5 * (c * c).sum(axis=1)).argmax(axis=1)
            for j in range(len(c)):
                sel = assign == j
                if sel.any():
                    c[j] = xs[sel].mean(axis=0)
        if len(c) < n_codes:  # tiny sample: pad by repeating entries
            c = np.concatenate([c, c[np.zeros(n_codes - len(c), np.int64)]])
        books[s] = c
    return books


def encode_pq(x_normalized: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) normalized -> (n, m) uint8 nearest-codebook-entry ids."""
    m, n_codes, dsub = books.shape
    n = x_normalized.shape[0]
    codes = np.empty((n, m), dtype=np.uint8)
    for s in range(m):
        xs = x_normalized[:, s * dsub:(s + 1) * dsub]
        c = books[s]
        codes[:, s] = (xs @ c.T - 0.5 * (c * c).sum(axis=1)).argmax(axis=1)
    return codes


def build_pq_codes(ds, index_dir: str, m: int = 8, n_codes: int = 16,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   sample_rows: int = 4096, seed: int = 11) -> np.ndarray:
    """Write the PQ index at rest: codebooks.parquet + codes/ parquet of
    (id, fixed_size_list<uint8>[m]) — m bytes per vector. Returns books."""
    import pyarrow.parquet as pq
    import ray

    books = train_pq(_sample_matrix(ds, emb_col, sample_rows, seed),
                     m=m, n_codes=n_codes, seed=seed)
    ref = ray.put(books)

    def to_codes(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        codes = encode_pq(_normalize(_emb_matrix(batch, emb_col)), b)
        return pa.table(
            {id_col: batch.column(id_col),
             "pq_code": pa.FixedSizeListArray.from_arrays(
                 pa.array(codes.reshape(-1), type=pa.uint8()), codes.shape[1])}
        )

    ds.map_batches(to_codes, batch_format="pyarrow").write_parquet(
        f"{index_dir}/codes", compression="zstd"
    )
    mm, nc, dsub = books.shape
    pq.write_table(
        pa.table({"subspace": pa.array(np.repeat(np.arange(mm), nc)),
                  "code": pa.array(np.tile(np.arange(nc), mm)),
                  "centroid": pa.FixedSizeListArray.from_arrays(
                      pa.array(books.reshape(-1, dsub).reshape(-1)), dsub)}),
        f"{index_dir}/codebooks.parquet",
    )
    return books


def pq_index_topk(index_dir: str, queries: np.ndarray, query_ids: np.ndarray,
                  k: int = 10, exclude_self: bool = True,
                  refine_ds=None, refine_factor: int = 4,
                  id_col: str = "vec_id", emb_col: str = "embedding"):
    """ADC top-k over the at-rest code table: per query an (m, n_codes) LUT
    of exact subspace dot products, per row a gather+sum — no float
    embeddings are read at query time.

    With ``refine_ds`` (the original embeddings Dataset), ADC produces a
    ``k * refine_factor`` shortlist per query and ONLY those rows' float
    vectors are extracted (isin prefilter inside map_batches — a selective
    semi-join, not a full scan materialization) for an exact cosine
    re-rank. The standard IVF-PQ refine step: the shortlist is O(n_q*k),
    so the exact read stays tiny at any corpus size."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    bt = pq.read_table(f"{index_dir}/codebooks.parquet")
    mm = int(pa.compute.max(bt.column("subspace")).as_py()) + 1
    nc = len(bt) // mm
    dsub = len(bt.column("centroid")[0])
    books = np.asarray(
        bt.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(mm, nc, dsub)

    q = _normalize(np.asarray(queries, dtype=np.float64))
    # LUT[i, s, c] = q_i[sub s] . books[s, c]  -> (n_q, m, n_codes)
    lut = np.einsum("qsd,scd->qsc", q.reshape(len(q), mm, dsub), books)
    ref = ray.put((lut, np.asarray(query_ids, dtype=np.int64)))
    k_adc = k * refine_factor if refine_ds is not None else k

    def adc(batch: pa.Table) -> pa.Table:
        lut_, qids = ray.get(ref)
        codes = np.asarray(
            batch.column("pq_code").combine_chunks().flatten(), dtype=np.int64
        ).reshape(len(batch), -1)  # (n, m)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        # scores[i, r] = sum_s lut_[i, s, codes[r, s]]
        scores = lut_[:, np.arange(codes.shape[1])[None, :], codes].sum(axis=2)
        if exclude_self:
            scores[qids[:, None] == ids[None, :]] = -np.inf
        kk = min(k_adc, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table(
            {"query_id": pa.array(np.repeat(qids, kk)),
             "neighbor_id": pa.array(ids[part].reshape(-1)),
             "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1))}
        )

    cand = pa.concat_tables(
        pa.table(b)
        for b in rd.read_parquet(f"{index_dir}/codes")
        .map_batches(adc, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    if len(cand) == 0:
        return pa.table(
            {"query_id": pa.array([], type=pa.int64()),
             "neighbor_id": pa.array([], type=pa.int64()),
             "rank": pa.array([], type=pa.int64())}
        )
    if refine_ds is None:
        return _merge_topk(cand, k)
    return _refine_topk(cand, refine_ds, q, query_ids, k, k_adc,
                        exclude_self, id_col, emb_col)


def _refine_topk(cand: pa.Table, refine_ds, q: np.ndarray, query_ids,
                 k: int, k_adc: int, exclude_self: bool,
                 id_col: str, emb_col: str) -> pa.Table:
    """Exact re-rank of an ADC shortlist: extract ONLY the shortlisted rows'
    float vectors (isin semi-join inside map_batches — the read stays
    O(n_q * k_adc) at any corpus size), score against the normalized
    queries, keep each query restricted to ITS shortlist."""
    import ray

    short = _merge_topk(cand, k_adc)
    want = np.unique(np.asarray(short.column("neighbor_id"), dtype=np.int64))
    want_ref = ray.put(want)

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.is_in(batch.column(id_col),
                                     pa.array(ray.get(want_ref))))

    hits = pa.concat_tables(
        pa.table(b)
        for b in refine_ds.map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    e = _normalize(_emb_matrix(hits, emb_col))
    ids = np.asarray(hits.column(id_col), dtype=np.int64)
    qids = np.asarray(query_ids, dtype=np.int64)
    scores = q @ e.T
    if exclude_self:
        scores[qids[:, None] == ids[None, :]] = -np.inf
    # restrict each query to ITS shortlist (scores against others -> -inf)
    sq = np.asarray(short.column("query_id"), dtype=np.int64)
    sn = np.asarray(short.column("neighbor_id"), dtype=np.int64)
    allowed = np.zeros(scores.shape, dtype=bool)
    qpos = {int(v): i for i, v in enumerate(qids)}
    npos = {int(v): i for i, v in enumerate(ids)}
    allowed[[qpos[int(a)] for a in sq], [npos[int(b)] for b in sn]] = True
    scores[~allowed] = -np.inf
    kk = min(k, scores.shape[1])
    part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
    fin = pa.table(
        {"query_id": pa.array(np.repeat(qids, kk)),
         "neighbor_id": pa.array(ids[part].reshape(-1)),
         "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1))}
    )
    # drop -inf fillers (shortlist smaller than k)
    fin = fin.filter(pa.compute.greater(fin.column("score"), -np.inf))
    return _merge_topk(fin, k)


def build_ivfpq_index(ds, index_dir: str, n_centroids: int = 16, m: int = 8,
                      n_codes: int = 256, id_col: str = "vec_id",
                      emb_col: str = "embedding", sample_rows: int = 4096,
                      seed: int = 11):
    """IVF-PQ at rest — the production ANN layout: PQ codes hive-partitioned
    by nearest IVF centroid (``cells/ivf_cell=N/`` of (id, m-byte code)).
    A query prunes WHICH partitions are read (IVF) and WHAT is read per row
    (PQ codes, not float vectors). Divergence from classic IVFPQ: codes
    encode the raw normalized vector, not the residual x - centroid — the
    refine pass (exact re-rank) recovers the accuracy residual encoding
    buys, without a per-cell codebook dependency. Returns (cents, books)."""
    import pyarrow.parquet as pq
    import ray

    sample = _sample_matrix(ds, emb_col, sample_rows, seed)
    cents = train_ivf_centroids(sample, n_centroids, seed=seed)
    books = train_pq(sample, m=m, n_codes=n_codes, seed=seed)
    ref = ray.put((cents, books))

    def to_cell_codes(batch: pa.Table) -> pa.Table:
        c, b = ray.get(ref)
        e = _normalize(_emb_matrix(batch, emb_col))
        codes = encode_pq(e, b)
        cell = (e @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {id_col: batch.column(id_col),
             "pq_code": pa.FixedSizeListArray.from_arrays(
                 pa.array(codes.reshape(-1), type=pa.uint8()), codes.shape[1]),
             "ivf_cell": pa.array(cell)}
        )

    ds.map_batches(to_cell_codes, batch_format="pyarrow").write_parquet(
        _cells_root(index_dir), partition_cols=["ivf_cell"],
        compression="zstd"
    )
    pq.write_table(
        pa.table({"cell": pa.array(range(len(cents)), type=pa.int64()),
                  "centroid": pa.FixedSizeListArray.from_arrays(
                      pa.array(cents.reshape(-1)), cents.shape[1])}),
        f"{index_dir}/centroids.parquet",
    )
    mm, nc, dsub = books.shape
    pq.write_table(
        pa.table({"subspace": pa.array(np.repeat(np.arange(mm), nc)),
                  "code": pa.array(np.tile(np.arange(nc), mm)),
                  "centroid": pa.FixedSizeListArray.from_arrays(
                      pa.array(books.reshape(-1, dsub).reshape(-1)), dsub)}),
        f"{index_dir}/codebooks.parquet",
    )
    return cents, books


def ivfpq_topk(index_dir: str, queries: np.ndarray, query_ids: np.ndarray,
               k: int = 10, n_probe: int = 4, exclude_self: bool = True,
               refine_ds=None, refine_factor: int = 4,
               id_col: str = "vec_id", emb_col: str = "embedding"):
    """Probe-then-scan over the IVF-PQ index: only the probed cells' hive
    dirs are handed to the reader (unprobed partitions never leave
    storage), the scan touches m-byte codes via ADC, and the optional
    refine extracts only the shortlist's float vectors."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)
    bt = pq.read_table(f"{index_dir}/codebooks.parquet")
    mm = int(pa.compute.max(bt.column("subspace")).as_py()) + 1
    nc = len(bt) // mm
    dsub = len(bt.column("centroid")[0])
    books = np.asarray(
        bt.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(mm, nc, dsub)

    q = _normalize(np.asarray(queries, dtype=np.float64))
    n_probe = min(n_probe, len(cents))
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]
    probe_set = [int(c) for c in np.unique(probes)]
    paths = [os.path.join(p, f)
             for c in probe_set
             if os.path.isdir(
                 p := os.path.join(_cells_root(index_dir), f"ivf_cell={c}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    empty = pa.table(
        {"query_id": pa.array([], type=pa.int64()),
         "neighbor_id": pa.array([], type=pa.int64()),
         "rank": pa.array([], type=pa.int64())}
    )
    if not paths:
        return empty

    lut = np.einsum("qsd,scd->qsc", q.reshape(len(q), mm, dsub), books)
    ref = ray.put((lut, np.asarray(query_ids, dtype=np.int64)))
    k_adc = k * refine_factor if refine_ds is not None else k

    def adc(batch: pa.Table) -> pa.Table:
        lut_, qids = ray.get(ref)
        codes = np.asarray(
            batch.column("pq_code").combine_chunks().flatten(), dtype=np.int64
        ).reshape(len(batch), -1)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        scores = lut_[:, np.arange(codes.shape[1])[None, :], codes].sum(axis=2)
        if exclude_self:
            scores[qids[:, None] == ids[None, :]] = -np.inf
        kk = min(k_adc, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table(
            {"query_id": pa.array(np.repeat(qids, kk)),
             "neighbor_id": pa.array(ids[part].reshape(-1)),
             "score": pa.array(np.take_along_axis(scores, part, axis=1).reshape(-1))}
        )

    cand = pa.concat_tables(
        pa.table(b)
        for b in rd.read_parquet(paths, columns=[id_col, "pq_code"])
        .map_batches(adc, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    if len(cand) == 0:
        return empty
    if refine_ds is None:
        return _merge_topk(cand, k)
    return _refine_topk(cand, refine_ds, q, query_ids, k, k_adc,
                        exclude_self, id_col, emb_col)


def sq8_train(ds, *, emb_col: str = "embedding") -> np.ndarray:
    """Per-dimension (min, max) bounds for SQ8 scalar quantization — one
    streaming pass of per-batch d-vector partials (the kmeans exchange
    shape: O(d) per batch, never the vectors). Returns (2, d)."""
    import ray

    def partial(b: pa.Table) -> pa.Table:
        from clp_core_ray.functions.dedup import _emb_matrix

        e = _emb_matrix(b, emb_col).astype(np.float64)
        return pa.table({
            "mn": pa.FixedSizeListArray.from_arrays(
                pa.array(e.min(axis=0)), e.shape[1]),
            "mx": pa.FixedSizeListArray.from_arrays(
                pa.array(e.max(axis=0)), e.shape[1]),
        })

    blocks = [t for t in ray.get(
        ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs())
        if t.num_columns]
    tot = pa.concat_tables(blocks)
    mn = np.asarray(tot.column("mn").combine_chunks().flatten(),
                    dtype=np.float64).reshape(len(tot), -1).min(axis=0)
    mx = np.asarray(tot.column("mx").combine_chunks().flatten(),
                    dtype=np.float64).reshape(len(tot), -1).max(axis=0)
    return np.stack([mn, mx])


def sq8_encode(ds, bounds: np.ndarray, *, emb_col: str = "embedding",
               id_col: str = "vec_id", out_col: str = "sq8"):
    """SQ8 scalar quantization: embedding → fixed_size_list<uint8> codes
    (4× smaller than float32, 8× than float64 — the production at-rest
    format simpler than PQ; dequantization error ≤ span/510 per dim).
    code = round((v − min) / (max − min) · 255), zero-span dims → 0.
    Bounds broadcast once via the plasma store; encoding is shuffle-free."""
    import ray

    ref = ray.put(np.asarray(bounds, dtype=np.float64))

    def enc(b: pa.Table) -> pa.Table:
        from clp_core_ray.functions.dedup import _emb_matrix

        mn, mx = ray.get(ref)
        span = mx - mn
        e = _emb_matrix(b, emb_col).astype(np.float64)
        with np.errstate(invalid="ignore"):
            x = (e - mn) / np.where(span > 0, span, 1.0) * 255.0
        # ties round away from zero (SQL round semantics; numpy's
        # half-even produced a 1-code mismatch on a real .5 hit)
        q = np.floor(x + 0.5)
        q = np.clip(np.where(span > 0, q, 0.0), 0, 255).astype(np.uint8)
        return pa.table({
            id_col: b.column(id_col).combine_chunks().cast(pa.int64()),
            out_col: pa.FixedSizeListArray.from_arrays(
                pa.array(q.reshape(-1)), e.shape[1]),
        })

    return ds.map_batches(enc, batch_format="pyarrow")


def sq8_decode(codes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Dequantize SQ8 codes back to floats (midpoint-free linear map)."""
    mn, mx = np.asarray(bounds, dtype=np.float64)
    span = mx - mn
    return mn + codes.astype(np.float64) / 255.0 * span


def vector_hash64(emb_col) -> pa.Array:
    """64-bit FNV-1a over each vector's raw little-endian float32 bytes —
    the embedding counterpart of curation.content_hash64 (drift detection)."""
    from clp_core_ray.vec.tokenizer import _fnv1a64_tokens

    m = _emb_matrix(pa.table({"e": emb_col}), "e").astype("<f4")
    data = np.ascontiguousarray(m).view(np.uint8).reshape(len(m), -1)
    flat = data.reshape(-1)
    row_bytes = data.shape[1]
    starts = np.arange(len(m), dtype=np.int64) * row_bytes
    lens = np.full(len(m), row_bytes, dtype=np.int64)
    return pa.array(_fnv1a64_tokens(flat, starts, lens).view(np.int64))


def ivf_index_update(index_dir: str, old_ds, new_ds,
                     id_col: str = "vec_id", emb_col: str = "embedding") -> dict:
    """Maintain an at-rest IVF index against embedding-corpus drift: diff the
    two snapshots by per-vector content hash (snapshot_diff's single
    hash-exchange shuffle), tombstone removed+changed ids, append
    added+changed vectors against the frozen centroids. Only the DELTA id
    set is collected to the driver (the drift premise). Returns the delta
    counts."""
    import ray

    from clp_core_ray.functions.curation import snapshot_diff

    def add_hash(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: b.column(id_col),
            "_vh": vector_hash64(b.column(emb_col).combine_chunks()),
        })

    delta = snapshot_diff(
        old_ds.map_batches(add_hash, batch_format="pyarrow"),
        new_ds.map_batches(add_hash, batch_format="pyarrow"),
        id_col=id_col, content_col="_vh", precomputed_hash=True,
    )
    by: dict[str, list[int]] = {"added": [], "removed": [], "changed": []}
    for b in delta.iter_batches(batch_format="pyarrow"):
        for i, st in zip(b.column(id_col).to_pylist(),
                         b.column("status").to_pylist()):
            by[st].append(i)
    if by["removed"] or by["changed"]:
        ivf_index_delete(index_dir, by["removed"] + by["changed"])
    n_appended = 0
    if by["added"] or by["changed"]:
        keep = ray.put(pa.array(np.asarray(by["added"] + by["changed"],
                                           dtype=np.int64)))

        def only_new(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_valid(pc.index_in(
                b.column(id_col).combine_chunks().cast(pa.int64()),
                ray.get(keep))))

        n_appended = ivf_index_append(
            index_dir, new_ds.map_batches(only_new, batch_format="pyarrow"),
            id_col=id_col, emb_col=emb_col)
    return {"added": len(by["added"]), "changed": len(by["changed"]),
            "removed": len(by["removed"]), "appended_rows": n_appended}


def radius_neighbors(ds, queries: np.ndarray, query_ids: np.ndarray,
                     threshold: float, id_col: str = "vec_id",
                     emb_col: str = "embedding", exclude_self: bool = True):
    """Range search: EVERY ``(query_id, neighbor_id)`` pair with cosine
    similarity ≥ ``threshold`` (the all-neighbors dual of top-k).

    Fully streaming — per-batch matmul against the broadcast query matrix,
    boolean mask, emit hits; no shuffle and no driver merge, because unlike
    top-k the predicate is per-pair (no cross-batch state). Output size is
    the true result size, so at 100 TB the cost is the scan itself; the IVF
    cell layout (:func:`build_ivf_index`) prunes WHICH partitions are
    scanned exactly as it does for top-k when recall bounds allow.
    """
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    ref = ray.put((q, np.asarray(query_ids, dtype=np.int64)))

    class RadiusScan:
        def __init__(self):
            self.q = None
            self.qids = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.q is None:
                self.q, self.qids = ray.get(ref)
            e = _normalize(_emb_matrix(batch, emb_col))
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            scores = self.q @ e.T  # (n_q, n_batch)
            hit = scores >= threshold
            if exclude_self:
                hit &= self.qids[:, None] != ids[None, :]
            qi, ni = np.nonzero(hit)
            return pa.table({"query_id": pa.array(self.qids[qi]),
                             "neighbor_id": pa.array(ids[ni]),
                             "score": pa.array(scores[qi, ni])})

    return ds.map_batches(RadiusScan(), batch_format="pyarrow")


def ivf_index_radius(index_dir: str, queries: np.ndarray,
                     query_ids: np.ndarray, threshold: float,
                     n_probe: int = 4, id_col: str = "vec_id",
                     emb_col: str = "embedding", exclude_self: bool = True):
    """Range search over the at-rest IVF index: every pair with cosine ≥
    ``threshold`` among the probed cells.

    Same partition pruning as :func:`ivf_index_topk` (only the union of the
    queries' ``n_probe`` nearest cells' hive dirs are handed to the reader)
    but the result streams straight out of ``map_batches`` — a per-pair
    predicate needs no top-k merge, so there is no driver-side candidate
    collect at all. ``n_probe >= n_centroids`` reads every cell and is
    exact (how it is oracled); smaller probes trade recall for scan cost.
    Returns a Dataset of (query_id, neighbor_id, score).
    """
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)

    q = _normalize(np.asarray(queries, dtype=np.float64))
    n_probe = min(n_probe, len(cents))
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]
    probe_set = [int(c) for c in np.unique(probes)]

    paths = [os.path.join(p, f)
             for c in probe_set
             if os.path.isdir(
                 p := os.path.join(_cells_root(index_dir), f"ivf_cell={c}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                      "neighbor_id": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64())})
    if not paths:
        return rd.from_arrow(empty)
    cells_ds = rd.read_parquet(paths, columns=[id_col, emb_col])
    dead = _load_tombstones(index_dir)
    dead_ref = ray.put(dead) if dead is not None else None
    ref = ray.put((q, np.asarray(query_ids, dtype=np.int64)))

    def scan(batch: pa.Table) -> pa.Table:
        if dead_ref is not None:
            batch = batch.filter(pc.is_null(pc.index_in(
                batch.column(id_col).combine_chunks().cast(pa.int64()),
                ray.get(dead_ref))))
        if batch.num_rows == 0:
            return empty
        qm, qids = ray.get(ref)
        e = _normalize(_emb_matrix(batch, emb_col))
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        scores = qm @ e.T
        hit = scores >= threshold
        if exclude_self:
            hit &= qids[:, None] != ids[None, :]
        qi, ni = np.nonzero(hit)
        return pa.table({"query_id": pa.array(qids[qi]),
                         "neighbor_id": pa.array(ids[ni]),
                         "score": pa.array(scores[qi, ni])})

    return cells_ds.map_batches(scan, batch_format="pyarrow")


def hard_negatives_ds(ds, k: int = 1, id_col: str = "vec_id",
                      emb_col: str = "embedding", label_col: str = "label"):
    """Hard-negative mining for contrastive training: for every row, its
    ``k`` most-similar rows with a DIFFERENT label — the pairs a metric
    model most needs to separate.

    Exact variant, same block self-join shape as :func:`knn_label_vote_ds`
    (one raw task per block pair, per-query partial top-k candidates, exact
    merge per query block; candidate volume per reduce = k x n_blocks per
    query). O(blocks²) by construction — route through the IVF index via
    :func:`hard_negatives_ivf` at scale. Ties break by neighbor id
    ascending. Returns ``(query_id, neighbor_id, rank)``.
    """
    import ray
    import ray.data as rd

    from clp_core_ray.functions.dedup import _fixed_matrix

    def prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            label_col: batch.column(label_col).combine_chunks().cast(
                pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
        })

    blocks = ds.map_batches(prep, batch_format="pyarrow").materialize() \
        .to_arrow_refs()

    @ray.remote
    def pair(ta: pa.Table, tb: pa.Table) -> pa.Table:
        ma = _fixed_matrix(ta, "nemb")
        mb = _fixed_matrix(tb, "nemb")
        ia = np.asarray(ta.column(id_col), dtype=np.int64)
        ib = np.asarray(tb.column(id_col), dtype=np.int64)
        la = np.asarray(ta.column(label_col), dtype=np.int64)
        lb = np.asarray(tb.column(label_col), dtype=np.int64)
        scores = (ma @ mb.T).astype(np.float64)
        scores[la[:, None] == lb[None, :]] = -np.inf  # negatives only
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table({
            "query_id": pa.array(np.repeat(ia, kk)),
            "neighbor_id": pa.array(ib[part].reshape(-1)),
            "score": pa.array(
                np.take_along_axis(scores, part, axis=1).reshape(-1)),
        })

    @ray.remote
    def reduce_pairs(*cands) -> pa.Table:
        cand = pa.concat_tables(cands)
        # same-label placeholders carry -inf scores; drop before the merge
        cand = cand.filter(pc.greater(cand.column("score"),
                                      pa.scalar(-np.inf)))
        return _merge_topk(cand, k)

    nb = len(blocks)
    refs = [
        reduce_pairs.remote(*[pair.remote(blocks[i], blocks[j])
                              for j in range(nb)])
        for i in range(nb)
    ]
    return rd.from_arrow(pa.concat_tables(ray.get(refs)))


def hard_negatives_ivf(ds, index_dir: str, k: int = 1, n_probe: int = 4,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       label_col: str = "label"):
    """Hard-negative mining routed through the at-rest IVF index — the
    scale path for :func:`hard_negatives_ds`'s exact O(blocks²) self-join.

    Each query block computes its ``n_probe`` nearest cells once; one raw
    task per (query block, probed cell) scores only the probing subset
    against that cell's partition (total matmul work ~n·n_probe/n_cells of
    the exact join's n²). Labels ride the cell partitions from index build
    time. Exact — identical to ``hard_negatives_ds`` — when ``n_probe >=
    n_cells``; partial probes trade recall for the pruning.
    """
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from clp_core_ray.functions.dedup import _fixed_matrix

    ct = pq.read_table(f"{index_dir}/centroids.parquet")
    cents = np.asarray(
        ct.column("centroid").combine_chunks().flatten(), dtype=np.float64
    ).reshape(len(ct), -1)
    n_probe = min(n_probe, len(cents))

    def prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        probes = (np.argsort(-(m @ cents.T), axis=1)[:, :n_probe]
                  .astype(np.int32) if m.size else
                  np.zeros((0, n_probe), dtype=np.int32))
        return pa.table({
            id_col: batch.column(id_col).combine_chunks().cast(pa.int64()),
            label_col: batch.column(label_col).combine_chunks().cast(
                pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
            "probes": pa.FixedSizeListArray.from_arrays(
                pa.array(probes.reshape(-1)), n_probe),
        })

    qblocks = ds.map_batches(prep, batch_format="pyarrow").materialize() \
        .to_arrow_refs()

    @ray.remote
    def load_cell(paths: list) -> pa.Table:
        import pyarrow.parquet as _pq

        t = pa.concat_tables(
            _pq.read_table(p, columns=[id_col, emb_col, label_col])
            for p in paths)
        m = _normalize(_emb_matrix(t, emb_col)).astype(np.float32)
        dim = m.shape[1] if m.size else 1
        return pa.table({
            id_col: t.column(id_col).combine_chunks().cast(pa.int64()),
            label_col: t.column(label_col).combine_chunks().cast(pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), dim),
        })

    cell_refs = {}
    for c in range(len(cents)):
        p = os.path.join(_cells_root(index_dir), f"ivf_cell={c}")
        if os.path.isdir(p):
            paths = [os.path.join(p, f) for f in sorted(os.listdir(p))
                     if f.endswith(".parquet")]
            if paths:
                cell_refs[c] = load_cell.remote(paths)

    def _empty() -> pa.Table:
        return pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "neighbor_id": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64())})

    @ray.remote
    def pair(qt: pa.Table, cellt: pa.Table, cell_id: int) -> pa.Table:
        probes = np.asarray(
            qt.column("probes").combine_chunks().flatten(), dtype=np.int64
        ).reshape(len(qt), -1)
        sub = np.flatnonzero((probes == cell_id).any(axis=1))
        if not len(sub) or not len(cellt):
            return _empty()
        ma = _fixed_matrix(qt, "nemb")[sub]
        ia = np.asarray(qt.column(id_col), dtype=np.int64)[sub]
        la = np.asarray(qt.column(label_col), dtype=np.int64)[sub]
        mb = _fixed_matrix(cellt, "nemb")
        ib = np.asarray(cellt.column(id_col), dtype=np.int64)
        lb = np.asarray(cellt.column(label_col), dtype=np.int64)
        scores = (ma @ mb.T).astype(np.float64)
        scores[la[:, None] == lb[None, :]] = -np.inf
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        return pa.table({
            "query_id": pa.array(np.repeat(ia, kk)),
            "neighbor_id": pa.array(ib[part].reshape(-1)),
            "score": pa.array(
                np.take_along_axis(scores, part, axis=1).reshape(-1)),
        })

    @ray.remote
    def reduce_pairs(*cands) -> pa.Table:
        cand = pa.concat_tables(cands)
        cand = cand.filter(pc.greater(cand.column("score"),
                                      pa.scalar(-np.inf)))
        if len(cand) == 0:
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "neighbor_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int64())})
        return _merge_topk(cand, k)

    refs = [
        reduce_pairs.remote(*[pair.remote(qb, cr, c)
                              for c, cr in cell_refs.items()])
        for qb in qblocks
    ]
    return rd.from_arrow(pa.concat_tables(ray.get(refs)))


def ivf_index_compact(index_dir: str) -> dict:
    """LSM compaction for the at-rest IVF index: rewrite every cell's
    accumulated parts into ONE file with tombstoned rows dropped, then
    commit by atomically rewriting the ``CURRENT`` generation pointer —
    probes either see the whole old generation (parts + tombstone masks)
    or the whole new one, never a mix. Old generation and tombstones are
    removed only after the commit point; a crash before it leaves the old
    view intact, a crash after it leaves harmless garbage a re-run sweeps.

    Completes the build → append → delete → compact lifecycle
    (text.compact_inverted_index's role for the vector index; reference
    analogue: archive merge compaction). Returns
    {cells, rows_kept, rows_dropped, new_root}."""
    import os
    import shutil

    import pyarrow.parquet as pq

    old_root = _cells_root(index_dir)
    gen = 1
    base = os.path.basename(old_root)
    if base.startswith("cells-"):
        gen = int(base.split("-")[1]) + 1
    new_name = f"cells-{gen}"
    new_root = os.path.join(index_dir, new_name)
    dead = _load_tombstones(index_dir)
    kept = dropped = ncells = 0
    os.makedirs(new_root, exist_ok=True)
    for cell in sorted(os.listdir(old_root)):
        src = os.path.join(old_root, cell)
        if not (cell.startswith("ivf_cell=") and os.path.isdir(src)):
            continue
        parts = [pq.read_table(os.path.join(src, f))
                 for f in sorted(os.listdir(src)) if f.endswith(".parquet")]
        if not parts:
            continue
        t = pa.concat_tables(parts, promote_options="default")
        before = t.num_rows
        if dead is not None and len(dead):
            t = t.filter(pc.invert(pc.is_in(
                t.column("vec_id").combine_chunks(), value_set=dead)))
        kept += t.num_rows
        dropped += before - t.num_rows
        ncells += 1
        dst = os.path.join(new_root, cell)
        os.makedirs(dst, exist_ok=True)
        final = os.path.join(dst, "part-compacted.parquet")
        tmp = inprogress_path(final)
        pq.write_table(t, tmp, compression="zstd")
        os.replace(tmp, final)
    # commit point: readers flip to the new generation atomically
    cur = os.path.join(index_dir, "CURRENT")
    cur_tmp = inprogress_path(cur)
    with open(cur_tmp, "w") as f:
        f.write(new_name)
    os.replace(cur_tmp, cur)
    # post-commit cleanup (correct view regardless of crash here)
    shutil.rmtree(old_root, ignore_errors=True)
    shutil.rmtree(os.path.join(index_dir, "tombstones"), ignore_errors=True)
    return {"cells": ncells, "rows_kept": kept, "rows_dropped": dropped,
            "new_root": new_root}
