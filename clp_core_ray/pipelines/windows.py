"""Per-conversation windowing: sessionization over the ordered turn log.

Ray Data has no event-time windows; the rebuild shuffles once by a HASH
BUCKET of conv_id (max(64, 4×CPUs) buckets — scaled_buckets(), not one group
per conversation) and runs a fully vectorized Arrow/numpy pass inside each
bucket: lexsort by (conv_id, turn_idx), detect conversation starts and gap
breaks, and derive per-conversation session ids with cumulative tricks — no
pandas conversion, one python call per bucket instead of one per
conversation. Hot conversations (the generator plants ~5%-of-all-turns
convs) just make one bucket somewhat larger; the work inside stays
vectorized, and the bucket count grows with the cluster so per-bucket bytes
stay roughly constant at any scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray.vec.tokenizer import _fnv1a64_tokens, _string_buffers

SESSION_GAP_SECONDS = 600
N_BUCKETS = 64  # floor, not the operating point — see scaled_buckets()


def scaled_buckets(minimum: int = N_BUCKETS, per_cpu: int = 4) -> int:
    """Cluster-scaled shuffle bucket count: max(minimum, per_cpu × CPUs) —
    the dedup module's rule (functions/dedup.py). A FIXED bucket count means
    every map_groups task materializes corpus/64 regardless of cluster size;
    scaling with CPUs keeps per-bucket bytes roughly constant as the cluster
    (and with it the corpus a job is sized for) grows, and gives the
    streaming executor enough groups to keep every slot busy."""
    from clp_core_ray.execution import cluster_cpus

    return max(minimum, per_cpu * cluster_cpus())


def _add_bucket_fn(num_buckets: int):
    """conv_id-hash bucketing stage for a resolved bucket count."""
    nb = np.uint64(num_buckets)

    def _add_bucket(batch: pa.Table) -> pa.Table:
        offsets, data = _string_buffers(batch.column("conv_id"))
        h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
        return batch.append_column(
            "_bucket", pa.array((h % nb).astype(np.int32))
        )

    return _add_bucket


def _sorted_session_arrays(group: pa.Table, gap_seconds: int):
    """lexsort by (conv, turn) → (order, conv codes, ts seconds, session_id)."""
    conv = group.column("conv_id").combine_chunks()
    enc = pc.dictionary_encode(conv)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices, dtype=np.int64)
    turn = np.asarray(group.column("turn_idx"), dtype=np.int64)
    ts = np.asarray(
        pc.cast(group.column("ts").combine_chunks(), pa.int64()), dtype=np.int64
    ) // 1_000_000
    order = np.lexsort((turn, codes))
    c = codes[order]
    t = ts[order]
    n = len(c)
    newconv = np.ones(n, dtype=bool)
    if n > 1:
        newconv[1:] = c[1:] != c[:-1]
    gap = np.zeros(n, dtype=np.int64)
    if n > 1:
        gap[1:] = t[1:] - t[:-1]
    brk = newconv | (gap > gap_seconds)
    run = np.cumsum(brk)
    conv_base = np.maximum.accumulate(np.where(newconv, run, 0))
    sid = run - conv_base
    return order, c, t, sid, brk


def sessionize(ds, gap_seconds: int = SESSION_GAP_SECONDS):
    """Assign session ids within each conversation (gap > gap_seconds splits).

    Returns Dataset[(conv_id, turn_idx, session_id)] where session_id counts
    sessions per conversation starting at 0.
    """

    def per_bucket(group: pa.Table) -> pa.Table:
        order, _, _, sid, _ = _sorted_session_arrays(group, gap_seconds)
        take = pa.array(order)
        return pa.table(
            {
                "conv_id": group.column("conv_id").take(take),
                "turn_idx": group.column("turn_idx").take(take),
                "session_id": pa.array(sid, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_add_bucket_fn(scaled_buckets()),
                       batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def session_stats(ds, gap_seconds: int = SESSION_GAP_SECONDS):
    """Per-session aggregate: n_turns, span_seconds (windowed aggregate)."""

    def per_bucket(group: pa.Table) -> pa.Table:
        order, _, t, sid, brk = _sorted_session_arrays(group, gap_seconds)
        starts = np.flatnonzero(brk)
        n = len(t)
        if n == 0:
            return pa.table(
                {"conv_id": pa.array([], type=pa.string()),
                 "session_id": pa.array([], type=pa.int64()),
                 "n_turns": pa.array([], type=pa.int64()),
                 "span_seconds": pa.array([], type=pa.int64())}
            )
        ends = np.append(starts[1:], n) - 1
        n_turns = np.append(starts[1:], n) - starts
        # turns are time-ordered within a session only if ts is monotone per
        # conversation; span = max-min via reduceat to stay order-agnostic
        mx = np.maximum.reduceat(t, starts)
        mn = np.minimum.reduceat(t, starts)
        del ends
        take = pa.array(order[starts])
        return pa.table(
            {
                "conv_id": group.column("conv_id").take(take),
                "session_id": pa.array(sid[starts], type=pa.int64()),
                "n_turns": pa.array(n_turns, type=pa.int64()),
                "span_seconds": pa.array(mx - mn, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_add_bucket_fn(scaled_buckets()),
                       batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def conv_examples(ds, *, sep: str = "\n", role_sep: str = ": "):
    """Assemble one training example per conversation: turns sorted by
    turn_idx, each rendered ``role: text`` and joined with ``sep``.

    The transcript-native "build SFT examples" op. One shuffle: conv_ids
    hash into 64 buckets (hot conversations only fatten a bucket, they never
    serialize a per-conv task); inside each bucket everything is Arrow
    kernels — lexsort by (conv, turn), run-boundary offsets, and
    ``pc.binary_join`` over a ListArray view, so no per-row Python even for
    the string assembly. Output: (conv_id, example, n_turns).
    """
    def per_bucket(group: pa.Table) -> pa.Table:
        if not len(group):
            return pa.table({"conv_id": pa.array([], type=pa.string()),
                             "example": pa.array([], type=pa.string()),
                             "n_turns": pa.array([], type=pa.int64())})
        conv = group.column("conv_id").combine_chunks()
        codes = pc.dictionary_encode(conv)
        idx = np.asarray(codes.indices, dtype=np.int64)
        turn = np.asarray(group.column("turn_idx").combine_chunks(),
                          dtype=np.int64)
        order = np.lexsort((turn, idx))
        sorted_idx = idx[order]
        parts = pc.binary_join_element_wise(
            pc.fill_null(
                pc.cast(group.column("role").combine_chunks(), pa.string()),
                ""),
            pc.fill_null(
                pc.cast(group.column("text").combine_chunks(), pa.string()),
                ""),
            role_sep,
        ).take(pa.array(order))
        bounds = np.flatnonzero(
            np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
        offsets = np.r_[bounds, len(sorted_idx)].astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), parts)
        joined = pc.binary_join(lists, sep)
        convs = conv.take(pa.array(order[bounds]))
        n_turns = np.diff(offsets).astype(np.int64)
        return pa.table({"conv_id": convs, "example": joined,
                         "n_turns": pa.array(n_turns)})

    return (
        ds.select_columns(["conv_id", "turn_idx", "role", "text"])
        .map_batches(_add_bucket_fn(scaled_buckets()),
                     batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def turn_pairs(ds, *, prompt_role: str = "user",
               completion_role: str = "assistant"):
    """Extract (prompt, completion) training pairs: every ``completion_role``
    turn whose immediately preceding turn (by turn_idx, same conversation)
    has ``prompt_role``.

    Same shuffle shape as :func:`conv_examples` (64 conv-hash buckets);
    inside a bucket the pairing is one lexsort + shifted-array compare —
    no per-row Python. Output: (conv_id, turn_idx, prompt, completion).
    """
    def per_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"conv_id": pa.array([], type=pa.string()),
                          "turn_idx": pa.array([], type=pa.int32()),
                          "prompt": pa.array([], type=pa.string()),
                          "completion": pa.array([], type=pa.string())})
        if not len(group):
            return empty
        conv = group.column("conv_id").combine_chunks()
        codes = pc.dictionary_encode(conv)
        idx = np.asarray(codes.indices, dtype=np.int64)
        turn = np.asarray(group.column("turn_idx").combine_chunks(),
                          dtype=np.int64)
        order = np.lexsort((turn, idx))
        sidx = idx[order]
        roles = group.column("role").combine_chunks().take(pa.array(order))
        roles_np = np.asarray(pc.fill_null(roles, ""))
        # row i pairs with row i-1 when same conv and roles match
        ok = np.zeros(len(sidx), dtype=bool)
        if len(sidx) > 1:
            ok[1:] = ((sidx[1:] == sidx[:-1])
                      & (roles_np[1:] == completion_role)
                      & (roles_np[:-1] == prompt_role))
        if not ok.any():
            return empty
        sel = np.flatnonzero(ok)
        text = group.column("text").combine_chunks().take(pa.array(order))
        return pa.table({
            "conv_id": conv.take(pa.array(order[sel])),
            "turn_idx": pc.cast(
                group.column("turn_idx").combine_chunks()
                .take(pa.array(order[sel])), pa.int32()),
            "prompt": text.take(pa.array(sel - 1)),
            "completion": text.take(pa.array(sel)),
        })

    return (
        ds.select_columns(["conv_id", "turn_idx", "role", "text"])
        .map_batches(_add_bucket_fn(scaled_buckets()),
                     batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def trailing_window_agg(ds, *, key: str, ts_col: str, row_id_col: str,
                        window_us: int, val_col: str | None = None,
                        n_buckets: int | None = None):
    """Trailing event-time window aggregate — the SQL RANGE frame

        COUNT(*) [, SUM(val)] OVER (PARTITION BY key ORDER BY ts
                                    RANGE BETWEEN window PRECEDING
                                    AND CURRENT ROW)

    for an integer partition key. Returns Dataset[(row_id_col, trailing_cnt
    [, trailing_sum])].

    Shape: one shuffle into ``key``-hash buckets, then a fully vectorized
    pass per bucket — lexsort by (key, ts), fold each partition onto a
    disjoint segment of one composite int axis (partition ordinal × stride +
    ts offset, stride > ts span + window so windows can never cross
    partitions), and two searchsorted sweeps give every row's frame in
    O(n log n) with no per-partition loop. side='right' on the current value
    includes equal-ts PEERS (later physical rows with the same ts), exactly
    the SQL RANGE ... CURRENT ROW peer rule. Hot keys only fatten one
    bucket; the pass inside stays vectorized.
    """

    n_buckets = n_buckets or scaled_buckets()

    def bucket(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(key), dtype=np.int64)
        cols = [row_id_col, key, ts_col] + ([val_col] if val_col else [])
        return batch.select(cols).append_column(
            "_wbucket", pa.array((ids % np.int64(n_buckets)).astype(np.int32)))

    def per_bucket(group: pa.Table) -> pa.Table:
        out_cols = {row_id_col: pa.array([], type=pa.int64()),
                    "trailing_cnt": pa.array([], type=pa.int64())}
        if val_col:
            out_cols["trailing_sum"] = pa.array([], type=pa.int64())
        if group.num_rows == 0 or key not in group.column_names:
            return pa.table(out_cols)
        ids = np.asarray(group.column(key), dtype=np.int64)
        ts = np.asarray(group.column(ts_col)).view(np.int64)
        rid = np.asarray(group.column(row_id_col), dtype=np.int64)
        order = np.lexsort((ts, ids))
        ids, ts, rid = ids[order], ts[order], rid[order]
        brk = np.ones(len(ids), dtype=bool)
        brk[1:] = ids[1:] != ids[:-1]
        part = np.cumsum(brk) - 1
        t0 = ts.min()
        stride = np.int64(int(ts.max()) - int(t0) + int(window_us) + 2)
        adj = part * stride + (ts - t0)
        right = np.searchsorted(adj, adj, side="right")
        left = np.searchsorted(adj, adj - np.int64(window_us), side="left")
        res = {row_id_col: pa.array(rid),
               "trailing_cnt": pa.array(right - left)}
        if val_col:
            v = np.asarray(group.column(val_col), dtype=np.int64)[order]
            csum = np.zeros(len(v) + 1, dtype=np.int64)
            np.cumsum(v, out=csum[1:])
            res["trailing_sum"] = pa.array(csum[right] - csum[left])
        return pa.table(res)

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_wbucket").map_groups(per_bucket, batch_format="pyarrow"))


def partition_window(ds, *, key: str, ts_col: str, row_id_col: str,
                     val_col: str | None = None,
                     n_buckets: int | None = None):
    """Per-partition sequential window functions — the SQL ROWS frame

        ROW_NUMBER()            OVER w                          -> rn
        epoch_us(ts) - LAG(...) OVER w  (-1 at partition start)  -> gap_us
        SUM(val)                OVER w ROWS UNBOUNDED PRECEDING -> run_sum

    with w = (PARTITION BY key ORDER BY ts, row_id), for an integer
    partition key and int64 val. Returns Dataset[(row_id_col, rn, gap_us
    [, run_sum])].

    Shape: one shuffle into key-hash buckets, then a fully vectorized pass
    per bucket — lexsort by (key, ts, row_id), partition-start detection via
    one neighbor compare, and every output is an arange/shift/cumsum off the
    partition-start index vector; no per-partition loop. Hot keys only
    fatten one bucket.
    """

    n_buckets = n_buckets or scaled_buckets()

    def bucket(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(key), dtype=np.int64)
        cols = [row_id_col, key, ts_col] + ([val_col] if val_col else [])
        return batch.select(cols).append_column(
            "_wbucket", pa.array((ids % np.int64(n_buckets)).astype(np.int32)))

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = {row_id_col: pa.array([], type=pa.int64()),
                 "rn": pa.array([], type=pa.int64()),
                 "gap_us": pa.array([], type=pa.int64())}
        if val_col:
            empty["run_sum"] = pa.array([], type=pa.int64())
        if group.num_rows == 0 or key not in group.column_names:
            return pa.table(empty)
        ids = np.asarray(group.column(key), dtype=np.int64)
        ts = np.asarray(group.column(ts_col)).view(np.int64)
        rid = np.asarray(group.column(row_id_col), dtype=np.int64)
        order = np.lexsort((rid, ts, ids))
        ids, ts, rid = ids[order], ts[order], rid[order]
        n = len(ids)
        brk = np.ones(n, dtype=bool)
        brk[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(brk)
        part = np.cumsum(brk) - 1
        start_of = starts[part]
        rn = np.arange(n, dtype=np.int64) - start_of + 1
        gap = np.empty(n, dtype=np.int64)
        gap[0] = -1
        gap[1:] = ts[1:] - ts[:-1]
        gap[brk] = -1
        res = {row_id_col: pa.array(rid), "rn": pa.array(rn),
               "gap_us": pa.array(gap)}
        if val_col:
            v = np.asarray(group.column(val_col), dtype=np.int64)[order]
            cs = np.cumsum(v)
            res["run_sum"] = pa.array(cs - cs[start_of] + v[start_of])
        return pa.table(res)

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_wbucket").map_groups(per_bucket, batch_format="pyarrow"))


def grouped_rank(ds, *, key: str, val_col: str, row_id_col: str,
                 descending: bool = False, n_buckets: int | None = None):
    """Per-group value ranking — the SQL window triple

        RANK()       OVER (PARTITION BY key ORDER BY val [DESC])        -> rnk
        DENSE_RANK() OVER (PARTITION BY key ORDER BY val [DESC])        -> drnk
        ROW_NUMBER() OVER (PARTITION BY key ORDER BY val [DESC], id)    -> rn

    for a string or integer partition key and int64 value — the
    "keep/score the best rows per source" shape of corpus curation.
    Returns Dataset[(row_id_col, rnk, drnk, rn)].

    Shape: one shuffle into key-hash buckets, then a vectorized pass per
    bucket — dictionary-encode the key (grouping only; cross-partition order
    is irrelevant), lexsort (key_code, val, id), detect partition starts and
    value-run starts with neighbor compares, and all three ranks fall out of
    arange / maximum.accumulate / cumsum — no per-partition loop.
    """

    n_buckets = n_buckets or scaled_buckets()

    def bucket(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if pa.types.is_integer(col.type):
            h = np.asarray(col, dtype=np.int64) % np.int64(n_buckets)
            b = h.astype(np.int32)
        else:
            offsets, data = _string_buffers(col)
            h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
            b = (h % np.uint64(n_buckets)).astype(np.int32)
        return (batch.select([row_id_col, key, val_col])
                .append_column("_wbucket", pa.array(b)))

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = {row_id_col: pa.array([], type=pa.int64()),
                 "rnk": pa.array([], type=pa.int64()),
                 "drnk": pa.array([], type=pa.int64()),
                 "rn": pa.array([], type=pa.int64())}
        if group.num_rows == 0 or key not in group.column_names:
            return pa.table(empty)
        kcol = group.column(key).combine_chunks()
        if pa.types.is_integer(kcol.type):
            kcode = np.asarray(kcol, dtype=np.int64)
        else:
            kcode = np.asarray(pc.dictionary_encode(kcol).indices,
                               dtype=np.int64)
        v = np.asarray(group.column(val_col), dtype=np.int64)
        if descending:
            v = -v
        rid = np.asarray(group.column(row_id_col), dtype=np.int64)
        order = np.lexsort((rid, v, kcode))
        kcode, v, rid = kcode[order], v[order], rid[order]
        n = len(rid)
        idx = np.arange(n, dtype=np.int64)
        brk = np.ones(n, dtype=bool)
        brk[1:] = kcode[1:] != kcode[:-1]
        newval = brk.copy()
        newval[1:] |= v[1:] != v[:-1]
        start_of = np.maximum.accumulate(np.where(brk, idx, 0))
        run_start = np.maximum.accumulate(np.where(newval, idx, 0))
        rn = idx - start_of + 1
        rnk = run_start - start_of + 1
        c = np.cumsum(newval)
        drnk = c - np.maximum.accumulate(np.where(brk, c - 1, 0))
        return pa.table({row_id_col: pa.array(rid), "rnk": pa.array(rnk),
                         "drnk": pa.array(drnk), "rn": pa.array(rn)})

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_wbucket").map_groups(per_bucket, batch_format="pyarrow"))


def trailing_distinct_count(ds, *, key_col: str, ts_col: str = "ts",
                            window_days: int = 7,
                            out_col: str = "wau"):
    """Trailing-window distinct-entity count per day (the DAU/WAU/MAU
    family): for each observed day d, how many distinct keys appeared in
    [d − window + 1, d].

    Distinct-over-window doesn't decompose like sums, so the exchange is
    restructured instead: (day, key) pairs dedupe per batch (one row per
    pair per batch), each surviving pair replicates to the ≤window target
    days it can serve — bounded ×window blowup of the ALREADY-distinct
    pairs, not of the event stream — then a second dedupe + per-day count.
    Target days prune against the observed-day set (broadcast, one row
    per day) so output days match SQL's join-on-observed-days semantics.
    """
    import ray

    from clp_core_ray.pipelines.aggregate import add_time_bucket, count_by

    US_DAY = 86_400_000_000
    du = count_by(add_time_bucket(ds, ts_col, "day", out_col="_d"),
                  ["_d", key_col]).select_columns(["_d", key_col])

    day_tbl = pa.concat_tables(
        [pa.table(b) for b in count_by(du, "_d").select_columns(["_d"])
         .iter_batches(batch_format="pyarrow")])
    # day buckets come back timestamp[s] from floor_temporal — pin to us
    days_us = np.unique(np.asarray(
        day_tbl.column("_d").cast(pa.timestamp("us")).cast(pa.int64()),
        dtype=np.int64))
    days_ref = ray.put(days_us)

    def replicate(b: pa.Table) -> pa.Table:
        obs = ray.get(days_ref)
        d = np.asarray(b.column("_d").cast(pa.timestamp("us"))
                       .cast(pa.int64()), dtype=np.int64)
        n = len(d)
        if n == 0:
            return pa.table({"_td": b.column("_d"),
                             key_col: b.column(key_col)})
        reps = np.repeat(np.arange(n), window_days)
        offs = np.tile(np.arange(window_days, dtype=np.int64), n) * US_DAY
        td = d[reps] + offs
        keep = np.isin(td, obs)  # only observed days emit output rows
        td, reps = td[keep], reps[keep]
        return pa.table({
            "_td": pa.array(td).cast(pa.timestamp("us")),
            key_col: pc.take(b.column(key_col), pa.array(reps))})

    pairs = count_by(du.map_batches(replicate, batch_format="pyarrow"),
                     ["_td", key_col]).select_columns(["_td", key_col])
    out = count_by(pairs, "_td")
    return out.map_batches(
        lambda b: pa.table({"day": b.column("_td"),
                            out_col: b.column("cnt")}),
        batch_format="pyarrow")


def grouped_ntile(ds, *, key: str, val_col: str, row_id_col: str,
                  n_tiles: int, n_buckets: int | None = None):
    """SQL NTILE(n) OVER (PARTITION BY key ORDER BY val, id): split each
    partition into ``n_tiles`` ordered tiles, the first ``n % n_tiles``
    tiles one row larger (the SQL remainder rule). Returns
    Dataset[(row_id_col, tile)].

    Shape: one shuffle into key-hash buckets, then a vectorized pass per
    bucket — lexsort (key, val, id), partition starts via neighbor compare,
    per-row partition size by indexing the run-length table, and the tile
    index is branch-free arithmetic on the 0-based row number. Works for
    float or integer ``val_col``.
    """
    n_buckets = n_buckets or scaled_buckets()

    def bucket(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if pa.types.is_integer(col.type):
            b = (np.asarray(col, dtype=np.int64)
                 % np.int64(n_buckets)).astype(np.int32)
        else:
            offsets, data = _string_buffers(col)
            h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
            b = (h % np.uint64(n_buckets)).astype(np.int32)
        return (batch.select([row_id_col, key, val_col])
                .append_column("_wbucket", pa.array(b)))

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = {row_id_col: pa.array([], type=pa.int64()),
                 "tile": pa.array([], type=pa.int64())}
        if group.num_rows == 0 or key not in group.column_names:
            return pa.table(empty)
        kcol = group.column(key).combine_chunks()
        if pa.types.is_integer(kcol.type):
            kcode = np.asarray(kcol, dtype=np.int64)
        else:
            kcode = np.asarray(pc.dictionary_encode(kcol).indices,
                               dtype=np.int64)
        v = np.asarray(group.column(val_col), dtype=np.float64)
        rid = np.asarray(group.column(row_id_col), dtype=np.int64)
        order = np.lexsort((rid, v, kcode))
        kcode, rid = kcode[order], rid[order]
        m = len(rid)
        idx = np.arange(m, dtype=np.int64)
        brk = np.ones(m, dtype=bool)
        brk[1:] = kcode[1:] != kcode[:-1]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.r_[starts, m])
        part = np.cumsum(brk) - 1
        n = sizes[part]                      # partition size, per row
        rn0 = idx - starts[part]             # 0-based row number in partition
        q, r = n // n_tiles, n % n_tiles
        cut = r * (q + 1)                    # rows covered by the fat tiles
        fat = rn0 < cut
        tile = np.where(fat, rn0 // np.maximum(q + 1, 1),
                        r + (rn0 - cut) // np.maximum(q, 1)) + 1
        return pa.table({row_id_col: pa.array(rid),
                         "tile": pa.array(tile.astype(np.int64))})

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_wbucket").map_groups(per_bucket, batch_format="pyarrow"))


def grouped_percentiles(ds, *, key: str, val_col: str, row_id_col: str,
                        ndigits: int = 6, n_buckets: int | None = None):
    """SQL PERCENT_RANK() and CUME_DIST() per partition:

        percent_rank = (RANK() − 1) / (n − 1)     (0 when n == 1)
        cume_dist    = #rows with val ≤ current / n   (peers included)

    Returns Dataset[(row_id_col, pct_rank, cume_dist)]. Same shape as
    grouped_rank: one key-hash shuffle, lexsort + run detection per
    bucket; both quotients are exact-integer divisions, so the rounded
    values are bit-identical to the SQL window's.
    """
    n_buckets = n_buckets or scaled_buckets()

    from clp_core_ray.pipelines.aggregate import sql_round

    def bucket(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if pa.types.is_integer(col.type):
            b = (np.asarray(col, dtype=np.int64)
                 % np.int64(n_buckets)).astype(np.int32)
        else:
            offsets, data = _string_buffers(col)
            h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
            b = (h % np.uint64(n_buckets)).astype(np.int32)
        return (batch.select([row_id_col, key, val_col])
                .append_column("_wbucket", pa.array(b)))

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = {row_id_col: pa.array([], type=pa.int64()),
                 "pct_rank": pa.array([], type=pa.float64()),
                 "cume_dist": pa.array([], type=pa.float64())}
        if group.num_rows == 0 or key not in group.column_names:
            return pa.table(empty)
        kcol = group.column(key).combine_chunks()
        if pa.types.is_integer(kcol.type):
            kcode = np.asarray(kcol, dtype=np.int64)
        else:
            kcode = np.asarray(pc.dictionary_encode(kcol).indices,
                               dtype=np.int64)
        v = np.asarray(group.column(val_col), dtype=np.float64)
        rid = np.asarray(group.column(row_id_col), dtype=np.int64)
        order = np.lexsort((rid, v, kcode))
        kcode, v, rid = kcode[order], v[order], rid[order]
        m = len(rid)
        idx = np.arange(m, dtype=np.int64)
        brk = np.ones(m, dtype=bool)
        brk[1:] = kcode[1:] != kcode[:-1]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.r_[starts, m])
        part = np.cumsum(brk) - 1
        n = sizes[part].astype(np.float64)
        start_of = starts[part]
        newval = brk.copy()
        newval[1:] |= v[1:] != v[:-1]
        run_start = np.maximum.accumulate(np.where(newval, idx, 0))
        rnk = run_start - start_of + 1          # RANK (ties share)
        # last index of each value run, propagated backward
        run_id = np.cumsum(newval) - 1
        run_last = np.zeros(run_id[-1] + 1, dtype=np.int64)
        np.maximum.at(run_last, run_id, idx)
        peers_le = run_last[run_id] - start_of + 1  # rows ≤ current value
        with np.errstate(invalid="ignore"):
            pr = np.where(n > 1, (rnk - 1) / np.maximum(n - 1, 1), 0.0)
        cd = peers_le / n
        return pa.table({row_id_col: pa.array(rid),
                         "pct_rank": pa.array(sql_round(pr, ndigits)),
                         "cume_dist": pa.array(sql_round(cd, ndigits))})

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_wbucket").map_groups(per_bucket, batch_format="pyarrow"))
