"""Grouped aggregates with partial (combiner) pre-aggregation.

Reference semantics: reducer/CountOperator.cpp:4-31 — per-task partial counts
merged across tasks (A1 in SURVEY.md §2.5); count-by-time bucketing
clo/OutputHandler.hpp:255-286 (A2). In Ray Data the cross-task merge is the
groupby shuffle; we shrink what's shuffled by pre-aggregating inside
map_batches first (one row per key per batch instead of one per record).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _partial_agg_fn(keys: list[str], aggs: list[tuple[str, str]]):
    def fn(batch: pa.Table) -> pa.Table:
        cols = set(keys) | {c for c, _ in aggs if c != "*"}
        batch = batch.select([c for c in batch.column_names if c in cols])
        return batch.group_by(keys).aggregate(
            [(c, f) for c, f in aggs]
        )

    return fn


def count_by(ds, keys: list[str] | str):
    """groupby(keys).count() with per-batch partial counts.

    Returns a Dataset with columns keys + ``cnt`` (int64).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    key0 = keys[0]

    def partial(batch: pa.Table) -> pa.Table:
        out = batch.select(keys).group_by(keys).aggregate([(key0, "count")])
        return out.rename_columns(keys + ["cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    out = partials.groupby(keys).aggregate(Sum("cnt", alias_name="cnt"))
    return out


def sum_by(ds, keys: list[str] | str, value_col: str, alias: str | None = None):
    """groupby(keys).sum(value_col) with per-batch partials."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    alias = alias or f"sum_{value_col}"

    def partial(batch: pa.Table) -> pa.Table:
        out = (
            batch.select(keys + [value_col])
            .group_by(keys)
            .aggregate([(value_col, "sum")])
        )
        return out.rename_columns(keys + [alias])

    from ray.data.aggregate import Sum

    return ds.map_batches(partial, batch_format="pyarrow").groupby(keys).aggregate(
        Sum(alias, alias_name=alias)
    )


def count_sum_by(ds, keys: list[str] | str, value_col: str,
                 cnt_alias: str = "cnt", sum_alias: str = "sum_qty"):
    """groupby(keys) → count(*) + sum(value_col) in ONE exchange of partials."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        out = (
            batch.select(keys + [value_col])
            .group_by(keys)
            .aggregate([
                # count(*) semantics: null values still count the row
                (value_col, "count", pc.CountOptions(mode="all")),
                (value_col, "sum"),
            ])
        )
        return out.rename_columns(keys + [cnt_alias, sum_alias])

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum(cnt_alias, alias_name=cnt_alias),
                   Sum(sum_alias, alias_name=sum_alias))
    )


def zscore_by_group(ds, *, key_col: str, val_col: str,
                    out_col: str = "z"):
    """Append each row's z-score relative to its group's population
    mean/stddev — the per-sensor / per-event-type outlier screen a
    telemetry pipeline runs before aggregation.

    Two passes, both streaming: (1) per-(key, batch) moment partials
    (n, Σv, Σv²) — one row per key per batch — folded by a tiny groupby
    to #keys rows on the driver; (2) a broadcast score stage (stats table
    ships once via the plasma store, resolved lazily per task) appends
    ``z = (v − mean) / stddev_pop``. Groups with zero variance score 0.
    The input value stream is never shuffled."""
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        v = b.column(val_col).combine_chunks().cast(pa.float64())
        sq = pc.multiply(v, v)
        t = pa.table({key_col: b.column(key_col), "_v": v, "_sq": sq})
        out = t.group_by([key_col]).aggregate([
            ("_v", "count", pc.CountOptions(mode="only_valid")),
            ("_v", "sum"), ("_sq", "sum")])
        return out.rename_columns([key_col, "_n", "_s", "_ss"])

    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key_col)
             .aggregate(Sum("_n", alias_name="_n"),
                        Sum("_s", alias_name="_s"),
                        Sum("_ss", alias_name="_ss")))
    st = _to_small_table(stats)
    n = np.asarray(st.column("_n"), dtype=np.float64)
    s = np.asarray(st.column("_s"), dtype=np.float64)
    ss = np.asarray(st.column("_ss"), dtype=np.float64)
    mean = s / np.maximum(n, 1.0)
    var = np.maximum(ss / np.maximum(n, 1.0) - mean * mean, 0.0)
    std = np.sqrt(var)
    lookup = pa.table({key_col: st.column(key_col),
                       "_mean": pa.array(mean), "_std": pa.array(std)})
    ref = ray.put(lookup)

    def score(b: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        idx = pc.index_in(b.column(key_col).combine_chunks(),
                          lk.column(key_col).combine_chunks())
        m = np.asarray(lk.column("_mean").take(idx), dtype=np.float64)
        sd = np.asarray(lk.column("_std").take(idx), dtype=np.float64)
        v = np.asarray(b.column(val_col).combine_chunks().cast(pa.float64()),
                       dtype=np.float64)
        z = np.where(sd > 0.0, (v - m) / np.where(sd > 0.0, sd, 1.0), 0.0)
        return b.append_column(out_col, pa.array(z))

    return ds.map_batches(score, batch_format="pyarrow")


def decayed_count_by(ds, *, key_col: str, ts_col: str = "ts",
                     half_life_s: float, asof_us: int | None = None,
                     ndigits: int = 6):
    """Exponentially-decayed activity score per key as of ``asof_us``
    (default: the corpus max timestamp) — the trending/recency signal a
    telemetry pipeline keeps per entity (recent events count ~1, events a
    half-life ago count 0.5, …).

    One streaming pass: each batch pre-aggregates Σ 2^((ts − asof)/hl)
    per key (one row per key per batch), a tiny groupby sums the partials.
    No shuffle of raw events, driver state = #keys rows."""
    import math

    import numpy as np
    from ray.data.aggregate import Sum

    if asof_us is None:
        def mx(b: pa.Table) -> pa.Table:
            us = b.column(ts_col).combine_chunks().cast(pa.int64())
            return pa.table({"hi": pa.array([pc.max(us).as_py()])})

        tops = _to_small_table(ds.map_batches(mx, batch_format="pyarrow"))
        asof_us = pc.max(tops.column("hi")).as_py()
    lam = math.log(2.0) / (half_life_s * 1e6)

    def partial(b: pa.Table) -> pa.Table:
        us = np.asarray(b.column(ts_col).combine_chunks().cast(pa.int64()),
                        dtype=np.float64)
        w = np.exp((us - float(asof_us)) * lam)
        t = pa.table({key_col: b.column(key_col), "_w": pa.array(w)})
        out = t.group_by([key_col]).aggregate([("_w", "sum")])
        return out.rename_columns([key_col, "_w"])

    def rnd(b: pa.Table) -> pa.Table:
        v = sql_round(np.asarray(b.column("decayed"), dtype=np.float64),
                      ndigits)
        return b.set_column(b.schema.get_field_index("decayed"),
                            "decayed", pa.array(v))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(key_col)
            .aggregate(Sum("_w", alias_name="decayed"))
            .map_batches(rnd, batch_format="pyarrow"))


def entropy_by_group(ds, *, key_col: str, cat_col: str,
                     ndigits: int = 6):
    """Shannon entropy (nats) of each key's categorical distribution —
    the behavioral-diversity feature (a user who only ever clicks scores
    0; uniform activity scores ln(#categories)).

    Per-(key, category, batch) count partials shuffle (one row per pair
    per batch), a category-summing groupby folds them, then a key-bucket
    pass turns each key's count vector into −Σ p·ln p. Contributions sum
    in ascending category order so the rounded float is reproducible."""
    import numpy as np
    from ray.data.aggregate import Sum

    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = scaled_buckets()

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({key_col: b.column(key_col),
                      cat_col: b.column(cat_col)})
        out = t.group_by([key_col, cat_col]).aggregate(
            [(cat_col, "count")])
        return out.rename_columns([key_col, cat_col, "_n"])

    summed = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby([key_col, cat_col])
              .aggregate(Sum("_n", alias_name="_n")))

    def tag(b: pa.Table) -> pa.Table:
        from clp_core_ray.pipelines.temporal import _key_and_bucket

        _, bucket = _key_and_bucket(b.column(key_col), nb)
        return b.append_column("_bucket", bucket)

    def per_bucket(g: pa.Table) -> pa.Table:
        if not g.num_rows or key_col not in g.column_names:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "entropy": pa.array([], type=pa.float64())})
        from clp_core_ray.pipelines.temporal import _key_and_bucket

        key = np.asarray(_key_and_bucket(g.column(key_col), 1)[0])
        cat = g.column(cat_col).combine_chunks()
        codes = pc.dictionary_encode(cat)
        # ascending category VALUE order for a deterministic sum
        dic = codes.dictionary if not isinstance(codes, pa.ChunkedArray) \
            else codes.chunk(0).dictionary
        rank = np.empty(len(dic), dtype=np.int64)
        rank[np.asarray(pc.sort_indices(dic))] = np.arange(len(dic))
        cidx = rank[np.asarray(codes.indices
                               if not isinstance(codes, pa.ChunkedArray)
                               else codes.combine_chunks().indices,
                               dtype=np.int64)]
        n = np.asarray(g.column("_n"), dtype=np.float64)
        order = np.lexsort((cidx, key))
        k2, nn = key[order], n[order]
        newk = np.r_[True, k2[1:] != k2[:-1]]
        starts = np.flatnonzero(newk)
        tot = np.add.reduceat(nn, starts)
        p = nn / np.repeat(tot, np.diff(np.r_[starts, len(nn)]))
        ent = -np.add.reduceat(p * np.log(p), starts)
        keys_out = g.column(key_col).combine_chunks().take(
            pa.array(order[starts]))
        return pa.table({key_col: keys_out,
                         "entropy": pa.array(sql_round(ent, ndigits))})

    return (summed.map_batches(tag, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def value_histogram(ds, col: str, width: float):
    """Equi-width histogram: Dataset[(bin, cnt)] with
    bin = floor(col / width) * width (the SQL binning idiom, bit-compatible
    with DuckDB's floor arithmetic on doubles). Per-batch partial counts —
    the exchange carries one row per non-empty bin per batch, never values."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(col).combine_chunks().cast(pa.float64()))
        bins = np.floor(v / width) * width
        t = pa.table({"bin": pa.array(bins)})
        out = t.group_by(["bin"]).aggregate([("bin", "count")])
        return out.rename_columns(["bin", "cnt"])

    from ray.data.aggregate import Sum

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bin").aggregate(Sum("cnt", alias_name="cnt")))


def detect_hot_keys(ds, key: str, sample_frac: float = 0.02,
                    hot_share: float = 0.01) -> list:
    """Sampled heavy-hitter detection: keys owning > hot_share of sampled rows.

    The cheap pre-pass that drives salting decisions (SURVEY.md §4: "detect
    heavy keys via sampled count").
    """
    import pyarrow as _pa

    sample = ds.random_sample(sample_frac, seed=13)
    counts = _to_small_table(count_by(sample, key))
    total = sum(counts.column("cnt").to_pylist()) or 1
    return [
        k for k, c in zip(counts.column(key).to_pylist(),
                          counts.column("cnt").to_pylist())
        if c / total > hot_share
    ]


def count_by_salted(ds, key: str, n_salt: int = 16):
    """Two-phase salted count: shuffle on (key, salt), then merge salts.

    For aggregates the per-batch partial in count_by already neutralizes
    skew; this explicit variant is the pattern for cases where partials are
    impossible (holistic per-key work): salt the hot key into n_salt
    subgroups, aggregate each, then merge the small salted result.
    Results are identical to count_by (tested).
    """
    import numpy as np
    import pyarrow as _pa

    from ray.data.aggregate import Sum

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = np.arange(len(batch), dtype=np.int32) % n_salt
        return batch.select([key]).append_column("_salt", _pa.array(salt))

    salted = (
        ds.map_batches(add_salt, batch_format="pyarrow")
        .groupby([key, "_salt"])
        .count()
    )
    merged = salted.groupby(key).aggregate(Sum("count()", alias_name="cnt"))
    return merged


def _to_small_table(ds) -> "pa.Table":
    import pyarrow as _pa

    out = [_pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return _pa.concat_tables(out) if out else _pa.table({})


def time_bucket(batch: pa.Table, ts_col: str = "ts",
                granularity: str = "hour", out_col: str = "bucket",
                bucket_ms: int | None = None) -> pa.Table:
    """``batch`` with a truncated-timestamp bucket column appended (A2:
    bucket = ts/size*size).

    ``granularity`` takes a calendar unit; ``bucket_ms`` instead takes the
    reference CLI's arbitrary millisecond bucket (clo --count-by-time
    BUCKET_MS, OutputHandler.hpp:255-286) and emits int64 epoch-ms buckets.
    """
    if bucket_ms:
        us = pc.cast(batch.column(ts_col), pa.int64())
        b = pc.multiply(pc.divide(pc.divide(us, 1000), bucket_ms), bucket_ms)
    else:
        b = pc.floor_temporal(batch.column(ts_col), unit=granularity)
    return batch.append_column(out_col, b)


def add_time_bucket(ds, ts_col: str = "ts", granularity: str = "hour",
                    out_col: str = "bucket", bucket_ms: int | None = None):
    """:func:`time_bucket` over every batch of ``ds``."""
    import functools

    return ds.map_batches(functools.partial(
        time_bucket, ts_col=ts_col, granularity=granularity, out_col=out_col,
        bucket_ms=bucket_ms), batch_format="pyarrow")


def stats_by(ds, keys: list[str] | str, ts_col: str = "ts", size_col: str | None = None):
    """Per-group archive-style stats: count, min/max ts, optional byte sum (A3).

    Mirrors per-archive metadata accumulation
    (streaming_archive/ArchiveMetadata.cpp, writer/Archive.cpp:493-557).
    Column names: n_turns, min_ts, max_ts[, total_bytes].
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        sel = keys + [ts_col] + ([size_col] if size_col else [])
        aggs = [(ts_col, "count"), (ts_col, "min"), (ts_col, "max")]
        names = keys + ["n_turns", "min_ts", "max_ts"]
        if size_col:
            aggs.append((size_col, "sum"))
            names.append("total_bytes")
        out = batch.select(sel).group_by(keys).aggregate(aggs)
        return out.rename_columns(names)

    from ray.data.aggregate import Max, Min, Sum

    aggs = [
        Sum("n_turns", alias_name="n_turns"),
        Min("min_ts", alias_name="min_ts"),
        Max("max_ts", alias_name="max_ts"),
    ]
    if size_col:
        aggs.append(Sum("total_bytes", alias_name="total_bytes"))
    return ds.map_batches(partial, batch_format="pyarrow").groupby(keys).aggregate(*aggs)



def global_window(ds, *, val_col: str, row_id_col: str,
                  funcs: tuple[str, ...] = ("rank",), ntile: int | None = None,
                  n_buckets: int = 1024, descending: bool = False):
    """Distributed analytic window functions over ``ORDER BY val_col [DESC]``
    for an int64 value column, with NO global sort.

    ``funcs`` ⊆ {"rank", "dense_rank", "row_number", "ntile"} → output
    columns ``rnk`` / ``drnk`` / ``rn`` / ``tile`` alongside ``row_id_col``.
    SQL semantics exactly: RANK ties share the min rank (gaps after), DENSE_RANK
    has no gaps, ROW_NUMBER and NTILE break value ties by ascending
    ``row_id_col``, NTILE puts the larger groups first.

    Shape: value-RANGE buckets split the key space (equal values can never
    straddle a range boundary, so tie groups stay whole), per-bucket row and
    distinct-value counts are pre-aggregated per batch and cumsum'd on the
    driver (#buckets rows, not #rows), then ONE bucket-partitioned vectorized
    pass computes every requested function inside its bucket and adds the
    bucket's offsets. Skewed value distributions fatten individual buckets but
    the in-bucket pass stays a lexsort + searchsorted. The exchange for the
    offsets pass is per-batch-distinct (bucket, value, cnt) partials — O(batch
    cardinality), never raw rows.
    """
    import numpy as np
    import ray
    from ray.data.aggregate import Count as ACount
    from ray.data.aggregate import Max as AMax
    from ray.data.aggregate import Min as AMin
    from ray.data.aggregate import Sum as ASum

    funcs = tuple(funcs)
    bad = set(funcs) - {"rank", "dense_rank", "row_number", "ntile"}
    if bad:
        raise ValueError(f"unknown window funcs: {sorted(bad)}")
    if "ntile" in funcs and not ntile:
        raise ValueError("funcs includes 'ntile' but ntile=N not given")
    need_distinct = "dense_rank" in funcs

    def tag_src(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(val_col), dtype=np.int64)
        if descending:
            v = -v
        return pa.table({
            row_id_col: batch.column(row_id_col).combine_chunks().cast(
                pa.int64()),
            "_v": pa.array(v)})

    out_cols = [(f, {"rank": "rnk", "dense_rank": "drnk",
                     "row_number": "rn", "ntile": "tile"}[f]) for f in funcs]

    vals = ds.map_batches(tag_src, batch_format="pyarrow").materialize()
    mm = vals.aggregate(AMin("_v", alias_name="lo"),
                        AMax("_v", alias_name="hi"))
    if not mm or mm.get("lo") is None:  # empty input: schema-stable empty
        import ray.data as rd

        cols = {row_id_col: pa.array([], type=pa.int64())}
        for _, name in out_cols:
            cols[name] = pa.array([], type=pa.int64())
        return rd.from_arrow(pa.table(cols))
    lo, hi = int(mm["lo"]), int(mm["hi"])
    width = max(1, (hi - lo) // n_buckets + 1)

    def tag(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("_v"), dtype=np.int64)
        return batch.append_column(
            "_rbucket", pa.array(((v - lo) // width).astype(np.int32)))

    # not materialized: both consumers re-derive the cheap tag map off the
    # materialized vals instead of holding a second full copy in plasma
    tagged = vals.map_batches(tag, batch_format="pyarrow")

    # Per-bucket (rows, distinct values) without shuffling rows: per-batch
    # (bucket, value, cnt) partials -> exact (bucket, value) fold -> tiny
    # per-bucket aggregate the driver can hold (#buckets rows).
    def partial_pairs(batch: pa.Table) -> pa.Table:
        g = (batch.select(["_rbucket", "_v"])
             .group_by(["_rbucket", "_v"])
             .aggregate([([], "count_all")]))
        return pa.table({"_rbucket": g.column("_rbucket"),
                         "_v": g.column("_v"),
                         "cnt": g.column("count_all")})

    pairs = (tagged.map_batches(partial_pairs, batch_format="pyarrow")
             .groupby(["_rbucket", "_v"])
             .aggregate(ASum("cnt", alias_name="cnt")))
    per_bucket = (pairs.groupby("_rbucket")
                  .aggregate(ASum("cnt", alias_name="rows"),
                             ACount("_v", alias_name="distinct"))
                  .to_pandas().sort_values("_rbucket"))
    offsets, row_run, dist_run = {}, 0, 0
    for b, r, d in zip(per_bucket["_rbucket"], per_bucket["rows"],
                       per_bucket["distinct"]):
        offsets[int(b)] = (row_run, dist_run)
        row_run += int(r)
        dist_run += int(d)
    n_total = row_run
    off_ref = ray.put(offsets)

    def window_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "_v" not in group.column_names:
            schema = {row_id_col: pa.array([], type=pa.int64())}
            for _, name in out_cols:
                schema[name] = pa.array([], type=pa.int64())
            return pa.table(schema)
        row_off, dist_off = ray.get(off_ref)[
            int(group.column("_rbucket")[0].as_py())]
        v = np.asarray(group.column("_v"), dtype=np.int64)
        ids = np.asarray(group.column(row_id_col), dtype=np.int64)
        result = {row_id_col: group.column(row_id_col)}
        if "rank" in funcs:
            sv = np.sort(v)
            result["rnk"] = pa.array(
                np.searchsorted(sv, v, side="left") + row_off + 1)
        if need_distinct:
            uv = np.unique(v)
            result["drnk"] = pa.array(
                np.searchsorted(uv, v) + dist_off + 1)
        if "row_number" in funcs or "ntile" in funcs:
            order = np.lexsort((ids, v))
            rn = np.empty(len(v), dtype=np.int64)
            rn[order] = np.arange(1, len(v) + 1) + row_off
            if "row_number" in funcs:
                result["rn"] = pa.array(rn)
            if "ntile" in funcs:
                q, r = divmod(n_total, ntile)
                big = r * (q + 1)  # rows covered by the (q+1)-sized tiles
                tile = np.where(
                    rn <= big,
                    (rn - 1) // (q + 1) + 1,
                    r + (rn - 1 - big) // max(q, 1) + 1)
                result["tile"] = pa.array(tile.astype(np.int64))
        return pa.table({row_id_col: result[row_id_col],
                         **{name: result[name] for _, name in out_cols}})

    return tagged.groupby("_rbucket").map_groups(window_bucket,
                                                 batch_format="pyarrow")


def global_rank(ds, *, val_col: str, row_id_col: str,
                n_buckets: int = 1024, descending: bool = False):
    """Distributed ``RANK() OVER (ORDER BY val_col [DESC])`` — see
    :func:`global_window`. Returns Dataset[(row_id_col, "rnk")]."""
    return global_window(ds, val_col=val_col, row_id_col=row_id_col,
                         funcs=("rank",), n_buckets=n_buckets,
                         descending=descending)


def sql_round(x, ndigits: int):
    """Round half away from zero, matching SQL round() (numpy's np.round
    is banker's rounding — ties split the other way, and grouped floats
    with few decimals land on exact half-boundaries often enough to flip
    hash-compares)."""
    import numpy as np

    scale = 10.0 ** ndigits
    return np.copysign(np.floor(np.abs(x) * scale + 0.5) / scale, x)


def _key_means(ds, key_col: str, val_cols: list[str]):
    """Pass 1 of the corrected two-pass moment algorithm: exact per-key
    count + per-column mean, one exchange of per-batch partials. Returns
    (key_list, n_array, {col: mean_array}) — one row per key, the small
    side that broadcasts into pass 2."""
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key_col] + val_cols).drop_null()
        aggs = [(val_cols[0], "count")] + [(c, "sum") for c in val_cols]
        out = sel.group_by([key_col]).aggregate(aggs)
        return out.rename_columns([key_col, "_n"] + [f"_s_{c}" for c in val_cols])

    from ray.data.aggregate import Sum

    folded = _to_small_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("_n", alias_name="_n"),
                   *[Sum(f"_s_{c}", alias_name=f"_s_{c}") for c in val_cols]))
    import numpy as np

    keys = folded.column(key_col).combine_chunks()
    n = np.asarray(folded.column("_n"), dtype=np.float64)
    means = {c: np.asarray(folded.column(f"_s_{c}"), dtype=np.float64) / n
             for c in val_cols}
    return keys, n, means


def _centered_partial(key_col: str, val_cols: list[str], powers, mean_ref):
    """Pass-2 batch fn: per-key sums of centered value powers/products.

    ``powers`` is a list of (name, fn(centered_dict) -> np.ndarray) term
    builders; ``mean_ref`` is a plasma ref to (key_array, {col: means}) so
    the small side ships once per node, resolved lazily per task."""
    import numpy as np

    import ray

    def fn(batch: pa.Table) -> pa.Table:
        keys_arr, means = ray.get(mean_ref) if hasattr(mean_ref, "hex") else mean_ref
        sel = batch.select([key_col] + val_cols).drop_null()
        if sel.num_rows == 0:
            cols = {key_col: keys_arr.slice(0, 0)}
            cols.update({name: pa.array([], type=pa.float64())
                         for name, _ in powers})
            return pa.table(cols)
        idx = pc.index_in(sel.column(key_col), value_set=keys_arr)
        idxn = np.asarray(idx, dtype=np.int64)
        centered = {}
        for c in val_cols:
            x = np.asarray(sel.column(c), dtype=np.float64)
            centered[c] = x - means[c][idxn]
        terms = pa.table(
            {key_col: sel.column(key_col)}
            | {name: pa.array(build(centered)) for name, build in powers})
        return terms.group_by([key_col]).aggregate(
            [(name, "sum") for name, _ in powers]).rename_columns(
            [key_col] + [name for name, _ in powers])

    return fn


def grouped_moments(ds, *, key_col: str, val_col: str,
                    ndigits: int = 6, out_divisor: float = 1.0):
    """Per-group mean / sample stddev / sample-adjusted skewness & excess
    kurtosis, matching DuckDB's skewness()/kurtosis() bit-for-bit at the
    rounding digit (formulas pinned empirically; agreement ~1e-11).

    ``out_divisor`` divides mean and std at OUTPUT (before rounding); skew
    and kurtosis are scale-free. Feed integer-valued inputs (e.g.
    microsecond gaps) and rescale at the end: integer-valued float64
    partial sums are exact in ANY summation order, so the per-key mean is
    bit-identical to the SQL oracle's — per-row pre-division (us→s) would
    make each value carry an ulp and the rounded 6th decimal order-
    dependent. A DIVISOR, not a multiplier, deliberately: /1e6 is a single
    correctly-rounded operation matching SQL's ``avg(x)/1000000.0``, while
    *1e-6 double-rounds through the inexact constant 1e-6 and flips exact
    half-boundary values the other way.

    Corrected two-pass algorithm: pass 1 computes exact per-key means (one
    partial-aggregated exchange); the key→mean table — one row per key —
    broadcasts via plasma into pass 2, which exchanges per-batch sums of
    (x-mean)^2..4. Centering before summation is what keeps the float
    error below the rounding digit regardless of value magnitude; naive
    raw-moment sums (E[x^4] style) lose ~8 digits to cancellation on wide
    distributions. Driver state = one row per key, both passes stream."""
    import numpy as np

    import ray

    keys, n, means = _key_means(ds, key_col, [val_col])
    mean_ref = ray.put((keys, means))
    powers = [("_p2", lambda c: c[val_col] ** 2),
              ("_p3", lambda c: c[val_col] ** 3),
              ("_p4", lambda c: c[val_col] ** 4)]
    from ray.data.aggregate import Sum

    folded = _to_small_table(
        ds.map_batches(_centered_partial(key_col, [val_col], powers, mean_ref),
                       batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(*[Sum(p, alias_name=p) for p, _ in powers]))
    # align pass-2 rows to pass-1 key order
    idx = np.asarray(pc.index_in(folded.column(key_col), value_set=keys),
                     dtype=np.int64)
    s2 = np.zeros(len(keys)); s3 = np.zeros(len(keys)); s4 = np.zeros(len(keys))
    s2[idx] = np.asarray(folded.column("_p2"), dtype=np.float64)
    s3[idx] = np.asarray(folded.column("_p3"), dtype=np.float64)
    s4[idx] = np.asarray(folded.column("_p4"), dtype=np.float64)
    m2, m3, m4 = s2 / n, s3 / n, s4 / n
    with np.errstate(divide="ignore", invalid="ignore"):
        std = np.sqrt(s2 / (n - 1))
        g1 = m3 / m2 ** 1.5
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
        g2 = m4 / m2 ** 2 - 3.0
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    import ray.data as rd

    return rd.from_arrow(pa.table({
        key_col: keys,
        "n": pa.array(n.astype(np.int64)),
        "mean": pa.array(sql_round(means[val_col] / out_divisor, ndigits)),
        "std": pa.array(sql_round(std / out_divisor, ndigits)),
        "skew": pa.array(sql_round(skew, ndigits)),
        "kurt": pa.array(sql_round(kurt, ndigits))}))


def grouped_corr(ds, *, key_col: str, x_col: str, y_col: str,
                 ndigits: int = 6, cov_ndigits: int = 4):
    """Per-group Pearson correlation + sample covariance, matching DuckDB
    corr()/covar_samp(). Same two-pass centered machinery as
    grouped_moments (see there for the numerics rationale); rows where
    either column is null are dropped, matching SQL aggregate semantics."""
    import numpy as np

    import ray

    keys, n, means = _key_means(ds, key_col, [x_col, y_col])
    mean_ref = ray.put((keys, means))
    powers = [("_sxx", lambda c: c[x_col] ** 2),
              ("_syy", lambda c: c[y_col] ** 2),
              ("_sxy", lambda c: c[x_col] * c[y_col])]
    from ray.data.aggregate import Sum

    folded = _to_small_table(
        ds.map_batches(
            _centered_partial(key_col, [x_col, y_col], powers, mean_ref),
            batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(*[Sum(p, alias_name=p) for p, _ in powers]))
    idx = np.asarray(pc.index_in(folded.column(key_col), value_set=keys),
                     dtype=np.int64)
    sxx = np.zeros(len(keys)); syy = np.zeros(len(keys)); sxy = np.zeros(len(keys))
    sxx[idx] = np.asarray(folded.column("_sxx"), dtype=np.float64)
    syy[idx] = np.asarray(folded.column("_syy"), dtype=np.float64)
    sxy[idx] = np.asarray(folded.column("_sxy"), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = sxy / np.sqrt(sxx * syy)
        cov = sxy / (n - 1)
    import ray.data as rd

    return rd.from_arrow(pa.table({
        key_col: keys,
        "n": pa.array(n.astype(np.int64)),
        "corr": pa.array(sql_round(corr, ndigits)),
        # covar is scale-carrying (∝ x·y magnitude): absolute rounding must sit
        # above the ~1e-10-relative two-pass error on ~1e5-magnitude values
        "covar": pa.array(sql_round(cov, cov_ndigits))}))


def pivot_counts(ds, *, row_col: str, col_col: str,
                 col_values: list[str]):
    """Wide behavioral-feature matrix: one row per ``row_col`` key, one
    int64 count column per ``col_values`` entry (the user×event-type
    pivot that feeds feature stores).

    The category set must be enumerable (it defines the schema); the row
    key is unbounded. Per batch: indicator columns (one pc.equal per
    category — vectorized, no Python per row) partial-summed per row key,
    then ONE groupby exchange folds partials. Equivalent SQL: conditional
    aggregation (sum(CASE WHEN ...)).
    """
    names = [f"n_{v}" for v in col_values]

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({row_col: batch.column(row_col)} | {
            name: pc.cast(pc.equal(batch.column(col_col), v), pa.int64())
            for name, v in zip(names, col_values)})
        return t.group_by([row_col]).aggregate(
            [(n, "sum") for n in names]).rename_columns([row_col] + names)

    from ray.data.aggregate import Sum

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(row_col)
            .aggregate(*[Sum(n, alias_name=n) for n in names]))


def target_encode(ds, *, key_col: str, target_col: str,
                  out_col: str = "te", ndigits: int = 6,
                  decimals: int = 2):
    """Leave-one-out target encoding: each row gets the mean of its
    category's target EXCLUDING itself — the standard leakage-safe
    categorical feature. Singleton categories yield null (LOO undefined),
    matching SQL's nullif(n-1, 0).

    Pass 1: per-key (count, sum) partials — one exchange, one row per key.
    The key→(n, sum) table broadcasts; pass 2 computes
    (sum - y) / (n - 1) per row with two gathers, fully vectorized,
    no shuffle. SQL equivalent: window sum/count PARTITION BY key.

    Fixed-point numerics: the target is scaled to int64 at ``decimals``
    digits so the per-key sum is EXACT — float partial sums land within
    1 ulp of the SQL window sum, and with 2-decimal targets the LOO mean
    sits exactly on a rounding half-boundary often enough (13/10k rows
    observed) that ulp-order differences flip the rounded digit. Exact
    integer numerator + one division = bit-identical quotients in both
    engines.
    """
    import numpy as np

    import ray

    scale = 10 ** decimals

    def to_int(batch: pa.Table) -> pa.Table:
        y = np.asarray(batch.column(target_col), dtype=np.float64)
        return pa.table({key_col: batch.column(key_col),
                         "_yi": pa.array(np.rint(y * scale).astype(np.int64))})

    folded = _to_small_table(count_sum_by(
        ds.map_batches(to_int, batch_format="pyarrow"), key_col, "_yi",
        cnt_alias="_n", sum_alias="_s"))
    keys = folded.column(key_col).combine_chunks()
    n = np.asarray(folded.column("_n"), dtype=np.int64)
    s = np.asarray(folded.column("_s"), dtype=np.int64)
    ref = ray.put((keys, n, s))

    def attach(batch: pa.Table) -> pa.Table:
        k, nn, ss = ray.get(ref)
        idx = np.asarray(pc.index_in(batch.column(key_col), value_set=k),
                         dtype=np.int64)
        y = np.asarray(batch.column(target_col), dtype=np.float64)
        yi = np.rint(y * scale).astype(np.int64)
        denom = (nn[idx] - 1) * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            te = sql_round((ss[idx] - yi).astype(np.float64)
                           / denom.astype(np.float64), ndigits)
        vals = pa.array(te, type=pa.float64(),
                        mask=(denom == 0))  # singleton → null
        cols = [c for c in batch.column_names if c != out_col]
        return batch.select(cols).append_column(out_col, vals)

    return ds.map_batches(attach, batch_format="pyarrow")


def grouped_regression(ds, *, key_col: str, x_col: str, y_col: str,
                       ndigits: int = 6):
    """Per-group ordinary-least-squares trend line: slope, intercept and
    r² of y on x, matching SQL regr_slope/regr_intercept/regr_r2 — the
    metric-drift detector (value vs time per key).

    Same two-pass centered machinery as grouped_corr: exact per-key means
    broadcast, centered product partials exchanged once. slope = Sxy/Sxx,
    intercept = ȳ − slope·x̄, r² = Sxy²/(Sxx·Syy); groups with zero x
    variance yield nulls (SQL returns NULL there too).
    """
    import numpy as np

    import ray

    keys, n, means = _key_means(ds, key_col, [x_col, y_col])
    mean_ref = ray.put((keys, means))
    powers = [("_sxx", lambda c: c[x_col] ** 2),
              ("_syy", lambda c: c[y_col] ** 2),
              ("_sxy", lambda c: c[x_col] * c[y_col])]
    from ray.data.aggregate import Sum

    folded = _to_small_table(
        ds.map_batches(
            _centered_partial(key_col, [x_col, y_col], powers, mean_ref),
            batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(*[Sum(p, alias_name=p) for p, _ in powers]))
    idx = np.asarray(pc.index_in(folded.column(key_col), value_set=keys),
                     dtype=np.int64)
    sxx = np.zeros(len(keys)); syy = np.zeros(len(keys)); sxy = np.zeros(len(keys))
    sxx[idx] = np.asarray(folded.column("_sxx"), dtype=np.float64)
    syy[idx] = np.asarray(folded.column("_syy"), dtype=np.float64)
    sxy[idx] = np.asarray(folded.column("_sxy"), dtype=np.float64)
    bad = sxx == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = sxy / sxx
        intercept = means[y_col] - slope * means[x_col]
        r2 = np.where(syy == 0, np.nan, sxy * sxy / (sxx * syy))
    import ray.data as rd

    return rd.from_arrow(pa.table({
        key_col: keys,
        "n": pa.array(n.astype(np.int64)),
        "slope": pa.array(sql_round(slope, ndigits), mask=bad),
        "intercept": pa.array(sql_round(intercept, ndigits), mask=bad),
        "r2": pa.array(sql_round(r2, ndigits),
                       mask=bad | np.isnan(r2))}))


def grouped_ohlc(ds, *, key_cols: list[str], val_col: str, ts_col: str,
                 id_col: str):
    """Per-group OHLC candle: open/close = first/last ``val_col`` by
    (ts, id), plus high/low/count — the SQL arg_min/arg_max-by-tuple shape
    (reference analogue: per-segment first/last message stats,
    clp/streaming_archive/writer/Archive.cpp footer stats role).

    Shape: vectorized per-batch partial — dictionary-encode the keys,
    lexsort (keys, ts, id), run boundaries give one candle row per group
    per BATCH (reduceat for high/low, run endpoints for open/close) — then
    a groupby fold that merges candles by comparing their (ts, id)
    endpoints. The exchange carries one row per (group, batch), never the
    event stream; ties break on ``id_col`` so the result is deterministic.
    """
    import numpy as np

    keys = list(key_cols)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ts = np.asarray(batch.column(ts_col)).view(np.int64)
        rid = np.asarray(batch.column(id_col), dtype=np.int64)
        val = np.asarray(batch.column(val_col), dtype=np.float64)
        codes = []
        for k in keys:
            enc = batch.column(k).combine_chunks().dictionary_encode()
            codes.append(np.asarray(enc.indices, dtype=np.int64))
        order = np.lexsort((rid, ts, *reversed(codes)))
        sc = [c[order] for c in codes]
        brk = np.zeros(n, dtype=bool)
        brk[0] = True
        for c in sc:
            brk[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(brk)
        last = np.r_[starts[1:], n] - 1
        sts, srid, sval = ts[order], rid[order], val[order]
        cols = {k: pc.take(batch.column(k), pa.array(order[starts]))
                for k in keys}
        cols.update({
            "open": pa.array(sval[starts]), "close": pa.array(sval[last]),
            "high": pa.array(np.maximum.reduceat(sval, starts)),
            "low": pa.array(np.minimum.reduceat(sval, starts)),
            "cnt": pa.array(last - starts + 1),
            "_ots": pa.array(sts[starts]), "_oid": pa.array(srid[starts]),
            "_cts": pa.array(sts[last]), "_cid": pa.array(srid[last]),
        })
        return pa.table(cols)

    # finalize inside BOUNDED key-hash buckets, one vectorized run-fold per
    # bucket — never one Python call per (group) like a raw groupby(keys)
    # .map_groups would cost at millions of keys (the events_modal_type
    # lesson). Both lexsorts share the key columns as primary, so one run
    # segmentation serves the open (min ts,id) and close (max ts,id) sides.
    from clp_core_ray.pipelines.temporal import _key_and_bucket
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = scaled_buckets()

    def tag(b: pa.Table) -> pa.Table:
        h = np.zeros(b.num_rows, dtype=np.uint64)
        for k in keys:
            kk = np.asarray(_key_and_bucket(b.column(k), 1)[0]) \
                .view(np.uint64)
            h = (h * np.uint64(0x9E3779B97F4A7C15)) ^ kk
        return b.append_column(
            "_obucket", pa.array((h % np.uint64(nb)).astype(np.int32)))

    def fold(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["_obucket"])
        if group.num_rows == 0 or "open" not in group.column_names:
            return pa.table({})
        n = group.num_rows
        codes = []
        for k in keys:
            enc = group.column(k).combine_chunks().dictionary_encode()
            codes.append(np.asarray(enc.indices, dtype=np.int64))
        ots = np.asarray(group.column("_ots"), dtype=np.int64)
        oid = np.asarray(group.column("_oid"), dtype=np.int64)
        cts = np.asarray(group.column("_cts"), dtype=np.int64)
        cid = np.asarray(group.column("_cid"), dtype=np.int64)
        order = np.lexsort((oid, ots, *reversed(codes)))
        sc = [c[order] for c in codes]
        brk = np.zeros(n, dtype=bool)
        brk[0] = True
        for c in sc:
            brk[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(brk)
        last = np.r_[starts[1:], n] - 1
        order2 = np.lexsort((cid, cts, *reversed(codes)))
        cols = {k: pc.take(group.column(k), pa.array(order[starts]))
                for k in keys}
        cols.update({
            "open": pc.take(group.column("open"), pa.array(order[starts])),
            "close": pc.take(group.column("close"), pa.array(order2[last])),
            "high": pa.array(np.maximum.reduceat(
                np.asarray(group.column("high"),
                           dtype=np.float64)[order], starts)),
            "low": pa.array(np.minimum.reduceat(
                np.asarray(group.column("low"),
                           dtype=np.float64)[order], starts)),
            "cnt": pa.array(np.add.reduceat(
                np.asarray(group.column("cnt"),
                           dtype=np.int64)[order], starts)),
        })
        return pa.table(cols)

    cols = keys + [ts_col, id_col, val_col]
    return (ds.select_columns(cols)
            .map_batches(partial, batch_format="pyarrow")
            .map_batches(tag, batch_format="pyarrow")
            .groupby("_obucket")
            .map_groups(fold, batch_format="pyarrow"))
