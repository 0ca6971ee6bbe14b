"""GLT layout + windowed session operators."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def test_glt_layout_roundtrip(ray_session, tmp_path):
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import (
        COMBINE_THRESHOLD_ROWS,
        read_var_column,
        write_glt,
    )

    arch = str(tmp_path / "arch")
    counts = compress(0.001, arch)
    total = sum(counts.column("cnt").to_pylist())
    glt_dir = str(tmp_path / "glt")
    rows = write_glt(arch, glt_dir)
    assert sum(rows.values()) == total  # every row lands exactly once
    # dedicated dirs are the big logtypes; everything else in misc/
    dirs = set(os.listdir(glt_dir))
    ded = [d for d in dirs if d.startswith("logtype_id=")]
    for lid, n in rows.items():
        if n >= COMBINE_THRESHOLD_ROWS:
            assert f"logtype_id={lid & 0xFFFFFFFFFFFFFFFF:016x}" in dirs
    if ded:
        lid_hex = ded[0].split("=")[1]
        lid = int(lid_hex, 16)
        lid = lid - (1 << 64) if lid >= (1 << 63) else lid
        col = read_var_column(glt_dir, lid, 0).to_pandas()
        assert len(col) == rows[lid]
        assert f"var_0" in col.columns


def test_template_placeholder_types():
    from clp_core_ray.encoding import (VT_DICT, VT_FLOAT, VT_INT,
                                       placeholder_kinds)

    assert placeholder_kinds("a \x11 b \x12 c \x13") == [
        VT_INT, VT_DICT, VT_FLOAT
    ]
    # escaped placeholder bytes are literal text, not variables
    assert placeholder_kinds("x \\\x11 y \x12") == [VT_DICT]
    assert placeholder_kinds("no vars") == []


def test_align_positions():
    from clp_core_ray.pipelines.glt import align_positions

    ph = ["int", "dict", "int", "float"]
    # single int cond may sit at either int position
    assert align_positions(ph, ["int"]) == [[0, 2]]
    # ordered pair (int, float): int must precede the float
    assert align_positions(ph, ["int", "float"]) == [[0, 2], [3]]
    # two ints use both int positions in order
    assert align_positions(ph, ["int", "int"]) == [[0], [2]]
    # infeasible: no second dict
    assert align_positions(ph, ["dict", "dict"]) is None
    assert align_positions(ph, []) == []


def test_glt_search_matches_row_search(ray_session, tmp_path):
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import glt_search, write_glt
    from clp_core_ray.pipelines.search import search_archive

    arch = str(tmp_path / "arch")
    compress(0.001, arch)
    glt_dir = str(tmp_path / "glt")
    write_glt(arch, glt_dir)
    for q, ic in [("ERROR*timeout", False), ("*.bin errno=42*", False),
                  ("*calling svc-77 *", False),
                  ("error upstream*", True)]:
        a = search_archive(arch, q, ignore_case=ic).to_pandas()
        g = glt_search(arch, q, ignore_case=ic, glt_dir=glt_dir).to_pandas()
        assert len(a) == len(g), f"count diverges for {q!r}: {len(a)} vs {len(g)}"
        if len(a):
            a = a.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
            g = g.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
            assert a.equals(g), f"glt_search diverges for {q!r}"
    # dictionary-miss query prunes to empty without scanning
    assert glt_search(arch, "*zzz-never-present*", glt_dir=glt_dir).count() == 0


def test_glt_search_decodes_with_probed_var_dict(ray_session, tmp_path,
                                                 monkeypatch):
    """A var dict over ``execution.VAR_DICT_DRIVER_BYTES`` is probed per
    query, so the compile sees only the probe's entries; glt_search must
    still decode through the whole dictionary, as search_archive does."""
    from collections import OrderedDict

    import ray.data as rd

    from clp_core_ray import execution
    from clp_core_ray.pipelines import search as S
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import glt_search, write_glt
    from clp_core_ray.sources.transcripts import synth_transcripts

    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(synth_transcripts(3000, seed=3)))
    glt_dir = str(tmp_path / "glt")
    write_glt(arch, glt_dir)
    monkeypatch.setattr(execution, "VAR_DICT_DRIVER_BYTES", 0)
    monkeypatch.setattr(S, "_STATES", OrderedDict())
    for q in ("*", "*ERROR*", "*user*"):
        a = S.search_archive(arch, q).to_pandas()
        g = glt_search(arch, q, glt_dir=glt_dir).to_pandas()
        assert len(a) and len(a) == len(g), q
        a = a.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        g = g.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        assert a.equals(g), q


def test_glt_dedicated_scan_sides_agree(ray_session, tmp_path, monkeypatch):
    """The dedicated tables scan in process at most
    ``execution.LOCAL_SCAN_BYTES`` and as a Ray job above it, with the
    same rows."""
    import ray.data as rd

    from clp_core_ray import execution
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import glt_search, write_glt
    from clp_core_ray.sources.transcripts import synth_transcripts

    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(synth_transcripts(3000, seed=3)))
    glt_dir = str(tmp_path / "glt")
    write_glt(arch, glt_dir)
    keys = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    for q in ("*", "*ERROR*", "*user*"):
        got = []
        for limit in (1 << 62, -1):
            monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", limit)
            got.append(pa.concat_tables(
                pa.table(b) for b in glt_search(arch, q, glt_dir=glt_dir)
                .iter_batches(batch_format="pyarrow")).sort_by(keys))
        assert got[0].num_rows and got[0].equals(got[1]), q


def test_glt_hot_logtype_salting(ray_session, tmp_path):
    """A dominant logtype must split into multiple part files (no single
    map_groups task materializing the whole group)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import COMBINE_THRESHOLD_ROWS, write_glt

    arch = str(tmp_path / "arch")
    compress(0.01, arch)
    glt_dir = str(tmp_path / "glt")
    rows = write_glt(arch, glt_dir, target_rows_per_part=2000)
    hot = {lid: n for lid, n in rows.items()
           if n >= max(2 * 2000, COMBINE_THRESHOLD_ROWS)}
    assert hot, "fixture needs at least one logtype with >= 1000 rows"
    for lid, n in hot.items():
        d = os.path.join(glt_dir, f"logtype_id={lid & 0xFFFFFFFFFFFFFFFF:016x}")
        parts = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(parts) >= 2, f"hot logtype {lid} ({n} rows) wrote 1 part"
        # parts still hold exactly the logtype's rows
        assert sum(pq.ParquetFile(os.path.join(d, p)).metadata.num_rows
                   for p in parts) == n


def _synth_two_class_archive(tmp_path, n_per_class=1200):
    """Two classes with distinct templates; dict var 'zebrapath' only in
    class alpha."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress

    base = 1_700_000_000_000_000
    n = n_per_class
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(2 * n)]),
        "turn_idx": pa.array(np.arange(2 * n) % 997, type=pa.int32()),
        "role": pa.array(["user"] * (2 * n)),
        "text": pa.array(
            [f"request handled user=zebrapath latency={i}" for i in range(n)]
            + [f"response sent user=plainuser latency={i}" for i in range(n)]
        ),
        "tool": pa.array(["alpha"] * n + ["beta"] * n),
        "ts": pa.array([base + i * 1000 for i in range(2 * n)],
                       type=pa.timestamp("us")),
    })
    arch = str(tmp_path / "arch2")
    compress(None, arch, ds=rd.from_arrow(tbl), input_label="synthetic")
    return arch


def test_glt_segment_index_prunes_cells(ray_session, tmp_path):
    """The per-variable segment index must exclude logtypes whose classes
    can't host a dict-var condition — their GLT cells are never opened."""
    from clp_core_ray.pipelines.glt import glt_search, write_glt
    from clp_core_ray.pipelines.search import (
        compile_for_archive,
        search_archive,
        subquery_logtype_prune,
    )

    arch = _synth_two_class_archive(tmp_path)
    glt_dir = str(tmp_path / "glt2")
    write_glt(arch, glt_dir)

    q = "*user=zebrapath*"
    cq, ldict, var_ids, var_values, var_classes = compile_for_archive(arch, q)
    assert cq.subqueries
    allowed = subquery_logtype_prune(arch, cq, var_ids, var_classes)
    # the index must narrow every subquery to the alpha-class logtype(s)
    import json
    with open(os.path.join(arch, "class_logtypes.json")) as f:
        by_class = json.load(f)
    beta_only = set(by_class["beta"]) - set(by_class["alpha"])
    assert beta_only, "fixture must produce a beta-exclusive logtype"
    for ok in allowed:
        assert ok is not None and not (ok & beta_only)

    # poison the beta logtype's GLT cells: if pruning works they are never
    # opened; without pruning the scan would crash on the invalid parquet
    for lid in beta_only:
        d = os.path.join(glt_dir, f"logtype_id={lid & 0xFFFFFFFFFFFFFFFF:016x}")
        if os.path.isdir(d):
            for fpart in os.listdir(d):
                with open(os.path.join(d, fpart), "wb") as fh:
                    fh.write(b"not a parquet file")

    g = glt_search(arch, q, glt_dir=glt_dir).to_pandas()
    a = search_archive(arch, q).to_pandas()
    assert len(g) == len(a) == 1200
    g = g.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    a = a.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert g.equals(a)


def test_sessionize_gap_split(ray_session):
    import ray.data as rd

    from clp_core_ray.pipelines.windows import session_stats, sessionize

    base = 1_700_000_000_000_000
    tbl = pa.table(
        {
            "conv_id": pa.array(["a"] * 4 + ["b"] * 2),
            "turn_idx": pa.array([0, 1, 2, 3, 0, 1], type=pa.int32()),
            "ts": pa.array(
                [base, base + 10_000_000, base + 700_000_000 + 10_000_000,
                 base + 700_000_000 + 20_000_000, base, base + 1_000_000],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = sessionize(rd.from_arrow(tbl)).to_pandas().sort_values(
        ["conv_id", "turn_idx"]
    )
    assert out.session_id.tolist() == [0, 0, 1, 1, 0, 0]
    st = session_stats(rd.from_arrow(tbl)).to_pandas().sort_values(
        ["conv_id", "session_id"]
    )
    assert st.n_turns.tolist() == [2, 2, 2]


def test_conv_examples(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import conv_examples

    # turns arrive out of order and split across partitions
    t = pa.table({
        "conv_id": ["b", "a", "a", "b", "a", "c"],
        "turn_idx": pa.array([1, 2, 0, 0, 1, 0], type=pa.int32()),
        "role": ["assistant", "assistant", "user", "user", None, "user"],
        "text": ["world", "done", "hi", "hello", None, "solo"],
        "tool": [""] * 6,
    })
    ds = rd.from_arrow(t).repartition(3)
    df = conv_examples(ds).to_pandas().set_index("conv_id").sort_index()
    assert df.loc["a", "example"] == "user: hi\n: \nassistant: done"
    assert df.loc["b", "example"] == "user: hello\nassistant: world"
    assert df.loc["c", "example"] == "user: solo"
    assert df["n_turns"].tolist() == [3, 2, 1]


def test_turn_pairs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import turn_pairs

    t = pa.table({
        "conv_id": ["a", "a", "a", "a", "b", "b", "c"],
        "turn_idx": pa.array([0, 1, 2, 3, 0, 1, 0], type=pa.int32()),
        "role": ["user", "assistant", "assistant", "user",
                 "assistant", "user", "user"],
        "text": ["q1", "a1", "a2", "q2", "orphan", "late", "solo"],
        "tool": [""] * 7,
    })
    df = turn_pairs(rd.from_arrow(t).repartition(3)).to_pandas()
    got = sorted(zip(df["conv_id"], df["prompt"], df["completion"]))
    # only adjacent user→assistant transitions: a(0→1); NOT a(1→2)
    # (assistant→assistant), NOT b (assistant first), NOT across convs
    assert got == [("a", "q1", "a1")]


def test_trailing_window_agg_range_peers(ray_session):
    """RANGE-frame semantics incl. equal-ts PEERS (later physical rows with
    the same ts count), window boundary inclusive, partitions independent."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import trailing_window_agg

    W = 100  # window in us
    #              rid  key  ts    val
    rows = [(0, 1, 0, 1),
            (1, 1, 50, 2),
            (2, 1, 100, 4),   # ts-0 still inside (boundary inclusive)
            (3, 1, 100, 8),   # PEER of rid 2: both frames include both
            (4, 1, 300, 16),  # everything else aged out
            (5, 2, 60, 32)]   # other partition unaffected
    t = pa.table({
        "rid": pa.array([r[0] for r in rows], type=pa.int64()),
        "k": pa.array([r[1] for r in rows], type=pa.int64()),
        "ts": pa.array(np.array([r[2] for r in rows], dtype="datetime64[us]")),
        "v": pa.array([r[3] for r in rows], type=pa.int64())})
    out = trailing_window_agg(rd.from_arrow(t).repartition(3), key="k",
                              ts_col="ts", row_id_col="rid", window_us=W,
                              val_col="v").to_pandas().set_index("rid")
    assert out.loc[0, "trailing_cnt"] == 1 and out.loc[0, "trailing_sum"] == 1
    assert out.loc[1, "trailing_cnt"] == 2 and out.loc[1, "trailing_sum"] == 3
    # rids 2 and 3 are peers at ts=100: frame = {0,1,2,3} for BOTH
    for rid in (2, 3):
        assert out.loc[rid, "trailing_cnt"] == 4
        assert out.loc[rid, "trailing_sum"] == 15
    assert out.loc[4, "trailing_cnt"] == 1 and out.loc[4, "trailing_sum"] == 16
    assert out.loc[5, "trailing_cnt"] == 1 and out.loc[5, "trailing_sum"] == 32


def test_global_rank_ties_and_desc(ray_session):
    """SQL RANK() semantics: ties share the min rank, gaps after ties;
    DESC ranks the largest value 1. Ties must not straddle range buckets."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import global_rank

    vals = np.array([5, 3, 3, 9, 1, 9, 9, 7], dtype=np.int64)
    t = pa.table({"rid": pa.array(np.arange(len(vals))), "v": pa.array(vals)})
    ds = rd.from_arrow(t).repartition(4)

    out = global_rank(ds, val_col="v", row_id_col="rid",
                      n_buckets=4).to_pandas().set_index("rid")["rnk"]
    # ASC: 1->1, 3->2,2, 5->4, 7->5, 9->6,6,6
    assert out.loc[4] == 1
    assert out.loc[1] == 2 and out.loc[2] == 2
    assert out.loc[0] == 4 and out.loc[7] == 5
    assert all(out.loc[i] == 6 for i in (3, 5, 6))

    outd = global_rank(ds, val_col="v", row_id_col="rid", n_buckets=4,
                       descending=True).to_pandas().set_index("rid")["rnk"]
    assert all(outd.loc[i] == 1 for i in (3, 5, 6))
    assert outd.loc[7] == 4 and outd.loc[0] == 5
    assert outd.loc[1] == 6 and outd.loc[2] == 6 and outd.loc[4] == 8


def test_global_window_suite(ray_session):
    """RANK/DENSE_RANK/ROW_NUMBER/NTILE in one pass match SQL semantics,
    including N < ntile and heavy duplication."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import global_window

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 4, size=41).astype(np.int64)
    ids = np.arange(41, dtype=np.int64)
    rng.shuffle(ids)
    t = pa.table({"id": pa.array(ids), "v": pa.array(vals)})
    out = global_window(
        rd.from_arrow(t).repartition(5), val_col="v", row_id_col="id",
        funcs=("rank", "dense_rank", "row_number", "ntile"), ntile=50,
        n_buckets=3).to_pandas().sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    o = con.execute(
        "SELECT id, RANK() OVER (ORDER BY v) rnk,"
        " DENSE_RANK() OVER (ORDER BY v) drnk,"
        " ROW_NUMBER() OVER (ORDER BY v, id) rn,"
        " NTILE(50) OVER (ORDER BY v, id) tile FROM t ORDER BY id").df()
    for c in ("rnk", "drnk", "rn", "tile"):
        assert (out[c].astype("int64").values
                == o[c].astype("int64").values).all(), c


def test_partition_window_boundaries(ray_session):
    """rn restarts per partition, gap_us is -1 at each partition start,
    run_sum resets, ties ordered by row id."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import partition_window

    #          rid key  ts  val
    rows = [(10, 1, 100, 5),
            (11, 1, 100, 7),    # ts tie with rid 10 -> ordered after by rid
            (12, 1, 250, 1),
            (20, 2, 100, 3),    # new partition: rn restarts, gap -1
            (21, 2, 90, 2)]     # earlier ts sorts first within partition 2
    t = pa.table({
        "rid": pa.array([r[0] for r in rows], type=pa.int64()),
        "k": pa.array([r[1] for r in rows], type=pa.int64()),
        "ts": pa.array(np.array([r[2] for r in rows], dtype="datetime64[us]")),
        "v": pa.array([r[3] for r in rows], type=pa.int64())})
    out = partition_window(rd.from_arrow(t).repartition(3), key="k",
                           ts_col="ts", row_id_col="rid", val_col="v"
                           ).to_pandas().set_index("rid")
    assert list(out.loc[[10, 11, 12], "rn"]) == [1, 2, 3]
    assert list(out.loc[[10, 11, 12], "gap_us"]) == [-1, 0, 150]
    assert list(out.loc[[10, 11, 12], "run_sum"]) == [5, 12, 13]
    assert list(out.loc[[21, 20], "rn"]) == [1, 2]
    assert list(out.loc[[21, 20], "gap_us"]) == [-1, 10]
    assert list(out.loc[[21, 20], "run_sum"]) == [2, 5]


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=6, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=60),
       st.integers(2, 9))
def test_global_window_property(ray_session, vals, k):
    """Any int multiset, any NTILE k: all four functions equal DuckDB."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import global_window

    n = len(vals)
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                  "v": pa.array(np.asarray(vals, dtype=np.int64))})
    out = global_window(
        rd.from_arrow(t).repartition(3), val_col="v", row_id_col="id",
        funcs=("rank", "dense_rank", "row_number", "ntile"), ntile=k,
        n_buckets=4).to_pandas().sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    o = con.execute(
        f"SELECT id, RANK() OVER (ORDER BY v) rnk,"
        f" DENSE_RANK() OVER (ORDER BY v) drnk,"
        f" ROW_NUMBER() OVER (ORDER BY v, id) rn,"
        f" NTILE({k}) OVER (ORDER BY v, id) tile FROM t ORDER BY id").df()
    for c in ("rnk", "drnk", "rn", "tile"):
        assert (out[c].astype("int64").values
                == o[c].astype("int64").values).all(), c


@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 200),
                          st.integers(-20, 20)),
                min_size=1, max_size=60))
def test_partition_window_property(ray_session, rows):
    """Any (key, ts, val) multiset: rn / gap_us / run_sum equal DuckDB."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import partition_window

    n = len(rows)
    t = pa.table({
        "rid": pa.array(np.arange(n, dtype=np.int64)),
        "k": pa.array(np.asarray([r[0] for r in rows], dtype=np.int64)),
        "ts": pa.array(np.asarray([r[1] for r in rows],
                                  dtype="datetime64[us]")),
        "v": pa.array(np.asarray([r[2] for r in rows], dtype=np.int64))})
    out = partition_window(
        rd.from_arrow(t).repartition(3), key="k", ts_col="ts",
        row_id_col="rid", val_col="v",
        n_buckets=4).to_pandas().sort_values("rid").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    o = con.execute(
        "SELECT rid, ROW_NUMBER() OVER w rn,"
        " COALESCE(epoch_us(ts) - LAG(epoch_us(ts)) OVER w, -1) gap_us,"
        " CAST(SUM(v) OVER (w ROWS UNBOUNDED PRECEDING) AS BIGINT) run_sum"
        " FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid)"
        " ORDER BY rid").df()
    for c in ("rn", "gap_us", "run_sum"):
        assert (out[c].astype("int64").values
                == o[c].astype("int64").values).all(), c


@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(-9, 9)),
                min_size=1, max_size=50),
       st.booleans())
def test_grouped_rank_property(ray_session, rows, desc):
    """String-keyed per-group RANK/DENSE_RANK/ROW_NUMBER equal DuckDB for
    arbitrary multisets, both directions."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import grouped_rank

    n = len(rows)
    t = pa.table({
        "rid": pa.array(np.arange(n, dtype=np.int64)),
        "k": pa.array([r[0] for r in rows]),
        "v": pa.array(np.asarray([r[1] for r in rows], dtype=np.int64))})
    out = grouped_rank(rd.from_arrow(t).repartition(3), key="k", val_col="v",
                       row_id_col="rid", descending=desc,
                       n_buckets=4).to_pandas().sort_values("rid")
    d = "DESC" if desc else ""
    con = duckdb.connect()
    con.register("t", t)
    o = con.execute(
        f"SELECT rid, RANK() OVER (PARTITION BY k ORDER BY v {d}) rnk,"
        f" DENSE_RANK() OVER (PARTITION BY k ORDER BY v {d}) drnk,"
        f" ROW_NUMBER() OVER (PARTITION BY k ORDER BY v {d}, rid) rn"
        f" FROM t ORDER BY rid").df()
    for c in ("rnk", "drnk", "rn"):
        assert (out[c].astype("int64").values
                == o[c].astype("int64").values).all(), (c, desc)


def test_new_window_ops_empty_input(ray_session):
    """Empty Datasets yield schema-stable empty results, no crashes."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import global_window
    from clp_core_ray.pipelines.temporal import funnel_steps, funnel_users
    from clp_core_ray.pipelines.windows import grouped_rank, partition_window

    ets = pa.table({
        "rid": pa.array([], type=pa.int64()),
        "k": pa.array([], type=pa.int64()),
        "ks": pa.array([], type=pa.string()),
        "ts": pa.array(np.array([], dtype="datetime64[us]")),
        "v": pa.array([], type=pa.int64()),
        "et": pa.array([], type=pa.string())})
    ds = rd.from_arrow(ets)
    gw = global_window(ds, val_col="v", row_id_col="rid",
                       funcs=("rank", "row_number"))
    assert gw.count() == 0
    assert gw.schema().names == ["rid", "rnk", "rn"]
    assert partition_window(ds, key="k", ts_col="ts", row_id_col="rid",
                            val_col="v").to_pandas().empty
    assert grouped_rank(ds, key="ks", val_col="v",
                        row_id_col="rid").to_pandas().empty
    assert funnel_users(ds, key="k", ts_col="ts", type_col="et",
                        from_type="A", to_type="B",
                        window_us=10).to_pandas().empty
    assert funnel_steps(ds, key="k", ts_col="ts", type_col="et",
                        steps=["A", "B"], window_us=10).to_pandas().empty


def test_scaled_buckets_grow_with_cluster(ray_session):
    """Bucket count must scale with cluster CPUs (fixed 64 would make one
    map_groups task hold corpus/64 at ANY cluster size)."""
    import ray

    from clp_core_ray.pipelines.windows import scaled_buckets

    ncpu = int(ray.cluster_resources()["CPU"])
    assert scaled_buckets() == max(64, 4 * ncpu)
    # growth with CPUs: per_cpu dominates once it beats the floor
    assert scaled_buckets(minimum=8, per_cpu=100) == 100 * ncpu
    # the floor protects small sessions
    assert scaled_buckets(minimum=1024) == 1024


def test_trailing_distinct_count_vs_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from clp_core_ray.pipelines.windows import trailing_distinct_count

    rng = np.random.default_rng(21)
    n = 3000
    # 40 days with gaps (days 12-14 absent) — observed-day pruning matters
    day = rng.integers(0, 40, n)
    day[(day >= 12) & (day <= 14)] = 11
    users = rng.integers(0, 60, n)
    base = pd.Timestamp("2024-03-01").value // 1000
    ts = pa.array(base + day * 86_400_000_000 +
                  rng.integers(0, 86_400_000_000, n),
                  type=pa.timestamp("us"))
    ds = rd.from_arrow(pa.table({"u": pa.array(users),
                                 "ts": ts})).repartition(5)
    out = trailing_distinct_count(ds, key_col="u", ts_col="ts",
                                  window_days=7).to_pandas()
    got = dict(zip(out["day"], out["wau"]))

    obs_days = sorted(set(day))
    want = {}
    for d in obs_days:
        active = set(users[(day >= d - 6) & (day <= d)])
        want[pd.Timestamp(base + d * 86_400_000_000, unit="us")] = len(active)
    assert {pd.Timestamp(k): v for k, v in got.items()} == want


def test_grouped_percentiles_ties_vs_duckdb(ray_session):
    """percent_rank/cume_dist with HEAVY value ties (integers) and string
    keys, vs the DuckDB window — peers must share rank and cume_dist."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clp_core_ray.pipelines.windows import grouped_percentiles

    rng = np.random.default_rng(51)
    n = 4000
    t = pa.table({
        "eid": pa.array(np.arange(n, dtype=np.int64)),
        "g": pa.array(rng.choice(["a", "b", "one"], n,
                                 p=[0.5, 0.4997, 0.0003])),
        "v": pa.array(rng.integers(0, 12, n).astype(np.float64)),
    })
    got = (grouped_percentiles(rd.from_arrow(t).repartition(7), key="g",
                               val_col="v", row_id_col="eid")
           .to_pandas().set_index("eid").sort_index())
    want = duckdb.sql(
        "SELECT eid,"
        " round(percent_rank() OVER (PARTITION BY g ORDER BY v), 6) AS pr,"
        " round(cume_dist() OVER (PARTITION BY g ORDER BY v), 6) AS cd"
        " FROM t ORDER BY eid").df().set_index("eid")
    assert (got["pct_rank"].values == want["pr"].values).all()
    assert (got["cume_dist"].values == want["cd"].values).all()
