"""End-to-end pipeline tests (reference model: golden round-trip +
routed-count invariants, SURVEY.md §5)."""

import os

import numpy as np
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clp_core_ray import execution

SF = 0.0005  # ~3000 turns — small but multi-fragment


@pytest.fixture(scope="module")
def tiny_transcripts(ray_session):
    from clp_core_ray.sources.transcripts import transcripts_path

    return transcripts_path(SF)


def test_transcripts_deterministic(tiny_transcripts):
    from clp_core_ray.sources.transcripts import n_turns_for_sf, synth_transcripts

    t1 = synth_transcripts(500)
    t2 = synth_transcripts(500)
    assert t1.equals(t2)
    assert t1.schema.field("conv_id").type == pa.string()
    assert t1.schema.field("turn_idx").type == pa.int32()
    assert t1.schema.field("ts").type == pa.timestamp("us")
    assert n_turns_for_sf(0.1) == 600_000


def test_roundtrip_equality(ray_session, tiny_transcripts):
    """Per-turn text round-trip under stable (conv_id, turn_idx) ordering."""
    from clp_core_ray.pipelines.compress import build_encoded, roundtrip_check
    from clp_core_ray.sources.transcripts import read_transcripts
    from clp_core_ray.stages.encode import DecodeStage

    rt = roundtrip_check(SF)
    assert rt.column("n_turns")[0].as_py() == rt.column("n_ok")[0].as_py() > 0

    # explicit sorted-compare variant (the reference's sorted-diff pattern,
    # test-clp_s-end_to_end.cpp:39-126)
    enc = build_encoded(read_transcripts(SF), keep_text=True)
    dec = enc.map_batches(DecodeStage(out_col="decoded"), batch_format="pyarrow")
    df = dec.sort(["conv_id", "turn_idx"]).to_pandas()
    orig = read_transcripts(SF).sort(["conv_id", "turn_idx"]).to_pandas()
    assert (df["decoded"].values == orig["text"].values).all()


def test_routed_sink_counts_match_aggregate(ray_session, tiny_transcripts, tmp_path):
    """Per-sink aggregate counts == routed-row counts (north_rule invariant)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import read_transcripts
    from clp_core_ray.stages.route import RouteStage

    out = str(tmp_path / "arch")
    counts = compress(SF, out)
    got = dict(
        zip(counts.column("logtype_class").to_pylist(), counts.column("cnt").to_pylist())
    )
    # recount rows physically present in each sink partition dir
    routed = os.path.join(out, "routed")
    for d in os.listdir(routed):
        if not d.startswith("logtype_class="):
            continue
        cls = d.split("=", 1)[1]
        n = sum(
            pq.ParquetFile(os.path.join(routed, d, f)).metadata.num_rows
            for f in os.listdir(os.path.join(routed, d))
            if f.endswith(".parquet")
        )
        assert got[cls] == n, f"class {cls}: agg {got[cls]} != sink rows {n}"
    # and the total matches the input
    assert sum(got.values()) == read_transcripts(SF).count()


def test_fragment_resume(ray_session, tiny_transcripts, tmp_path):
    from clp_core_ray.pipelines.compress import run_fragments
    from clp_core_ray.state.manifest import completed_fragments, read_manifests

    out = str(tmp_path / "frag")
    done = run_fragments(SF, out)
    assert len(done) == 8
    # simulate a crash on one fragment: drop its manifest → only it reruns
    victim = done[3]
    os.remove(os.path.join(out, "_manifests", f"{victim}.json"))
    shutil.rmtree(os.path.join(out, f"fragment={victim}"))
    done2 = run_fragments(SF, out)
    assert done2 == [victim]
    assert len(completed_fragments(out)) == 8
    # lineage records carry counts AND metrics (north-rule: lineage + metrics)
    for m in read_manifests(out):
        assert "class_counts" in m
        assert m["metrics"]["wall_sec"] > 0 and m["metrics"]["rows_per_sec"] > 0
    done3 = run_fragments(SF, out)
    assert done3 == []


def test_fragment_pruning_by_path_and_time(ray_session, tiny_transcripts, tmp_path):
    """J5: manifests play the metadata-DB role — fragments are selectable by
    input path glob and begin/end timestamp overlap before any data is read
    (clg's archive selection by file path + --tge/--tle)."""
    from clp_core_ray.pipelines.compress import run_fragments
    from clp_core_ray.state.manifest import read_manifests, select_fragments

    out = str(tmp_path / "fragsel")
    done = run_fragments(SF, out)
    mans = read_manifests(out)
    assert len(mans) == len(done)
    # every fragment records its sink's time range from parquet footers
    assert all("ts_min" in m and "ts_max" in m for m in mans)
    assert all(int(m["ts_min"]) <= int(m["ts_max"]) for m in mans)

    # no filters → everything
    assert len(select_fragments(out)) == len(mans)
    # path pruning: a glob matching exactly one input file
    one = mans[0]
    sel = select_fragments(out, path_glob=str(one["input"]))
    assert [m["fragment_id"] for m in sel] == [one["fragment_id"]]
    assert select_fragments(out, path_glob="*/nonexistent*") == []
    # time pruning: a window covering only one fragment's range keeps it
    # (plus any other fragment whose range overlaps), and a disjoint window
    # far in the future prunes everything
    lo, hi = int(one["ts_min"]), int(one["ts_max"])
    sel = select_fragments(out, ts_range=(lo, hi))
    assert one["fragment_id"] in {m["fragment_id"] for m in sel}
    far = max(int(m["ts_max"]) for m in mans) + 10_000_000
    assert select_fragments(out, ts_range=(far, far + 1)) == []


def test_dictionaries_and_broadcast_decode(ray_session, tiny_transcripts):
    """The logtype and var dictionaries of an encoded Dataset: one row per
    logtype id, one per var id."""
    from clp_core_ray.pipelines.compress import build_encoded
    from clp_core_ray.sources.transcripts import read_transcripts
    from clp_core_ray.state.dictionaries import logtype_dict, var_dict

    enc = build_encoded(read_transcripts(SF), keep_text=True)
    ld = logtype_dict(enc).to_pandas()
    assert ld["logtype_id"].is_unique and len(ld) > 3
    vd = var_dict(build_encoded(read_transcripts(SF))).to_pandas()
    assert vd["var_id"].is_unique and len(vd) > 0


def test_search_matches_bruteforce(ray_session, tiny_transcripts, tmp_path):
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archive
    from clp_core_ray.sources.transcripts import read_transcripts

    out = str(tmp_path / "arch2")
    compress(SF, out)
    hits = (
        search_archive(os.path.join(out, "routed"), "ERROR*timeout")
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    df = read_transcripts(SF).to_pandas()
    want = df[df["text"].str.contains("ERROR") & df["text"].str.match(".*ERROR.*timeout.*")]
    want = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(hits) == len(want)
    assert (hits["text"].values == want["text"].values).all()


def test_var_dict_distributed_probe(ray_session, tiny_transcripts, tmp_path,
                                    monkeypatch):
    """Forcing the distributed var-dict probe (driver-size cap 0) must give
    byte-identical search results to the driver-load path, across query
    shapes: dict-var exact, wildcard dict token, dictionary miss (prunes to
    empty), and a query with no dict lookups (probe short-circuits)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archive

    out = str(tmp_path / "arch_probe")
    compress(SF, out)
    queries = ["ERROR*timeout", "*latency*", "zz_no_such_token_zz", "42"]

    def run_all():
        res = {}
        for q in queries:
            got = search_archive(out, q).to_pandas()
            if len(got):  # empty frames can lose their schema in to_pandas
                got = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
            res[q] = got
        return res

    base = run_all()
    monkeypatch.setattr(execution, "VAR_DICT_DRIVER_BYTES", 0)
    probed = run_all()
    assert len(base["ERROR*timeout"]) > 0
    assert len(base["zz_no_such_token_zz"]) == 0
    for q in queries:
        assert len(base[q]) == len(probed[q]), q
        if len(base[q]):
            assert base[q].equals(probed[q]), q


def test_dict_epoch_rollover(ray_session, tmp_path, monkeypatch):
    """A tiny dictionary cap forces epoch rollover (CLP's 100 MiB archive
    split, CommandLineArguments.hpp:28-30): the stage's seen-sets reset, later
    batches re-emit entries, and multi-epoch archives still decode
    byte-identical (finalize dedups across epochs)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.sources.transcripts import read_transcripts
    from clp_core_ray.stages import encode
    from clp_core_ray.stages.encode import EncodeStage

    # unit: one long-lived stage over several batches rolls epochs
    ddir = str(tmp_path / "unit_deltas")
    st = EncodeStage(dict_delta_dir=ddir, dict_cap_entries=5)
    for b in range(3):
        st(pa.table({"text": [f"call id=req{b}x{i} done" for i in range(10)]}))
    epochs = {f.split("-")[1] for f in os.listdir(ddir)}
    assert len(epochs) > 1, f"expected multi-epoch deltas, got {epochs}"
    assert st._epoch >= 1

    # e2e: compress under a tiny cap still decodes byte-identical
    monkeypatch.setattr(encode, "DICT_CAP_ENTRIES", 20)
    out = str(tmp_path / "epochs")
    compress(SF, out)
    dec = decompress(out).to_pandas().sort_values(["conv_id", "turn_idx"])
    orig = read_transcripts(SF).to_pandas().sort_values(["conv_id", "turn_idx"])
    assert (dec["text"].values == orig["text"].values).all()


def test_var_segment_index(ray_session, tiny_transcripts, tmp_path):
    """The var dictionary carries a per-entry class list (the per-variable
    segment index, DictionaryWriter.hpp:179-202) and a dict-var search
    prunes sink partitions that lack the entry (clg.cpp:249-298)."""
    import numpy as np

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archive
    from clp_core_ray.sources.transcripts import read_transcripts

    out = str(tmp_path / "arch_vidx")
    compress(SF, out)

    # every var.dict part has the classes column; class lists are non-empty
    vdir = os.path.join(out, "var.dict")
    parts = [os.path.join(vdir, f) for f in sorted(os.listdir(vdir))
             if f.endswith(".parquet")]
    vtbl = pa.concat_tables(pq.read_table(p) for p in parts)
    assert "classes" in vtbl.column_names
    assert pc.min(pc.list_value_length(vtbl.column("classes"))).as_py() >= 1
    # ids unique across parts (aggregated, not exploded)
    ids = vtbl.column("var_id").to_pylist()
    assert len(ids) == len(set(ids))

    # cross-check the index against the data: each (var, class) observed in
    # a driver-side re-encode must be present in the entry's class list
    from clp_core_ray.stages.encode import EncodeStage
    from clp_core_ray.stages.route import RouteStage
    from clp_core_ray.sources.transcripts import synth_transcripts

    raw = synth_transcripts(3000)
    enc_tbl = EncodeStage(keep_text=False)(RouteStage()(raw))
    routed = enc_tbl.select(["dict_vars", "logtype_class"]).to_pandas()
    df = read_transcripts(SF).to_pandas()
    sample = vtbl.slice(0, 200).to_pylist()
    for row in sample[:20]:
        observed = set(
            routed.loc[
                routed["dict_vars"].map(lambda dv, v=row["value"]: v in list(dv)),
                "logtype_class",
            ]
        )
        assert observed <= set(row["classes"])
        assert observed  # entry must occur somewhere

    # a dict-var query must still return exact results under index pruning
    val = None
    for row in sample:
        cls = set(row["classes"])
        if len(cls) == 1 and " " not in row["value"]:
            val = row["value"]
            break
    if val is not None:
        hits = search_archive(os.path.join(out, "routed"), val).to_pandas()
        want = df[df["text"].str.contains(val, regex=False)]
        assert len(hits) == len(want)


def test_multi_archive_search_and_pruning(ray_session, tmp_path):
    """clg archive iteration: per-archive dicts, manifest-driven time/path
    selection, newest-first order, and union equality vs one big archive."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import (
        search_archives,
        search_count,
        search_count_by_time,
        select_archives,
    )
    from clp_core_ray.sources.transcripts import read_transcripts

    base = str(tmp_path / "archives")
    full = read_transcripts(0.001)
    # time-split halves → disjoint ts ranges → time pruning can bite
    import pyarrow.compute as pc

    tbl = full.to_pandas()
    mid = tbl["ts"].quantile(0.5)
    lo = tbl[tbl["ts"] <= mid]
    hi = tbl[tbl["ts"] > mid]
    compress(0.001, f"{base}/a0", ds=rd.from_pandas(lo), input_label="half-lo")
    compress(0.001, f"{base}/a1", ds=rd.from_pandas(hi), input_label="half-hi")

    # selection: no predicate → both, newest (a1) first
    dirs = select_archives(base)
    assert [d.rsplit("/", 1)[1] for d in dirs] == ["a1", "a0"]
    # time pruning: a window strictly inside the upper half keeps only a1
    import json
    import os

    m1 = json.load(open(os.path.join(base, "a1", "_manifests", "full.json")))
    assert select_archives(base, ts_min=m1["ts_min"]) == [os.path.join(base, "a1")]
    # path pruning by the recorded input label
    assert select_archives(base, path_glob="half-lo") == [os.path.join(base, "a0")]

    # union equality vs a single archive over the same rows
    single = str(tmp_path / "single")
    compress(0.001, single)
    a = search_archives(base, "ERROR*timeout").to_pandas()
    b = __import__("clp_core_ray.pipelines.search", fromlist=["search_archive"]) \
        .search_archive(single, "ERROR*timeout").to_pandas()
    key = ["conv_id", "turn_idx"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True))

    # count modes agree with the row search
    assert search_count(base, "ERROR*timeout").column("cnt")[0].as_py() == len(a)
    cbh = search_count_by_time(base, "ERROR*timeout").to_pandas()
    assert cbh["cnt"].sum() == len(a)


def test_fused_sink_retry_idempotent(ray_session, tmp_path):
    """A retried fused-sink task must overwrite its own output, not
    duplicate it: file names are content-derived, so running the stage twice
    on the same block yields the same files and the same archive rows."""
    from clp_core_ray.pipelines.compress import FusedSinkStage

    n = 500
    base = 1_700_000_000_000_000
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 31, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO req {i} took {i % 9}.5 ms" for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base + i * 1000 for i in range(n)],
                       type=pa.timestamp("us")),
    })
    routed = str(tmp_path / "routed")
    stage = FusedSinkStage(routed, compact=True)
    s1 = stage(tbl)
    files1 = sorted(os.path.join(r, f) for r, _, fs in os.walk(routed)
                    for f in fs if f.endswith(".parquet"))
    s2 = stage(tbl)  # the "retry"
    files2 = sorted(os.path.join(r, f) for r, _, fs in os.walk(routed)
                    for f in fs if f.endswith(".parquet"))
    assert files1 == files2  # overwrote, never duplicated
    assert s1.equals(s2)
    import pyarrow.parquet as pq
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in files2) == n
    assert not [f for r, _, fs in os.walk(routed)
                for f in fs if f.endswith(".inprogress")]


def test_fused_sink_survives_real_task_retry(ray_session, tmp_path):
    """End-to-end retry: a fused-sink task crashes after writing PART of its
    files, Ray retries it, and the archive still has exactly the input rows
    (the retried attempt overwrites its content-named files; no duplicates,
    no missing classes)."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import FusedSinkStage

    n = 400
    base = 1_700_000_000_000_000
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 5}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 23, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO req {i} took {i % 7}.25 ms" for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base + i * 1000 for i in range(n)],
                       type=pa.timestamp("us")),
    })
    routed = str(tmp_path / "routed")
    marker = str(tmp_path / "crashed.once")

    class CrashOnceSink(FusedSinkStage):
        def __call__(self, block: pa.Table) -> pa.Table:
            out = super().__call__(block)  # files are on disk already
            if not os.path.exists(marker):
                fd = os.open(marker, os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"1")
                os.close(fd)
                # die like a real worker (OOM-kill shape): Ray retries the
                # task as a system failure; a raised exception would instead
                # surface as a user-code error
                os._exit(1)
            return out

    ds = rd.from_arrow(tbl).repartition(2)
    stats = ds.map_batches(CrashOnceSink(routed, compact=True),
                           batch_format="pyarrow")
    total = sum(
        int(pa.table(b).column("cnt").to_pandas().sum())
        for b in stats.iter_batches(batch_format="pyarrow"))
    assert os.path.exists(marker)  # the crash really happened
    assert total == n
    import pyarrow.parquet as pq
    files = [os.path.join(r, f) for r, _, fs in os.walk(routed)
             for f in fs if f.endswith(".parquet")]
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) == n


def test_compress_and_fragment_fold_stats_alike(ray_session, tmp_path):
    """compress() and run_one_fragment() fold their sink tasks' stats rows
    through one helper: on the same input both manifests record identical
    class counts and ts range, and the counts add up to the input rows."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress, run_one_fragment
    from clp_core_ray.state.manifest import read_manifests

    n = 600
    base = 1_700_000_000_000_000
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 31, type=pa.int32()),
        "role": pa.array(["user", "assistant"] * (n // 2)),
        "text": pa.array([f"INFO req {i} took {i % 9}.5 ms" if i % 3
                          else f"job j{i} state=ok ratio {i % 5}.25"
                          for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base + ((i * 7919) % n) * 1000 for i in range(n)],
                       type=pa.timestamp("us")),
    })
    src = str(tmp_path / "in.parquet")
    pq.write_table(tbl, src)

    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(tbl).repartition(3),
             input_label="fold")
    frags = str(tmp_path / "frags")
    assert run_one_fragment("f0", [src], frags) == n

    (full,) = read_manifests(arch)
    (frag,) = read_manifests(frags)
    assert len(full["class_counts"]) > 1
    assert full["class_counts"] == frag["class_counts"]
    assert sum(full["class_counts"].values()) == n
    assert full["ts_min"] == frag["ts_min"] == base
    assert full["ts_max"] == frag["ts_max"] == base + (n - 1) * 1000


def test_failed_compress_stops_delta_watcher(ray_session, tmp_path,
                                             monkeypatch):
    """The delta watcher's poller thread must not outlive a compress whose
    sink write fails (a long-running ingest daemon would collect one per
    failed fragment)."""
    import ray.data as rd

    from clp_core_ray.pipelines import compress as cp

    started = []

    class Recording(cp._DeltaWatcher):
        def start(self):
            started.append(self)
            return super().start()

    monkeypatch.setattr(cp, "_DeltaWatcher", Recording)
    bad = rd.from_items([{"x": 1}])  # no transcript columns: encode raises
    with pytest.raises(Exception):
        cp.compress(None, str(tmp_path / "arch"), ds=bad)
    (watcher,) = started
    assert not watcher._thread.is_alive()


def test_merge_archives_roundtrip_and_search(ray_session, tmp_path):
    """Compaction: two half-input archives merge into one losslessly —
    data files are linked (no re-encode), dictionaries/segment indexes
    union, and decompress + search over the merged archive match the
    originals exactly."""
    import json
    import os

    import ray.data as rd

    from clp_core_ray.pipelines.compact import merge_archives
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.pipelines.search import search_archive, search_archives
    from clp_core_ray.sources.transcripts import read_transcripts

    base = str(tmp_path / "archives")
    df = read_transcripts(0.001).to_pandas()
    mid = df["ts"].quantile(0.5)
    compress(0.001, f"{base}/a0", ds=rd.from_pandas(df[df["ts"] <= mid]),
             input_label="half-lo")
    compress(0.001, f"{base}/a1", ds=rd.from_pandas(df[df["ts"] > mid]),
             input_label="half-hi")

    out = str(tmp_path / "merged")
    info = merge_archives([f"{base}/a0", f"{base}/a1"], out)
    assert info["merged_from"] == 2 and info["linked_files"] > 0
    # compress and merge leave no dict-delta write scratch behind
    for arch in (f"{base}/a0", f"{base}/a1", out):
        assert not os.path.exists(os.path.join(arch, "dict.deltas"))

    # linked, not copied: same inode as a source file (metadata-only merge)
    src_inodes = set()
    for a in ("a0", "a1"):
        for root, _d, files in os.walk(f"{base}/{a}/routed"):
            src_inodes.update(os.stat(os.path.join(root, f)).st_ino
                              for f in files if f.endswith(".parquet"))
    merged_files = [os.path.join(root, f)
                    for root, _d, files in os.walk(f"{out}/routed")
                    for f in files if f.endswith(".parquet")]
    assert merged_files and all(
        os.stat(p).st_ino in src_inodes for p in merged_files)

    # lossless roundtrip
    dec = decompress(out).to_pandas().sort_values(["conv_id", "turn_idx"])
    orig = df.sort_values(["conv_id", "turn_idx"])
    assert len(dec) == len(orig)
    assert dec["text"].tolist() == orig["text"].tolist()

    # dictionary union: merged class index covers both halves' classes
    merged_idx = json.load(open(os.path.join(out, "class_logtypes.json")))
    for a in ("a0", "a1"):
        idx = json.load(open(os.path.join(base, a, "class_logtypes.json")))
        for cls, ids in idx.items():
            assert set(ids) <= set(merged_idx[cls]), (a, cls)

    # search over the merged archive == union over the source archives
    m = search_archive(out, "ERROR*timeout").to_pandas()
    u = search_archives(base, "ERROR*timeout").to_pandas()
    key = ["conv_id", "turn_idx"]
    assert m.sort_values(key).reset_index(drop=True).equals(
        u.sort_values(key).reset_index(drop=True))

    # merged manifest spans both time ranges
    mm = json.load(open(os.path.join(out, "_manifests", "merge.json")))
    m0 = json.load(open(os.path.join(base, "a0", "_manifests", "full.json")))
    m1 = json.load(open(os.path.join(base, "a1", "_manifests", "full.json")))
    assert mm["ts_min"] == min(m0["ts_min"], m1["ts_min"])
    assert mm["ts_max"] == max(m0["ts_max"], m1["ts_max"])


def test_search_context(ray_session, tmp_path):
    """Context search: matches ± r turns within the conversation only,
    is_match flags exact matches, conversations without matches never
    reach the decode stage."""
    import pandas as pd
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_context

    df = pd.DataFrame({
        "conv_id": ["c1"] * 5 + ["c2"] * 3 + ["c3"] * 2,
        "turn_idx": [0, 1, 2, 3, 4, 0, 1, 2, 0, 1],
        "role": ["user"] * 10,
        "tool": [""] * 10,
        "ts": pd.to_datetime(list(range(10)), unit="s"),
        "text": [
            "hello", "ERROR db timeout at 10ms", "ok", "bye", "tail",
            "nothing", "here", "at all",
            "ERROR net timeout now", "after",
        ],
    })
    out = str(tmp_path / "arch")
    compress(0.001, out, ds=rd.from_pandas(df), input_label="ctx-test")

    got = search_context(out, "ERROR*timeout", before=1, after=2).to_pandas()
    got = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    # c1: match at 1 → keep 0..3; c2: no match → nothing; c3: match at 0 → 0..1
    assert list(zip(got["conv_id"], got["turn_idx"])) == [
        ("c1", 0), ("c1", 1), ("c1", 2), ("c1", 3), ("c3", 0), ("c3", 1)]
    assert got["is_match"].tolist() == [False, True, False, False, True, False]
    assert "c2" not in set(got["conv_id"])

    # no match → empty with stable schema (consume via iter_batches:
    # Ray's to_pandas() drops columns on block-less Datasets)
    none = search_context(out, "NOSUCHTOKEN*xyz")
    assert "is_match" in none.schema().names
    assert sum(len(b) for b in none.iter_batches(batch_format="pyarrow")) == 0


@pytest.mark.parametrize("ray_scan", [False, True],
                         ids=["compact", "compact-ray"])
def test_multi_query_search_equals_singles(ray_session, tiny_transcripts,
                                           tmp_path, monkeypatch, ray_scan):
    """search_archive_multi(queries) row-for-row equals running each query
    through search_archive, and both equal a brute-force wildcard match over
    the fully decompressed archive — including a dictionary-miss query
    (contributes nothing), a match-all wildcard (defeats pruning for the
    union scan) and case-insensitive queries.
    The archive is small, so its plans scan in the calling process;
    ``ray_scan`` sets the local-scan limit to 0 to force the Ray Data
    side."""
    from clp_core_ray.pipelines import search as search_mod
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.pipelines.search import (
        search_archive,
        search_archive_multi,
        wildcard_match,
    )

    ray_plans = []
    real_scan_ray = search_mod._scan_ray
    monkeypatch.setattr(search_mod, "_scan_ray",
                        lambda plan: ray_plans.append(plan)
                        or real_scan_ray(plan))
    if ray_scan:
        monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", 0)
    out = str(tmp_path / "arch_multi")
    compress(SF, out)
    full = pa.concat_tables(
        pa.table(b) for b in decompress(out, columns=("conv_id", "turn_idx", "ts"))
        .iter_batches(batch_format="pyarrow"))
    text = full.column("text").combine_chunks()

    def keys(t):
        if t is None:
            return []
        return sorted(zip(t.column("conv_id").to_pylist(),
                          t.column("turn_idx").to_pylist(),
                          t.column("text").to_pylist()))

    def brute(q, ignore_case):
        if ignore_case:
            hit = wildcard_match(pc.utf8_lower(text), f"*{q.lower()}*")
        else:
            hit = wildcard_match(text, f"*{q}*")
        return keys(full.filter(hit))

    def rows(ds, names):
        assert ds.schema().names == names
        got = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
        return pa.concat_tables(got) if got else None

    for ignore_case, queries in (
            (False, ["ERROR*timeout", "zz_no_such_token_zz", "*latency*",
                     "42"]),
            (True, ["error*TIMEOUT", "LATENCY"])):
        multi = rows(search_archive_multi(out, queries,
                                          ignore_case=ignore_case),
                     ["query_idx", "conv_id", "turn_idx", "text"])
        qidx = multi.column("query_idx")
        for qi, q in enumerate(queries):
            want = brute(q, ignore_case)
            single = rows(search_archive(out, q, ignore_case=ignore_case),
                          ["conv_id", "turn_idx", "text"])
            assert keys(single) == want, q
            assert keys(multi.filter(pc.equal(qidx, qi))) == want, q
    assert len(brute("zz_no_such_token_zz", False)) == 0
    assert len(brute("error*TIMEOUT", True)) > len(brute("error*TIMEOUT",
                                                         False))

    # passthrough column: each hit carries its own row's ts
    with_ts = rows(search_archive(out, "ERROR*timeout", columns=["ts"]),
                   ["conv_id", "turn_idx", "text", "ts"])
    ts_of = dict(zip(zip(full.column("conv_id").to_pylist(),
                         full.column("turn_idx").to_pylist()),
                     full.column("ts").to_pylist()))
    assert len(with_ts) == len(brute("ERROR*timeout", False)) > 0
    assert all(ts_of[(c, i)] == t for c, i, t in zip(
        with_ts.column("conv_id").to_pylist(),
        with_ts.column("turn_idx").to_pylist(),
        with_ts.column("ts").to_pylist()))

    # all-miss batch prunes to a schema-stable empty Dataset without a scan
    empty = search_archive_multi(out, ["zz_no_such_token_zz"]).to_pandas()
    assert len(empty) == 0
    assert bool(ray_plans) == ray_scan


def test_multi_query_multi_archive(ray_session, tmp_path):
    """search_archives_multi unions per-archive multi-query scans; totals
    equal the single-archive multi result run per archive."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import (
        search_archive_multi, search_archives_multi,
    )

    base = tmp_path / "multi_base"
    for name in ("a1", "a2"):
        compress(SF, str(base / name))
    queries = ["ERROR*timeout", "*latency*"]
    got = (search_archives_multi(str(base), queries).to_pandas()
           .groupby("query_idx").size().to_dict())
    want = {0: 0, 1: 0}
    for name in ("a1", "a2"):
        per = (search_archive_multi(str(base / name), queries).to_pandas()
               .groupby("query_idx").size().to_dict())
        for k, v in per.items():
            want[k] += v
    assert got == want and all(v > 0 for v in want.values())


def _match_keys(ds) -> list:
    rows = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    if not rows:
        return []
    t = pa.concat_tables(rows)
    cols = [c for c in ("query_idx", "conv_id", "turn_idx", "text")
            if c in t.column_names]
    return sorted(zip(*(t.column(c).to_pylist() for c in cols)))


def test_search_archives_over_local_limit_fans_out(ray_session, tmp_path,
                                                   monkeypatch):
    """search_archives/_multi decide the scan side once, on the summed kept
    bytes of every archive's plan: three archives that each fit the
    local-scan limit but together exceed it scan on Ray Data, one job per
    archive, and return the rows of the per-archive (local) searches."""
    import ray.data as rd

    from clp_core_ray.pipelines import search as search_mod
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    base = tmp_path / "base"
    dirs = []
    for seed in (1, 2, 3):
        d = str(base / f"a{seed}")
        compress(None, d, ds=rd.from_arrow(synth_transcripts(400, seed=seed)),
                 input_label=f"a{seed}")
        dirs.append(d)
    query, queries = "ERROR*timeout", ["ERROR*timeout", "*latency*"]
    sizes = [search_mod._search_plan(d, [query], False).nbytes for d in dirs]
    assert min(sizes) > 0
    monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", max(sizes))
    assert sum(sizes) > execution.LOCAL_SCAN_BYTES

    ray_plans = []
    real_scan_ray = search_mod._scan_ray
    monkeypatch.setattr(search_mod, "_scan_ray",
                        lambda plan: ray_plans.append(plan)
                        or real_scan_ray(plan))
    want = sorted(k for d in dirs
                  for k in _match_keys(search_mod.search_archive(d, query)))
    want_multi = sorted(
        k for d in dirs
        for k in _match_keys(search_mod.search_archive_multi(d, queries)))
    assert not ray_plans  # each archive alone scans locally
    assert want and want_multi

    assert _match_keys(search_mod.search_archives(str(base), query)) == want
    assert len(ray_plans) == 3
    assert _match_keys(search_mod.search_archives_multi(
        str(base), queries)) == want_multi
    assert len(ray_plans) == 6


def test_search_sees_archive_rebuilt_at_same_path(ray_session, tmp_path):
    """The archive-state cache keys on the archive's files, not its path:
    an archive deleted and rebuilt from another input at the same path is
    searched through its new dictionaries."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archive, wildcard_match
    from clp_core_ray.sources.transcripts import synth_transcripts

    out = str(tmp_path / "arch")
    query = "ERROR*timeout"
    for seed in (1, 2):
        turns = synth_transcripts(400, seed=seed)
        if os.path.exists(out):
            shutil.rmtree(out)
        compress(None, out, ds=rd.from_arrow(turns))
        hit = turns.filter(wildcard_match(turns.column("text"), f"*{query}*"))
        want = sorted(zip(hit.column("conv_id").to_pylist(),
                          hit.column("turn_idx").to_pylist(),
                          hit.column("text").to_pylist()))
        assert want
        assert _match_keys(search_archive(out, query)) == want, seed


def test_search_after_ray_restart(ray_session, tmp_path, monkeypatch):
    """A cached archive state holds Arrow tables, not object refs, so a
    search after ray.shutdown() and ray.init() in one process still works,
    on both scan sides."""
    import ray
    import ray.data as rd

    from clp_core_ray.pipelines import search as search_mod
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    out = str(tmp_path / "arch")
    compress(None, out, ds=rd.from_arrow(synth_transcripts(400, seed=5)))
    before = _match_keys(search_mod.search_archive(out, "ERROR*timeout"))
    assert before
    ray.shutdown()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True)
    assert _match_keys(search_mod.search_archive(out, "ERROR*timeout")) \
        == before
    monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", 0)
    assert _match_keys(search_mod.search_archive(out, "ERROR*timeout")) \
        == before


def test_fragment_size_grouping(ray_session, tmp_path):
    """200 tiny input files pack into ~ceil(total/target) size-bounded
    fragments (reference scheduler partition.py role); resume after a crash
    skips completed groups; the grouped archive round-trips exactly."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from clp_core_ray.pipelines.compress import (
        group_input_files,
        run_fragments,
    )
    from clp_core_ray.state.manifest import completed_fragments

    indir = tmp_path / "shards"
    indir.mkdir()
    base = 1_700_000_000_000_000
    files, total_rows = [], 0
    for i in range(200):
        n = 6 + (i % 5)
        t = pa.table({
            "conv_id": pa.array([f"c{i}-{j % 3}" for j in range(n)]),
            "turn_idx": pa.array(np.arange(n) % 17, type=pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array([f"INFO shard {i} row {j}" for j in range(n)]),
            "tool": pa.array([""] * n),
            "ts": pa.array([base + (i * 100 + j) * 1000 for j in range(n)],
                           type=pa.timestamp("us")),
        })
        p = str(indir / f"shard-{i:04d}.parquet")
        pq.write_table(t, p)
        files.append(p)
        total_rows += n

    total_bytes = sum(os.path.getsize(f) for f in files)
    target = total_bytes // 10  # aim for ~10 fragments
    groups = group_input_files(files, target)
    expect = -(-total_bytes // target)
    assert expect <= len(groups) <= expect + 2  # ~ceil(total/target)
    assert sorted(f for g in groups for f in g) == sorted(files)
    # every group respects the byte bound (single oversize files exempt)
    for g in groups:
        if len(g) > 1:
            assert sum(os.path.getsize(f) for f in g) <= target
    # deterministic: same inputs → same grouping (resume-stable ids)
    assert group_input_files(files, target) == groups

    out = str(tmp_path / "frag")
    done = run_fragments(None, out, files=files, target_bytes=target)
    assert len(done) == len(groups)
    # crash simulation: one fragment's manifest vanishes → only it reruns
    victim = done[2]
    os.remove(os.path.join(out, "_manifests", f"{victim}.json"))
    shutil.rmtree(os.path.join(out, f"fragment={victim}"))
    done2 = run_fragments(None, out, files=files, target_bytes=target)
    assert done2 == [victim]
    assert len(completed_fragments(out)) == len(groups)
    # round trip: the union of fragment sinks holds exactly the input rows
    sink_files = [os.path.join(r, f) for r, _, fs in os.walk(out)
                  for f in fs if f.endswith(".parquet")
                  and "routed" in r.split(os.sep)]
    assert sum(pq.ParquetFile(f).metadata.num_rows
               for f in sink_files) == total_rows


def test_compress_codec_breadth(ray_session, tmp_path):
    """K2 codec breadth (Compressor.hpp passthrough/zstd/... roles): every
    codec yields a byte-different but content-identical archive; passthrough
    is the largest, zstd round-trips exactly."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress, dir_bytes
    from clp_core_ray.pipelines.decompress import decompress

    n = 2000
    base = 1_700_000_000_000_000
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 5}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 23, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO req {i} took {i % 7}.25 ms" for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base + i * 1000 for i in range(n)],
                       type=pa.timestamp("us")),
    })
    sizes = {}
    texts = {}
    for codec in ("passthrough", "zstd", "lz4"):
        out = str(tmp_path / f"arch_{codec}")
        compress(None, out, ds=rd.from_arrow(tbl), input_label="t",
                 codec=codec)
        sizes[codec] = dir_bytes(os.path.join(out, "routed"))
        texts[codec] = sorted(
            decompress(out, columns=("conv_id", "turn_idx"))
            .to_pandas()["text"])
    assert sizes["passthrough"] > sizes["zstd"]
    assert texts["passthrough"] == texts["zstd"] == texts["lz4"]
    assert len(texts["zstd"]) == n


def test_ingest_once_two_waves(ray_session, tmp_path):
    """Continuous-ingestion poll (scheduler role): wave 1 compresses, wave 2
    compresses ONLY the new files (old fragment ids never re-bind even with
    size packing), a no-change poll is a no-op, and the union of fragment
    sinks holds exactly all ingested rows."""
    import pyarrow.parquet as pq

    from clp_core_ray.pipelines.compress import completed_inputs
    from clp_core_ray.pipelines.ingest import poll
    from clp_core_ray.state.manifest import read_manifests

    indir = tmp_path / "in"
    indir.mkdir()
    base = 1_700_000_000_000_000

    def shard(i: int, n: int = 8) -> str:
        t = pa.table({
            "conv_id": pa.array([f"c{i}-{j % 2}" for j in range(n)]),
            "turn_idx": pa.array(np.arange(n) % 9, type=pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array([f"INFO wave shard {i} row {j}"
                              for j in range(n)]),
            "tool": pa.array([""] * n),
            "ts": pa.array([base + (i * 100 + j) * 1000 for j in range(n)],
                           type=pa.timestamp("us")),
        })
        p = str(indir / f"shard-{i:04d}.parquet")
        pq.write_table(t, p)
        return p

    out = str(tmp_path / "arch")
    wave1 = [shard(i) for i in range(6)]
    target = sum(os.path.getsize(f) for f in wave1) // 2  # pack ~2-3 groups
    done1 = poll(str(indir), out, target_bytes=target)["done"]
    assert done1 and set(completed_inputs(out)) == set(wave1)

    wave2 = [shard(i) for i in range(6, 9)]
    done2 = poll(str(indir), out, target_bytes=target)["done"]
    assert done2 and not set(done2) & set(done1)  # only NEW fragments ran
    assert set(completed_inputs(out)) == set(wave1 + wave2)
    # wave-1 manifests untouched: their ids are still all present
    ids = {m["fragment_id"] if "fragment_id" in m else None
           for m in read_manifests(out)}
    assert len(read_manifests(out)) == len(done1) + len(done2)

    assert poll(str(indir), out, target_bytes=target)["done"] == []  # no-op

    sink_files = [os.path.join(r, f) for r, _, fs in os.walk(out)
                  for f in fs if f.endswith(".parquet")
                  and "routed" in r.split(os.sep)]
    assert sum(pq.ParquetFile(f).metadata.num_rows
               for f in sink_files) == 9 * 8
