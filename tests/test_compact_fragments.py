"""Fragment compaction (hot scheduler tail → compact dictionary archive):
two-phase journaled protocol, retirement semantics, crash resume."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BASE = 1_700_000_000_000_000


def _shard(indir, i: int, n: int = 10) -> str:
    t = pa.table({
        "conv_id": pa.array([f"c{i}-{j % 2}" for j in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 9, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO compact shard {i} row {j} took {j*3} ms"
                          for j in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([BASE + (i * 100 + j) * 1000 for j in range(n)],
                       type=pa.timestamp("us")),
    })
    p = str(indir / f"shard-{i:04d}.parquet")
    pq.write_table(t, p)
    return p


@pytest.fixture()
def frag_base(ray_session, tmp_path):
    from clp_core_ray.pipelines import ingest

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(3):
        _shard(indir, i)
    out = str(tmp_path / "frags")
    s = ingest.poll(str(indir), out)
    assert len(s["done"]) == 3
    return str(indir), out, str(tmp_path / "cold")


def _delta_dirs(root: str) -> list:
    """dict.deltas/ dirs (compress write scratch) left under ``root``."""
    return [d for d, _dirs, _files in os.walk(root)
            if os.path.basename(d) == "dict.deltas"]


def _cnt(target, q):
    from clp_core_ray.pipelines.search import search_count

    return search_count(target, q).column("cnt")[0].as_py()


def test_compact_then_search_moves_tiers(frag_base):
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compact import compact_fragments
    from clp_core_ray.pipelines.compress import completed_inputs

    indir, frags, cold = frag_base
    assert _cnt(frags, "*compact shard*") == 30  # hot tail searchable
    before_inputs = set(completed_inputs(frags))

    res = compact_fragments(frags, cold)
    assert sorted(res["fragments"]) == [f"shard-{i:04d}" for i in range(3)]
    assert res["rows"] == 30
    assert _delta_dirs(cold) == []

    # rows moved tiers: fragment search empty, archive search complete,
    # per-row content intact (dictionary archive decodes identically)
    assert _cnt(frags, "*compact shard*") == 0
    assert _cnt(res["archive"], "*compact shard*") == 30
    assert _cnt(res["archive"], "*shard 1 row 3 *") == 1

    # input ownership survives retirement: the scheduler re-ingests NOTHING
    assert set(completed_inputs(frags)) == before_inputs
    s = ingest.poll(indir, frags)
    assert s["done"] == [] and s["failed"] == []

    # fragment sink dirs are gone; a fresh arrival starts a new hot tail
    assert not [d for d in os.listdir(frags) if d.startswith("fragment=")]
    _shard(__import__("pathlib").Path(indir), 7)
    s = ingest.poll(indir, frags)
    assert s["done"] == ["shard-0007"]
    assert _cnt(frags, "*compact shard*") == 10  # only the new hot data

    # second compaction picks up ONLY the new fragment
    res2 = compact_fragments(frags, cold)
    assert res2["fragments"] == ["shard-0007"]
    assert res2["archive"] != res["archive"]


def test_compact_resume_after_commit_crash(frag_base, monkeypatch):
    """Crash AFTER the archive committed but BEFORE retirement: a re-run
    finishes retirement only — it must not build a second archive from the
    same rows."""
    from clp_core_ray.pipelines import compact as cpt

    _, frags, cold = frag_base

    real = cpt._finish_retirement
    calls = {"n": 0}

    def crash_once(frag_base_, journal, jpath):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("simulated crash before retirement")
        return real(frag_base_, journal, jpath)

    monkeypatch.setattr(cpt, "_finish_retirement", crash_once)
    with pytest.raises(RuntimeError):
        cpt.compact_fragments(frags, cold)
    # archive committed, fragments NOT retired yet
    archives = os.listdir(cold)
    assert len(archives) == 1
    assert _cnt(frags, "*compact shard*") == 30  # still hot (unretired)

    res = cpt.compact_fragments(frags, cold)  # resume
    assert res["resumed"] is True
    assert res["fragments"] == []  # nothing new compacted
    assert len(os.listdir(cold)) == 1  # NO second archive
    assert _cnt(frags, "*compact shard*") == 0
    assert _cnt(os.path.join(cold, archives[0]), "*compact shard*") == 30


def test_compact_restart_after_precommit_crash(frag_base, monkeypatch):
    """Crash BEFORE the archive committed: the re-run drops the partial
    build and rebuilds from the same journaled fragment list."""
    from clp_core_ray.pipelines import compact as cpt

    _, frags, cold = frag_base

    real_merge = cpt.merge_archives
    calls = {"n": 0}

    def crash_once(*a, **k):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("simulated crash mid-build")
        return real_merge(*a, **k)

    monkeypatch.setattr(cpt, "merge_archives", crash_once)
    with pytest.raises(RuntimeError):
        cpt.compact_fragments(frags, cold)
    # journal exists, archive not committed
    jdir = os.path.join(frags, cpt.COMPACTIONS_DIR)
    js = [json.load(open(os.path.join(jdir, f)))
          for f in os.listdir(jdir) if f.endswith(".json")]
    assert len(js) == 1 and not js[0]["done"]

    # a FRESH undone journal is an active compactor's lease — stand down
    res0 = cpt.compact_fragments(frags, cold)
    assert res0["archive"] is None and res0.get("active")
    # past the lease it's a crash leftover: reclaim and rebuild
    res = cpt.compact_fragments(frags, cold, lease_s=0)
    assert res["rows"] == 30 and len(res["fragments"]) == 3
    assert len([d for d in os.listdir(cold)]) == 1
    assert _cnt(res["archive"], "*compact shard*") == 30
    assert _cnt(frags, "*compact shard*") == 0


def _blocking_merge(monkeypatch, release):
    """Replace the compaction's merge_archives so that its first call
    makes a partial archive dir and waits for ``release``; later calls run
    the real merge."""
    import threading

    from clp_core_ray.pipelines import compact as cpt

    real = cpt.merge_archives
    started = threading.Event()
    calls = {"n": 0}

    def blocking(archive_dirs, out_dir):
        calls["n"] += 1
        if calls["n"] == 1:
            os.makedirs(out_dir, exist_ok=True)
            open(os.path.join(out_dir, "partial"), "w").close()
            started.set()
            release.wait(60)
        return real(archive_dirs, out_dir)

    monkeypatch.setattr(cpt, "merge_archives", blocking)
    return started


def test_compact_lease_outlives_long_build(frag_base, monkeypatch):
    """A build that runs longer than the lease keeps its journal fresh: a
    second compactor stands down and leaves the partial archive alone."""
    import threading
    import time

    from clp_core_ray.pipelines import compact as cpt

    _, frags, cold = frag_base
    release = threading.Event()
    started = _blocking_merge(monkeypatch, release)
    first = {}

    def run_first():
        first["res"] = cpt.compact_fragments(frags, cold, lease_s=0.5)

    t = threading.Thread(target=run_first)
    t.start()
    try:
        assert started.wait(60)
        time.sleep(1.0)  # twice the lease
        second = {}
        t2 = threading.Thread(target=lambda: second.update(
            res=cpt.compact_fragments(frags, cold, lease_s=0.5)))
        t2.start()
        t2.join(120)
        assert not t2.is_alive()
        res2 = second["res"]
        assert res2["archive"] is None and res2.get("active")
        (arch,) = os.listdir(cold)
        assert os.path.exists(os.path.join(cold, arch, "partial"))
    finally:
        release.set()
        t.join(120)
    assert not t.is_alive()
    res = first["res"]
    assert res["rows"] == 30 and len(res["fragments"]) == 3
    assert _cnt(res["archive"], "*compact shard*") == 30
    assert _cnt(frags, "*compact shard*") == 0


def test_compact_stands_down_when_journal_lost(frag_base, monkeypatch):
    """A compactor whose journal disappeared during the build (another
    compactor took the run over) retires nothing."""
    import threading

    from clp_core_ray.pipelines import compact as cpt

    _, frags, cold = frag_base
    release = threading.Event()
    started = _blocking_merge(monkeypatch, release)
    out = {}
    t = threading.Thread(target=lambda: out.update(
        res=cpt.compact_fragments(frags, cold)))
    t.start()
    try:
        assert started.wait(60)
        jdir = os.path.join(frags, cpt.COMPACTIONS_DIR)
        for f in os.listdir(jdir):
            os.unlink(os.path.join(jdir, f))
    finally:
        release.set()
        t.join(120)
    assert not t.is_alive()
    res = out["res"]
    assert res["archive"] is None and res.get("lost")
    assert _cnt(frags, "*compact shard*") == 30  # fragments not retired


def test_watch_with_compaction_and_catalog(ray_session, tmp_path):
    """The full lifecycle in one daemon: ingest waves -> lull-triggered
    compaction into a CATALOGED cold dir -> multi-archive search over the
    catalog sees the compacted data; the hot tail keeps only fresh
    arrivals."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state.catalog import init_catalog, read_catalog

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(4):
        _shard(indir, i)
    frags = str(tmp_path / "frags")
    cold = str(tmp_path / "cold")
    init_catalog(cold)

    polls = ingest.watch(str(indir), frags, interval_s=0.01, idle_exit=2,
                         compact_into=cold, compact_min_fragments=4)
    comp = [p["compacted"] for p in polls if p.get("compacted", {})
            .get("archive")]
    assert len(comp) == 1 and comp[0]["rows"] == 40

    # compress auto-registered the compacted archive in the catalog;
    # multi-archive (catalog-driven) search over the cold dir finds it
    entries = read_catalog(cold)
    assert len(entries) == 1 and entries[0]["rows"] == 40
    assert _cnt(cold, "*compact shard*") == 40
    assert _cnt(frags, "*compact shard*") == 0


def test_federated_hot_cold_search(frag_base, capsys):
    """One query across the hot fragment tail AND the compacted cold tier
    (search_federated + CLI --also): counts stay exact through a mid-life
    compaction — before it everything is hot, after it the same rows
    answer from the archive tier plus fresh hot arrivals."""
    from clp_core_ray.cli import main
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compact import compact_fragments
    from clp_core_ray.pipelines.search import search_federated

    indir, frags, cold = frag_base
    os.makedirs(cold, exist_ok=True)

    def fed_count(q):
        ds = search_federated([frags, cold], q)
        return sum(pa.table(b).num_rows
                   for b in ds.iter_batches(batch_format="pyarrow"))

    assert fed_count("*compact shard*") == 30      # all hot
    compact_fragments(frags, cold)
    assert fed_count("*compact shard*") == 30      # all cold, none double
    _shard(__import__("pathlib").Path(indir), 5)
    ingest.poll(indir, frags)
    assert fed_count("*compact shard*") == 40      # cold 30 + hot 10

    rc = main(["search", "--archive", frags, "--also", cold,
               "--query", "*shard 5 row 1 *", "--count"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["count"] == 1 and res["targets"] == 2


def test_compact_clps_fragments(ray_session, tmp_path):
    """NDJSON fragments compact into ONE clp_s archive (per-fragment
    decompress with global event offsets -> one recompress); KQL over the
    compacted archive matches the pre-compaction fragment search, and the
    hot tail empties."""
    import json as _json

    from clp_core_ray.functions.filters import clps_search
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compact import compact_fragments

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(3):
        with open(indir / f"logs-{i:02d}.ndjson", "w") as f:
            for j in range(15):
                f.write(_json.dumps({
                    "ts": (BASE + (i * 100 + j) * 1000) // 1000,
                    "level": "ERROR" if j % 5 == 0 else "INFO",
                    "msg": f"clps wave {i} line {j}"}) + "\n")
    frags = str(tmp_path / "frags")
    cold = str(tmp_path / "cold")
    s = ingest.poll(str(indir), frags, fmt="ndjson")
    assert len(s["done"]) == 3

    def frag_hits(q):
        ds = ingest.clps_search_fragments(frags, q)
        return sum(pa.table(b).num_rows
                   for b in ds.iter_batches(batch_format="pyarrow"))

    before = frag_hits('level: "ERROR"')
    assert before == 9

    res = compact_fragments(frags, cold)
    assert res["format"] == "clps" and res["rows"] == 45
    after = sum(pa.table(b).num_rows for b in clps_search(
        res["archive"], 'level: "ERROR"')
        .iter_batches(batch_format="pyarrow"))
    assert after == before
    assert frag_hits('level: "ERROR"') == 0  # hot tail retired


def test_compact_textlog_fragments(ray_session, tmp_path):
    """textlog fragments (already full archives) compact via the
    metadata-only dictionary merge; search over the merged archive equals
    the fragment-base search."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compact import compact_fragments
    from clp_core_ray.pipelines.search import search_count

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(2):
        with open(indir / f"app-{i:02d}.log", "w") as f:
            for j in range(20):
                f.write(f"2015-01-31 15:5{i}:{j % 60:02d},{j:03d} "
                        f"INFO merged handler {i} req {j}\n")
    frags = str(tmp_path / "frags")
    cold = str(tmp_path / "cold")
    ingest.poll(str(indir), frags, fmt="textlog")
    assert search_count(frags, "*merged handler*")["cnt"][0].as_py() == 40
    assert _delta_dirs(frags) == []  # each fragment is a compress_text_logs

    res = compact_fragments(frags, cold)
    assert res["format"] == "clp" and res["rows"] == 40
    assert _delta_dirs(cold) == []
    assert search_count(res["archive"],
                        "*merged handler*")["cnt"][0].as_py() == 40
    assert search_count(res["archive"],
                        "*handler 1 req 7*")["cnt"][0].as_py() == 1
    assert search_count(frags, "*merged handler*")["cnt"][0].as_py() == 0


def test_merge_archives_registers_in_catalog(ray_session, tmp_path):
    """merge_archives into a catalogued dir registers the merged archive,
    as compress() does: catalog-driven search sees its rows, and it is
    not an untracked dir for the retention orphan pass."""
    import ray.data as rd

    from clp_core_ray.pipelines.compact import merge_archives
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.state.catalog import init_catalog, read_catalog

    srcs = []
    for i in range(2):
        d = str(tmp_path / "src" / f"a{i}")
        t = pq.read_table(_shard(tmp_path, i))
        compress(None, d, ds=rd.from_arrow(t), input_label=f"a{i}")
        srcs.append(d)
    cold = str(tmp_path / "cold")
    init_catalog(cold)
    merged = os.path.join(cold, "merged")
    merge_archives(srcs, merged)

    (entry,) = read_catalog(cold)
    assert os.path.normpath(entry["dir"]) == os.path.normpath(merged)
    assert entry["rows"] == 20
    assert _cnt(cold, "*compact shard*") == 20


def _input_rows(indir) -> list:
    t = pa.concat_tables(pq.read_table(os.path.join(indir, f))
                         for f in sorted(os.listdir(indir)))
    return sorted(zip(t.column("conv_id").to_pylist(),
                      t.column("turn_idx").to_pylist(),
                      t.column("text").to_pylist()))


def _assert_three_column_sinks(root: str) -> None:
    """Every routed sink file under ``root`` holds CLP's columns only: no
    inline ``logtype`` or ``dict_vars``."""
    sinks = [os.path.join(r, f) for r, _, fs in os.walk(root)
             for f in fs if f.endswith(".parquet")
             and "routed" in r.split(os.sep)]
    assert sinks, root
    for f in sinks:
        names = pq.read_schema(f).names
        assert "logtype" not in names and "dict_vars" not in names, f


def test_transcript_fragments_are_dictionary_archives(frag_base, tmp_path):
    """Transcript fragments are compact dictionary archives, compaction is
    the dictionary merge (``format == "clp"``, finalized in process), and
    the compacted archive decompresses, searches and extracts to the input
    rows. No sink file that ``compress`` (the fragments),
    ``merge_archives`` (the compacted archive) or ``compress_text_logs``
    writes carries the inline ``logtype``/``dict_vars`` columns."""
    from clp_core_ray.ir import decode_ir_stream_to_text
    from clp_core_ray.pipelines.compact import compact_fragments
    from clp_core_ray.pipelines.compress import compress_text_logs
    from clp_core_ray.pipelines.decompress import (decompress,
                                                   extract_ir_chunks)
    from clp_core_ray.state.manifest import read_manifests

    indir, frags, cold = frag_base
    _assert_three_column_sinks(frags)
    assert {m["format"] for m in read_manifests(frags)} == {"clp"}

    res = compact_fragments(frags, cold)
    assert res["format"] == "clp" and res["rows"] == 30
    _assert_three_column_sinks(res["archive"])
    logs = str(tmp_path / "logs")
    compress_text_logs([os.path.join(os.path.dirname(__file__), "fixtures",
                                     "log.txt")], logs)
    _assert_three_column_sinks(logs)
    (man,) = read_manifests(res["archive"])
    assert man["metrics"]["finalize_side"] == "local"

    want = _input_rows(indir)
    got = pa.concat_tables(pa.table(b) for b in decompress(
        res["archive"]).iter_batches(batch_format="pyarrow"))
    assert sorted(zip(got.column("conv_id").to_pylist(),
                      got.column("turn_idx").to_pylist(),
                      got.column("text").to_pylist())) == want
    for q in ("*compact shard*", "*shard 2 row 7 *", "*took 9 ms*"):
        body = q.strip("*")
        assert _cnt(res["archive"], q) == sum(body in t for *_, t in want)
    texts = []
    for p in extract_ir_chunks(res["archive"], str(tmp_path / "ir")):
        with open(p, "rb") as fh:
            texts += decode_ir_stream_to_text(fh.read()).column(
                "text").to_pylist()
    assert sorted(texts) == sorted(t for *_, t in want)


def test_inline_fragment_base_must_be_compacted(ray_session, tmp_path):
    """A fragment written inline (rows carry logtype/dict_vars, manifest
    has no ``format``) is not searched by decoding: search_fragments asks
    for compaction, and compaction rebuilds it into a dictionary archive
    with the same rows."""
    from clp_core_ray.pipelines.compact import compact_fragments
    from clp_core_ray.pipelines.compress import (SINK_DICT_COLS,
                                                 FusedSinkStage)
    from clp_core_ray.pipelines.search import search_fragments
    from clp_core_ray.state import manifest as mf

    indir = tmp_path / "in"
    indir.mkdir()
    frags = str(tmp_path / "frags")
    for i in range(2):
        p = _shard(indir, i)
        sink = os.path.join(frags, f"fragment=shard-{i:04d}")
        stage = FusedSinkStage(routed_dir=os.path.join(sink, "routed"),
                               compact=False,
                               dict_cols=SINK_DICT_COLS + ["logtype"])
        stats = stage(pq.read_table(p))
        mf.record_fragment(frags, f"shard-{i:04d}", {
            "input": p, "sink": sink, "rows": 10,
            "class_counts": dict(zip(stats.column("logtype_class")
                                     .to_pylist(),
                                     stats.column("cnt").to_pylist()))})
    with pytest.raises(ValueError, match="compact"):
        search_fragments(frags, "*compact shard*")

    res = compact_fragments(frags, str(tmp_path / "cold"))
    assert res["format"] == "inline" and res["rows"] == 20
    assert _cnt(res["archive"], "*compact shard*") == 20
    assert _cnt(res["archive"], "*shard 1 row 4 *") == 1
