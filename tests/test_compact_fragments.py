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

    real_compress = __import__(
        "clp_core_ray.pipelines.compress", fromlist=["compress"]).compress
    calls = {"n": 0}

    def crash_once(*a, **k):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("simulated crash mid-build")
        return real_compress(*a, **k)

    import clp_core_ray.pipelines.compress as cp

    monkeypatch.setattr(cp, "compress", crash_once)
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


def _blocking_compress(monkeypatch, release):
    """Replace compress so that its first call makes a partial archive dir
    and waits for ``release``; later calls run the real compress."""
    import threading

    import clp_core_ray.pipelines.compress as cp

    real = cp.compress
    started = threading.Event()
    calls = {"n": 0}

    def blocking(sf, out_dir, *a, **k):
        calls["n"] += 1
        if calls["n"] == 1:
            os.makedirs(out_dir, exist_ok=True)
            open(os.path.join(out_dir, "partial"), "w").close()
            started.set()
            release.wait(60)
        return real(sf, out_dir, *a, **k)

    monkeypatch.setattr(cp, "compress", blocking)
    return started


def test_compact_lease_outlives_long_build(frag_base, monkeypatch):
    """A build that runs longer than the lease keeps its journal fresh: a
    second compactor stands down and leaves the partial archive alone."""
    import threading
    import time

    from clp_core_ray.pipelines import compact as cpt

    _, frags, cold = frag_base
    release = threading.Event()
    started = _blocking_compress(monkeypatch, release)
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
    started = _blocking_compress(monkeypatch, release)
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
