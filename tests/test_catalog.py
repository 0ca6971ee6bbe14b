"""Global archive catalog (GlobalSQLiteMetadataDB role, state/catalog.py):
concurrent lock-free registration + catalog-only archive selection."""

import os

import numpy as np
import pyarrow as pa


def _transcripts(n, conv_prefix, base_us):
    return pa.table({
        "conv_id": pa.array([f"{conv_prefix}-{i % 5}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 19, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO {conv_prefix} msg {i}" for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base_us + i * 1_000_000 for i in range(n)],
                       type=pa.timestamp("us")),
    })


def test_concurrent_compress_jobs_share_catalog(ray_session, tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archives, select_archives
    from clp_core_ray.state import catalog as cat

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    t0 = 1_700_000_000_000_000

    def job(name, tag, base_us):
        return compress(
            None, os.path.join(base, name),
            ds=rd.from_arrow(_transcripts(400, name, base_us)),
            input_label=name, tags=[tag],
        )

    # two compress jobs run CONCURRENTLY against one catalog — both must
    # register without coordination (atomic rename, distinct entry files)
    with ThreadPoolExecutor(2) as ex:
        f1 = ex.submit(job, "arch-a", "prod", t0)
        f2 = ex.submit(job, "arch-b", "staging", t0 + 10_000_000_000)
        f1.result()
        f2.result()
    entries = cat.read_catalog(base)
    assert len(entries) == 2
    assert {e["tags"] == {"prod"} for e in entries}
    assert all(e["rows"] == 400 for e in entries)
    assert all(e["ts_min"] is not None for e in entries)

    # a legacy archive dir that never registered is INVISIBLE once a catalog
    # exists — selection is catalog-only (no directory scan)
    decoy = os.path.join(base, "decoy", "routed")
    os.makedirs(decoy)
    assert sorted(os.path.basename(d) for d in select_archives(base)) == \
        ["arch-a", "arch-b"]

    # tag pruning via catalog entries only
    assert [os.path.basename(d) for d in select_archives(base, tags=["prod"])] \
        == ["arch-a"]
    # time pruning: only arch-b overlaps the later window
    sel = select_archives(base, ts_min=t0 + 9_000_000_000)
    assert [os.path.basename(d) for d in sel] == ["arch-b"]

    # end to end: tag+time-pruned multi-archive search touches one archive
    hits = search_archives(base, "INFO arch-b *", tags=["staging"],
                           ts_min=t0 + 9_000_000_000)
    assert hits.count() == 400


def test_reregistration_is_idempotent(ray_session, tmp_path):
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.state import catalog as cat

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    arch = os.path.join(base, "arch-a")
    compress(None, arch, ds=rd.from_arrow(_transcripts(100, "a", 10**15)),
             input_label="a")
    cat.register_archive(base, arch)  # manual re-register: same entry file
    assert len(cat.read_catalog(base)) == 1


def test_catalog_cli(ray_session, tmp_path, capsys):
    import json as _json

    import ray.data as rd

    from clp_core_ray.cli import main as cli_main
    from clp_core_ray.pipelines.compress import compress

    def run(argv):
        assert cli_main(argv) == 0
        return _json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    base = str(tmp_path / "archives")
    res = run(["catalog-init", "--base", base])
    assert res["entries"] == 0 and os.path.isdir(res["catalog"])
    compress(None, os.path.join(base, "a1"),
             ds=rd.from_arrow(_transcripts(50, "x", 10**15)),
             input_label="x", tags=["t"])
    res = run(["stats", "--archive", base])
    assert res["archives"] == 1
    assert res["detail"][0]["tags"] == ["t"]


def test_retention_sweep(ray_session, tmp_path):
    """TTL sweep removes only archives entirely older than the cutoff,
    catalog-first (selection stops routing before the dir vanishes);
    dry_run reports without touching; searches over survivors stay green."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archives
    from clp_core_ray.state import catalog as cat

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    t0 = 1_700_000_000_000_000
    US_DAY = 86_400_000_000
    for name, age_days in (("old", 40), ("mid", 10), ("new", 0)):
        compress(None, os.path.join(base, name),
                 ds=rd.from_arrow(
                     _transcripts(300, name, t0 - age_days * US_DAY)),
                 input_label=name, tags=["t"])
    cutoff = t0 - 5 * US_DAY
    plan = cat.retention_sweep(base, before_us=cutoff, dry_run=True)
    assert [os.path.basename(p) for p in plan] == ["old", "mid"] or \
        sorted(os.path.basename(p) for p in plan) == ["mid", "old"]
    assert all(os.path.isdir(p) for p in plan)  # dry run touched nothing
    removed = cat.retention_sweep(base, before_us=cutoff)
    assert sorted(os.path.basename(p) for p in removed) == ["mid", "old"]
    assert not any(os.path.isdir(p) for p in removed)
    entries = cat.read_catalog(base)
    assert [os.path.basename(e["dir"]) for e in entries] == ["new"]
    hits = search_archives(base, "INFO new*").to_pandas()
    assert len(hits) == 300


def _bare_archive(base, name, ts_max, register=True):
    """An archive dir with only a manifest (enough for the catalog)."""
    from clp_core_ray.state import catalog as cat
    from clp_core_ray.state import manifest as mf

    d = os.path.join(base, name)
    os.makedirs(os.path.join(d, "routed"))
    mf.record_fragment(d, "full", {"ts_min": ts_max - 10, "ts_max": ts_max,
                                   "class_counts": {"c": 1}})
    if register:
        cat.register_archive(base, d)
    return d


def test_retention_sweep_removes_only_tombstoned_dirs(tmp_path, monkeypatch):
    """The sweep removes only archives it tombstoned before unlinking their
    catalog entry: an un-catalogued archive and a ``fragment=`` dir under
    the base stay, however old. A crash between the catalog unlink and the
    rmtree leaves the tombstone, and the next sweep finishes the removal."""
    import shutil

    import pytest

    from clp_core_ray.state import catalog as cat

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    old = _bare_archive(base, "old", 1_000)
    new = _bare_archive(base, "new", 10**18)
    loose = _bare_archive(base, "loose", 1_000, register=False)
    frag = os.path.join(base, "fragment=x")
    os.makedirs(os.path.join(frag, "routed"))
    for d in (loose, frag):  # untouched for decades
        for r, _, fs in os.walk(d):
            for p in [r, *(os.path.join(r, f) for f in fs)]:
                os.utime(p, (0, 0))

    real_rmtree = shutil.rmtree
    crashed = []

    def rmtree_crash_once(path, *a, **kw):
        if not crashed:
            crashed.append(path)
            raise OSError("crash before rmtree")
        return real_rmtree(path, *a, **kw)

    monkeypatch.setattr(shutil, "rmtree", rmtree_crash_once)
    with pytest.raises(OSError, match="crash before rmtree"):
        cat.retention_sweep(base, before_us=1_000_000)
    assert crashed == [old] and os.path.isdir(old)
    assert [os.path.basename(e["dir"]) for e in cat.read_catalog(base)] == \
        ["new"]

    assert cat.retention_sweep(base, before_us=1_000_000) == [old]
    assert not os.path.exists(old)
    assert all(os.path.isdir(d) for d in (new, loose, frag))
    assert cat.retention_sweep(base, before_us=1_000_000) == []
    assert all(os.path.isdir(d) for d in (new, loose, frag))


def test_results_cache(ray_session, tmp_path):
    """Cache hit serves the identical table WITHOUT re-running the search;
    any archive change (new compress job) changes the key so the next
    query recomputes — stale hits structurally impossible."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archives
    from clp_core_ray.state import catalog as cat
    from clp_core_ray.state.results_cache import cache_key, cached_search

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    t0 = 1_700_000_000_000_000
    compress(None, os.path.join(base, "a1"),
             ds=rd.from_arrow(_transcripts(300, "a1", t0)),
             input_label="a1", tags=["t"])
    calls = []

    def run():
        calls.append(1)
        return search_archives(base, "INFO a1*")

    q = "INFO a1*"
    r1 = cached_search(base, q, run)
    assert len(calls) == 1 and r1.num_rows == 300
    r2 = cached_search(base, q, run)
    assert len(calls) == 1, "second call must be served from cache"
    assert r2.equals(r1)
    k_before = cache_key(base, q)
    compress(None, os.path.join(base, "a2"),
             ds=rd.from_arrow(_transcripts(100, "a1", t0 + 10 ** 12)),
             input_label="a2", tags=["t"])
    assert cache_key(base, q) != k_before, "archive change must rotate key"
    r3 = cached_search(base, q, run)
    assert len(calls) == 2 and r3.num_rows == 400


def test_catalog_distinct_from_sketches(ray_session, tmp_path):
    """Cross-archive distinct counts from sketch sidecars only: within 5%
    of truth across overlapping archives; unchanged archives never
    rescanned (sidecar reused); new archives picked up incrementally."""
    import numpy as np
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.state import catalog as cat
    from clp_core_ray.state.results_cache import (catalog_distinct,
                                                  sketch_archives)

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    t0 = 1_700_000_000_000_000
    # a1 and a2 share the conv prefix (overlapping ids):真 distinct = 5
    compress(None, os.path.join(base, "j1"),
             ds=rd.from_arrow(_transcripts(400, "cv", t0)),
             input_label="j1", tags=["t"])
    n1 = sketch_archives(base)
    assert n1 == 1
    assert sketch_archives(base) == 0  # idempotent: nothing rescanned
    est1 = catalog_distinct(base)
    assert est1 == 5  # _transcripts uses 5 convs per prefix
    compress(None, os.path.join(base, "j2"),
             ds=rd.from_arrow(_transcripts(400, "other", t0 + 10 ** 10)),
             input_label="j2", tags=["t"])
    est2 = catalog_distinct(base)  # builds only the new sidecar
    true = 10  # two prefixes × 5 convs, disjoint
    assert abs(est2 - true) / true < 0.05, est2


def test_cli_catalog_distinct(ray_session, tmp_path, capsys):
    import json

    import ray.data as rd

    from clp_core_ray.cli import main
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.state import catalog as cat

    base = str(tmp_path / "archives")
    cat.init_catalog(base)
    compress(None, os.path.join(base, "j1"),
             ds=rd.from_arrow(_transcripts(200, "cv",
                                           1_700_000_000_000_000)),
             input_label="j1", tags=["t"])
    rc = main(["catalog-distinct", "--base", base])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["approx_distinct"] == 5


def test_fsck_archive(ray_session, tmp_path):
    """fsck passes on a healthy archive; detects lost parts, torn writes,
    and corrupt footers."""
    import glob

    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.state.manifest import fsck_archive

    adir = str(tmp_path / "a1")
    compress(None, adir,
             ds=rd.from_arrow(_transcripts(300, "cv",
                                           1_700_000_000_000_000)),
             input_label="a1")
    rep = fsck_archive(adir)
    assert rep["ok"], rep["problems"]
    assert sum(c["expected"] for c in rep["classes"].values()) == 300
    parts = sorted(glob.glob(os.path.join(adir, "routed", "**",
                                          "*.parquet"), recursive=True))
    victim = parts[0]
    corrupt = os.path.join(os.path.dirname(victim), "part-zz.parquet")
    import shutil

    shutil.copy(victim, corrupt)
    with open(corrupt, "r+b") as f:
        f.truncate(10)                       # corrupt a footer
    os.unlink(victim)                        # lose a part
    with open(victim + ".9999.inprogress", "w") as f:
        f.write("dead")                      # torn write
    rep2 = fsck_archive(adir)
    assert not rep2["ok"]
    kinds = "\n".join(rep2["problems"])
    assert "count mismatch" in kinds
    assert "torn write" in kinds
    assert "unreadable parquet" in kinds


def test_cli_fsck(ray_session, tmp_path, capsys):
    import json

    import ray.data as rd

    from clp_core_ray.cli import main
    from clp_core_ray.pipelines.compress import compress

    adir = str(tmp_path / "a1")
    compress(None, adir,
             ds=rd.from_arrow(_transcripts(200, "cv",
                                           1_700_000_000_000_000)),
             input_label="a1")
    rc = main(["fsck", "--archive", adir])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"] and out["problems"] == []
