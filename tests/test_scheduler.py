"""Continuous-ingestion scheduler daemon (compression_scheduler.py role):
claim-based concurrent-poller safety, failed-fragment retry with original
grouping, lease-expiry takeover, parking, and the watch loop."""

import json
import os
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BASE = 1_700_000_000_000_000


def _shard(indir, i: int, n: int = 8) -> str:
    t = pa.table({
        "conv_id": pa.array([f"c{i}-{j % 2}" for j in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 9, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO sched shard {i} row {j}"
                          for j in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([BASE + (i * 100 + j) * 1000 for j in range(n)],
                       type=pa.timestamp("us")),
    })
    p = str(indir / f"shard-{i:04d}.parquet")
    pq.write_table(t, p)
    return p


def _total_rows(out: str) -> int:
    files = [os.path.join(r, f) for r, _, fs in os.walk(out)
             for f in fs if f.endswith(".parquet")]
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def test_two_concurrent_pollers_three_waves(ray_session, tmp_path):
    """Two pollers racing over three arrival waves converge to ONE archive
    set: every input owned by exactly one fragment manifest, total routed
    rows == total input rows, no duplicate data."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compress import completed_inputs
    from clp_core_ray.state.manifest import read_manifests

    indir = tmp_path / "in"
    indir.mkdir()
    out = str(tmp_path / "arch")
    all_files: list[str] = []

    for wave, rng in enumerate([range(4), range(4, 7), range(7, 9)]):
        all_files += [_shard(indir, i) for i in rng]
        results = {}

        def run(name):
            results[name] = ingest.poll(str(indir), out, owner=name)

        t1 = threading.Thread(target=run, args=("poller-a",))
        t2 = threading.Thread(target=run, args=("poller-b",))
        t1.start(); t2.start(); t1.join(); t2.join()
        done_a = set(results["poller-a"]["done"])
        done_b = set(results["poller-b"]["done"])
        # the claim is the exclusion: no fragment ran in both pollers
        assert not done_a & done_b
        assert not results["poller-a"]["failed"]
        assert not results["poller-b"]["failed"]
        assert set(completed_inputs(out)) == set(all_files)

    # one manifest per input file (no size packing → fragment per file),
    # and the union of sinks holds exactly all ingested rows once
    assert len(read_manifests(out)) == len(all_files) == 9
    assert _total_rows(out) == 9 * 8
    # idle poll: claims all settled, nothing new
    s = ingest.poll(str(indir), out)
    assert s["done"] == [] and s["failed"] == [] and s["parked"] == []


def test_failed_fragment_retry_keeps_grouping(ray_session, tmp_path,
                                              monkeypatch):
    """A fragment that fails is recorded, retried on the NEXT poll with its
    ORIGINAL file grouping (even though a new file arrived in between, so
    regrouping would have produced different fragment ids), and converges."""
    from clp_core_ray.pipelines import compress as cp
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state import jobs as jb

    indir = tmp_path / "in"
    indir.mkdir()
    out = str(tmp_path / "arch")
    w1 = [_shard(indir, i) for i in range(4)]
    target = sum(os.path.getsize(f) for f in w1) // 2  # pack into groups

    calls = {"n": 0}
    real = cp.run_one_fragment

    def flaky(frag, paths, out_dir, **kw):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("injected fragment failure")
        return real(frag, paths, out_dir, **kw)

    monkeypatch.setattr(cp, "run_one_fragment", flaky)

    s1 = ingest.poll(str(indir), out, target_bytes=target, owner="p1")
    assert len(s1["failed"]) == 1
    failed_frag = s1["failed"][0]
    jobs = jb.read_jobs(out)
    assert jobs[failed_frag]["state"] == "failed"
    original_files = jobs[failed_frag]["files"]

    # a new arrival between polls must NOT re-bind the failed group
    _shard(indir, 99)
    s2 = ingest.poll(str(indir), out, target_bytes=target, owner="p2")
    assert failed_frag in s2["done"]
    assert jb.read_jobs(out)[failed_frag]["state"] == "done"
    # retried with the exact original grouping
    from clp_core_ray.state.manifest import read_manifests
    m = {x["fragment_id"]: x for x in read_manifests(out)}[failed_frag]
    inp = m["input"] if isinstance(m["input"], list) else [m["input"]]
    assert sorted(inp) == sorted(original_files)
    assert _total_rows(out) == 5 * 8


def test_permanent_failure_parks_job(ray_session, tmp_path, monkeypatch):
    from clp_core_ray.pipelines import compress as cp
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state import jobs as jb

    indir = tmp_path / "in"
    indir.mkdir()
    out = str(tmp_path / "arch")
    _shard(indir, 0)

    def always_fail(frag, paths, out_dir, **kw):
        raise RuntimeError("poison fragment")

    monkeypatch.setattr(cp, "run_one_fragment", always_fail)
    for _ in range(3):
        ingest.poll(str(indir), out, max_attempts=3)
    s = ingest.poll(str(indir), out, max_attempts=3)
    assert len(s["parked"]) == 1 and not s["failed"]
    frag = s["parked"][0]
    assert jb.read_jobs(out)[frag]["attempt"] == 3

    # operator clears the job → next poll retries from scratch
    monkeypatch.undo()
    assert jb.clear_job(out, frag)
    s2 = ingest.poll(str(indir), out)
    assert frag in s2["done"]
    assert _total_rows(out) == 8


def test_lease_expiry_takeover(ray_session, tmp_path):
    """A running claim whose owner died (lease expired, no manifest) is
    adopted and completed by the next poller."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state import jobs as jb

    indir = tmp_path / "in"
    indir.mkdir()
    p = _shard(indir, 0)
    out = str(tmp_path / "arch")
    os.makedirs(out, exist_ok=True)
    frag = "shard-0000"
    assert jb.try_claim(out, frag, [p], "dead-poller")
    # fresh lease → skipped
    s = ingest.poll(str(indir), out, lease_s=600)
    assert s["done"] == [] and s["skipped_active"] >= 1
    # age the claim past the lease
    rec = jb.read_jobs(out)[frag]
    rec["t"] = time.time() - 9999
    with open(os.path.join(out, "_jobs", f"{frag}.json"), "w") as f:
        json.dump(rec, f)
    s2 = ingest.poll(str(indir), out, lease_s=600)
    assert frag in s2["done"]
    assert jb.read_jobs(out)[frag]["attempt"] == 2
    assert _total_rows(out) == 8


def test_watch_loop_drains_and_exits(ray_session, tmp_path):
    from clp_core_ray.pipelines import ingest

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(3):
        _shard(indir, i)
    out = str(tmp_path / "arch")
    polls = ingest.watch(str(indir), out, interval_s=0.01, idle_exit=2)
    done = [f for p in polls for f in p["done"]]
    assert sorted(done) == [f"shard-{i:04d}" for i in range(3)]
    assert _total_rows(out) == 3 * 8
    # trailing polls were idle — the loop exited via idle_exit
    assert not polls[-1]["done"]


def test_cli_ingest_watch(ray_session, tmp_path, capsys):
    """`ingest --watch` daemon smoke through the CLI entrypoint."""
    import json as _json

    from clp_core_ray.cli import main

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(2):
        _shard(indir, i)
    out = str(tmp_path / "arch")
    rc = main(["ingest", "--input", str(indir), "--out", out,
               "--watch", "--interval-s", "0.01", "--idle-exit", "1"])
    assert rc == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["watch"] is True and res["polls"] >= 2
    assert sorted(res["new_fragments"]) == ["shard-0000", "shard-0001"]
    assert res["failed_fragments"] == []
    assert _total_rows(out) == 2 * 8


def test_fragment_archive_search(ray_session, tmp_path):
    """Fragments written by the scheduler are immediately searchable: the
    search dispatcher recognizes a fragment base (manifests + fragment=
    sinks) and runs the inline-decode wildcard scan with manifest ts
    pruning."""
    import pyarrow as _pa

    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.search import search_count, search_fragments

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(3):
        _shard(indir, i)
    out = str(tmp_path / "arch")
    ingest.poll(str(indir), out)

    # each shard has rows "INFO sched shard {i} row {j}" j=0..7
    assert search_count(out, "*shard 1 row 3*")["cnt"][0].as_py() == 1
    assert search_count(out, "*sched shard*")["cnt"][0].as_py() == 24
    assert search_count(out, "*SCHED SHARD*",
                        ignore_case=True)["cnt"][0].as_py() == 24
    assert search_count(out, "*no such text*")["cnt"][0].as_py() == 0

    # manifest time pruning: shard i rows start at BASE + i*100_000 µs
    n = search_count(out, "*sched shard*",
                     ts_min=BASE + 150_000)["cnt"][0].as_py()
    assert n == 8  # only shard 2's fragment survives pruning

    # direct API: extra passthrough columns ride the match table
    t = _pa.concat_tables([_pa.table(b) for b in search_fragments(
        out, "*shard 0 row 0*", columns=["ts"]).iter_batches(
            batch_format="pyarrow")])
    assert t.num_rows == 1 and "ts" in t.column_names


def test_fragment_count_by_time_and_prefilter(ray_session, tmp_path):
    """count-by-time works over a fragment base (ts passthrough through
    the fragment scan), and the template-candidate prefilter never drops a
    true match (conservative: verify equality against a no-prefilter
    reference on a query whose constants split across variables)."""
    import pyarrow as _pa

    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.search import (search_count,
                                               search_count_by_time)

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(3):
        _shard(indir, i)
    out = str(tmp_path / "arch")
    ingest.poll(str(indir), out)

    t = search_count_by_time(out, "*sched shard*", granularity="hour")
    tot = sum(sum(_pa.table(b).column("cnt").to_pylist())
              for b in t.iter_batches(batch_format="pyarrow"))
    assert tot == 24

    # constants landing inside variable positions must survive the
    # template prefilter (vars absorb): "row <j>" — j is a variable
    assert search_count(out, "*shard 2 row 5*")["cnt"][0].as_py() == 1
    # pure-static constants prune non-matching templates but keep matches
    assert search_count(out, "*INFO sched*")["cnt"][0].as_py() == 24


def test_done_job_records_pruned(ray_session, tmp_path):
    """Old done job files are pruned (manifests stay authoritative), so
    _jobs/ does not grow one file per fragment forever."""
    import json as _json

    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state import jobs as jb

    indir = tmp_path / "in"
    indir.mkdir()
    _shard(indir, 0)
    out = str(tmp_path / "arch")
    ingest.poll(str(indir), out)
    jobs = jb.read_jobs(out)
    assert jobs["shard-0000"]["state"] == "done"

    # age the done record past the TTL
    p = os.path.join(out, "_jobs", "shard-0000.json")
    rec = _json.load(open(p))
    rec["t"] = time.time() - ingest.DONE_JOB_TTL_S - 10
    _json.dump(rec, open(p, "w"))
    s = ingest.poll(str(indir), out)
    assert s["done"] == []              # nothing re-ingested
    assert "shard-0000" not in jb.read_jobs(out)  # record pruned


def test_ndjson_ingest_and_kql_search(ray_session, tmp_path):
    """NDJSON format: each fragment becomes a clp_s archive (parse-once
    schema split); claims/retry machinery is shared; KQL search across the
    fragment base prunes by manifest ts range, then per-archive schema/ts
    pruning applies."""
    import json as _json

    from clp_core_ray.pipelines import ingest

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(2):
        with open(indir / f"logs-{i:02d}.ndjson", "w") as f:
            for j in range(20):
                f.write(_json.dumps({
                    "ts": (BASE + (i * 100 + j) * 1000) // 1000,
                    "level": "ERROR" if j % 5 == 0 else "INFO",
                    "msg": f"wave {i} line {j}",
                    "attrs": {"worker": j % 3},
                }) + "\n")
    out = str(tmp_path / "frags")

    s = ingest.poll(str(indir), out, fmt="ndjson")
    assert sorted(s["done"]) == ["logs-00", "logs-01"] and not s["failed"]
    # idempotent: nothing new on a re-poll
    assert ingest.poll(str(indir), out, fmt="ndjson")["done"] == []

    hits = pa.concat_tables([pa.table(b) for b in ingest
                             .clps_search_fragments(out, 'level: "ERROR"')
                             .iter_batches(batch_format="pyarrow")])
    assert hits.num_rows == 8  # 4 ERROR lines per wave x 2 waves
    texts = " ".join(hits.column("json").to_pylist())
    assert "wave 0 line 0" in texts and "wave 1 line 15" in texts

    # nested-key KQL + projection prune through the same path
    w = pa.concat_tables([pa.table(b) for b in ingest
                          .clps_search_fragments(
                              out, "attrs.worker: 2",
                              projection=["msg"])
                          .iter_batches(batch_format="pyarrow")])
    assert w.num_rows == 2 * 6  # j % 3 == 2 -> 6 per wave
    assert all(set(_json.loads(x)) == {"msg"}
               for x in w.column("json").to_pylist())


def test_textlog_ingest_and_search(ray_session, tmp_path):
    """textlog format (`clp c` primary input): each fragment is a full
    dictionary archive built by timestamp-pattern message assembly; the
    fragment-base search routes such fragments through the two-phase
    compiled archive search and unions with inline fragments."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.search import search_count

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(2):
        with open(indir / f"app-{i:02d}.log", "w") as f:
            for j in range(30):
                f.write(f"2015-01-31 15:5{i}:{j % 60:02d},{j:03d} "
                        f"INFO handler {i} served req {j} in {j * 7} ms\n")
            f.write("2015-01-31 15:59:59,000 ERROR handler crashed\n")
    out = str(tmp_path / "frags")

    s = ingest.poll(str(indir), out, fmt="textlog")
    assert sorted(s["done"]) == ["app-00", "app-01"] and not s["failed"]
    assert ingest.poll(str(indir), out, fmt="textlog")["done"] == []

    assert search_count(out, "*served req*")["cnt"][0].as_py() == 60
    assert search_count(out, "*ERROR handler crashed*")["cnt"][0].as_py() == 2
    assert search_count(out, "*served req 7 *")["cnt"][0].as_py() == 2
    assert search_count(out, "*nothing here*")["cnt"][0].as_py() == 0


# a crashed poller thread must fail the test, not only log a warning
@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
def test_scheduler_fuzz_convergence(ray_session, tmp_path, monkeypatch):
    """Randomized stress: three pollers race over staggered waves while
    the fragment runner fails pseudo-randomly (~25%); repeated polling
    must converge to exactly-once ingestion — every input owned by one
    manifest, total routed rows exact, no fragment double-compressed."""
    import random

    from clp_core_ray.pipelines import compress as cp
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state.manifest import read_manifests

    indir = tmp_path / "in"
    indir.mkdir()
    out = str(tmp_path / "arch")

    real = cp.run_one_fragment
    rng = random.Random(1234)
    lock = threading.Lock()

    def flaky(frag, paths, out_dir, **kw):
        with lock:
            fail = rng.random() < 0.25
        if fail:
            raise RuntimeError("fuzz-injected failure")
        return real(frag, paths, out_dir, **kw)

    monkeypatch.setattr(cp, "run_one_fragment", flaky)

    n_files = 0
    for wave in range(3):
        for i in range(4):
            _shard(indir, wave * 4 + i)
            n_files += 1
        threads = [threading.Thread(
            target=lambda o=f"p{wave}-{k}": ingest.poll(
                str(indir), out, owner=o, max_attempts=10))
            for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    # drain: keep polling until everything converged (failures retry)
    for _ in range(20):
        s = ingest.poll(str(indir), out, max_attempts=10)
        if not (s["done"] or s["failed"]):
            break
    mans = read_manifests(out)
    assert len(mans) == n_files == 12
    owned = []
    for m in mans:
        inp = m["input"] if isinstance(m["input"], list) else [m["input"]]
        owned += inp
    assert len(owned) == len(set(owned)) == 12  # exactly-once ownership
    assert _total_rows(out) == 12 * 8


def test_fsck_fragment_base(ray_session, tmp_path):
    """fsck understands fragment bases: green after ingest, red on a
    deleted sink file, and untracked fragment dirs are flagged."""
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state.manifest import fsck_archive

    indir = tmp_path / "in"
    indir.mkdir()
    for i in range(2):
        _shard(indir, i)
    out = str(tmp_path / "arch")
    ingest.poll(str(indir), out)
    r = fsck_archive(out)
    assert r["ok"], r["problems"]
    assert all(v["expected"] == v["actual"] == 8
               for v in r["classes"].values())

    # delete one sink parquet -> count mismatch
    victim = next(os.path.join(rr, f)
                  for rr, _, fs in os.walk(os.path.join(
                      out, "fragment=shard-0000"))
                  for f in fs if f.endswith(".parquet"))
    os.unlink(victim)
    r2 = fsck_archive(out)
    assert not r2["ok"] and any("count mismatch" in p
                                for p in r2["problems"])

    # untracked fragment dir -> flagged
    os.makedirs(os.path.join(out, "fragment=ghost"))
    r3 = fsck_archive(out)
    assert any("untracked fragment dir" in p for p in r3["problems"])
