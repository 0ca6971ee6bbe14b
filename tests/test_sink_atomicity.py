"""Retry-atomicity of the GLT and IR sinks (state/atomic.py discipline).

Each test kills a real sink task mid-write (os._exit, the OOM-kill shape —
Ray retries it as a system failure), leaves a torn *.inprogress tmp behind,
and asserts the retried job yields EXACTLY the input rows: no duplicate part
files, no torn files visible to readers, sweeps clean.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _transcript_table(n: int) -> pa.Table:
    base = 1_700_000_000_000_000
    return pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 31, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"INFO req {i} took {i % 9}.5 ms" for i in range(n)]),
        "tool": pa.array([""] * n),
        "ts": pa.array([base + i * 1000 for i in range(n)],
                       type=pa.timestamp("us")),
    })


def _walk(d, suffix):
    return sorted(os.path.join(r, f) for r, _, fs in os.walk(d)
                  for f in fs if f.endswith(suffix))


def test_glt_sink_survives_task_kill(ray_session, tmp_path):
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import write_glt

    n = 3000
    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(_transcript_table(n)),
             input_label="test")
    glt_dir = str(tmp_path / "glt")
    marker = str(tmp_path / "crashed.once")
    rows = write_glt(arch, glt_dir, _test_crash_marker=marker)
    assert os.path.exists(marker)  # the crash really happened
    assert sum(rows.values()) == n  # accounting sees each row exactly once
    # on-disk rows are exact: the retried group re-derived the same
    # content-hash names, so nothing duplicated
    files = _walk(glt_dir, ".parquet")
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) == n
    # the torn tmp was swept once the job completed
    assert _walk(glt_dir, ".inprogress") == []


def test_glt_search_ignores_stray_inprogress(ray_session, tmp_path):
    """A reader racing a crashed job must skip torn *.inprogress files."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.glt import glt_search, write_glt

    n = 3000
    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(_transcript_table(n)),
             input_label="test")
    glt_dir = os.path.join(arch, "glt")
    write_glt(arch, glt_dir)
    # plant a torn tmp in every sink dir, as a mid-crash job would leave
    for d in os.listdir(glt_dir):
        full = os.path.join(glt_dir, d)
        if os.path.isdir(full):
            with open(os.path.join(full, "part-dead.1.inprogress"), "wb") as f:
                f.write(b"PAR1torn")
    hits = glt_search(arch, "INFO req *").count()
    assert hits == n


def test_ir_write_survives_task_kill(ray_session, tmp_path):
    import ray.data as rd

    from clp_core_ray.ir import read_ir, write_ir

    n = 2000
    tbl = pa.table({
        "ts": pa.array(np.arange(n, dtype=np.int64) * 250
                       + 1_700_000_000_000),
        "text": pa.array([f"event {i} code={i % 13}" for i in range(n)]),
    })
    out = str(tmp_path / "ir")
    marker = str(tmp_path / "crashed.once")
    paths = write_ir(rd.from_arrow(tbl).repartition(2), out,
                     target_bytes=8 * 1024, _test_crash_marker=marker)
    assert os.path.exists(marker)
    assert len(paths) == len(set(paths))  # content names never duplicate
    got = read_ir(out).to_pandas()
    assert len(got) == n
    assert sorted(got["text"]) == sorted(tbl.column("text").to_pylist())
    assert _walk(out, ".inprogress") == []


def test_content_name_no_endpoint_collision():
    """Two distinct slices sharing endpoints must hash to different names
    (the silent-data-loss collision ADVICE r3 flagged)."""
    from clp_core_ray.state.atomic import content_name

    def tbl(mid):
        return pa.table({
            "conv_id": pa.array(["a", mid, "z"]),
            "turn_idx": pa.array([0, 1, 2], type=pa.int32()),
            "ts": pa.array([10, 20, 30], type=pa.int64()),
        })

    a, b = tbl("m1"), tbl("m2")
    assert content_name("part", a) != content_name("part", b)
    # deterministic across identical content (retry overwrites, not dups)
    assert content_name("part", a) == content_name("part", tbl("m1"))


@pytest.mark.parametrize("writer", ["table", "replace_table", "bytes", "job"])
def test_same_final_name_from_two_threads(tmp_path, monkeypatch, writer):
    """Two threads of ONE process write the same final name (racing ingest
    pollers, a fragment pool). A barrier in os.replace makes both finish
    their tmp files before either replaces: with a tmp name shared per
    process, the second replace finds its tmp already moved."""
    import threading

    from clp_core_ray.state import atomic, jobs

    tbl = pa.table({"k": pa.array([1, 2, 3])})
    write = {
        "table": lambda: atomic.atomic_write_table(tbl, str(tmp_path)),
        "replace_table": lambda: atomic.atomic_replace_table(
            tbl, str(tmp_path / "t.parquet")),
        "bytes": lambda: atomic.atomic_write_bytes(
            b"payload", str(tmp_path), prefix="b", suffix=".bin"),
        "job": lambda: jobs.mark_failed(str(tmp_path), "frag", [], "p",
                                        1, "boom"),
    }[writer]

    barrier = threading.Barrier(2)
    real_replace = os.replace

    def replace_after_both_wrote(src, dst):
        if str(src).endswith(".inprogress"):
            barrier.wait(timeout=30)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_both_wrote)
    errors = []

    def run():
        try:
            write()
        except Exception as e:  # noqa: BLE001 — surfaced by the assert
            errors.append(e)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert _walk(str(tmp_path), ".inprogress") == []
