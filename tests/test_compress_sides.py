"""``compress`` in process and as a Ray Data job write the same archive, and
ingest fragments that compress in process stay robust.

Each side is forced through ``execution.LOCAL_COMPRESS_BYTES``: above every
input for the in-process side, -1 for the Ray side.
"""

import glob
import gzip
import json
import os
import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clp_core_ray import execution

SIDES = (("local", 1 << 62), ("ray", -1))


def _sink_names(arch: str) -> list[str]:
    routed = os.path.join(arch, "routed")
    return sorted(os.path.relpath(os.path.join(r, f), routed)
                  for r, _, fs in os.walk(routed) for f in fs)


def _sorted_rows(t: pa.Table) -> list:
    return sorted(json.dumps(r, sort_keys=True, default=str)
                  for r in t.to_pylist())


def _facts(arch: str) -> dict:
    """Class counts, ts range and dictionary rows from the archive's
    manifest and dictionary files."""
    from clp_core_ray.state.manifest import read_manifests

    (m,) = read_manifests(arch)
    var = pa.concat_tables(
        pq.read_table(f) for f in
        sorted(glob.glob(os.path.join(arch, "var.dict", "*.parquet"))))
    return {
        "class_counts": m["class_counts"],
        "ts": (m.get("ts_min"), m.get("ts_max")),
        "logtypes": pq.read_table(
            os.path.join(arch, "logtype.dict.parquet")).to_pylist(),
        "vars": _sorted_rows(var),
    }


def _decoded(arch: str) -> pa.Table:
    from clp_core_ray.pipelines.decompress import decompress

    parts = [pa.table(b) for b in
             decompress(arch, columns=("conv_id", "turn_idx", "ts"))
             .iter_batches(batch_format="pyarrow")]
    return (pa.concat_tables(parts)
            .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]))


def _hits(arch: str, query: str) -> pa.Table:
    from clp_core_ray.pipelines.search import search_archive

    parts = [pa.table(b) for b in
             search_archive(arch, query).iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(parts) if parts else pa.table({})
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _on_both_sides(monkeypatch, write, base: str) -> dict:
    """``write(out_dir)`` once per side → {side: archive dir}; each
    archive's manifest records the side it ran on."""
    from clp_core_ray.state.manifest import read_manifests

    out = {}
    for side, limit in SIDES:
        monkeypatch.setattr(execution, "LOCAL_COMPRESS_BYTES", limit)
        arch = os.path.join(base, side)
        write(arch)
        (m,) = read_manifests(arch)
        assert m["metrics"]["compress_side"] == side
        assert m["metrics"]["input_bytes"] > 0
        out[side] = arch
    return out


def _assert_same_archive(a: str, b: str, same_names: bool) -> None:
    assert _facts(a) == _facts(b)
    assert _decoded(a).equals(_decoded(b))
    if same_names:
        assert _sink_names(a) == _sink_names(b)
    # the in-process side writes one file per class
    assert len(_sink_names(a)) == len(_facts(a)["class_counts"])


def _transcript_files(tmp_path, n_files: int) -> list[str]:
    from clp_core_ray.sources.transcripts import synth_transcripts

    t = synth_transcripts(1200, seed=7)
    step = -(-t.num_rows // n_files)
    paths = []
    for i in range(n_files):
        p = str(tmp_path / f"part-{i}.parquet")
        pq.write_table(t.slice(i * step, step), p)
        paths.append(p)
    return paths


def _log_text(k: int, n: int = 160) -> str:
    """Timestamped messages, every 20th an exception with a multi-line
    stack trace (continuation lines carry no timestamp)."""
    lines = []
    for i in range(n):
        ts = f"2024-03-0{1 + k} 10:{i % 60:02d}:{(7 * i) % 60:02d},{i:03d}"
        if i % 20 == 0:
            lines += [f"{ts} ERROR worker-{i % 4} task t{k}{i} failed: "
                      f"java.io.IOException: disk {i} unavailable",
                      f"\tat org.example.Store.write(Store.java:{100 + i})",
                      "\tat org.example.Task.run(Task.java:42)",
                      f"Caused by: timeout after {i % 9}.5 s"]
        else:
            lines.append(f"{ts} INFO block blk_{k}{i:04d} replicated to "
                         f"10.0.{k}.{i % 200} size {13 * i} bytes")
    return "\n".join(lines) + "\n"


def _log_files(tmp_path) -> list[str]:
    """Two plain log files and one gzip'd one."""
    d = tmp_path / "logs"
    d.mkdir()
    paths = []
    for k in range(2):
        p = d / f"app-{k}.log"
        p.write_text(_log_text(k))
        paths.append(str(p))
    gz = d / "app-2.log.gz"
    gz.write_bytes(gzip.compress(_log_text(2).encode()))
    return paths + [str(gz)]


def _tree(d: str) -> dict:
    out = {}
    for r, _, fs in os.walk(d):
        for f in fs:
            with open(os.path.join(r, f), "rb") as fh:
                out[os.path.relpath(os.path.join(r, f), d)] = fh.read()
    return out


def test_sides_write_same_transcript_archive(ray_session, tmp_path,
                                             monkeypatch):
    """One parquet file: the sides write the same sink files (one block on
    Ray, one call in process). Two files: Ray writes one block per file,
    the in-process side one file per class; everything else agrees."""
    from clp_core_ray.pipelines.compress import compress

    (tmp_path / "one").mkdir()
    (one,) = _transcript_files(tmp_path / "one", 1)
    a = _on_both_sides(monkeypatch, lambda out: compress([one], out),
                       str(tmp_path / "a1"))
    _assert_same_archive(a["local"], a["ray"], same_names=True)

    (tmp_path / "two").mkdir()
    two = _transcript_files(tmp_path / "two", 2)
    b = _on_both_sides(monkeypatch, lambda out: compress(two, out),
                       str(tmp_path / "a2"))
    _assert_same_archive(b["local"], b["ray"], same_names=False)
    assert _decoded(a["local"]).equals(_decoded(b["local"]))


def test_sides_write_same_text_log_archive(ray_session, tmp_path,
                                           monkeypatch):
    """Text logs with multi-line stack traces and a .gz input: the sides
    agree on counts, dictionaries and decode, and extract byte-identical
    files equal to the inputs. A single file writes the same sink
    files on both sides."""
    from clp_core_ray.pipelines.compress import compress_text_logs
    from clp_core_ray.pipelines.decompress import extract_text_logs

    logs = _log_files(tmp_path)
    a = _on_both_sides(monkeypatch, lambda out: compress_text_logs(logs, out),
                       str(tmp_path / "all"))
    _assert_same_archive(a["local"], a["ray"], same_names=False)
    trees = {}
    for side, arch in a.items():
        out = str(tmp_path / f"x-{side}")
        extract_text_logs(arch, out)
        trees[side] = _tree(out)
    assert trees["local"] == trees["ray"]
    want = [_log_text(k).encode() for k in range(3)]
    assert sorted(trees["local"].values()) == sorted(want)

    g = _on_both_sides(monkeypatch,
                       lambda out: compress_text_logs([logs[2]], out),
                       str(tmp_path / "gz"))
    _assert_same_archive(g["local"], g["ray"], same_names=True)


def test_merge_of_local_and_ray_fragments_searches_alike(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """merge_archives of an in-process fragment and a Ray one searches and
    decodes as one archive of the whole input."""
    from clp_core_ray.pipelines.compact import merge_archives
    from clp_core_ray.pipelines.compress import compress

    files = _transcript_files(tmp_path, 2)
    for (side, limit), f in zip(SIDES, files):
        monkeypatch.setattr(execution, "LOCAL_COMPRESS_BYTES", limit)
        compress([f], str(tmp_path / f"frag-{side}"))
    whole = str(tmp_path / "whole")
    compress(files, whole)
    merged = str(tmp_path / "merged")
    merge_archives([str(tmp_path / "frag-local"), str(tmp_path / "frag-ray")],
                   merged)
    for q in ("*ERROR*", "*timeout*", "*u42*"):
        assert _hits(merged, q).equals(_hits(whole, q)), q
    assert _decoded(merged).equals(_decoded(whole))


# -- ingest fragments on the in-process side --------------------------------

def _inbox(tmp_path, fmt: str) -> list[str]:
    d = tmp_path / "inbox"
    d.mkdir()
    if fmt == "textlog":
        for k in range(3):
            (d / f"app-{k}.log").write_text(_log_text(k))
        return sorted(glob.glob(str(d / "*.log")))
    return _transcript_files(d, 3)


@pytest.mark.parametrize("fmt", ["transcripts", "textlog"])
def test_poll_runs_small_fragments_on_calling_thread(ray_session, tmp_path,
                                                     monkeypatch, fmt):
    """Small fragments compress on the polling thread, with no delta
    watcher and no Ray Data map, and record the in-process side."""
    import ray.data as rd

    from clp_core_ray.pipelines import compress as cp
    from clp_core_ray.pipelines import ingest
    from clp_core_ray.state.manifest import read_manifests

    files = _inbox(tmp_path, fmt)
    attr = {"transcripts": (cp, "run_one_fragment"),
            "textlog": (ingest, "run_one_textlog_fragment")}[fmt]
    real = getattr(*attr)
    threads, watchers, maps = [], [], []

    def runner(frag, paths, out_dir):
        threads.append(threading.get_ident())
        return real(frag, paths, out_dir)

    class Recording(cp._DeltaWatcher):
        def start(self):
            watchers.append(self)
            return super().start()

    real_map = rd.Dataset.map_batches

    def map_batches(self, *a, **kw):
        maps.append(a)
        return real_map(self, *a, **kw)

    monkeypatch.setattr(*attr, runner)
    monkeypatch.setattr(cp, "_DeltaWatcher", Recording)
    monkeypatch.setattr(rd.Dataset, "map_batches", map_batches)
    base = str(tmp_path / "base")
    s = ingest.poll(str(tmp_path / "inbox"), base, fmt=fmt)
    monkeypatch.undo()

    assert len(s["done"]) == len(files) and not s["failed"]
    assert threads == [threading.get_ident()] * len(files)
    assert watchers == [] and maps == []
    for m in read_manifests(base):
        (inner,) = read_manifests(m["sink"])
        assert inner["metrics"]["compress_side"] == "local"


def test_failed_local_fragment_leaves_nothing_and_retries(ray_session,
                                                          tmp_path,
                                                          monkeypatch):
    """An in-process compress that fails after writing part of its sink
    leaves no fragment manifest and no ``.inprogress`` file, and its job
    is marked failed; the next poll retries it to the exact row count."""
    from clp_core_ray.pipelines import compress as cp
    from clp_core_ray.pipelines.ingest import poll
    from clp_core_ray.state import jobs
    from clp_core_ray.state import manifest as mf
    from clp_core_ray.state.atomic import inprogress_path

    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (f,) = _transcript_files(inbox, 1)
    n = pq.ParquetFile(f).metadata.num_rows
    frag = os.path.splitext(os.path.basename(f))[0]
    base = str(tmp_path / "base")
    real = cp.atomic_write_table
    calls = []

    def flaky(table, dir_, **kw):
        calls.append(dir_)
        if len(calls) == 2:  # the second class: a torn write
            with open(inprogress_path(os.path.join(dir_, "part-x")),
                      "wb") as fh:
                fh.write(b"PAR1")
            raise OSError("disk full")
        return real(table, dir_, **kw)

    monkeypatch.setattr(cp, "atomic_write_table", flaky)
    s = poll(str(inbox), base)
    assert s["failed"] == [frag] and not s["done"]
    assert frag not in mf.completed_fragments(base)
    assert mf.read_manifests(os.path.join(base, f"fragment={frag}")) == []
    assert not glob.glob(os.path.join(base, "**", "*.inprogress"),
                         recursive=True)
    assert jobs.read_jobs(base)[frag]["state"] == "failed"

    monkeypatch.setattr(cp, "atomic_write_table", real)
    s = poll(str(inbox), base)
    assert s["done"] == [frag] and not s["failed"]
    (m,) = mf.read_manifests(base)
    assert m["rows"] == n == sum(m["class_counts"].values())
    routed = glob.glob(os.path.join(m["sink"], "routed", "*", "*.parquet"))
    assert sum(pq.ParquetFile(p).metadata.num_rows for p in routed) == n
