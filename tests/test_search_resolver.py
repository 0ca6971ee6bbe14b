"""One search resolver (pipelines/search.py ``_target_plans``): one
archive, an archive base and a fragment base are selected by the same
manifest predicate and planned alike, and every search entry point runs
its plans once, on one side."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clp_core_ray import execution

KINDS = ["archive", "archive base", "fragment base"]
QUERIES = ["ERROR*timeout", "*slow query*", "zz_no_such_token_zz",
           "*memory pressure*"]
FAR_FUTURE_US = 1 << 60


@pytest.fixture(scope="module")
def targets(ray_session, tmp_path_factory):
    """The same 600 turns as one archive, as an archive base of two
    archives (the first tagged ``keep``) and as a fragment base of three
    fragments."""
    import ray.data as rd

    from clp_core_ray.pipelines import ingest
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    turns = synth_transcripts(600, seed=5)
    root = tmp_path_factory.mktemp("resolver")
    arch = str(root / "arch")
    compress(None, arch, ds=rd.from_arrow(turns), input_label="all")
    base = root / "base"
    compress(None, str(base / "a0"), ds=rd.from_arrow(turns.slice(0, 300)),
             input_label="lo", tags=["keep"])
    compress(None, str(base / "a1"), ds=rd.from_arrow(turns.slice(300)),
             input_label="hi")
    indir = root / "in"
    indir.mkdir()
    for i in range(3):
        pq.write_table(turns.slice(200 * i, 200),
                       str(indir / f"shard-{i:04d}.parquet"))
    frags = str(root / "frags")
    assert len(ingest.poll(str(indir), frags)["done"]) == 3
    return {"archive": arch, "archive base": str(base),
            "fragment base": frags}


def _table(ds) -> pa.Table:
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(parts) if parts else None


def _keys(ds) -> list:
    t = _table(ds)
    if t is None:
        return []
    names = [c for c in ("query_idx", "conv_id", "turn_idx", "text")
             if c in t.column_names]
    return sorted(zip(*(t.column(c).to_pylist() for c in names)))


def _count(target, q, **prune) -> int:
    from clp_core_ray.pipelines.search import search_count

    return search_count(target, q, **prune).column("cnt")[0].as_py()


@pytest.mark.parametrize("kind", KINDS)
def test_count_multi_equals_singles(targets, kind):
    """``search_count_multi`` and ``search_archive_multi`` give each query
    what its own search gives, on every target kind, base dirs
    included."""
    from clp_core_ray.pipelines.search import (search_archive_multi,
                                               search_count_multi)

    t = targets[kind]
    singles = [_count(t, q) for q in QUERIES]
    assert singles[0] > 0 and singles[2] == 0
    got = search_count_multi(t, QUERIES)
    assert got.column("query_idx").to_pylist() == list(range(len(QUERIES)))
    assert got.column("cnt").to_pylist() == singles
    qidx = [k[0] for k in _keys(search_archive_multi(t, QUERIES))]
    assert np.bincount(qidx, minlength=len(QUERIES)).tolist() == singles


def test_every_kind_finds_the_same_matches(targets):
    from clp_core_ray.pipelines.search import search_archive

    want = _keys(search_archive(targets["archive"], "ERROR*timeout"))
    assert want
    for kind in KINDS[1:]:
        assert _keys(search_archive(targets[kind], "ERROR*timeout")) == want


@pytest.mark.parametrize("kind", KINDS)
def test_empty_result_keeps_requested_columns(targets, kind):
    """An empty result carries the requested passthrough columns, typed
    as decompress types them, whether the target was pruned away, the
    query missed the dictionaries or matches exist."""
    from clp_core_ray.pipelines.decompress import _ROW_TYPES
    from clp_core_ray.pipelines.search import search_federated

    t = targets[kind]
    hit = search_federated([t], "ERROR*timeout", columns=["ts"])
    pruned = search_federated([t], "ERROR*timeout", columns=["ts"],
                              ts_min=FAR_FUTURE_US)
    missed = search_federated([t], "zz_no_such_token_zz", columns=["ts"])
    assert _table(hit).num_rows > 0
    for ds in (hit, pruned, missed):
        schema = ds.schema()
        assert schema.names == ["conv_id", "turn_idx", "text", "ts"]
        assert schema.types[-1] == _ROW_TYPES["ts"]
    assert _keys(pruned) == _keys(missed) == []


def test_fragment_base_honours_tags(targets):
    """``--tag`` keeps only archives carrying the tag; fragment manifests
    carry no tags, so a fragment base keeps none."""
    assert _count(targets["archive base"], "*", tags=["keep"]) == 300
    assert _count(targets["archive base"], "*", tags=["other"]) == 0
    assert _count(targets["fragment base"], "*") == 600
    assert _count(targets["fragment base"], "*", tags=["keep"]) == 0


@pytest.fixture(scope="module")
def generations(ray_session, tmp_path_factory):
    """Two generations: the second changes conv-b, so gen-0's old conv-b
    text is masked from search."""
    import ray.data as rd

    from clp_core_ray.pipelines.incremental import compress_incremental

    def snap(convs):
        ts = np.datetime64("2024-01-01T00:00:00", "us")
        rows = [{"conv_id": c, "turn_idx": np.int32(i), "role": "user",
                 "text": tx, "tool": "", "ts": ts + np.timedelta64(i, "m")}
                for c, texts in sorted(convs.items())
                for i, tx in enumerate(texts)]
        return lambda: rd.from_items(rows)

    base = str(tmp_path_factory.mktemp("gens") / "layers")
    old = {"conv-a": ["ERROR upstream timeout after 1 retries", "ok"],
           "conv-b": ["ERROR upstream timeout after 3 retries", "ack"]}
    compress_incremental(snap(old), base)
    compress_incremental(snap({**old, "conv-b": [
        "ERROR upstream timeout after 99 retries", "ack"]}), base)
    return base


def _spy_ray_jobs(monkeypatch) -> dict:
    """Calls that build a Ray Data job over search results: a sink read, a
    per-batch map or a union of Datasets."""
    import ray.data as rd

    calls = {"read_parquet": 0, "map_batches": 0, "union": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapped(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        monkeypatch.setattr(owner, name, wrapped)

    spy(rd, "read_parquet")
    spy(rd.Dataset, "map_batches")
    spy(rd.Dataset, "union")
    return calls


def test_search_makes_one_scan_choice(targets, generations, monkeypatch):
    """A federated search and a search across generations plan every
    branch first and choose the scan side once: at this size no Ray Data
    job at all, and with the constant at -1 one sink read per plan and
    the same rows."""
    from clp_core_ray.pipelines.incremental import search_incremental
    from clp_core_ray.pipelines.search import search_federated

    fed = [targets["fragment base"], targets["archive"]]

    def run():
        return (_keys(search_federated(fed, "ERROR*timeout")),
                _keys(search_incremental(generations, "ERROR upstream*")))

    calls = _spy_ray_jobs(monkeypatch)
    local = run()
    assert calls == {"read_parquet": 0, "map_batches": 0, "union": 0}
    assert len(local[0]) == 2 * _count(targets["archive"], "ERROR*timeout")
    assert [k[2] for k in local[1]] == [
        "ERROR upstream timeout after 1 retries",
        "ERROR upstream timeout after 99 retries"]

    monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", -1)
    assert run() == local
    assert calls["read_parquet"] == 3 + 1 + 2  # fragments, archive, gens
    assert calls["union"] == 2  # one per search


def test_counts_match_on_ray_side(targets, monkeypatch):
    """Counts and count-by-time ship partial counts from the Ray side and
    sum to what the in-process side counts."""
    from clp_core_ray.pipelines.search import (search_count_by_time,
                                               search_count_multi)

    def run():
        t = targets["archive base"]
        return (search_count_multi(t, QUERIES).to_pydict(),
                search_count_by_time(t, "ERROR*timeout", bucket_ms=60_000)
                .to_pandas().sort_values("bucket").to_dict("list"))

    local = run()
    assert sum(local[1]["cnt"]) == local[0]["cnt"][0] > 0
    monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", -1)
    assert run() == local
