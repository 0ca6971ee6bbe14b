"""The archive dictionary finalize (state/dictionaries.write_archive_dicts):
its entry shapes agree, it handles an empty input, and compress drops its
dict-delta scratch without losing a rerun after a crash."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def turns():
    from clp_core_ray.sources.transcripts import synth_transcripts

    return synth_transcripts(600)


def _dict_state(archive: str):
    """An archive's dictionaries as comparable values: sorted logtype rows,
    the class index, and sorted var rows with sorted class lists."""
    lt = pq.read_table(os.path.join(archive, "logtype.dict.parquet"))
    lt_rows = sorted(zip(lt.column("logtype_id").to_pylist(),
                         lt.column("logtype").to_pylist(),
                         lt.column("n_vars").to_pylist()))
    with open(os.path.join(archive, "class_logtypes.json")) as f:
        by_class = {k: sorted(v) for k, v in json.load(f).items()}
    vdir = os.path.join(archive, "var.dict")
    var = pa.concat_tables(pq.read_table(os.path.join(vdir, f))
                           for f in sorted(os.listdir(vdir))
                           if f.endswith(".parquet"))
    var_rows = sorted(zip(var.column("var_id").to_pylist(),
                          var.column("value").to_pylist(),
                          (sorted(c) for c in var.column("classes").to_pylist())))
    return lt_rows, by_class, var_rows


def _var_dict_parts(archive: str) -> int:
    return len([f for f in os.listdir(os.path.join(archive, "var.dict"))
                if f.endswith(".parquet")])


def _check_entry_shapes(tmp_path, turns, side: str) -> None:
    """compress() (delta watcher), the sink stage + write_archive_dicts
    without refs, and merge_archives of the first archive all write the
    same dictionaries on the finalize ``side``, which each manifest
    records; the local side writes one var.dict part, the Ray side one per
    bucket."""
    import ray.data as rd

    from clp_core_ray.pipelines.compact import merge_archives
    from clp_core_ray.pipelines.compress import (SINK_DICT_COLS,
                                                 FusedSinkStage, compress)
    from clp_core_ray.state.dictionaries import (N_FINALIZE_BUCKETS,
                                                 write_archive_dicts)
    from clp_core_ray.state.manifest import read_manifests

    a = str(tmp_path / "a")
    compress(None, a, ds=rd.from_arrow(turns), input_label="a")

    b = str(tmp_path / "b")
    delta = os.path.join(b, "dict.deltas")
    os.makedirs(os.path.join(b, "routed"))
    sink = FusedSinkStage(routed_dir=os.path.join(b, "routed"),
                          dict_delta_dir=delta, compact=True,
                          dict_cols=SINK_DICT_COLS)
    for block in turns.to_batches(max_chunksize=200):
        sink(pa.Table.from_batches([block]))
    info = write_archive_dicts(b, delta)
    delta_bytes = sum(os.path.getsize(os.path.join(delta, f))
                      for f in os.listdir(delta))
    assert info["side"] == side and info["input_bytes"] == delta_bytes > 0

    c = str(tmp_path / "c")
    merge_archives([a], c)

    want = _dict_state(a)
    assert want[0] and want[1] and want[2]
    assert _dict_state(b) == want
    assert _dict_state(c) == want
    parts = 1 if side == "local" else N_FINALIZE_BUCKETS
    assert [_var_dict_parts(x) for x in (a, b, c)] == [parts] * 3

    (ma,) = read_manifests(a)
    assert ma["metrics"]["finalize_side"] == side
    assert ma["metrics"]["dict_input_bytes"] > 0
    (mc,) = read_manifests(c)
    assert mc["metrics"]["finalize_side"] == side
    assert mc["metrics"]["dict_input_bytes"] == (
        sum(os.path.getsize(os.path.join(a, "var.dict", f))
            for f in os.listdir(os.path.join(a, "var.dict")))
        + os.path.getsize(os.path.join(a, "logtype.dict.parquet")))
    assert mc["metrics"]["finalize_sec"] >= 0


def test_finalize_entry_shapes_agree(ray_session, tmp_path, turns):
    """Small dictionaries finalize in the calling process."""
    _check_entry_shapes(tmp_path, turns, "local")


def test_finalize_entry_shapes_agree_ray_side(ray_session, tmp_path, turns,
                                              monkeypatch):
    """Dictionaries above LOCAL_FINALIZE_BYTES take the bucketed Ray merge
    and write the same entries."""
    from clp_core_ray import execution

    monkeypatch.setattr(execution, "LOCAL_FINALIZE_BYTES", -1)
    _check_entry_shapes(tmp_path, turns, "ray")


def test_local_finalize_detects_id_collision(tmp_path):
    """Two delta rows with one id and different values fail the local
    finalize instead of decoding wrong text."""
    from clp_core_ray.state.dictionaries import (UNIFIED_SCHEMA,
                                                 write_archive_dicts)

    delta = tmp_path / "dict.deltas"
    delta.mkdir()
    for i, value in enumerate(["alpha", "beta"]):
        t = pa.table({"kind": pa.array([1], pa.int8()),
                      "id": pa.array([42], pa.int64()),
                      "value": pa.array([value], pa.large_string()),
                      "n_vars": pa.array([0], pa.int32()),
                      "logtype_class": pa.array(["c"], pa.string())},
                     schema=UNIFIED_SCHEMA)
        with pa.OSFile(str(delta / f"d{i}.arrow"), "wb") as f, \
                pa.ipc.new_file(f, t.schema) as w:
            w.write_table(t)
    with pytest.raises(ValueError, match="collision"):
        write_archive_dicts(str(tmp_path / "out"), str(delta))


def test_empty_input_archive(ray_session, tmp_path, turns):
    """An empty input makes an archive that decompresses and searches to
    0 rows; its finalize saw no deltas and still wrote every dictionary
    file."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress, load_dicts
    from clp_core_ray.pipelines.search import search_archive

    out = str(tmp_path / "empty")
    compress(None, out, ds=rd.from_arrow(turns.slice(0, 0)))
    dec = decompress(out)
    assert dec.count() == 0
    assert dec.schema().names == ["conv_id", "turn_idx", "text"]
    assert search_archive(out, "*").count() == 0

    assert pq.read_table(os.path.join(out, "logtype.dict.parquet")).num_rows == 0
    with open(os.path.join(out, "class_logtypes.json")) as f:
        assert json.load(f) == {}
    dicts = load_dicts(out)
    assert len(dicts.var_ids) == len(dicts.var_values) == 0
    assert dicts.var_classes is None  # only var_id and value were read
    assert not os.path.exists(os.path.join(out, "dict.deltas"))


def test_empty_input_archive_search_columns(ray_session, tmp_path, turns):
    """search_archive with a passthrough column on an empty-input archive
    returns 0 rows typed like decompress's output for the same columns."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.pipelines.search import (search_archive,
                                               search_archive_multi)

    out = str(tmp_path / "empty")
    compress(None, out, ds=rd.from_arrow(turns.slice(0, 0)))
    dec = decompress(out, columns=("conv_id", "turn_idx", "ts"))
    got = search_archive(out, "*", columns=["ts"])
    assert got.count() == 0
    schema = got.schema()
    assert schema.names == ["conv_id", "turn_idx", "text", "ts"]
    assert schema.types == [dec.schema().base_schema.field(c).type
                            for c in schema.names]
    assert schema.base_schema.field("ts").type == turns.schema.field("ts").type
    assert search_archive_multi(out, ["*", "x"]).count() == 0


def _check_reproducible(tmp_path) -> int:
    """Compressing one input twice writes byte-identical dictionaries: the
    logtype dict, the class index and every var.dict part. Returns the
    number of var.dict parts."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    turns = synth_transcripts(3000, seed=8)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        compress(None, out, ds=rd.from_arrow(turns).repartition(12))
        outs.append(out)

    def dict_files(out):
        vdir = os.path.join(out, "var.dict")
        return (["logtype.dict.parquet", "class_logtypes.json"]
                + [os.path.join("var.dict", f) for f in sorted(os.listdir(vdir))])

    names = dict_files(outs[0])
    assert names == dict_files(outs[1]) and len(names) > 2
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as fa, \
                open(os.path.join(outs[1], name), "rb") as fb:
            assert fa.read() == fb.read(), name
    return len(names) - 2


def test_compress_is_reproducible(ray_session, tmp_path):
    assert _check_reproducible(tmp_path) == 1


def test_compress_is_reproducible_ray_side(ray_session, tmp_path,
                                           monkeypatch):
    from clp_core_ray import execution
    from clp_core_ray.state import dictionaries

    monkeypatch.setattr(execution, "LOCAL_FINALIZE_BYTES", -1)
    assert _check_reproducible(tmp_path) == dictionaries.N_FINALIZE_BUCKETS


def test_compress_rerun_after_crash_before_commit(ray_session, tmp_path,
                                                  monkeypatch, turns):
    """A crash while compress drops its dict deltas leaves no manifest; a
    rerun into the same dir commits once and decodes to the input rows."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.state.manifest import read_manifests

    out = str(tmp_path / "arch")
    real_rmtree = shutil.rmtree

    def crash(path, *args, **kwargs):
        if os.path.basename(path) == "dict.deltas":
            raise OSError("injected crash")
        return real_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(shutil, "rmtree", crash)
    with pytest.raises(OSError, match="injected crash"):
        compress(None, out, ds=rd.from_arrow(turns))
    monkeypatch.undo()
    assert read_manifests(out) == []
    assert os.listdir(os.path.join(out, "dict.deltas"))

    compress(None, out, ds=rd.from_arrow(turns))
    assert len(read_manifests(out)) == 1
    assert not os.path.exists(os.path.join(out, "dict.deltas"))
    key = ["conv_id", "turn_idx"]
    got = decompress(out).to_pandas().sort_values(key)
    want = turns.to_pandas().sort_values(key)
    assert got[key + ["text"]].values.tolist() == \
        want[key + ["text"]].values.tolist()
