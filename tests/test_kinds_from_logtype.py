"""Readers take each variable's kind and count from the logtype's
placeholder bytes. An archive whose sink files carry neither ``var_types``
nor ``n_vars`` must read exactly as the archive it was stripped from, on
every read path and on either side."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clp_core_ray import execution

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "log.txt")
KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]
QUERIES = ["*", "*ERROR*", "*user*", "*42*"]


def _strip(archive: str, out: str) -> str:
    """A copy of ``archive`` with every sink file rewritten without the
    ``var_types`` and ``n_vars`` columns."""
    shutil.copytree(archive, out)
    for root, _, files in os.walk(os.path.join(out, "routed")):
        for f in files:
            if f.endswith(".parquet"):
                path = os.path.join(root, f)
                t = pq.read_table(path, partitioning=None)
                drop = [c for c in ("var_types", "n_vars")
                        if c in t.column_names]
                pq.write_table(t.drop_columns(drop), path)
    return out


@pytest.fixture(scope="module")
def archives(ray_session, tmp_path_factory):
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress, compress_text_logs
    from clp_core_ray.sources.transcripts import synth_transcripts

    base = tmp_path_factory.mktemp("kinds")
    turns = str(base / "turns")
    compress(None, turns, ds=rd.from_arrow(synth_transcripts(1500, seed=3)),
             input_label="t")
    inbox = base / "inbox"
    inbox.mkdir()
    src = str(inbox / "log.txt")
    shutil.copyfile(FIXTURE, src)
    logs = str(base / "logs")
    compress_text_logs([src], logs)
    return {"turns": turns, "logs": logs,
            "turns_stripped": _strip(turns, str(base / "turns_stripped")),
            "logs_stripped": _strip(logs, str(base / "logs_stripped"))}


def _rows(ds) -> pa.Table:
    return pa.concat_tables([pa.table(b) for b in ds.iter_batches(
        batch_format="pyarrow")]).sort_by(KEYS)


@pytest.mark.parametrize("side", ["local", "ray"])
def test_stripped_decompress_and_search(archives, monkeypatch, side):
    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.pipelines.search import search_archive

    if side == "ray":
        monkeypatch.setattr(execution, "LOCAL_DECODE_BYTES", -1)
        monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", -1)
    cols = ("conv_id", "turn_idx", "ts")
    for name in ("turns", "logs"):
        want = _rows(decompress(archives[name], columns=cols))
        got = _rows(decompress(archives[name + "_stripped"], columns=cols))
        assert want.num_rows and got.equals(want)
    for q in QUERIES:
        want = _rows(search_archive(archives["turns"], q))
        got = _rows(search_archive(archives["turns_stripped"], q))
        assert got.equals(want), q


def test_stripped_partitioned_decode(archives, monkeypatch):
    """Over the broadcast cap each row's dict-var count comes from its
    template in the partitioned join."""
    from clp_core_ray.pipelines.decompress import decompress

    want = _rows(decompress(archives["turns"]))
    monkeypatch.setattr(execution, "DICT_BROADCAST_BYTES", -1)
    got = _rows(decompress(archives["turns_stripped"]))
    assert want.num_rows and got.equals(want)


def _chunks(out: str) -> dict:
    """IR chunk file name → bytes (names are content hashes)."""
    chunks = {}
    for f in os.listdir(out):
        with open(os.path.join(out, f), "rb") as fh:
            chunks[f] = fh.read()
    return chunks


@pytest.mark.parametrize("four_byte", [True, False])
def test_stripped_ir_chunks_identical(archives, tmp_path, four_byte):
    from clp_core_ray.pipelines.decompress import extract_ir_chunks

    for name in ("turns", "logs"):
        a, b = str(tmp_path / name), str(tmp_path / (name + "_stripped"))
        extract_ir_chunks(archives[name], a, four_byte=four_byte)
        extract_ir_chunks(archives[name + "_stripped"], b,
                          four_byte=four_byte)
        assert _chunks(a) and _chunks(a) == _chunks(b)


def test_stripped_text_logs_identical(archives, tmp_path):
    from clp_core_ray.pipelines.decompress import extract_text_logs

    a = extract_text_logs(archives["logs"], str(tmp_path / "a"))
    b = extract_text_logs(archives["logs_stripped"], str(tmp_path / "b"))
    assert [os.path.basename(p) for p in a] == [os.path.basename(p) for p in b]
    for pa_, pb in zip(a, b):
        with open(pa_, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_stripped_glt_search(archives, tmp_path):
    from clp_core_ray.pipelines.glt import glt_search, write_glt
    from clp_core_ray.pipelines.search import search_archive

    glt_dir = str(tmp_path / "glt")
    write_glt(archives["turns_stripped"], glt_dir)
    for q in QUERIES:
        want = _rows(search_archive(archives["turns"], q))
        got = _rows(glt_search(archives["turns_stripped"], q,
                               glt_dir=glt_dir))
        assert got.equals(want.cast(got.schema)), q


def test_stripped_merge_then_search(archives, tmp_path):
    from clp_core_ray.pipelines.compact import merge_archives
    from clp_core_ray.pipelines.search import search_archive

    merged = str(tmp_path / "merged")
    merge_archives([archives["turns_stripped"]], merged)
    for q in QUERIES:
        want = _rows(search_archive(archives["turns"], q))
        got = _rows(search_archive(merged, q))
        assert got.equals(want), q
