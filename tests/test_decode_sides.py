"""The two decode sides: an archive whose sinks are at most the entry
point's constant in ``execution`` decodes in the calling process, a larger
one in a Ray Data job. ``decompress``, ``extract_text_logs`` and
``extract_ir_chunks`` must return the same rows and files on either side;
the ``_ray_side`` variants set the constant to -1."""

import os
import shutil
import threading

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from clp_core_ray import execution

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "log.txt")
KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]
IR_TURNS = 400  # under LOCAL_DECODE_BYTES of sinks


@pytest.fixture(scope="module")
def turns():
    from clp_core_ray.sources.transcripts import synth_transcripts

    return synth_transcripts(3000, seed=3)


def _compress(turns, out):
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress

    compress(None, out, ds=rd.from_arrow(turns), input_label="t")
    return out


@pytest.fixture(scope="module")
def archives(ray_session, turns, tmp_path_factory):
    base = tmp_path_factory.mktemp("decode_sides")
    return {
        "compact": _compress(turns, str(base / "compact")),
        "empty": _compress(turns.slice(0, 0), str(base / "empty")),
        "small": _compress(turns.slice(0, IR_TURNS), str(base / "small")),
    }


def _table(ds) -> pa.Table:
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(parts) if parts else None


def _even_turns_filter():
    """A prefilter keeping even turns; nested, so Ray workers unpickle it
    by value (this test module is not importable there)."""
    def even_turns(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(pc.bit_wise_and(b.column("turn_idx"), 1),
                                 0))
    return even_turns


#: (archive, columns, ordered, prefilter even turns) of each decompress
#: call compared
CASES = [
    ("compact", ("conv_id", "turn_idx"), False, False),
    ("compact", ("conv_id", "turn_idx", "role", "tool", "ts"), False, False),
    ("compact", ("conv_id", "turn_idx", "ts"), False, True),
    ("compact", ("conv_id", "turn_idx"), True, False),
    ("compact", ("conv_id", "turn_idx", "ts"), True, True),
    ("empty", ("conv_id", "turn_idx", "ts"), False, False),
]


def _decompress_all(archives) -> list:
    from clp_core_ray.pipelines.decompress import decompress

    out = []
    for name, columns, ordered, even in CASES:
        ds = decompress(archives[name], columns=columns, ordered=ordered,
                        prefilter=_even_turns_filter() if even else None)
        t = _table(ds)
        out.append((ds.schema().base_schema, t))
    return out


def _spy_ray_side(monkeypatch) -> list:
    from clp_core_ray.pipelines import decompress as dc

    calls = []
    real = dc._decode_ray
    monkeypatch.setattr(dc, "_decode_ray",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_decompress_local_matches_ray(ray_session, archives, turns,
                                      monkeypatch):
    """Every case returns the same schema and rows on both sides, in the
    same order when ``ordered``; the local side never reaches Ray."""
    calls = _spy_ray_side(monkeypatch)
    local = _decompress_all(archives)
    assert calls == []
    monkeypatch.setattr(execution, "LOCAL_DECODE_BYTES", -1)
    ray_side = _decompress_all(archives)
    assert len(calls) == sum(1 for c in CASES if c[0] != "empty")

    for (name, columns, ordered, even), (ls, lt), (rs, rt) in zip(
            CASES, local, ray_side):
        assert ls == rs, (name, columns)
        if name == "empty":
            assert lt is None and rt is None
            continue
        want = _even_turns_filter()(turns) if even else turns
        assert lt.num_rows == rt.num_rows == want.num_rows > 0
        if ordered:
            assert lt.select(list(columns)).equals(
                lt.select(list(columns)).sort_by(KEYS))
            assert lt.equals(rt.cast(lt.schema))
        else:
            assert lt.sort_by(KEYS).equals(rt.cast(lt.schema).sort_by(KEYS))
        assert lt.sort_by(KEYS).column("text").to_pylist() == \
            want.sort_by(KEYS).column("text").to_pylist()


def _log_archive(tmp_path) -> tuple:
    from clp_core_ray.pipelines.compress import compress_text_logs

    inbox = tmp_path / "inbox"
    inbox.mkdir()
    src = str(inbox / "log.txt")
    shutil.copyfile(FIXTURE, src)
    arch = str(tmp_path / "arch")
    compress_text_logs([src], arch)
    return src, arch


def _check_extract_text_logs(tmp_path):
    from clp_core_ray.pipelines.decompress import extract_text_logs

    src, arch = _log_archive(tmp_path)
    paths = extract_text_logs(arch, str(tmp_path / "out"))
    assert [os.path.basename(p) for p in paths] == \
        [src.replace("/", "_").lstrip("_")]
    with open(FIXTURE, "rb") as a, open(paths[0], "rb") as b:
        assert a.read() == b.read()


def test_extract_text_logs_reproduces_fixture(ray_session, tmp_path,
                                              monkeypatch):
    calls = _spy_ray_side(monkeypatch)
    _check_extract_text_logs(tmp_path)
    assert calls == []


def test_extract_text_logs_reproduces_fixture_ray_side(ray_session, tmp_path,
                                                       monkeypatch):
    calls = _spy_ray_side(monkeypatch)
    monkeypatch.setattr(execution, "LOCAL_TEXT_EXTRACT_BYTES", -1)
    _check_extract_text_logs(tmp_path)
    assert len(calls) == 1


def _check_extract_ir(archive, turns, out):
    from clp_core_ray.ir import decode_ir_stream_to_text, serialize_ir_stream
    from clp_core_ray.pipelines.decompress import extract_ir_chunks

    paths = extract_ir_chunks(archive, out)
    assert paths and all(p.endswith(".clp.ir") for p in paths)
    back = []
    for p in paths:
        with open(p, "rb") as f:
            blob = f.read()
        back.append(decode_ir_stream_to_text(blob))
        # each chunk is the stream of its own events, as text → IR writes it
        assert blob == serialize_ir_stream(
            back[-1].column("ts").to_pylist(),
            back[-1].column("text").to_pylist())
    back = pa.concat_tables(back)
    assert sorted(back.column("text").to_pylist()) == \
        sorted(turns.column("text").to_pylist())
    want_ms = pc.cast(pc.cast(turns.column("ts"), pa.timestamp("ms"),
                              safe=False), pa.int64())
    assert sorted(back.column("ts").to_pylist()) == \
        sorted(want_ms.to_pylist())


def _spy_ray_reads(monkeypatch) -> list:
    """Every ``ray.data.read_parquet`` call: one per Ray Data job that
    reads an archive's sinks."""
    import ray.data as rd

    calls = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_extract_ir_chunks_read_back(ray_session, archives, turns, tmp_path,
                                     monkeypatch):
    calls = _spy_ray_reads(monkeypatch)
    _check_extract_ir(archives["small"], turns.slice(0, IR_TURNS),
                      str(tmp_path / "ir"))
    assert calls == []


def test_extract_ir_chunks_read_back_ray_side(ray_session, archives, turns,
                                              tmp_path, monkeypatch):
    calls = _spy_ray_reads(monkeypatch)
    monkeypatch.setattr(execution, "LOCAL_DECODE_BYTES", -1)
    _check_extract_ir(archives["small"], turns.slice(0, IR_TURNS),
                      str(tmp_path / "ir"))
    assert len(calls) == 1


def test_local_decode_submits_no_ray_job(ray_session, archives, tmp_path,
                                         monkeypatch):
    """Below the constant, no entry point reads through Ray Data, and none
    leaves a thread running after it returns."""
    import ray.data as rd

    from clp_core_ray.pipelines.decompress import (decompress,
                                                   extract_ir_chunks,
                                                   extract_text_logs)

    def no_job(*a, **kw):
        raise AssertionError("local decode started a Ray Data read")

    _, log_arch = _log_archive(tmp_path)
    monkeypatch.setattr(rd, "read_parquet", no_job)
    before = set(threading.enumerate())
    extract_text_logs(log_arch, str(tmp_path / "logs"))
    extract_ir_chunks(archives["small"], str(tmp_path / "ir"))
    decompress(archives["compact"], columns=("conv_id", "turn_idx", "ts"),
               ordered=True, prefilter=_even_turns_filter())
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("side", ["local", "ray"])
def test_logtype_id_missing_from_dictionary_raises(ray_session, turns,
                                                   tmp_path, monkeypatch,
                                                   side):
    """A row whose logtype id the dictionary lacks raises ``KeyError`` in
    decompress, search and IR extraction, on either side; it never decodes
    to an empty message."""
    import pyarrow.parquet as pq

    from clp_core_ray.pipelines.decompress import decompress, extract_ir_chunks
    from clp_core_ray.pipelines.search import search_archive

    texts = ["hello world", "service started", "id 42 done"]
    t = turns.slice(0, len(texts))
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array(texts, t.schema.field("text").type))
    arch = _compress(t, str(tmp_path / "arch"))
    lt_path = os.path.join(arch, "logtype.dict.parquet")
    ldict = pq.read_table(lt_path)
    pq.write_table(ldict.filter(pc.not_equal(ldict.column("logtype"),
                                             "hello world")), lt_path)
    if side == "ray":
        import ray.data as rd

        monkeypatch.setattr(execution, "LOCAL_DECODE_BYTES", -1)
        monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", -1)
        # a task's own error, not Ray Data's UserCodeException wrapper
        monkeypatch.setattr(rd.DataContext.get_current(),
                            "raise_original_map_exception", True)

    with pytest.raises(KeyError):
        _table(decompress(arch))
    with pytest.raises(KeyError):
        _table(search_archive(arch, "*"))
    with pytest.raises(KeyError):
        extract_ir_chunks(arch, str(tmp_path / "ir"))
