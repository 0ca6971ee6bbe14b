"""IR chunks written straight from an archive's encoded columns
(``ir.ArchiveIrStage``) and from text through the same framer
(``ir.ir_block_writer``): every stream must be byte for byte the one
``ir.serialize_ir_stream`` writes from the decoded text, in both
encodings, with no decode and no re-tokenize on the way. IR search
(``ir.search_ir_stream``) must return what a brute-force match of the
decoded text returns."""

import os
import re
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clp_core_ray import encoding as E
from clp_core_ray import execution, ir

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "log.txt")


def _decoded(archive):
    """(ts ms, text) of the archive's rows, in sink-file order."""
    from clp_core_ray.pipelines.decompress import _decode

    t = _decode(archive, ("ts",))
    return ir._ts_ms(t.column("ts")).tolist(), t.column("text").to_pylist()


def _check_chunks_match_text(archive, out):
    from clp_core_ray.pipelines.decompress import extract_ir_chunks

    ts, text = _decoded(archive)
    assert text
    for four in (True, False):
        d = os.path.join(out, str(four))
        paths = extract_ir_chunks(archive, d, four_byte=four)
        assert len(paths) == 1
        with open(paths[0], "rb") as f:
            assert f.read() == ir.serialize_ir_stream(ts, text,
                                                      four_byte=four)


def test_chunks_match_text_fixture_log(ray_session, tmp_path):
    from clp_core_ray.pipelines.compress import compress_text_logs

    src = str(tmp_path / "log.txt")
    shutil.copyfile(FIXTURE, src)
    compress_text_logs([src], str(tmp_path / "arch"))
    _check_chunks_match_text(str(tmp_path / "arch"), str(tmp_path / "ir"))


def test_chunks_match_text_transcripts(ray_session, tmp_path):
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(synth_transcripts(500, seed=5)),
             input_label="t")
    _check_chunks_match_text(arch, str(tmp_path / "ir"))


def test_extract_empty_and_over_cap_archives(ray_session, tmp_path,
                                            monkeypatch):
    """An archive without sink files gives one stream of no events; one
    whose var dictionary is over the broadcast cap takes the partitioned
    decode and still gives its events' streams."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import extract_ir_chunks
    from clp_core_ray.sources.transcripts import synth_transcripts

    turns = synth_transcripts(300, seed=4)
    empty, full = str(tmp_path / "empty"), str(tmp_path / "full")
    compress(None, empty, ds=rd.from_arrow(turns.slice(0, 0)),
             input_label="t")
    compress(None, full, ds=rd.from_arrow(turns), input_label="t")
    paths = extract_ir_chunks(empty, str(tmp_path / "ir_empty"))
    assert len(paths) == 1
    with open(paths[0], "rb") as f:
        assert f.read() == ir.serialize_ir_stream([], [])

    monkeypatch.setattr(execution, "DICT_BROADCAST_BYTES", 1)
    text = []
    for p in extract_ir_chunks(full, str(tmp_path / "ir_full")):
        with open(p, "rb") as f:
            text += ir.decode_ir_stream_to_text(f.read()).column(
                "text").to_pylist()
    assert sorted(text) == sorted(turns.column("text").to_pylist())


def test_extract_neither_decodes_nor_retokenizes(ray_session, tmp_path,
                                                 monkeypatch):
    import ray.data as rd

    from clp_core_ray.pipelines import decompress as dc
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts
    from clp_core_ray.vec import decoder

    arch = str(tmp_path / "arch")
    compress(None, arch, ds=rd.from_arrow(synth_transcripts(200, seed=2)),
             input_label="t")

    def boom(*a, **kw):
        raise AssertionError("IR extraction decoded or re-encoded text")

    for mod, name in ((decoder, "decode_batch"), (dc, "decode_batch"),
                      (ir, "serialize_message_four"),
                      (ir, "serialize_message_eight"),
                      (E, "encode_message")):
        monkeypatch.setattr(mod, name, boom)
    for four in (True, False):
        assert dc.extract_ir_chunks(arch, str(tmp_path / f"ir{four}"),
                                    four_byte=four)


# ---- the stage over random messages, without Ray ---------------------------

def _stage_inputs(messages, ts):
    """An archive batch and its ``load_dicts`` result for ``messages``,
    encoded by the archive's vectorized encoder."""
    from clp_core_ray.pipelines.decompress import ArchiveDicts
    from clp_core_ray.vec.tokenizer import encode_batch

    enc = encode_batch(pa.array(messages, type=pa.large_string()))
    logtypes = enc["logtype"].to_pylist()
    lt_id = {lt: E.fnv1a64(lt.encode()) for lt in set(logtypes)}
    templates = {i: lt for lt, i in lt_id.items()}
    values = {E.fnv1a64(v.encode()): v
              for row in enc["dict_vars"].to_pylist() for v in row}
    lt_ids, ids = sorted(templates), sorted(values)
    dicts = ArchiveDicts(
        np.array(lt_ids, np.int64),
        pa.array([templates[i] for i in lt_ids], pa.string()),
        np.array(ids, np.int64),
        pa.array([values[i] for i in ids], pa.string()),
        None, None, [], 0)
    batch = pa.table({
        "ts": pa.array(ts, pa.int64()),
        "logtype_id": pa.array([lt_id[lt] for lt in logtypes], pa.int64()),
        "encoded_vars": enc["encoded_vars"]})
    return batch, dicts


_digits = st.text("0123456789", max_size=12)
_token = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.integers(-(2**40), 2**40).map(str),
    st.tuples(st.sampled_from(["", "-"]), _digits,
              st.text("0123456789", min_size=1, max_size=12))
    .map(lambda t: f"{t[0]}{t[1]}.{t[2]}"),
    st.text(st.one_of(st.characters(min_codepoint=32, max_codepoint=126),
                      st.sampled_from("\x11\x12\x13\\\\=.-_xé")),
            max_size=12),
)
_message = st.lists(st.tuples(st.sampled_from([" ", "=", ", ", ":", ""]),
                               _token), max_size=8).map(
    lambda parts: "".join(s + t for s, t in parts))


def _writer_chunks(messages, ts, four, target):
    """(stream bytes, n_events) of each file ``ir.ir_block_writer`` writes
    for one block of ``messages``."""
    with tempfile.TemporaryDirectory() as d:
        write = ir.ir_block_writer(d, four_byte=four, target_bytes=target)
        out = write(pa.table({"ts": pa.array(ts, pa.int64()),
                              "text": pa.array(messages, pa.large_string())}))
        chunks = []
        for path, n in zip(out.column("path").to_pylist(),
                           out.column("n_events").to_pylist()):
            with open(path, "rb") as f:
                chunks.append((f.read(), n))
    return chunks


def _check_chunks(chunks, messages, ts, four):
    """Every chunk equals ``serialize_ir_stream`` over its events and
    decodes on its own; the chunks' events concatenate to the input."""
    lo = 0
    for blob, n in chunks:
        assert blob == ir.serialize_ir_stream(
            ts[lo:lo + n], messages[lo:lo + n], four_byte=four)
        back = ir.decode_ir_stream_to_text(blob)
        assert back.column("text").to_pylist() == messages[lo:lo + n]
        assert back.column("ts").to_pylist() == ts[lo:lo + n]
        lo += n
    assert lo == len(messages)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_message, st.integers(-(2**45), 2**45)),
                min_size=1, max_size=30),
       st.sampled_from([None, 64, 400]))
def test_stage_matches_serialize_ir_stream(rows, target):
    """Every chunk of the archive framer (``ArchiveIrStage``) and of the
    text writer (``ir_block_writer``) equals ``serialize_ir_stream`` over
    its events, in both encodings — ints outside int32, floats of 9+
    digits or digits >= 2^25 and negative floats demote to dictionary vars
    in four-byte streams. Without a target each gives one stream."""
    messages = [m for m, _ in rows]
    ts = [t for _, t in rows]
    batch, dicts = _stage_inputs(messages, ts)
    for four in (True, False):
        stage = ir.ArchiveIrStage(dicts, "", four_byte=four,
                                  target_bytes=target)
        for chunks in (stage.streams(batch),
                       _writer_chunks(messages, ts, four, target)):
            _check_chunks(chunks, messages, ts, four)
            if target is None:
                assert len(chunks) == 1


def test_block_writer_frames_without_the_scalar_serializer(monkeypatch):
    """``ir_block_writer`` frames through ``ArchiveIrStage``: it calls
    neither the scalar stream serializer nor the per-event ones."""
    messages = ["a 2147483648 b 1.5 c 123456789.5 x=abc1",
                "a 7 b 12345678.9 c -0.5 esc \\ \x11", "plain text"]
    ts = [5, 3, 300]
    want = {four: ir.serialize_ir_stream(ts, messages, four_byte=four)
            for four in (True, False)}

    def boom(*a, **kw):
        raise AssertionError("the block writer serialized per message")

    for name in ("serialize_ir_stream", "serialize_log_event_four",
                 "serialize_log_event_eight", "serialize_message_four",
                 "serialize_message_eight"):
        monkeypatch.setattr(ir, name, boom)
    monkeypatch.setattr(E, "encode_message", boom)
    for four in (True, False):
        assert _writer_chunks(messages, ts, four, None) == [(want[four], 3)]
        assert len(_writer_chunks(messages, ts, four, 64)) > 1


def test_batch_dicts_rejects_an_id_collision(monkeypatch):
    """Two distinct values under one id raise, as the finalize does."""
    from clp_core_ray.stages import encode

    monkeypatch.setattr(encode, "logtype_ids", lambda v: pa.array(
        np.zeros(len(v), np.int64)))
    enc_lt = pa.array(["a \x12", "b \x12"], pa.large_string())
    with pytest.raises(ValueError, match="collision"):
        ir.batch_dicts(enc_lt, pa.array([["x1"], ["y1"]]))


def test_stage_demotes_four_byte_misfits():
    """Each four-byte cap demotes its var to a dictionary var, and the
    demoted placeholders of one logtype are rewritten per mask."""
    messages = ["a 2147483648 b 1.5 c 123456789.5 d 33554432.1",
                "a 7 b 12345678.9 c 1.25 d -0.5",
                "a 2147483648 b 1.5 c 123456789.5 d 33554432.1",
                "esc \\ \x11 9999999999 x=-2147483649"]
    batch, dicts = _stage_inputs(messages, [5, 3, 300, 100000])
    (blob, n), = ir.ArchiveIrStage(dicts, "").streams(batch)
    assert n == 4 and blob == ir.serialize_ir_stream(
        [5, 3, 300, 100000], messages, four_byte=True)
    _, tbl = ir.deserialize_ir_stream(blob)
    assert tbl.column("dict_vars").to_pylist() == [
        ["2147483648", "123456789.5", "33554432.1"],
        ["12345678.9"],
        ["2147483648", "123456789.5", "33554432.1"],
        ["9999999999", "-2147483649"]]


def test_stage_empty_batch_writes_empty_stream():
    batch, dicts = _stage_inputs(["x"], [0])
    for four in (True, False):
        (blob, n), = ir.ArchiveIrStage(dicts, "", four).streams(
            batch.slice(0, 0))
        assert n == 0 and blob == ir.serialize_ir_stream([], [], four)


# ---- four-byte float re-packing ---------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["", "-"]), st.text("0123456789", max_size=10),
       st.text("0123456789", min_size=1, max_size=10))
def test_eight_byte_float_to_four_inverts(sign, left, right):
    """``eight_byte_float_to_four`` agrees with ``_encode_float_four`` on
    every float string, rejects included (more than 8 digits, or digits
    >= 2^25), and round-trips through ``four_byte_float_to_eight``."""
    tok = f"{sign}{left}.{right}"
    enc8 = E.encode_float(tok)
    if enc8 is None:  # over 16 digits: not a float in either width
        assert ir._encode_float_four(tok) is None
        return
    enc4, fits = ir.eight_byte_float_to_four(np.array([enc8]))
    want = ir._encode_float_four(tok)
    assert bool(fits[0]) == (want is not None), tok
    if want is not None:
        assert int(enc4[0]) == want
        assert ir.four_byte_float_to_eight(want) == enc8


@pytest.mark.parametrize("tok,ok", [
    ("1.5", True), ("-0.0", True), ("12345678.9", False),
    ("3355443.1", True), ("3355443.2", False), ("33554431.", None),
    ("0.0000001", True), ("123456789.0", False),
])
def test_eight_byte_float_to_four_caps(tok, ok):
    enc8 = E.encode_float(tok)
    if ok is None:
        assert enc8 is None
        return
    _, fits = ir.eight_byte_float_to_four(np.array([enc8]))
    assert bool(fits[0]) is ok


# ---- IR search against a brute-force match of the decoded text --------------

def _brute_match(query: str, text: str, ignore_case: bool) -> bool:
    """CLP wildcard semantics, written out independently: ``*query*``
    must match all of ``text``; '*' is any run, '?' any character, and
    '\\' makes the next character literal (so a trailing one escapes the
    implicit '*')."""
    pattern, out, i = f"*{query}*", [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":  # never last: the pattern ends with '*'
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        out.append(".*" if c == "*" else "." if c == "?" else re.escape(c))
        i += 1
    flags = re.DOTALL | (re.IGNORECASE if ignore_case else 0)
    return re.fullmatch("".join(out), text, flags) is not None


@st.composite
def _search_case(draw):
    """A stream's messages and a query: a piece of one message, maybe with
    a '*' or '?' inside a token, other case, or a suffix no message has."""
    messages = draw(st.lists(_message, min_size=1, max_size=12))
    src = draw(st.sampled_from(messages))
    lo = draw(st.integers(0, len(src)))
    q = src[lo:draw(st.integers(lo, len(src)))]
    if q and draw(st.booleans()):
        at = draw(st.integers(0, len(q) - 1))
        q = q[:at] + draw(st.sampled_from(["*", "?"])) + q[at + 1:]
    ignore_case = draw(st.booleans())
    if ignore_case and draw(st.booleans()):
        q = q.swapcase()
    q += draw(st.sampled_from(["", "", "zq", " qq9x", "=zz7"]))
    return messages, q, ignore_case


@settings(max_examples=300, deadline=None)
@given(_search_case(), st.booleans())
def test_search_ir_stream_matches_brute_force(case, four):
    """``search_ir_stream`` (compiled subqueries over the stream's own
    dictionaries, then a wildcard verify) returns exactly the events whose
    decoded text matches the query, in stream order, in both widths."""
    messages, query, ignore_case = case
    ts = list(range(len(messages)))
    blob = ir.serialize_ir_stream(ts, messages, four_byte=four)
    got = ir.search_ir_stream(blob, query, ignore_case=ignore_case)
    want = [(t, m) for t, m in zip(ts, messages)
            if _brute_match(query, m, ignore_case)]
    assert list(zip(got.column("ts").to_pylist(),
                    got.column("text").to_pylist())) == want


@pytest.mark.parametrize("query", ["zz never here", "x=abc9", "run 77 qq"])
def test_search_ir_stream_dictionary_miss_decodes_nothing(monkeypatch, query):
    """A query that misses every logtype and dictionary var returns before
    any decode: ``decode_batch`` is not called."""
    from clp_core_ray.vec import decoder

    blob = ir.serialize_ir_stream(
        [1, 2, 3], ["x=abc1 run 7 ok", "x=abc2 run 9999999999 ok", "done"])
    calls = []
    real = decoder.decode_batch
    monkeypatch.setattr(decoder, "decode_batch",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert ir.search_ir_stream(blob, query).num_rows == 0
    assert calls == []
    assert ir.search_ir_stream(blob, "x=abc1").num_rows == 1
    assert calls == [1]
