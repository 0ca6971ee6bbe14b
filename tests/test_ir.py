"""CLP IR stream format conformance (ported from
/root/reference/components/core/tests/test-ir_encoding_methods.cpp) plus the
Ray write_ir/read_ir round trip."""

import json
import struct

import pytest

from clp_core_ray import ir
from clp_core_ray.encoding import PLACEHOLDER_DICT

# the reference's decode_next_message_general message: contains an escape-
# worthy char sequence, dict/int/float vars, and a literal dict-placeholder
# byte inside the static text (test-ir_encoding_methods.cpp:772-787)
GENERAL_MESSAGE = (
    "Static <\text>, dictVar1, 123, 456.7 dictVar2, 987, 654.3,"
    + PLACEHOLDER_DICT
    + " end of static text"
)


def roundtrip(messages, ts, four_byte):
    blob = ir.serialize_ir_stream(ts, messages, four_byte=four_byte)
    tbl = ir.decode_ir_stream_to_text(blob)
    return blob, tbl.column("ts").to_pylist(), tbl.column("text").to_pylist()


@pytest.mark.parametrize("four_byte", [False, True])
def test_decode_next_message_general(four_byte):
    ts = [1_680_000_000_123]
    _, got_ts, got_txt = roundtrip([GENERAL_MESSAGE], ts, four_byte)
    assert got_txt == [GENERAL_MESSAGE]
    assert got_ts == ts


# boundary timestamp deltas of decode_next_message_four_byte_timestamp_delta
# (test-ir_encoding_methods.cpp:885-923); INT64_MIN excluded — a real stream
# cannot produce it from ms epochs and Python ints would widen anyway
DELTAS = [0, -128, -127, 126, 127, -32768, -32767, 32766, 32767,
          -(2**31), -(2**31) + 1, 2**31 - 2, 2**31 - 1, 2**40, -(2**40)]


def test_four_byte_timestamp_deltas():
    base = 1_600_000_000_000
    ts = [base]
    for d in DELTAS:
        ts.append(ts[-1] + d)
    msg = "Static <\text>, dictVar1, 123, 456345232.7234223, dictVar2, 987, 654.3, end of static text"
    _, got_ts, got_txt = roundtrip([msg] * len(ts), ts, four_byte=True)
    assert got_ts == ts
    assert got_txt == [msg] * len(ts)


@pytest.mark.parametrize("four_byte,magic", [(True, ir.MAGIC_FOUR), (False, ir.MAGIC_EIGHT)])
def test_preamble(four_byte, magic):
    blob = ir.serialize_preamble(
        four_byte,
        timestamp_pattern="%Y-%m-%d %H:%M:%S,%3",
        timestamp_pattern_syntax="yyyy-MM-dd HH:mm:ss",
        time_zone_id="Asia/Tokyo",
        reference_timestamp=123_456_789,
    )
    assert blob[:4] == magic
    assert blob[4] == ir.META_ENCODING_JSON
    r = ir._Reader(blob)
    got_four, meta = ir.deserialize_preamble(r)
    assert got_four == four_byte
    assert meta[ir.VERSION_KEY] == "0.0.2"
    assert meta[ir.TS_PATTERN_KEY] == "%Y-%m-%d %H:%M:%S,%3"
    assert meta[ir.TZ_ID_KEY] == "Asia/Tokyo"
    if four_byte:
        assert meta[ir.REF_TS_KEY] == "123456789"


def test_four_byte_reclassification():
    """Values exceeding the 4-byte caps demote to dictionary vars on the wire
    but still decode to identical text (encoding_methods.hpp:72-76 promotion
    covers the ones that fit)."""
    msg = "big_int 9999999999 small_int 42 big_float 456345232.7234223 small_float 1.5"
    for four in (True, False):
        _, _, got = roundtrip([msg], [0], four)
        assert got == [msg]
    # wire-level check: the four-byte stream stores 9999999999 as a dict var
    blob4 = ir.serialize_ir_stream([0], [msg], four_byte=True)
    _, tbl = ir.deserialize_ir_stream(blob4)
    assert tbl.column("dict_vars")[0].as_py().count("9999999999") == 1
    blob8 = ir.serialize_ir_stream([0], [msg], four_byte=False)
    _, tbl8 = ir.deserialize_ir_stream(blob8)
    assert "9999999999" not in tbl8.column("dict_vars")[0].as_py()
    # float promotion: 1.5 encodes four-byte and must decode exactly
    assert ir.four_byte_float_to_eight(ir._encode_float_four("1.5")) == \
        __import__("clp_core_ray.encoding", fromlist=["encode_float"]).encode_float("1.5")


def test_bad_magic_and_corruption():
    with pytest.raises(ir.IrCorrupted):
        ir.deserialize_ir_stream(b"\x02\x43\x61\x2a" + b"\x00" * 10)
    blob = ir.serialize_ir_stream([7], ["hello var123"], four_byte=False)
    with pytest.raises((ir.IrCorrupted, ir.IrIncomplete, UnicodeDecodeError)):
        ir.deserialize_ir_stream(blob[:4] + blob[5:])  # drop a metadata byte
    with pytest.raises(ir.IrIncomplete):
        ir.deserialize_ir_stream(blob[:-6])  # truncated event


def test_empty_stream():
    blob = ir.serialize_ir_stream([], [], four_byte=True)
    meta, tbl = ir.deserialize_ir_stream(blob)
    assert len(tbl) == 0
    assert meta[ir.VERSION_KEY] == "0.0.2"


def test_var_str_length_widths():
    """Dictionary vars longer than 255 / 65535 bytes use the wider length
    encodings (DictionaryVariableHandler, encoding_methods.cpp:45-75)."""
    long_a = "v" + "a" * 300       # > UINT8_MAX → UShort
    longer = "v" + "b" * 70_000    # > UINT16_MAX → Int
    msg = f"x={long_a} y={longer} done"
    for four in (True, False):
        _, _, got = roundtrip([msg], [5], four)
        assert got == [msg]


def test_extract_ir_chunks_from_archive(ray_session, tmp_path):
    """K8: compress → extract IR chunks → read back == original (text, ts)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.decompress import extract_ir_chunks
    from clp_core_ray.sources.transcripts import read_transcripts

    SF = 0.0005
    arch = str(tmp_path / "arch")
    compress(SF, arch)
    out = str(tmp_path / "irs")
    paths = extract_ir_chunks(arch, out)
    assert paths and all(p.endswith(".clp.ir") for p in paths)
    back = ir.read_ir(paths).to_pandas()
    orig = read_transcripts(SF, columns=["ts", "text"]).to_pandas()
    assert sorted(back["text"]) == sorted(orig["text"])
    want_ms = orig["ts"].astype("datetime64[ms]").astype("int64").sort_values().tolist()
    assert sorted(back["ts"].tolist()) == want_ms


def test_write_read_ir_ray(ray_session, tmp_path):
    """Ray integration: transcripts → IR stream files → decoded Dataset."""
    import pyarrow.compute as pc

    from clp_core_ray.sources.transcripts import read_transcripts

    SF = 0.0005
    ds = read_transcripts(SF, columns=["ts", "text"])
    out = str(tmp_path / "irs")
    paths = ir.write_ir(ds, out, four_byte=True)
    assert len(paths) >= 1
    back = ir.read_ir(paths).to_pandas()
    orig = read_transcripts(SF, columns=["ts", "text"]).to_pandas()
    assert len(back) == len(orig)
    assert sorted(back["text"]) == sorted(orig["text"])
    want_ms = (orig["ts"].astype("datetime64[ms]").astype("int64")).sort_values().tolist()
    assert sorted(back["ts"].tolist()) == want_ms


def test_write_ir_target_size(ray_session, tmp_path):
    """clo --ir-target-size parity: blocks split into ~target-sized streams,
    every event survives, each file decodes standalone."""
    import os

    from clp_core_ray.sources.transcripts import read_transcripts

    SF = 0.0005
    ds = read_transcripts(SF, columns=["ts", "text"])
    out = str(tmp_path / "irs_t")
    paths = ir.write_ir(ds, out, four_byte=True, target_bytes=16 * 1024)
    # without a target the same input yields one file per block
    base = ir.write_ir(read_transcripts(SF, columns=["ts", "text"]),
                       str(tmp_path / "irs_b"), four_byte=True)
    assert len(paths) > len(base)
    sizes = [os.path.getsize(p) for p in paths]
    assert max(sizes) < 2 * 16 * 1024  # no runaway chunk
    back = ir.read_ir(paths).to_pandas()
    orig = read_transcripts(SF, columns=["ts", "text"]).to_pandas()
    assert len(back) == len(orig)
    assert sorted(back["text"]) == sorted(orig["text"])


def test_search_ir_streams(ray_session, tmp_path):
    """Wildcard search over IR files matches a brute-force text filter and
    prunes by per-file logtype candidates + ts range."""
    from clp_core_ray import ir
    from clp_core_ray.sources.transcripts import read_transcripts

    ds = read_transcripts(0.0005, columns=["ts", "text"])
    paths = ir.write_ir(ds, str(tmp_path / "ir"))
    hits = ir.search_ir(paths, "ERROR*timeout").to_pandas()
    df = read_transcripts(0.0005).to_pandas()
    import re

    want = df[df.text.str.contains(r"ERROR[\s\S]*timeout", regex=True)]
    assert len(hits) == len(want)
    assert sorted(hits.text.tolist()) == sorted(want.text.tolist())
    # case-insensitive mode
    hits_ic = ir.search_ir(paths, "error*TIMEOUT", ignore_case=True).to_pandas()
    assert len(hits_ic) == len(want)
    # ts-range prefilter: empty window → no hits
    hi = int(df.ts.astype("int64").max() // 1000)
    none = ir.search_ir(paths, "ERROR*timeout", ts_min=hi + 10_000_000)
    assert none.count() == 0
    # dictionary-miss query prunes without decoding
    assert ir.search_ir(paths, "*zz-never-there*").count() == 0


@pytest.mark.parametrize("query,ignore_case,want", [
    # the template's literal "Error" only matches case-insensitively
    ("error", True, ["Error happened here"]),
    ("ERROR*HERE", True, ["Error happened here"]),
    ("error", False, []),
    # "foo" first occurs after the placeholder that absorbs "foo1baz"
    ("foo*baz", False, ["foo1baz bar foo"]),
    ("task*done", False, ["task 42 done"]),
    ("*", False, ["Error happened here", "foo1baz bar foo", "task 42 done"]),
])
def test_search_ir_stream_candidate_templates(query, ignore_case, want):
    """The template candidate test keeps every template that could hold a
    match: case-insensitive queries, and query constants that a variable
    placeholder before them could absorb."""
    from clp_core_ray import ir

    data = ir.serialize_ir_stream(
        [1000, 2000, 3000],
        ["Error happened here", "foo1baz bar foo", "task 42 done"])
    got = ir.search_ir_stream(data, query, ignore_case=ignore_case)
    assert sorted(got.column("text").to_pylist()) == want


def test_compress_from_ir(ray_session, tmp_path):
    """clp c over IR inputs: two IR stream files → archive; conv_id = file
    stem, turn_idx = in-stream index, and decompression reproduces every
    (text, ts) in per-file order (FileCompressor.cpp:271-329 role)."""
    from clp_core_ray import ir
    from clp_core_ray.pipelines.decompress import decompress

    msgs_a = [f"INFO request_id=aa{i:02d} served in {i}.5 ms" for i in range(40)]
    msgs_b = [f"ERROR upstream timeout after {i} retries" for i in range(25)]
    base = 1_701_000_000_000
    f_a = tmp_path / "streamA.clp.ir"
    f_b = tmp_path / "streamB.clp.ir"
    f_a.write_bytes(ir.serialize_ir_stream(
        [base + 1000 * i for i in range(len(msgs_a))], msgs_a, four_byte=True))
    f_b.write_bytes(ir.serialize_ir_stream(
        [base + 7 * i for i in range(len(msgs_b))], msgs_b, four_byte=False))

    arch = tmp_path / "arch"
    ir.compress_from_ir([str(f_a), str(f_b)], str(arch))
    back = decompress(str(arch), columns=("conv_id", "turn_idx", "ts")).to_pandas()
    back = back.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    assert sorted(back["conv_id"].unique()) == ["streamA", "streamB"]
    got_a = back[back.conv_id == "streamA"]
    got_b = back[back.conv_id == "streamB"]
    assert got_a["text"].tolist() == msgs_a  # in-stream order preserved
    assert got_b["text"].tolist() == msgs_b
    assert got_a["turn_idx"].tolist() == list(range(len(msgs_a)))
    assert got_b["ts"].astype("datetime64[ms]").astype("int64").tolist() == [
        base + 7 * i for i in range(len(msgs_b))]

    import pytest

    with pytest.raises(ValueError):
        ir.compress_from_ir([], str(tmp_path / "none"))
