"""Text-mode ingestion: timestamp patterns, message assembly, file round trip.

Reference model: MessageParser multiline fixture (vendored as fixtures/log.txt) and
the compress→decompress→diff golden test (test-clp_s-end_to_end.cpp:39-126).
"""

import os

import numpy as np
import pyarrow as pa
import pytest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "log.txt")

SYNTH = """2015-01-31T15:50:45.392 job j42 started on node-7
2015-01-31T15:50:45,393 continuation free line
no timestamp so continues previous message
2015-01-31 15:50:46,001 second msg value=3.25
[2015-01-31 15:50:47,099] bracketed style msg
INFO [main] 2015-01-31 15:50:48,100 prefixed style
multi
line
tail
15/01/31 15:50:49 hadoop style last"""


def roundtrip_file_text(text: str) -> str:
    from clp_core_ray.sources.textlog import assemble_messages, reconstruct_file_text
    from clp_core_ray.stages.encode import DecodeStage, EncodeStage

    lines = text.split("\n")
    msgs = assemble_messages(pa.array(lines, type=pa.large_string()), "f")
    enc = EncodeStage(text_col="content", keep_text=False)(msgs)
    dec = DecodeStage(out_col="content2")(enc)
    dec = dec.drop_columns(["content" ]) if "content" in dec.column_names else dec
    dec = dec.rename_columns(
        [c if c != "content2" else "content" for c in dec.column_names]
    )
    return reconstruct_file_text(dec)


def test_synth_multiline_roundtrip():
    assert roundtrip_file_text(SYNTH) == SYNTH


def test_reference_fixture_roundtrip():
    text = open(FIXTURE, "rb").read().decode()
    if text.endswith("\n"):
        text = text[:-1]
    assert roundtrip_file_text(text) == text


def test_assembly_boundaries():
    from clp_core_ray.sources.textlog import assemble_messages

    msgs = assemble_messages(pa.array(SYNTH.split("\n"), type=pa.large_string()), "f")
    contents = msgs.column("content").to_pylist()
    assert len(contents) == 6
    assert "continues previous message" in contents[1]
    assert contents[1].count("\n") == 1
    assert contents[4].count("\n") == 3  # prefixed + multi/line/tail


def test_pattern_priority_first_match_wins():
    from clp_core_ray.timestamps import PATTERNS, parse_and_strip

    r = parse_and_strip(pa.array(["2015-01-31T15:50:45.392 x"]))
    assert PATTERNS[np.asarray(r["pattern_id"])[0]].fmt == "%Y-%m-%dT%H:%M:%S.%3"


def test_no_timestamp_line():
    from clp_core_ray.timestamps import parse_and_strip

    r = parse_and_strip(pa.array(["hello world"]))
    assert np.asarray(r["pattern_id"])[0] == -1
    assert r["ts_ms"][0].as_py() is None
    assert r["content"][0].as_py() == "hello world"


def test_ray_text_pipeline(ray_session, tmp_path):
    """read files → assemble → encode → decode → byte-identical files."""
    import ray.data as rd

    from clp_core_ray.sources.textlog import read_log_messages, reconstruct_file_text
    from clp_core_ray.stages.encode import DecodeStage, EncodeStage

    files = {}
    for i in range(3):
        p = tmp_path / f"log{i}.txt"
        body = SYNTH.replace("j42", f"j{i}")
        p.write_text(body)
        files[str(p)] = body

    ds = read_log_messages(str(tmp_path))
    enc = ds.map_batches(EncodeStage(text_col="content"), batch_format="pyarrow")
    dec = enc.map_batches(DecodeStage(out_col="content"), batch_format="pyarrow")
    tbl = pa.concat_tables(pa.table(b) for b in dec.iter_batches(batch_format="pyarrow"))
    for path, want in files.items():
        sub = tbl.filter(pa.compute.equal(tbl.column("path"), path))
        assert reconstruct_file_text(sub) == want


def test_invalid_utf8_ingestion(ray_session, tmp_path):
    """M9: non-UTF-8 bytes must not crash ingestion — they are sanitized to
    replacement characters and the sanitized text round-trips through
    encode→decode (the reference validates UTF-8 on ingest,
    utf8_utils / FileCompressor parse path)."""
    from clp_core_ray.sources.textlog import read_log_messages, reconstruct_file_text
    from clp_core_ray.stages.encode import DecodeStage, EncodeStage

    p = tmp_path / "bad.log"
    p.write_bytes(
        b"2016-05-08 07:34:05.251 valid line id=7\n"
        b"2016-05-08 07:34:06.000 bad bytes \xff\xfe\x80 tail=3\n"
    )
    ds = read_log_messages(str(p))
    enc = ds.map_batches(EncodeStage(text_col="content"), batch_format="pyarrow")
    dec = enc.map_batches(DecodeStage(out_col="content"), batch_format="pyarrow")
    tbl = pa.concat_tables(
        pa.table(b) for b in dec.iter_batches(batch_format="pyarrow")
    )
    want = p.read_bytes().decode("utf-8", errors="replace").rstrip("\n")
    assert reconstruct_file_text(tbl) == want
    assert "�" in reconstruct_file_text(tbl)  # replacement chars present


def test_targz_ingestion_roundtrip(ray_session, tmp_path):
    """The reference fixture read from inside .tar.gz / .zip / .gz must
    round-trip byte-identical (LibarchiveReader recursion, S2;
    FileCompressor.cpp:271-281)."""
    import gzip
    import tarfile
    import zipfile

    import pyarrow as pa

    from clp_core_ray.sources.textlog import read_log_messages, reconstruct_file_text

    with open(FIXTURE, "rb") as f:
        raw = f.read()

    tgz = tmp_path / "logs.tar.gz"
    with tarfile.open(tgz, "w:gz") as t:
        t.add(FIXTURE, arcname="inner/log.txt")
    gz = tmp_path / "log.txt.gz"
    gz.write_bytes(gzip.compress(raw))
    zf = tmp_path / "logs.zip"
    with zipfile.ZipFile(zf, "w") as z:
        z.writestr("log.txt", raw)
    # nested: a .gz inside a tar
    nested = tmp_path / "nested.tar"
    with tarfile.open(nested, "w") as t:
        t.add(gz, arcname="log.txt.gz")

    want = raw.decode().rstrip("\n")
    for p in (tgz, gz, zf, nested):
        msgs = pa.concat_tables(
            pa.table(b)
            for b in read_log_messages(str(p)).iter_batches(batch_format="pyarrow")
        )
        name = msgs.column("path")[0].as_py()
        assert name.startswith(str(p).removesuffix(".gz"))
        assert reconstruct_file_text(msgs) == want, p


def test_reference_pattern_table_complete():
    """The FULL TimestampPattern::init table (cpp:120-192) is ported — all
    32 absolute patterns incl. the mysql %y%m%d %k, yearless syslog %b %d
    and logcat %m-%d forms (year defaults to 1970 exactly like cpp:263),
    plus the relative %#3 as entry 33, last like the reference. Every form
    round-trips byte-identically."""
    import numpy as np
    import pyarrow as pa

    from clp_core_ray.timestamps import (
        PATTERNS,
        format_batch,
        insert_timestamps,
        parse_and_strip,
    )

    assert len(PATTERNS) == 33
    assert PATTERNS[-1].fmt == "%#3"
    lines = pa.array([
        "150131 15:50:45 mysqld started",
        "150131  5:50:45 mysqld padded hour",
        "Jan 31 15:50:45 host sshd[42]: accepted",
        "01-31 15:50:45.392 D/logcat: msg",
    ], type=pa.large_string())
    r = parse_and_strip(lines)
    assert r["ts_ms"].null_count == 0
    # yearless forms parse into 1970 (reference default year)
    assert r["ts_ms"][2].as_py() < 366 * 86400_000
    rendered = format_batch(np.asarray(r["ts_ms"].fill_null(0)),
                            np.asarray(r["pattern_id"]))
    out = insert_timestamps(r["content"], rendered,
                            np.asarray(r["ts_begin"]))
    assert out.to_pylist() == lines.to_pylist()


def test_relative_timestamp_pattern():
    """%#3 relative-ms timestamps (TimestampPattern.cpp:192,652-707 parse,
    :152-175 render; test-TimestampPattern.cpp:433-449): leading digit run
    with no leading zero parses as milliseconds directly, renders unpadded,
    and round-trips byte-identically through the timestamp path (NOT the
    continuation-line path). Absolute patterns still win first."""
    import numpy as np

    from clp_core_ray.timestamps import (PATTERNS, format_batch,
                                         parse_and_strip)

    rel_pid = len(PATTERNS) - 1
    assert PATTERNS[rel_pid].fmt == "%#3"

    lines = pa.array([
        "626515123 content after",          # reference's own case
        "916321",                           # the table's example, bare
        "2015-01-31 15:50:45.392 absolute wins",
        "0 leading zero is not relative",   # cpp:654-657
        "042 nor this",
    ], type=pa.large_string())
    r = parse_and_strip(lines)
    pids = r["pattern_id"].to_pylist()
    assert pids[0] == rel_pid and pids[1] == rel_pid
    assert pids[2] not in (-1, rel_pid)     # absolute pattern, tried first
    assert pids[3] == -1 and pids[4] == -1
    assert r["ts_ms"][0].as_py() == 626_515_123
    assert r["ts_ms"][1].as_py() == 916_321
    assert r["content"][0].as_py() == " content after"

    rendered = format_batch(
        np.array([626_515_123, 916_321], dtype=np.int64),
        np.array([rel_pid, rel_pid], dtype=np.int32))
    assert rendered.to_pylist() == ["626515123", "916321"]


def test_relative_timestamp_file_roundtrip():
    """A log FILE of relative-ts lines (plus continuation lines) survives
    the full assemble → encode → decode → reconstruct path byte-identically,
    with the relative lines owning message boundaries."""
    from clp_core_ray.sources.textlog import assemble_messages

    text = ("916321 worker 3 started\n"
            "916355 request a=5 took 12 ms\n"
            "  continuation of the request line\n"
            "917002 worker 3 stopped")
    assert roundtrip_file_text(text) == text
    msgs = assemble_messages(
        pa.array(text.split("\n"), type=pa.large_string()), "f")
    # 3 messages: the continuation folded into the second
    assert msgs.num_rows == 3
    assert msgs.column("ts_ms").to_pylist() == [916321, 916355, 917002]
