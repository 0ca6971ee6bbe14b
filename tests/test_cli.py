"""CLI (ray-job-submit entrypoint) smoke tests — compress → search → extract
through `clp_core_ray.cli.main`, reusing the session Ray (the guard must NOT
re-init or shut down a session it didn't create)."""

import json

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def tiny_sf_dir(ray_session, tmp_path_factory):
    from clp_core_ray.sources.transcripts import transcripts_path

    # transcripts_path returns the sf dir containing transcripts.parquet
    return transcripts_path(0.0005)


def _run(capsys, argv):
    from clp_core_ray.cli import main

    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out[:-1]


def test_cli_compress_search_extract(ray_session, tiny_sf_dir, tmp_path, capsys):
    import ray

    arch = str(tmp_path / "arch")
    res, _ = _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    assert res["cmd"] == "compress" and res["rows"] > 0
    assert res["classes"] >= 1 and res["archive_bytes"] > 0
    assert ray.is_initialized()  # CLI must not have torn down the session

    res, _ = _run(capsys, ["search", "--archive", arch,
                           "--query", "*ERROR*", "--count"])
    n_err = res["count"]
    assert n_err > 0

    res, lines = _run(capsys, ["search", "--archive", arch,
                               "--query", "*ERROR*", "--limit", "5"])
    assert res["rows_shown"] == min(5, n_err)
    assert all("ERROR" in ln for ln in lines[-res["rows_shown"]:])

    res, _ = _run(capsys, ["search", "--archive", arch, "--query", "*ERROR*",
                           "--count-by-time", "hour"])
    assert res["total"] == n_err and res["buckets"] >= 1

    # reference clo contract: bucket size in ms
    res_ms, _ = _run(capsys, ["search", "--archive", arch,
                              "--query", "*ERROR*",
                              "--count-by-time", "3600000"])
    assert res_ms["total"] == n_err
    assert res_ms["buckets"] >= res["buckets"]

    out_pq = str(tmp_path / "x")
    res, _ = _run(capsys, ["decompress", "--archive", arch,
                           "--out", out_pq, "--ordered"])
    import os

    n_in = sum(
        pq.ParquetFile(os.path.join(tiny_sf_dir, f)).metadata.num_rows
        for f in os.listdir(tiny_sf_dir) if f.endswith(".parquet")
    )
    assert res["rows"] == n_in
    got = pq.read_table(out_pq)
    assert set(got.column_names) >= {"conv_id", "turn_idx", "text"}

    res, _ = _run(capsys, ["stats", "--archive", str(tmp_path)])
    assert res["archives"] == 1


def test_cli_dictdump(ray_session, tiny_sf_dir, tmp_path, capsys):
    import os

    arch_base = str(tmp_path / "arch")
    _run(capsys, ["compress", "--input", tiny_sf_dir,
                  "--out", arch_base])
    archives = [d for d in os.listdir(arch_base)
                if os.path.isdir(os.path.join(arch_base, d))]
    arch = os.path.join(arch_base, archives[0]) if not os.path.exists(
        os.path.join(arch_base, "logtype.dict.parquet")) else arch_base

    out = str(tmp_path / "hr")
    res, _ = _run(capsys, ["dictdump", "--archive", arch,
                           "--output-dir", out])
    assert res["logtypes"] > 0 and res["vars"] > 0

    lt_lines = open(os.path.join(out, "logtype.dict.hr")).read().splitlines()
    assert len(lt_lines) == res["logtypes"]
    # placeholders are rendered, raw placeholder bytes never leak
    body = "\n".join(lt_lines)
    assert "\\i" in body or "\\d" in body or "\\f" in body
    for raw in ("\x11", "\x12", "\x13"):
        assert raw not in body
    # ids are unique and tab-separated
    ids = [ln.split("\t", 1)[0] for ln in lt_lines]
    assert len(set(ids)) == len(ids)

    v_lines = open(os.path.join(out, "var.dict.hr")).read().splitlines()
    assert len(v_lines) == res["vars"]
    seg = open(os.path.join(out, "logtype.segindex.hr")).read().splitlines()
    assert len(seg) >= 1 and all("\t" in ln for ln in seg)


def test_cli_compress_fragments_resume(ray_session, tiny_sf_dir, tmp_path,
                                       capsys):
    import os

    out = str(tmp_path / "frag_arch")
    res, _ = _run(capsys, ["compress", "--input", tiny_sf_dir,
                           "--out", out, "--fragments"])
    assert res["mode"] == "fragments"
    assert res["fragments_run"] >= 1
    assert res["fragments_done"] == res["fragments_run"]

    # resume: a second run finds every fragment recorded and does nothing
    res2, _ = _run(capsys, ["compress", "--input", tiny_sf_dir,
                            "--out", out, "--fragments"])
    assert res2["fragments_run"] == 0
    assert res2["fragments_done"] == res["fragments_done"]
    # sinks exist per fragment
    frags = [d for d in os.listdir(out) if d.startswith("fragment=")]
    assert len(frags) == res["fragments_done"]


def test_cli_json_compress_search_extract(ray_session, tmp_path, capsys):
    """clp-s c/x/s parity through the CLI: NDJSON file → archive → KQL
    search → ordered extract equals the input (sorted)."""
    lines = [
        '{"level": "ERROR", "msg": "disk failure on node a7", "ts": 1000}',
        '{"level": "INFO", "msg": "started worker 3", "ts": 2000}',
        '{"level": "ERROR", "msg": "timeout talking to db", "ts": 3000}',
        '{"level": "INFO", "msg": "checkpoint ok", "ts": 4000}',
    ]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    arch = str(tmp_path / "jarch")

    res, _ = _run(capsys, ["json-compress", "--input", str(src),
                           "--out", arch, "--timestamp-key", "ts"])
    assert res["records"] == 4 and res["schemas"] >= 1

    res, shown = _run(capsys, ["json-search", "--archive", arch,
                               "--query", 'level: "ERROR"'])
    assert res["rows"] == 2
    assert all('"ERROR"' in ln for ln in shown[-res["rows_shown"]:])

    out = tmp_path / "out.jsonl"
    res, _ = _run(capsys, ["json-extract", "--archive", arch,
                           "--out", str(out), "--ordered"])
    assert res["rows"] == 4
    got = [json.loads(x) for x in out.read_text().splitlines()]
    want = [json.loads(x) for x in lines]
    assert got == want

    # chunked ordered extraction (--target-ordered-chunk-size parity)
    chunks = tmp_path / "chunks"
    res, _ = _run(capsys, ["json-extract", "--archive", arch,
                           "--out", str(chunks), "--ordered-chunk-size", "60"])
    assert res["chunks"] >= 2
    cat = b"".join(
        (chunks / m["path"]).read_bytes()
        for m in json.loads((chunks / "chunks.json").read_text()))
    assert [json.loads(x) for x in cat.decode().splitlines()] == want


def test_cli_json_split_roundtrip(ray_session, tmp_path, capsys):
    """--split-records rolls sub-archives; search + extract auto-detect the
    split layout and union across it."""
    lines = [json.dumps({"k": "v%d" % i, "n": i, "ts": i * 100})
             for i in range(20)]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    arch = str(tmp_path / "sarch")

    res, _ = _run(capsys, ["json-compress", "--input", str(src),
                           "--out", arch, "--timestamp-key", "ts",
                           "--split-records", "8"])
    assert res["records"] == 20

    res, _ = _run(capsys, ["json-search", "--archive", arch,
                           "--query", "n >= 15"])
    assert res["rows"] == 5

    out = tmp_path / "sout.jsonl"
    res, _ = _run(capsys, ["json-extract", "--archive", arch,
                           "--out", str(out), "--ordered"])
    assert res["rows"] == 20
    got = [json.loads(x) for x in out.read_text().splitlines()]
    assert got == [json.loads(x) for x in lines]


def test_cli_ir_extract_search(ray_session, tiny_sf_dir, tmp_path, capsys):
    """compress → ir-extract → ir-search chain: IR chunks reproduce the
    archive's text and are searchable without the archive."""
    arch = str(tmp_path / "irarch")
    res, _ = _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    n_rows = res["rows"]

    chunks = str(tmp_path / "chunks")
    res, _ = _run(capsys, ["ir-extract", "--archive", arch, "--out", chunks])
    assert res["chunks"] >= 1

    res, lines = _run(capsys, ["ir-search", "--input", chunks,
                               "--query", "*ERROR*", "--limit", "3"])
    assert res["rows"] > 0
    assert all("ERROR" in ln for ln in lines[-res["rows_shown"]:])

    # a match-all query returns every extracted event
    res, _ = _run(capsys, ["ir-search", "--input", chunks, "--query", "*",
                           "--limit", "0"])
    assert res["rows"] == n_rows


def test_cli_multi_query_search(ray_session, tiny_sf_dir, tmp_path, capsys):
    arch = str(tmp_path / "arch_mq")
    _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    res, lines = _run(capsys, ["search", "--archive", arch,
                               "--query", "*ERROR*", "--query", "*latency*",
                               "--limit", "8"])
    assert res["queries"] == 2 and res["rows_shown"] == 8
    assert all(ln.startswith(("[0] ", "[1] ")) for ln in lines[-8:])


def test_cli_search_prune_flags_single_archive(ray_session, tiny_sf_dir,
                                               tmp_path, capsys):
    """--ts-min prunes a one-archive search that prints matches or writes
    them with --out, not only one that counts them."""
    from clp_core_ray.state.manifest import read_manifests

    arch = str(tmp_path / "arch")
    _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    past = str(max(m["ts_max"] for m in read_manifests(arch)) + 1)
    search = ["search", "--archive", arch, "--query", "*ERROR*"]

    res, _ = _run(capsys, search + ["--limit", "5"])
    assert res["rows_shown"] == 5
    res, lines = _run(capsys, search + ["--ts-min", past, "--limit", "5"])
    assert res["rows_shown"] == 0 and lines == []
    res, _ = _run(capsys, search + ["--ts-min", past, "--count"])
    assert res["count"] == 0
    res, _ = _run(capsys, search + ["--ts-min", past,
                                    "--out", str(tmp_path / "hits")])
    assert res["rows"] == 0
    # a query batch takes the prune flags too, on one archive or a base
    for target in (arch, str(tmp_path)):
        res, _ = _run(capsys, ["search", "--archive", target,
                               "--query", "*ERROR*", "--query", "*WARN*"])
        assert res["rows_shown"] > 0
        res, lines = _run(capsys, ["search", "--archive", target,
                                   "--query", "*ERROR*", "--query", "*WARN*",
                                   "--ts-min", past])
        assert res["rows_shown"] == 0 and lines == []


def test_cli_count_by_time_no_matches(ray_session, tiny_sf_dir, tmp_path,
                                      capsys):
    """--count-by-time over a query that matches nothing reports zero
    buckets and a zero total."""
    arch = str(tmp_path / "arch")
    _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    for bucket in ("hour", "3600000"):
        res, _ = _run(capsys, ["search", "--archive", arch,
                               "--query", "*zz_no_such_token_zz*",
                               "--count-by-time", bucket])
        assert (res["buckets"], res["total"]) == (0, 0)


def test_cli_incremental(ray_session, tiny_sf_dir, tmp_path, capsys):
    base = str(tmp_path / "layers")
    res, _ = _run(capsys, ["incr-compress", "--input", tiny_sf_dir,
                           "--base", base])
    assert res["generation"] == 0 and res["compressed_rows"] > 0
    # same snapshot again → no-op generation
    res, _ = _run(capsys, ["incr-compress", "--input", tiny_sf_dir,
                           "--base", base])
    assert (res["generation"], res["added"], res["changed"],
            res["removed"], res["compressed_rows"]) == (1, 0, 0, 0, 0)

    out = str(tmp_path / "x")
    res, _ = _run(capsys, ["incr-extract", "--base", base, "--out", out])
    n_total = res["rows"]
    assert n_total > 0

    res, lines = _run(capsys, ["incr-search", "--base", base,
                               "--query", "*ERROR*", "--limit", "2"])
    assert res["rows"] > 0
    assert all("ERROR" in ln for ln in lines[-2:])


def test_cli_log_compress_extract_roundtrip(ray_session, tmp_path, capsys):
    """Raw text logs → archive → byte-identical file reconstruction through
    the CLI (clp c / clp x on log files, the reference's primary shape)."""
    body = (
        "2016-05-08 07:34:05.251 INFO job j7 started user=bob mem=1.5 GB\n"
        "2016-05-08 07:34:06.000 DEBUG step 1 of 12 took 0.125 s\n"
        "continuation without timestamp\n"
        "2016-05-08 07:35:00.100 ERROR failed to open /var/log/a.17.log errno=2\n"
    )
    logs = tmp_path / "logs"
    logs.mkdir()
    want = {}
    for i in range(2):
        p = logs / f"svc{i}.log"
        b = body.replace("j7", f"j{i}")
        p.write_text(b)
        want[str(p)] = b
    # a file WITHOUT a trailing newline must reconstruct without one
    p = logs / "svc9.log"
    p.write_text(body.rstrip("\n"))
    want[str(p)] = body.rstrip("\n")

    arch = str(tmp_path / "arch")
    out = str(tmp_path / "orig")
    res, _ = _run(capsys, ["log-compress", "--input", str(logs),
                           "--out", arch, "--tag", "textlogs"])
    # 3 messages x 3 files (the timestamp-less line merges into the DEBUG
    # message — MessageParser.cpp:84-165 continuation semantics)
    assert res["rows"] == 9
    res, _ = _run(capsys, ["log-extract", "--archive", arch, "--out", out])
    assert res["files"] == 3
    import os

    for src_path, b in want.items():
        name = src_path.replace("/", "_").lstrip("_")
        got = open(os.path.join(out, name)).read()
        assert got == b, name


def test_cli_compress_small_parquet_in_process(ray_session, tmp_path,
                                               capsys):
    """``compress --input <parquet file>`` passes the file list, so a small
    input compresses in process and decompresses to its rows."""
    import pyarrow as pa

    from clp_core_ray.pipelines.decompress import decompress
    from clp_core_ray.sources.transcripts import synth_transcripts
    from clp_core_ray.state.manifest import read_manifests

    src = str(tmp_path / "in.parquet")
    want = synth_transcripts(300, seed=4)
    pq.write_table(want, src)
    arch = str(tmp_path / "arch")
    res, _ = _run(capsys, ["compress", "--input", src, "--out", arch])
    assert res["rows"] == want.num_rows
    (m,) = read_manifests(arch)
    assert m["metrics"]["compress_side"] == "local" and m["input"] == src
    cols = ("conv_id", "turn_idx", "role", "tool", "ts")
    got = pa.concat_tables(
        pa.table(b) for b in decompress(arch, columns=cols)
        .iter_batches(batch_format="pyarrow"))
    keys = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert (got.select(want.column_names).cast(want.schema).sort_by(keys)
            .equals(want.sort_by(keys)))


def test_cli_glt_write_search(ray_session, tiny_sf_dir, tmp_path, capsys):
    """glt-write then glt-search must equal the row engine's results."""
    arch = str(tmp_path / "arch")
    res, _ = _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    assert res["rows"] > 0

    res, _ = _run(capsys, ["glt-write", "--archive", arch])
    assert res["cmd"] == "glt-write" and res["rows"] > 0

    res, _ = _run(capsys, ["search", "--archive", arch,
                           "--query", "*ERROR*", "--count"])
    n_row_engine = res["count"]

    out_pq = str(tmp_path / "hits")
    res, _ = _run(capsys, ["glt-search", "--archive", arch,
                           "--query", "*ERROR*", "--out", out_pq])
    assert res["cmd"] == "glt-search"
    assert res["rows"] == n_row_engine > 0


def test_cli_retention(ray_session, tiny_sf_dir, tmp_path, capsys):
    """catalog-init → compress → retention --dry-run → retention deletes;
    stats reflect the survivor set."""
    import os

    base = str(tmp_path / "arch")
    _run(capsys, ["catalog-init", "--base", base])
    out, _ = _run(capsys, ["compress", "--input", tiny_sf_dir,
                           "--out", os.path.join(base, "a1")])
    cutoff = 4_000_000_000_000_000  # ~2096: everything is older
    dry, _ = _run(capsys, ["retention", "--base", base,
                           "--before-us", str(cutoff), "--dry-run"])
    assert dry["dry_run"] and len(dry["removed"]) == 1
    assert os.path.isdir(dry["removed"][0])
    real, _ = _run(capsys, ["retention", "--base", base,
                            "--before-us", str(cutoff)])
    assert len(real["removed"]) == 1
    assert not os.path.isdir(real["removed"][0])
    keep, _ = _run(capsys, ["retention", "--base", base,
                            "--before-us", "1"])
    assert keep["removed"] == []


def test_cli_search_regex(ray_session, tiny_sf_dir, tmp_path, capsys):
    """clg --regex role: the regex translates to CLP wildcard syntax
    before compilation; unsupported constructs fail loudly."""
    arch = str(tmp_path / "arch")
    res, _ = _run(capsys, ["compress", "--input", tiny_sf_dir,
                           "--out", arch])
    assert res["rows"] > 0

    res, _ = _run(capsys, ["search", "--archive", arch,
                           "--query", "^ERROR upstream.*$",
                           "--regex", "--count"])
    n_rx = res["count"]
    res, _ = _run(capsys, ["search", "--archive", arch,
                           "--query", "ERROR upstream*", "--count"])
    assert n_rx == res["count"] > 0

    import pytest as _pytest

    from clp_core_ray.cli import main
    with _pytest.raises(ValueError):
        main(["search", "--archive", arch,
              "--query", "ERROR [0-9]+", "--regex", "--count"])


def test_cli_search_executes_ray_scan_once(ray_session, tiny_sf_dir, tmp_path,
                                           capsys, monkeypatch):
    """``search --out``, ``decompress --out`` and ``glt-search --out``
    execute their Ray-side result once: the rows its batches carry sum to
    the rows written. An incremental search stops at ``--limit``."""
    from clp_core_ray import execution
    from clp_core_ray.pipelines import decompress as D
    from clp_core_ray.pipelines import glt as G
    from clp_core_ray.pipelines import search as S

    arch, base = str(tmp_path / "arch"), str(tmp_path / "layers")
    _run(capsys, ["compress", "--input", tiny_sf_dir, "--out", arch])
    _run(capsys, ["incr-compress", "--input", tiny_sf_dir, "--base", base])

    marks = tmp_path / "scanned.txt"

    def counted(real):
        """``real`` (→ Dataset) with each executed batch's rows recorded."""
        def run(*args, **kwargs):
            path = str(marks)

            def mark(b):
                with open(path, "a") as f:
                    f.write(f"{b.num_rows}\n")
                return b

            return real(*args, **kwargs).map_batches(mark,
                                                     batch_format="pyarrow")
        return run

    def scanned() -> int:
        n = sum(map(int, marks.read_text().split())) if marks.exists() else 0
        marks.unlink(missing_ok=True)
        return n

    real_scan = S._scan_ray
    monkeypatch.setattr(execution, "LOCAL_SCAN_BYTES", -1)
    monkeypatch.setattr(S, "_scan_ray", counted(real_scan))

    out = str(tmp_path / "hits")
    res, _ = _run(capsys, ["search", "--archive", arch, "--query", "*ERROR*",
                           "--out", out])
    total = res["rows"]
    assert total > 2 and pq.read_table(out).num_rows == total
    assert scanned() == total

    res, lines = _run(capsys, ["incr-search", "--base", base,
                               "--query", "*ERROR*", "--limit", "2"])
    assert res["rows"] == 2 and all("ERROR" in ln for ln in lines[-2:])
    assert 0 < scanned() <= total

    # count the glt result once, not also its misc sink's row-plan scan
    monkeypatch.setattr(S, "_scan_ray", real_scan)
    monkeypatch.setattr(execution, "LOCAL_DECODE_BYTES", -1)
    monkeypatch.setattr(D, "decompress", counted(D.decompress))
    monkeypatch.setattr(G, "glt_search", counted(G.glt_search))
    dec = str(tmp_path / "decoded")
    res, _ = _run(capsys, ["decompress", "--archive", arch, "--out", dec])
    assert res["rows"] > total and pq.read_table(dec).num_rows == res["rows"]
    assert scanned() == res["rows"]

    glt_dir, ghits = str(tmp_path / "glt"), str(tmp_path / "ghits")
    _run(capsys, ["glt-write", "--archive", arch, "--out", glt_dir])
    res, _ = _run(capsys, ["glt-search", "--archive", arch, "--glt-dir",
                           glt_dir, "--query", "*ERROR*", "--out", ghits])
    assert res["rows"] == total and pq.read_table(ghits).num_rows == total
    assert scanned() == total
