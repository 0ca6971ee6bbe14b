"""Regression tests for the round-1 ADVICE findings.

1. Boundary var tokens in a search query are ambiguous (implicit *query*
   wildcards) and must not become precise typed-var requirements.
2. Non-compact archives must decompress (logtype column projection).
3. Wildcard escape semantics follow the reference (test-string_utils.cpp
   escape block; string_utils.cpp advance_tame_to_next_match).
4. Dictionary id collisions fail loudly instead of decoding wrong text.
"""

import os
import re

import pyarrow as pa
import pytest

SF = 0.0005


@pytest.fixture(scope="module")
def tiny(ray_session):
    from clp_core_ray.sources.transcripts import transcripts_path

    return transcripts_path(SF)


def test_search_boundary_var_tokens(ray_session, tiny, tmp_path):
    """A query whose first/last tokens are variables ('57 ms model') must hit
    every message whose text *contains* the pattern — '857 ms model=…' counts
    (ADVICE r1 high: 61 false negatives before the fix)."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import search_archive
    from clp_core_ray.sources.transcripts import read_transcripts

    out = str(tmp_path / "arch")
    compress(SF, out)
    hits = search_archive(out, "7 ms model").to_pandas()
    df = read_transcripts(SF).to_pandas()
    want = df[df["text"].str.contains("7 ms model", regex=False)]
    assert len(want) > 0, "fixture must contain boundary-token matches"
    assert len(hits) == len(want)
    assert sorted(hits["text"]) == sorted(want["text"])


# (tame, wild, expected) — escape block of
# /root/reference/components/core/tests/test-string_utils.cpp:229-283
ESCAPE_CASES = [
    ("a*cd", "a\\*cd", True),
    ("a?cd", "a\\?cd", True),
    ("a?c*e", "a\\?c\\*e", True),
    ("a\\cd", "a\\\\cd", True),
    ("abc?e", "a*\\?e", True),
    ("abc*e", "a*\\*e", True),
    ("abc\\e", "a*\\\\e", True),
    ("\\ab\\ab\\c?ef", "*ab\\\\c\\?*", True),
    ("\\ab\\ab\\c*ef", "*ab\\\\c\\**", True),
    ("\\ab\\ab\\c\\ef", "*ab\\\\c\\\\*", True),
    ("ab?d", "\\ab?d", True),  # silently-ignored unsupported escape \a
    # negatives: escaped wildcard must NOT act as a wildcard
    ("axcd", "a\\*cd", False),
    ("abcd", "a\\?bcd", False),
]


@pytest.mark.parametrize("tame,wild,want", ESCAPE_CASES)
def test_wildcard_escape_conformance(tame, wild, want):
    from clp_core_ray.pipelines.search import wildcard_to_regex

    rx = re.compile(wildcard_to_regex(wild))
    assert bool(rx.match(tame)) == want


def test_regex_to_wildcard_escapes():
    """regex '\\*' must become a literal-asterisk wildcard ('\\*'), not bare
    '*' (match-anything) — reference append_char_to_wildcard escapes wildcard
    metachars."""
    from clp_core_ray.pipelines.search import regex_to_wildcard, wildcard_to_regex

    w = regex_to_wildcard(r"^a\*c$")
    assert w == r"a\*c"
    rx = re.compile(wildcard_to_regex(w))
    assert rx.match("a*c")
    assert not rx.match("abc")
    assert regex_to_wildcard(r"^a\\c$") == "a\\\\c"
    assert regex_to_wildcard(r"^a\?c$") == r"a\?c"


def test_dict_collision_detection(ray_session):
    """Two rows with the same id but different values (a simulated 64-bit hash
    collision) must raise, not silently pick one (ADVICE r1 low)."""
    import ray.data as rd

    from clp_core_ray.state.dictionaries import distinct_by_key

    tbl = pa.table(
        {
            "var_id": pa.array([7, 7, 9], type=pa.int64()),
            "value": pa.array(["aaa", "bbb", "ccc"]),
        }
    )
    ds = distinct_by_key(rd.from_arrow(tbl), "var_id", check_value_col="value")
    with pytest.raises(Exception, match="collision"):
        ds.to_pandas()

    # equal-value duplicates pass through fine
    ok = pa.table(
        {
            "var_id": pa.array([7, 7, 9], type=pa.int64()),
            "value": pa.array(["aaa", "aaa", "ccc"]),
        }
    )
    out = distinct_by_key(rd.from_arrow(ok), "var_id", check_value_col="value").to_pandas()
    assert sorted(out["var_id"].tolist()) == [7, 9]


# ---- round-2 ADVICE regressions ------------------------------------------


def test_cli_compress_real_input_not_replaced(ray_session, tmp_path):
    """--input pointing at an existing directory is REAL input even when its
    name contains 'sfN.N' — it must never be replaced by synthetic data."""
    import json

    import pyarrow.parquet as pq

    from clp_core_ray.cli import cmd_compress
    from clp_core_ray.sources.transcripts import synth_transcripts

    src = tmp_path / "logs_sf0.5"
    src.mkdir()
    tiny = synth_transcripts(10, seed=3)
    pq.write_table(tiny, str(src / "part-0.parquet"))

    class A:
        input = str(src)
        out = str(tmp_path / "arch")

    out = cmd_compress(A())
    assert out["rows"] == 10  # the 10 real rows, not sf0.5's 3M synthetic
    # manifest records the real path
    from clp_core_ray.state.manifest import read_manifests

    assert any(m.get("input") == str(src) for m in read_manifests(A.out))


def test_cli_compress_missing_input_errors(ray_session, tmp_path):
    from clp_core_ray.cli import cmd_compress

    class A:
        input = str(tmp_path / "nope")
        out = str(tmp_path / "arch2")

    with pytest.raises(SystemExit):
        cmd_compress(A())


def test_search_empty_routed_dir(ray_session, tmp_path):
    """An archive whose routed/ dir exists but holds no parquet files yields
    an empty Dataset (ADVICE r2: used to raise FileNotFoundError)."""
    from clp_core_ray.pipelines.search import search_archive

    arch = tmp_path / "arch"
    (arch / "routed").mkdir(parents=True)
    ds = search_archive(str(arch), "anything")
    assert ds.schema().names == ["conv_id", "turn_idx", "text"]
    assert ds.count() == 0


def test_single_archive_ts_prune(ray_session, tmp_path):
    """ts_min/ts_max apply to a single-archive target via its manifest."""
    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.pipelines.search import (_run_plans, _target_plans,
                                               search_count)
    from clp_core_ray.state.manifest import read_manifests

    out = str(tmp_path / "arch")
    compress(SF, out)
    ms = [m for m in read_manifests(out) if m.get("ts_max") is not None]
    assert ms
    hi = max(m["ts_max"] for m in ms)
    # window entirely after the archive's range → zero rows, zero scan
    n = search_count(out, "ERROR*timeout", ts_min=hi + 10_000_000)
    assert n.column("cnt")[0].as_py() == 0
    # window covering the range → matches flow as before
    n2 = search_count(out, "ERROR*timeout", ts_max=hi)
    assert n2.column("cnt")[0].as_py() > 0
    # count-by-time path carries the prune kwargs too
    got = _run_plans(_target_plans(out, ["ERROR*timeout"], False,
                                   ts_min=hi + 10_000_000)).to_pandas()
    assert len(got) == 0


def test_compress_ds_override_default_label(ray_session, tmp_path):
    """compress(ds=...) without input_label records a placeholder instead of
    raising TypeError after the pipeline ran."""
    import ray.data as rd

    from clp_core_ray.pipelines.compress import compress
    from clp_core_ray.sources.transcripts import synth_transcripts
    from clp_core_ray.state.manifest import read_manifests

    out = str(tmp_path / "arch")
    compress(None, out, ds=rd.from_arrow(synth_transcripts(20, seed=5)))
    assert any(m.get("input") == "dataset-override" for m in read_manifests(out))


def test_import_does_not_mutate_env():
    """Importing the package must not set OMP_NUM_THREADS / MALLOC_* for the
    embedding application (explicit opt-in via _export_tuning_env)."""
    import subprocess
    import sys

    code = (
        "import os\n"
        "for k in ('OMP_NUM_THREADS','MALLOC_MMAP_THRESHOLD_',"
        "'MALLOC_TRIM_THRESHOLD_'): os.environ.pop(k, None)\n"
        "import clp_core_ray\n"
        "bad = [k for k in ('OMP_NUM_THREADS','MALLOC_MMAP_THRESHOLD_',"
        "'MALLOC_TRIM_THRESHOLD_') if k in os.environ]\n"
        "assert not bad, bad\n"
        "clp_core_ray._export_tuning_env()\n"
        "assert os.environ['OMP_NUM_THREADS'] == '2'\n"
    )
    # run in this checkout, so the child imports the package under test
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=repo, timeout=120)


def test_sql_round_matches_duckdb_round():
    """sql_round == DuckDB round(x, d) on random values AND constructed
    half-boundary values (dyadic rationals, decimal halves) — the contract
    every oracled query relies on (np.round banker's ties broke it at
    sf0.1 until commit c0184cf)."""
    import duckdb
    import numpy as np

    from clp_core_ray.pipelines.aggregate import sql_round

    rng = np.random.default_rng(81)
    vals = list(rng.normal(0, 1000, 400))
    # half-boundaries: k/2·10^-d for d in {2, 4, 6}, incl. dyadic 1/128
    for d in (2, 4, 6):
        step = 10.0 ** -d
        vals += [round(k * step + step / 2, d + 3) for k in range(-5, 6)]
    vals += [1 / 128, 1 / 3200, -1 / 128, 0.0078125, 2.5, -2.5, 0.125]
    con = duckdb.connect()
    for d in (2, 4, 6):
        got = sql_round(np.asarray(vals, dtype=np.float64), d)
        want = [con.execute("SELECT round(CAST(? AS DOUBLE), ?)",
                            [float(v), d]).fetchone()[0] for v in vals]
        mism = [(v, g, w) for v, g, w in zip(vals, got, want)
                if abs(g - w) > 1e-12]
        assert not mism, (d, mism[:5])


def test_error_bursts_exact_beyond_int64():
    """clp_error_bursts' 3σ membership test stays exact where its int64
    form wraps (ADVICE r5: ~1e5 minutes × 1e4 errors a minute); checked
    against mean + 3·(sample σ) in exact fractions."""
    from fractions import Fraction

    import numpy as np

    from clp_core_ray.pipelines.queries import _burst_mask

    rng = np.random.default_rng(5)
    errs = rng.integers(9_000_000, 11_000_000, size=2000).astype(np.int64)
    errs[[7, 500, 1999]] = [40_000_000, 60_000_000, 11_200_000]
    n, sm = len(errs), int(errs.sum())
    d_max = int(errs.max()) * n - sm
    assert d_max * d_max * (n - 1) > 2 ** 63  # the int64 form wraps here

    vals = errs.tolist()
    mean = Fraction(sm, n)
    var = sum((e - mean) ** 2 for e in vals) / (n - 1)
    want = [e > mean and (e - mean) ** 2 > 9 * var for e in vals]
    assert 2 <= sum(want) < n
    assert _burst_mask(errs).tolist() == want
    assert _burst_mask(np.array([], dtype=np.int64)).tolist() == []
