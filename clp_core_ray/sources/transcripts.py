"""Deterministic synthetic multi-turn transcript table (the north-rule input).

Schema (from BASELINE.json input_hint):
    conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
    ts:timestamp[us]

The generator is pure-seeded (numpy PCG64, seed fixed per scale), so the same
scale always produces byte-identical tables — tests, the DuckDB oracle and the
benchmark all read the same cached Parquet. Scale mirrors the driver testdata:
sf0.1 ≈ 600k turns (same as lineitem).

Skew is intentional: a few "hot" conversations own ~5% of all turns each, so
groupbys keyed on conv_id exercise the salting path (SURVEY.md §4).
"""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from clp_core_ray.execution import cluster_cpus

SEED = 42
TURNS_PER_SF = 6_000_000  # sf0.1 → 600k turns
CACHE_DIR = "/tmp/clp_core_ray_data"

ROLES = np.array(["user", "assistant", "system", "tool"])
ROLE_P = np.array([0.42, 0.42, 0.06, 0.10])
TOOLS = np.array(["search", "browser", "calculator", "code_exec", "db_query"])

# templates: first word is the severity/level → the routing class when tool=""
_TEMPLATES = [
    "INFO request_id={rid} user u{uid} GET /api/v1/items?page={page}&size={size} -> 200 in {ms} ms",
    "INFO session {hexid} opened by u{uid} from 10.{oct}.{oct2}.{oct3}:{port}",
    "INFO turn completed tokens={toks} latency {ms} ms model=m{uid}",
    "WARN slow query q{qid} took {ms} ms threshold=500 retries={page}",
    "WARN memory pressure {pct}.{frac} percent on worker-{uid}",
    "ERROR failed to open /var/data/shard_{uid}/seg_{qid}.bin errno={errno}",
    "ERROR upstream timeout after {ms} ms calling svc-{uid} attempt {page} of 5",
    "DEBUG cache miss key=k{hexid} bucket {page} fill {pct}.{frac} pct",
    "DEBUG planner chose plan_{qid} cost {pct}.{frac} rows {toks}",
    "INFO tool call started args_bytes={toks} timeout {ms} ms",
]


def n_turns_for_sf(sf: float) -> int:
    return max(200, int(TURNS_PER_SF * sf))


def sf_of_dir(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def synth_transcripts(n_turns: int, seed: int = SEED) -> pa.Table:
    """Generate the transcript table deterministically (vectorized where hot)."""
    rng = np.random.default_rng(seed)
    # --- conversation layout with hot-key skew -------------------------------
    n_hot = 3
    hot_len = max(2, n_turns // 20)  # each hot conv ≈ 5% of all turns
    avg_len = 8
    n_norm = max(1, (n_turns - n_hot * hot_len) // avg_len + 1)
    lengths = rng.integers(2, 15, size=n_norm)
    lengths = np.concatenate([np.full(n_hot, hot_len, dtype=np.int64), lengths])
    cum = np.cumsum(lengths)
    total = int(cum[-1])
    if total < n_turns:  # pad with one long tail conversation
        lengths = np.append(lengths, n_turns - total)
        cum = np.cumsum(lengths)
    n_convs = len(lengths)

    conv_of_turn = np.repeat(np.arange(n_convs), lengths)[:n_turns]
    starts = np.concatenate([[0], cum[:-1]])
    turn_idx = (np.arange(n_turns) - starts[conv_of_turn]).astype(np.int32)

    # conv ids: scrambled hex so lexicographic order != generation order
    conv_hash = (conv_of_turn.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(
        0xFFFFFFFF
    )
    conv_id = np.char.add("c", np.char.mod("%08x", conv_hash))

    role = rng.choice(ROLES, size=n_turns, p=ROLE_P)
    tool = np.where(
        role == "tool", rng.choice(TOOLS, size=n_turns), np.full(n_turns, "", dtype=object)
    ).astype("U16")

    # timestamps: conversation start + 1-30s per turn, microseconds
    base = np.int64(1_700_000_000_000_000)  # 2023-11-14T22:13:20Z in us
    conv_start = (conv_of_turn.astype(np.int64) * 97_003_331) % 86_400_000_000 * 30
    step = rng.integers(1_000_000, 30_000_000, size=n_turns)
    within = np.zeros(n_turns, dtype=np.int64)
    np.cumsum(step, out=within)
    within -= within[starts[conv_of_turn].clip(0, n_turns - 1)] - step[
        starts[conv_of_turn].clip(0, n_turns - 1)
    ]
    ts = base + conv_start + within

    # --- text ----------------------------------------------------------------
    tmpl_id = rng.integers(0, len(_TEMPLATES), size=n_turns)
    rid = rng.integers(10**8, 10**9, size=n_turns)
    uid = rng.integers(1, 5000, size=n_turns)
    page = rng.integers(0, 40, size=n_turns)
    size = rng.integers(10, 500, size=n_turns)
    ms = rng.integers(1, 9000, size=n_turns)
    hexid = rng.integers(0, 2**32, size=n_turns)
    qid = rng.integers(1, 800, size=n_turns)
    pct = rng.integers(0, 99, size=n_turns)
    frac = rng.integers(0, 99, size=n_turns)
    errno = rng.integers(1, 122, size=n_turns)
    toks = rng.integers(5, 4000, size=n_turns)
    octs = rng.integers(0, 255, size=(3, n_turns))
    port = rng.integers(1024, 65535, size=n_turns)

    templates = _TEMPLATES
    text = [
        templates[tmpl_id[i]].format(
            rid=rid[i], uid=uid[i], page=page[i], size=size[i], ms=ms[i],
            hexid=f"{hexid[i]:08x}", qid=qid[i], pct=pct[i], frac=frac[i],
            errno=errno[i], toks=toks[i], oct=octs[0, i], oct2=octs[1, i],
            oct3=octs[2, i], port=port[i],
        )
        for i in range(n_turns)
    ]

    return pa.table(
        {
            "conv_id": pa.array(conv_id.tolist(), type=pa.string()),
            "turn_idx": pa.array(turn_idx, type=pa.int32()),
            "role": pa.array(role.tolist(), type=pa.string()),
            "text": pa.array(text, type=pa.string()),
            "tool": pa.array(tool.tolist(), type=pa.string()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )


FILES_PER_DATASET = 8  # fragment unit: at scale each input shard is a file


def _n_files(n_turns: int) -> int:
    """Shard count for a generated dataset: more turns → more files.

    Read parallelism equals the file count (Ray Data's SplitBlocks re-slices
    a read task's OUTPUT, not the read itself), so a big dataset in 8 files
    caps the read phase at 8 concurrent tasks — measured 38% idle CPU at
    16-way on sf1.6 (CPU-seconds equal at 4 and 16 CPUs, wall 2.4× worse
    than ideal). One file per ~200k turns keeps every level's read phase
    saturated while small test datasets keep their exact 8-fragment layout.
    """
    return max(FILES_PER_DATASET, min(64, n_turns // 200_000))


def transcripts_path(sf_dir_or_sf: str | float, seed: int = SEED) -> str:
    """Directory of cached transcript Parquet files for a scale (generated once).

    Multi-file layout so the checkpoint/resume unit (a fragment) is a file,
    like a real ingest where each shard is an object. Written atomically
    (tmp dir + rename) so concurrent callers are safe.
    """
    sf = sf_of_dir(sf_dir_or_sf) if isinstance(sf_dir_or_sf, str) else float(sf_dir_or_sf)
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = os.path.join(CACHE_DIR, f"transcripts_sf{sf}_seed{seed}")
    # benchmark staging hook: a pre-copied (e.g. tmpfs) replica of this exact
    # dataset may be designated via env; content is identical by construction
    override = os.environ.get("CLP_TRANSCRIPTS_DIR_OVERRIDE")
    if override and os.path.basename(override) == os.path.basename(path) and os.path.isdir(
        override
    ):
        return override
    if not os.path.isdir(path):
        table = synth_transcripts(n_turns_for_sf(sf), seed=seed)
        tmp = tempfile.mkdtemp(dir=CACHE_DIR)
        n = len(table)
        nf = _n_files(n)
        step = (n + nf - 1) // nf
        for i in range(nf):
            part = table.slice(i * step, step)
            if len(part):
                pq.write_table(
                    part, os.path.join(tmp, f"part-{i:04d}.parquet"),
                    row_group_size=64 * 1024,
                )
        try:
            os.replace(tmp, path)
        except OSError:  # another process won the race; keep theirs
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    return path


def transcript_files(sf_dir_or_sf: str | float, seed: int = SEED) -> list[str]:
    d = transcripts_path(sf_dir_or_sf, seed)
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def read_transcripts(sf_dir_or_sf: str | float, seed: int = SEED, **read_kwargs):
    """Ray Dataset of the transcript table for a scale.

    Block count balances two failure modes of downstream map_batches tasks
    (task granularity = input block, regardless of batch_size):
    - too few blocks → straggler tasks hold the whole-stage tail (measured
      2.1-10 s task spread at 300k-row tasks: one late task = 25% of wall);
      target ~4 blocks per CPU so a slow task back-fills.
    - too many blocks → blocks shrink below one encode batch and per-task
      overhead dominates; floor at 2×ENCODE_BATCH_SIZE rows per block.
    """
    import ray.data as rd

    if "override_num_blocks" not in read_kwargs:
        ncpu = cluster_cpus()
        sf = sf_of_dir(sf_dir_or_sf) if isinstance(sf_dir_or_sf, str) else float(sf_dir_or_sf)
        n = n_turns_for_sf(sf)
        by_rows = n // (2 * 16 * 1024)  # ≥2 encode batches per block
        read_kwargs["override_num_blocks"] = max(
            FILES_PER_DATASET, 2 * ncpu, min(4 * ncpu, by_rows)
        )
    return rd.read_parquet(transcripts_path(sf_dir_or_sf, seed), **read_kwargs)


def transcripts_csv_path(sf_dir_or_sf: str | float, seed: int = SEED) -> str:
    """CSV replica of the transcript shards (converted once, atomic dir
    rename like :func:`transcripts_path`) — the fixture for the CSV ingest
    path (S-family: many telemetry exports ship CSV, reference analogue
    clp's fileless stdin/text ingestion surface)."""
    from pyarrow import csv as pacsv

    src = transcripts_path(sf_dir_or_sf, seed)
    path = src + "_csv"
    if not os.path.isdir(path):
        tmp = tempfile.mkdtemp(dir=CACHE_DIR)
        for f in sorted(os.listdir(src)):
            if f.endswith(".parquet"):
                pacsv.write_csv(
                    pq.read_table(os.path.join(src, f)),
                    os.path.join(tmp, f.replace(".parquet", ".csv")))
        try:
            os.replace(tmp, path)
        except OSError:  # concurrent converter won; keep theirs
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    return path


def read_transcripts_csv(sf_dir_or_sf: str | float, seed: int = SEED,
                         **read_kwargs):
    """Ray Dataset from the CSV replica via ``ray.data.read_csv`` with an
    EXPLICIT arrow schema (no type inference drift: turn_idx stays int32,
    ts parses as timestamp[us], empty strings stay strings, not nulls).
    Produces the same table as :func:`read_transcripts` — pinned by the
    clp_csv_ingest oracle."""
    import ray.data as rd
    from pyarrow import csv as pacsv

    convert = pacsv.ConvertOptions(column_types={
        "conv_id": pa.string(), "turn_idx": pa.int32(),
        "role": pa.string(), "text": pa.string(), "tool": pa.string(),
        "ts": pa.timestamp("us"),
    }, strings_can_be_null=False)
    return rd.read_csv(transcripts_csv_path(sf_dir_or_sf, seed),
                       convert_options=convert, **read_kwargs)
