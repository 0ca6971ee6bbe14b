"""Re-derive the local/Ray constants of ``clp_core_ray/execution.py`` on
this host.

For an input-size sweep of synthetic transcript archives, each stage's
operation is timed on both sides: in process (its constant raised above
every input) and on Ray (its constant set to -1). Per size it prints the
median seconds of each side, and per operation it reports

- ``fixed_s``: the fixed cost of the Ray job, the median over the sweep
  of Ray seconds minus local seconds at equal input;
- ``local_s_per_mb``: the in-process cost per MB of input, the slope of a
  least-squares line through the local seconds;
- ``crossover_mb = fixed_s / local_s_per_mb``: the largest input for
  which ``var <= fixed``, the rule by which the local side cannot lose on
  any CPU count (the constant should sit at or under it).

Operations (input bytes in brackets):

- scan: ``search_archive(…, "ERROR*timeout")`` consumed, the worst query
  kind (every class kept, a full decode and verify) [the plan's kept sink
  bytes];
- finalize: ``write_archive_dicts`` over the archive's dict deltas [delta
  bytes] and ``merge_archives`` of the one archive [dictionary bytes];
- decode: ``decompress`` with every row column, consumed, and
  ``extract_ir_chunks`` [sink bytes];
- text_extract: ``extract_text_logs`` of the same turns written as
  timestamped text log files [that archive's sink bytes];
- compress: ``compress(paths)`` of the turns written as one transcript
  parquet file, and ``compress_text_logs`` of the text log files [the
  input files' stat'd bytes].

Usage:
    python tools/measure_crossover.py [--stages scan,finalize,decode,...]
        [--turns 2000,8000,20000,40000,80000] [--reps 5]
        [--workdir /dev/shm/measure_crossover]
Like ``perfbench/run.py``, the process is pinned to ``nproc`` CPUs and Ray
runs on that many. Prints one JSON line per (operation, size) and a
summary JSON line per operation.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

MB = 1 << 20
CONSTANTS = {"scan": "LOCAL_SCAN_BYTES", "finalize": "LOCAL_FINALIZE_BYTES",
             "decode": "LOCAL_DECODE_BYTES",
             "text_extract": "LOCAL_TEXT_EXTRACT_BYTES",
             "compress": "LOCAL_COMPRESS_BYTES"}
ROW_COLUMNS = ("conv_id", "turn_idx", "role", "tool", "ts")


def _consume(ds) -> int:
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def _write_text_logs(turns, log_dir: str, n_files: int = 8) -> list[str]:
    """The turns as ``n_files`` text log files, one message per turn
    behind a millisecond timestamp."""
    import pyarrow as pa
    import pyarrow.compute as pc

    os.makedirs(log_dir, exist_ok=True)
    ts = pc.strftime(pc.cast(turns.column("ts"), pa.timestamp("ms"),
                             safe=False),
                     format="%Y-%m-%d %H:%M:%S").to_pylist()
    texts = turns.column("text").to_pylist()
    paths = []
    for i in range(n_files):
        path = os.path.join(log_dir, f"log-{i}.log")
        with open(path, "w") as f:
            f.writelines(f"{ts[j]} {texts[j]}\n"
                         for j in range(i, len(texts), n_files))
        paths.append(path)
    return paths


def _build(workdir: str, n_turns: int) -> dict:
    """Archives of ``n_turns`` synthetic turns: a transcript archive, with
    a copy of the dict deltas its compress finalized, and a text-log
    archive; and the inputs: one transcript parquet file and the text log
    files."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from clp_core_ray.pipelines import compress as cmod
    from clp_core_ray.sources.transcripts import synth_transcripts
    from clp_core_ray.state import dictionaries

    arch = os.path.join(workdir, f"archive-{n_turns}")
    deltas = os.path.join(workdir, f"deltas-{n_turns}")
    log_arch = os.path.join(workdir, f"textlog-archive-{n_turns}")
    for d in (arch, deltas, log_arch):
        shutil.rmtree(d, ignore_errors=True)
    turns = synth_transcripts(n_turns)
    real = dictionaries.write_archive_dicts

    def keep_deltas(out_dir, delta_dir=None, prededup_refs=None):
        shutil.copytree(delta_dir, deltas)
        return real(out_dir, delta_dir, prededup_refs)

    dictionaries.write_archive_dicts = keep_deltas
    try:
        cmod.compress(None, arch, ds=rd.from_arrow(turns),
                      input_label=f"crossover-{n_turns}")
    finally:
        dictionaries.write_archive_dicts = real
    logs = _write_text_logs(turns, os.path.join(workdir, f"logs-{n_turns}"))
    cmod.compress_text_logs(logs, log_arch)
    parquet = os.path.join(workdir, f"transcripts-{n_turns}.parquet")
    pq.write_table(turns, parquet)
    return {"archive": arch, "deltas": deltas, "textlog_archive": log_arch,
            "parquet": parquet, "logs": logs}


def _ops(stage: str, built: dict, workdir: str) -> list:
    """(operation name, input bytes, zero-argument callable) per operation
    of ``stage`` on one built archive."""
    from clp_core_ray.pipelines import compact, search
    from clp_core_ray.pipelines.compress import (compress,
                                                 compress_text_logs,
                                                 input_bytes)
    from clp_core_ray.pipelines.decompress import (decompress,
                                                   extract_ir_chunks,
                                                   extract_text_logs)
    from clp_core_ray.state.dictionaries import write_archive_dicts

    arch = built["archive"]
    scratch = os.path.join(workdir, "out")

    def fresh() -> str:
        shutil.rmtree(scratch, ignore_errors=True)
        return scratch

    if stage == "scan":
        q = "ERROR*timeout"
        return [("search_archive", search._search_plan(arch, [q], False).nbytes,
                 lambda: _consume(search.search_archive(arch, q)))]
    if stage == "finalize":
        return [
            ("write_archive_dicts", _tree_bytes(built["deltas"]),
             lambda: write_archive_dicts(fresh(), built["deltas"])),
            ("merge_archives", compact._dict_bytes(arch),
             lambda: compact.merge_archives([arch], fresh())),
        ]
    sink = _tree_bytes(os.path.join(arch, "routed"))
    log_arch = built["textlog_archive"]
    return {
        "decode": [("decompress", sink, lambda: _consume(
            decompress(arch, columns=ROW_COLUMNS))),
                   ("extract_ir_chunks", sink,
                    lambda: extract_ir_chunks(arch, fresh()))],
        "text_extract": [("extract_text_logs",
                          _tree_bytes(os.path.join(log_arch, "routed")),
                          lambda: extract_text_logs(log_arch, fresh()))],
        "compress": [("compress", input_bytes([built["parquet"]]),
                      lambda: compress([built["parquet"]], fresh())),
                     ("compress_text_logs", input_bytes(built["logs"]),
                      lambda: compress_text_logs(built["logs"], fresh()))],
    }[stage]


def _time(fn, reps: int) -> float:
    fn()  # warm-up: first-touch page faults, imports, Ray workers
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def _slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys over xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"host": platform.node(), "cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version()}


def _nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--stages", default=",".join(CONSTANTS))
    ap.add_argument("--turns", default="2000,8000,20000,40000,80000")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--workdir", default="/dev/shm/measure_crossover")
    args = ap.parse_args()
    stages = args.stages.split(",")
    sizes = [int(n) for n in args.turns.split(",")]

    import clp_core_ray  # noqa: F401  (malloc tuning before ray.init)
    import ray

    from clp_core_ray import _export_tuning_env, execution

    ncpu = _nproc()
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:ncpu])
    _export_tuning_env()
    ray.init(address="local", num_cpus=ncpu,
             include_dashboard=False, log_to_driver=False)
    os.makedirs(args.workdir, exist_ok=True)
    print(json.dumps({"host": _host()}), flush=True)
    rows: dict = {}
    try:
        built = {n: _build(args.workdir, n) for n in sizes}
        for stage in stages:
            const = CONSTANTS[stage]
            saved = getattr(execution, const)
            for n in sizes:
                for name, nbytes, fn in _ops(stage, built[n], args.workdir):
                    secs = {}
                    for side, value in (("local", 1 << 62), ("ray", -1)):
                        setattr(execution, const, value)
                        secs[side] = _time(fn, args.reps)
                    setattr(execution, const, saved)
                    row = {"stage": stage, "op": name, "turns": n,
                           "input_mb": round(nbytes / MB, 3),
                           "ray_s": round(secs["ray"], 4),
                           "local_s": round(secs["local"], 4)}
                    rows.setdefault((stage, name), []).append(row)
                    print(json.dumps(row), flush=True)
        for (stage, name), rs in rows.items():
            fixed = statistics.median(r["ray_s"] - r["local_s"] for r in rs)
            slope = _slope([r["input_mb"] for r in rs],
                           [r["local_s"] for r in rs])
            print(json.dumps({
                "summary": f"{stage}/{name}",
                "constant": f"{CONSTANTS[stage]} = "
                            f"{getattr(execution, CONSTANTS[stage]) / MB:g} MB",
                "fixed_s": round(fixed, 4),
                "local_s_per_mb": round(slope, 4),
                "crossover_mb": round(fixed / slope, 2) if slope > 0 else None,
            }), flush=True)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
