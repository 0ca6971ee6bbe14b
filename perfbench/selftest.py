"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny input size, timed and traced, and checks
that each prints every metric ``BENCHMARK.json`` names, with its unit, and
no failed operation. Then it alters one value of an archive's variable
dictionary and checks that the decompress oracle counts the operation as
failed. Exits non-zero on the first violation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import run  # noqa: E402

TINY = {
    "search_mix": {"n_turns": 2_000, "n_files": 3},
    "textlog_ingest": {"n_files": 3, "lines_per_file": 200},
}


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def metrics_print(spec: dict) -> None:
    for name, tiny in TINY.items():
        run.WORKLOADS[name].update(tiny)
    run.SETUP_REPS = 1
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace)])
            check(rc == 0, f"{workload} trace={trace} exit code {rc}")
            res = json.loads(out.getvalue().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], "result keys")
            check(res["correct"] and res["failed"] == 0,
                  f"{workload} trace={trace}: {res['failed']} ops failed")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                check(got is not None, f"{workload}: {m['name']} missing")
                check(got["unit"] == m["unit"],
                      f"{workload}: {m['name']} unit {got['unit']}")
            print(f"ok {workload} trace={trace}: "
                  f"{len(res['metrics'])} metrics", flush=True)


def corrupted_archive_fails() -> None:
    """One var-dict value altered must make decompress fail its oracle."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    import corpus
    import ops

    work = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    tmp = os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")
    os.makedirs(work)
    os.makedirs(tmp)
    ledger = run.Ledger()
    try:
        run.start_ray(1, tmp)
        try:
            c = corpus.transcripts(os.path.join(work, "in"), 2_000, 1, 2)
            arch = os.path.join(work, "archive")
            ops.compress(c, arch)
            check(ledger.attempt("decompress", ops.decompress, c, arch)
                  is not None, "clean archive must decompress")
            f = sorted(glob.glob(os.path.join(arch, "var.dict",
                                              "*.parquet")))[0]
            t = pq.read_table(f)
            vals = t.column("value").to_pylist()
            vals[0] = vals[0] + "~"
            t = t.set_column(t.schema.get_field_index("value"), "value",
                             pa.array(vals, t.schema.field("value").type))
            pq.write_table(t, f)
            ledger.attempt("decompress", ops.decompress, c, arch)
        finally:
            run.stop_ray()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    frac = ledger.failed / ledger.attempted
    check(frac > 0, "corrupted archive left failed_ops_frac at 0")
    print(f"ok corrupted archive: failed_ops_frac {frac}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.chdir(ROOT)
    corrupted_archive_fails()
    metrics_print(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
