"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It starts a local Ray with ``num_cpus`` =
``nproc``, generates the workload's inputs from the seed under
``.perfbench/`` (a fresh directory per run), and drives the program through
its public functions with one closed-loop client: each operation starts
when the previous one returns.

``--trace 0`` times the operations and prints every end-to-end metric.
``--trace 1`` runs the traced pass instead (see ``tracing.py``), writes the
span file and prints every per-layer metric. Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the run (host, CPUs,
RAM, commit, seed, THP setting) and gives each timing's sample count and
quartiles.

Every run reports every end-to-end metric, so every workload runs every
user-facing operation; the workload chooses the input and how the timed
window is shared between three phases, which take turns so that a slow
stretch of the host is spread over all of them:

- ``archive``: compress the input into a fresh archive, decompress all of
  it;
- ``search``: the seeded query mix against the archive built at set-up;
- ``lifecycle``: input files arrive over several rounds; after each round's
  ``ingest.poll``, ``compact_fragments`` turns its fragments into an
  archive, which is then extracted.

``failed_ops_frac`` (failed ÷ attempted operations) is the result line's
``failed`` ÷ ``attempted``; the stamp line also prints it by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload is shaped as it is:
# - search_mix: seeded skewed transcripts. 35 % of the window goes to the
#   seeded query mix; the transcript write path (sources →
#   stages → vec.tokenizer → sink → dictionary finalize) and full
#   decompression run in its archive phase. It also stands for the
#   transcripts_archive workload, which is not run on its own (see
#   RESULTS.md).
# - textlog_ingest: repetitive hadoop/openstack-shaped text logs, where CLP
#   should win on ratio; ingest polls, compaction and byte-exact extraction
#   take most of the window and add message assembly, timestamps, job
#   claims and commits, and dictionary merge.
WORKLOADS = {
    "search_mix": {
        "corpus": "transcripts", "n_turns": 4_000, "n_files": 3,
        "share": {"archive": 0.25, "search": 0.35, "lifecycle": 0.4},
    },
    "textlog_ingest": {
        "corpus": "textlog", "n_files": 6, "lines_per_file": 600,
        "share": {"archive": 0.3, "search": 0.25, "lifecycle": 0.45},
    },
}
SETUP_REPS = 3


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# memory: summed RSS of this process and every descendant (raylet, GCS,
# workers), sampled from /proc
# ---------------------------------------------------------------------------

def _proc_tree() -> dict[int, tuple[int, int]]:
    """pid → (ppid, rss kB) for every readable process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/status") as f:
                ppid = rss = 0
                for line in f:
                    if line.startswith("PPid:"):
                        ppid = int(line.split()[1])
                    elif line.startswith("VmRSS:"):
                        rss = int(line.split()[1])
            out[int(d)] = (ppid, rss)
        except (OSError, ValueError, IndexError):
            continue
    return out


def descendants(root: int) -> dict[int, int]:
    """pid → rss kB of ``root`` and all its descendants."""
    tree = _proc_tree()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in tree.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        p = todo.pop()
        if p in tree:
            out[p] = tree[p][1]
        todo.extend(kids.get(p, []))
    return out


class PeakRss:
    def __init__(self, period_s: float = 0.2):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._period = period_s
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self._period):
            self.peak_kb = max(self.peak_kb, sum(descendants(me).values()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted/failed operation counts and timing samples. A failure is
    an exception or an oracle mismatch; it is reported, never swallowed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 — counted and printed, run goes on
            self.failed += 1
            print(f"[perfbench] {what} failed:\n{traceback.format_exc()}",
                  file=sys.stderr, flush=True)
            return None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3 if xs else []
    return statistics.quantiles(xs, n=4)


def percentile(xs: list[float], p: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100)[p - 1]


def stamp(args, ncpu: int) -> dict:
    def _read(p):
        try:
            with open(p) as f:
                return f.read().strip()
        except OSError:
            return None

    mem = _read("/proc/meminfo") or ""
    ram_kb = next((int(l.split()[1]) for l in mem.splitlines()
                   if l.startswith("MemTotal:")), 0)
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    commit = None
    if head and head.startswith("ref: "):
        commit = _read(os.path.join(ROOT, ".git", head[5:]))
    elif head:
        commit = head
    return {
        "host": platform.node(), "nproc": ncpu,
        "ram_mb": ram_kb // 1024, "commit": commit or "unknown",
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# set-up and the timed phases
# ---------------------------------------------------------------------------

def make_corpus(cfg: dict, out_dir: str, seed: int):
    import corpus

    if cfg["corpus"] == "transcripts":
        return corpus.transcripts(out_dir, cfg["n_turns"], seed,
                                  cfg["n_files"])
    return corpus.textlogs(out_dir, cfg["n_files"], cfg["lines_per_file"],
                           seed)


class Run:
    """One workload run inside a fresh work directory."""

    def __init__(self, cfg: dict, work: str, seed: int, ledger: Ledger):
        self.cfg = cfg
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self._n = 0

    def fresh(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{tag}-{self._n:04d}")

    def setup(self) -> float:
        """Generate the inputs and build the search archive, SETUP_REPS
        times into fresh directories (the median is reported), then warm
        decompression, each query kind and one lifecycle round. Returns the
        set-up seconds."""
        import corpus
        import ops

        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.corpus = make_corpus(self.cfg, self.fresh("input"),
                                      self.seed)
            self.archive = self.fresh("search-archive")
            ops.compress(self.corpus, self.archive)
            reps.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.expected = {q: ops.expected_hits(self.corpus.reference, q)
                         for q in set(self.corpus.queries)}
        self.ledger.attempt("decompress", ops.decompress, self.corpus,
                            self.archive)
        for kind in corpus.QUERY_KINDS:
            self.search_round(self.corpus.query_kinds.index(kind),
                              record=False)
        warm = self.lifecycle(record=False)
        next(warm)  # one arrival round runs every lifecycle operation
        warm.close()
        return statistics.median(reps) + time.perf_counter() - t0

    def archive_round(self) -> None:
        import ops

        d = self.fresh("archive")
        wall = self.ledger.attempt("compress", ops.compress, self.corpus, d)
        if wall is None:
            return
        self.ledger.add("compress_s", wall)
        if "compression_ratio" not in self.ledger.samples:
            self.ledger.add("compression_ratio",
                            ops.compression_ratio(self.corpus, d))
        wall = self.ledger.attempt("decompress", ops.decompress, self.corpus,
                                   d)
        if wall is not None:
            self.ledger.add("decompress_s", wall)
        shutil.rmtree(d, ignore_errors=True)

    def search_round(self, i: int, record: bool = True) -> None:
        import ops

        i %= len(self.corpus.queries)
        q = self.corpus.queries[i]
        res = self.ledger.attempt(f"search {q!r}", ops.search, self.archive,
                                  q, self.expected[q])
        if res is not None and record:
            self.ledger.add("search_s", res[0])
            self.ledger.add(f"search_s.{self.corpus.query_kinds[i]}", res[0])

    def lifecycle(self, record: bool = True):
        """Yields after each arrival round: its files are polled into the
        fragment base, compacted into an archive of their own and
        extracted from it. Stops after a failed round."""
        import ops

        d = self.fresh("lifecycle")
        inbox, base = os.path.join(d, "inbox"), os.path.join(d, "base")
        attempt = self.ledger.attempt
        rows = 0
        try:
            for r, (files, ref, nbytes) in enumerate(ops.rounds(self.corpus)):
                rows += ref.num_rows
                wall = attempt("ingest", ops.ingest, self.corpus, files,
                               inbox, base, rows)
                res = None if wall is None else attempt(
                    "compact", ops.compact, base,
                    os.path.join(d, "archives"), ref.num_rows)
                xwall = None if res is None else attempt(
                    "extract", ops.extract, self.corpus, res[1],
                    os.path.join(d, f"extract-{r}"), inbox, files, ref)
                if xwall is not None and record:
                    self.ledger.add("ingest_mb_per_s", nbytes / 1e6 / wall)
                    self.ledger.add("compact_s", res[0])
                    self.ledger.add("extract_mb_per_s", nbytes / 1e6 / xwall)
                yield
                if xwall is None:
                    return
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def timed(self, seconds: float) -> None:
        """Run the phases in turn for ``seconds``: the phase furthest
        behind its share of the time spent goes next, and each phase runs
        at least once. A lifecycle phase step is one arrival round, so that
        the samples of every phase spread over the whole window."""
        share = self.cfg["share"]
        spent = dict.fromkeys(share, 0.0)
        searches = 0
        rounds = self._rounds()
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or not all(spent.values()):
            phase = min(share, key=lambda p: spent[p] / share[p])
            t0 = time.perf_counter()
            if phase == "archive":
                self.archive_round()
            elif phase == "search":
                self.search_round(searches)
                searches += 1
            else:
                next(rounds)
            spent[phase] += time.perf_counter() - t0
        rounds.close()

    def _rounds(self):
        """Arrival rounds of one lifecycle after another, without end."""
        while True:
            yield from self.lifecycle()


def end_to_end(run: Run, setup_s: float, peak_kb: int) -> tuple[dict, dict]:
    """(metrics, sample summary) from the timed phases."""
    s = run.ledger.samples
    rows = run.corpus.reference.num_rows
    med = {k: statistics.median(v) for k, v in s.items() if v}
    m = {
        "setup_s": (setup_s, "s"),
        "compress_turns_per_s": (rows / med["compress_s"], "turns/s"),
        "decompress_turns_per_s": (rows / med["decompress_s"], "turns/s"),
        "compression_ratio": (med["compression_ratio"], "x"),
        "search_p50_s": (med["search_s"], "s"),
        "search_p90_s": (percentile(s["search_s"], 90), "s"),
        "ingest_mb_per_s": (med["ingest_mb_per_s"], "MB/s"),
        "compact_s": (med["compact_s"], "s"),
        "extract_mb_per_s": (med["extract_mb_per_s"], "MB/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    summary = {k: {"n": len(v), "quartiles": quartiles(v)}
               for k, v in s.items()}
    summary["zstd3_ratio"] = run.corpus.zstd3_ratio
    return m, summary


# ---------------------------------------------------------------------------
# process lifetime
# ---------------------------------------------------------------------------

def start_ray(ncpu: int, tmp: str) -> float:
    from clp_core_ray import _export_tuning_env

    _export_tuning_env()
    # Ray is given ncpu CPUs; this process and every process it starts
    # (they inherit the mask) are held to that many. Spread over all the
    # machine's CPUs, the handoffs between the client, the raylet and the
    # workers made whole runs fast or slow together, by a third either way.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:ncpu])
    # Ray workers import the program from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    import ray
    import ray.data as rd

    # AF_UNIX socket paths are limited to 107 bytes and the checkout path
    # can be long: name the temp dir through the cwd link, which resolves
    # to this checkout in every Ray process (they inherit the cwd)
    # The oracle checks between operations leave Ray's workers idle for
    # longer than its default one-second idle-worker limit; killed workers
    # would then be restarted by every other operation, a cost a caller
    # issuing operations back to back does not pay and which made
    # consecutive timings alternate between two modes. Idle workers stay.
    ray.init(num_cpus=ncpu, include_dashboard=False, log_to_driver=False,
             object_store_memory=256 << 20,
             _temp_dir="/proc/self/cwd/" + os.path.relpath(tmp, ROOT),
             configure_logging=False,
             _system_config={"idle_worker_killing_time_threshold_ms":
                             3_600_000})
    rd.DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


def stop_ray(timeout_s: float = 60.0) -> None:
    """Shut Ray down and wait until every process this run started ends."""
    import signal

    import ray

    ray.shutdown()
    me = os.getpid()
    deadline = time.time() + timeout_s
    while True:
        left = [p for p in descendants(me) if p != me]
        if not left:
            return
        if time.time() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.time() + 10
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "clp_core_ray", "__init__.py")):
        print("perfbench: run from a checkout that holds clp_core_ray/",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, HERE]
    cfg = WORKLOADS[args.workload]
    ncpu = nproc()
    top = os.path.join(ROOT, ".perfbench")
    work = os.path.join(top, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    tmp = os.path.join(top, f"ray{os.getpid()}")
    os.makedirs(work)
    os.makedirs(tmp)
    ledger = Ledger()
    info = stamp(args, ncpu)
    try:
        with PeakRss() as rss:
            ray_s = start_ray(ncpu, tmp)
            try:
                run = Run(cfg, work, args.seed, ledger)
                setup_s = ray_s + run.setup()
                info["setup_s"] = setup_s
                if args.trace:
                    import tracing

                    spans = os.path.join(
                        top, "spans", f"{args.workload}-s{args.seed}.jsonl")
                    metrics, extra = tracing.traced(run, args.seconds, spans)
                    info.update(extra)
                else:
                    run.timed(args.seconds)
                    metrics, extra = end_to_end(run, setup_s, rss.peak_kb)
                    info["samples"] = extra
            finally:
                stop_ray()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    frac = ledger.failed / max(ledger.attempted, 1)
    if args.trace:
        metrics["failed_ops_frac"] = (frac, "ratio")
    info["failed_ops_frac"] = {"value": frac, "unit": "ratio"}
    info["run_wall_s"] = time.perf_counter() - T_START
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
