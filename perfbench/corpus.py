"""Seeded inputs for the benchmark workloads.

The program under test only ever sees the files written here. Each
generator also returns the reference table the oracles compare against:
one row per message with ``conv_id``, ``turn_idx`` and ``text`` exactly as
decompression must reproduce them.

- Transcripts come from the program's own seeded ``synth_transcripts`` (the
  north-rule input with hot-conversation skew), split into parquet shards.
- Text logs are hadoop-, hdfs- and openstack-shaped raw ``.log`` files:
  Zipfian template frequency, block ids, IPs, durations, paths and hex
  values, multi-line stack traces, and four of ``timestamps.py``'s patterns.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class Corpus:
    """Generated input files plus the oracle reference."""

    kind: str  # "transcripts" | "textlog"
    files: list[str]  # absolute paths, in arrival order
    reference: pa.Table  # conv_id, turn_idx, text — one row per message
    raw_bytes: int  # raw text bytes: the compression-ratio numerator
    zstd3_ratio: float  # raw bytes ÷ zstd-3 of the same bytes
    # per input file: its messages (a run of reference rows, in file order)
    # and its raw text bytes
    file_rows: list[int] = field(default_factory=list)
    file_bytes: list[int] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)  # seeded mix, by kind
    query_kinds: list[str] = field(default_factory=list)


QUERY_KINDS = ("broad", "selective", "var_probe", "miss")


def _zstd3_ratio(chunks) -> float:
    codec = pa.Codec("zstd", 3)
    raw = comp = 0
    for c in chunks:
        raw += len(c)
        comp += len(codec.compress(c, asbytes=True))
    return raw / max(comp, 1)


# Queries of each kind per round of the mix. Selective queries get twice
# the weight so that the median latency falls inside one kind's cluster
# (selective and variable probes) instead of on the gap between two kinds,
# where it would jump with the seed; the p90 falls inside the broad scans.
KIND_WEIGHTS = {"broad": 1, "selective": 2, "var_probe": 1, "miss": 1}


def _interleave(rng: np.random.Generator, per_kind: dict[str, list[str]],
                n_rounds: int) -> tuple[list[str], list[str]]:
    """KIND_WEIGHTS queries per round, shuffled within the round, so any
    prefix of the mix keeps the kinds near their weights."""
    queries, kinds = [], []
    used = {k: 0 for k in QUERY_KINDS}
    for _ in range(n_rounds):
        rnd = [k for k in QUERY_KINDS for _ in range(KIND_WEIGHTS[k])]
        for j in rng.permutation(len(rnd)):
            kind = rnd[j]
            queries.append(per_kind[kind][used[kind] % len(per_kind[kind])])
            kinds.append(kind)
            used[kind] += 1
    return queries, kinds


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------

def transcripts(out_dir: str, n_turns: int, seed: int, n_shards: int,
                n_query_rounds: int = 48) -> Corpus:
    from clp_core_ray.sources.transcripts import synth_transcripts

    tbl = synth_transcripts(n_turns, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    step = -(-len(tbl) // n_shards)
    files, file_rows, file_bytes = [], [], []
    for i in range(n_shards):
        p = os.path.join(out_dir, f"shard-{i:03d}.parquet")
        shard = tbl.slice(i * step, step)
        pq.write_table(shard, p)
        files.append(p)
        file_rows.append(shard.num_rows)
        file_bytes.append(len("".join(shard.column("text").to_pylist())
                              .encode()))
    raw = "".join(tbl.column("text").to_pylist()).encode()
    rng = np.random.default_rng(seed + 1)
    # service ids that occur in the input: an absent id would make the
    # selective query a dictionary miss
    svc = sorted(set(re.findall(r"calling svc-(\d+) ", raw.decode())))
    per_kind = {
        # match-all shape: a level word and a constant from another part of
        # the template; compiles to a full decode-and-verify scan
        "broad": ["ERROR*timeout", "WARN*retries", "INFO*ms", "DEBUG*pct"],
        # one service id: pruned to the error class by the dictionaries
        "selective": [f"*calling svc-{svc[int(i)]} *"
                      for i in rng.integers(0, len(svc), 16)],
        "var_probe": [f"*errno={int(v)}*" for v in rng.integers(1, 122, 16)],
        "miss": [f"nonexistent_token_{int(v):x}"
                 for v in rng.integers(1 << 20, 1 << 30, 16)],
    }
    queries, kinds = _interleave(rng, per_kind, n_query_rounds)
    return Corpus(
        kind="transcripts", files=files,
        reference=tbl.select(["conv_id", "turn_idx", "text"]),
        raw_bytes=len(raw), zstd3_ratio=_zstd3_ratio([raw]),
        file_rows=file_rows, file_bytes=file_bytes,
        queries=queries, query_kinds=kinds,
    )


# ---------------------------------------------------------------------------
# text logs
# ---------------------------------------------------------------------------

# (pattern name in timestamps.PATTERNS, python renderer) — every pattern
# has its timestamp at the start of the line, so message content is the
# line with that prefix cut out
_TS_FORMATS = {
    "hadoop": "%Y-%m-%d %H:%M:%S,{ms}",    # TsPattern(0, "%Y-%m-%d %H:%M:%S,%3")
    "openstack": "%Y-%m-%d %H:%M:%S.{ms}",  # TsPattern(0, "%Y-%m-%d %H:%M:%S.%3")
    "spark": "%Y-%m-%dT%H:%M:%S.{ms}",      # TsPattern(0, "%Y-%m-%dT%H:%M:%S.%3")
    "zk": "[%Y-%m-%d %H:%M:%S,{ms}]",       # TsPattern(0, "[%Y-%m-%d %H:%M:%S,%3]")
}
_SOURCE_TS = {"mapreduce": "hadoop", "hdfs": "hadoop", "nova": "openstack",
              "spark": "spark", "zookeeper": "zk"}

# templates per source, most frequent first (Zipf rank order). Fields:
# {blk} block id, {ip} address, {port}, {n} small int, {ms} duration,
# {dur} float seconds, {path}, {hex}, {app}, {req} request uuid, {size}
_TEMPLATES = {
    "hdfs": [
        "INFO org.apache.hadoop.hdfs.server.datanode.DataNode: Receiving block {blk} src: /{ip}:{port} dest: /{ip2}:50010",
        "INFO org.apache.hadoop.hdfs.server.datanode.DataNode: PacketResponder {n} for block {blk} terminating",
        "INFO org.apache.hadoop.hdfs.server.namenode.FSNamesystem: BLOCK* NameSystem.addStoredBlock: blockMap updated: {ip}:50010 is added to {blk} size {size}",
        "INFO org.apache.hadoop.hdfs.server.datanode.DataNode: Received block {blk} of size {size} from /{ip}",
        "INFO org.apache.hadoop.hdfs.server.namenode.FSNamesystem: BLOCK* NameSystem.allocateBlock: {path}. {blk}",
        "WARN org.apache.hadoop.hdfs.server.datanode.DataNode: {ip}:50010:Got exception while serving {blk} to /{ip2}:",
        "INFO org.apache.hadoop.hdfs.server.datanode.DataBlockScanner: Verification succeeded for {blk}",
        "ERROR org.apache.hadoop.hdfs.server.datanode.DataNode: {ip}:50010:DataXceiver: error processing WRITE_BLOCK operation src: /{ip2}:{port} dst: /{ip}:50010 timeout after {ms} ms",
    ],
    "mapreduce": [
        "INFO [main] org.apache.hadoop.mapred.MapTask: Processing split: hdfs://{ip}:9000{path}:{size}+{n}",
        "INFO [RMCommunicator Allocator] org.apache.hadoop.mapreduce.v2.app.rm.RMContainerAllocator: Recalculating schedule, headroom=<memory:{size}, vCores:{n}>",
        "INFO [AsyncDispatcher event handler] org.apache.hadoop.mapreduce.v2.app.job.impl.TaskAttemptImpl: attempt_{app}_m_{n6}_0 TaskAttempt Transitioned from RUNNING to SUCCEEDED",
        "INFO [main] org.apache.hadoop.mapred.MapTask: Spilling map output kvstart = {size}({size2}); kvend = {n}({n2}); length = {n3}",
        "WARN [LeaseRenewer:msrabi@{ip}:9000] org.apache.hadoop.hdfs.LeaseRenewer: Failed to renew lease for [DFSClient_NONMAPREDUCE_{size}_1] for {n} seconds.  Will retry shortly ...",
        "INFO [IPC Server handler {n} on {port}] org.apache.hadoop.mapred.TaskAttemptListenerImpl: Progress of TaskAttempt attempt_{app}_m_{n6}_0 is : 0.{n3}",
        "ERROR [RMCommunicator Allocator] org.apache.hadoop.mapreduce.v2.app.rm.RMContainerAllocator: ERROR IN CONTACTING RM. timeout after {ms} ms",
    ],
    "nova": [
        "{pid} INFO nova.osapi_compute.wsgi.server [req-{req} 113d3a99c3da401fbd62cc2caa5b96d2 54fadb412c4e40cdbaed9335e4c35a9e - - -] {ip} \"GET /v2/54fadb412c4e40cdbaed9335e4c35a9e/servers/detail HTTP/1.1\" status: 200 len: {size} time: {dur}",
        "{pid} INFO nova.compute.manager [req-{req} - - - - -] [instance: {req2}] VM Resumed (Lifecycle Event)",
        "{pid} INFO nova.metadata.wsgi.server [-] {ip},{ip2} \"GET /openstack/2013-10-17/vendor_data.json HTTP/1.1\" status: 200 len: {size} time: {dur}",
        "{pid} INFO nova.compute.claims [req-{req} - - - - -] [instance: {req2}] Total memory: {size} MB, used: {n} MB",
        "{pid} WARNING nova.virt.libvirt.imagecache [req-{req} - - - - -] Unknown base file: /var/lib/nova/instances/_base/{hex}",
        "{pid} ERROR nova.compute.manager [req-{req} - - - - -] [instance: {req2}] Instance failed to spawn: timeout after {ms} ms",
    ],
    "spark": [
        "INFO executor.Executor: Finished task {n}.0 in stage {n2}.0 (TID {size}). {size2} bytes result sent to driver",
        "INFO storage.BlockManager: Found block rdd_{n}_{n2} locally",
        "INFO storage.MemoryStore: Block broadcast_{n} stored as values in memory (estimated size {dur} KB, free {size} KB)",
        "INFO executor.CoarseGrainedExecutorBackend: Got assigned task {size}",
        "WARN scheduler.TaskSetManager: Lost task {n}.0 in stage {n2}.0 (TID {size}, {ip}): executor heartbeat timed out after {ms} ms",
        "ERROR executor.Executor: Exception in task {n}.0 in stage {n2}.0 (TID {size})",
    ],
    "zookeeper": [
        "INFO  [NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181:NIOServerCnxnFactory@197] - Accepted socket connection from /{ip}:{port}",
        "INFO  [ProcessThread(sid:{n} cport:-1)::PrepRequestProcessor@476] - Processed session termination for sessionid: 0x{hex}",
        "WARN  [SendWorker:{n}:QuorumCnxManager$SendWorker@688] - Send worker leaving thread",
        "ERROR [CommitProcessor:{n}:NIOServerCnxn@180] - Unexpected Exception: timeout after {ms} ms",
    ],
}

_STACK_FRAMES = [
    "org.apache.hadoop.ipc.Client.call(Client.java:{line})",
    "org.apache.hadoop.hdfs.DFSOutputStream$DataStreamer.run(DFSOutputStream.java:{line})",
    "org.apache.hadoop.net.SocketIOWithTimeout.doIO(SocketIOWithTimeout.java:{line})",
    "java.util.concurrent.ThreadPoolExecutor.runWorker(ThreadPoolExecutor.java:{line})",
    "java.lang.Thread.run(Thread.java:{line})",
    "org.apache.spark.executor.Executor$TaskRunner.run(Executor.scala:{line})",
    "sun.nio.ch.SocketChannelImpl.read(SocketChannelImpl.java:{line})",
]
_EXCEPTIONS = [
    "java.net.SocketTimeoutException: {ms} millis timeout while waiting for channel to be ready for read. ch : java.nio.channels.SocketChannel[connected local=/{ip}:{port} remote=/{ip2}:50010]",
    "java.io.IOException: Connection reset by peer",
    "java.io.EOFException: End of File Exception between local host is: \"{ip}\"; destination host is: \"{ip2}\":9000",
]


class _Fields:
    """Seeded values for every template field, drawn for a whole file at
    once; ``row(i, names)`` renders only the fields a template uses."""

    def __init__(self, rng: np.random.Generator, n: int):
        r = rng.integers
        self.v = {
            "blk": r(10**17, 9 * 10**17, n), "blk_neg": rng.random(n) < 0.5,
            "ip": r(0, 256, (4, n)), "ip2": r(0, 256, (4, n)),
            "port": r(1024, 65535, n), "n": r(0, 64, n), "n2": r(0, 400, n),
            "n3": r(0, 999, n), "n6": r(0, 10**6, n), "ms": r(1, 120000, n),
            "dur": rng.random(n) * 3, "size": r(1, 1 << 27, n),
            "size2": r(1, 1 << 20, n), "path": r(0, 10**6, (3, n)),
            "hex": r(0, 1 << 40, n), "app": r(1445000000000, 1446000000000, n),
            "app2": r(0, 100, n), "req": r(0, 1 << 32, (4, n)),
            "req2": r(0, 1 << 32, (4, n)), "pid": r(1000, 40000, n),
        }

    def _one(self, name: str, i: int) -> str:
        v = self.v
        if name == "blk":
            return f"blk_{'-' if v['blk_neg'][i] else ''}{v['blk'][i]}"
        if name in ("ip", "ip2"):
            a = v[name][:, i]
            return f"10.{a[0]}.{a[1]}.{a[2] % 254 + 1}"
        if name == "n6":
            return f"{v['n6'][i]:06d}"
        if name == "dur":
            return f"{v['dur'][i]:.7f}"
        if name == "path":
            p = v["path"][:, i]
            return (f"/user/root/rand{p[0] % 50}/_temporary/"
                    f"_task_{p[1]:06d}/part-{p[2] % 10**5:05d}")
        if name == "hex":
            return f"{v['hex'][i]:010x}"
        if name == "app":
            return f"{v['app'][i]}_{v['app2'][i]:04d}"
        if name in ("req", "req2"):
            return "".join(f"{int(x):08x}" for x in v[name][:, i])
        return str(v[name][i])

    def row(self, i: int, names) -> dict:
        return {k: self._one(k, i) for k in names}


def _field_names(template: str) -> list[str]:
    import string

    return [f for _, f, _, _ in string.Formatter().parse(template) if f]


def _render_ts(ts_ms: int, fmt: str) -> str:
    import datetime as dt

    t = dt.datetime(1970, 1, 1) + dt.timedelta(milliseconds=int(ts_ms))
    return t.strftime(fmt.replace("{ms}", f"{int(ts_ms) % 1000:03d}"))


def textlogs(out_dir: str, n_files: int, lines_per_file: int, seed: int,
             n_query_rounds: int = 48, zipf_s: float = 1.3,
             stack_p: float = 0.35) -> Corpus:
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    sources = list(_TEMPLATES)
    files, raw_chunks, file_rows = [], [], []
    conv, turn, text = [], [], []
    exc_fields = [_field_names(e) for e in _EXCEPTIONS]
    for fi in range(n_files):
        src = sources[fi % len(sources)]
        tmpls = _TEMPLATES[src]
        names = [_field_names(t) for t in tmpls]
        fields = _Fields(rng, lines_per_file)
        ts_fmt = _TS_FORMATS[_SOURCE_TS[src]]
        w = 1.0 / np.arange(1, len(tmpls) + 1) ** zipf_s
        picks = rng.choice(len(tmpls), size=lines_per_file, p=w / w.sum())
        ts = 1445000000000 + int(rng.integers(0, 10**9))
        path = os.path.abspath(os.path.join(out_dir, f"{src}-{fi:03d}.log"))
        lines, msg_idx = [], 0
        steps = rng.integers(0, 2500, lines_per_file)
        for i, t in enumerate(picks):
            ts += int(steps[i])
            body = tmpls[t].format(**fields.row(i, names[t]))
            content = " " + body
            lines.append(_render_ts(ts, ts_fmt) + content)
            if (body.startswith(("WARN", "ERROR")) or " ERROR " in body
                    or " WARNING " in body) and rng.random() < stack_p:
                e = int(rng.integers(0, len(_EXCEPTIONS)))
                trace = [_EXCEPTIONS[e].format(
                    **fields.row(lines_per_file - 1 - i, exc_fields[e]))]
                for _ in range(int(rng.integers(3, 9))):
                    trace.append("\tat " + _STACK_FRAMES[
                        int(rng.integers(0, len(_STACK_FRAMES)))].format(
                            line=int(rng.integers(50, 2000))))
                if rng.random() < 0.3:
                    trace.append("Caused by: " + _EXCEPTIONS[1])
                lines.extend(trace)
                content += "\n" + "\n".join(trace)
            conv.append(path)
            turn.append(msg_idx)
            text.append(content)
            msg_idx += 1
        data = ("\n".join(lines) + "\n").encode()
        with open(path, "wb") as fh:
            fh.write(data)
        files.append(path)
        raw_chunks.append(data)
        file_rows.append(msg_idx)
    qrng = np.random.default_rng(seed + 1)
    per_kind = {
        "broad": ["INFO*block", "INFO*task", "WARN*timeout", "ERROR*timeout"],
        "selective": [f"*PacketResponder {int(v)} for*"
                      for v in qrng.integers(0, 64, 16)],
        "var_probe": [f"*Finished task {int(v)}.0*"
                      for v in qrng.integers(0, 64, 16)],
        "miss": [f"nonexistent_token_{int(v):x}"
                 for v in qrng.integers(1 << 20, 1 << 30, 16)],
    }
    queries, kinds = _interleave(qrng, per_kind, n_query_rounds)
    ref = pa.table({"conv_id": pa.array(conv, pa.string()),
                    "turn_idx": pa.array(turn, pa.int32()),
                    "text": pa.array(text, pa.string())})
    return Corpus(kind="textlog", files=files, reference=ref,
                  raw_bytes=sum(len(c) for c in raw_chunks),
                  zstd3_ratio=_zstd3_ratio(raw_chunks),
                  file_rows=file_rows,
                  file_bytes=[len(c) for c in raw_chunks],
                  queries=queries, query_kinds=kinds)
