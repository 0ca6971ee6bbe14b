"""Where a stage runs: in the calling process, or as a Ray job.

A Ray Data job (or a fan of Ray tasks) costs about ``fixed + var / N`` on
N CPUs, where ``fixed`` is the per-job cost of planning, scheduling and
moving blocks through the object store, and ``var`` the work itself. The
same work in the calling process costs ``var`` and nothing else, so it
cannot lose on any CPU count while ``var <= fixed``. Each stage therefore
has one input-size constant, measured on its own input: at or under it the
stage runs in process, above it on Ray. The stages are the search scan
(``LOCAL_SCAN_BYTES``), the dictionary finalize (``LOCAL_FINALIZE_BYTES``),
``decompress`` and IR extraction (``LOCAL_DECODE_BYTES``),
``extract_text_logs`` (``LOCAL_TEXT_EXTRACT_BYTES``) and ``compress``, with
every ingest fragment (``LOCAL_COMPRESS_BYTES``). :func:`choose` applies that rule;
``tools/measure_crossover.py`` re-derives every constant on the current
host (input-size sweep, medians, fixed Ray cost against local seconds per
MB). The sweeps cited beside the constants ran it on a VM (Intel Xeon,
pinned to 1 CPU, Ray on 1 CPU, synthetic transcripts, archives in
/dev/shm): sweep A over 2K-80K turns with medians of 5, sweep B over
1K-20K turns with medians of 7; the compress sweeps C and D are described
beside their constant. There, "fixed" is the median of Ray minus
local seconds at equal input, "local" the slope of the local seconds per
MB, and the crossover ``fixed / local``, the largest input at which
``var <= fixed``.

This module also holds the two dictionary size rules
(``DICT_BROADCAST_BYTES``, ``VAR_DICT_DRIVER_BYTES``), read at call time,
and :func:`cluster_cpus`, the one place the package asks Ray for the
cluster's CPU count.
"""

from __future__ import annotations

#: Kept sink bytes at or under which a search plan is scanned in the
#: calling process (pyarrow read + ``_ArchiveScan`` over 32K-row
#: slices) instead of by a Ray Data job. Measured on a 1-CPU VM with the
#: worst query kind (``ERROR*timeout``: every class kept, a full decode and
#: verify) over synthetic transcripts (seed 1, 4K-80K turns = 0.15-2.0 MB
#: of sinks, medians of 6): the Ray Data path takes 0.09-0.10 s more than
#: the local one at equal bytes up to 1 MB (its fixed cost), and the local
#: scan grows by 0.094-0.101 s per MB (its variable cost). The two meet at
#: 0.9-1.0 MB. Sweep A (0.09-1.92 MB of kept sinks): fixed 0.19 s, local
#: 0.11 s/MB, crossover 1.75 MB.
LOCAL_SCAN_BYTES = 1 << 20

#: Largest dictionary finalize input, in bytes, that is merged in the
#: calling process into one var.dict part; above it the finalize is the
#: N-bucket Ray merge. For compress the input is the dict-delta files
#: (Arrow IPC), for merge_archives the sources' var.dict/ +
#: logtype.dict.parquet. Measured on a 1-CPU VM with a warm Ray (synthetic
#: transcripts, medians of 3 after a warm-up, Ray vs in process),
#: write_archive_dicts over 0.11 / 0.45 / 1.33 / 2.62 / 4.52 / 8.14 MB of
#: deltas: 0.100/0.008, 0.140/0.016, 0.223/0.048, 0.389/0.091,
#: 0.499/0.178, 0.789/0.278 s; merge_archives of one archive with 0.06 /
#: 0.23 / 0.64 / 1.24 / 2.14 / 3.91 MB of dictionaries: 0.101/0.012,
#: 0.109/0.019, 0.177/0.046, 0.214/0.062, 0.322/0.121, 0.453/0.238 s.
#: So fixed is ~0.09 s, and local costs ~0.035 s per MB of deltas and
#: ~0.06 s per MB of dictionaries; with the Ray merge at its full 16-bucket
#: width the crossover is ~3.0 MB of deltas and ~1.7 MB of dictionaries.
#: At 2 MB a delta finalize never loses, a merge loses at most ~0.02 s to a
#: 16-CPU cluster, and on a single-CPU host local wins at every size.
#: Sweep A: deltas of 0.06-1.28 MB fixed 0.19 s, local 0.045 s/MB,
#: crossover 4.1 MB; merges of 0.03-0.62 MB fixed 0.18 s, local
#: 0.065 s/MB, crossover 2.8 MB.
LOCAL_FINALIZE_BYTES = 2 << 20

#: Sink bytes of an archive at or under which ``decompress`` decodes it,
#: and ``extract_ir_chunks`` writes its IR chunks, in the calling process.
#: Decompress, measured on every row column, consumed, with the one
#: ``rd.from_arrow`` wrap on the local side: Ray/local seconds at 0.09 /
#: 0.24 / 0.54 / 1.01 / 1.92 MB of sinks were 0.240/0.098, 0.348/0.127,
#: 0.388/0.141, 0.380/0.216, 0.700/0.447 (sweep A): fixed 0.22 s, local
#: 0.19 s/MB, crossover 1.17 MB; sweep B: fixed 0.19 s, local 0.11 s/MB,
#: crossover 1.69 MB. IR extraction writes each event from the encoded
#: columns with no decode, so it costs about what a decode does. A sweep
#: over sweep A's sizes with that writer (medians of 5) gave Ray/local
#: seconds at 0.09 / 0.24 / 0.54 / 1.01 / 1.92 MB of 0.184/0.018,
#: 0.219/0.038, 0.300/0.074, 0.364/0.160, 0.700/0.299: fixed 0.20 s,
#: local 0.16 s/MB, crossover 1.30 MB; decompress in the same run: fixed
#: 0.18 s, local 0.14 s/MB, crossover 1.30 MB. 1 MB sits under all.
LOCAL_DECODE_BYTES = 1 << 20

#: Sink bytes at or under which ``extract_text_logs`` decodes an archive
#: and rebuilds its files in the calling process. Both sides rebuild every
#: file in Python; the Ray side adds a groupby shuffle to the decode job.
#: Ray/local seconds at 0.07 / 0.09 / 0.14 / 0.23 / 0.33 / 0.53 MB of
#: sinks were 0.487/0.089, 0.400/0.096, 0.473/0.133, 0.585/0.226,
#: 1.065/0.430, 1.265/0.797 (sweep B): fixed 0.38 s, local 1.56 s/MB,
#: crossover 0.24 MB; sweep A: fixed 0.43 s, local 1.21 s/MB, crossover
#: 0.36 MB. 192 KB sits under both.
LOCAL_TEXT_EXTRACT_BYTES = 3 << 16

#: Stat'd input-file bytes at or under which ``compress`` (and with it
#: ``compress_text_logs`` and every ingest fragment) reads its path-named
#: input with pyarrow and writes it by one ``FusedSinkStage`` call in the
#: calling process, with no Ray Data job and no delta watcher (the
#: dictionary finalize's own local side takes the deltas). A caller that
#: passes a Dataset (``ds=``) stays on Ray. Measured with ``compress`` of
#: one transcript parquet file and ``compress_text_logs`` of 8 log files
#: (medians of 7 and 9). Sweep C, 1K-32K turns: compress Ray/local
#: seconds at 0.04 / 0.07 / 0.14 / 0.28 / 0.55 / 1.08 MB were
#: 0.141/0.044, 0.169/0.061, 0.189/0.091, 0.226/0.155, 0.448/0.289,
#: 0.510/0.452: fixed 0.098 s, local 0.40 s/MB, crossover 0.25 MB; text
#: logs of 0.08-2.59 MB: fixed 0.36 s, local 0.22 s/MB, crossover 1.62 MB.
#: Sweep D, 1K-12K turns (0.04-0.42 MB): compress fixed 0.104 s, local
#: 0.45 s/MB, crossover 0.23 MB; text logs (0.08-0.97 MB): fixed 0.29 s,
#: local 0.20 s/MB, crossover 1.45 MB. 192 KB sits under both.
LOCAL_COMPRESS_BYTES = 3 << 16

#: Var dictionaries whose uncompressed size (the parquet footers' row-group
#: byte sizes) exceeds this are not broadcast to decode tasks; the decode
#: flips to the hash-partitioned join (SURVEY §2.4 J2). CLP always loads
#: full dicts (clg.cpp:176-199) because per-archive epoch caps bound them;
#: here the epoch cap (``stages.encode.DICT_CAP_ENTRIES``) bounds each
#: encode stage's seen-set, not the archive's var dict, the union over
#: every stage. The join is for a var dict that would not fit a worker heap.
DICT_BROADCAST_BYTES = 256 << 20

#: Driver memory for search's dictionaries. A var dict whose parts are
#: larger on disk is probed per query instead of held
#: (``search._probe_var_dict``), and the cached archive states' summed
#: ``nbytes`` stays under it (a state over it is not kept).
VAR_DICT_DRIVER_BYTES = 64 << 20


def choose(stage: str, input_bytes: int) -> str:
    """"local" when ``input_bytes`` is at most ``stage``'s constant
    ("scan", "finalize", "decode", "text_extract" or "compress"), else
    "ray"."""
    limit = {"scan": LOCAL_SCAN_BYTES, "finalize": LOCAL_FINALIZE_BYTES,
             "decode": LOCAL_DECODE_BYTES,
             "text_extract": LOCAL_TEXT_EXTRACT_BYTES,
             "compress": LOCAL_COMPRESS_BYTES}[stage]
    return "local" if input_bytes <= limit else "ray"


def cluster_cpus(default: int = 8) -> int:
    """The Ray cluster's CPU count; ``default`` when Ray is not initialized
    or the cluster reports no CPUs."""
    import ray

    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get("CPU", default)) or default
