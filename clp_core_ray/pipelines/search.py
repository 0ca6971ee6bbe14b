"""CLP-style search over the routed archive (SURVEY.md §2.11).

Mirrors the clp/clg flow (Grep.cpp:410-628, 900-959) restructured for Ray
Data:

1. **Compile** (driver): ``grep.compile_query`` turns the wildcard query
   (implicitly ``*q*``) into subqueries, one per reading of its tokens as
   static text or int / float / dictionary variables. Each subquery holds
   the logtype ids whose templates match that reading (possible-logtypes
   pruning, Grep.cpp:482-495) and the in-order conditions on its
   variables' encoded values, dictionary ids looked up in the var dict.
2. **Prune** (storage): only sink partitions whose manifest counts say they
   contain candidate logtypes need reading; here we read the encoded columns
   of the routed Parquet with column pruning.
3. **Scan** (vectorized): filter rows by ``logtype_id ∈ candidates`` (cheap
   int isin), then decode only the candidate rows and wildcard re-check the
   full text — CLP's "imprecise subquery → decode and match" fallback
   (Grep.cpp:900-959). Matching uses translated-regex, equivalent to CLP's
   wildcard_match_unsafe (string_utils.cpp, M10).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray import execution
from clp_core_ray.execution import choose
from clp_core_ray.pipelines.decompress import ArchiveDicts, resolve


def wildcard_to_regex(pattern: str, full_match: bool = True) -> str:
    """CLP wildcard (* = any run, ? = any char) → anchored regex.

    '\\' escapes the next character (it becomes a literal, whatever it is —
    the reference silently treats unsupported escapes like ``\\a`` as the bare
    character; string_utils.cpp advance_tame_to_next_match handles '\\\\').
    A dangling trailing '\\' is dropped, mirroring
    clean_up_wildcard_search_string's no-dangling-escape guarantee.
    """
    out = []
    i = 0
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 < n:
                out.append(re.escape(pattern[i + 1]))
            i += 2
        elif ch == "*":
            out.append("[\\s\\S]*")
            i += 1
        elif ch == "?":
            out.append("[\\s\\S]")
            i += 1
        else:
            out.append(re.escape(ch))
            i += 1
    body = "".join(out)
    return f"^{body}$" if full_match else body


def wildcard_match(texts: pa.Array, pattern: str) -> pa.Array:
    """Vectorized CLP wildcard match (M10)."""
    return pc.match_substring_regex(texts, wildcard_to_regex(pattern))


def regex_to_wildcard(rx: str) -> str:
    """Translate a simple regex into CLP wildcard syntax (M12).

    Mirrors regex_utils::RegexToWildcardTranslator's supported subset:
    literals, escaped metacharacters, '.', '.*', '.+', and the ^/$ anchors
    (absence of an anchor appends/prepends '*'). Anything else (classes,
    groups, alternation, counted quantifiers) raises ValueError, like the
    reference's error codes.
    """
    out: list[str] = []
    i = 0
    n = len(rx)
    anchored_start = rx.startswith("^")
    if anchored_start:
        i = 1
    anchored_end = rx.endswith("$") and not rx.endswith("\\$")
    end = n - 1 if anchored_end else n
    while i < end:
        c = rx[i]
        if c == "\\":
            if i + 1 >= end:
                raise ValueError("trailing backslash")
            nxt = rx[i + 1]
            if nxt.isalnum():
                raise ValueError(f"unsupported escape sequence \\{nxt}")
            # escaped regex metachar → literal char in wildcard syntax; chars
            # that are wildcard metachars must stay escaped (reference
            # regex_translation_utils.cpp append_char_to_wildcard)
            out.append("\\" + nxt if nxt in "*?\\" else nxt)
            i += 2
        elif c == ".":
            if i + 1 < end and rx[i + 1] == "*":
                out.append("*")
                i += 2
            elif i + 1 < end and rx[i + 1] == "+":
                out.append("?*")
                i += 2
            else:
                out.append("?")
                i += 1
        elif c in "[](){}|+*?^$":
            raise ValueError(f"unsupported regex construct {c!r} at {i}")
        else:
            out.append(c)
            i += 1
    body = "".join(out)
    if not anchored_start:
        body = "*" + body
    if not anchored_end:
        body = body + "*"
    return body


def _probe_var_dict(vfiles: list, query: str, ignore_case: bool):
    """Distributed variable-dictionary probe: scan the dict with Ray and
    return only entries the query's tokens could select (exact needles +
    wildcard regexes from :func:`grep.dict_probe_patterns`).

    compile_query's dict lookups are selections over (value → var_id), so
    compiling against the probed subset produces identical subqueries while
    driver memory stays bounded by the number of MATCHING entries — not by
    dictionary size, which at 100-TB archives can exceed driver RAM (the
    reference's clg holds dicts in memory, DictionaryReader.hpp:19 role).
    This bounds the compile only: a query that reaches the scan still
    loads the whole var dict to decode (:func:`_search_plan`). ``vfiles``
    are the ``load_dicts`` result's ``var_files``. Returns None when the
    query performs no dict lookups.
    """
    import ray.data as rd

    from clp_core_ray.pipelines.grep import dict_probe_patterns

    exact, regexes = dict_probe_patterns(query, ignore_case)
    if not exact and not regexes:
        return None

    def keep(b: pa.Table) -> pa.Table:
        v = b.column("value").combine_chunks()
        vc = pc.utf8_lower(v) if ignore_case else v
        m = np.zeros(len(b), dtype=bool)
        if exact:
            m |= np.asarray(pc.is_in(vc, value_set=pa.array(exact)), dtype=bool)
        for rx in regexes:
            m |= np.asarray(pc.match_substring_regex(vc, rx), dtype=bool)
        return b.filter(pa.array(m))

    hits = [
        pa.table(b)
        for b in rd.read_parquet(vfiles)
        .map_batches(keep, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not hits:  # no matching entries: empty dict → conds prune to WontMatch
        import pyarrow.parquet as pq

        return pq.read_table(vfiles[0]).slice(0, 0)
    return pa.concat_tables(hits)


_SCAN_BATCH = 32 * 1024  # rows per _ArchiveScan call, either side


class _ArchiveState(NamedTuple):
    """What search reads of one archive besides its sinks: its
    ``load_dicts`` result with the ``classes`` segment index (no var side
    when ``probe``: the var dict is over ``execution.VAR_DICT_DRIVER_BYTES``
    and probed per query) and the sink schema (None when the archive holds
    no sink file)."""
    dicts: ArchiveDicts
    probe: bool
    sink_schema: pa.Schema | None


_STATES: OrderedDict = OrderedDict()  # key → _ArchiveState, LRU order
_STATES_LOCK = threading.Lock()


def _state_key(archive_dir: str) -> tuple:
    """A committed archive is immutable, so its path, the identity of its
    logtype dict file and its manifest names key its state; an archive
    rebuilt at the same path gets a new key."""
    import os

    st = os.stat(os.path.join(archive_dir, "logtype.dict.parquet"))
    mdir = os.path.join(archive_dir, "_manifests")
    names = tuple(sorted(os.listdir(mdir))) if os.path.isdir(mdir) else ()
    return (os.path.abspath(archive_dir), st.st_ino, st.st_mtime_ns, names)


def _load_state(archive_dir: str, cap: int) -> _ArchiveState:
    import os

    import pyarrow.parquet as pq

    from clp_core_ray.pipelines import decompress

    probe = sum(os.path.getsize(f) for f in
                decompress.var_dict_files(archive_dir)) > cap
    dicts = decompress.load_dicts(
        archive_dir, var_columns=() if probe else ("var_id", "value",
                                                   "classes"))
    first = decompress.first_parquet(os.path.join(archive_dir, "routed"))
    return _ArchiveState(dicts, probe,
                         pq.ParquetFile(first).schema_arrow if first else None)


def _archive_state(archive_dir: str) -> _ArchiveState:
    """The archive's search state, read once per process.

    The cache is LRU and thread-safe, and holds Arrow and numpy arrays
    only, so an entry outlives a Ray restart.
    ``execution.VAR_DICT_DRIVER_BYTES`` bounds it twice: a var dict larger
    on disk is probed per query instead of held (:func:`_probe_var_dict`),
    and the entries' summed size stays under it (an entry over it is not
    kept)."""
    archive_dir = _archive_root(archive_dir)
    cap = execution.VAR_DICT_DRIVER_BYTES
    key = _state_key(archive_dir)

    def evict(budget: int) -> None:
        total = sum(v.dicts.nbytes for v in _STATES.values())
        while _STATES and total > budget:
            total -= _STATES.popitem(last=False)[1].dicts.nbytes

    with _STATES_LOCK:
        evict(cap)
        state = _STATES.get(key)
        if state is not None:
            _STATES.move_to_end(key)
            return state
    state = _load_state(archive_dir, cap)
    if state.dicts.nbytes <= cap:
        with _STATES_LOCK:
            for k in [k for k in _STATES if k[0] == key[0]]:
                del _STATES[k]  # a rebuilt archive's old state
            _STATES[key] = state
            evict(cap)
    return state


def compile_for_archive(archive_dir: str, query: str, ignore_case: bool = False):
    """Compile ``query`` against an archive's dictionaries (read through
    the per-process archive-state cache, :func:`_archive_state`).

    Every search compiles through it in :func:`_search_plan`, the GLT
    column-oriented search (:func:`clp_core_ray.pipelines.glt.glt_search`)
    too.
    Returns ``(cq, dicts, var_ids, var_values, var_classes)``: ``dicts`` is
    the archive's :class:`ArchiveDicts` as the compile saw it, its var side
    the entries the query's probe selected when the var dict is probed,
    and the last three are that var side (``var_classes`` the per-variable
    segment index, DictionaryWriter.hpp:179-202).
    """
    from clp_core_ray.pipelines.grep import compile_query

    st = _archive_state(archive_dir)
    d = st.dicts
    if st.probe:
        # a dict too big for the driver is probed distributedly — only
        # entries the query's tokens could select come back (bounded by
        # matches, not dict size), and compile_query sees identical lookups
        vtbl = _probe_var_dict(d.var_files, query, ignore_case)
        if vtbl is not None:
            vtbl = vtbl.sort_by("var_id")
            d = d._replace(
                var_ids=np.asarray(vtbl.column("var_id"), dtype=np.int64),
                var_values=vtbl.column("value").combine_chunks(),
                var_classes=vtbl.column("classes").combine_chunks())

    cq = compile_query(
        query, d.lt_ids, d.lt_values,
        var_ids=d.var_ids, var_values=d.var_values, ignore_case=ignore_case,
    )
    return cq, d, d.var_ids, d.var_values, d.var_classes


def _subquery_classes(archive_dir: str, cq, var_ids, var_classes):
    """Sink classes that can host each subquery's match: the class→logtype
    index (J4) refined by the per-variable segment index — a class can host
    a subquery match only if it contains the subquery's logtypes AND, for
    every dictionary-var condition, at least one of that condition's dict
    entries (DictionaryWriter.hpp:179-202; clg.cpp:249-298 segment
    intersection).

    Returns ``(by_class, sets)``: the class→logtype index and one class set
    per subquery, parallel to ``cq.subqueries``; None when pruning is
    unavailable (match_all query, or no index on disk)."""
    if cq.match_all:
        return None
    by_class = _archive_state(archive_dir).dicts.by_class
    if by_class is None:
        return None

    def classes_of_cond(cond: np.ndarray) -> set | None:
        """Union of partition classes over the cond's dict ids; None =
        unknown (no index / unindexed entry) → can't prune on it."""
        if var_classes is None:
            return None
        pos = pc.index_in(pa.array(cond, type=pa.int64()), pa.array(var_ids))
        allowed: set = set()
        for p in pos.to_pylist():
            if p is None:
                return None
            cls_list = var_classes[p].as_py()
            if not cls_list or "" in cls_list:
                return None
            allowed.update(cls_list)
        return allowed

    sets = []
    for sq in cq.subqueries:
        sq_lt = set(sq.logtype_ids.tolist())
        sq_classes = {c for c, ids in by_class.items()
                      if sq_lt.intersection(ids)}
        for cond in sq.dict_conds:
            if not sq_classes:
                break
            allowed = classes_of_cond(cond)
            if allowed is not None:
                sq_classes &= allowed
        sets.append(sq_classes)
    return by_class, sets


def subquery_logtype_prune(archive_dir: str, cq, var_ids, var_classes):
    """Per-subquery allowed-logtype sets (see :func:`_subquery_classes`).

    Returns a list parallel to ``cq.subqueries``: each entry is the set of
    logtype_ids that can possibly host a match for that subquery given which
    sink classes contain BOTH the subquery's logtypes AND every
    dictionary-var condition's entries — or ``None`` when no index exists to
    prune on. A subquery whose intersection is empty gets ``set()`` (it
    cannot match anywhere in this archive).
    """
    pruned = _subquery_classes(archive_dir, cq, var_ids, var_classes)
    if pruned is None:
        return [None] * len(cq.subqueries)
    by_class, sets = pruned
    return [set(sq.logtype_ids.tolist())
            & {lt for c in classes for lt in by_class[c]}
            for sq, classes in zip(cq.subqueries, sets)]


def _prune_keep_classes(archive_dir: str, cq, var_ids, var_classes):
    """Partition pruning: the sorted union of every subquery's keep classes
    (see :func:`_subquery_classes`), or None when pruning is unavailable."""
    pruned = _subquery_classes(archive_dir, cq, var_ids, var_classes)
    if pruned is None:
        return None
    return sorted(set().union(*pruned[1]))


def _class_paths(routed: str, keep):
    """Sink files of the keep classes; every sink file when keep is None
    (pruning unavailable)."""
    import os

    if keep is None:
        return sorted(os.path.join(root, f)
                      for root, _, files in os.walk(routed)
                      for f in files if f.endswith(".parquet"))
    return [
        os.path.join(routed, f"logtype_class={c}", f)
        for c in keep
        for f in sorted(os.listdir(os.path.join(routed, f"logtype_class={c}")))
        if f.endswith(".parquet")
    ]


def _passthrough(columns) -> list:
    """The requested columns a match carries besides (conv_id, turn_idx,
    text)."""
    return [c for c in (columns or [])
            if c not in ("conv_id", "turn_idx", "text")]


def _empty_matches(columns=None, query_idx: bool = False) -> pa.Table:
    """The empty match table: ``(conv_id, turn_idx, text)`` plus the
    passthrough ``columns``, typed as decompress types them, led by
    ``query_idx`` for batched searches."""
    from clp_core_ray.pipelines.decompress import _ROW_TYPES

    head = [("query_idx", pa.int64())] if query_idx else []
    return pa.schema(head + [("conv_id", pa.string()), ("turn_idx", pa.int32()),
                             ("text", pa.large_string())]
                     + [(c, _ROW_TYPES.get(c, pa.null()))
                        for c in _passthrough(columns)]).empty_table()


def _union(parts: list, empty: pa.Table):
    """Lazy union of match Datasets; ``empty`` when there are none."""
    if not parts:
        import ray.data as rd

        return rd.from_arrow(empty)
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def _subquery_mask(batch: pa.Table, cq) -> np.ndarray:
    """Rows of ``batch`` some subquery of ``cq`` can match: the row's
    logtype is in the subquery's set and its variables satisfy the
    subquery's in-order var conditions. All rows for a match-all query."""
    from clp_core_ray.pipelines.grep import rows_matching_subquery_vars

    n = len(batch)
    if cq.match_all:
        return np.ones(n, dtype=bool)
    keep = np.zeros(n, dtype=bool)
    lt = batch.column("logtype_id")
    for sq in cq.subqueries:
        m = np.asarray(pc.is_in(lt, value_set=pa.array(sq.logtype_ids)),
                       dtype=bool)
        if sq.var_conds and m.any():
            m &= rows_matching_subquery_vars(batch.column("encoded_vars"),
                                             sq.var_conds)
        keep |= m
        if keep.all():
            break
    return keep


def owned_rows(batch: pa.Table, conv_ids: pa.Array) -> pa.Table:
    """The rows of ``batch`` whose ``conv_id`` is in ``conv_ids`` (a
    large_string array): the generation ownership mask of
    ``pipelines.incremental``, applied before decode."""
    return batch.filter(pc.is_in(
        batch.column("conv_id").combine_chunks().cast(pa.large_string()),
        value_set=conv_ids))


def _archive_root(target: str) -> str:
    """An archive's dir, given it or its ``routed/`` sink dir."""
    import os

    t = os.path.normpath(target)
    return os.path.dirname(t) if os.path.basename(t) == "routed" else target


def _is_archive(target: str) -> bool:
    """True when ``target`` is one archive (or its ``routed/`` dir) rather
    than a base dir of archives or fragments."""
    import os

    return (os.path.basename(os.path.normpath(target)) == "routed"
            or os.path.isdir(os.path.join(target, "routed")))


class _ArchiveScan:
    """The scan of one archive plan, per batch: every query's subquery mask
    → one decode of the union of candidates → each query's wildcard verify
    against the decoded text.

    ``dicts`` is the archive's :class:`ArchiveDicts`, and ``owned`` the
    conv_ids the scan keeps (None: all, see :func:`owned_rows`); either may
    be a Ray ref. A ref resolves lazily per task (:func:`resolve`): an
    eager get in the driver-side constructor would pickle the full tables
    into every task's closure instead of shipping the ref."""

    def __init__(self, queries, dicts, extra, empty, query_idx, owned=None):
        self.queries = queries  # [(query_idx, cq, regex)]
        self.dicts, self.extra, self.empty = dicts, extra, empty
        self.query_idx, self.owned = query_idx, owned

    def __call__(self, batch: pa.Table) -> pa.Table:
        from clp_core_ray.vec.decoder import decode_batch

        d = self.dicts = resolve(self.dicts)
        self.owned = resolve(self.owned)
        if self.owned is not None:
            batch = owned_rows(batch, self.owned)
        masks = [_subquery_mask(batch, cq) for _qi, cq, _rx in self.queries]
        union = np.logical_or.reduce(masks)
        if not union.any():
            return self.empty
        if not union.all():
            batch = batch.filter(pa.array(union))
        text = decode_batch(
            d.templates(batch.column("logtype_id")),
            batch.column("encoded_vars"),
            dict_ids=d.var_ids, dict_values=d.var_values)
        cols = {"conv_id": batch.column("conv_id").combine_chunks(),
                "turn_idx": batch.column("turn_idx").combine_chunks(),
                "text": text}
        for c in self.extra:
            cols[c] = batch.column(c).combine_chunks()
        parts = []
        for (qi, _cq, rx), mask in zip(self.queries, masks):
            hit = pc.match_substring_regex(text, rx)
            sub = mask[union]
            if not sub.all():
                hit = pc.and_(pa.array(sub), hit)
            if self.query_idx:
                qcol = pa.array(np.full(len(batch), qi, dtype=np.int64))
                parts.append(pa.table({"query_idx": qcol, **cols}).filter(hit))
            else:
                parts.append(pa.table(cols).filter(hit))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)


class _Plan(NamedTuple):
    """One archive's search plan: the kept sink files and their summed
    size, the sink columns to read, and the scan to run over them (no
    files: nothing can match). ``empty`` is the typed 0-row result."""
    files: list
    nbytes: int
    cols: list
    scan: _ArchiveScan | None
    empty: pa.Table


def _search_plan(archive_dir: str, queries: list[str], ignore_case: bool,
                 columns=None, query_idx: bool = False, owned=None) -> _Plan:
    """Plan the one archive scan for a batch of queries (matches are led
    by ``query_idx`` when asked for).

    Compile (driver): each query goes through the Grep subquery compiler
    against the archive's cached dictionaries (:func:`compile_for_archive`);
    a dictionary miss drops the query before any sink file is read. Prune:
    each query keeps the sink classes its subqueries can match
    (:func:`_prune_keep_classes`), the scan reads the union of kept classes
    once, and one unprunable query forces the full scan. Scan: see
    :class:`_ArchiveScan`; it decodes through the archive's dictionaries
    the rows of the ``owned`` conv_ids (all when None). ``columns`` are
    sink columns passed through to the matches. :func:`_run_plans` runs
    the plans.
    """
    import os

    from clp_core_ray.pipelines import decompress

    archive_dir = _archive_root(archive_dir)
    # passthrough columns (e.g. ts for count-by-time over results)
    extra = _passthrough(columns)
    empty = _empty_matches(columns, query_idx)
    if decompress.first_parquet(os.path.join(archive_dir, "routed")) is None:
        # no sink file (empty input, or routed/ not yet written)
        return _Plan([], 0, [], None, empty)
    st = _archive_state(archive_dir)
    missing = [c for c in extra if c not in st.sink_schema.names]
    if missing:
        raise KeyError(f"columns not in archive sinks: {missing}")

    compiled = []  # (query_idx, cq, regex) per query that can match
    keeps = []     # its sorted keep classes, or None (no prune)
    for qi, q in enumerate(queries):
        cq, _dicts, var_ids, _var_values, var_classes = compile_for_archive(
            archive_dir, q, ignore_case)
        if not cq.match_all and not cq.subqueries:
            continue  # dictionary miss: this query can't match anything
        keep = _prune_keep_classes(archive_dir, cq, var_ids, var_classes)
        if keep is not None and not keep:
            continue  # index-pruned to nothing
        rx = wildcard_to_regex(cq.processed)
        compiled.append((qi, cq, "(?i)" + rx if ignore_case else rx))
        keeps.append(keep)
    if not compiled:
        return _Plan([], 0, [], None, empty)
    keep_union = (None if any(k is None for k in keeps)
                  else sorted(set().union(*keeps)))
    files = _class_paths(os.path.join(archive_dir, "routed"), keep_union)

    cols = ["conv_id", "turn_idx", "logtype_id", "encoded_vars"]
    cols += [c for c in extra if c not in cols]
    # a probed var dict is read whole for the scan, uncached
    dicts = decompress.load_dicts(archive_dir) if st.probe else st.dicts
    return _Plan(files, sum(os.path.getsize(f) for f in files), cols,
                 _ArchiveScan(compiled, dicts, extra, empty, query_idx, owned),
                 empty)


def _scan_local(plan: _Plan) -> list:
    """The plan's scan in the calling process → its non-empty match
    tables."""
    import pyarrow.parquet as pq

    t = pa.concat_tables(pq.read_table(f, columns=plan.cols, partitioning=None)
                         for f in plan.files).combine_chunks()
    out = (plan.scan(t.slice(o, _SCAN_BATCH))
           for o in range(0, t.num_rows, _SCAN_BATCH))
    return [b for b in out if b.num_rows]


def _scan_ray(plan: _Plan):
    """The plan's scan as a Ray Data job → lazy match Dataset."""
    import ray
    import ray.data as rd

    scan = plan.scan
    # broadcast the dicts and the owned conv_ids once, not pickled per task;
    # the segment index is compile-side state, decode needs none of it
    scan = _ArchiveScan(scan.queries,
                        ray.put(scan.dicts._replace(var_classes=None)),
                        scan.extra,
                        scan.empty, scan.query_idx,
                        None if scan.owned is None else ray.put(scan.owned))
    ds = rd.read_parquet(plan.files, columns=plan.cols,
                         file_extensions=["parquet"])
    # task-based: the scan's state (broadcast dicts) is a cheap zero-copy
    # plasma get per task, while an actor pool costs ~3s spin-up per query
    # on a small host — wrong trade for interactive search. batch_size
    # bundles the small per-class sink files into real batches so per-call
    # fixed costs (dict lookup setup, regex launch) amortize.
    return ds.map_batches(scan, batch_format="pyarrow", batch_size=_SCAN_BATCH)


def _run_plans(plans: list, partial=None):
    """Run search plans → one match Dataset, in plan order. The choice of
    side is made once, on the plans' summed kept bytes: at most
    ``execution.LOCAL_SCAN_BYTES`` scans in this process, more fans out to
    Ray Data (so many small archives still scan in parallel). With no
    match the result is the first plan's typed empty table.

    ``partial`` (match table → table), when given, runs on each match
    batch on the side the scan ran, so a count ships partial counts, not
    matches."""
    import ray.data as rd

    empty = plans[0].empty if plans else _empty_matches()
    plans = [p for p in plans if p.files]
    if choose("scan", sum(p.nbytes for p in plans)) == "ray":
        ds = _union([_scan_ray(p) for p in plans], empty)
        return (ds if partial is None
                else ds.map_batches(partial, batch_format="pyarrow"))
    parts = [t for p in plans for t in _scan_local(p)] or [empty]
    if partial is not None:
        parts = [partial(t) for t in parts]
    return rd.from_arrow(pa.concat_tables(parts, promote_options="permissive"))


def _count_matches(plans: list, key: str, bucket=None) -> pa.Table:
    """``(key, cnt)``: the plans' matches per value of ``key``, which is
    ``query_idx`` or the column ``bucket`` (match table → table) appends.
    Each match batch is counted where the scan runs and the partial counts
    are summed here (the reducer CountOperator merge,
    reducer/CountOperator.cpp:4-31), so a Ray-side scan sends the driver
    counts, not matches."""
    def partial(t: pa.Table) -> pa.Table:
        if bucket is not None:
            t = bucket(t)
        out = t.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: out.column(key),
                         "cnt": out.column("count_all")})

    parts = [pa.table(b) for b in _run_plans(plans, partial)
             .iter_batches(batch_format="pyarrow")]
    out = (pa.concat_tables([partial(plans[0].empty), *parts],
                            promote_options="permissive")
           .group_by(key).aggregate([("cnt", "sum")]))
    return pa.table({key: out.column(key),
                     "cnt": out.column("cnt_sum")}).sort_by(key)


def _query_counts(plans: list, n_queries: int) -> list[int]:
    """Matches per query of plans made with ``query_idx``, 0 for a query
    without matches."""
    got = _count_matches(plans, "query_idx")
    per = dict(zip(got.column("query_idx").to_pylist(),
                   got.column("cnt").to_pylist()))
    return [per.get(i, 0) for i in range(n_queries)]


# ---------------------------------------------------------------------------
# Target resolution (clg's archive iteration): a search target is one
# archive, a base dir of self-contained archives (own dicts + sinks +
# manifests), or the ingest scheduler's fragment base, whose fragments are
# archives too. The query driver selects archives from their manifests by
# path glob, time range and tags before opening any archive data
# (clg.cpp:132-145 archive selection; query_scheduler.py:369-398 metadata
# filtering), compiles against each one's own dictionaries, and runs the
# plans once. Archives are visited newest-first (end-timestamp
# descending, query_scheduler.py:389 ordering) so a limit consumer sees
# recent matches first.
# ---------------------------------------------------------------------------


def _archive_selected(a: dict, path_glob: str | None = None,
                      ts_min: int | None = None, ts_max: int | None = None,
                      tags: list | None = None) -> bool:
    """Does archive ``a`` (its ``manifest.fold_manifests`` attributes) pass
    the path/time/tag predicates? Conservative: an unknown time range or
    input label keeps the archive; an input that lists several files
    matches when any does; tag filtering requires an actual tag match."""
    import fnmatch

    if tags and not (set(tags) & a["tags"]):
        return False
    inputs = a["input"] if isinstance(a["input"], list) else [a["input"]]
    if path_glob and a["input"] and not any(
            fnmatch.fnmatch(str(i), path_glob) for i in inputs):
        return False
    if ts_min is not None and a["ts_max"] is not None and a["ts_max"] < ts_min:
        return False
    if ts_max is not None and a["ts_min"] is not None and a["ts_min"] > ts_max:
        return False
    return True


def _select(found: list[dict], **prune) -> list[str]:
    """The dirs of the archives in ``found`` that pass
    :func:`_archive_selected`, newest-first."""
    keep = [a for a in found if _archive_selected(a, **prune)]
    keep.sort(key=lambda a: (a["ts_max"] is not None, a["ts_max"] or 0),
              reverse=True)
    return [a["dir"] for a in keep]


def list_archives(base_dir: str) -> list[dict]:
    """[{dir, ts_min, ts_max, input, tags}] for every archive under
    ``base_dir``.

    An archive is any direct subdirectory with a ``routed/`` sink; its time
    range, input label and tags come from the lineage manifest (the
    per-archive begin/end timestamp + tags CLP's metadata DB rows carry —
    tags are the package-level archive attribute the query scheduler
    filters on).

    When ``base_dir`` carries a global catalog (``_catalog/`` — the
    GlobalSQLiteMetadataDB role, state/catalog.py), discovery reads the
    catalog entries ONLY: no directory scan, no per-archive manifest walk —
    selection stays O(archives-listed) when thousands of archives share the
    base dir, and concurrent compress jobs register lock-free."""
    import os

    from clp_core_ray.state import catalog as cat
    from clp_core_ray.state import manifest as mf

    if cat.has_catalog(base_dir):
        return cat.read_catalog(base_dir)
    dirs = [os.path.join(base_dir, name) for name in sorted(os.listdir(base_dir))]
    return [{"dir": d, **mf.fold_manifests(d)} for d in dirs
            if os.path.isdir(os.path.join(d, "routed"))]


def select_archives(base_dir: str, path_glob: str | None = None,
                    ts_min: int | None = None,
                    ts_max: int | None = None,
                    tags: list | None = None) -> list[str]:
    """Archive dirs matching the path/time/tag predicates, newest-first.

    Conservative: an archive with no recorded time range cannot be pruned by
    time (unknown → keep), mirroring clg's metadata selection semantics.
    ``ts_min``/``ts_max`` are epoch microseconds (the manifest unit).
    ``tags``: keep archives carrying ANY of the given tags (the package
    scheduler's tag-filtered archive selection)."""
    return _select(list_archives(base_dir), path_glob=path_glob,
                   ts_min=ts_min, ts_max=ts_max, tags=tags)


def _is_fragment_base(target: str) -> bool:
    import os

    return (os.path.isdir(os.path.join(target, "_manifests"))
            and any(n.startswith("fragment=")
                    for n in os.listdir(target)))


def _fragment_archives(out_dir: str) -> list[dict]:
    """The unretired fragments of the ingest scheduler's fragment base
    (pipelines/ingest.py) as archives: each is a dictionary archive
    (``"format": "clp"``) whose selection attributes are its manifest's.
    Fragment manifests carry no tags. A fragment of another format raises
    ``ValueError``: one without a ``format`` holds inline rows, which
    ``compact_fragments`` turns into an archive."""
    from clp_core_ray.state import manifest as mf

    found = []
    for f in mf.select_fragments(out_dir):
        if not f.get("sink"):
            continue
        if f.get("format") != "clp":
            raise ValueError(
                f"{out_dir}: fragment {f.get('fragment_id')} is not a "
                f"dictionary archive (format {f.get('format') or 'inline'}); "
                f"compact the fragment base (compact_fragments) to search it")
        found.append({"dir": f["sink"], "input": f.get("input"),
                      "ts_min": f.get("ts_min"), "ts_max": f.get("ts_max"),
                      "tags": set(f.get("tags") or [])})
    return found


def _target_plans(target: str, queries: list[str], ignore_case: bool = False,
                  columns=None, query_idx: bool = False, owned=None,
                  **prune) -> list[_Plan]:
    """Resolve a search target into its plans, one per selected archive.

    ``target`` is one archive (or its ``routed/`` dir), a fragment base
    (``_manifests/`` beside ``fragment=`` archives) or a base dir of
    archives. Every kind's archives are selected by
    :func:`_archive_selected` over their manifests with the ``prune``
    predicates (path_glob, ts_min, ts_max, tags), newest-first, and each is
    planned by :func:`_search_plan`; ``owned`` restricts the scan to those
    conv_ids. When nothing is selected the one plan is empty, so a result
    is always typed by :func:`_empty_matches`."""
    from clp_core_ray.state import manifest as mf

    if _is_archive(target):
        root = _archive_root(target)
        if any(v is not None for v in prune.values()):
            dirs = _select([{"dir": root, **mf.fold_manifests(root)}],
                           **prune)
        else:  # nothing to prune on: the manifests need not be read
            dirs = [root]
    elif _is_fragment_base(target):
        dirs = _select(_fragment_archives(target), **prune)
    else:
        dirs = select_archives(target, **prune)
    return ([_search_plan(d, queries, ignore_case, columns, query_idx, owned)
             for d in dirs]
            or [_Plan([], 0, [], None, _empty_matches(columns, query_idx))])


def search_archive(archive_dir: str, query: str, columns=None,
                   ignore_case: bool = False):
    """Search a compressed archive → Dataset[(conv_id, turn_idx, text)].

    Compile (driver): the Grep subquery compiler (pipelines.grep) enumerates
    interpretations of ambiguous tokens against the archive's logtype and
    variable dictionaries — possible-logtype sets plus in-order var
    conditions per subquery (Grep.cpp:499-628). Prune: sink partitions
    are skipped via the class→logtype index (J4). Scan (vectorized): rows
    matching any subquery are decoded and wildcard-verified (the verify
    keeps results exact even where subqueries are imprecise,
    Grep.cpp:900-959). ``ignore_case`` mirrors wildcard_match_unsafe's
    lowercase-both mode (string_utils.hpp:88-94). ``columns`` names sink
    columns (e.g. ``ts``) carried into the matches. Like every search
    entry point, ``archive_dir`` may be any target :func:`_target_plans`
    resolves.
    """
    return _run_plans(_target_plans(archive_dir, [query], ignore_case,
                                    columns))


def search_archive_multi(archive_dir: str, queries: list[str],
                         ignore_case: bool = False):
    """Batched multi-query search: N wildcard queries, ONE archive scan.

    The reference executes one query per clg invocation (clg.cpp main loop);
    at fleet scale the dominant cost of a query batch is re-reading and
    re-decoding the same sink files N times. Here every query compiles
    against the dictionaries on the driver (cheap — dictionaries are small),
    the scan reads the UNION of the queries' pruned partitions once, each
    batch computes every query's candidate mask, and decode — the expensive
    kernel — runs once over the union of candidates; per-query wildcard
    verify then fans the decoded text back out. Returns
    Dataset[(query_idx int64, conv_id, turn_idx, text)]; query_idx is the
    position in ``queries``.
    """
    return _run_plans(_target_plans(archive_dir, queries, ignore_case,
                                    query_idx=True))


def search_archives(base_dir: str, query: str, ignore_case: bool = False,
                    columns=None, path_glob: str | None = None,
                    ts_min: int | None = None, ts_max: int | None = None,
                    tags: list | None = None):
    """Search every selected archive under ``base_dir`` → one match Dataset.

    Each archive compiles against its OWN dictionaries (per-archive subquery
    compilation, as clg does per archive) into a plan; every plan is made
    before any is run, and their summed kept bytes pick the scan side once
    (:func:`_run_plans`), so a catalog of many small archives still fans
    out to Ray Data."""
    return _run_plans(_target_plans(
        base_dir, [query], ignore_case, columns, path_glob=path_glob,
        ts_min=ts_min, ts_max=ts_max, tags=tags))


def search_archives_multi(base_dir: str, queries: list[str],
                          ignore_case: bool = False,
                          path_glob: str | None = None,
                          ts_min: int | None = None,
                          ts_max: int | None = None,
                          tags: list | None = None):
    """Batched multi-query search across every selected archive: each archive
    compiles the whole query batch against its OWN dictionaries into one
    scan plan (see :func:`search_archive_multi`), and the plans run as in
    :func:`search_archives`. Manifest time/path/tag pruning applies before
    any archive is read."""
    return _run_plans(_target_plans(
        base_dir, queries, ignore_case, query_idx=True, path_glob=path_glob,
        ts_min=ts_min, ts_max=ts_max, tags=tags))


def search_fragments(out_dir: str, query: str, ignore_case: bool = False,
                     columns=None, path_glob: str | None = None,
                     ts_min: int | None = None, ts_max: int | None = None,
                     tags: list | None = None):
    """Search the ingest scheduler's fragment base (pipelines/ingest.py):
    the unretired fragments that pass the manifest predicates (the same
    metadata-DB time/path/tag narrowing clg does before opening archives;
    fragments carry no tags) are one list of archives, planned and run as
    in :func:`search_archives`. A fragment that is not a dictionary
    archive raises ``ValueError`` (:func:`_fragment_archives`)."""
    return _run_plans(_target_plans(
        out_dir, [query], ignore_case, columns, path_glob=path_glob,
        ts_min=ts_min, ts_max=ts_max, tags=tags))


def search_federated(targets: list[str], query: str,
                     ignore_case: bool = False, columns=None, **prune):
    """One query across MULTIPLE storage tiers — e.g. the ingest
    scheduler's hot fragment base plus the catalog of compacted cold
    archives: every target resolves through :func:`_target_plans` (with
    its own manifest pruning) and all their plans run once, so the scan
    side is chosen on the summed bytes of every tier.

    Consistency note: compaction retires fragments only after its archive
    commits, so steady-state federated results are exact; in the crash
    window between archive commit and full retirement the same rows can
    appear in both tiers (temporarily double-stored, never lost) until a
    compaction re-run finishes retirement."""
    if not targets:
        raise ValueError("search_federated needs at least one target")
    return _run_plans([p for t in targets for p in _target_plans(
        t, [query], ignore_case, columns, **prune)])


def search_count(target: str, query: str, ignore_case: bool = False,
                 **prune) -> pa.Table:
    """clg --count: total number of matching messages (reducer CountOperator
    role, see :func:`_count_matches`) → pa.Table[(cnt)]."""
    n = _query_counts(_target_plans(target, [query], ignore_case,
                                    query_idx=True, **prune), 1)
    return pa.table({"cnt": pa.array(n, type=pa.int64())})


def search_count_multi(archive_dir: str, queries: list[str],
                       ignore_case: bool = False) -> pa.Table:
    """Per-query match counts for a query batch in ONE scan (clg --count ×N
    without re-reading the archive N times). Queries with no matches —
    including dictionary misses that never reach the scan — report 0.
    Returns pa.Table[(query_idx, cnt)], one row per input query."""
    n = _query_counts(_target_plans(archive_dir, queries, ignore_case,
                                    query_idx=True), len(queries))
    return pa.table({
        "query_idx": pa.array(range(len(queries)), type=pa.int64()),
        "cnt": pa.array(n, type=pa.int64())})


def search_count_by_time(target: str, query: str, granularity: str = "hour",
                         ignore_case: bool = False, ts_col: str = "ts",
                         bucket_ms: int | None = None, **prune):
    """clo count-by-time: matches bucketed by truncated event timestamp
    (OutputHandler.hpp:255-286 bucket = ts/size*size), counted as in
    :func:`_count_matches` → Dataset[(bucket, cnt)], empty but typed when
    nothing matches. ``bucket_ms`` mirrors the CLI's arbitrary millisecond
    bucket; ``granularity`` the calendar units."""
    import functools

    import ray.data as rd

    from clp_core_ray.pipelines.aggregate import time_bucket

    plans = _target_plans(target, [query], ignore_case, columns=[ts_col],
                          **prune)
    return rd.from_arrow(_count_matches(plans, "bucket", functools.partial(
        time_bucket, ts_col=ts_col, granularity=granularity,
        bucket_ms=bucket_ms)))


def search_context(archive_dir: str, query: str, before: int = 1,
                   after: int = 1, ignore_case: bool = False):
    """Matches plus surrounding conversation turns (grep -B/-A semantics
    applied to CLP search results; the reference's clg prints bare matches —
    clg.cpp:400-460 — so the context radius is this repo's extension for
    conversational logs).

    Two-phase, both sides pruned:
    1. the normal index-pruned search yields the (small) match set;
    2. matched (conv_id, turn_idx±r) keys broadcast via ray.put, and the
       archive is re-read with a conv_id prefilter BEFORE the decode stage —
       unmatched conversations are dropped from the encoded rows, so decode
       cost is O(matched conversations), not O(archive).

    Returns Dataset[(conv_id, turn_idx, text, is_match)].
    """
    import numpy as np
    import ray
    import ray.data as rd

    from clp_core_ray.pipelines.decompress import decompress

    matches = search_archive(archive_dir, query, ignore_case=ignore_case)
    mt = pa.concat_tables(
        [pa.table({"conv_id": pa.array([], pa.string()),
                   "turn_idx": pa.array([], pa.int64())})]
        + [pa.table(b).select(["conv_id", "turn_idx"])
           .cast(pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64())]))
           for b in matches.iter_batches(batch_format="pyarrow")]
    )
    empty = pa.table({"conv_id": pa.array([], pa.string()),
                      "turn_idx": pa.array([], pa.int64()),
                      "text": pa.array([], pa.large_string()),
                      "is_match": pa.array([], pa.bool_())})
    if len(mt) == 0:
        return rd.from_arrow(empty)

    conv = mt.column("conv_id").combine_chunks()
    idx = np.asarray(mt.column("turn_idx"), dtype=np.int64)

    def keys_of(conv_arr: pa.Array, idx_arr: np.ndarray) -> pa.Array:
        return pc.binary_join_element_wise(
            pc.cast(conv_arr, pa.string()),
            pa.array(idx_arr.astype("U"), type=pa.string()), ":",
        )

    # match keys (for the is_match flag) + the ±r expanded context keys
    match_keys = pc.unique(keys_of(conv, idx))
    offs = np.arange(-before, after + 1, dtype=np.int64)
    exp_conv = pa.concat_arrays([conv] * len(offs))
    exp_idx = np.concatenate([idx + o for o in offs])
    ctx_keys = pc.unique(keys_of(exp_conv, exp_idx))
    conv_set = pc.unique(conv)
    side_ref = ray.put((conv_set, ctx_keys, match_keys))

    def conv_prefilter(batch: pa.Table) -> pa.Table:
        cs, _k, _m = ray.get(side_ref)
        return batch.filter(pc.is_in(pc.cast(batch.column("conv_id"),
                                             pa.string()), value_set=cs))

    def ctx_filter(batch: pa.Table) -> pa.Table:
        _cs, keys, mkeys = ray.get(side_ref)
        k = keys_of(batch.column("conv_id").combine_chunks(),
                    np.asarray(batch.column("turn_idx"), dtype=np.int64))
        keep = pc.is_in(k, value_set=keys)
        out = batch.filter(keep)
        k_kept = k.filter(keep) if len(out) else k.slice(0, 0)
        return out.append_column("is_match",
                                 pc.is_in(k_kept, value_set=mkeys))

    return (
        decompress(archive_dir, prefilter=conv_prefilter)
        .map_batches(ctx_filter, batch_format="pyarrow")
    )
