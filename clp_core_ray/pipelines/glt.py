"""GLT (grouped logtype tables) layout — SURVEY.md §1.5.

Regroups encoded messages by logtype: each logtype's table is columnar with
one column per variable position (var_0..var_{k-1}) plus row metadata —
glt/streaming_archive/writer/LogtypeTable.hpp:13-18. Small tables are
combined into a shared 'misc' sink ordered by descending size
(GLTSegment.hpp:83-113's combine threshold) — the same small-group-skew fix,
re-expressed as a partitioned parquet layout.

This is the layout that makes per-variable-position predicates columnar
(reported 7.8x faster search vs clp, docs/core-unstructured/glt.md:6-7):
a query on "variable 2 of logtype L" reads exactly one parquet column.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

COMBINE_THRESHOLD_ROWS = 1000  # groups smaller than this go to the misc sink

# Hot-logtype salting: a dominant template (in real logs one logtype routinely
# owns >50% of rows) must not become a single map_groups task materializing the
# whole group. Logtypes bigger than this are split into ceil(size/target)
# salted sub-groups; explode_vars is row-independent, so each sub-group writes
# an independent part file under the same logtype directory.
TARGET_ROWS_PER_PART = 250_000


def _lid_dir(lid: int) -> str:
    """A dedicated logtype table's directory name."""
    return f"logtype_id={lid & 0xFFFFFFFFFFFFFFFF:016x}"


def explode_vars(group: pa.Table) -> pa.Table:
    """One logtype's rows → per-position var columns (vectorized reshape)."""
    ev = group.column("encoded_vars").combine_chunks()
    n = len(group)
    flat = np.asarray(ev.flatten(), dtype=np.int64)
    offsets = np.asarray(ev.offsets, dtype=np.int64)
    counts = np.diff(offsets)
    k = int(counts[0]) if n else 0
    if n and not (counts == k).all():
        raise ValueError("rows of one logtype must have equal var counts")
    cols = {
        "conv_id": group.column("conv_id"),
        "turn_idx": group.column("turn_idx"),
        "ts": group.column("ts"),
        "logtype_id": group.column("logtype_id"),
    }
    mat = flat.reshape(n, k) if n else np.zeros((0, 0), dtype=np.int64)
    for j in range(k):
        cols[f"var_{j}"] = pa.array(mat[:, j])
    return pa.table(cols)


def write_glt(archive_dir: str, out_dir: str | None = None,
              target_rows_per_part: int = TARGET_ROWS_PER_PART,
              _test_crash_marker: str | None = None) -> dict:
    """Archive routed sinks → GLT layout on disk.

    groupby(logtype_id, _salt) — the logtype dictionary is small, so this
    shuffle moves each row once into its logtype bucket; big logtypes get
    their own directory, small ones are combined (in original list form)
    under misc/. Hot logtypes are salted into ceil(size/target) sub-groups
    so no single map_groups task materializes a dominant template's whole
    group (GLTSegment.hpp:88-113 solves small-group skew; this is the
    hot-group side). Returns {logtype_id: rows} for the dedicated tables.
    """
    import ray.data as rd

    out_dir = out_dir or os.path.join(archive_dir, "glt")
    routed = os.path.join(archive_dir, "routed")
    cols = ["conv_id", "turn_idx", "ts", "logtype_id", "encoded_vars"]
    ds = rd.read_parquet(routed, columns=cols, file_extensions=["parquet"])

    # group sizes from a partial count (cheap; drives the combine decision)
    from clp_core_ray.pipelines.aggregate import count_by

    sizes = {
        r["logtype_id"]: r["cnt"]
        for b in count_by(ds, "logtype_id").iter_batches(batch_format="pyarrow")
        for r in pa.table(b).to_pylist()
    }
    big = sorted(
        (lid for lid, c in sizes.items() if c >= COMBINE_THRESHOLD_ROWS),
        key=lambda l: -sizes[l],
    )
    big_set = set(big)

    # salt count per logtype: 1 for small/misc groups, size/target for hot
    # ones. The per-batch cyclic assignment below spreads a logtype's rows
    # round-robin over its salts, so sub-group sizes stay ~target regardless
    # of how skewed the logtype distribution is.
    n_salt = {lid: max(1, -(-c // target_rows_per_part)) if lid in big_set else 1
              for lid, c in sizes.items()}
    salt_ids = pa.array(np.fromiter(n_salt.keys(), dtype=np.int64,
                                    count=len(n_salt)))
    salt_ns = np.fromiter(n_salt.values(), dtype=np.int64, count=len(n_salt))

    def add_salt(b: pa.Table) -> pa.Table:
        pos = np.asarray(pc.index_in(b.column("logtype_id"), salt_ids),
                         dtype=np.int64)
        ns = salt_ns[pos]
        salt = np.arange(len(b), dtype=np.int64) % np.maximum(ns, 1)
        return b.append_column("_salt", pa.array(salt))

    def route_glt(group: pa.Table) -> pa.Table:
        # content-named atomic writes (state/atomic.py): a map_groups task
        # killed mid-write leaves only an .inprogress tmp; the retried task
        # re-derives the SAME final name from the group's content and
        # replaces it — no duplicate parts, no torn files
        from clp_core_ray.state.atomic import atomic_write_table

        lid = group.column("logtype_id")[0].as_py()
        group = group.drop_columns(["_salt"])
        if _test_crash_marker and not os.path.exists(_test_crash_marker):
            # failure injection (tests only): die mid-write on the first
            # group task — leave a torn .inprogress tmp behind, the shape a
            # real OOM-kill during pq.write_table produces. Ray retries the
            # task; the content-named atomic rename must make the retry exact
            # and readers must never see the torn tmp.
            fd = os.open(_test_crash_marker, os.O_CREAT | os.O_WRONLY)
            os.close(fd)
            torn_dir = os.path.join(
                out_dir, _lid_dir(lid) if lid in big_set else "misc")
            os.makedirs(torn_dir, exist_ok=True)
            with open(os.path.join(
                    torn_dir, f"part-dead.{os.getpid()}.inprogress"),
                    "wb") as f:
                f.write(b"PAR1torn")
            os._exit(1)
        if lid in big_set:
            t = explode_vars(group)
            pos_dir = os.path.join(out_dir, _lid_dir(lid))
            os.makedirs(pos_dir, exist_ok=True)
            atomic_write_table(t, pos_dir,
                               cols=["conv_id", "turn_idx", "ts"],
                               compression="zstd")
            return pa.table({"logtype_id": pa.array([lid]),
                             "rows": pa.array([len(group)]),
                             "sink": pa.array(["dedicated"])})
        misc = os.path.join(out_dir, "misc")
        os.makedirs(misc, exist_ok=True)
        atomic_write_table(group, misc,
                           cols=["conv_id", "turn_idx", "logtype_id"],
                           compression="zstd")
        return pa.table({"logtype_id": pa.array([lid]),
                         "rows": pa.array([len(group)]),
                         "sink": pa.array(["misc"])})

    result = (
        ds.map_batches(add_salt, batch_format="pyarrow")
        .groupby(["logtype_id", "_salt"])
        .map_groups(route_glt, batch_format="pyarrow")
        .to_pandas()
    )
    # job complete: sweep dead attempts' .inprogress tmps (readers filter to
    # *.parquet anyway, but a stale tmp pollutes listings and size accounting)
    from clp_core_ray.pipelines.compress import sweep_inprogress

    sweep_inprogress(out_dir)
    # sub-group rows sum back to per-logtype totals
    return result.groupby("logtype_id")["rows"].sum().to_dict()


def read_var_column(glt_dir: str, logtype_id: int, position: int):
    """Read exactly one variable position of one logtype — the GLT payoff."""
    import ray.data as rd

    d = os.path.join(glt_dir, _lid_dir(logtype_id))
    return rd.read_parquet(d, columns=["conv_id", "turn_idx", f"var_{position}"],
                           file_extensions=["parquet"])


# --------------------------------------------------------------------------
# GLT search — the column-oriented search engine over the GLT layout
# (glt/Grep.cpp's LogtypeTable search; reported 7.8x faster than clp because
# a var condition touches one column, docs/core-unstructured/glt.md:6-7)
# --------------------------------------------------------------------------

def align_positions(ph_types: list, cond_types: list):
    """Feasible variable positions per condition, or None if infeasible.
    ``ph_types`` are a logtype's variable kinds, ``cond_types`` the
    conditions' kinds (``encoding.VT_*``).

    Conditions are an in-order subsequence over the logtype's variables
    (Query.cpp:150-172 semantics); cond i may sit at any position of matching
    type within [earliest_i, latest_i] given the other conditions."""
    k = len(ph_types)
    m = len(cond_types)
    if m == 0:
        return []
    earliest = []
    j = 0
    for t in cond_types:
        while j < k and ph_types[j] != t:
            j += 1
        if j >= k:
            return None
        earliest.append(j)
        j += 1
    latest = [0] * m
    j = k - 1
    for i in range(m - 1, -1, -1):
        while j >= 0 and ph_types[j] != cond_types[i]:
            j -= 1
        if j < 0:
            return None
        latest[i] = j
        j -= 1
    return [
        [p for p in range(earliest[i], latest[i] + 1) if ph_types[p] == cond_types[i]]
        for i in range(m)
    ]


def _rg_can_match(meta_rg, col_index: dict, specs) -> bool:
    """Row-group pruning from parquet column statistics: a row group can host
    a subquery match only if, for every condition, at least one feasible
    column's [min,max] admits an allowed value (clg's segment-intersection
    idea applied at parquet row-group granularity)."""
    for conds, pos_sets in specs:
        if not conds:
            return True
        sq_ok = True
        for allowed, positions in zip(conds, pos_sets):
            cond_ok = False
            for j in positions:
                idx = col_index.get(f"var_{j}")
                if idx is None:
                    cond_ok = True
                    break
                st = meta_rg.column(idx).statistics
                if st is None or not st.has_min_max:
                    cond_ok = True
                    break
                if ((allowed >= st.min) & (allowed <= st.max)).any():
                    cond_ok = True
                    break
            if not cond_ok:
                sq_ok = False
                break
        if sq_ok:
            return True
    return False


def _rows_matching_positions(cols: dict, n: int, k: int, specs) -> np.ndarray:
    """OR over subqueries of the positional in-order condition match."""
    keep = np.zeros(n, dtype=bool)
    for conds, pos_sets in specs:
        if not conds:
            return np.ones(n, dtype=bool)
        ok = np.ones(n, dtype=bool)
        pos = np.zeros(n, dtype=np.int64)
        for allowed, positions in zip(conds, pos_sets):
            best = np.full(n, k, dtype=np.int64)
            for j in sorted(positions, reverse=True):
                c = cols[j]
                hit = (c == allowed[0]) if len(allowed) == 1 else np.isin(c, allowed)
                sel = hit & (pos <= j)
                best[sel] = j
            ok &= best < k
            pos = np.where(ok, best + 1, pos)
        keep |= ok
        if keep.all():
            break
    return keep


def glt_search(archive_dir: str, query: str, ignore_case: bool = False,
               glt_dir: str | None = None):
    """Search the GLT layout → Dataset[(conv_id, turn_idx, text)].

    The row engine plans the query (``search._search_plan``): compile,
    prune and the archive's dictionaries. Per candidate logtype the query's
    var conditions are aligned to that logtype's variable *positions*
    (glt/Grep.cpp's get_converted_logtype_query role), so the filter phase
    reads ONLY the conditioned var columns of the dedicated tables — plus
    row-group statistics pruning — and the remaining columns are
    late-materialized for matching row groups only. The combined 'misc'
    sink has the row sinks' columns, so it runs as that plan with the misc
    files for its files (``search._run_plans``). Results are
    decode-verified with the effective wildcard pattern, so they equal
    :func:`search_archive`.
    """
    import ray
    import ray.data as rd

    from clp_core_ray import encoding as E
    from clp_core_ray.execution import choose
    from clp_core_ray.pipelines.decompress import resolve
    from clp_core_ray.pipelines.search import (
        _run_plans,
        _search_plan,
        _union,
        subquery_logtype_prune,
    )
    from clp_core_ray.vec.decoder import decode_batch

    glt_dir = glt_dir or os.path.join(archive_dir, "glt")
    plan = _search_plan(archive_dir, [query], ignore_case)
    if plan.scan is None:  # nothing can match
        return rd.from_arrow(plan.empty)
    [(_qi, cq, rx)] = plan.scan.queries
    dicts = plan.scan.dicts
    # per-variable segment index pruning (the same index the row plan
    # consults): a dict-var condition whose entries live only in certain
    # sink classes restricts which logtypes can host a match — their GLT
    # tables/cells are never opened.
    lt_allowed = subquery_logtype_prune(archive_dir, cq, dicts.var_ids,
                                        dicts.var_classes)
    template_of = dict(zip(dicts.lt_ids.tolist(), dicts.lt_values.to_pylist()))

    # per-dedicated-logtype scan specs: lid → (template, k, specs, filter_cols)
    items = []
    spec_by_lid = {}
    names = sorted(os.listdir(glt_dir)) if os.path.isdir(glt_dir) else []
    for name in names:
        if not name.startswith("logtype_id="):
            continue
        v = int(name.split("=", 1)[1], 16)
        lid = v - (1 << 64) if v >= (1 << 63) else v
        templ = template_of.get(lid)
        if templ is None:
            continue
        ph = E.placeholder_kinds(templ)
        specs = []
        if cq.match_all:
            specs.append(((), ()))
        for sq, ok in zip(cq.subqueries, lt_allowed):
            if lid not in sq.logtype_ids:
                continue
            if ok is not None and lid not in ok:
                continue  # segment index: this logtype's cells can't match
            pos_sets = align_positions(ph, sq.var_cond_types)
            if pos_sets is None:
                continue
            # conds beyond the typed ones (none today) would break the
            # parallel-list assumption; guard it
            if len(sq.var_conds) != len(sq.var_cond_types):
                specs.append(((), ()))
            else:
                specs.append((tuple(sq.var_conds), tuple(pos_sets)))
        if not specs:
            continue
        filter_cols = sorted({
            j for conds, pos_sets in specs for ps in pos_sets for j in ps
        })
        d = os.path.join(glt_dir, name)
        items += [(os.path.join(d, f), lid) for f in sorted(os.listdir(d))
                  if f.endswith(".parquet")]
        spec_by_lid[lid] = (templ, len(ph), specs, filter_cols)

    out_schema = plan.empty.schema
    # the dedicated tables scan in this process at most
    # execution.LOCAL_SCAN_BYTES, as a row plan does; a Ray job gets the
    # specs and dicts broadcast once, not pickled per task
    local = choose("scan",
                   sum(os.path.getsize(p) for p, _ in items)) == "local"
    spec_src, dict_src = spec_by_lid, dicts._replace(var_classes=None)
    if not local:
        spec_src, dict_src = ray.put(spec_src), ray.put(dict_src)

    def scan_dedicated(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        spec_map = resolve(spec_src)
        d = resolve(dict_src)
        out = []
        for path, lid in zip(batch.column("path").to_pylist(),
                             batch.column("lid").to_pylist()):
            templ, k, specs, filter_cols = spec_map[lid]
            all_var_cols = [f"var_{j}" for j in range(k)]
            pf = pq.ParquetFile(path)
            col_index = {}
            if pf.metadata.num_row_groups:
                rg0 = pf.metadata.row_group(0)
                col_index = {rg0.column(i).path_in_schema: i
                             for i in range(rg0.num_columns)}
            for rg in range(pf.metadata.num_row_groups):
                if filter_cols and not _rg_can_match(
                    pf.metadata.row_group(rg), col_index, specs
                ):
                    continue
                t = pf.read_row_group(
                    rg, columns=["conv_id", "turn_idx"]
                    + [f"var_{j}" for j in filter_cols]
                )
                n = len(t)
                if n == 0:
                    continue
                cols = {j: np.asarray(t.column(f"var_{j}"), dtype=np.int64)
                        for j in filter_cols}
                keep = _rows_matching_positions(cols, n, k, specs)
                if not keep.any():
                    continue
                idx = np.flatnonzero(keep)
                # late materialization: remaining var columns only for hits
                if k:
                    full = pf.read_row_group(rg, columns=all_var_cols)
                    mat = np.column_stack([
                        np.asarray(full.column(c), dtype=np.int64)
                        for c in all_var_cols
                    ])[idx]
                else:
                    mat = np.zeros((len(idx), 0), dtype=np.int64)
                nh = len(idx)
                offs = pa.array(np.arange(nh + 1, dtype=np.int32) * k)
                ev = pa.ListArray.from_arrays(offs, pa.array(mat.ravel()))
                templ_arr = pa.array([templ] * nh, type=pa.large_string())
                text = decode_batch(templ_arr, ev, dict_ids=d.var_ids,
                                    dict_values=d.var_values)
                m = pc.match_substring_regex(text, rx)
                hit = pa.table({
                    "conv_id": t.column("conv_id").take(pa.array(idx)),
                    "turn_idx": t.column("turn_idx").take(pa.array(idx)),
                    "text": text,
                }).filter(m)
                if hit.num_rows:
                    out.append(hit)
        if not out:
            return plan.empty
        return pa.concat_tables(out).cast(out_schema)

    pieces = []
    if items:
        files = pa.table({
            "path": pa.array([p for p, _ in items]),
            "lid": pa.array([lid for _, lid in items], type=pa.int64()),
        })
        if local:
            pieces.append(rd.from_arrow(scan_dedicated(files)))
        else:
            # one file per block → file-level parallelism for the scanners
            dds = rd.from_arrow(files).repartition(len(items))
            pieces.append(dds.map_batches(scan_dedicated,
                                          batch_format="pyarrow"))

    misc = os.path.join(glt_dir, "misc")
    misc_files = ([os.path.join(misc, f) for f in sorted(os.listdir(misc))
                   if f.endswith(".parquet")] if os.path.isdir(misc) else [])
    if misc_files:
        pieces.append(_run_plans([plan._replace(
            files=misc_files,
            nbytes=sum(os.path.getsize(f) for f in misc_files))]))

    return _union(pieces, plan.empty)
