"""Driver-style correctness sweep: run every queries() entry at a given SF and
compare against oracle_sql() via DuckDB (sorted columns, sorted rows,
stringified value compare). Usage: python tools/check_correctness.py [sf_dir]
Imports the package from the checkout this script lives in.
"""
import os
import sys

import ray

ray.init(address="local", num_cpus=int(os.environ.get("CHECK_CPUS", "16")), include_dashboard=False, log_to_driver=False)

import duckdb  # noqa: E402
import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entry  # noqa: E402

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_df(res):
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    # Dataset: concat pyarrow batches; an empty Dataset keeps its schema
    # (Dataset.to_pandas() returns a column-less frame when no blocks exist)
    tabs = [pa.table(b) for b in res.iter_batches(batch_format="pyarrow")]
    if tabs:
        return pa.concat_tables(tabs).to_pandas()
    sch = res.schema()
    return pa.table({n: pa.array([], type=t)
                     for n, t in zip(sch.names, sch.types)}).to_pandas()


def main():
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    qs = entry.queries()
    if len(sys.argv) > 2:  # optional name-substring filters
        pats = sys.argv[2:]
        qs = {k: v for k, v in qs.items() if any(p in k for p in pats)}
    # rebind the transcript glob to THIS sf (entry.oracle_sql() pins sf0.01,
    # which is what the driver runs; locally we sweep other scales too)
    from clp_core_ray.pipelines.queries import oracle_map
    oracles = oracle_map(sf)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    fails = []
    for name, fn in sorted(qs.items()):
        try:
            df = to_df(fn(sf))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(ex).__name__}: {str(ex)[:120]}")
            fails.append(name)
            continue
        if name not in oracles:
            print(f"ok   {name}: rows={len(df)} (no_oracle)")
            continue
        try:
            odf = con.execute(oracles[name]).fetchdf()
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {str(ex)[:120]}")
            fails.append(name)
            continue
        cols = sorted(df.columns)
        if cols != sorted(odf.columns):
            print(f"FAIL {name}: columns {cols} != {sorted(odf.columns)}")
            fails.append(name)
            continue
        a = df[cols].sort_values(cols).reset_index(drop=True)
        b = odf[cols].sort_values(cols).reset_index(drop=True)
        if a.shape != b.shape:
            print(f"FAIL {name}: shape {a.shape} != {b.shape}")
            fails.append(name)
            continue
        same = (a.astype(str).values == b.astype(str).values).all()
        if same:
            print(f"ok   {name}: rows={len(a)} hash-match")
        else:
            bad = (a.astype(str).values != b.astype(str).values).any(axis=1)
            print(f"FAIL {name}: {int(bad.sum())}/{len(a)} rows differ; first: "
                  f"{a[bad].head(2).to_dict()} vs {b[bad].head(2).to_dict()}")
            fails.append(name)
    print(f"\n{len(qs) - len(fails)}/{len(qs)} green; fails: {fails}")
    ray.shutdown()
    sys.exit(1 if fails else 0)


main()
