"""Structured-search filter compiler (clp_s search pipeline, SURVEY.md §2.12).

Mirrors the clp_s AST pass chain (clp-s.cpp:140-271) in miniature:

    parse (KQL-ish)  →  DNF (OrOfAndForm)  →  schema pruning (SchemaMatch)
                     →  pyarrow.compute evaluation (Output.filter)

Filter operations: EXISTS / NEXISTS / EQ / NEQ / LT / GT / LTE / GTE
(FilterOperation.hpp:8-17); values with ``*``/``?`` wildcards become
wildcard matches. Schema pruning: a conjunction requiring path P can skip
every schema table whose leaf set lacks P — the Ray-side analogue of
clp_s's schema-match pass.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc


# ---- AST -------------------------------------------------------------------


@dataclass
class Pred:
    op: str  # eq neq lt gt lte gte exists nexists
    path: str
    value: object = None


@dataclass
class Bool:
    op: str  # and / or / not
    args: list


# ---- KQL parser ------------------------------------------------------------
#
# Full port of the reference KQL grammar (clp_s/search/kql/Kql.g4) and its
# ANTLR visitor (kql/kql.cpp): nested queries `col: {q}`, value-only search
# (pure-wildcard column), value lists `col: (a or b)`, date literals,
# range operators, and the escape semantics of
# StringUtils::unescape_kql_internal / tokenize_column_descriptor
# (clp_s/Utils.cpp:670-782, 520-575). Precedence mirrors the ANTLR
# left-recursive rule: AND and OR share one precedence level (left-assoc)
# and NOT binds tighter than both. The reference's SQL grammar
# (clp_s/search/sql/Sql.g4) is an empty work-in-progress stub
# (`start: EOF`), so KQL is the only real structured-query frontend.

_SIMPLE_UNESCAPES = {
    '"': '"', "t": "\t", "r": "\r", "n": "\n", "b": "\b", "f": "\f",
    "{": "{", "}": "}", "(": "(", ")": ")", "<": "<", ">": ">",
}


def unescape_kql_value(s: str, is_value: bool = True) -> str:
    """StringUtils::unescape_kql_value (clp_s/Utils.cpp:670-782).

    Decodes `\\t`-style escapes; wildcard characters that were escaped (or
    arrived via `\\uXXXX`) STAY escaped in the output so downstream wildcard
    matching treats them as literals. Raises ValueError on invalid escapes.
    """
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError(f"dangling escape in {s!r}")
        e = s[i + 1]
        i += 2
        if e == "\\":
            out.append("\\\\")
        elif e in _SIMPLE_UNESCAPES:
            out.append(_SIMPLE_UNESCAPES[e])
        elif e == "*":
            out.append("\\*")
        elif e == "?":
            out.append("\\?" if is_value else "?")
        elif e == "u":
            if i + 4 > n:
                raise ValueError(f"truncated unicode escape in {s!r}")
            ch = chr(int(s[i:i + 4], 16))
            i += 4
            # unicode escapes are always literal characters
            if ch == "\\":
                out.append("\\\\")
            elif ch == "?" and is_value:
                out.append("\\?")
            elif ch == "*":
                out.append("\\*")
            else:
                out.append(ch)
        else:
            raise ValueError(f"invalid escape \\{e} in {s!r}")
    return "".join(out)


def tokenize_column_descriptor(desc: str) -> list[str]:
    """Split a column path on unescaped dots (clp_s/Utils.cpp:520-575).

    `a\\.b.c` → ["a.b", "c"]; empty tokens (`.a`, `a.`, `a..c`) raise.
    """
    toks: list[str] = []
    cur: list[str] = []
    i, n = 0, len(desc)
    while i < n:
        c = desc[i]
        if c == "\\":
            if i + 1 >= n:
                raise ValueError(f"dangling escape in column {desc!r}")
            nxt = desc[i + 1]
            cur.append("." if nxt == "." else "\\" + nxt)
            i += 2
        elif c == ".":
            if not cur:
                raise ValueError(f"empty token in column {desc!r}")
            toks.append(unescape_kql_value("".join(cur), is_value=False))
            cur = []
            i += 1
        else:
            cur.append(c)
            i += 1
    if not cur:
        raise ValueError(f"empty token in column {desc!r}")
    toks.append(unescape_kql_value("".join(cur), is_value=False))
    return toks


def clean_up_wildcard_search_string(s: str) -> str:
    """Collapse runs of unescaped '*' (string_utils clean_up_wildcard_...)."""
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            out.append(s[i:i + 2])
            i += 2
        elif c == "*":
            if not out or out[-1] != "*":
                out.append("*")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


_INT_RX = re.compile(r"-?\d+\Z")
_FLOAT_RX = re.compile(r"-?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+|\d+\.\d*[eE][+-]?\d+)\Z")


def _typed_literal(token: str):
    """Integral/Boolean/Null/String literal typing (kql.cpp unquote_literal)."""
    if _INT_RX.match(token):
        return int(token)
    if _FLOAT_RX.match(token):
        return float(token)
    if token in ("true", "false"):
        return token == "true"
    if token == "null":
        return None
    return clean_up_wildcard_search_string(token)


def _parse_date_literal(text: str):
    """date(...) → epoch millis via the known-timestamp-pattern table
    (DateLiteral::create_from_string → TimestampPattern::search_known_...)."""
    inner = text[5:-1]
    if inner.startswith('"') and inner.endswith('"') and len(inner) >= 2:
        inner = inner[1:-1]
    inner = unescape_kql_value(inner)
    if _INT_RX.match(inner):
        return int(inner)
    if _FLOAT_RX.match(inner):
        return float(inner)
    import pyarrow as _pa

    from clp_core_ray.timestamps import parse_and_strip

    got = parse_and_strip(_pa.array([inner]))
    ts = got["ts_ms"][0].as_py()
    if ts is None:
        raise ValueError(f"unparseable date literal: {text!r}")
    return ts


# lexer: ( ) { } : range-ops, AND/OR/NOT (case-insensitive), date(...),
# quoted strings, unquoted literals (excluding \():<>"{} and whitespace)
_LEX = re.compile(
    r"""\s*(?:
        (?P<lpar>\()|(?P<rpar>\))|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<colon>:)
        |(?P<range><=|>=|<|>)
        |(?P<date>date\(\s*(?:"(?:\\.|[^"])*"|[^)\s]+)\s*\))
        |(?P<quoted>"(?:\\.|[^"])*")
        |(?P<unquoted>(?:\\.|[^\\():<>"{}\s])+)
    )""",
    re.X,
)
_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT"}


def _lex_kql(q: str) -> list[tuple[str, str]]:
    toks: list[tuple[str, str]] = []
    pos = 0
    while pos < len(q):
        if q[pos].isspace():
            pos += 1
            continue
        m = _LEX.match(q, pos)
        if not m:
            raise ValueError(f"cannot lex query at: {q[pos:]!r}")
        pos = m.end()
        kind = m.lastgroup
        text = m.group(kind)
        if kind == "unquoted" and text.lower() in _KEYWORDS:
            toks.append((_KEYWORDS[text.lower()], text))
        elif kind in ("quoted", "unquoted"):
            toks.append(("LIT", text))
        elif kind == "date":
            toks.append(("DATE", text))
        elif kind == "range":
            toks.append(("RANGE", text))
        else:
            toks.append((kind.upper(), text))
    return toks


def _unquote(text: str) -> str:
    if text.startswith('"'):
        return text[1:-1]
    return text


_RANGE_OPS = {"<": "lt", ">": "gt", "<=": "lte", ">=": "gte"}


def _prefix_paths(node, prefix: str):
    if isinstance(node, Pred):
        path = prefix if node.path == "" else (
            node.path if prefix == "" else f"{prefix}.{node.path}")
        return Pred(node.op, path, node.value)
    return Bool(node.op, [_prefix_paths(a, prefix) for a in node.args])


def _make_filter(path: str, op: str, value):
    """FilterExpr::create analogue: pure-wildcard EQ value → EXISTS."""
    if op == "eq" and isinstance(value, str) and value == "*":
        return Pred("exists", path)
    return Pred(op, path, value)


def parse_kql(q: str):
    """Parse a KQL query into the Pred/Bool AST (grammar: Kql.g4).

    Supports `path: value`, `path: (a or b)`, `path: {nested}`, range
    comparisons (`path > n`, also on `date(...)` literals), value-only
    search (bare literal → pure-wildcard column), AND/OR/NOT (one shared
    precedence level for AND/OR, left-assoc; NOT binds tighter), escapes,
    and quoted columns/values. `path: *` means EXISTS.
    """
    toks = _lex_kql(q)
    n = len(toks)
    pos = 0

    def peek():
        return toks[pos][0] if pos < n else None

    def take(kind):
        nonlocal pos
        if pos >= n or toks[pos][0] != kind:
            got = toks[pos][0] if pos < n else "end"
            raise ValueError(f"expected {kind}, got {got} in {q!r}")
        pos += 1
        return toks[pos - 1][1]

    def parse_query():
        node = parse_unary()
        while peek() in ("AND", "OR"):
            op = take(peek()).lower()
            op = "and" if op == "and" else "or"
            rhs = parse_unary()
            if isinstance(node, Bool) and node.op == op:
                node.args.append(rhs)
            else:
                node = Bool(op, [node, rhs])
        return node

    def parse_unary():
        if peek() == "NOT":
            take("NOT")
            return Bool("not", [parse_unary()])
        if peek() == "LPAR":
            take("LPAR")
            node = parse_query()
            take("RPAR")
            return node
        return parse_expression()

    def parse_expression():
        nonlocal pos
        if peek() == "DATE":  # bare date literal → value-only search
            return _make_filter("*", "eq", _parse_date_literal(take("DATE")))
        lit = take("LIT")
        if peek() == "COLON":
            take("COLON")
            path = ".".join(tokenize_column_descriptor(_unquote(lit)))
            if peek() == "LBRACE":  # NestedQuery: col: { q }
                take("LBRACE")
                inner = parse_query()
                take("RBRACE")
                return _prefix_paths(inner, path)
            if peek() == "LPAR":  # list_of_values: col: (and|or|not? lit*)
                take("LPAR")
                mode = "or"
                invert_each = False
                if peek() in ("AND", "OR", "NOT"):
                    kw = take(peek())
                    lk = kw.lower()
                    if lk == "and":
                        mode = "and"
                    elif lk == "not":
                        mode, invert_each = "and", True
                preds = []
                while peek() == "LIT":
                    v = _typed_literal(unescape_kql_value(_unquote(take("LIT"))))
                    p = _make_filter(path, "eq", v)
                    preds.append(Bool("not", [p]) if invert_each else p)
                take("RPAR")
                if not preds:
                    raise ValueError(f"empty value list in {q!r}")
                return preds[0] if len(preds) == 1 else Bool(mode, preds)
            if peek() == "DATE":
                return _make_filter(path, "eq", _parse_date_literal(take("DATE")))
            val = take("LIT")
            v = _typed_literal(unescape_kql_value(_unquote(val)))
            return _make_filter(path, "eq", v)
        if peek() == "RANGE":
            op = _RANGE_OPS[take("RANGE")]
            path = ".".join(tokenize_column_descriptor(_unquote(lit)))
            if peek() == "DATE":
                return Pred(op, path, _parse_date_literal(take("DATE")))
            v = _typed_literal(unescape_kql_value(_unquote(take("LIT"))))
            if isinstance(v, str):
                raise ValueError(f"non-numeric range operand in {q!r}")
            return Pred(op, path, v)
        # value_expression: bare literal → pure-wildcard column
        return _make_filter("*", "eq", _typed_literal(unescape_kql_value(_unquote(lit))))

    node = parse_query()
    if pos != n:
        raise ValueError(f"trailing tokens in query: {q!r}")
    return node


# ---- DNF (OrOfAndForm pass) ------------------------------------------------


def to_dnf(node) -> list[list[Pred]]:
    """AST → list of conjunctions of predicates (negations pushed inward)."""

    def push_not(n, neg=False):
        if isinstance(n, Pred):
            if not neg:
                return n
            flip = {"eq": "neq", "neq": "eq", "lt": "gte", "gte": "lt",
                    "gt": "lte", "lte": "gt", "exists": "nexists",
                    "nexists": "exists"}
            return Pred(flip[n.op], n.path, n.value)
        if n.op == "not":
            return push_not(n.args[0], not neg)
        op = n.op if not neg else ("or" if n.op == "and" else "and")
        return Bool(op, [push_not(a, neg) for a in n.args])

    def cross(n) -> list[list[Pred]]:
        if isinstance(n, Pred):
            return [[n]]
        if n.op == "and":
            acc = [[]]
            for a in n.args:
                acc = [x + y for x in acc for y in cross(a)]
            return acc
        return [c for a in n.args for c in cross(a)]

    return cross(push_not(node))


# ---- evaluation ------------------------------------------------------------


def _has_unescaped_wildcard(v: str) -> bool:
    i = 0
    while i < len(v):
        if v[i] == "\\":
            i += 2
        elif v[i] in "*?":
            return True
        else:
            i += 1
    return False


def _strip_escapes(v: str) -> str:
    out = []
    i = 0
    while i < len(v):
        if v[i] == "\\" and i + 1 < len(v):
            out.append(v[i + 1])
            i += 2
        else:
            out.append(v[i])
            i += 1
    return "".join(out)


def _wildcardish(v) -> bool:
    return isinstance(v, str) and _has_unescaped_wildcard(v)


def _path_is_wildcard(path: str) -> bool:
    return _has_unescaped_wildcard(path)


def _wildcard_path_columns(batch: pa.Table, path: str) -> list[str]:
    """Columns of the flattened view whose dotted path matches a wildcard
    descriptor. A lone `*` token spans one-or-more levels (ColumnDescriptor
    wildcard); wildcards inside a token stay within that level."""
    parts = []
    for tok in path.split("."):
        if tok == "*":
            parts.append(r"[^.]+(?:\.[^.]+)*")
        else:
            seg = []
            i = 0
            while i < len(tok):
                c = tok[i]
                if c == "\\" and i + 1 < len(tok):
                    seg.append(re.escape(tok[i + 1]))
                    i += 2
                elif c == "*":
                    seg.append(r"[^.]*")
                    i += 1
                elif c == "?":
                    seg.append(r"[^.]")
                    i += 1
                else:
                    seg.append(re.escape(c))
                    i += 1
            parts.append("".join(seg))
    rx = re.compile(r"\.".join(parts) + r"\Z")
    return [c for c in batch.column_names if rx.match(c)]


def eval_pred(batch: pa.Table, p: Pred) -> pa.Array:
    if _path_is_wildcard(p.path):
        # clp_s wildcard-column semantics (Output::evaluate_filter): the
        # record matches if ANY matching column satisfies the (possibly
        # inverted) operation.
        out = None
        for name in _wildcard_path_columns(batch, p.path):
            m = eval_pred(batch, Pred(p.op, name, p.value))
            out = m if out is None else pc.or_(out, m)
        if out is not None:
            return out
        return pa.array([p.op == "nexists"] * len(batch))
    cols = set(batch.column_names)
    if p.op == "exists":
        return (pc.is_valid(batch.column(p.path)) if p.path in cols
                else pa.array([False] * len(batch)))
    if p.op == "nexists":
        return (pc.is_null(batch.column(p.path)) if p.path in cols
                else pa.array([True] * len(batch)))
    if p.path not in cols:
        return pa.array([False] * len(batch))
    col = batch.column(p.path)
    v = p.value
    if p.op in ("eq", "neq"):
        if v is None:  # null literal
            m = pc.is_null(col)
            return pc.invert(m) if p.op == "neq" else m
        if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            try:
                v = float(v) if pa.types.is_floating(col.type) else int(v)
            except (TypeError, ValueError):
                return pa.array([p.op == "neq"] * len(batch))
            m = pc.equal(col, v)
        elif pa.types.is_boolean(col.type):
            if isinstance(v, bool):
                m = pc.equal(col, v)
            else:
                m = pc.equal(col, str(v).lower() in ("true", "1"))
        elif _wildcardish(v):
            from clp_core_ray.pipelines.search import wildcard_match

            m = wildcard_match(col, v)
        else:
            sv = _strip_escapes(v) if isinstance(v, str) else str(v)
            m = pc.equal(col, sv)
        m = pc.fill_null(m, False)
        return pc.invert(m) if p.op == "neq" else m
    rel = {"lt": pc.less, "gt": pc.greater, "lte": pc.less_equal,
           "gte": pc.greater_equal}[p.op]
    try:
        v = float(v) if pa.types.is_floating(col.type) else int(v)
    except (TypeError, ValueError):
        return pa.array([False] * len(batch))
    return pc.fill_null(rel(col, v), False)


def eval_dnf(batch: pa.Table, dnf: list[list[Pred]]) -> pa.Array:
    out = None
    for conj in dnf:
        m = None
        for p in conj:
            pm = eval_pred(batch, p)
            m = pm if m is None else pc.and_(m, pm)
        out = m if out is None else pc.or_(out, m)
    return out if out is not None else pa.array([True] * len(batch))


def conj_required_paths(conj: list[Pred]) -> set[str]:
    """Paths a record MUST have for this conjunction to hold (prunes schemas).

    Wildcard paths can't be required exactly — they never prune."""
    return {p.path for p in conj
            if p.op in ("eq", "lt", "gt", "lte", "gte", "exists")
            and not _path_is_wildcard(p.path)}


# ---- clp_s archive search ---------------------------------------------------


def _storage_columns(file_cols: set, meta: dict, leaf_paths) -> list[str]:
    """Leaf paths → the physical parquet columns that materialize them
    (ClpString leaves fan out to their 4 encoded columns)."""
    enc = set(json.loads(meta.get("clp_encoded", "[]")))
    cols: list[str] = []
    for p in leaf_paths:
        safe = p.replace("/", "_")
        if safe in enc:
            cols += [f"{safe}\x00{s}"
                     for s in ("logtype", "vars", "dictvars", "isnull")]
        elif safe in file_cols:
            cols.append(safe)
    return cols


def clps_search(out_dir: str, query: str,
                ts_range: tuple[float, float] | None = None,
                projection: list[str] | None = None):
    """Search a clp_s archive → Dataset[(log_event_idx, json)] of hits.

    Driver work is footer-metadata-only: schema tables whose leaf sets cannot
    satisfy any conjunction are skipped (SchemaMatch pruning), and the
    timestamp range index prunes before any data pages are read
    (EvaluateTimestampIndex). Surviving tables are scanned by map tasks —
    ClpString leaves decoded, pyarrow.compute filter, hits serialized back to
    JSON lines (Output.filter → result sink).

    ``projection`` (clp-s search --projection, the Projection AST pass at
    clp-s.cpp:239 / search/Projection.cpp): output JSON carries only the
    named column paths; paths absent from a record's schema are omitted.
    Beyond output shaping it prunes I/O — each schema table is read with
    ONLY the predicate + projected columns (ClpString leaves expand to their
    encoded quintuple), so unprojected columns never leave storage."""
    import ray.data as rd
    import pyarrow.parquet as pq

    from clp_core_ray.pipelines.clps import (
        _decoded_view,
        _schema_files,
        _serialize_schema_table,
    )

    if projection is not None and not projection:
        raise ValueError("projection must name at least one column path")
    from clp_core_ray.pipelines.sfa import open_source

    dnf = to_dnf(parse_kql(query))
    work: list[dict] = []
    for path in _schema_files(out_dir):
        pf = pq.ParquetFile(open_source(path))
        meta = {
            k.decode(): v.decode()
            for k, v in (pf.schema_arrow.metadata or {}).items()
        }
        ts_preds: list[Pred] = []
        if ts_range is not None and "ts_min" in meta:
            lo, hi = ts_range
            if float(meta["ts_max"]) < lo or float(meta["ts_min"]) > hi:
                continue
            # AddTimestampConditions pass: row-level ts predicates on the
            # designated timestamp leaf of surviving tables; string-dated
            # archives carry a hidden parsed epoch-ms column (ts_string flag)
            ts_key = meta.get("ts_key")
            if ts_key:
                pred_path = ("\x00ts_ms" if meta.get("ts_string") == "1"
                             else ts_key)
                ts_preds = [Pred("gte", pred_path, lo),
                            Pred("lte", pred_path, hi)]
        leaf_paths = {k.split(":")[0] for k in json.loads(meta.get("schema_key", "[]"))}
        viable = [c + ts_preds for c in dnf if conj_required_paths(c) <= leaf_paths]
        if not viable:
            continue
        read_cols = None
        if projection is not None:
            pred_paths, wildcard = set(), False
            for conj in viable:
                for p in conj:
                    if _path_is_wildcard(p.path):
                        wildcard = True
                    else:
                        pred_paths.add(p.path)
            if not wildcard:  # a wildcard predicate may touch any column
                file_cols = set(pf.schema_arrow.names)
                read_cols = sorted(
                    {"log_event_idx"}
                    | set(_storage_columns(file_cols, meta,
                                           pred_paths | set(projection)))
                )
        work.append({"path": path, "viable": json.dumps(_dnf_to_json(viable)),
                     "cols": json.dumps(read_cols)})

    proj_safe = ([p.replace("/", "_") for p in projection]
                 if projection is not None else None)

    def scan(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as _pq

        tbls = []
        from clp_core_ray.pipelines.sfa import open_source as _open

        for path, viable_js, cols_js in zip(batch.column("path").to_pylist(),
                                            batch.column("viable").to_pylist(),
                                            batch.column("cols").to_pylist()):
            read_cols = json.loads(cols_js)
            t = _pq.read_table(_open(path), columns=read_cols)
            meta = {k.decode(): v.decode() for k, v in (t.schema.metadata or {}).items()}
            view = _decoded_view(t, meta)
            viable = _dnf_from_json(json.loads(viable_js))
            mask = eval_dnf(view, viable)
            hits = view.filter(pc.fill_null(mask, False))
            if len(hits) == 0:
                continue
            if proj_safe is not None:
                keep = ["log_event_idx"] + [
                    s for s in proj_safe if s in hits.column_names]
                hits = hits.select(keep)
            tbls.append(pa.table({
                "log_event_idx": hits.column("log_event_idx").combine_chunks(),
                "json": _serialize_schema_table(hits),
            }))
        return pa.concat_tables(tbls) if tbls else pa.table(
            {"log_event_idx": pa.array([], type=pa.int64()),
             "json": pa.array([], type=pa.large_string())})

    if not work:
        return rd.from_arrow(pa.table(
            {"log_event_idx": pa.array([], type=pa.int64()),
             "json": pa.array([], type=pa.large_string())}))
    return rd.from_items(work).map_batches(scan, batch_format="pyarrow")


def clps_search_multi(out_dir: str, queries: list[str],
                      ts_range: tuple[float, float] | None = None):
    """Batched KQL search over a clp_s archive: N queries, each schema table
    read and ClpString-decoded ONCE; per-query DNF masks evaluate over the
    shared decoded view and JSON re-serialization — the other dominant
    kernel — runs once over the union of hit rows. Schema-set and timestamp
    pruning stay per query (a query whose required paths no schema can
    satisfy never reaches any scan). Returns
    Dataset[(query_idx, log_event_idx, json)].
    """
    import ray.data as rd
    import pyarrow.parquet as pq

    from clp_core_ray.pipelines.clps import (
        _decoded_view,
        _schema_files,
        _serialize_schema_table,
    )

    from clp_core_ray.pipelines.sfa import open_source

    dnfs = [to_dnf(parse_kql(q)) for q in queries]
    work: list[dict] = []
    for path in _schema_files(out_dir):
        pf = pq.ParquetFile(open_source(path))
        meta = {
            k.decode(): v.decode()
            for k, v in (pf.schema_arrow.metadata or {}).items()
        }
        ts_preds: list[Pred] = []
        if ts_range is not None and "ts_min" in meta:
            lo, hi = ts_range
            if float(meta["ts_max"]) < lo or float(meta["ts_min"]) > hi:
                continue
            ts_key = meta.get("ts_key")
            if ts_key:
                pred_path = ("\x00ts_ms" if meta.get("ts_string") == "1"
                             else ts_key)
                ts_preds = [Pred("gte", pred_path, lo),
                            Pred("lte", pred_path, hi)]
        leaf_paths = {k.split(":")[0]
                      for k in json.loads(meta.get("schema_key", "[]"))}
        plans = []
        for qi, dnf in enumerate(dnfs):
            viable = [c + ts_preds for c in dnf
                      if conj_required_paths(c) <= leaf_paths]
            if viable:
                plans.append([qi, _dnf_to_json(viable)])
        if plans:
            work.append({"path": path, "plans": json.dumps(plans)})

    def _empty_tbl() -> pa.Table:
        return pa.table({
            "query_idx": pa.array([], type=pa.int64()),
            "log_event_idx": pa.array([], type=pa.int64()),
            "json": pa.array([], type=pa.large_string())})

    def scan(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.parquet as _pq

        tbls = []
        from clp_core_ray.pipelines.sfa import open_source as _open

        for path, plans_js in zip(batch.column("path").to_pylist(),
                                  batch.column("plans").to_pylist()):
            t = _pq.read_table(_open(path))
            meta = {k.decode(): v.decode()
                    for k, v in (t.schema.metadata or {}).items()}
            view = _decoded_view(t, meta)
            masks = []
            for qi, viable_js in json.loads(plans_js):
                m = pc.fill_null(eval_dnf(view, _dnf_from_json(viable_js)),
                                 False)
                masks.append((qi, np.asarray(m, dtype=bool)))
            union = np.logical_or.reduce([m for _, m in masks])
            if not union.any():
                continue
            u_idx = np.flatnonzero(union)
            hits_u = view.take(pa.array(u_idx))
            js_u = _serialize_schema_table(hits_u)
            lei_u = hits_u.column("log_event_idx").combine_chunks()
            for qi, m in masks:
                sub = pa.array(m[u_idx])
                base = pa.table({
                    "query_idx": pa.array(
                        np.full(len(u_idx), qi, dtype=np.int64)),
                    "log_event_idx": lei_u,
                    "json": js_u})
                tbls.append(base.filter(sub))
        return pa.concat_tables(tbls) if tbls else _empty_tbl()

    if not work:
        return rd.from_arrow(_empty_tbl())
    return rd.from_items(work).map_batches(scan, batch_format="pyarrow")


def _dnf_to_json(dnf: list[list[Pred]]) -> list:
    return [[{"op": p.op, "path": p.path, "value": p.value} for p in c] for c in dnf]


def _dnf_from_json(data: list) -> list[list[Pred]]:
    return [[Pred(d["op"], d["path"], d.get("value")) for d in c] for c in data]
