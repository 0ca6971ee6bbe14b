"""Text-analysis operators for training-data pipelines (all vectorized).

Language-ID (stopword heuristic), quality/char stats, token counting, and
document fingerprinting (content hash). Everything runs as map_batches over
Arrow batches; the only Python-level loops are over languages (constant).
"""

from __future__ import annotations

import numpy as np

from clp_core_ray.pipelines.aggregate import \
    sql_round as _sql_round
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray.state.atomic import inprogress_path
from clp_core_ray.vec.tokenizer import _cumsum0, _fnv1a64_tokens, _string_buffers

STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for", "on",
           "with", "as", "was", "at", "by"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "von",
           "mit", "auf", "für", "im", "nicht"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "du", "dans",
           "pour", "que", "qui", "au", "pas"},
    "es": {"el", "la", "los", "las", "de", "y", "es", "un", "una", "del", "en",
           "por", "que", "no", "con", "para"},
}


def token_counts(texts: pa.Array) -> pa.Array:
    """Whitespace-token count, matching duckdb
    array_length(regexp_split_to_array(trim(text), '\\s+'))."""
    trimmed = pc.utf8_trim_whitespace(texts)
    return pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")).cast(pa.int64())


def char_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer quality features: n_chars, n_tokens, n_digits, n_upper, n_spaces."""
    t = batch.column(text_col)
    return batch.append_column("n_chars_calc", pc.utf8_length(t).cast(pa.int64())) \
        .append_column("n_tokens", token_counts(t)) \
        .append_column("n_digits", pc.count_substring_regex(t, "[0-9]").cast(pa.int64())) \
        .append_column("n_upper", pc.count_substring_regex(t, "[A-Z]").cast(pa.int64())) \
        .append_column("n_spaces", pc.count_substring(t, " ").cast(pa.int64()))


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality score in [0,1]: length, word-length, alpha ratio.

    (The usual pre-training quality gates — Gopher-style length/punct rules —
    reduced to deterministic integer-friendly arithmetic.)"""
    t = batch.column(text_col)
    n_chars = pc.utf8_length(t).cast(pa.float64())
    n_tokens = pc.cast(token_counts(t), pa.float64())
    n_alpha = pc.cast(pc.count_substring_regex(t, "[A-Za-z]"), pa.float64())
    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1.0))
    safe_tokens = pc.max_element_wise(n_tokens, pa.scalar(1.0))
    alpha_ratio = pc.divide(n_alpha, safe_chars)
    avg_word = pc.divide(safe_chars, safe_tokens)
    len_ok = pc.and_(pc.greater_equal(n_tokens, 5), pc.less_equal(n_tokens, 10000))
    word_ok = pc.and_(pc.greater_equal(avg_word, 2.0), pc.less_equal(avg_word, 15.0))
    score = pc.multiply(
        alpha_ratio,
        pc.cast(pc.and_(len_ok, word_ok), pa.float64()),
    )
    return batch.append_column("quality_score", score)


def _lower_words(texts: pa.Array):
    words = pc.split_pattern_regex(pc.utf8_lower(texts), r"[^a-zà-ÿ]+")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    offsets = np.asarray(words.offsets, dtype=np.int64)
    return words.flatten(), offsets - offsets[0]


def lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-ratio language ID over {en,de,fr,es}; 'und' when no signal."""
    flat, offsets = _lower_words(batch.column(text_col))
    n = len(batch)
    counts = np.diff(offsets).astype(np.float64)
    counts[counts == 0] = 1.0
    scores = np.zeros((len(STOPWORDS), n))
    langs = list(STOPWORDS)
    for i, lang in enumerate(langs):
        hit = pc.is_in(flat, value_set=pa.array(sorted(STOPWORDS[lang])))
        hits = np.asarray(hit, dtype=np.float64)
        sums = np.add.reduceat(hits, offsets[:-1].clip(0, max(len(hits) - 1, 0))) \
            if len(hits) else np.zeros(n)
        # reduceat quirk: empty rows copy the next value; zero them
        empty = np.diff(offsets) == 0
        sums[empty] = 0.0
        scores[i] = sums / counts
    best = scores.argmax(axis=0)
    best_score = scores.max(axis=0)
    pred = np.array(langs, dtype=object)[best]
    pred[best_score < 0.05] = "und"
    return batch.append_column("lang_pred", pa.array(pred.tolist(), type=pa.string()))


def fingerprints(texts: pa.Array) -> pa.Array:
    """64-bit content fingerprint (FNV-1a over whitespace-normalized text)."""
    norm = pc.replace_substring_regex(pc.utf8_trim_whitespace(texts), r"\s+", " ")
    offsets, data = _string_buffers(norm)
    return pa.array(_fnv1a64_tokens(data, offsets[:-1], np.diff(offsets)).view(np.int64))


def word_shingle_hashes(texts: pa.Array, k: int = 3):
    """Per-row arrays of hashed word k-shingles → (flat uint64, row offsets).

    Shingle hash = FNV-1a over the k words joined by a 0x1f separator,
    computed vectorized: hash each word, then combine k consecutive word
    hashes with multiply-xor mixing.
    """
    flat, offsets = _lower_words(texts)
    woff, wdata = _string_buffers(flat)
    whash = _fnv1a64_tokens(wdata, woff[:-1], np.diff(woff)).view(np.uint64)
    n_words = np.diff(offsets)
    # combine k consecutive word hashes within each row
    mix = whash.copy()
    PRIME = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for j in range(1, k):
            shifted = np.empty_like(whash)
            shifted[:-j] = whash[j:]
            shifted[-j:] = 0
            mix = (mix * PRIME) ^ shifted
    # valid shingle starts: positions where the whole k-gram stays in the row
    n_shingles = np.maximum(n_words - (k - 1), 0)
    valid = np.zeros(len(whash) + 1, dtype=np.int64)
    # build a mask of valid shingle positions per row
    keep = np.zeros(len(whash), dtype=bool)
    starts = offsets[:-1]
    for_rows = np.repeat(np.arange(len(n_shingles)), n_shingles)
    pos = np.arange(int(n_shingles.sum())) - np.repeat(
        _cumsum0(n_shingles)[:-1], n_shingles
    )
    keep_idx = np.repeat(starts, n_shingles) + pos
    shingles = mix[keep_idx] if len(keep_idx) else mix[:0]
    sh_offsets = _cumsum0(n_shingles)
    del valid, keep, for_rows
    return shingles, sh_offsets


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals, all integers (hash-exact vs SQL):
    per doc — word count, distinct-word count, top word frequency, top
    bigram frequency (space-split tokens; a doc full of one repeated phrase
    scores high on top_bigram_cnt / n_words).

    Fully vectorized: words are FNV-hashed; per-row mode/distinct counts come
    from one lexsort + run-length pass (rows are the primary sort key, so
    each row's runs are contiguous). Bigram = mix of consecutive word hashes
    within the row. 64-bit hashes stand in for string identity (the same
    assumption MinHash dedup makes)."""
    texts = batch.column(text_col).combine_chunks().fill_null("")
    words = pc.split_pattern(texts, " ")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    woffs = np.asarray(words.offsets, dtype=np.int64)
    woffs = woffs - woffs[0]
    flat = words.flatten()
    soff, sdata = _string_buffers(flat)
    h = _fnv1a64_tokens(sdata, soff[:-1], np.diff(soff)).view(np.uint64)
    n = len(texts)
    n_words = np.diff(woffs)
    rows = np.repeat(np.arange(n, dtype=np.int64), n_words)

    def _mode_distinct(keys: np.ndarray, rws: np.ndarray):
        """(distinct count, max run length) per row for (row, key) pairs."""
        distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        if len(keys) == 0:
            return distinct, top
        order = np.lexsort((keys, rws))
        ks, rs = keys[order], rws[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = (ks[1:] != ks[:-1]) | (rs[1:] != rs[:-1])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, len(ks)))
        run_row = rs[starts]
        distinct += np.bincount(run_row, minlength=n)
        # runs are row-contiguous: max run length per row via reduceat
        row_first = np.searchsorted(run_row, np.arange(n))
        present = np.bincount(run_row, minlength=n) > 0
        safe = row_first.clip(0, len(run_len) - 1)
        mx = np.maximum.reduceat(run_len, safe) if len(run_len) else top
        top[present] = mx[present]
        return distinct, top

    n_distinct, top_word = _mode_distinct(h, rows)

    # bigrams: consecutive word hashes within the same row
    PRIME = np.uint64(0x9E3779B97F4A7C15)
    if len(h) > 1:
        with np.errstate(over="ignore"):
            bg = (h[:-1] * PRIME) ^ h[1:]
        same_row = rows[:-1] == rows[1:]
        _, top_bigram = _mode_distinct(bg[same_row], rows[:-1][same_row])
    else:
        top_bigram = np.zeros(n, dtype=np.int64)

    keep = [nm for nm in batch.column_names if nm != text_col]
    cols = {nm: batch.column(nm) for nm in keep}
    cols["n_words"] = pa.array(n_words)
    cols["n_distinct_words"] = pa.array(n_distinct)
    cols["top_word_cnt"] = pa.array(top_word)
    cols["top_bigram_cnt"] = pa.array(top_bigram)
    return pa.table(cols)


def _explode_terms(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Tokenize (lowercase, single-space split — oracle-reproducible) and
    explode to one (term, id) row per occurrence; empty tokens dropped.
    Shared by inverted_index / tf_df_table so their tokenization can never
    diverge."""
    texts = pc.utf8_lower(
        pc.fill_null(batch.column(text_col).combine_chunks(), ""))
    toks = pc.split_pattern(texts, " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parent = toks.value_parent_indices()
    flat = toks.flatten()
    ids = batch.column(id_col).combine_chunks().take(parent)
    return pa.table({"term": flat, id_col: ids}).filter(
        pc.not_equal(flat, ""))


def _route_terms(t: pa.Table, n_buckets: int) -> pa.Table:
    """Append the term-hash shuffle bucket (FNV-1a & (n_buckets-1))."""
    offsets, data = _string_buffers(t.column("term").combine_chunks())
    h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
    return t.append_column(
        "_bucket", pa.array((h & np.uint64(n_buckets - 1)).astype(np.int32)))


def inverted_index(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   n_buckets: int = 64):
    """Build an inverted index: (term, df, postings) with postings sorted.

    Tokenization is lowercase + single-space split (oracle-reproducible).
    Scale shape: the explode happens inside each batch and is immediately
    deduped to unique (term, doc) pairs — the shuffle carries the index's
    inherent size, not the token stream. Terms hash into ``n_buckets``
    groups (a stopword with millions of postings only fattens its bucket,
    never becomes a per-term task); inside a bucket the postings assembly is
    one lexsort + run offsets + ListArray view, all Arrow kernels.
    """
    def explode(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, id_col)
        t = t.group_by(["term", id_col]).aggregate([])  # local dedupe
        return _route_terms(t, n_buckets)

    def per_bucket(group: pa.Table) -> pa.Table:
        if not len(group):
            return pa.table({
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
                "postings": pa.array([], type=pa.list_(pa.int64())),
            })
        # global dedupe inside the bucket (a doc's text never spans batches
        # here, but keep the operator safe for pre-split inputs)
        g = group.select(["term", id_col]).group_by(
            ["term", id_col]).aggregate([])
        term = g.column("term").combine_chunks()
        codes = pc.dictionary_encode(term)
        tidx = np.asarray(codes.indices, dtype=np.int64)
        docs = np.asarray(pc.cast(g.column(id_col).combine_chunks(),
                                  pa.int64()), dtype=np.int64)
        order = np.lexsort((docs, tidx))
        sidx = tidx[order]
        bounds = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
        offsets = np.r_[bounds, len(sidx)].astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(docs[order]))
        return pa.table({
            "term": term.take(pa.array(order[bounds])),
            "df": pa.array(np.diff(offsets).astype(np.int64)),
            "postings": lists,
        })

    return (ds.select_columns([id_col, text_col])
            .map_batches(explode, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def _term_buckets(terms: list[str], n_buckets: int) -> np.ndarray:
    """FNV-1a bucket of each term — MUST match _route_terms so query-time
    pruning reads the same partitions index build wrote."""
    arr = pa.array([t.lower() for t in terms], type=pa.large_string())
    offsets, data = _string_buffers(arr)
    h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
    return (h & np.uint64(n_buckets - 1)).astype(np.int64)


def write_inverted_index(ds, index_dir: str, *, text_col: str = "text",
                         id_col: str = "doc_id", n_buckets: int = 64,
                         with_stats: bool = False) -> None:
    """Write the inverted index *at rest*: postings hive-partitioned by
    term-hash bucket (``terms/bucket=N/``) — the boolean-retrieval analogue
    of ``build_ivf_index``'s cell layout. A query for k terms reads at most
    k of the ``n_buckets`` partitions off storage; everything else never
    leaves the object store. ``n_buckets`` is recorded alongside so probes
    can't hash into a different layout.

    ``with_stats=True`` writes the ranked-retrieval layout: postings carry
    parallel per-doc term frequencies and document lengths (tf, dl ride the
    posting — 16 B/posting — so BM25 scoring needs NO doc-length side
    table), and the corpus constants (n_docs, total token count) land in
    meta.json for idf/avgdl."""
    import json
    import os

    meta = {"n_buckets": n_buckets, "id_col": id_col}
    if with_stats:
        _write_postings(
            _stats_index(ds, text_col=text_col, id_col=id_col,
                         n_buckets=n_buckets), index_dir, n_buckets)
        n_docs, total_toks = _corpus_stats(ds, text_col)
        meta |= {"with_stats": True, "n_docs": n_docs,
                 "total_toks": total_toks}
    else:
        _write_postings(
            inverted_index(ds, text_col=text_col, id_col=id_col,
                           n_buckets=n_buckets), index_dir, n_buckets)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)


def _corpus_stats(ds, text_col: str) -> tuple[int, int]:
    """(n_docs, total non-empty tokens) via one tiny partial pass."""
    def partial(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(
            pc.fill_null(b.column(text_col).combine_chunks(), ""))
        toks = pc.split_pattern(texts, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        nt = len(flat) - pc.sum(
            pc.equal(flat, "").cast(pa.int64())).as_py() if len(flat) else 0
        return pa.table({"n": pa.array([b.num_rows], type=pa.int64()),
                         "toks": pa.array([nt], type=pa.int64())})

    import ray

    blocks = [t for t in ray.get(
        ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs())
        if t.num_columns]
    tot = pa.concat_tables(blocks)
    return (pc.sum(tot.column("n")).as_py() or 0,
            pc.sum(tot.column("toks")).as_py() or 0)


def _stats_index(ds, *, text_col: str, id_col: str, n_buckets: int):
    """(term, df, postings, tfs, dls) relation — inverted_index's shape
    plus per-posting term frequency and doc length. Same scale shape: the
    per-(term, doc) aggregation happens inside each batch (a doc is one
    row, so tf and dl are batch-local facts), the shuffle routes one row
    per distinct (term, doc) per batch."""
    def explode(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, id_col)
        tf = (t.group_by(["term", id_col])
              .aggregate([("term", "count")])
              .rename_columns(["term", id_col, "tf"]))
        dl = (t.group_by(id_col).aggregate([(id_col, "count")])
              .rename_columns([id_col, "dl"]))
        pos = pc.index_in(tf.column(id_col), dl.column(id_col))
        tf = tf.append_column("dl", pc.take(dl.column("dl"), pos))
        return _route_terms(tf, n_buckets)

    def per_bucket(group: pa.Table) -> pa.Table:
        if not len(group):
            return pa.table({
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
                "postings": pa.array([], type=pa.list_(pa.int64())),
                "tfs": pa.array([], type=pa.list_(pa.int64())),
                "dls": pa.array([], type=pa.list_(pa.int64())),
            })
        term = group.column("term").combine_chunks()
        codes = pc.dictionary_encode(term)
        tidx = np.asarray(codes.indices, dtype=np.int64)
        docs = np.asarray(pc.cast(group.column(id_col).combine_chunks(),
                                  pa.int64()), dtype=np.int64)
        tf = np.asarray(group.column("tf").combine_chunks().cast(pa.int64()),
                        dtype=np.int64)
        dl = np.asarray(group.column("dl").combine_chunks().cast(pa.int64()),
                        dtype=np.int64)
        order = np.lexsort((docs, tidx))
        st, sd = tidx[order], docs[order]
        bounds = np.flatnonzero(np.r_[True, st[1:] != st[:-1]])
        offsets = np.r_[bounds, len(st)].astype(np.int32)

        def lists(vals):
            return pa.ListArray.from_arrays(pa.array(offsets),
                                            pa.array(vals[order]))

        return pa.table({
            "term": term.take(pa.array(order[bounds])),
            "df": pa.array(np.diff(offsets).astype(np.int64)),
            "postings": lists(docs),
            "tfs": lists(tf),
            "dls": lists(dl),
        })

    return (ds.select_columns([id_col, text_col])
            .map_batches(explode, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


_MAX_DOC_TOKENS_LOG2 = 21  # positional phrase keys pack pos into 21 bits


def _explode_terms_pos(batch: pa.Table, text_col: str,
                       id_col: str) -> pa.Table:
    """Like _explode_terms but keeps each occurrence's token ordinal —
    empty tokens keep their slot so ordinals match the oracle-visible
    single-space split positions."""
    texts = pc.utf8_lower(
        pc.fill_null(batch.column(text_col).combine_chunks(), ""))
    toks = pc.split_pattern(texts, " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parent = toks.value_parent_indices()
    flat = toks.flatten()
    off = np.asarray(toks.offsets, dtype=np.int64)
    pos = np.arange(len(flat), dtype=np.int64) - off[
        np.asarray(parent, dtype=np.int64)]
    ids = batch.column(id_col).combine_chunks().take(parent)
    t = pa.table({"term": flat, id_col: ids, "pos": pa.array(pos)})
    return t.filter(pc.not_equal(flat, ""))


def positional_index(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     n_buckets: int = 64):
    """Positional inverted index: one row per (term, doc) with the sorted
    token ordinals of every occurrence — what phrase/proximity queries
    need. Same scale shape as ``inverted_index``: the (term, doc, pos)
    explode happens per batch, the shuffle routes by term-hash bucket, and
    postings assembly inside a bucket is one lexsort + run offsets."""
    def explode(batch: pa.Table) -> pa.Table:
        return _route_terms(_explode_terms_pos(batch, text_col, id_col),
                            n_buckets)

    def per_bucket(group: pa.Table) -> pa.Table:
        if not len(group):
            return pa.table({
                "term": pa.array([], type=pa.string()),
                id_col: pa.array([], type=pa.int64()),
                "positions": pa.array([], type=pa.list_(pa.int64())),
            })
        term = group.column("term").combine_chunks()
        codes = pc.dictionary_encode(term)
        tidx = np.asarray(codes.indices, dtype=np.int64)
        docs = np.asarray(pc.cast(group.column(id_col).combine_chunks(),
                                  pa.int64()), dtype=np.int64)
        pos = np.asarray(group.column("pos").combine_chunks(),
                         dtype=np.int64)
        order = np.lexsort((pos, docs, tidx))
        st, sd, sp = tidx[order], docs[order], pos[order]
        bounds = np.flatnonzero(
            np.r_[True, (st[1:] != st[:-1]) | (sd[1:] != sd[:-1])])
        offsets = np.r_[bounds, len(st)].astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), pa.array(sp))
        return pa.table({
            "term": term.take(pa.array(order[bounds])),
            id_col: pa.array(sd[bounds]),
            "positions": lists,
        })

    return (ds.select_columns([id_col, text_col])
            .map_batches(explode, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def write_positional_index(ds, index_dir: str, *, text_col: str = "text",
                           id_col: str = "doc_id",
                           n_buckets: int = 64) -> None:
    """Positional index at rest, hive-partitioned by term-hash bucket
    (the write_inverted_index layout plus per-occurrence ordinals)."""
    import json
    import os

    _write_postings(
        positional_index(ds, text_col=text_col, id_col=id_col,
                         n_buckets=n_buckets), index_dir, n_buckets)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"n_buckets": n_buckets, "id_col": id_col,
                   "positional": True}, f)


def search_phrase(index_dir: str, phrase: str, id_col: str = "doc_id"):
    """EXACT token-phrase retrieval over the at-rest positional index:
    ids of documents containing the query tokens contiguously in order.

    Classic positional-intersection: each occurrence of phrase token i at
    ordinal p votes for anchor ``p − i``; a document matches iff some
    anchor collects all k votes. The read touches only the ≤ k term-hash
    partitions; the vote exchange carries one (doc, anchor) row per
    occurrence of a QUERY term — proportional to those terms' frequencies,
    never the corpus. Anchors pack into the key's low 21 bits, so per-doc
    token ordinals must stay below 2^21 (enforced at vote time)."""
    import json
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_buckets = meta["n_buckets"]
    toks = [t for t in phrase.lower().split(" ") if t]
    if not toks:
        return rd.from_arrow(pa.table({id_col: pa.array([],
                                                        type=pa.int64())}))
    want = sorted(set(toks))
    buckets = sorted({int(b) for b in _term_buckets(want, n_buckets)})
    paths = [os.path.join(p, f)
             for b in buckets
             if os.path.isdir(p := os.path.join(index_dir, "terms",
                                                f"bucket={b}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    k = len(toks)
    if not paths:
        return rd.from_arrow(pa.table({id_col: pa.array([],
                                                        type=pa.int64())}))
    idx = rd.read_parquet(paths, columns=["term", id_col, "positions"])
    # phrase index(es) of each distinct term
    term_slots = {}
    for i, t in enumerate(toks):
        term_slots.setdefault(t, []).append(i)

    shift = np.int64(_MAX_DOC_TOKENS_LOG2)

    sentinel = np.int64(np.iinfo(np.int64).min)

    def votes(b: pa.Table) -> pa.Table:
        hit = b.filter(pc.is_in(b.column("term"),
                                value_set=pa.array(want)))
        if not hit.num_rows:
            # 0-vote sentinel: keeps one row flowing so the groupby never
            # collapses to zero schema-less blocks on miss-everything runs
            return pa.table({"_key": pa.array([sentinel]),
                             "_votes": pa.array([0], type=pa.int64())})
        posts = hit.column("positions").combine_chunks()
        flat = np.asarray(posts.flatten(), dtype=np.int64)
        if flat.size and flat.max() >= (1 << _MAX_DOC_TOKENS_LOG2):
            raise ValueError("document exceeds 2^21 tokens; "
                             "phrase keys would collide")
        offs = np.asarray(posts.offsets, dtype=np.int64)
        counts = np.diff(offs)
        docs = np.asarray(pc.cast(hit.column(id_col).combine_chunks(),
                                  pa.int64()), dtype=np.int64)
        row_doc = np.repeat(docs, counts)
        term_col = hit.column("term").combine_chunks()
        row_term_idx = np.repeat(np.arange(hit.num_rows), counts)
        keys = []
        for slot_term, slots in term_slots.items():
            m = np.asarray(pc.equal(term_col, pa.scalar(slot_term)),
                           dtype=bool)[row_term_idx]
            for i in slots:
                anchor = flat[m] - i
                ok = anchor >= 0
                keys.append((row_doc[m][ok] << shift) | anchor[ok])
        allk = np.concatenate(keys) if keys else np.empty(0, np.int64)
        # partial: votes per (doc, anchor) inside this batch (+ sentinel)
        uk, cnt = np.unique(allk, return_counts=True)
        return pa.table({"_key": pa.array(np.r_[uk, sentinel]),
                         "_votes": pa.array(np.r_[cnt, 0].astype(np.int64))})

    sentinel = np.int64(np.iinfo(np.int64).min)

    def fin(b: pa.Table) -> pa.Table:
        keys = np.asarray(b.column("_key"), dtype=np.int64)
        v = np.asarray(b.column("_votes"), dtype=np.int64)
        docs = np.unique(keys[v == k] >> shift)
        # sentinel keeps at least one row flowing so the downstream
        # distinct groupby never collapses to zero schema-less blocks
        return pa.table({id_col: pa.array(np.r_[docs, sentinel])})

    matched = (idx.map_batches(votes, batch_format="pyarrow")
               .groupby("_key")
               .aggregate(Sum("_votes", alias_name="_votes"))
               .map_batches(fin, batch_format="pyarrow"))
    # a doc can match at several anchors -> distinct ids
    return (matched.groupby(id_col).count()
            .map_batches(
                lambda b: b.filter(pc.not_equal(
                    b.column(id_col), pa.scalar(int(sentinel), pa.int64())))
                .select([id_col]),
                batch_format="pyarrow"))


def search_near(index_dir: str, terms: list[str], window: int,
                id_col: str = "doc_id"):
    """Proximity retrieval over the at-rest positional index: ids of
    documents where ALL (distinct) query terms co-occur within ``window``
    consecutive token ordinals (max pos − min pos < window).

    Exact and fully vectorized: query-term occurrences (the only rows that
    leave the index partitions) shuffle by doc-hash bucket; inside a bucket
    one lexsort orders them by (doc, pos), then one maximum.accumulate per
    term yields each occurrence's most-recent same-doc position of that
    term — a doc matches iff at some occurrence every term's last position
    lies within the trailing window. Work ∝ query-term frequencies."""
    import json
    import os

    import ray.data as rd

    from clp_core_ray.pipelines.windows import scaled_buckets

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_buckets = meta["n_buckets"]
    want = sorted({t.lower() for t in terms if t})
    k = len(want)
    empty = pa.table({id_col: pa.array([], type=pa.int64())})
    if not k:
        return rd.from_arrow(empty)
    buckets = sorted({int(b) for b in _term_buckets(want, n_buckets)})
    paths = [os.path.join(p, f)
             for b in buckets
             if os.path.isdir(p := os.path.join(index_dir, "terms",
                                                f"bucket={b}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not paths:
        return rd.from_arrow(empty)
    idx = rd.read_parquet(paths, columns=["term", id_col, "positions"])
    nb = scaled_buckets()
    slot_of = {t: i for i, t in enumerate(want)}

    def occurrences(b: pa.Table) -> pa.Table:
        hit = b.filter(pc.is_in(b.column("term"),
                                value_set=pa.array(want)))
        posts = hit.column("positions").combine_chunks()
        flat = np.asarray(posts.flatten(), dtype=np.int64)
        if flat.size and flat.max() >= (1 << _MAX_DOC_TOKENS_LOG2):
            raise ValueError("document exceeds 2^21 tokens; "
                             "proximity keys would collide")
        counts = np.diff(np.asarray(posts.offsets, dtype=np.int64))
        docs = np.repeat(
            np.asarray(pc.cast(hit.column(id_col).combine_chunks(),
                               pa.int64()), dtype=np.int64), counts)
        term_col = hit.column("term").combine_chunks()
        slots = np.repeat(
            np.asarray([slot_of[t] for t in term_col.to_pylist()],
                       dtype=np.int64) if hit.num_rows
            else np.empty(0, np.int64), counts)
        return pa.table({
            id_col: pa.array(docs), "_slot": pa.array(slots),
            "_pos": pa.array(flat),
            "_bucket": pa.array(
                (docs * np.int64(-7046029254386353131)) % np.int64(nb)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if not g.num_rows or id_col not in g.column_names:
            return empty
        docs = np.asarray(g.column(id_col), dtype=np.int64)
        slot = np.asarray(g.column("_slot"), dtype=np.int64)
        pos = np.asarray(g.column("_pos"), dtype=np.int64)
        order = np.lexsort((pos, docs))
        d, s, p = docs[order], slot[order], pos[order]
        # dense doc ordinal so per-term accumulators reset across docs
        new = np.r_[True, d[1:] != d[:-1]]
        ord_d = np.cumsum(new) - 1
        comp = ord_d << np.int64(_MAX_DOC_TOKENS_LOG2)
        ok = np.ones(len(d), dtype=bool)
        for t in range(k):
            c = np.where(s == t, comp | p, np.int64(-1))
            last = np.maximum.accumulate(c)
            # same doc AND within the trailing window
            ok &= (last >> np.int64(_MAX_DOC_TOKENS_LOG2)) == ord_d
            ok &= (p - (last & np.int64((1 << _MAX_DOC_TOKENS_LOG2) - 1))
                   < window) & (last >= 0)
        return pa.table({id_col: pa.array(np.unique(d[ok]))})

    return (idx.map_batches(occurrences, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def _write_postings(idx, index_dir: str, n_buckets: int) -> None:
    def tag(b: pa.Table) -> pa.Table:
        offsets, data = _string_buffers(
            b.column("term").combine_chunks().cast(pa.large_string()))
        h = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets))
        bucket = (h & np.uint64(n_buckets - 1)).astype(np.int64)
        return b.append_column("bucket", pa.array(bucket))

    idx.map_batches(tag, batch_format="pyarrow").write_parquet(
        f"{index_dir}/terms", partition_cols=["bucket"], compression="zstd")


def search_bm25(index_dir: str, terms, *, k1: float = 1.2, b: float = 0.75,
                ndigits: int = 6, id_col: str = "doc_id",
                k: int | None = None):
    """Okapi BM25 ranked retrieval straight off the at-rest stats index
    (``write_inverted_index(with_stats=True)``): scores every document
    containing ≥ 1 query term WITHOUT touching the corpus.

    Reads only the ≤ k term partitions; df folds across parts in a tiny
    driver pass (the append layout keeps one row per (term, part)); tf and
    dl ride the postings, so the scoring exchange is one (doc, term,
    contribution) row per candidate posting, summed per doc in ascending
    term order inside doc-hash buckets (bit-identical to
    :func:`bm25_scores` / the SQL ``sum(... ORDER BY term)``)."""
    import json
    import math
    import os

    import ray.data as rd

    from clp_core_ray.pipelines.windows import scaled_buckets

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    if not meta.get("with_stats"):
        raise ValueError("index lacks tf/dl stats; build with "
                         "write_inverted_index(with_stats=True)")
    n_buckets = meta["n_buckets"]
    n_docs, total_toks = meta["n_docs"], meta["total_toks"]
    empty = pa.table({id_col: pa.array([], type=pa.int64()),
                      "bm25": pa.array([], type=pa.float64())})
    want = sorted({t.lower() for t in terms if t})
    if not want or not n_docs:
        return rd.from_arrow(empty)
    avgdl = total_toks / n_docs
    buckets = sorted({int(x) for x in _term_buckets(want, n_buckets)})
    paths = [os.path.join(p, f)
             for x in buckets
             if os.path.isdir(p := os.path.join(index_dir, "terms",
                                                f"bucket={x}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not paths:
        return rd.from_arrow(empty)

    def hits_of(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("term"),
                                 value_set=pa.array(want)))

    # pass 1 (tiny): global df per query term across append parts
    import ray

    df_blocks = [t for t in ray.get(
        rd.read_parquet(paths, columns=["term", "df"])
        .map_batches(hits_of, batch_format="pyarrow").to_arrow_refs())
        if t.num_columns]
    if not df_blocks:
        return rd.from_arrow(empty)
    df_tbl = (pa.concat_tables(df_blocks).group_by("term")
              .aggregate([("df", "sum")]))
    idf = {t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
           for t, d in zip(df_tbl.column("term").to_pylist(),
                           df_tbl.column("df_sum").to_pylist())}
    # stable term ordinal = ascending term order (the SQL ORDER BY term)
    term_ord = {t: i for i, t in enumerate(want)}
    idf_by_ord = np.zeros(len(want))
    for t, v in idf.items():
        idf_by_ord[term_ord[t]] = v
    nb = scaled_buckets()

    def contribs(batch: pa.Table) -> pa.Table:
        hit = hits_of(batch)
        if not hit.num_rows:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "_ord": pa.array([], type=pa.int64()),
                             "_c": pa.array([], type=pa.float64()),
                             "_bucket": pa.array([], type=pa.int64())})
        posts = hit.column("postings").combine_chunks()
        docs = np.asarray(posts.flatten(), dtype=np.int64)
        counts = np.diff(np.asarray(posts.offsets, dtype=np.int64))
        tf = np.asarray(hit.column("tfs").combine_chunks().flatten(),
                        dtype=np.float64)
        dl = np.asarray(hit.column("dls").combine_chunks().flatten(),
                        dtype=np.float64)
        ords = np.repeat(
            np.asarray([term_ord[t] for t in
                        hit.column("term").to_pylist()], dtype=np.int64),
            counts)
        c = (idf_by_ord[ords] * tf * (k1 + 1.0)
             / (tf + k1 * (1.0 - b + b * dl / avgdl)))
        return pa.table({
            id_col: pa.array(docs), "_ord": pa.array(ords),
            "_c": pa.array(c),
            "_bucket": pa.array(
                (docs * np.int64(-7046029254386353131)) % np.int64(nb)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if not g.num_rows or id_col not in g.column_names:
            return empty
        docs = np.asarray(g.column(id_col), dtype=np.int64)
        ords = np.asarray(g.column("_ord"), dtype=np.int64)
        c = np.asarray(g.column("_c"), dtype=np.float64)
        order = np.lexsort((ords, docs))
        d, cv = docs[order], c[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        return pa.table({
            id_col: pa.array(d[starts]),
            "bm25": pa.array(_sql_round(np.add.reduceat(cv, starts),
                                      ndigits)),
        })

    scored = (rd.read_parquet(
        paths, columns=["term", "df", "postings", "tfs", "dls"])
        .map_batches(contribs, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow"))
    if k is None:
        return scored

    # exact top-k: each bucket pre-prunes to its own k best (score DESC,
    # id ASC tiebreak), the ≤ k × buckets survivors merge on the driver —
    # a top-k result is small by definition
    def topk_block(t: pa.Table) -> pa.Table:
        if not t.num_rows or id_col not in t.column_names:
            return empty
        s = np.asarray(t.column("bm25"), dtype=np.float64)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        order = np.lexsort((ids, -s))[:k]
        return t.take(pa.array(order))

    import ray

    blocks = [t for t in ray.get(
        scored.map_batches(topk_block, batch_format="pyarrow")
        .to_arrow_refs()) if t.num_columns]
    if not blocks:
        return rd.from_arrow(empty)
    allb = pa.concat_tables(blocks)
    s = np.asarray(allb.column("bm25"), dtype=np.float64)
    ids = np.asarray(allb.column(id_col), dtype=np.int64)
    order = np.lexsort((ids, -s))[:k]
    return rd.from_arrow(allb.take(pa.array(order)))


def ordered_int64(vals: np.ndarray) -> np.ndarray:
    """Order-preserving map double → int64 (IEEE bit trick: flip the sign
    bit for non-negatives, all bits for negatives), so float scores can
    ride integer-keyed machinery like ``global_window``."""
    u = np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)
    top = np.uint64(1) << np.uint64(63)
    # unsigned order-preserving key, then shift into signed int64 range
    ku = np.where(u & top == 0, u ^ top, ~u)
    return (ku ^ top).view(np.int64)


def rrf_fuse(rank_sets, *, id_col: str = "doc_id", rrf_k: int = 60,
             ndigits: int = 6):
    """Reciprocal-rank fusion of N ranked retrieval lists (hybrid search:
    BM25 ∪ embedding-cosine is the classic pair) —
    ``score(id) = Σ_lists 1 / (rrf_k + rank_in_list)``, ids absent from a
    list contribute nothing for it.

    Each input is Dataset[(id, rn)]; ranks map to contributions per batch,
    the lists union, and one groupby sums per id — the only exchange is
    the rank rows themselves (one per (list, id)), never the corpora the
    rankers scanned. IEEE addition is commutative and each id has ≤ one
    row per list, so the rounded sum is deterministic."""
    from ray.data.aggregate import Sum

    def contrib(b: pa.Table) -> pa.Table:
        rn = np.asarray(b.column("rn").combine_chunks().cast(pa.int64()),
                        dtype=np.float64)
        return pa.table({
            id_col: b.column(id_col).combine_chunks().cast(pa.int64()),
            "_c": pa.array(1.0 / (rrf_k + rn)),
        })

    parts = [ds.map_batches(contrib, batch_format="pyarrow")
             for ds in rank_sets]
    unioned = parts[0]
    for p in parts[1:]:
        unioned = unioned.union(p)
    def rnd(b: pa.Table) -> pa.Table:
        # SQL round-half-away, NOT np.round: RRF sums are dyadic rationals
        # (1/(60+rn) combinations like 1/128 = 0.0078125) that land EXACTLY
        # on rounding half-boundaries, where banker's rounding flips the
        # last digit the other way from the oracle (caught at sf0.1)
        from clp_core_ray.pipelines.aggregate import sql_round

        v = sql_round(np.asarray(b.column("rrf"), dtype=np.float64),
                      ndigits)
        return b.set_column(b.schema.get_field_index("rrf"), "rrf",
                            pa.array(v))

    return (unioned.groupby(id_col)
            .aggregate(Sum("_c", alias_name="rrf"))
            .map_batches(rnd, batch_format="pyarrow"))


def append_inverted_index(index_dir: str, ds, *, text_col: str = "text",
                          id_col: str = "doc_id") -> None:
    """Index NEW documents into an existing at-rest inverted index WITHOUT
    rebuild: the delta corpus is indexed under the FROZEN n_buckets and its
    postings land as additional parquet parts inside the same bucket dirs —
    purely additive (the ivf_index_append / incremental-archive LSM
    discipline). A term present in several parts yields several index rows;
    ``search_terms_all`` counts per-doc hits across rows, and a doc lives
    in exactly one part per term, so retrieval stays exact with no merge.
    Callers must not re-index ids already present (that would double-count);
    compaction (rewriting a bucket's parts into one) is a separate policy
    decision, exactly as for archives."""
    import json
    import os

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_buckets = meta["n_buckets"]

    if meta.get("with_stats"):
        _write_postings(
            _stats_index(ds, text_col=text_col, id_col=id_col,
                         n_buckets=n_buckets), index_dir, n_buckets)
        n_docs, total_toks = _corpus_stats(ds, text_col)
        meta["n_docs"] += n_docs
        meta["total_toks"] += total_toks
        final = os.path.join(index_dir, "meta.json")
        tmp = inprogress_path(final)
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, final)
        return
    _write_postings(
        inverted_index(ds, text_col=text_col, id_col=id_col,
                       n_buckets=n_buckets), index_dir, n_buckets)


def compact_inverted_index(index_dir: str) -> int:
    """Rewrite every bucket's accumulated parts into ONE part — the LSM
    compaction step completing the build → append → compact lifecycle.
    Same-term rows from different appends merge into a single posting row
    (sorted ids / ordinals), so post-compaction reads touch one file and
    one row per (term, bucket). Each bucket compacts independently in a
    Ray task; the swap is atomic per file (tmp → os.replace, old parts
    unlinked after the new one is live — a crash leaves a readable mix of
    old-and-new parts, never a torn file). Returns #buckets compacted."""
    import os

    import ray

    terms_dir = os.path.join(index_dir, "terms")
    buckets = sorted(d for d in os.listdir(terms_dir)
                     if d.startswith("bucket="))

    @ray.remote
    def compact_one(bdir: str) -> int:
        import pyarrow.parquet as _pq

        files = sorted(f for f in os.listdir(bdir)
                       if f.endswith(".parquet"))
        if len(files) <= 1:
            return 0
        t = pa.concat_tables([_pq.read_table(os.path.join(bdir, f))
                              for f in files]).combine_chunks()
        val_col = [c for c in t.column_names if c != "term"]
        term = t.column("term")
        codes = pc.dictionary_encode(term.combine_chunks())
        tidx = np.asarray(codes.indices, dtype=np.int64)
        order = np.lexsort((tidx,))
        st = tidx[order]
        bounds = np.flatnonzero(np.r_[True, st[1:] != st[:-1]])
        if sorted(val_col) == ["df", "postings"]:
            # merge posting lists per term
            posts = t.column("postings").combine_chunks().take(
                pa.array(order))
            flat = np.asarray(posts.flatten(), dtype=np.int64)
            offs = np.asarray(posts.offsets, dtype=np.int64)
            row_of = np.repeat(np.arange(len(st)), np.diff(offs))
            run_of = np.searchsorted(bounds, row_of, side="right") - 1
            o2 = np.lexsort((flat, run_of))
            sflat, srun = flat[o2], run_of[o2]
            rb = np.flatnonzero(np.r_[True, srun[1:] != srun[:-1]])
            offsets = np.r_[rb, len(srun)].astype(np.int32)
            lists = pa.ListArray.from_arrays(pa.array(offsets),
                                             pa.array(sflat))
            out = pa.table({
                "term": term.combine_chunks().take(pa.array(order[bounds])),
                "df": pa.array(np.diff(np.r_[rb, len(srun)])
                               .astype(np.int64)),
                "postings": lists})
        else:
            # positional / stats layouts: rows are already disjoint across
            # parts (one part per doc per term; per-part df rows are summed
            # at query time) — concatenate in term order
            out = t.take(pa.array(order))
        final = os.path.join(bdir, "part-compacted.parquet")
        tmp = inprogress_path(final)
        _pq.write_table(out, tmp, compression="zstd")
        os.replace(tmp, final)
        for f in files:
            if f != "part-compacted.parquet":
                os.unlink(os.path.join(bdir, f))
        return 1

    done = ray.get([compact_one.remote(os.path.join(terms_dir, b))
                    for b in buckets])
    return int(sum(done))


def search_terms_all(index_dir: str, terms: list[str],
                     id_col: str = "doc_id"):
    """Boolean AND retrieval over the at-rest inverted index: ids of
    documents containing EVERY query term.

    Reads ONLY the hive partitions the query terms hash into (≤ k of
    n_buckets), filters to the exact terms via a parquet-pushdown
    expression, explodes the surviving postings lists and keeps ids whose
    per-batch-partial match count sums to k. The corpus itself is never
    touched — work is proportional to the matched terms' document
    frequencies, exactly an inverted index's contract."""
    import json
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_buckets = meta["n_buckets"]
    want = sorted({t.lower() for t in terms})
    buckets = sorted({int(b) for b in _term_buckets(want, n_buckets)})
    # expand each pruned bucket dir to its parquet files (a retried write's
    # dead .inprogress straggler must never reach the scan)
    paths = [os.path.join(p, f)
             for b in buckets
             if os.path.isdir(p := os.path.join(index_dir, "terms",
                                                f"bucket={b}"))
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    k = len(want)
    if not paths:
        return rd.from_arrow(pa.table({id_col: pa.array([],
                                                        type=pa.int64())}))
    idx = rd.read_parquet(paths, columns=["term", "postings"])

    sentinel = int(np.iinfo(np.int64).min)

    def explode(b: pa.Table) -> pa.Table:
        hit = b.filter(pc.is_in(b.column("term"),
                                value_set=pa.array(want)))
        posts = hit.column("postings").combine_chunks()
        flat = posts.flatten()
        # partial: matches per doc inside this batch (≤ k rows per doc);
        # the 0-hit sentinel row keeps the groupby from collapsing to zero
        # schema-less blocks when nothing matches
        t = pa.table({id_col: pa.concat_arrays(
            [flat.cast(pa.int64()),
             pa.array([sentinel], type=pa.int64())])})
        out = t.group_by([id_col]).aggregate([(id_col, "count")])
        out = out.rename_columns([id_col, "_hits"])
        return out.set_column(
            1, "_hits",
            pc.if_else(pc.equal(out.column(id_col),
                                pa.scalar(sentinel, pa.int64())),
                       pa.scalar(0, pa.int64()),
                       out.column("_hits").cast(pa.int64())))

    return (idx.map_batches(explode, batch_format="pyarrow")
            .groupby(id_col)
            .aggregate(Sum("_hits", alias_name="_hits"))
            .map_batches(
                lambda b: b.filter(pc.equal(b.column("_hits"),
                                            pa.scalar(k, pa.int64())))
                .select([id_col]),
                batch_format="pyarrow"))


def tf_df_table(ds, *, text_col: str = "text", id_col: str = "doc_id",
                n_buckets: int = 64):
    """Term-frequency / document-frequency relation: one row per (doc, term)
    with tf (occurrences in the doc) and df (docs containing the term) —
    the integer-exact core of TF-IDF scoring (apply any idf weighting
    downstream without re-tokenizing).

    Same tokenizer as :func:`inverted_index` (lowercase, single-space
    split). One explode per batch pre-aggregates tf locally, so the shuffle
    carries unique (term, doc, tf) rows; df comes from a second small
    exchange of per-batch (term, partial-df) rows joined back inside the
    same term-hash buckets — no broadcast of the (unbounded) vocabulary.
    """
    def explode_tf(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, id_col)
        t = t.group_by(["term", id_col]).aggregate([("term", "count")])
        t = t.rename_columns(["term", id_col, "tf"])
        return _route_terms(t, n_buckets)

    def per_bucket(group: pa.Table) -> pa.Table:
        if not len(group):
            return pa.table({
                "term": pa.array([], type=pa.string()),
                id_col: pa.array([], type=pa.int64()),
                "tf": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
            })
        # re-sum tf across batches so pre-split docs stay correct, then
        # df(term) = row count per term (terms never span buckets by
        # construction of the hash routing)
        g = group.group_by(["term", id_col]).aggregate([("tf", "sum")])
        g = g.rename_columns(["term", id_col, "tf"])
        dfs = g.group_by("term").aggregate([("term", "count")])
        dfs = dfs.rename_columns(["term", "df"])
        pos = pc.index_in(g.column("term"), dfs.column("term"))
        return pa.table({
            "term": g.column("term"),
            id_col: pc.cast(g.column(id_col), pa.int64()),
            "tf": pc.cast(g.column("tf"), pa.int64()),
            "df": pc.cast(pc.take(dfs.column("df"), pos), pa.int64()),
        })

    return (ds.select_columns([id_col, text_col])
            .map_batches(explode_tf, batch_format="pyarrow")
            .groupby("_bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


def bm25_scores(ds, query_terms, *, text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
                ndigits: int = 6):
    """Okapi BM25 relevance of every document against a small query-term
    set — the classic retrieval scorer over the corpus (composes with
    :func:`inverted_index` / :func:`tf_df_table`; same tokenizer, so scores
    agree with an external SQL reproduction token for token).

    Scale shape: a stats pass whose exchange is ONE row per batch plus one
    row per (query term, batch) — per-batch df partials are exact because a
    document is a single row — followed by a stateless scoring pass with
    the (tiny) broadcast constants; no shuffle anywhere, the corpus streams
    through twice. Per-document term contributions are summed in ascending
    term order and rounded to ``ndigits`` so the float result is
    reproducible (and SQL-matchable with ``sum(... ORDER BY term)``).
    Returns Dataset[(id_col, bm25:double)] over documents matching >= 1
    query term.
    """
    import math

    q = sorted({t.lower() for t in query_terms})
    q_arr = pa.array(q, type=pa.large_string())

    def stats(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, id_col)
        qt = t.filter(pc.is_in(pc.cast(t.column("term"), pa.large_string()),
                               value_set=q_arr))
        dfp = (qt.group_by(["term", id_col]).aggregate([])
                 .group_by("term").aggregate([("term", "count")]))
        terms = [""] + dfp.column("term").to_pylist()
        a = [batch.num_rows] + dfp.column("term_count").to_pylist()
        toks = [len(t)] + [0] * (len(terms) - 1)
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "a": pa.array(a, type=pa.int64()),
                         "toks": pa.array(toks, type=pa.int64())})

    st = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    if len(st) == 0:  # empty input: no blocks ever reached stats()
        import ray.data as rd

        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                       "bm25": pa.array([], pa.float64())}))
    corpus = st[st.term == ""]
    n_docs = int(corpus["a"].sum())
    total_toks = int(corpus["toks"].sum())
    if n_docs == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                       "bm25": pa.array([], pa.float64())}))
    avgdl = total_toks / n_docs
    df_map = st[st.term != ""].groupby("term")["a"].sum().to_dict()
    idf = {t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
           for t, d in df_map.items()}

    def score(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "bm25": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        t = _explode_terms(batch, text_col, id_col)
        dl_t = t.group_by(id_col).aggregate([(id_col, "count")])
        qt = (t.filter(pc.is_in(pc.cast(t.column("term"), pa.large_string()),
                                value_set=q_arr))
               .group_by(["term", id_col]).aggregate([("term", "count")]))
        if qt.num_rows == 0:
            return empty
        # per-row contribution, then sum per doc in (doc, term) order
        order = pc.sort_indices(qt, sort_keys=[(id_col, "ascending"),
                                               ("term", "ascending")])
        qt = qt.take(order)
        ids = qt.column(id_col).to_numpy()
        tf = qt.column("term_count").to_numpy().astype(np.float64)
        idf_v = np.asarray([idf[x] for x in qt.column("term").to_pylist()])
        pos = pc.index_in(qt.column(id_col), dl_t.column(id_col))
        dl = pc.take(dl_t.column(f"{id_col}_count"), pos).to_numpy() \
            .astype(np.float64)
        contrib = idf_v * tf * (k1 + 1.0) / (tf + k1 * (1 - b + b * dl / avgdl))
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        score_v = np.add.reduceat(contrib, starts)
        return pa.table({
            id_col: pa.array(ids[starts], type=pa.int64()),
            "bm25": pa.array(_sql_round(score_v, ndigits)),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")


def top_terms_per_group(ds, *, group_col: str = "lang",
                        text_col: str = "text", k: int = 5,
                        num_buckets: int | None = None):
    """EXACT top-k most frequent terms per group (vocabulary report, the
    per-language Zipf-head every corpus card prints).

    Three bounded stages, no corpus-sized shuffle:
    (1) per-batch explode (shared :func:`_explode_terms` tokenizer) +
    per-batch ``(group, term, count)`` partials — the exchange carries one
    row per distinct (group, term) per batch, never per occurrence;
    (2) term-hash-bucket groupby sums the partials (each (group, term)
    total lands wholly in ONE bucket), then keeps the k best per group in
    that bucket — valid partial: any global top-k member is in its own
    bucket's per-group top-k;
    (3) final per-group merge over ≤ k × num_buckets candidate rows per
    group. Ordering is ``count DESC, term ASC`` (deterministic ties).
    """
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = num_buckets or scaled_buckets()

    def _topk(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        idx = pc.sort_indices(tbl, sort_keys=[(group_col, "ascending"),
                                              ("cnt", "descending"),
                                              ("term", "ascending")])
        s = tbl.take(idx)
        codes = np.asarray(
            s.column(group_col).combine_chunks().dictionary_encode().indices)
        n = len(codes)
        new = np.ones(n, dtype=bool)
        new[1:] = codes[1:] != codes[:-1]
        run_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        rank = np.arange(n) - run_start
        return s.filter(pa.array(rank < k))

    def explode(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, group_col)
        g = t.group_by([group_col, "term"]).aggregate([("term", "count")])
        part = pa.table({group_col: g.column(group_col),
                         "term": g.column("term"),
                         "cnt": g.column("term_count").cast(pa.int64())})
        return _route_terms(part, nb)

    def per_bucket(g: pa.Table) -> pa.Table:
        tb = g.drop_columns(["_bucket"])
        s = tb.group_by([group_col, "term"]).aggregate([("cnt", "sum")])
        summed = pa.table({group_col: s.column(group_col),
                           "term": s.column("term"),
                           "cnt": s.column("cnt_sum")})
        return _topk(summed)

    partials = (ds.map_batches(explode, batch_format="pyarrow")
                .groupby("_bucket").map_groups(per_bucket,
                                               batch_format="pyarrow"))
    # ≤ k × num_buckets rows per group reach the final merge
    return partials.groupby(group_col).map_groups(_topk,
                                                  batch_format="pyarrow")


# GPT-2-ish pretokenizer classes, RE2-compatible (no lookarounds): a token
# is an optionally space-prefixed letter run, digit run, or punctuation run.
# Whitespace itself is not counted (trailing-space runs fold into the next
# token's prefix), which is the property LLM token-budget estimates need.
BPE_TOKEN_PATTERN = r" ?[a-zà-ÿA-Z]+| ?[0-9]+| ?[^ a-zà-ÿA-Z0-9]+"


def bpe_token_counts(texts: pa.Array) -> pa.Array:
    """BPE-ish token count per text: matches of :data:`BPE_TOKEN_PATTERN`
    (vectorized RE2 via Arrow count_substring_regex — DuckDB's
    regexp_extract_all uses the same engine, so the SQL oracle is exact).
    A closer budget proxy than whitespace counting: punctuation and number
    runs tokenize separately, as real BPE vocabularies do."""
    return pc.count_substring_regex(
        pc.fill_null(texts, ""), BPE_TOKEN_PATTERN).cast(pa.int64())


def char_entropy(texts: pa.Array) -> pa.Array:
    """Shannon entropy (bits) of each document's byte distribution — the
    cheap gibberish/low-diversity screen (keyboard mash, single-char spam
    and base64 blobs sit far from natural text's ~4.1 bits).

    Fully vectorized across the batch: one zero-copy view of the string
    buffer, one ``bincount`` over ``doc_ordinal*256 + byte`` (flat
    per-doc histograms), one masked ``p*log2(p)`` reduction — no per-doc
    loop. Entropy is over UTF-8 BYTES (equal to character entropy for
    ASCII text; a deliberate, documented choice — byte entropy is
    well-defined and O(1)-state at any alphabet). Empty/null docs → 0.0.
    """
    offsets, data = _string_buffers(
        texts if isinstance(texts, (pa.Array, pa.ChunkedArray))
        else pa.array(texts))
    nrows = len(offsets) - 1
    if len(data) == 0:
        return pa.array(np.zeros(nrows), type=pa.float64())
    n = np.diff(offsets)
    doc_of_byte = np.repeat(np.arange(nrows, dtype=np.int64), n)
    hist = np.bincount(doc_of_byte * 256 + data,
                       minlength=nrows * 256).reshape(nrows, 256)
    tot = np.maximum(n, 1).astype(np.float64)
    p = hist / tot[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(p > 0, p * np.log2(p), 0.0)
    return pa.array(-term.sum(axis=1) + 0.0, type=pa.float64())


def build_vocab(ds, *, max_size: int, min_count: int = 1,
                text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int | None = None):
    """Frequency-ranked vocabulary build (the tokenizer-training /
    embedding-table prep step): the ``max_size`` most frequent terms with
    ``count >= min_count``, each assigned a dense rank id
    (``count DESC, term ASC`` — id 1 = most frequent, deterministic ties).

    Same bounded three-stage shape as :func:`top_terms_per_group`, global:
    (1) per-batch explode (shared tokenizer) + per-batch (term, count)
    partials — the exchange carries one row per distinct term per batch,
    never per occurrence; (2) term-hash-bucket groupby sums partials (a
    term's total lands wholly in one bucket), applies ``min_count`` and
    keeps the bucket's ``max_size`` best — valid partial: any global
    top-``max_size`` member is in its own bucket's top-``max_size``;
    (3) ONE final task merges <= max_size x num_buckets candidate rows and
    assigns ids. Driver never materializes the token stream; the final
    fan-in is bounded by the vocab size, not the corpus.
    Returns Dataset[(term, cnt, term_id)].
    """
    from clp_core_ray.pipelines.windows import scaled_buckets

    nb = num_buckets or scaled_buckets()

    def explode(batch: pa.Table) -> pa.Table:
        t = _explode_terms(batch, text_col, id_col)
        g = t.group_by(["term"]).aggregate([("term", "count")])
        part = pa.table({"term": g.column("term"),
                         "cnt": g.column("term_count").cast(pa.int64())})
        return _route_terms(part, nb)

    def per_bucket(g: pa.Table) -> pa.Table:
        tb = g.drop_columns(["_bucket"])
        s = tb.group_by(["term"]).aggregate([("cnt", "sum")])
        summed = pa.table({"term": s.column("term"),
                           "cnt": s.column("cnt_sum")})
        summed = summed.filter(
            pc.greater_equal(summed.column("cnt"), pa.scalar(min_count)))
        idx = pc.sort_indices(summed, sort_keys=[("cnt", "descending"),
                                                 ("term", "ascending")])
        return summed.take(idx[:max_size])

    def finalize(g: pa.Table) -> pa.Table:
        tb = g.drop_columns(["_one"])
        idx = pc.sort_indices(tb, sort_keys=[("cnt", "descending"),
                                             ("term", "ascending")])
        top = tb.take(idx[:max_size])
        return top.append_column(
            "term_id", pa.array(np.arange(1, len(top) + 1, dtype=np.int64)))

    partials = (ds.map_batches(explode, batch_format="pyarrow")
                .groupby("_bucket").map_groups(per_bucket,
                                               batch_format="pyarrow"))
    one = partials.map_batches(
        lambda b: b.append_column("_one", pa.array(
            np.zeros(len(b), dtype=np.int32))),
        batch_format="pyarrow")
    return one.groupby("_one").map_groups(finalize, batch_format="pyarrow")


def pmi_cooccurrence(ds, *, vocab_size: int = 30, min_pair_count: int = 5,
                     text_col: str = "text", id_col: str = "doc_id",
                     ndigits: int = 6):
    """Document-level PMI co-occurrence over the top-``vocab_size``
    vocabulary — the collocation / word-association table embedding
    pipelines precompute: ``pmi(a, b) = ln(c_ab · D / (c_a · c_b))`` where
    counts are document frequencies within the vocab.

    Scale shape: the vocab (``build_vocab``, bounded fan-in) broadcasts as
    a sorted array; each batch reduces its docs to distinct vocab-term id
    sets and expands the triangular pairs VECTORIZED (pair volume is
    bounded by vocab_size²/2 per doc, and the exchange carries one
    (pair, count) partial per batch, never the token stream); a single
    small groupby folds pair counts; per-term doc counts ride the same
    broadcast pass. Returns (term_a, term_b, pmi) for pairs seen in ≥
    ``min_pair_count`` docs."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    vocab_tbl = _collect_ds(build_vocab(ds, max_size=vocab_size,
                                        text_col=text_col, id_col=id_col))
    terms = sorted(vocab_tbl.column("term").to_pylist())
    v = len(terms)
    empty = pa.table({"term_a": pa.array([], type=pa.string()),
                      "term_b": pa.array([], type=pa.string()),
                      "pmi": pa.array([], type=pa.float64())})
    if v < 2:
        return rd.from_arrow(empty)
    ref = ray.put(pa.array(terms, type=pa.large_string()))

    def pair_partial(b: pa.Table) -> pa.Table:
        want = ray.get(ref)
        t = _explode_terms(b, text_col, id_col)
        t = t.filter(pc.is_valid(pc.index_in(
            pc.cast(t.column("term"), pa.large_string()), want)))
        # distinct (doc, vocab-id), sorted by (doc, id)
        g = t.group_by([id_col, "term"]).aggregate([])
        tid = np.asarray(pc.index_in(
            pc.cast(g.column("term"), pa.large_string()), want),
            dtype=np.int64)
        doc = np.asarray(pc.cast(g.column(id_col).combine_chunks(),
                                 pa.int64()), dtype=np.int64)
        order = np.lexsort((tid, doc))
        d2, i2 = doc[order], tid[order]
        newd = np.r_[True, d2[1:] != d2[:-1]]
        starts = np.flatnonzero(newd)
        cnt = np.diff(np.r_[starts, len(d2)])
        # vectorized triangular pair expansion per doc run
        npairs = cnt * (cnt - 1) // 2
        # per-term doc-count partial rides along (pair key -1 slot unused)
        term_rows = pa.table({"_pk": pa.array(-1 - i2),
                              "_n": pa.array(np.ones(len(i2), np.int64))})
        tot = int(npairs.sum())
        if not tot:
            out = term_rows
        else:
            # left index a: for each run, repeat positions with
            # decreasing fan-out (classic triangular expansion)
            run_of = np.repeat(np.arange(len(cnt)), npairs)
            pair_ord = np.arange(tot) - np.repeat(
                np.r_[0, np.cumsum(npairs)[:-1]], npairs)
            c_run = cnt[run_of]
            # a = row index within run such that pairs (a, b>a) flatten
            # in order: a = floor of inverse triangular number
            a = (c_run - 2 - np.floor(
                np.sqrt(-8.0 * pair_ord + 4.0 * c_run * (c_run - 1) - 7)
                / 2.0 - 0.5)).astype(np.int64)
            first_of_a = a * c_run - a * (a + 1) // 2
            bidx = pair_ord - first_of_a + a + 1
            base = np.repeat(starts, npairs)
            ia, ib = i2[base + a], i2[base + bidx]
            pk = ia * np.int64(v) + ib
            upk, ucnt = np.unique(pk, return_counts=True)
            out = pa.table({"_pk": pa.array(upk),
                            "_n": pa.array(ucnt.astype(np.int64))})
            out = pa.concat_tables([out, term_rows])
        # doc-count partial for D
        return pa.concat_tables([out, pa.table({
            "_pk": pa.array([np.int64(-(1 << 62))]),
            "_n": pa.array([np.int64(b.num_rows)])})])

    folded = _collect_ds(
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("_pk").aggregate(Sum("_n", alias_name="_n")))
    pk = np.asarray(folded.column("_pk"), dtype=np.int64)
    n = np.asarray(folded.column("_n"), dtype=np.int64)
    d_total = int(n[pk == -(1 << 62)].sum())
    term_mask = (pk < 0) & (pk != -(1 << 62))
    ca = np.zeros(v, dtype=np.int64)
    ca[-1 - pk[term_mask]] = n[term_mask]
    pair_mask = pk >= 0
    ppk, pn = pk[pair_mask], n[pair_mask]
    keep = pn >= min_pair_count
    ppk, pn = ppk[keep], pn[keep]
    ia, ib = ppk // v, ppk % v
    pmi = np.log(pn.astype(np.float64) * d_total
                 / (ca[ia].astype(np.float64) * ca[ib]))
    ta = pa.array([terms[i] for i in ia])
    tb = pa.array([terms[i] for i in ib])
    return rd.from_arrow(pa.table({
        "term_a": ta, "term_b": tb,
        "pmi": pa.array(_sql_round(pmi, ndigits))}))


def _collect_ds(ds) -> pa.Table:
    """Small-result materialization (bounded by construction)."""
    out = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(out) if out else pa.table({})


def normalize_text(batch: pa.Table, text_col: str = "text",
                   out_col: str = "text_norm", *,
                   form: str | None = "NFKD",
                   strip_accents: bool = False,
                   lower: bool = True) -> pa.Table:
    """Vectorized text normalization (the C4/CCNet-style cleanup pass that
    precedes dedup and tokenization in pre-training pipelines).

    Steps, in order: Unicode compatibility decomposition (utf8proc kernel,
    zero Python per row; NFKD by default — this pyarrow build's
    utf8_normalize emits decomposed output for every form, so NFKD is the
    form whose semantics match Python's unicodedata exactly, pytest-pinned)
    → optionally drop combining marks (the CCNet "strip accents" pass, only
    sound after decomposition) → control chars ([\\x00-\\x1F\\x7F], which
    covers \\t \\n \\r) become a space → runs of spaces collapse to one →
    edge spaces trimmed → optional lowercase. Every step is a single Arrow
    compute kernel over the batch.

    The ASCII path matches DuckDB
    ``lower(trim(regexp_replace(regexp_replace(t,'[\\x00-\\x1F\\x7F]',' ','g'),
    ' +',' ','g')))`` exactly (both engines run RE2); the Unicode steps have
    no SQL analogue and are pinned against ``unicodedata`` in pytest.
    """
    s = pc.fill_null(batch.column(text_col), "")
    if form:
        s = pc.utf8_normalize(s, form=form)
    if strip_accents:
        s = pc.replace_substring_regex(s, r"\p{Mn}", "")
    s = pc.replace_substring_regex(s, r"[\x00-\x1F\x7F]", " ")
    s = pc.replace_substring_regex(s, r" +", " ")
    s = pc.utf8_trim(s, characters=" ")
    if lower:
        s = pc.utf8_lower(s)
    cols = [c for c in batch.column_names if c != out_col]
    return batch.select(cols).append_column(out_col, s)


def extract_kv(batch: pa.Table, key: str, text_col: str = "text",
               out_col: str | None = None) -> pa.Table:
    """Extract the value of a ``key=value`` token from log text, vectorized.

    The log-analytics staple the reference serves via dictionary-variable
    search (components/core/src/clp/Grep.cpp variable extraction): pull a
    structured field out of unstructured text. One RE2 kernel per batch:
    ``key=`` followed by the maximal run of non-whitespace. Rows without the
    key yield null (matching DuckDB ``regexp_extract(...)`` = '' → NULL via
    nullif). Extraction feeds groupby/count downstream — the "top models by
    usage" style rollup.
    """
    out_col = out_col or key
    s = pc.fill_null(batch.column(text_col), "")
    pat = rf"(?:^| ){key}=(?P<v>[^ ]+)"
    ext = pc.extract_regex(s, pat)  # struct {v} or null when no match
    vals = pc.struct_field(ext, "v")
    cols = [c for c in batch.column_names if c != out_col]
    return batch.select(cols).append_column(out_col, vals)


def compress_ratio(batch: pa.Table, text_col: str = "text",
                   out_col: str = "zratio", *, level: int = 6) -> pa.Table:
    """Per-document compressibility — the RefinedWeb/Gopher-family quality
    signal: near-1 ratios mean high-entropy noise (base64, hex dumps),
    very low ratios mean degenerate repetition; natural text sits between.

    ratio = len(zlib(text)) / max(1, len(text)), computed per document.
    The per-row Python loop is deliberate: the work is inside zlib's C
    deflate, and compression is irreducibly per-payload (the same shape as
    the multimodal decode stages). Zero-copy access to the UTF-8 bytes via
    the Arrow buffers; no oracle — DuckDB has no compression function, so
    the kernel is pinned against zlib directly in pytest and the query is
    rows-only."""
    import zlib

    s = pc.fill_null(batch.column(text_col), "")
    offsets, data = _string_buffers(s)
    ratios = np.empty(len(offsets) - 1, dtype=np.float64)
    mv = memoryview(data)
    for i in range(len(ratios)):
        raw = mv[offsets[i]:offsets[i + 1]]
        ratios[i] = len(zlib.compress(raw, level)) / max(1, len(raw))
    cols = [c for c in batch.column_names if c != out_col]
    return batch.select(cols).append_column(out_col, pa.array(ratios))


def kl_by_group(ds, *, group_col: str, text_col: str = "text",
                vocab_size: int = 30, min_count: int = 1,
                ndigits: int = 6):
    """Word-distribution drift per group: KL(P_group ‖ P_corpus) over the
    top-``vocab_size`` vocabulary — the distribution-shift monitor data
    pipelines run per source/snapshot.

    Vocabulary comes from build_vocab's bounded fan-in; the count exchange
    carries one (group, term) partial per batch restricted to vocab terms
    (broadcast set). The fold is groups × vocab rows; the final KL is a
    driver-side sequential sum in ascending term order so the rounded
    float reproduces SQL's ordered aggregate (terms absent from a group
    contribute 0 — both engines skip the missing row).
    """
    import ray
    import ray.data as rd

    vt = _collect_ds(build_vocab(ds, max_size=vocab_size,
                                 min_count=min_count, text_col=text_col,
                                 id_col=group_col))
    vocab = sorted(vt.column("term").to_pylist())
    vref = ray.put(set(vocab))

    def partial(batch: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        t = _explode_terms(batch, text_col, group_col)
        t = t.filter(pc.is_in(t.column("term"),
                              value_set=pa.array(sorted(vs))))
        g = t.group_by([group_col, "term"]).aggregate([("term", "count")])
        return g.rename_columns([group_col, "term", "cnt"])

    from ray.data.aggregate import Sum

    folded = _collect_ds(ds.map_batches(partial, batch_format="pyarrow")
                         .groupby([group_col, "term"])
                         .aggregate(Sum("cnt", alias_name="cnt")))
    groups = folded.column(group_col).to_pylist()
    terms = folded.column("term").to_pylist()
    cnts = folded.column("cnt").to_pylist()
    qc = {}
    per_group: dict = {}
    for g, t, c in zip(groups, terms, cnts):
        qc[t] = qc.get(t, 0) + c
        per_group.setdefault(g, {})[t] = c
    q_tot = float(sum(qc.values()))
    out_g, out_kl = [], []
    for g in sorted(per_group):
        gc = per_group[g]
        tot = float(sum(gc.values()))
        import math

        s = 0.0
        for t in vocab:  # ascending-term sequential sum = SQL ordered agg
            if t in gc:
                p = gc[t] / tot
                s += p * math.log(p / (qc[t] / q_tot))
        out_g.append(g)
        out_kl.append(s)
    return rd.from_arrow(pa.table({
        group_col: pa.array(out_g),
        "kl": pa.array(_sql_round(np.asarray(out_kl), ndigits))}))


_PHASH_BASE = 1099511628211  # FNV prime as the polynomial base


def _phash(b: bytes) -> int:
    """Polynomial hash of ``b`` mod 2**64: the value the rolling-window
    hash of :func:`multi_pattern_contains` computes with uint64 array
    wraparound, here in Python ints so no overflow warning is raised."""
    h = 0
    for x in b:
        h = (h * _PHASH_BASE + x) & (2**64 - 1)
    return h


def multi_pattern_contains(ds, patterns: list[str], *,
                           text_col: str = "text",
                           id_col: str = "doc_id"):
    """Docs containing ANY of a (possibly large) literal pattern set — the
    blocklist / PII-term / compliance-scan primitive.

    One pass REGARDLESS of pattern count (K regex passes would cost K
    scans): patterns group by byte length; per length L one vectorized
    polynomial rolling hash over the batch's flat UTF-8 buffer (L strided
    multiply-adds, no per-row Python) gives every window's hash, a sorted
    membership probe finds candidates, and candidates verify byte-exact
    (hash collisions and windows spanning row boundaries are both
    rejected). The pattern set broadcasts once; hits emit distinct doc ids
    per batch before the final distinct exchange."""
    import ray

    enc = [p.encode("utf-8") for p in patterns]
    if not enc or any(len(p) == 0 for p in enc):
        raise ValueError("patterns must be non-empty strings")
    by_len: dict[int, list[bytes]] = {}
    for p in enc:
        by_len.setdefault(len(p), []).append(p)
    B = np.uint64(_PHASH_BASE)

    plan = {
        L: (np.sort(np.array([_phash(p) for p in ps], dtype=np.uint64)),
            ps)
        for L, ps in by_len.items()
    }
    plan_ref = ray.put(plan)

    def scan(batch: pa.Table) -> pa.Table:
        pl = ray.get(plan_ref)
        col = batch.column(text_col).combine_chunks() \
            .cast(pa.large_string())
        offsets, data = _string_buffers(col)
        n = len(data)
        hit_rows: list[np.ndarray] = []
        for L, (hset, ps) in pl.items():
            if n < L:
                continue
            m = n - L + 1
            H = np.zeros(m, dtype=np.uint64)
            for i in range(L):
                H = H * B + data[i:m + i].astype(np.uint64)
            pos = np.searchsorted(hset, H)
            pos[pos >= len(hset)] = 0
            cand = np.flatnonzero(hset[pos] == H)
            if len(cand) == 0:
                continue
            # reject windows spanning a row boundary (two docs' bytes
            # concatenated are not a match in either doc)
            r0 = np.searchsorted(offsets, cand, side="right")
            r1 = np.searchsorted(offsets, cand + L - 1, side="right")
            cand = cand[r0 == r1]
            if len(cand) == 0:
                continue
            # byte-exact verify per pattern of this length (few patterns,
            # vectorized window compare via the strided trick)
            ok = np.zeros(len(cand), dtype=bool)
            for p in ps:
                pv = np.frombuffer(p, dtype=np.uint8)
                eq = np.ones(len(cand), dtype=bool)
                for i in range(L):
                    eq &= data[cand + i] == pv[i]
                ok |= eq
            cand = cand[ok]
            if len(cand):
                hit_rows.append(
                    np.searchsorted(offsets, cand, side="right") - 1)
        if not hit_rows:
            return pa.table({id_col: pa.array(
                [], type=batch.schema.field(id_col).type)})
        rows = np.unique(np.concatenate(hit_rows))
        return pa.table({id_col: pc.take(
            batch.column(id_col).combine_chunks(), pa.array(rows))})

    hits = ds.map_batches(scan, batch_format="pyarrow")
    return hits.groupby(id_col).count().select_columns([id_col])
