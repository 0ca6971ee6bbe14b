"""Property-based conformance tests (hypothesis) — the reference's random
round-trip strategy (test-EncodedVariableInterpreter.cpp uses exhaustive
digit-pattern tables; these generalize them to arbitrary inputs).

Kernel-level properties run WITHOUT Ray (pure batch functions) so hypothesis
can afford hundreds of examples.
"""

import json

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from clp_core_ray import encoding as E

# printable-ish text incl. the placeholder/escape bytes that must be escaped
_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from("\x11\x12\x13\\ \t=.:-+0123456789abcdefABCDEFé中"),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(_text)
def test_encode_decode_roundtrip_scalar(msg):
    """Scalar oracle: encode_message → decode_message is the identity."""
    logtype, evs, vts, dvs = E.encode_message(msg)
    assert E.decode_message(logtype, evs, dict_vars=dvs) == msg


@settings(max_examples=100, deadline=None)
@given(st.lists(_text, min_size=1, max_size=40))
def test_encode_decode_roundtrip_vectorized(msgs):
    """Vectorized kernels agree with the scalar oracle AND round-trip."""
    from clp_core_ray.vec.decoder import decode_batch
    from clp_core_ray.vec.tokenizer import encode_batch

    arr = pa.array(msgs, type=pa.large_string())
    enc = encode_batch(arr)
    out = decode_batch(enc["logtype"], enc["encoded_vars"],
                       dict_vars=enc["dict_vars"])
    assert out.to_pylist() == msgs
    for i, m in enumerate(msgs):
        lt, evs, vts, dvs = E.encode_message(m)
        assert enc["logtype"][i].as_py() == lt, m
        assert enc["encoded_vars"][i].as_py() == list(evs), m


# numbers at the int64, int32 (four-byte IR) and packed-float edges, plus
# text with escapes and literal placeholder bytes
_edge_number = st.one_of(
    st.sampled_from([str(v) for v in (
        0, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1,
        2**63 - 1, 2**63, -(2**63), -(2**63) - 1)]),
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", max_size=10),
              st.text("0123456789", min_size=1, max_size=10))
    .map(lambda t: f"{t[0]}{t[1]}.{t[2]}"),
)
_kind_message = st.lists(
    st.one_of(_edge_number,
              st.text(st.sampled_from("\x11\x12\x13\\ =.:-_xyzAF09é"),
                      max_size=8)),
    max_size=12,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(_kind_message, min_size=1, max_size=30))
def test_logtype_placeholders_are_the_var_kinds(msgs):
    """What every reader relies on: each logtype's placeholder kinds are
    the encoder's ``var_types``, so ``decode_batch`` needs no kinds, for
    the tokenizer and the schema-rule encoder alike."""
    from clp_core_ray.functions.rules import RuleEncodeStage
    from clp_core_ray.vec.decoder import decode_batch, placeholder_kinds
    from clp_core_ray.vec.tokenizer import encode_batch

    arr = pa.array(msgs, type=pa.large_string())
    for enc in (encode_batch(arr), RuleEncodeStage()(pa.table({"text": arr}))):
        logtypes = enc["logtype"].to_pylist()
        kinds = [E.placeholder_kinds(lt) for lt in logtypes]
        assert kinds == enc["var_types"].to_pylist()
        off, flat = placeholder_kinds(enc["logtype"])
        assert [flat[a:b].tolist() for a, b in zip(off[:-1], off[1:])] == kinds
        out = decode_batch(enc["logtype"], enc["encoded_vars"],
                           dict_vars=enc["dict_vars"])
        assert out.to_pylist() == [
            E.decode_message(lt, ev, dict_vars=dv) for lt, ev, dv in zip(
                logtypes, enc["encoded_vars"].to_pylist(),
                enc["dict_vars"].to_pylist())]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=0, max_size=30),
       st.text(alphabet="abc*?\\x ", max_size=12))
def test_wildcard_regex_matches_reference_semantics(_, pattern):
    """wildcard_to_regex compiles for every pattern and agrees with a direct
    backtracking wildcard matcher on random subjects."""
    import re

    from clp_core_ray.pipelines.search import wildcard_to_regex

    rx = re.compile(wildcard_to_regex(pattern))

    def ref_match(p, s):
        # reference semantics: * = any run, ? = any char, \ escapes next
        # (dangling \ dropped)
        toks = []
        i = 0
        while i < len(p):
            c = p[i]
            if c == "\\":
                if i + 1 < len(p):
                    toks.append(("lit", p[i + 1]))
                i += 2
            elif c == "*":
                toks.append(("star", None))
                i += 1
            elif c == "?":
                toks.append(("any", None))
                i += 1
            else:
                toks.append(("lit", c))
                i += 1

        from functools import lru_cache

        @lru_cache(maxsize=None)
        def m(ti, si):
            if ti == len(toks):
                return si == len(s)
            k, v = toks[ti]
            if k == "star":
                return any(m(ti + 1, sj) for sj in range(si, len(s) + 1))
            if si >= len(s):
                return False
            if k == "any" or s[si] == v:
                return m(ti + 1, si + 1)
            return False

        return m(0, 0)

    subjects = ["", "abc", "axc", "ab", "abcabc", "a?c", "a*c", "x" * 5,
                "ab\\c", pattern.replace("\\", "")]
    for s in subjects:
        assert bool(rx.fullmatch(s)) == ref_match(pattern, s), (pattern, s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=2**62),
    st.one_of(st.booleans(), st.integers(min_value=-(2**62), max_value=2**62),
              st.text(max_size=20), st.none(),
              st.lists(st.integers(min_value=-100, max_value=100), max_size=4)),
), min_size=0, max_size=8).map(lambda kvs: {f"k{k}": v for k, v in kvs}))
def test_kv_ir_roundtrip_property(record):
    """Any flat JSON-able record survives the KV-IR wire format."""
    from clp_core_ray.ir_kv import deserialize_kv_ir_stream, serialize_kv_ir_stream

    buf = serialize_kv_ir_stream([record])
    _, events = deserialize_kv_ir_stream(buf)
    assert events[0][1] == record


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-(2**40), max_value=2**40),
                          _text), min_size=1, max_size=20))
def test_unstructured_ir_roundtrip_property(rows):
    """Random (ts, text) sequences survive both IR encodings."""
    from clp_core_ray import ir

    ts = [abs(t) for t, _ in rows]
    msgs = [m for _, m in rows]
    for four in (True, False):
        blob = ir.serialize_ir_stream(ts, msgs, four_byte=four)
        tbl = ir.decode_ir_stream_to_text(blob)
        assert tbl.column("text").to_pylist() == msgs
        assert tbl.column("ts").to_pylist() == ts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-(2**60), max_value=2**60),
                min_size=0, max_size=200),
       st.lists(st.integers(min_value=-(2**60), max_value=2**60),
                min_size=0, max_size=100))
def test_bloom_no_false_negatives_property(members, probes):
    """Every inserted key probes positive, for any key set (pure kernels)."""
    import numpy as np
    import pyarrow as pa

    from clp_core_ray.functions.sketch import _hash_col
    from clp_core_ray.pipelines.join import _bloom_positions

    log2_bits, n_hashes = 12, 3
    words = 1 << (log2_bits - 6)
    bits = np.zeros(words, dtype=np.uint64)
    if members:
        posn = _bloom_positions(
            _hash_col(pa.array(members, type=pa.int64())),
            log2_bits, n_hashes).reshape(-1)
        np.bitwise_or.at(bits, posn >> 6,
                         np.uint64(1) << (posn & 63).astype(np.uint64))
    for batch in (members, [m for m in probes if m in set(members)]):
        if not batch:
            continue
        q = _bloom_positions(_hash_col(pa.array(batch, type=pa.int64())),
                             log2_bits, n_hashes)
        hit = (bits[q >> 6] >> (q & 63).astype(np.uint64)
               & np.uint64(1)).astype(bool).all(axis=1)
        assert hit.all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=7))
def test_misra_gries_bounds_property(values, capacity, n_chunks):
    """Merged MG summaries bracket every true count for ANY chunking."""
    import numpy as np

    from clp_core_ray.functions.sketch import _mg_summary

    true = {}
    for v in values:
        true[v] = true.get(v, 0) + 1
    chunks = np.array_split(np.array(values, dtype=np.int64), n_chunks)
    merged, total_deduct = {}, 0
    for ch in chunks:
        if not len(ch):
            continue
        u, c = np.unique(ch, return_counts=True)
        kv, kc, d = _mg_summary(u, c.astype(np.int64), capacity)
        total_deduct += d
        for v, c2 in zip(kv.tolist(), kc.tolist()):
            merged[v] = merged.get(v, 0) + c2
    for v, n in true.items():
        lo = merged.get(v, 0)
        assert lo <= n <= lo + total_deduct, (v, lo, n, total_deduct)


@given(
    st.dictionaries(st.integers(0, 40), st.text(max_size=6), max_size=25),
    st.dictionaries(st.integers(0, 40), st.text(max_size=6), max_size=25),
)
@settings(max_examples=20, deadline=None)
def test_snapshot_diff_property(old, new):
    """snapshot_diff equals the brute-force dict diff on arbitrary corpora."""
    import ray.data as rd

    from clp_core_ray.functions.curation import snapshot_diff

    def ds_of(d):
        rows = [{"doc_id": k, "text": v} for k, v in sorted(d.items())]
        if not rows:
            rows = [{"doc_id": -999, "text": "sentinel"}]  # non-empty Dataset
            d[-999] = "sentinel"
        return rd.from_items(rows)

    old, new = dict(old), dict(new)
    got_ds = snapshot_diff(ds_of(old), ds_of(new), num_buckets=3)
    got = {(r["doc_id"], r["status"])
           for r in got_ds.to_pandas().to_dict("records")}
    want = set()
    for k in old.keys() - new.keys():
        want.add((k, "removed"))
    for k in new.keys() - old.keys():
        want.add((k, "added"))
    for k in old.keys() & new.keys():
        if old[k] != new[k]:
            want.add((k, "changed"))
    assert got == want


# ---- DFA lexer vs Python re (acceptance language equality) ----

_rx_atom = st.one_of(
    st.sampled_from([r"\d", r"\w", r"[a-f]", r"[^0-9]", r"[0-37-9]", ".",
                     "a", "b", "Z", "0", r"\.", "=", "-", r"\x41"]),
)


@st.composite
def _rx_pattern(draw, depth=2):
    if depth == 0:
        return draw(_rx_atom)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(_rx_atom)
    if kind == 1:  # seq
        parts = draw(st.lists(_rx_pattern(depth=depth - 1), min_size=1,
                              max_size=3))
        return "".join(parts)
    if kind == 2:  # alt
        parts = draw(st.lists(_rx_pattern(depth=depth - 1), min_size=2,
                              max_size=3))
        return "(?:" + "|".join(parts) + ")"
    if kind == 3:  # rep
        inner = draw(_rx_pattern(depth=depth - 1))
        q = draw(st.sampled_from(["*", "+", "?", "{2}", "{1,3}", "{0,2}"]))
        return "(?:" + inner + ")" + q
    return "(" + draw(_rx_pattern(depth=depth - 1)) + ")"


@settings(max_examples=120, deadline=None)
@given(st.lists(_rx_pattern(), min_size=1, max_size=4),
       st.lists(st.text(alphabet="ab0189=.-Zxf", min_size=1, max_size=8),
                min_size=1, max_size=30))
def test_dfa_equals_re_acceptance(patterns, tokens):
    """compile_rules acceptance == anchored re fullmatch, incl. priority."""
    import re

    from clp_core_ray.functions.dfa import DfaUnsupported, compile_rules

    try:
        dfa = compile_rules(patterns)
    except DfaUnsupported:
        return
    pats = [re.compile(p) for p in patterns]
    buf = ("\n".join(tokens) + "\n").encode()
    data = np.frombuffer(buf, dtype=np.uint8)
    starts, lens, pos = [], [], 0
    for t in tokens:
        b = len(t.encode())
        starts.append(pos)
        lens.append(b)
        pos += b + 1
    got = dfa.match_tokens(data, np.asarray(starts, dtype=np.int64),
                           np.asarray(lens, dtype=np.int64))
    for tok, g in zip(tokens, got):
        exp = -1
        for i, p in enumerate(pats):
            if p.fullmatch(tok):
                exp = i
                break
        assert g == exp, (tok, patterns, g, exp)
