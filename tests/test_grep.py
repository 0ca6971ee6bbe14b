"""Grep query-compiler conformance (ported from
/root/reference/components/core/tests/test-Grep.cpp get_bounds cases, with
the heuristic tokenizer's expectations) plus end-to-end ambiguous /
case-insensitive search vs brute force."""

import numpy as np
import pyarrow as pa
import pytest

from clp_core_ray.pipelines.grep import (
    CompiledQuery,
    clean_up_wildcard_search_string,
    compile_query,
    get_bounds_of_next_potential_var,
    tokenize_query,
)

SF = 0.0005


def all_tokens(s):
    out = []
    begin = end = 0
    while True:
        found, begin, end, is_var = get_bounds_of_next_potential_var(s, begin, end)
        if not found:
            return out
        out.append((s[begin:end], is_var))


def test_get_bounds_empty_and_no_tokens():
    assert all_tokens("") == []
    assert all_tokens("=") == []


def test_get_bounds_no_wildcards():
    # test-Grep.cpp:73-174 — hex tokens and the =-preceded rule
    s = " MAC address 95: ad ff 95 24 0d ff =-abc- "
    assert all_tokens(s) == [
        ("95", True), ("ad", True), ("ff", True), ("95", True),
        ("24", True), ("0d", True), ("ff", True), ("-abc-", True),
    ]


def test_get_bounds_with_wildcards():
    # test-Grep.cpp:176-259 string, heuristic expectations (escaped
    # delimiters end tokens; wildcards do not; digit rule decides is_var)
    s = r"~=1\*x\?!abc*123;1.2%x:+394/-=-*abc-"
    assert all_tokens(s) == [
        ("1", True),
        ("abc*123", True),
        ("1.2", True),
        ("+394", True),
        ("-*abc-", False),  # wildcard before first alphabet → not a var
    ]


def test_clean_up_wildcard_search_string():
    assert clean_up_wildcard_search_string("a***b") == "a*b"
    assert clean_up_wildcard_search_string(r"a\*b") == r"a\*b"
    assert clean_up_wildcard_search_string(r"a\ab") == "aab"  # dropped escape
    assert clean_up_wildcard_search_string("x\\") == "x"  # dangling escape


def _dicts_for(texts):
    from clp_core_ray.encoding import encode_message, fnv1a64
    from clp_core_ray.stages.encode import logtype_ids

    lts, vars_ = {}, {}
    for t in texts:
        lt, evs, vts, dvs = encode_message(t)
        lts[fnv1a64(lt.encode())] = lt
        for dv in dvs:
            vars_[fnv1a64(dv.encode())] = dv
    lt_ids = pa.array(list(lts), type=pa.int64())
    lt_vals = pa.array(list(lts.values()), type=pa.large_string())
    v_ids = np.array(list(vars_), dtype=np.int64)
    v_vals = pa.array(list(vars_.values()))
    return lt_ids, lt_vals, v_ids, v_vals


def test_compile_enumerates_ambiguous_types():
    texts = ["latency 857 ms", "value 45.7 here", "tag x857y end"]
    lt_ids, lt_vals, v_ids, v_vals = _dicts_for(texts)
    cq = compile_query("85*", lt_ids, lt_vals, v_ids, v_vals)
    assert isinstance(cq, CompiledQuery) and not cq.match_all
    # int / dict interpretations must both survive ('857' int var,
    # 'x857y' dict var); '85*' float plausible too
    assert len(cq.subqueries) >= 2
    assert len(cq.all_logtype_ids()) >= 2


@pytest.mark.parametrize("query,text", [
    ("value 45.*", "value 45.7 here"), ("*.7 here", "value 45.7 here"),
    ("latency 00*", "latency 00.5 ms")])
def test_compile_keeps_number_fragments(query, text):
    """A starred var token that is part of a number but no number itself
    ('45.' of 45.7) keeps the int/float templates a number could fill."""
    from clp_core_ray.encoding import encode_message, fnv1a64

    texts = ["latency 857 ms", "value 45.7 here", "latency 00.5 ms"]
    lt_ids, lt_vals, v_ids, v_vals = _dicts_for(texts)
    cq = compile_query(query, lt_ids, lt_vals, v_ids, v_vals)
    want = fnv1a64(encode_message(text)[0].encode())
    assert want in cq.all_logtype_ids().tolist()


def test_compile_wont_match_prunes():
    texts = ["latency 857 ms", "calling svc-42 now"]
    lt_ids, lt_vals, v_ids, v_vals = _dicts_for(texts)
    # precise dict token absent from the var dictionary → no subqueries
    cq = compile_query("calling svc-99 ", lt_ids, lt_vals, v_ids, v_vals)
    assert not cq.match_all and cq.subqueries == []
    # present → compiles with a precise var condition
    cq2 = compile_query("calling svc-42 ", lt_ids, lt_vals, v_ids, v_vals)
    assert len(cq2.subqueries) == 1
    assert len(cq2.subqueries[0].var_conds) == 1


def test_compile_match_all():
    texts = ["latency 857 ms"]
    lt_ids, lt_vals, v_ids, v_vals = _dicts_for(texts)
    assert compile_query("*", lt_ids, lt_vals, v_ids, v_vals).match_all


@pytest.fixture(scope="module")
def searchable_archive(ray_session, tmp_path_factory):
    from clp_core_ray.pipelines.compress import compress

    out = str(tmp_path_factory.mktemp("grep") / "arch")
    compress(SF, out)
    return out


def _brute(sf, rx):
    from clp_core_ray.sources.transcripts import read_transcripts

    df = read_transcripts(sf).to_pandas()
    return df[df["text"].str.contains(rx, regex=True)]


def test_search_ambiguous_token_e2e(ray_session, searchable_archive):
    from clp_core_ray.pipelines.search import search_archive

    hits = search_archive(searchable_archive, "took 45*").to_pandas()
    want = _brute(SF, r"took 45")
    assert len(hits) == len(want) > 0
    assert sorted(hits["text"]) == sorted(want["text"])


def test_search_nocase_e2e(ray_session, searchable_archive):
    from clp_core_ray.pipelines.search import search_archive

    hits = search_archive(
        searchable_archive, "error UPSTREAM timeout*", ignore_case=True
    ).to_pandas()
    want = _brute(SF, r"(?i)error upstream timeout")
    assert len(hits) == len(want) > 0
    assert sorted(hits["text"]) == sorted(want["text"])
    # case-sensitive form of the same query finds nothing (texts say ERROR)
    miss = search_archive(searchable_archive, "error UPSTREAM timeout*").to_pandas()
    assert len(miss) == 0


def test_search_question_mark_e2e(ray_session, searchable_archive):
    from clp_core_ray.pipelines.search import search_archive

    hits = search_archive(searchable_archive, "errno=4?").to_pandas()
    want = _brute(SF, r"errno=4\d")
    assert len(hits) == len(want) > 0
    assert sorted(hits["text"]) == sorted(want["text"])
