"""Scalar ↔ vectorized equivalence for the batch encode/decode kernels."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clp_core_ray import encoding as E
from clp_core_ray.vec.decoder import decode_batch
from clp_core_ray.vec.tokenizer import encode_batch

CORPUS = [
    "",
    "no variables here",
    "only delims !@#$%^&*()",
    "here is a small int 4938 and big 46116860184273879040 and float -25.5196868642755",
    "weird double -00.00 and str python2.7.3",
    "MyDog123 ate APet4123\\test.txt at 1.9 GB and 123.123",
    "k=v key=value123 x=10 y=z9",
    "\\ \x11 \x12 \x13 literal placeholders \\\\ double",
    "hex deadbeef and AD0194 mixed Ad01x94z ad ff 95 24 0d",
    "unicode héllo wörld 42 é=café2 ←→ §81",
    "edge ints: -0 +1 01 1 0 -1 9223372036854775807 -9223372036854775808",
    "overflow 9223372036854775808 -9223372036854775809 99999999999999999999",
    "floats: .1 1. 0.0 -1.0 .9999999999999999 12345678901234567.0 1..2",
    "=x =abc =abc1 a=b trailing=",
    "~=x!abc123;1.2%x:+394/-",
    "2016-05-08 07:34:05.251 INFO main: Starting deletion of file /tmp/py192.txt",
    "a",
    "=" * 50,
    "\\" * 7 + " 42",
    "127.0.0.1:8080 took 0.334ms status=200",
]


def scalar_encode_all(msgs):
    rows = [E.encode_message(m) for m in msgs]
    return rows


def check_equivalence(msgs):
    batch = encode_batch(pa.array(msgs, type=pa.large_string()))
    logtypes = batch["logtype"].to_pylist()
    evs = batch["encoded_vars"].to_pylist()
    vts = batch["var_types"].to_pylist()
    dvs = batch["dict_vars"].to_pylist()
    for i, m in enumerate(msgs):
        slog, sev, svt, sdv = E.encode_message(m)
        assert logtypes[i] == slog, f"logtype mismatch for {m!r}"
        assert evs[i] == sev, f"encoded_vars mismatch for {m!r}"
        assert vts[i] == svt, f"var_types mismatch for {m!r}"
        assert dvs[i] == sdv, f"dict_vars mismatch for {m!r}"
    # vectorized decode (inline dict vars) round trips
    decoded = decode_batch(
        batch["logtype"], batch["encoded_vars"], batch["dict_vars"]
    ).to_pylist()
    assert decoded == list(msgs)
    # broadcast-dictionary decode round trips
    flat_strs = [s for row in dvs for s in row]
    ids = np.array([E.fnv1a64(s.encode()) for s in flat_strs], dtype=np.int64)
    uniq_ids, idx = np.unique(ids, return_index=True) if len(ids) else (ids, ids)
    decoded2 = decode_batch(
        batch["logtype"],
        batch["encoded_vars"],
        dict_ids=uniq_ids,
        dict_values=pa.array([flat_strs[i] for i in idx], type=pa.string()),
    ).to_pylist()
    assert decoded2 == list(msgs)


def test_corpus_equivalence():
    check_equivalence(CORPUS)


def test_single_rows():
    for m in CORPUS:
        check_equivalence([m])


def test_chunked_and_offset_arrays():
    arr = pa.chunked_array([CORPUS[:3], CORPUS[3:]], type=pa.large_string())
    out = encode_batch(arr)
    assert len(out["logtype"]) == len(CORPUS)
    sliced = pa.array(CORPUS, type=pa.large_string()).slice(2, 5)
    out2 = encode_batch(sliced)
    assert out2["logtype"].to_pylist()[0] == E.encode_message(CORPUS[2])[0]


_frag = st.sampled_from(
    list("abcxyzABZ0123456789 .,=+-_\\/:!\x11\x12\x13héπ")
    + ["\\\\", "123", "0.5", "=a1", " deadbeef ", "-00.00", "01", "9" * 19]
)
printable_plus = st.lists(_frag, max_size=25).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(printable_plus, min_size=1, max_size=8))
def test_hypothesis_equivalence(msgs):
    check_equivalence(msgs)


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FF),
        max_size=60,
    )
)
def test_hypothesis_unicode_roundtrip(msg):
    check_equivalence([msg])


def test_numeric_edge_values():
    msgs = [f"v {s} end" for s in [
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "-9223372036854775809", "18446744073709551615", "1" * 19, "1" * 20,
        "-" + "9" * 19, "0.0000000000000001", "-999999999999999.9",
        ".9999999999999999", "-.9999999999999999", "9999999999999999.9",
    ]]
    check_equivalence(msgs)


def test_decode_broadcast_dict_paths():
    """The sorted-dictionary binary-search path, the unsorted index_in
    fallback, and the missing-id error must all resolve identically."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from clp_core_ray.vec.decoder import decode_batch

    lt = pa.array(["x \x12 y", "\x12"], type=pa.large_string())
    ev = pa.array([[7], [5]], type=pa.list_(pa.int64()))
    want = ["x B y", "a"]

    sorted_ids = np.array([5, 7, 9])
    vals = pa.array(["a", "B", "c"])
    assert decode_batch(lt, ev, dict_ids=sorted_ids, dict_values=vals).to_pylist() == want

    # unsorted and duplicate-id dictionaries take the hash fallback
    assert decode_batch(
        lt, ev, dict_ids=np.array([9, 5, 7]), dict_values=pa.array(["c", "a", "B"])
    ).to_pylist() == want
    assert decode_batch(
        lt, ev, dict_ids=np.array([5, 7, 7, 9]),
        dict_values=pa.array(["a", "B", "B", "c"]),
    ).to_pylist() == want

    with pytest.raises(KeyError):
        decode_batch(lt, ev, dict_ids=np.array([5, 8, 9]), dict_values=vals)

    # int64-overflow trap: np.diff of full-range hash ids wraps (a drop from
    # +9e18 to -9e18 looks positive), which must NOT be taken as "sorted" —
    # this is the concatenated-bucket order real var dictionaries arrive in
    big = np.array([9_100_000_000_000_000_000, -9_100_000_000_000_000_000, 7],
                   dtype=np.int64)
    got = decode_batch(
        pa.array(["\x12"], type=pa.large_string()),
        pa.array([[-9_100_000_000_000_000_000]], type=pa.list_(pa.int64())),
        dict_ids=big, dict_values=pa.array(["x", "y", "B"]),
    ).to_pylist()
    assert got == ["y"]
