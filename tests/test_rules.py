"""Schema-rule (grok-style) encoder tests."""

import os

import pyarrow as pa

from clp_core_ray import encoding as E
from clp_core_ray.functions.rules import DEFAULT_RULES, RuleEncodeStage, RuleSet

SCHEMAS = os.path.join(os.path.dirname(__file__), "fixtures", "schemas.txt")


def test_schema_file_parsing():
    text = open(SCHEMAS).read()
    rs = RuleSet.from_schema_text(text)
    names = [n for n, _ in rs.rules]
    assert sorted(names) == sorted(["int", "float", "hex", "hasNumber", "equals"])


def test_rule_encode_roundtrip():
    rs = RuleSet([("ip", r"\d+\.\d+\.\d+\.\d+")] + list(DEFAULT_RULES))
    stage = RuleEncodeStage(rs, keep_text=True)
    msgs = [
        "conn from 10.1.2.3 port 443 latency 1.5 ms",
        "deadbeef cafe plain words",
        "a=b key=value9",
        "",
    ]
    out = stage(pa.table({"text": pa.array(msgs)}))
    # ip matched as ONE dict token (rule priority beats float rule)
    dvs = out.column("dict_vars").to_pylist()
    assert "10.1.2.3" in dvs[0]
    # round trip through the stock decoder
    for i in range(len(msgs)):
        got = E.decode_message(
            out.column("logtype")[i].as_py(),
            out.column("encoded_vars")[i].as_py(),
            dict_vars=out.column("dict_vars")[i].as_py(),
        )
        assert got == msgs[i]
    # int/float rules produce typed vars
    vts0 = out.column("var_types")[0].as_py()
    assert E.VT_INT in vts0 and E.VT_FLOAT in vts0


def test_rule_priority_order():
    # float listed before int → "1.5" matches float, not two ints
    rs = RuleSet([("float", r"\-?[0-9]+\.[0-9]+"), ("int", r"\-?[0-9]+")])
    out = RuleEncodeStage(rs)(pa.table({"text": pa.array(["x 1.5 y 7"])}))
    assert out.column("var_types")[0].as_py() == [E.VT_FLOAT, E.VT_INT]


def test_rules_in_ray_pipeline(ray_session):
    import ray.data as rd

    from clp_core_ray.stages.encode import DecodeStage

    msgs = [f"worker 10.0.0.{i} handled {i} jobs in {i}.5 s" for i in range(50)]
    ds = rd.from_arrow(pa.table({"text": pa.array(msgs)}))
    rs = RuleSet([("ip", r"\d+\.\d+\.\d+\.\d+")] + list(DEFAULT_RULES))
    enc = ds.map_batches(
        RuleEncodeStage,
        fn_constructor_kwargs={"ruleset": rs},
        batch_format="pyarrow",
        concurrency=2,
    )
    dec = enc.map_batches(DecodeStage(out_col="text2"), batch_format="pyarrow")
    got = sorted(dec.to_pandas()["text2"])
    assert got == sorted(msgs)


def test_schema_file_delimiters_and_timestamps():
    """delimiters:/timestamp: lines are honored, not ignored (schemas.txt)."""
    text = open(SCHEMAS).read()
    rs = RuleSet.from_schema_text(text)
    assert rs.delimiters is not None and "\\t" in rs.delimiters
    assert len(rs.timestamp_rules) == 2
    stage = RuleEncodeStage(rs, keep_text=True)
    msgs = [
        "2024-01-02 03:04:05.123 job 17 done in 1.5 s",
        "[20240102-03:04:05] worker started",
        "no timestamp here 42",
    ]
    out = stage(pa.table({"text": pa.array(msgs)}))
    ts = out.column("ts_text").to_pylist()
    assert ts[0] == "2024-01-02 03:04:05.123"
    assert ts[1] == "[20240102-03:04:05]"
    assert ts[2] == ""
    # timestamp digits are NOT encoded as variables; body vars are
    vts0 = out.column("var_types")[0].as_py()
    assert len(vts0) == 2 and E.VT_INT in vts0 and E.VT_FLOAT in vts0
    # ts_text + decoded body reproduces the original line
    for i in range(len(msgs)):
        body = E.decode_message(
            out.column("logtype")[i].as_py(),
            out.column("encoded_vars")[i].as_py(),
            dict_vars=out.column("dict_vars")[i].as_py(),
        )
        assert ts[i] + body == msgs[i]


def test_delimiter_bounded_tokens():
    """With delimiters declared, '123abc' is one hasNumber token (reference
    maximal-munch over delimiter-separated tokens), not int 123 + hex abc."""
    text = open(SCHEMAS).read()
    rs = RuleSet.from_schema_text(text)
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["x 123abc y 99", "a=1,b=2"])})
    )
    assert out.column("dict_vars")[0].as_py() == ["123abc"]
    assert out.column("var_types")[0].as_py() == [E.VT_DICT, E.VT_INT]
    # ',' is a delimiter: two equals-rule tokens, bounded at the comma
    assert out.column("dict_vars")[1].as_py() == ["a=1", "b=2"]


def test_maximal_munch_longest_wins():
    """log-surgeon DFA semantics: at a position the LONGEST match wins even
    when a shorter match belongs to a higher-priority rule (Python-re
    first-alternative alone would pick the shorter one)."""
    # lower-priority alnum beats higher-priority word on length
    rs = RuleSet([("word", r"[a-z]+"), ("alnum", r"[a-z][a-z0-9]+")])
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["key abc123 end"])})
    )
    assert "abc123" in out.column("dict_vars")[0].as_py()
    # int listed before float must still yield a float var for '3.14'
    rs = RuleSet([("int", r"\-?[0-9]+"), ("float", r"\-?[0-9]+\.[0-9]+")])
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["pi=3.14"])})
    )
    vts = out.column("var_types")[0].as_py()
    assert vts == [E.VT_FLOAT]
    body = E.decode_message(
        out.column("logtype")[0].as_py(),
        out.column("encoded_vars")[0].as_py(),
        dict_vars=out.column("dict_vars")[0].as_py(),
    )
    assert body == "pi=3.14"


def test_maximal_munch_tie_breaks_by_priority():
    """Equal-length matches: the earlier rule wins (int typing observable)."""
    rs = RuleSet([("int", r"[0-9]+"), ("num", r"[0-9]+")])
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["v 42"])})
    )
    assert out.column("var_types")[0].as_py() == [E.VT_INT]
    rs = RuleSet([("num", r"[0-9]+"), ("int", r"[0-9]+")])
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["v 42"])})
    )
    # 'num' (a dict rule) wins the tie → dictionary variable, not int
    assert out.column("var_types")[0].as_py() == [E.VT_DICT]


def test_maximal_munch_with_delimiters():
    """Delimiter-bounded mode keeps working under the maximal-munch scanner."""
    rs = RuleSet(
        [("short", r"ab"), ("long", r"ab[a-z0-9]+")],
        delimiters=r" \t",
    )
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(["go abzzz9 stop ab"])})
    )
    assert out.column("dict_vars")[0].as_py() == ["abzzz9", "ab"]


def test_rules_with_inner_capturing_groups():
    """A user rule containing its own (capturing) groups must not confuse
    the group-number → rule-index mapping (delimiter AND legacy modes)."""
    rules = [("pair", r"([a-z]+)=([0-9]+)"), ("int", r"[0-9]+"),
             ("word", r"([a-z]+)")]
    for delims in (r" \t", None):
        rs = RuleSet(rules, delimiters=delims)
        out = RuleEncodeStage(rs, keep_text=True)(
            pa.table({"text": pa.array(["k=42 99 abc"])})
        )
        assert out.column("dict_vars")[0].as_py() == ["k=42", "abc"]
        assert out.column("var_types")[0].as_py() == [
            E.VT_DICT, E.VT_INT, E.VT_DICT
        ]
        body = E.decode_message(
            out.column("logtype")[0].as_py(),
            out.column("encoded_vars")[0].as_py(),
            dict_vars=out.column("dict_vars")[0].as_py(),
        )
        assert body == "k=42 99 abc"


def test_rules_non_ascii_passthrough():
    """Multi-byte UTF-8 content survives the byte-level lexer round trip."""
    rs = RuleSet.from_schema_text(
        "delimiters: \\t\nint:\\-{0,1}[0-9]+\n"
    )
    msgs = ["héllo wörld 42", "ναι 7 οχι", "plain"]
    out = RuleEncodeStage(rs, keep_text=True)(
        pa.table({"text": pa.array(msgs)})
    )
    for i, msg in enumerate(msgs):
        body = E.decode_message(
            out.column("logtype")[i].as_py(),
            out.column("encoded_vars")[i].as_py(),
            dict_vars=out.column("dict_vars")[i].as_py(),
        )
        assert body == msg
