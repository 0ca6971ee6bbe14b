"""CLP query → subquery compiler (M11, SURVEY.md §2.11).

Port of the clp Grep compilation pipeline (reference file:line cites are
relative to /root/reference/components/core/src/clp/):

- ``clean_up_wildcard_search_string`` — string_utils/string_utils.cpp:52-88
- ``get_bounds_of_next_potential_var`` — Grep.cpp:630-745 (heuristic form:
  returns only potential-variable or wildcard-containing tokens)
- ``QueryToken`` type inference — Grep.cpp:92-171 (non-wildcard non-var →
  Logtype; wildcarded non-var → {Logtype,Int,Float,Dict}; wildcarded
  convertible var → {Int,Float,Dict}; non-convertible var → Dict)
- cartesian enumeration of ambiguous-token interpretations and per-combo
  subquery generation — Grep.cpp:558-628, generate_logtypes_and_vars
  Grep.cpp:410-495, process_var_token Grep.cpp:315-373
- case-insensitive mode — string_utils.hpp:88-94 (lowercase both sides)

Divergences (both strictly conservative — the scan decode-verifies every
candidate, so extra candidates never change results):
- tokens with a greedy wildcard in the middle become a bare '*' in the
  logtype pattern (the reference pins a dict placeholder for var tokens,
  which can miss int/float/split-token matches — Grep.cpp:447-459);
- convertible tokens are enumerated only when they contain wildcards (for
  precise tokens the reference generates three identical subqueries);
- a var token with a leading or trailing '*' whose rest is made of number
  characters but is no number itself (``0.*``, ``*.5``) is read as an int
  or float too: the reference reads it as a dictionary var only and
  misses the ``0.5`` it could be part of (Grep.cpp:92-171).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clp_core_ray import encoding as E

WILDCARDS = "*?"
_PLACEHOLDERS = (E.PLACEHOLDER_INT, E.PLACEHOLDER_DICT, E.PLACEHOLDER_FLOAT)
MAX_COMBOS = 4096
_NUMBER_CHARS = set("-.0123456789")


def is_wildcard(c: str) -> bool:
    return c in WILDCARDS


def clean_up_wildcard_search_string(s: str) -> str:
    """Collapse '*' runs; drop escapes of non-wildcard/non-escape chars."""
    out: list[str] = []
    i = 0
    n = len(s)
    escaped = False
    while i < n:
        c = s[i]
        if escaped:
            escaped = False
            if is_wildcard(c) or c == "\\":
                out.append("\\")
            out.append(c)
            i += 1
        elif c == "*":
            out.append(c)
            while i < n and s[i] == "*":
                i += 1
        elif c == "\\":
            escaped = True
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def get_bounds_of_next_potential_var(value: str, begin_pos: int, end_pos: int):
    """→ (found, begin_pos, end_pos, is_var). Heuristic tokenizer over a
    wildcard query string; skips tokens that are neither potential variables
    nor wildcard-containing (they stay logtype constants)."""
    n = len(value)
    if end_pos > n:
        return False, begin_pos, end_pos, False
    is_var = False
    contains_wildcard = False
    while not is_var and not contains_wildcard and begin_pos < n:
        begin_pos = end_pos
        # find next wildcard or non-delimiter
        escaped = False
        while begin_pos < n:
            c = value[begin_pos]
            if escaped:
                escaped = False
                if not E.is_delim(c):
                    begin_pos -= 1  # retain the escape character
                    break
            elif c == "\\":
                escaped = True
            else:
                if is_wildcard(c):
                    contains_wildcard = True
                    break
                if not E.is_delim(c):
                    break
            begin_pos += 1

        contains_digit = False
        contains_alpha = False
        escaped = False
        end_pos = begin_pos
        while end_pos < n:
            c = value[end_pos]
            if escaped:
                escaped = False
                if E.is_delim(c):
                    end_pos -= 1  # retain the escape character
                    break
            elif c == "\\":
                escaped = True
            else:
                if is_wildcard(c):
                    contains_wildcard = True
                elif E.is_delim(c):
                    break
            if c.isdigit():
                contains_digit = True
            elif c.isalpha() and c.isascii():
                contains_alpha = True
            end_pos += 1

        token = value[begin_pos:end_pos]
        if contains_digit or E.could_be_multi_digit_hex_value(token):
            is_var = True
        elif begin_pos > 0 and value[begin_pos - 1] == "=" and contains_alpha:
            # var only if no wildcard appears before the first alphabet
            escaped = False
            wildcard_before_alpha = False
            for i in range(begin_pos, end_pos):
                c = value[i]
                if escaped:
                    escaped = False
                    if c.isalpha() and c.isascii():
                        break
                elif c == "\\":
                    escaped = True
                elif is_wildcard(c):
                    wildcard_before_alpha = True
                    break
                elif c.isalpha() and c.isascii():
                    break
            if not wildcard_before_alpha:
                is_var = True
    return begin_pos != n, begin_pos, end_pos, is_var


T_LOGTYPE, T_INT, T_FLOAT, T_DICT = "logtype", "int", "float", "dict"


@dataclass
class QueryToken:
    value: str
    begin: int
    end: int
    is_var: bool
    prefix_star: bool = False
    suffix_star: bool = False
    middle_star: bool = False
    contains_wildcards: bool = False
    possible_types: tuple = ()
    cannot_convert: bool = False  # pure dictionary var

    @classmethod
    def make(cls, query: str, begin: int, end: int, is_var: bool) -> "QueryToken":
        v = query[begin:end]
        t = cls(v, begin, end, is_var)
        if v == "*":
            t.contains_wildcards = True
            t.possible_types = ("wildcard",)
            return t
        t.prefix_star = v.startswith("*")
        t.suffix_star = v.endswith("*") and len(v) > 1
        t.middle_star = "*" in v[1:-1]
        t.contains_wildcards = t.prefix_star or t.suffix_star or t.middle_star
        if not is_var:
            t.possible_types = (
                (T_LOGTYPE,) if not t.contains_wildcards
                else (T_LOGTYPE, T_INT, T_FLOAT, T_DICT)
            )
        else:
            stripped = v[1:] if t.prefix_star else v
            stripped = stripped[:-1] if t.suffix_star else stripped
            convertible = (E.encode_int(stripped) is not None
                           or E.encode_float(stripped) is not None
                           or (t.contains_wildcards
                               and set(stripped) <= _NUMBER_CHARS))
            if not convertible:
                t.possible_types = (T_DICT,)
                t.cannot_convert = True
            elif t.contains_wildcards:
                t.possible_types = (T_INT, T_FLOAT, T_DICT)
            else:
                t.possible_types = (T_DICT,)  # resolved precisely at compile
        return t


def tokenize_query(processed: str) -> list[QueryToken]:
    tokens = []
    begin = end = 0
    while True:
        found, begin, end, is_var = get_bounds_of_next_potential_var(processed, begin, end)
        if not found:
            return tokens
        tokens.append(QueryToken.make(processed, begin, end, is_var))


@dataclass
class SubQuery:
    logtype_ids: np.ndarray
    var_conds: list = field(default_factory=list)  # each: np.ndarray of allowed int64s
    # the subset of var_conds that are dictionary-id sets — usable against the
    # per-variable segment index for partition pruning (clg.cpp:249-298);
    # int/float literal conds are not indexed, as in CLP
    dict_conds: list = field(default_factory=list)
    # per-cond variable kind (encoding.VT_*), parallel to var_conds — lets
    # a GLT scan align each condition to the variable *positions* of a
    # concrete logtype (glt's LogtypeTable column search)
    var_cond_types: list = field(default_factory=list)


@dataclass
class CompiledQuery:
    subqueries: list
    match_all: bool = False  # a subquery's logtype was '*' → scan everything
    processed: str = "*"  # effective wildcard pattern for decode-verify
    ignore_case: bool = False

    def all_logtype_ids(self) -> np.ndarray:
        if not self.subqueries:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([s.logtype_ids for s in self.subqueries]))


def dict_probe_patterns(query: str, ignore_case: bool = False):
    """The (exact needles, wildcard regexes) :func:`compile_query` would look
    up in the variable dictionary for ``query``.

    Lets callers prefilter a large on-disk dictionary down to just the
    entries these patterns select before compiling. compile_query's dict
    lookups are pure selections (equality / regex match over values), so
    compiling against the filtered subset yields identical subqueries —
    this is how a 100-TB archive's var dict stays off the driver (the
    reference holds dicts in memory, DictionaryReader.hpp role; ours can
    exceed driver RAM at scale).
    """
    processed = clean_up_wildcard_search_string(f"*{query}*")
    for_subqueries = clean_up_wildcard_search_string(processed.replace("?", "*"))
    exact: list[str] = []
    regexes: list[str] = []
    for t in tokenize_query(for_subqueries):
        if t.middle_star or "wildcard" in t.possible_types:
            continue  # absorbed into '*' / never a dict lookup
        needle = t.value.lower() if ignore_case else t.value
        if not t.contains_wildcards:
            if (T_DICT in t.possible_types
                    and E.encode_int(t.value) is None
                    and E.encode_float(t.value) is None):
                exact.append(needle)
        elif t.cannot_convert and T_DICT in t.possible_types:
            from clp_core_ray.pipelines.search import wildcard_to_regex

            regexes.append(wildcard_to_regex(needle))
    return exact, regexes


ANY = "[\\s\\S]*"


def _const_regex(text: str) -> str:
    """Query constant → regex over *stored* logtype bytes (placeholder bytes
    and '\\' appear escaped in storage, parsing.inc:12-33); honors query
    escapes ('\\*' = literal asterisk)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt in _PLACEHOLDERS or nxt == "\\":
                out.append(re.escape("\\" + nxt))
            else:
                out.append(re.escape(nxt))
            i += 2
        elif c == "*":
            out.append(ANY)
            i += 1
        elif c in _PLACEHOLDERS:
            out.append(re.escape("\\" + c))
            i += 1
        else:
            out.append(re.escape(c))
            i += 1
    return "".join(out)


def compile_query(
    query: str,
    logtype_ids: pa.Array,
    logtype_values: pa.Array,
    var_ids: np.ndarray | None = None,
    var_values: pa.Array | None = None,
    ignore_case: bool = False,
) -> CompiledQuery:
    """Wildcard query → CompiledQuery (possible logtypes × var conditions).

    ``var_ids``/``var_values`` are the archive's variable dictionary (used for
    precise/dictionary token lookups); when omitted, dict-var conditions stay
    imprecise (decode-verify keeps results exact either way).
    """
    processed = clean_up_wildcard_search_string(f"*{query}*")
    # '?' has no subquery form — widen to '*' for compilation only
    for_subqueries = clean_up_wildcard_search_string(processed.replace("?", "*"))
    tokens = tokenize_query(for_subqueries)

    vv_cmp = None
    if var_values is not None:
        vv_cmp = pc.utf8_lower(var_values) if ignore_case else var_values

    def dict_exact_ids(tok: str) -> np.ndarray:
        if vv_cmp is None:
            return None  # unknown — leave imprecise
        needle = tok.lower() if ignore_case else tok
        m = np.asarray(pc.equal(vv_cmp, needle), dtype=bool)
        return var_ids[m]

    def dict_wildcard_ids(tok: str) -> np.ndarray:
        if vv_cmp is None:
            return None
        from clp_core_ray.pipelines.search import wildcard_to_regex

        rx = wildcard_to_regex(tok.lower() if ignore_case else tok)
        m = np.asarray(pc.match_substring_regex(vv_cmp, rx), dtype=bool)
        return var_ids[m]

    ambiguous = [t for t in tokens
                 if not t.middle_star and len(t.possible_types) > 1]
    n_combos = 1
    for t in ambiguous:
        n_combos *= len(t.possible_types)
    if n_combos > MAX_COMBOS:
        # conservative fallback: scan everything, decode-verify filters
        return CompiledQuery([], match_all=True, processed=processed,
                             ignore_case=ignore_case)

    choices = itertools.product(*(t.possible_types for t in ambiguous)) \
        if ambiguous else [()]
    subqueries: list[SubQuery] = []
    seen_patterns: set = set()
    match_all = False

    for combo in choices:
        chosen = dict(zip(map(id, ambiguous), combo))
        pieces: list[str] = []
        var_conds: list = []
        dict_conds: list = []
        var_cond_types: list = []
        last_end = 0
        wont_match = False
        for t in tokens:
            pieces.append(_const_regex(for_subqueries[last_end:t.begin]))
            last_end = t.end
            ttype = chosen.get(id(t), t.possible_types[0])
            if ttype == "wildcard":
                pieces.append(ANY)
                continue
            if t.middle_star:
                # conservative: whole token absorbs into '*' (see module doc)
                pieces.append(ANY)
                continue
            if ttype == T_LOGTYPE:
                pieces.append(_const_regex(t.value))
                continue
            # variable interpretations
            if not t.contains_wildcards:
                # precise token: resolve its one true encoding
                # (encode_and_search_dictionary, EncodedVariableInterpreter)
                iv = E.encode_int(t.value)
                fv = E.encode_float(t.value) if iv is None else None
                if iv is not None:
                    pieces.append(re.escape(E.PLACEHOLDER_INT))
                    var_conds.append(np.array([iv], dtype=np.int64))
                    var_cond_types.append(E.VT_INT)
                elif fv is not None:
                    pieces.append(re.escape(E.PLACEHOLDER_FLOAT))
                    var_conds.append(np.array([fv], dtype=np.int64))
                    var_cond_types.append(E.VT_FLOAT)
                else:
                    ids = dict_exact_ids(t.value)
                    pieces.append(re.escape(E.PLACEHOLDER_DICT))
                    if ids is not None:
                        if len(ids) == 0:
                            wont_match = True
                            break
                        var_conds.append(ids.astype(np.int64))
                        dict_conds.append(ids.astype(np.int64))
                        var_cond_types.append(E.VT_DICT)
                continue
            if t.prefix_star:
                pieces.append(ANY)
            if ttype == T_INT:
                pieces.append(re.escape(E.PLACEHOLDER_INT))
            elif ttype == T_FLOAT:
                pieces.append(re.escape(E.PLACEHOLDER_FLOAT))
            else:
                pieces.append(re.escape(E.PLACEHOLDER_DICT))
                if t.cannot_convert:
                    ids = dict_wildcard_ids(t.value)
                    if ids is not None:
                        if len(ids) == 0:
                            wont_match = True
                            break
                        var_conds.append(ids.astype(np.int64))
                        dict_conds.append(ids.astype(np.int64))
                        var_cond_types.append(E.VT_DICT)
            if t.suffix_star:
                pieces.append(ANY)
        if wont_match:
            continue
        pieces.append(_const_regex(for_subqueries[last_end:]))
        pattern = "".join(pieces)
        if pattern == ANY:
            match_all = True
            break
        if pattern in seen_patterns:
            continue
        seen_patterns.add(pattern)
        rx = f"(?is)^{pattern}$" if ignore_case else f"(?s)^{pattern}$"
        hit = pc.match_substring_regex(logtype_values, rx)
        ids = np.asarray(logtype_ids, dtype=np.int64)[np.asarray(hit, dtype=bool)]
        if len(ids) == 0:
            continue  # WontMatch
        subqueries.append(
            SubQuery(logtype_ids=ids, var_conds=var_conds, dict_conds=dict_conds,
                     var_cond_types=var_cond_types)
        )

    return CompiledQuery(subqueries, match_all=match_all, processed=processed,
                         ignore_case=ignore_case)


def rows_matching_subquery_vars(encoded_vars, var_conds: list) -> np.ndarray:
    """In-order (gaps allowed) match of per-position allowed-value sets
    (Query.cpp:150-172 generalized to QueryVar id sets)."""
    if isinstance(encoded_vars, pa.ChunkedArray):
        encoded_vars = encoded_vars.combine_chunks()
    offsets = np.asarray(encoded_vars.offsets, dtype=np.int64)
    offsets = offsets - offsets[0]
    flat = np.asarray(encoded_vars.flatten(), dtype=np.int64)
    nrows = len(offsets) - 1
    ok = np.ones(nrows, dtype=bool)
    if not var_conds:
        return ok
    BIG = np.iinfo(np.int64).max
    pos = np.zeros(nrows, dtype=np.int64)
    for allowed in var_conds:
        if len(allowed) == 1:
            hit = flat == allowed[0]
        else:
            hit = np.isin(flat, allowed)
        cand = np.flatnonzero(hit)
        rows_of = np.searchsorted(offsets, cand, side="right") - 1
        rel = cand - offsets[rows_of]
        valid = rel >= pos[rows_of]
        best = np.full(nrows, BIG, dtype=np.int64)
        np.minimum.at(best, rows_of[valid], rel[valid])
        ok &= best < BIG
        pos = np.where(best < BIG, best + 1, pos)
    return ok
