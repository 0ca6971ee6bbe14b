"""User-extensible schema-rule parser (M7 / §2.10: log-surgeon's role).

CLP's schema file (components/core/config/schemas.txt, consumed at
clp/FileCompressor.cpp:196-228) declares delimiters plus ordered, named regex
rules; `timestamp` rules mark event boundaries, `int`/`float` rules get the
specially-encoded forms, every other named rule becomes a dictionary
variable. This module re-expresses that as a RuleSet compiled ONCE (per
actor) into BYTE-level patterns (log-surgeon is byte-oriented) scanned over
the batch's row-concatenated buffer, with the heavy lifting — canonical
int/float classification, logtype construction with escaping, per-row list
assembly — delegated to the same vectorized numpy kernel the main encoder
uses (vec/tokenizer.assemble_encoded). The only Python-level iteration is
the regex match loop itself (one step per token, C-speed regex in between).

Maximal munch (log-surgeon DFA semantics: longest match wins, ties by rule
priority):

- **delimiter mode** (``delimiters:`` declared): every rule is anchored
  between delimiters, so ANY match covers a whole delimiter-bounded token —
  all candidate matches at a position have equal length, and Python-re
  alternation order IS the priority tiebreak. One ``finditer`` pass, no
  probing.
- **legacy mode** (no delimiters): rules self-bound; at each candidate start
  every rule is probed and the longest match wins (priority on ties).

Delimiter semantics are honored by anchoring every rule between
delimiters/line edges and rewriting unescaped ``.`` atoms to ``[^delims]``
— so the reference's ``hasNumber:.*\\d.*`` matches one token, not the rest
of the line. ``timestamp:`` rules strip a leading timestamp into a
``ts_text`` column before variable scanning (the reference stores
timestamps out-of-band); the stripped bytes are blanked to ``\\n`` so the
body start anchors like a line start, as it did when physically stripped.

Output is the standard encoded schema (logtype + encoded_vars + var_types +
dict_vars), so the stock decoder round-trips rule-encoded messages
untouched. Patterns are utf-8-encoded for byte-level matching; non-ASCII
bytes inside tokens are plain non-delimiter bytes (reference behavior).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from clp_core_ray.vec.tokenizer import (
    _cumsum0,
    _string_buffers,
    assemble_encoded,
)

DEFAULT_RULES: list[tuple[str, str]] = [
    # mirrors config/schemas.txt (timestamp rules live in timestamps.py).
    # maximal munch makes listing order matter only for equal-length ties.
    ("float", r"\-?[0-9]+\.[0-9]+"),
    ("int", r"\-?[0-9]+"),
    ("hex", r"[a-fA-F]+"),
    ("hasNumber", r"[^ \t\r\n]*\d[^ \t\r\n]*"),
    ("equals", r"[^ \t\r\n]*=[^ \t\r\n]*[a-zA-Z0-9][^ \t\r\n]*"),
]


def _token_bound(rx: str, delim_class: str) -> str:
    """Rewrite unescaped ``.`` (outside char classes) to ``[^delims]`` so a
    schema rule cannot swallow delimiters — log-surgeon lexes tokens between
    delimiters before rules apply, so ``.`` there never crosses one."""
    out = []
    i, in_class = 0, False
    while i < len(rx):
        ch = rx[i]
        if ch == "\\" and i + 1 < len(rx):
            out.append(rx[i : i + 2])
            i += 2
            continue
        if ch == "[":
            in_class = True
        elif ch == "]":
            in_class = False
        if ch == "." and not in_class:
            out.append(f"[^{delim_class}]")
        else:
            out.append(ch)
        i += 1
    return "".join(out)


@dataclass
class RuleSet:
    """Ordered named rules; maximal munch, earlier rules win ties
    (log-surgeon priority). ``int``/``float`` rules produce specially-encoded
    variables when the token is canonical; everything else is a dictionary
    variable.

    ``delimiters`` is the raw char-class body from the schema file's
    ``delimiters:`` line (None = rules self-bound, legacy behavior);
    ``timestamp_rules`` are the ``timestamp:`` regexes, applied at line
    start only."""

    rules: list[tuple[str, str]] = field(default_factory=lambda: list(DEFAULT_RULES))
    delimiters: str | None = None
    timestamp_rules: list[str] = field(default_factory=list)

    def _delim_class(self) -> str | None:
        if self.delimiters is None:
            return None
        d = self.delimiters
        if "\\n" not in d and "\n" not in d:
            d += r"\n"  # row sentinel must always bound tokens
        return d

    def compile(self, as_bytes: bool = False) -> re.Pattern:
        d = self._delim_class()
        alts = []
        for i, (name, rx) in enumerate(self.rules):
            if d is not None:
                rx = _token_bound(rx, d)
            alts.append(f"(?P<r{i}>{rx})")
        body = "|".join(alts)
        if d is None:
            src, flags = body, 0
        else:
            # delimiter-bounded: each match must start after a delimiter (or
            # line start) and end before one (or line end)
            src = rf"(?:^|(?<=[{d}]))(?:{body})(?=[{d}]|$)"
            flags = re.MULTILINE
        return re.compile(src.encode() if as_bytes else src, flags)

    def compile_each(self, as_bytes: bool = False) -> list[re.Pattern]:
        """One pattern per rule (same delimiter bounding as :meth:`compile`)
        — the legacy maximal-munch scanner probes each rule at a candidate
        start."""
        d = self._delim_class()
        out = []
        for name, rx in self.rules:
            if d is not None:
                rx = _token_bound(rx, d)
                src = rf"(?:^|(?<=[{d}]))(?:{rx})(?=[{d}]|$)"
                out.append(re.compile(src.encode() if as_bytes else src,
                                      re.MULTILINE))
            else:
                out.append(re.compile(rx.encode() if as_bytes else rx))
        return out

    def compile_timestamps(self, as_bytes: bool = False) -> re.Pattern | None:
        if not self.timestamp_rules:
            return None
        body = "|".join(f"(?:{rx})" for rx in self.timestamp_rules)
        src = rf"^(?:{body})"
        return re.compile(src.encode() if as_bytes else src, re.MULTILINE)

    @classmethod
    def from_schema_text(cls, text: str) -> "RuleSet":
        """Parse the CLP schema-file format: `name:regex` lines, // comments,
        plus ``delimiters:`` (char set, kept verbatim as a regex-class body)
        and ``timestamp:`` (line-start regexes) declarations."""
        rules: list[tuple[str, str]] = []
        delimiters: str | None = None
        ts_rules: list[str] = []
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("//"):
                continue
            if ":" not in stripped:
                continue
            name, rx = stripped.split(":", 1)
            name = name.strip()
            if name == "delimiters":
                # keep everything after the colon: a leading space means
                # space IS a delimiter (it is, in the reference file)
                delimiters = line.split(":", 1)[1].rstrip("\r\n")
                continue
            if name == "timestamp":
                ts_rules.append(rx.strip())
                continue
            rules.append((name, rx.strip()))
        return cls(rules, delimiters=delimiters, timestamp_rules=ts_rules)


_NL = np.uint8(10)


class RuleEncodeStage:
    """Schema-rule encoder: same output contract as EncodeStage.

    Rules are compiled once per actor (stateful-stage setup); per batch the
    row bytes are joined with ``\\n`` sentinels, lexed with maximal-munch
    semantics (see module docstring), and the matched variable spans are
    handed to the shared vectorized assembler — classification, logtype
    escaping, and per-row list building all run as numpy kernels over the
    whole batch.
    """

    def __init__(self, ruleset: RuleSet | None = None, text_col: str = "text",
                 keep_text: bool = False, use_dfa: bool = True):
        self.ruleset = ruleset or RuleSet()
        self.delim_mode = self.ruleset.delimiters is not None
        self.dfa = None
        if self.delim_mode and use_dfa:
            # table-driven DFA lexer (log-surgeon's engine shape); regex
            # scanner stays as the fallback for unsupported syntax and as
            # the semantics oracle in tests
            from clp_core_ray.functions.dfa import DfaUnsupported, compile_rules
            try:
                self.dfa = compile_rules([rx for _, rx in self.ruleset.rules])
            except DfaUnsupported:
                self.dfa = None
        if self.delim_mode:
            # Matching runs over a buffer whose delimiter bytes are blanked
            # to \n, so tokens ARE lines: a plain ^(?:alts)$ MULTILINE
            # pattern (no lookarounds, no per-rule token bounding) matches
            # exactly the full delimiter-bounded tokens — measured ~25%
            # faster than the lookbehind/lookahead form on log-shaped input.
            alts = b"|".join(
                b"(?P<r%d>" % i + rx.encode() + b")"
                for i, (_, rx) in enumerate(self.ruleset.rules)
            )
            self.pattern = re.compile(b"^(?:" + alts + b")$", re.MULTILINE)
            probe = re.compile(
                ("[" + self.ruleset._delim_class() + "]").encode()
            )
            self._delim_tbl = np.array(
                [bool(probe.match(bytes([b]))) for b in range(256)], dtype=bool
            )
            self.rule_patterns = None
        else:
            self.pattern = self.ruleset.compile(as_bytes=True)
            self._delim_tbl = None
            # probes only needed in legacy mode
            self.rule_patterns = self.ruleset.compile_each(as_bytes=True)
        # group number → rule index (a rule's own capturing groups get
        # numbers between its named group and the next rule's)
        gstarts = sorted(
            (num, int(name[1:]))
            for name, num in self.pattern.groupindex.items()
            if name.startswith("r") and name[1:].isdigit()
        )
        self._group_nums = np.array([g for g, _ in gstarts], dtype=np.int64)
        self._group_rule = np.array([r for _, r in gstarts], dtype=np.int64)
        # O(1) scalar lookup for the legacy scan loop
        g2r = [0] * (self.pattern.groups + 1)
        for (g, r), nxt in zip(
            gstarts, [x[0] for x in gstarts[1:]] + [self.pattern.groups + 1]
        ):
            for k in range(g, nxt):
                g2r[k] = r
        self._g2r = g2r
        self.ts_pattern = self.ruleset.compile_timestamps(as_bytes=True)
        self.rule_names = [n for n, _ in self.ruleset.rules]
        self.is_int_rule = np.array(
            [n == "int" for n in self.rule_names], dtype=bool
        )
        self.is_float_rule = np.array(
            [n == "float" for n in self.rule_names], dtype=bool
        )
        self.text_col = text_col
        self.keep_text = keep_text

    def _rule_of(self, lastindex: np.ndarray) -> np.ndarray:
        """Map re match lastindex values to rule indices."""
        pos = np.searchsorted(self._group_nums, lastindex, side="right") - 1
        return self._group_rule[pos]

    def _scan(self, joined: bytes) -> list[tuple[int, int, int]]:
        """Legacy-mode maximal-munch lexing → [(start, end, rule_idx)].

        The combined pattern's search supplies the leftmost candidate start
        (and a baseline match); each OTHER rule is probed at that start and
        the longest match wins, earliest rule on ties. One Python iteration
        per token, #rules regex probes per token — never per character."""
        out: list[tuple[int, int, int]] = []
        pos = 0
        search = self.pattern.search
        probes = self.rule_patterns
        while True:
            m = search(joined, pos)
            if m is None:
                return out
            start = m.start()
            best_idx = self._g2r[m.lastindex]
            best_end = m.end()
            for idx, rx in enumerate(probes):
                mm = rx.match(joined, start)
                if mm is None:
                    continue
                e = mm.end()
                if e > best_end or (e == best_end and idx < best_idx):
                    best_end, best_idx = e, idx
            if best_end <= start:  # zero-length safeguard
                pos = start + 1
                continue
            out.append((start, best_end, best_idx))
            pos = best_end

    @staticmethod
    def _scatter(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Indices covering [starts[i], starts[i]+lengths[i]) for every i."""
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        return (
            np.repeat(starts, lengths)
            + np.arange(total, dtype=np.int64)
            - np.repeat(_cumsum0(lengths)[:-1], lengths)
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        offsets, data = _string_buffers(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        nrows = len(offsets) - 1
        nbytes = len(data)

        # joined buffer with \n sentinels between rows
        jlen = nbytes + nrows
        jdata = np.empty(jlen, dtype=np.uint8)
        sent = offsets[1:] + np.arange(nrows)
        mask = np.ones(jlen, dtype=bool)
        mask[sent] = False
        jdata[mask] = data
        jdata[sent] = _NL
        jstart = offsets[:-1] + np.arange(nrows)

        # leading-timestamp strip (out-of-band, FileCompressor.cpp:196-228)
        ts_len = np.zeros(nrows, dtype=np.int64)
        if self.ts_pattern is not None and jlen:
            jb = jdata.tobytes()
            tspans = [m.span() for m in self.ts_pattern.finditer(jb)]
            if tspans:
                tarr = np.asarray(tspans, dtype=np.int64)
                trows = np.searchsorted(jstart, tarr[:, 0], side="right") - 1
                anchored = tarr[:, 0] == jstart[trows]
                ts_len[trows[anchored]] = (tarr[:, 1] - tarr[:, 0])[anchored]
            if ts_len.any():
                tsrows = np.flatnonzero(ts_len)
                jdata[self._scatter(jstart[tsrows], ts_len[tsrows])] = _NL

        # lex → parallel (start, end, rule_idx) arrays in joined coordinates
        sarr = earr = rarr = np.empty(0, dtype=np.int64)
        if self.delim_mode and self.dfa is not None:
            # DFA engine: tokens are maximal non-delimiter runs; a rule
            # matches iff the DFA accepts the whole token (same language as
            # the anchored ^(?:alts)$ pattern below). One table-gather step
            # per byte position, vectorized across all tokens.
            if jlen:
                nond = ~self._delim_tbl[jdata]
                d8 = np.diff(nond.view(np.int8))
                tstart = np.flatnonzero(d8 == 1) + 1
                tend = np.flatnonzero(d8 == -1) + 1
                if nond[0]:
                    tstart = np.concatenate(([0], tstart))
                if tend.size < tstart.size:  # buffer ends mid-token
                    tend = np.concatenate((tend, [jlen]))
                rr = self.dfa.match_tokens(jdata, tstart, tend - tstart)
                sel = rr >= 0
                sarr = tstart[sel]
                earr = tend[sel]
                rarr = rr[sel].astype(np.int64)
        elif self.delim_mode:
            # blank ALL delimiter bytes to \n: tokens become lines, and the
            # anchored ^(?:alts)$ pattern matches exactly full tokens
            mbuf = jdata.copy()
            mbuf[self._delim_tbl[jdata]] = _NL
            jb = mbuf.tobytes() if jlen else b""
            spans = [
                (m.start(), m.end(), m.lastindex)
                for m in self.pattern.finditer(jb)
                if m.end() > m.start()
            ]
            if spans:
                arr = np.asarray(spans, dtype=np.int64)
                sarr, earr = arr[:, 0], arr[:, 1]
                rarr = self._rule_of(arr[:, 2])
        else:
            jb = jdata.tobytes() if jlen else b""
            spans = self._scan(jb)
            if spans:
                arr = np.asarray(spans, dtype=np.int64)
                sarr, earr, rarr = arr[:, 0], arr[:, 1], arr[:, 2]

        # clean buffer = rows minus ts prefixes (what the logtype is built on)
        if ts_len.any():
            keep = np.ones(nbytes, dtype=bool)
            keep[self._scatter(offsets[:-1][tsrows], ts_len[tsrows])] = False
            cdata = data[keep]
            cs_keep = _cumsum0(keep, dtype=np.int64)
            coffsets = cs_keep[offsets]
        else:
            cdata, coffsets, cs_keep = data, offsets, None

        if sarr.size:
            mrow = np.searchsorted(jstart, sarr, side="right") - 1
            ob = sarr - mrow  # joined → original coords (r sentinels)
            oe = earr - mrow
            ridx = rarr
            # drop any legacy-mode match that crossed a row sentinel
            valid = oe <= offsets[mrow + 1]
            if not valid.all():
                ob, oe, ridx, mrow = ob[valid], oe[valid], ridx[valid], mrow[valid]
            if cs_keep is not None:
                ob, oe = cs_keep[ob], cs_keep[oe]
            allow_int = self.is_int_rule[ridx]
            allow_float = self.is_float_rule[ridx]
        else:
            ob = oe = np.empty(0, dtype=np.int64)
            mrow = np.empty(0, dtype=np.int64)
            allow_int = allow_float = np.empty(0, dtype=bool)

        enc = assemble_encoded(cdata, coffsets, ob, oe, mrow,
                               allow_int=allow_int, allow_float=allow_float)

        from clp_core_ray.stages.encode import logtype_ids

        cols = dict(zip(batch.column_names, batch.columns))
        if not self.keep_text:
            cols.pop(self.text_col, None)
        cols["logtype"] = enc["logtype"]
        cols["logtype_id"] = logtype_ids(enc["logtype"])
        cols["encoded_vars"] = enc["encoded_vars"]
        cols["var_types"] = enc["var_types"]
        cols["dict_vars"] = enc["dict_vars"]
        cols["n_vars"] = enc["n_vars"]
        if self.ts_pattern is not None:
            ts_buf = (
                data[self._scatter(offsets[:-1][tsrows], ts_len[tsrows])]
                if ts_len.any()
                else np.empty(0, np.uint8)
            )
            cols["ts_text"] = pa.Array.from_buffers(
                pa.string(),
                nrows,
                [
                    None,
                    pa.py_buffer(_cumsum0(ts_len, dtype=np.int32).tobytes()),
                    pa.py_buffer(ts_buf.tobytes()),
                ],
            )
        return pa.table(cols)
