"""Encode / decode Ray Data stages (map_batches callables).

EncodeStage is the CLP "compression" map: text → logtype + typed vars
(reference write path: streaming_archive/writer/Archive.cpp:298-316, rebuilt
vectorized). It is a callable class, run by ``map_batches`` as tasks (or
called in process), so a stage object carries its per-epoch dictionary
seen-sets across the batches it encodes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clp_core_ray.vec.decoder import decode_batch
from clp_core_ray.vec.tokenizer import _fnv1a64_tokens, _string_buffers, encode_batch


def _resolve_fs(path: str):
    """(filesystem, path) for a local path or a storage URI (s3://, hdfs://…).

    Dictionary deltas must land on storage every node can read at finalize
    time — on a multi-node cluster pass a shared URI as the delta dir
    (round-1 ADVICE: local out_dir paths silently lose entries off-node)."""
    from pyarrow import fs as pafs

    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


#: Epoch rollover cap: dictionary entries a stage's seen-sets hold before
#: it starts a new epoch (CLP splits archives when dictionaries reach
#: 100 MiB, CommandLineArguments.hpp:28-30; here the per-stage seen-set is
#: the bounded resource — content-hash ids make re-emission after a roll
#: harmless, the finalize distinct dedups across epochs).
DICT_CAP_ENTRIES = 4_000_000


def logtype_ids(logtype: pa.Array) -> pa.Array:
    """Content-hash (FNV-1a 64) id per logtype string — stable across
    partitions and retries, so no id-coordination shuffle is ever needed.
    (Divergence from CLP's sequential per-archive ids; same observable
    semantics, see SURVEY.md §7 'Deterministic ids under retries'.)"""
    offsets, data = _string_buffers(logtype)
    lengths = np.diff(offsets)
    return pa.array(_fnv1a64_tokens(data, offsets[:-1], lengths).view(np.int64))


class EncodeStage:
    """text column → encoded columns; optionally drops the raw text.

    keep_text=True retains the original text (round-trip verification);
    production pipelines drop it — decode reconstructs it exactly.

    This is the "per-partition dictionary maintained in a stateful stage"
    (T1/T2): each actor keeps the set of dictionary entries it has already
    emitted and appends only *new* entries as small Arrow IPC delta files
    under ``dict_delta_dir`` — CLP's per-archive incremental dictionary flush
    (writer/Archive.cpp:474-478) re-expressed as content-addressed deltas.
    Finalization dedups the deltas (``write_archive_dicts``: in process
    when they are small, else a bucketed Ray merge); duplicate deltas from
    task retries are harmless.
    """

    def __init__(self, text_col: str = "text", keep_text: bool = False,
                 keep_dict_vars: bool = True, dict_delta_dir: str | None = None,
                 dict_cap_entries: int | None = None):
        self.text_col = text_col
        self.keep_text = keep_text
        self.keep_dict_vars = keep_dict_vars
        self.dict_delta_dir = dict_delta_dir
        self.dict_cap_entries = (DICT_CAP_ENTRIES if dict_cap_entries is None
                                 else dict_cap_entries)
        self._epoch = 0
        # per-class seen sets: the var delta is keyed (var_id, class) so the
        # finalize can build the per-variable segment index (dict entry →
        # containing partitions, DictionaryWriter.hpp:179-202)
        self._seen_var_ids: dict[str, set[int]] = {}
        self._seen_logtype: set[tuple[int, str]] = set()
        self._delta_seq = 0
        if dict_delta_dir:
            self._fs, self._delta_path = _resolve_fs(dict_delta_dir)
            self._fs.create_dir(self._delta_path, recursive=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = encode_batch(batch.column(self.text_col))
        cols = dict(zip(batch.column_names, batch.columns))
        if not self.keep_text:
            cols.pop(self.text_col, None)
        cols["logtype"] = enc["logtype"]
        cols["logtype_id"] = logtype_ids(enc["logtype"])
        cols["encoded_vars"] = enc["encoded_vars"]
        cols["var_types"] = enc["var_types"]
        if self.keep_dict_vars:
            cols["dict_vars"] = enc["dict_vars"]
        cols["n_vars"] = enc["n_vars"]
        out = pa.table(cols)
        if self.dict_delta_dir:
            self._flush_dict_deltas(out, enc)
        return out

    def _flush_dict_deltas(self, out: pa.Table, enc: dict) -> None:
        import os
        import uuid

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from clp_core_ray.vec.tokenizer import _fnv1a64_tokens, _string_buffers

        # logtype deltas keyed (logtype_id, class); class column present when
        # RouteStage ran upstream, else a single "" class
        lt_ids = np.asarray(out.column("logtype_id"), dtype=np.int64)
        if "logtype_class" in out.column_names:
            cls_col = out.column("logtype_class").combine_chunks()
            enc_cls = pc.dictionary_encode(cls_col)
            if isinstance(enc_cls, pa.ChunkedArray):
                enc_cls = enc_cls.combine_chunks()
            codes = np.asarray(enc_cls.indices, dtype=np.int64)
            cls_names = enc_cls.dictionary.to_pylist()
        else:
            codes = np.zeros(len(out), dtype=np.int64)
            cls_names = [""]
        # vectorized unique over (logtype_id, class) pairs, then seen-check on
        # the handful of uniques only
        order = np.lexsort((codes, lt_ids))
        chg = np.ones(len(lt_ids), dtype=bool)
        if len(lt_ids) > 1:
            chg[1:] = (lt_ids[order][1:] != lt_ids[order][:-1]) | (
                codes[order][1:] != codes[order][:-1]
            )
        cand_rows = order[chg]
        lt_rows: list[int] = []
        for i in cand_rows.tolist():
            k = (int(lt_ids[i]), cls_names[codes[i]])
            if k not in self._seen_logtype:
                self._seen_logtype.add(k)
                lt_rows.append(i)

        # vars keyed (value, class): repeat each row's class code over its
        # dict-var list, unique the (value_code, class_code) pairs, then hash
        # only the unique value strings once
        dv = enc["dict_vars"]
        if isinstance(dv, pa.ChunkedArray):
            dv = dv.combine_chunks()
        flat = dv.flatten()
        new_vals: list = []
        new_ids_l: list[int] = []
        new_cls: list[str] = []
        if len(flat):
            dv_off = np.asarray(dv.offsets, dtype=np.int64)
            lengths = np.diff(dv_off)
            rep_codes = np.repeat(codes, lengths)
            fenc = pc.dictionary_encode(flat)
            if isinstance(fenc, pa.ChunkedArray):
                fenc = fenc.combine_chunks()
            vcodes = np.asarray(fenc.indices, dtype=np.int64)
            uniq = fenc.dictionary
            offsets, data = _string_buffers(uniq)
            vids = _fnv1a64_tokens(data, offsets[:-1], np.diff(offsets)).view(np.int64)
            pair = vcodes * len(cls_names) + rep_codes
            upairs = np.unique(pair)
            uv = (upairs // len(cls_names)).tolist()
            uc = (upairs % len(cls_names)).tolist()
            vals_py = uniq.to_pylist()
            for v_code, c_code in zip(uv, uc):
                cname = cls_names[c_code]
                seen = self._seen_var_ids.setdefault(cname, set())
                vid = int(vids[v_code])
                if vid not in seen:
                    seen.add(vid)
                    new_vals.append(vals_py[v_code])
                    new_ids_l.append(vid)
                    new_cls.append(cname)

        n_new_v = len(new_ids_l)
        if not lt_rows and not n_new_v:
            return
        lt_tbl = out.select(
            [c for c in ("logtype_id", "logtype", "n_vars", "logtype_class")
             if c in out.column_names]
        ).take(np.array(lt_rows, dtype=np.int64))
        if "logtype_class" not in lt_tbl.column_names:
            lt_tbl = lt_tbl.append_column(
                "logtype_class", pa.array([""] * len(lt_tbl), type=pa.string())
            )
        delta = pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(len(lt_tbl), np.int8), np.ones(n_new_v, np.int8)]
                    )
                ),
                "id": pa.concat_arrays(
                    [lt_tbl.column("logtype_id").combine_chunks().cast(pa.int64()),
                     pa.array(new_ids_l, type=pa.int64())]
                ),
                "value": pa.concat_arrays(
                    [lt_tbl.column("logtype").combine_chunks().cast(pa.large_string()),
                     pa.array(new_vals, type=pa.large_string())]
                ),
                "n_vars": pa.concat_arrays(
                    [lt_tbl.column("n_vars").combine_chunks().cast(pa.int32()),
                     pa.nulls(n_new_v, pa.int32())]
                ),
                "logtype_class": pa.concat_arrays(
                    [lt_tbl.column("logtype_class").combine_chunks().cast(pa.string()),
                     pa.array(new_cls, type=pa.string())]
                ),
            }
        )
        path = (
            f"{self._delta_path}/delta-e{self._epoch}-"
            f"{uuid.uuid4().hex}-{self._delta_seq}.arrow"
        )
        self._delta_seq += 1
        # Arrow IPC + lz4, not parquet: deltas are write-once scratch read
        # back by the finalize minutes later, and IPC writes are near-memcpy
        # (parquet page encoding of mostly-unique values added ~30% to the
        # whole sink write). write-then-rename: concurrent finalize
        # pre-readers (the compress delta watcher) must never observe a
        # half-written file
        import pyarrow.ipc as ipc

        with self._fs.open_output_stream(path + ".tmp") as f:
            opts = ipc.IpcWriteOptions(compression="lz4")
            with ipc.new_file(f, delta.schema, options=opts) as w:
                w.write_table(delta)
        self._fs.move(path + ".tmp", path)
        # epoch rollover: bound the per-actor seen-sets for long jobs
        n_var_seen = sum(len(s) for s in self._seen_var_ids.values())
        if (n_var_seen > self.dict_cap_entries
                or len(self._seen_logtype) > self.dict_cap_entries):
            import logging

            logging.getLogger("clp_core_ray.encode").info(
                "dictionary epoch %d rolled over (%d var ids, %d logtypes)",
                self._epoch, n_var_seen, len(self._seen_logtype),
            )
            self._epoch += 1
            self._seen_var_ids.clear()
            self._seen_logtype.clear()


class DecodeStage:
    """Inverse of EncodeStage → adds a decoded text column.

    Decodes batches that carry each row's ``logtype`` template and
    ``dict_vars`` values: in-memory encoded batches (``build_encoded``,
    ``roundtrip_check``, rule encoders) and the inline fragments that
    compaction rebuilds. Archives decode through their dictionaries
    (``ArchiveDecodeStage``)."""

    def __init__(self, out_col: str = "text"):
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        decoded = decode_batch(
            batch.column("logtype"),
            batch.column("encoded_vars"),
            dict_vars=batch.column("dict_vars"),
        )
        return batch.append_column(self.out_col, decoded)
