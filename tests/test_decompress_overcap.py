"""Over-cap dictionary decode (SURVEY §2.4 J2 fallback): when the var dict
exceeds execution.DICT_BROADCAST_BYTES, decompression flips from a plasma broadcast
to a hash-partitioned join of encoded rows against the var-dict Dataset.
Pinned byte-identical to the broadcast path on a real archive."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from clp_core_ray import execution

SF = 0.0005


def _table(ds) -> pa.Table:
    return pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")])


@pytest.fixture(scope="module")
def archive(ray_session, tmp_path_factory):
    from clp_core_ray.pipelines.compress import compress

    out = str(tmp_path_factory.mktemp("overcap") / "arch")
    compress(SF, out)
    return out


def test_overcap_decode_matches_broadcast(ray_session, archive, monkeypatch):
    from clp_core_ray.pipelines import decompress as dc

    a = _table(dc.decompress(archive, ordered=True)).combine_chunks()
    # force the partitioned path
    monkeypatch.setattr(execution, "DICT_BROADCAST_BYTES", 1)
    b = _table(dc.decompress(archive, ordered=True)).combine_chunks()
    assert a.num_rows == b.num_rows > 0
    for c in a.column_names:
        assert pc.all(pc.equal(
            a.column(c), b.column(c).cast(a.column(c).type))).as_py(), c


def test_overcap_decode_with_prefilter_and_extra_columns(
        ray_session, archive, monkeypatch):
    """The partitioned path honors prefilter (row pruning BEFORE resolve —
    only surviving rows' slots ride the join) and extra output columns."""
    from clp_core_ray.pipelines import decompress as dc

    def keep_even(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(
            pc.bit_wise_and(b.column("turn_idx"), 1), 0))

    cols = ("conv_id", "turn_idx", "ts")
    a = _table(dc.decompress(archive, columns=cols, ordered=True,
                             prefilter=keep_even)).combine_chunks()
    monkeypatch.setattr(execution, "DICT_BROADCAST_BYTES", 1)
    b = _table(dc.decompress(archive, columns=cols, ordered=True,
                             prefilter=keep_even)).combine_chunks()
    assert a.num_rows == b.num_rows > 0
    for c in a.column_names:
        assert pc.all(pc.equal(
            a.column(c), b.column(c).cast(a.column(c).type))).as_py(), c


def test_footer_size_estimate_positive(ray_session, archive):
    from clp_core_ray.pipelines.decompress import _vardict_uncompressed_bytes

    assert _vardict_uncompressed_bytes(archive) > 0
