"""The clp queries' archive cache (``queries._cached_archive``): building
a set removes the sets of other fingerprints, unless a live process holds
that fingerprint's lock."""

import fcntl
import os

import pytest

from clp_core_ray.pipelines import queries

OLD, LIVE = "aaaaaaaaaaaa", "bbbbbbbbbbbb"
KINDS = ("archive_sf0.01_{}", "multi_archive_sf0.01_{}",
         "merged_archive_sf0.01_{}", "glt_archive_sf0.01_{}",
         "archive_sf0.1_{}")


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A cache dir holding every set kind of fingerprints OLD and LIVE,
    plus caches that are no archive set."""
    root = str(tmp_path / "cache")
    held: dict = {}
    monkeypatch.setattr(queries, "CACHE_DIR", root)
    monkeypatch.setattr(queries, "_held_locks", held)
    for fp in (OLD, LIVE):
        for k in KINDS:
            os.makedirs(os.path.join(root, k.format(fp), "routed"))
    for other in ("transcripts_sf0.01_seed42", "ivf_index_sf0.01"):
        os.makedirs(os.path.join(root, other))
    yield root
    for fd in held.values():
        os.close(fd)


def test_building_a_set_prunes_other_fingerprints(root):
    # another live sweep uses LIVE: it holds that fingerprint's lock
    held = os.open(os.path.join(root, f".lock-{LIVE}"),
                   os.O_CREAT | os.O_RDWR)
    fcntl.flock(held, fcntl.LOCK_SH)
    try:
        out = queries._cached_archive("archive", "/data/sf0.01")
    finally:
        os.close(held)
    fp = queries._archive_code_fingerprint()
    assert out == os.path.join(root, f"archive_sf0.01_{fp}")
    left = set(os.listdir(root))
    assert not any(OLD in d for d in left)
    assert {k.format(LIVE) for k in KINDS} <= left
    assert {"transcripts_sf0.01_seed42", "ivf_index_sf0.01"} <= left
    assert f".lock-{fp}" in left and f".lock-{OLD}" not in left

    # LIVE's sweep has ended: the next set built removes its sets too
    queries._cached_archive("merged_archive", "/data/sf0.01")
    assert not any(LIVE in d for d in os.listdir(root))


def test_existing_set_is_reused_without_a_prune(root):
    fp = queries._archive_code_fingerprint()
    os.makedirs(os.path.join(root, f"archive_sf0.01_{fp}"))
    queries._cached_archive("archive", "/data/sf0.01")
    assert {k.format(OLD) for k in KINDS} <= set(os.listdir(root))


def test_held_fingerprint_survives_a_prune(root):
    """This process's own lock keeps its sets from another fingerprint's
    prune."""
    queries._hold_fingerprint(OLD)
    assert queries._prune_cached_sets(LIVE) == []
    assert {k.format(OLD) for k in KINDS} <= set(os.listdir(root))
    os.close(queries._held_locks.pop(os.path.join(root, f".lock-{OLD}")))
    assert sorted(queries._prune_cached_sets(LIVE)) == \
        sorted(k.format(OLD) for k in KINDS)
