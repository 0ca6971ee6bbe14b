"""The one local/Ray rule (``clp_core_ray.execution``)."""

import pytest

from clp_core_ray import execution


@pytest.mark.parametrize("stage,const", [
    ("scan", "LOCAL_SCAN_BYTES"),
    ("finalize", "LOCAL_FINALIZE_BYTES"),
    ("decode", "LOCAL_DECODE_BYTES"),
    ("text_extract", "LOCAL_TEXT_EXTRACT_BYTES"),
    ("compress", "LOCAL_COMPRESS_BYTES"),
])
def test_choose_is_local_up_to_the_constant(stage, const, monkeypatch):
    limit = getattr(execution, const)
    assert execution.choose(stage, 0) == "local"
    assert execution.choose(stage, limit) == "local"
    assert execution.choose(stage, limit + 1) == "ray"
    monkeypatch.setattr(execution, const, -1)
    assert execution.choose(stage, 0) == "ray"


def test_choose_rejects_unknown_stage():
    with pytest.raises(KeyError):
        execution.choose("roundtrip", 0)


def test_cluster_cpus(ray_session, monkeypatch):
    import ray

    assert execution.cluster_cpus() == int(ray.cluster_resources()["CPU"])
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert execution.cluster_cpus() == 8
    assert execution.cluster_cpus(default=3) == 3
