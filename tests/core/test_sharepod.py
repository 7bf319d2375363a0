"""Unit tests for the SharePod CRD and its spec validation (§4.1/§4.2)."""

import pytest

from repro.core.sharepod import SharePod, SharePodSpec, SpecError
from repro.cluster.objects import ObjectMeta, PodSpec


def valid_spec(**over):
    kwargs = dict(gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.25)
    kwargs.update(over)
    return SharePodSpec(**kwargs)


class TestValidation:
    def test_valid_spec_passes(self):
        valid_spec().validate()

    @pytest.mark.parametrize("request_", [-0.1, 1.1])
    def test_request_range(self, request_):
        with pytest.raises(SpecError):
            valid_spec(gpu_request=request_, gpu_limit=1.0).validate()

    @pytest.mark.parametrize("limit", [0.0, 1.5])
    def test_limit_range(self, limit):
        with pytest.raises(SpecError):
            valid_spec(gpu_limit=limit).validate()

    def test_request_must_not_exceed_limit(self):
        with pytest.raises(SpecError, match="must not exceed"):
            valid_spec(gpu_request=0.7, gpu_limit=0.6).validate()

    @pytest.mark.parametrize("mem", [0.0, 1.5])
    def test_mem_range(self, mem):
        with pytest.raises(SpecError):
            valid_spec(gpu_mem=mem).validate()

    def test_empty_label_rejected(self):
        with pytest.raises(SpecError):
            valid_spec(sched_affinity="").validate()

    def test_fractional_values_allowed_anywhere_in_range(self):
        valid_spec(gpu_request=0.123456, gpu_limit=0.654321).validate()

    def test_zero_request_is_best_effort(self):
        valid_spec(gpu_request=0.0).validate()


class TestCloning:
    def test_clone_shares_workload_deepcopies_rest(self):
        def wl(ctx):
            yield None

        sp = SharePod(
            metadata=ObjectMeta(name="s", labels={"a": "1"}),
            spec=valid_spec(pod_spec=PodSpec(workload=wl)),
        )
        dup = sp.clone()
        dup.metadata.labels["a"] = "2"
        dup.spec.gpu_request = 0.9
        assert sp.metadata.labels["a"] == "1"
        assert sp.spec.gpu_request == 0.3
        assert dup.spec.pod_spec.workload is wl
        assert sp.spec.pod_spec.workload is wl
