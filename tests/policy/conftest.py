"""Shared helpers for the multi-tenant policy tests."""

from repro.core import KubeShare


def train(work, mem_bytes=1 * 2**30):
    """A simple training workload: allocate memory, burn *work* GPU-seconds."""

    def wl(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        try:
            api.cu_mem_alloc(cu, mem_bytes)
            yield from api.cu_launch_kernel(cu, work)
        finally:
            api.cu_ctx_destroy(cu)
        return "done"

    return wl


def make_sharepod(name, **kwargs):
    """Build a SharePod object without a cluster (client-side only)."""
    kwargs.setdefault("gpu_request", 0.5)
    kwargs.setdefault("gpu_limit", 1.0)
    kwargs.setdefault("gpu_mem", 0.2)
    return KubeShare.make_sharepod(name, **kwargs)
