"""The Section III-F direct event-status broadcast extension."""

import numpy as np
import pytest

from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
from repro.ocl.event import UserEvent
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def run_kernel_on_two_server_context(direct: bool):
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    for daemon in deployment.daemons:
        daemon.direct_event_broadcast = direct
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 64
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    # Synchronize: forwarding is batched/asynchronous, and the wait is
    # dependency-tracked — it drains only the owner's window.  The
    # full drain afterwards pushes the replica bookkeeping (and any
    # deferred relay) out to the other server too.
    api.clWaitForEvents([event])
    deployment.driver.drain()
    return deployment, api, devices, event


@pytest.mark.parametrize("direct", [False, True])
def test_replicas_complete_either_way(direct):
    deployment, api, devices, event = run_kernel_on_two_server_context(direct)
    other = devices[1].server.name
    daemon = deployment.daemon_on(other)
    replica = daemon.registry.get(deployment.driver.gcf.name, event.id, UserEvent)
    assert replica.resolved


def test_direct_broadcast_resolves_replica_faster():
    """Owner->peer is one hop; owner->client->peer is two."""

    def replica_delay(direct: bool) -> float:
        deployment, _api, devices, event = run_kernel_on_two_server_context(direct)
        other = devices[1].server.name
        daemon = deployment.daemon_on(other)
        replica = daemon.registry.get(deployment.driver.gcf.name, event.id, UserEvent)
        return replica.end - event.completed_at

    assert replica_delay(direct=True) < replica_delay(direct=False)


def test_client_does_not_relay_when_direct():
    deployment, api, devices, event = run_kernel_on_two_server_context(direct=True)
    other = devices[1].server.name
    daemon = deployment.daemon_on(other)
    # The peer daemon never saw a SetUserEventStatusRequest from the client
    # for this event: its CPU log has no such entry after the kernel ran.
    from repro.core.protocol.messages import SetUserEventStatusRequest

    relayed = [
        iv for iv in daemon.gcf.cpu if iv.tag == "SetUserEventStatusRequest"
    ]
    assert relayed == []
