"""Failure injection: disconnects, bad auth, exhaustion, build failures."""

import numpy as np
import pytest

from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import (
    CL_DEVICE_TYPE_ALL,
    CL_DEVICE_TYPE_GPU,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CLError,
    ErrorCode,
)
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def test_disconnect_midway_fails_subsequent_calls():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    # Sever the connection to the second server mid-application.
    handle = None
    from repro.core.client.stubs import ServerHandle

    conn = devices[1].server
    api.clDisconnectServerWWU(ServerHandle(conn))
    # Compound-stub operations touching that server now fail cleanly.
    with pytest.raises(CLError) as err:
        api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1024)
    assert err.value.code == ErrorCode.CL_INVALID_SERVER_WWU
    # The first server's devices remain usable in a fresh context.
    ctx2 = api.clCreateContext([devices[0]])
    buf = api.clCreateBuffer(ctx2, CL_MEM_READ_WRITE, 1024)
    assert buf.size == 1024


def test_device_disappears_from_merged_list_after_disconnect():
    deployment = deploy_dopencl(make_ib_cpu_cluster(3))
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    assert len(api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)) == 3
    from repro.core.client.stubs import ServerHandle

    api.clDisconnectServerWWU(ServerHandle(deployment.driver.connections()[0]))
    assert len(api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)) == 2


def test_context_with_unavailable_device_rejected():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    from repro.core.client.stubs import ServerHandle

    api.clDisconnectServerWWU(ServerHandle(devices[1].server))
    with pytest.raises(CLError) as err:
        api.clCreateContext(devices)
    assert err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE


def test_remote_device_memory_exhaustion():
    """Buffer creation is a deferred handle promise: the allocation
    failure surfaces as CLError at the next sync point, naming the
    failed creation."""
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    api = deployment.api
    driver = deployment.driver
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    ctx = api.clCreateContext(gpus[:1])
    chunk = 1 << 30  # the Tesla's max_alloc (4 GB global / 4)
    kept = [api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, chunk) for _ in range(4)]
    with pytest.raises(CLError) as err:
        api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, chunk)
        driver.drain()  # the sync point where the failure lands
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
    assert "CreateBufferRequest" in err.value.message
    # Releasing one frees the device memory for a new allocation.
    api.clReleaseMemObject(kept.pop())
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, chunk)
    driver.drain()  # release + create replay in program order: ok
    assert buf.size == chunk


def test_oversized_buffer_rejected_remotely():
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    ctx = api.clCreateContext(gpus[:1])
    api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, (1 << 30) + 1)  # promise, no raise
    with pytest.raises(CLError) as err:
        deployment.driver.drain()  # the deferred rejection lands here
    assert err.value.code == ErrorCode.CL_INVALID_BUFFER_SIZE
    assert "CreateBufferRequest" in err.value.message


def test_kernel_runtime_fault_surfaces_with_cl_code():
    """An out-of-bounds access on the server comes back as a CLError,
    not a Python crash."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 16)
    program = api.clCreateProgramWithSource(
        ctx, "__kernel void oob(__global int *x) { x[get_global_id(0) + 100] = 1; }"
    )
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "oob")
    api.clSetKernelArg(kernel, 0, buf)
    with pytest.raises(CLError) as err:
        # The launch is forwarded asynchronously; the daemon's fault
        # comes back with the batch reply at the synchronization point.
        api.clEnqueueNDRangeKernel(queue, kernel, (4,))
        api.clFinish(queue)
    assert err.value.code == ErrorCode.CL_OUT_OF_RESOURCES
    assert "out-of-bounds" in err.value.message


def test_partial_build_failure_is_atomic_per_server():
    """A program that fails to build reports failure for the whole
    compound stub; later kernel creation is rejected."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(3))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    program = api.clCreateProgramWithSource(ctx, "__kernel void k( {")
    with pytest.raises(CLError):
        api.clBuildProgram(program)
    with pytest.raises(CLError) as err:
        api.clCreateKernel(program, "k")
    assert err.value.code == ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE


def test_released_buffer_rejected_everywhere():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64)
    api.clReleaseMemObject(buf)
    with pytest.raises(CLError):
        api.clEnqueueReadBuffer(queue, buf)
    with pytest.raises(CLError):
        api.clEnqueueWriteBuffer(queue, buf, True, 0, np.zeros(64, dtype=np.uint8))


def test_wait_on_foreign_unresolved_event_deadlocks_cleanly():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    user = api.clCreateUserEvent(ctx)
    with pytest.raises(CLError) as err:
        api.clWaitForEvents([user])
    assert "deadlock" in err.value.message


def test_full_pipeline_still_works_after_failures():
    """Errors leave the deployment usable (no corrupted daemon state)."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    bad = api.clCreateProgramWithSource(ctx, "nonsense !")
    with pytest.raises(CLError):
        api.clBuildProgram(bad)
    # Now the good path:
    n = 32
    x = np.full(n, 2.0, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(10.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 20.0)
