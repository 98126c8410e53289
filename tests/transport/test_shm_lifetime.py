"""A received shared-memory frame is mapped exactly as long as the arrays
that view it.

The receiver unlinks a segment's name at attach time and returns an
array whose base is the mapping itself, so a rank's mapped shm is
bounded by the frames its live arrays still use -- not by how many
messages it ever received.  These tests hold that bound, the export
failure path, and the attach edge cases (empty and one-byte frames,
read-only views, swept names).
"""

import errno
import gc
import os

import numpy as np
import pytest

from repro import mpi, odin
from repro.mpi.transport import shm
from repro.mpi.transport.shm import (SHM_PREFIX, ShmPool, new_session_id,
                                     segment_names, sweep_session)
from repro.odin.context import OdinContext
from repro.odin.distribution import CyclicDistribution

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="needs /proc/<pid>/maps")


def _shm_mappings(pid="self", session=""):
    """Lines of /proc/<pid>/maps that map one of our segments."""
    with open(f"/proc/{pid}/maps") as fh:
        return [ln for ln in fh if SHM_PREFIX + session in ln]


@pytest.fixture
def pool():
    session = new_session_id()
    yield ShmPool(session, 0)
    sweep_session(session)


# -- sender side -------------------------------------------------------------
def test_failed_export_unlinks_the_half_written_segment(pool, monkeypatch):
    def full(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(shm.os, "pwrite", full)
    with pytest.raises(OSError) as info:
        pool.export(np.ones(1000))
    assert info.value.errno == errno.ENOSPC
    assert segment_names(pool.session_id) == []


def test_export_survives_short_writes(pool, monkeypatch):
    real = os.pwrite
    monkeypatch.setattr(shm.os, "pwrite",
                        lambda fd, data, off: real(fd, data[:7], off))
    payload = np.arange(1000, dtype=np.float64)
    name, nbytes = pool.export(payload)
    got = pool.attach(name, nbytes).view(np.float64)
    assert np.array_equal(got, payload)


# -- receiver side -----------------------------------------------------------
@pytest.mark.parametrize("nbytes", [0, 1, 4096 + 3])
def test_attach_round_trip_is_read_only_and_unlinks(pool, nbytes):
    payload = np.arange(nbytes, dtype=np.uint8)
    name, size = pool.export(payload)
    assert size == nbytes and segment_names(pool.session_id) == [name]
    frame = pool.attach(name, size)
    assert segment_names(pool.session_id) == []  # unlinked at attach
    assert np.array_equal(frame, payload)
    assert not frame.flags.writeable
    if nbytes:
        with pytest.raises(ValueError):
            frame[0] = 7


def test_attach_of_a_swept_name_raises_file_not_found(pool):
    name, nbytes = pool.export(np.ones(100))
    assert sweep_session(pool.session_id) == 1
    with pytest.raises(FileNotFoundError):
        pool.attach(name, nbytes)


@needs_proc
def test_mapping_goes_with_the_last_view(pool):
    name, nbytes = pool.export(np.arange(50_000, dtype=np.float64))
    frame = pool.attach(name, nbytes)
    view = frame.view(np.float64)[10:20]
    del frame
    gc.collect()
    assert len(_shm_mappings(session=pool.session_id)) == 1
    assert view[0] == 10.0
    del view
    gc.collect()
    assert _shm_mappings(session=pool.session_id) == []


# -- through the process transport ------------------------------------------
@pytest.mark.parametrize("nbytes", [0, 1])
def test_tiny_frames_cross_shm_on_both_kinds(nbytes, monkeypatch):
    monkeypatch.setenv("REPRO_MPI_SHM_MIN", "0")
    attached = []
    real_attach = ShmPool.attach

    def spy(self, name, size):
        attached.append(size)
        return real_attach(self, name, size)

    # the forked ranks inherit the spy
    monkeypatch.setattr(ShmPool, "attach", spy)
    data = np.arange(nbytes, dtype=np.uint8)

    def body(comm):
        if comm.rank == 0:
            comm.Send(data, dest=1)                 # 'buffer' kind
            comm.send({"a": data}, dest=1, tag=1)   # 'pickle5' kind
            return None
        buf = np.full(nbytes, 99, dtype=np.uint8)
        comm.Recv(buf, source=0)
        obj = comm.recv(source=0, tag=1)["a"]
        return (buf.tolist(), obj.tolist(), obj.flags.writeable,
                list(attached))

    buf, obj, writeable, sizes = mpi.run_spmd(body, 2, backend="process",
                                              timeout=60.0)[1]
    assert buf == obj == data.tolist()
    assert writeable is False
    assert sizes.count(nbytes) >= 2  # one frame per kind rode shm


def test_received_array_outlives_later_messages_and_its_world():
    @odin.local
    def scaled(block, k):
        return {"a": block * k}

    ctx = OdinContext(2, backend="process", timeout=60.0)
    session = ctx.world.session_id
    try:
        x = odin.array(np.arange(200_000, dtype=np.float64), ctx=ctx)
        kept = scaled(x, 3.0)
        for k in range(50):  # 50 further large frames per worker
            scaled(x, float(k))
        expect = np.arange(200_000, dtype=np.float64) * 3.0
        assert np.array_equal(
            np.concatenate([r["a"] for r in kept]), expect)
    finally:
        ctx.shutdown()
    got = np.concatenate([r["a"] for r in kept])
    assert not kept[0]["a"].flags.writeable
    assert np.array_equal(got, expect)
    if os.path.isdir("/proc/self"):
        assert len(_shm_mappings(session=session)) == 2  # kept, not more
        del kept
        gc.collect()
        assert _shm_mappings(session=session) == []


@needs_proc
def test_worker_shm_mappings_do_not_grow_with_round_trips():
    n = 1 << 20
    ctx = OdinContext(2, backend="process", timeout=60.0)
    try:
        x = odin.array(np.arange(n, dtype=np.float64), ctx=ctx)
        block = x.dist
        cyclic = CyclicDistribution((n,), 0, 2)
        for _ in range(60):
            x = x.redistribute(cyclic).redistribute(block)
        assert np.array_equal(x.gather(), np.arange(n, dtype=np.float64))
        counts = [len(_shm_mappings(pid)) for pid in ctx.worker_pids()]
    finally:
        ctx.shutdown()
    # each round trip moves two ~2 MB frames into every worker (121
    # stayed mapped when frames lived as long as the world); only the
    # frames live arrays still view may stay mapped
    assert max(counts) <= 4, counts
