"""Shared-memory frame pool for the multiprocess transport.

Large payload frames (the protocol-5 out-of-band ndarray buffers, and
flat ``'buffer'``-kind sends) cross the process boundary through named
POSIX shared memory (files under ``/dev/shm``) instead of the control
socket: the sender makes ONE copy into a fresh segment (that copy *is*
the isolation copy the thread backend makes anyway), ships the segment
name in the envelope, and the receiver maps a read-only view -- zero
further copies, mirroring the PR 4 copy-on-write SETITEM semantics.

Lifetime protocol (the part that keeps ``/dev/shm`` and every rank's
address space clean):

- The creator writes the payload with ``pwrite`` and never maps the
  segment; the kernel keeps it alive because the name still exists.
  If the copy fails (``ENOSPC`` on a full ``/dev/shm``), the
  half-written segment is unlinked before the error propagates.
- The receiver unlinks the name *at attach time*, maps the segment
  read-only and closes the fd.  The returned array's base is the
  ``mmap`` itself, so the mapping lives exactly as long as the last
  view of it: when the receiving program drops the last array derived
  from the frame, the mapping goes and the kernel frees the memory.
  Nothing else holds a frame -- a rank's mapped shm is bounded by the
  arrays it still uses, not by how many messages it ever received.
- A segment whose message is never received (its rank was SIGKILLed
  mid-flight) still carries the session prefix, and the parent sweeps
  ``/dev/shm/<prefix>*`` at teardown (and again at interpreter exit).

Leak budget: no name outlives its world (receivers unlink on attach,
the parent sweeps the rest), and no mapping outlives its last view.
multiprocessing's ``resource_tracker`` is not involved: segments are
plain files opened with ``os.open``, so nothing is registered with it
and lifetime is entirely the explicit protocol above.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
from typing import List, Tuple

import numpy as np

__all__ = ["ShmPool", "new_session_id", "sweep_session", "segment_names",
           "shm_threshold", "SHM_PREFIX"]

SHM_PREFIX = "repro-shm-"
_SHM_DIR = "/dev/shm"

_DEFAULT_MIN = 64 * 1024  # frames below this ride inline on the socket


def shm_threshold() -> int:
    """Minimum frame size (bytes) routed through shared memory."""
    try:
        return int(os.environ.get("REPRO_MPI_SHM_MIN", _DEFAULT_MIN))
    except ValueError:
        return _DEFAULT_MIN


def new_session_id() -> str:
    """A name component unique to one world (parent pid + random)."""
    return f"{os.getpid():x}-{secrets.token_hex(4)}"


def segment_names(session_id: str) -> List[str]:
    """Names of this session's live segments (Linux: /dev/shm listing)."""
    prefix = SHM_PREFIX + session_id + "-"
    try:
        return sorted(n for n in os.listdir(_SHM_DIR)
                      if n.startswith(prefix))
    except OSError:
        return []


def sweep_session(session_id: str) -> int:
    """Unlink every leftover segment of *session_id*; returns the count.

    Run by the parent at world teardown and at interpreter exit: the only
    segments still named here are ones whose message was never received
    (the receiving rank died first), since receivers unlink on attach.
    """
    swept = 0
    for name in segment_names(session_id):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            swept += 1
        except OSError:
            pass
    return swept


class ShmPool:
    """Per-process segment namer: creates outgoing and maps incoming
    frames.  It holds no mappings; see the module's lifetime protocol."""

    def __init__(self, session_id: str, rank: int):
        self.session_id = session_id
        self.rank = rank
        self._counter = 0

    # -- sender side --------------------------------------------------------
    def export(self, data) -> Tuple[str, int]:
        """Copy *data* (a buffer-like) into a fresh segment.

        Returns ``(name, nbytes)`` for the wire descriptor; the named
        segment is the only reference until the receiver attaches.  If
        the copy fails, the segment is unlinked and the error re-raised.
        """
        view = memoryview(data).cast("B")
        nbytes = view.nbytes
        self._counter += 1
        name = (f"{SHM_PREFIX}{self.session_id}-r{self.rank}"
                f"-{self._counter}")
        path = os.path.join(_SHM_DIR, name)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            done = 0
            while done < nbytes:  # one write may copy less than asked
                done += os.pwrite(fd, view[done:], done)
        except BaseException:
            os.unlink(path)
            raise
        finally:
            os.close(fd)
        return name, nbytes

    # -- receiver side ------------------------------------------------------
    def attach(self, name: str, nbytes: int) -> np.ndarray:
        """Map segment *name* read-only and unlink it immediately.

        Returns a read-only ``uint8`` view of the payload bytes whose
        base is the mapping, so it is unmapped with the last view.
        Raises ``FileNotFoundError`` if the segment is gone (swept after
        the sender died) -- callers surface that as a failed-rank
        condition.
        """
        path = os.path.join(_SHM_DIR, name)
        fd = os.open(path, os.O_RDONLY)
        try:
            # the name goes now; the memory lives until the last mapping
            os.unlink(path)
            # an empty file cannot be mapped; b"" is read-only too
            buf = mmap.mmap(fd, nbytes, access=mmap.ACCESS_READ) \
                if nbytes else b""
        finally:
            os.close(fd)
        return np.frombuffer(buf, dtype=np.uint8)


def register_atexit_sweep(session_id: str) -> None:
    """Sweep *session_id* at interpreter exit (parent-side belt and
    braces for crash-during-teardown paths)."""
    atexit.register(sweep_session, session_id)
