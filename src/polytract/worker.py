"""A forked worker process that makes one call while this process goes
on with other work.

    worker = Worker(fn, *args)
    worker.result()    # waits for the call: its value, or its exception
    worker.close()     # kills the worker if it still runs, and reaps it
    worker.usage       # the reaped worker's resource usage (os.wait4)

The worker is a fork of this process, so the call needs no pickling and
sees this process's state as it was at the fork. It makes the call, then
sends its outcome back pickled through a pipe, and this process reads the
value straight from the pipe when it asks for it, with no thread. The
worker leaves with os._exit, so it runs no exit handler and flushes no
stream of this process. A fork copies only the thread that forks, so the
call must take no lock another thread of this process may hold;
run_suite's ladder task, which draws and decides a share of the bds
ladder rungs, takes none. On Linux the worker is killed when the thread
that forked it dies, so a worker whose call never returns does not
outlive a parent that is killed before it can close the worker.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys


class Worker:
    """One worker process making the call fn(*args)."""

    def __init__(self, fn, *args):
        read, write = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            _serve(fn, args, read, write, parent)
        os.close(write)
        self.pid = pid
        self._pipe = os.fdopen(read, "rb")
        # Set by close: the worker's CPU time and peak RSS, among others.
        self.usage = None

    def result(self):
        """The value the call returned, waiting for it, or raise what it
        raised. The result is taken once."""
        try:
            raised, value = pickle.load(self._pipe)
        except EOFError:
            raise ChildProcessError(f"worker {self.pid} exited before its call "
                                    "returned") from None
        if raised:
            raise value
        return value

    def close(self) -> None:
        """Reap the worker, killing it first: a worker whose result is
        unread may still be making its call, and one whose result is read
        has nothing left to do. A second close does nothing."""
        if self._pipe.closed:
            return
        self._pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        self.usage = os.wait4(self.pid, 0)[2]


def _serve(fn, args, read: int, write: int, parent: int) -> None:
    """The worker's whole life: make the call, send its outcome down the
    pipe's write end, exit. On Linux it first asks for SIGKILL when its
    parent dies, and exits at once if `parent` died before it asked."""
    status = 1
    try:
        if sys.platform.startswith("linux"):
            # Imported here, in the worker only, so the parent does not
            # load ctypes and libc. 1 is PR_SET_PDEATHSIG.
            import ctypes
            ctypes.CDLL(None).prctl(1, int(signal.SIGKILL))
            if os.getppid() != parent:
                return
        os.close(read)
        try:
            outcome = False, fn(*args)
        except Exception as exc:
            outcome = True, exc
        # Pickled whole before writing, so a value that does not pickle
        # leaves no partial record in the pipe.
        record = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as out:
            out.write(record)
        status = 0
    finally:
        os._exit(status)
