"""A forked worker process that makes a fixed list of calls while this
process goes on with other work.

    worker = Worker([(fn, args), ...])
    worker.result(i)   # waits for call i: its value, or its exception
    worker.close()     # reaps the worker, killing it if it may still run

The worker is a fork of this process, so the calls need no pickling and
see this process's state as it was at the fork. It makes every call
first, in order, and only then sends the outcomes back pickled through a
pipe, so it never waits on a full pipe while calls are left to make, and
this process reads each value straight from the pipe when it asks for
it, with no thread and no copy of the whole record. A call that raises
ends the calls. The worker leaves with os._exit, so it runs no exit
handler and flushes no stream of this process. A fork copies only the
thread that forks, so the calls must take no lock another thread of
this process may hold; run_suite's draws take none.
"""
from __future__ import annotations

import os
import pickle
import signal


class Worker:
    """One worker process making `calls`, (fn, args) pairs, in order."""

    def __init__(self, calls):
        calls = list(calls)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            _serve(calls, read, write)
        os.close(write)
        self.pid = pid
        self._pipe = os.fdopen(read, "rb")
        self._calls = len(calls)
        self._read = 0  # outcomes read from the pipe
        # outcomes read ahead of the call asked for, by call index
        self._outcomes: dict[int, tuple[bool, object]] = {}

    def result(self, i: int):
        """The value call i returned, waiting for it, or raise what it
        raised. Each call's result is taken once."""
        while i not in self._outcomes:
            try:
                self._outcomes[self._read] = pickle.load(self._pipe)
            except EOFError:
                raise ChildProcessError(f"worker {self.pid} exited before call {i} "
                                        "returned") from None
            self._read += 1
        raised, value = self._outcomes.pop(i)
        if raised:
            raise value
        return value

    def close(self) -> None:
        """Reap the worker, killing it first if it may still be making
        calls. A second close does nothing."""
        if self._pipe.closed:
            return
        self._pipe.close()
        if self._read < self._calls:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _serve(calls, read: int, write: int) -> None:
    """The worker's whole life: make the calls, send their outcomes down
    the pipe's write end, exit."""
    status = 1
    try:
        os.close(read)
        outcomes = []
        for fn, args in calls:
            try:
                outcomes.append((False, fn(*args)))
            except Exception as exc:
                outcomes.append((True, exc))
                break
        with open(write, "wb") as out:
            for outcome in outcomes:
                # Pickled whole before writing, so a value that does not
                # pickle leaves no partial record in the pipe.
                out.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)
