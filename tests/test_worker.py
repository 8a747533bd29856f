"""The forked worker process behind run_suite's bds ladder draws and decides."""
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from polytract.worker import Worker

ROOT = Path(__file__).resolve().parent.parent


def _reaped(worker: Worker) -> bool:
    try:
        os.waitpid(worker.pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_the_value_comes_back():
    worker = Worker(pow, 2, 10)
    try:
        assert worker.result() == 1024
        assert worker.usage is None
    finally:
        worker.close()
    assert _reaped(worker)
    # the reaped worker's resource usage, kept by close
    usage = worker.usage
    assert usage.ru_maxrss > 0 and usage.ru_utime >= 0
    worker.close()
    assert worker.usage is usage


def test_calls_see_this_process_at_the_fork():
    seen = [os.getpid()]
    worker = Worker(lambda: seen.append(os.getpid()) or seen)
    try:
        # the closure ran in the worker's copy of the list
        parent, child = worker.result()
        assert parent == os.getpid() != child == worker.pid
        assert seen == [os.getpid()]
    finally:
        worker.close()


def test_a_raising_call_raises_in_this_process():
    worker = Worker(int, "seven")
    try:
        with pytest.raises(ValueError) as raised:
            worker.result()
        # the same type and message as the call raises here
        assert type(raised.value) is ValueError
        assert raised.value.args == ("invalid literal for int() with base 10: 'seven'",)
    finally:
        worker.close()
    assert _reaped(worker)


def test_a_value_that_does_not_pickle_is_an_error_here():
    worker = Worker(threading.Lock)
    try:
        with pytest.raises(ChildProcessError, match="exited before its call returned"):
            worker.result()
    finally:
        worker.close()
    assert _reaped(worker)


def test_close_kills_a_worker_still_making_calls():
    worker = Worker(threading.Event().wait)
    worker.close()
    assert _reaped(worker)
    # a second close does nothing
    worker.close()


def test_importing_polytract_loads_no_worker_and_no_pickle():
    code = ("import sys; import polytract; "
            "print(sorted({'pickle', 'polytract.worker'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"


def _state(pid: int) -> str | None:
    """The state letter of process `pid`, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux only")
def test_a_worker_dies_with_its_killed_parent():
    # SIGKILL skips the parent's close, so only the kernel can end a
    # worker whose call has not returned.
    code = ("import time; from polytract.worker import Worker; "
            "print(Worker(time.sleep, 60).pid, flush=True); time.sleep(60)")
    parent = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    pid = None
    try:
        pid = int(parent.stdout.readline())
        assert _state(pid) not in (None, "Z")
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5
        while _state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        # gone, or a zombie that no reaper has collected yet
        assert _state(pid) in (None, "Z")
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
