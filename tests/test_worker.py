"""The forked worker process behind run_suite's bds ladder draws."""
import os
import subprocess
import sys
import threading
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


def test_results_come_back_in_any_order():
    worker = Worker([(pow, (2, 10)), (bytes, (3,)), (sorted, ("cba",))])
    try:
        assert worker.result(2) == ["a", "b", "c"]
        assert worker.result(0) == 1024
        assert worker.result(1) == b"\0\0\0"
    finally:
        worker.close()
    assert _reaped(worker)
    worker.close()


def test_calls_see_this_process_at_the_fork():
    seen = []
    worker = Worker([(lambda: seen.append(os.getpid()) or len(seen), ())])
    try:
        # the closure ran in the worker's copy of the list
        assert worker.result(0) == 1
        assert seen == []
    finally:
        worker.close()


def test_a_raising_call_raises_in_this_process_and_ends_the_calls():
    worker = Worker([(int, ("7",)), (int, ("seven",)), (int, ("8",))])
    try:
        assert worker.result(0) == 7
        with pytest.raises(ValueError, match="seven"):
            worker.result(1)
        with pytest.raises(ChildProcessError, match="before call 2"):
            worker.result(2)
    finally:
        worker.close()
    assert _reaped(worker)


def test_a_value_that_does_not_pickle_is_an_error_here():
    worker = Worker([(threading.Lock, ())])
    try:
        with pytest.raises(ChildProcessError, match="before call 0"):
            worker.result(0)
    finally:
        worker.close()


def test_close_kills_a_worker_still_making_calls():
    worker = Worker([(threading.Event().wait, ())])
    worker.close()
    assert _reaped(worker)


def test_importing_polytract_loads_no_worker_and_no_pickle():
    code = ("import sys; import polytract; "
            "print(sorted({'pickle', 'polytract.worker'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"
