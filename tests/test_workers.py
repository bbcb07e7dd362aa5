import inspect
import multiprocessing
import os
import pickle
import signal
import threading

import pytest

from skipdiff import errors
from skipdiff.errors import ContractError, JsonlParseError
from skipdiff.workers import WorkerPool

# constructor arguments for every exception class in ``errors``
ERROR_ARGS = {
    errors.ShapeError: ("shapes (2, 3) and (4,) do not match",),
    errors.ContractError: ("stale tape",),
    errors.ParameterError: ("heads must be >= 1, got 0", "heads"),
    errors.TruncationError: ("source of length 9 leaves no room in max_len 10",),
    errors.JsonlParseError: ("data/train.jsonl", 3, "expected an object"),
    errors.OracleInvalidError: ("f is not deterministic",),
    errors.ConfigError: ("unknown configuration key 'x'",),
}


def test_every_error_class_survives_a_pickle_round_trip():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert defined == set(ERROR_ARGS)
    for cls, args in ERROR_ARGS.items():
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)
    assert pickle.loads(pickle.dumps(errors.ParameterError("m", "heads"))).field == "heads"
    parsed = pickle.loads(pickle.dumps(JsonlParseError("a.jsonl", 2, "bad")))
    assert (parsed.path, parsed.line_number, parsed.message) == ("a.jsonl", 2, "bad")


def _job(i: int) -> tuple[int, int]:
    if i < 0:
        raise JsonlParseError("jobs.jsonl", -i, "a negative job")
    return i * i, os.getpid()


def _die(_) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_pool_runs_one_job_per_worker_in_job_order(two_cpus):
    with WorkerPool() as pool:
        assert pool.workers_for(1) == 1          # one job runs inline
        assert multiprocessing.active_children() == []
        assert pool.workers_for(5) == 2
        first = pool.map(_job, [(3,), (4,)])
        assert [value for value, _ in first] == [9, 16]
        assert len({pid for _, pid in first} | {os.getpid()}) == 3
        # later calls reuse the same workers
        assert pool.workers_for(3) == 2
        assert {pid for _, pid in pool.map(_job, [(1,), (2,)])} == {pid for _, pid in first}
    assert multiprocessing.active_children() == []


def test_a_job_error_is_raised_as_itself_and_the_pool_stays_usable(two_cpus):
    with WorkerPool() as pool:
        assert pool.workers_for(2) == 2
        with pytest.raises(JsonlParseError) as err:
            pool.map(_job, [(5,), (-7,)])
        assert str(err.value) == "jobs.jsonl:7: a negative job"
        assert err.value.line_number == 7
        assert [value for value, _ in pool.map(_job, [(2,), (3,)])] == [4, 9]
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_the_call_and_leaves_no_process(two_cpus):
    with pytest.raises(ChildProcessError, match="before it replied"):
        with WorkerPool() as pool:
            assert pool.workers_for(2) == 2
            pool.map(_die, [(0,), (1,)])
    assert multiprocessing.active_children() == []


def test_more_jobs_than_workers_are_refused(two_cpus):
    with WorkerPool() as pool:
        assert pool.workers_for(2) == 2
        with pytest.raises(ContractError):
            pool.map(_job, [(1,), (2,), (3,)])


def test_one_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with WorkerPool() as pool:
        assert pool.workers_for(8) == 1
        assert multiprocessing.active_children() == []


def test_no_fork_from_another_thread_or_beside_one(two_cpus):
    seen = []
    release = threading.Event()
    with WorkerPool() as pool:
        thread = threading.Thread(target=lambda: (seen.append(pool.workers_for(4)),
                                                  release.wait(10)))
        thread.start()
        try:
            assert pool.workers_for(4) == 1      # another thread is running
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive() and seen == [1]
        assert multiprocessing.active_children() == []
        assert pool.workers_for(4) == 2
