"""Forked worker processes that run one command's independent jobs side by side.

A ``WorkerPool`` belongs to one command and is closed when it ends. It
forks nothing until a call has jobs to share, then forks min(CPUs in this
process's affinity, jobs) workers and keeps them for the command's later
calls. Fork starts a worker without a fresh interpreter and imports, but is
safe only while no other thread runs, so the pool forks only from the main
thread of a process that has no other thread; otherwise, with one CPU or
one job, and in a worker, the jobs run inline. A worker runs the jobs it is
sent, one at a time, with no pool of its own.
"""

from __future__ import annotations

import os
import signal
import threading

from .errors import ContractError


def _serve(conn, inherited) -> None:
    """A worker's loop: for each ``(fn, args)`` received, send back
    ``(True, fn(*args))`` or ``(False, exception)``; stop when the parent's
    end closes."""
    # the parent ends the worker on an interrupt, and a parent that dies
    # must leave this worker's pipe with no writer, so that it sees EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:    # raised again in the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


class WorkerPool:
    """Worker processes for one command; use it as a context manager."""

    def __init__(self):
        self._owner = os.getpid()
        self._workers: list = []        # (process, the parent's end of its pipe)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def workers_for(self, jobs: int) -> int:
        """How many processes share ``jobs`` jobs: at most one per job; 1
        means run them inline. The first call that can share forks the
        workers."""
        if (jobs < 2 or os.getpid() != self._owner
                or threading.current_thread() is not threading.main_thread()):
            return 1
        if not self._workers:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            if min(cpus, jobs) < 2 or threading.active_count() > 1:
                return 1
            self._start(min(cpus, jobs))
        return min(len(self._workers), jobs)

    def _start(self, size: int) -> None:
        # imported here: its modules add about 0.8 MiB to the peak RSS of
        # every command, and one that runs inline needs none of them
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        for _ in range(size):
            ours, theirs = ctx.Pipe()
            inherited = [ours] + [conn for _, conn in self._workers]
            proc = ctx.Process(target=_serve, args=(theirs, inherited), daemon=True)
            proc.start()
            theirs.close()
            self._workers.append((proc, ours))

    def map(self, fn, jobs: list[tuple]) -> list:
        """``[fn(*job) for job in jobs]``, job i on worker i, at most one job
        per worker (see ``workers_for``). ``fn`` is sent by name. A job's
        exception is raised once every reply is in, the first job's first."""
        if len(jobs) > len(self._workers):
            raise ContractError(f"{len(jobs)} jobs for {len(self._workers)} workers")
        for (_, conn), job in zip(self._workers, jobs):
            conn.send((fn, job))
        replies = []
        for proc, conn in self._workers[:len(jobs)]:
            try:
                replies.append(conn.recv())
            except EOFError:
                proc.join()
                raise ChildProcessError(f"worker process {proc.pid} exited with code "
                                        f"{proc.exitcode} before it replied") from None
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def close(self) -> None:
        """End and join every worker, idle or still in a job; a worker holds
        nothing that needs a clean exit."""
        workers, self._workers = self._workers, []
        for proc, conn in workers:
            proc.terminate()
            conn.close()
        for proc, _ in workers:
            proc.join()
