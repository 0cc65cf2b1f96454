"""One helper thread that runs one job at a time beside the caller.

``Helper`` is a context manager with two calls: ``submit(fn, *args)`` hands
the helper one job, and ``wait()`` blocks until that job is done and
re-raises its exception on the caller. A job must not touch what the caller
works on until the caller has waited for it.

A thread starts only when the process may run on two CPUs and BLAS runs one
thread: a multi-threaded BLAS would already ask for both CPUs in each GEMM.
When the BLAS thread count cannot be read, the CPUs alone decide. Without a
thread, ``submit`` runs the job at once on the caller and ``wait`` has
nothing to do, so a caller has one code path whatever the machine, and its
results do not depend on the CPU or BLAS thread count as long as the jobs
it submits are independent of what it does until it waits.

The thread runs its jobs in a copy of the caller's context, so an
``np.errstate`` in force when the helper starts holds on both threads. It
is stopped and joined when the ``with`` block ends, also after an
exception, so it never outlives the call that made it.
"""

from __future__ import annotations

import contextvars
import functools
import os

import numpy as np


@functools.cache
def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs, or None if it does not say."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    if not libs:
        return None
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _cpus() -> int:
    """CPUs this process may run on; os.sched_getaffinity is Linux-only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Helper:
    """``with Helper(wanted) as helper:`` gives a helper thread when
    ``wanted`` and the machine allows it, and runs jobs inline otherwise."""

    def __init__(self, wanted: bool = True):
        self._thread = None
        self._pending = False
        if not (wanted and _cpus() >= 2
                and _blas_threads() in (None, 1)):
            return
        import queue
        import threading
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        context = contextvars.copy_context()

        def serve() -> None:
            while (job := self._todo.get()) is not None:
                try:
                    context.run(*job)
                except BaseException as exc:   # re-raised by wait()
                    self._done.put(exc)
                else:
                    self._done.put(None)

        self._thread = threading.Thread(target=serve, name="ptwide-helper")
        self._thread.start()

    def submit(self, fn, *args) -> None:
        """Run fn(*args) on the helper, or here and now without one."""
        if self._thread is None:
            fn(*args)
            return
        assert not self._pending, "wait() for the last job before submitting"
        self._pending = True
        self._todo.put((fn, *args))

    def wait(self) -> None:
        """Block until the submitted job is done; re-raise its exception."""
        if not self._pending:
            return
        self._pending = False
        failure = self._done.get()
        if failure is not None:
            raise failure

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            # The helper ends a pending job, then sees the stop message.
            self._todo.put(None)
            self._thread.join()
