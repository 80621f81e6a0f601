"""Process-pool fan-out for rollouts, evaluation grids, and benchmarks.

SMORE's hot loops — sample-and-select-best inference, the experiment
method grid, and sharded city solves — are embarrassingly parallel over
items that share large read-only state (instances, trained policies,
candidate-table snapshots).  :class:`PersistentPool` is the one process
pool: workers are forked once and fed work chunks over pipes, so repeated
maps (shard solves, benchmark sweeps, serving loops) skip the per-call
fork/teardown, and state reachable at fork time is inherited
copy-on-write instead of pickled.  :func:`parallel_map` is a one-shot map
on a pool that closes when the map returns.  Every map keeps these
guarantees:

* **Determinism** — per-item RNGs are derived from one root seed via
  :func:`numpy.random.SeedSequence.spawn`, so results are bit-identical
  whether items run serially, in any pool size, or in any schedule.
* **Graceful fallback** — with ``workers <= 1``, a single item, a platform
  without ``fork`` (e.g. Windows/macOS spawn-only configurations), a
  failed pool construction, or when already inside a pool worker (pool
  workers are daemonic and cannot fork again), the map degrades to an
  ordinary serial loop with the *same* per-item seeds.
* **Failures propagate** — an exception raised by ``fn`` inside a worker
  re-raises in the parent with the worker traceback attached; a worker
  that *dies* mid-chunk raises :class:`WorkerCrashError`.  Lost or failed
  items are never silently re-executed.
* **Telemetry propagates** — each worker item runs under
  :func:`repro.obs.capture_child`, and its counter/span/event snapshot is
  shipped back with the result and merged in item order
  (:func:`repro.obs.absorb`), so a traced parallel run reports the same
  counters as the serial run.  An installed op profiler's delta and an
  installed SLO tracker's rolling-window delta
  (:func:`repro.obs.slo.install`) ride the same snapshot, so windowed
  rejection rates survive the fork boundary too.  With all telemetry
  disabled the snapshots are ``None`` and cost nothing.

Large read-only arrays are published to resident workers zero-copy
through ``multiprocessing.shared_memory``
(:meth:`PersistentPool.share_arrays` / :func:`shared_arrays`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import sys
import traceback
import weakref
from collections import deque
from multiprocessing import connection
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import obs

__all__ = ["parallel_map", "derive_seeds", "derive_rngs", "fork_available",
           "default_workers", "PersistentPool", "WorkerCrashError",
           "SharedArrays", "shared_arrays"]

T = TypeVar("T")
R = TypeVar("R")

#: Set inside pool workers so nested maps degrade to serial.
_IN_WORKER = False


def fork_available() -> bool:
    """True when ``fork``-start process pools can be used on this platform."""
    return (os.name == "posix"
            and "fork" in multiprocessing.get_all_start_methods())


def default_workers() -> int:
    """A sensible pool size: the CPUs this process may run on (at least 1).

    Containers and CI runners routinely pin a process to a slice of the
    host — ``os.cpu_count()`` still reports the host total there, so the
    affinity mask is consulted first where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def derive_seeds(seed: int | None, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seed sequences of one root seed.

    The derivation is order-stable: item ``i`` always receives the same
    child sequence for a given root, which is what makes parallel and
    serial execution bit-identical.
    """
    return list(np.random.SeedSequence(seed).spawn(n))


def derive_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """``n`` independent, deterministically derived generators."""
    return [np.random.default_rng(s) for s in derive_seeds(seed, n)]


def _default_chunksize(num_items: int, workers: int) -> int:
    chunks_per_worker = 4
    return max(1, num_items // (workers * chunks_per_worker))


def parallel_map(fn: Callable[..., R], items: Iterable[T],
                 workers: int | None = None,
                 seed: int | None = None,
                 use_seeds: bool = False) -> list[R]:
    """Map ``fn`` over ``items`` on a one-shot :class:`PersistentPool`.

    ``fn`` is called as ``fn(item)`` — or ``fn(item, rng)`` when a
    ``seed`` is given or ``use_seeds`` is set — and may close over
    unpicklable state: only item indices cross the pipe, while ``fn``
    and ``items`` reach the workers through the fork.  ``workers=None``
    or ``<= 1`` runs serially in-process.  Returns results in item
    order, identical for every ``workers`` when ``fn`` is deterministic.
    """
    items = list(items)
    with PersistentPool(workers=min(workers or 1, len(items))) as pool:
        if use_seeds or seed is not None:
            return pool.map(lambda i, rng: fn(items[i], rng),
                            range(len(items)), seed=seed, use_seeds=True)
        return pool.map(lambda i: fn(items[i]), range(len(items)))


# ---------------------------------------------------------------------- #
# Zero-copy shared arrays
# ---------------------------------------------------------------------- #
#: Shared-array sets visible in *this* process.  Workers attach shared-
#: memory blocks into ``_WORKER_SHARED``; the parent (and the serial
#: fallback path) reads ``_PARENT_SHARED``.
_WORKER_SHARED: dict[str, dict[str, np.ndarray]] = {}
_PARENT_SHARED: dict[str, dict[str, np.ndarray]] = {}


def _shm_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return None
    return shared_memory


def shared_arrays(key: str) -> dict[str, np.ndarray] | None:
    """The array set published under ``key``, or None when not visible.

    Inside a :class:`PersistentPool` worker this resolves to the attached
    shared-memory views; in the parent (or on the serial fallback path) it
    resolves to the arrays handed to :meth:`PersistentPool.share_arrays`.
    Callers must treat the arrays as read-only and be prepared for None —
    e.g. a worker forked before the share on a platform without
    ``multiprocessing.shared_memory`` — by rebuilding locally.
    """
    found = _WORKER_SHARED.get(key)
    if found is not None:
        return found
    return _PARENT_SHARED.get(key)


class SharedArrays:
    """A named set of numpy arrays packed into one shared-memory block.

    The block layout (per-array offset/shape/dtype) travels as a small
    picklable ``spec``; any process attaches with :meth:`attach` and gets
    ndarray views straight into the shared pages — no copy, no pickling
    of the array payload.
    """

    __slots__ = ("arrays", "spec", "nbytes", "_shm", "_owner", "_idle_refs")

    def __init__(self, arrays: dict[str, np.ndarray]):
        shm_mod = _shm_module()
        if shm_mod is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        normalised = {name: np.ascontiguousarray(a)
                      for name, a in arrays.items()}
        layout: dict[str, tuple[int, tuple, str]] = {}
        total = 0
        for name, arr in normalised.items():
            total = -(-total // 64) * 64  # 64-byte aligned offsets
            layout[name] = (total, tuple(arr.shape), arr.dtype.str)
            total += arr.nbytes
        self._shm = shm_mod.SharedMemory(create=True, size=max(1, total))
        self._owner = True
        self._idle_refs = self._mapping_refs()
        views: dict[str, np.ndarray] = {}
        for name, arr in normalised.items():
            offset, shape, dtype = layout[name]
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=self._shm.buf, offset=offset)
            view[...] = arr
            views[name] = view
        self.arrays = views
        self.nbytes = total
        self.spec = {"name": self._shm.name, "layout": layout,
                     "nbytes": total}

    @classmethod
    def attach(cls, spec: dict) -> "SharedArrays":
        shm_mod = _shm_module()
        shm = shm_mod.SharedMemory(name=spec["name"], create=False)
        self = object.__new__(cls)
        self._shm = shm
        self._owner = False
        self._idle_refs = self._mapping_refs()
        self.arrays = {
            name: np.ndarray(shape, dtype=np.dtype(dtype),
                             buffer=shm.buf, offset=offset)
            for name, (offset, shape, dtype) in spec["layout"].items()
        }
        self.spec = spec
        self.nbytes = spec["nbytes"]
        return self

    def _mapping_refs(self) -> int:
        # Every ndarray view of the block (and every view derived from
        # one) holds a reference to the mapping; numpy keeps no buffer
        # export, so the mapping cannot tell on its own.
        mapping = getattr(self._shm, "_mmap", None)
        return 0 if mapping is None else sys.getrefcount(mapping)

    def close(self) -> bool:
        """Drop this process's mapping (the block itself survives).

        Returns False, keeping the mapping, while a view that escaped
        still points into it (unmapping would leave that view dangling);
        calling again once the view is gone completes the close.
        """
        self.arrays = {}
        if self._mapping_refs() > self._idle_refs:
            return False
        try:
            self._shm.close()
        except BufferError:
            return False
        return True

    def unlink(self) -> None:
        """Destroy the block (creator only; call after :meth:`close`)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------- #
# Persistent worker pool
# ---------------------------------------------------------------------- #
class WorkerCrashError(RuntimeError):
    """A pool worker died mid-chunk (segfault, ``os._exit``, OOM kill).

    Distinct from an exception *raised by* ``fn`` (which propagates as
    itself): a crash leaves no result and no diagnosis, so the pool
    surfaces it explicitly instead of silently re-executing the lost
    items — re-execution would duplicate side effects and mask the crash.
    """


def _pool_worker_main(conn, registry: dict, shared_specs: dict) -> None:
    """Resident worker loop: attach shares, then serve chunks until stop.

    A share under a key already attached replaces that block, and the
    worker closes its mapping of the old one.  A block whose views are
    still held (e.g. by an object rebuilt around them) stays mapped
    until its holder lets go; the close is retried after every message.
    """
    global _IN_WORKER
    _IN_WORKER = True
    attached: dict[str, SharedArrays] = {}
    pinned: list[SharedArrays] = []

    def attach(key: str, spec: dict) -> None:
        block = SharedArrays.attach(spec)
        _WORKER_SHARED[key] = block.arrays
        old = attached.pop(key, None)
        attached[key] = block
        if old is not None and not old.close():
            pinned.append(old)

    # The fork copied the parent's own mappings of every pool's blocks;
    # this worker attaches its own below, so unmap the copies.
    for pool in list(PersistentPool._ACTIVE):
        for key, block in pool._shared_blocks.items():
            _PARENT_SHARED.pop(key, None)
            block.close()
    for key, spec in shared_specs.items():
        attach(key, spec)
    while True:
        pinned[:] = [block for block in pinned if not block.close()]
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        except Exception as exc:
            # A chunk that fails to unpickle (e.g. a function defined in
            # an unimportable __main__) is a caller error, not a reason
            # for the worker to die: report and keep serving.
            note = traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"undecodable pool message: {exc!r}")
            conn.send(("error", -1, -1, exc, note))
            continue
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "share":
            _, key, spec = msg
            attach(key, spec)
            conn.send(("shared", key))
            continue
        # ("chunk", call_id, start, fn_spec, payload, seeds)
        _, call_id, start, fn_spec, payload, seeds = msg
        try:
            fn = registry[fn_spec[1]] if fn_spec[0] == "name" else fn_spec[1]
            pairs = []
            for offset, item in enumerate(payload):
                with obs.capture_child() as telemetry:
                    if seeds is None:
                        result = fn(item)
                    else:
                        result = fn(item,
                                    np.random.default_rng(seeds[offset]))
                pairs.append((result, telemetry.snapshot))
        except Exception as exc:
            note = traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"unpicklable worker exception: {exc!r}")
            conn.send(("error", call_id, start, exc, note))
        else:
            conn.send(("done", call_id, start, pairs))
    _WORKER_SHARED.clear()
    for block in [*attached.values(), *pinned]:
        block.close()
    conn.close()


class PersistentPool:
    """A long-lived fork worker pool with zero-copy shared state.

    Workers are forked once (lazily, on the first parallel map) and stay
    resident: subsequent maps only ship work chunks and results over
    pipes.  Three ways to get state to the workers, cheapest first:

    * **fork inheritance** — anything reachable when the pool starts
      (including functions attached via :meth:`register`, which may close
      over unpicklable state) is inherited copy-on-write;
    * **shared memory** — :meth:`share_arrays` publishes numpy arrays
      through one ``multiprocessing.shared_memory`` block, visible to
      already-running workers zero-copy (:func:`shared_arrays`);
    * **pickling** — map items (and, after start, unregistered functions)
      travel over the pipe and must be picklable.

    Every map keeps the module's guarantees: per-item seeds derived from
    one root (bit-identical serial/parallel), results in item order,
    telemetry snapshots absorbed in item order, worker exceptions
    re-raised in the parent, and a worker that *dies* mid-chunk raising
    :class:`WorkerCrashError` — lost items are reported, never silently
    re-executed.  ``workers <= 1``, a single item, a fork-less platform,
    a failed construction, or a nested call from inside a pool worker
    all degrade to the serial path with the same per-item seeds.
    """

    _ACTIVE: "weakref.WeakSet[PersistentPool]" = weakref.WeakSet()

    def __init__(self, workers: int | None = None):
        self.workers = max(1, int(workers if workers is not None
                                  else default_workers()))
        self._registry: dict[str, Callable] = {}
        self._procs: list = []
        self._conns: list = []
        self._proc_of: dict = {}
        self._shared_blocks: dict[str, SharedArrays] = {}
        self._shared_specs: dict[str, dict] = {}
        self._shared_keys: set[str] = set()
        self._started = False
        self._closed = False
        self._owner_pid: int | None = None
        self._call_seq = 0
        PersistentPool._ACTIVE.add(self)

    # -------------------------------------------------------------- #
    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def pids(self) -> list[int]:
        """PIDs of the resident workers (empty before start)."""
        return [proc.pid for proc in self._procs]

    @classmethod
    def active_pools(cls) -> list["PersistentPool"]:
        """Started, unclosed pools owned by this process (leak checks)."""
        pid = os.getpid()
        return [pool for pool in cls._ACTIVE
                if pool._started and not pool._closed
                and pool._owner_pid == pid]

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- #
    def register(self, name: str, fn: Callable) -> None:
        """Attach ``fn`` under ``name`` before the pool starts.

        Registered functions reach workers through the fork, so they may
        close over arbitrary unpicklable state; maps then refer to them
        by name.  After start the registry is frozen — the workers'
        copies were fixed at fork time.
        """
        if self._started:
            raise RuntimeError(
                "register() must run before the pool starts; resident "
                "workers inherited the registry at fork time")
        self._registry[name] = fn

    def share_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> bool:
        """Publish ``arrays`` to the pool under ``key``; True when workers
        will see them zero-copy.

        Before start the arrays are staged (shared-memory block created
        eagerly when the platform supports it, plain fork inheritance
        otherwise); after start they are pushed to every resident worker,
        which requires ``multiprocessing.shared_memory``.  The parent-side
        view under :func:`shared_arrays` is the shared block itself, so
        parent writes before a map are visible to workers without any
        copy.  Only call between maps, never concurrently with one.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        arrays = {name: np.asarray(a) for name, a in arrays.items()}
        self._shared_keys.add(key)
        _PARENT_SHARED[key] = arrays
        spec = None
        if _shm_module() is not None:
            block = SharedArrays(arrays)
            old = self._shared_blocks.pop(key, None)
            if old is not None:
                old.close()
                old.unlink()
            self._shared_blocks[key] = block
            self._shared_specs[key] = block.spec
            _PARENT_SHARED[key] = block.arrays
            spec = block.spec
        if not self._started:
            return True
        if spec is None:
            return False  # resident workers cannot see a post-fork share
        for conn in self._conns:
            conn.send(("share", key, spec))
        for conn in self._conns:
            ack = conn.recv()
            if ack != ("shared", key):
                raise RuntimeError(f"unexpected share ack {ack!r}")
        return True

    # -------------------------------------------------------------- #
    def start(self) -> bool:
        """Fork the resident workers; True when the pool is running.

        Idempotent.  Returns False — leaving every map on the serial
        path — when fork is unavailable or construction fails.  Only
        construction falls back: an exception raised by a mapped
        function is never retried serially.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._started:
            return True
        if not fork_available() or _IN_WORKER:
            return False
        try:
            ctx = multiprocessing.get_context("fork")
            for index in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pool_worker_main,
                    args=(child_conn, self._registry,
                          dict(self._shared_specs)),
                    daemon=True, name=f"repro-pool-{index}")
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                self._proc_of[parent_conn] = proc
        except (OSError, AssertionError):
            self._teardown_processes()
            return False
        self._started = True
        self._owner_pid = os.getpid()
        return True

    def map(self, fn: Callable[..., R] | str, items: Iterable[T],
            seed: int | None = None, use_seeds: bool = False,
            chunksize: int | None = None) -> list[R]:
        """Map ``fn`` over ``items`` on the resident workers.

        ``fn`` is a callable or the name of a :meth:`register`-ed
        function.  A ``seed`` (or ``use_seeds``) switches to the
        two-argument ``fn(item, rng)`` form, item ``i`` drawing from
        ``derive_seeds(seed, n)[i]``.  Items and results
        travel over pipes and must be picklable; a callable ``fn`` must
        be picklable too once the pool is already running (the map that
        *starts* the pool hands it to workers through the fork).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        items = list(items)
        seeds = derive_seeds(seed, len(items)) \
            if (use_seeds or seed is not None) else None
        if not items:
            return []
        parallel = (self.workers > 1 and len(items) > 1 and not _IN_WORKER
                    and fork_available())
        fn_spec = None
        if parallel and not self._started:
            fn_spec = self._stage_for_start(fn)
            parallel = self.start()
        elif parallel:
            fn_spec = self._resolve_spec(fn)
        if not parallel:
            return self._serial(fn, items, seeds)
        return self._dispatch(fn_spec, items, seeds, chunksize)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and release shared blocks (idempotent).

        A forked child inheriting this object must not tear down its
        parent's pool, so close() is a no-op outside the owning process.
        """
        if self._closed:
            return
        if self._started and self._owner_pid != os.getpid():
            return
        self._closed = True
        if self._started:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            self._teardown_processes(timeout=timeout)
        self._release_shared()
        self._started = False
        PersistentPool._ACTIVE.discard(self)

    def _release_shared(self) -> None:
        for key in self._shared_keys:
            _PARENT_SHARED.pop(key, None)
        for block in self._shared_blocks.values():
            block.close()
            block.unlink()
        self._shared_blocks.clear()
        self._shared_specs.clear()

    # -------------------------------------------------------------- #
    def _teardown_processes(self, timeout: float = 5.0) -> None:
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._conns.clear()
        self._proc_of.clear()

    def _stage_for_start(self, fn) -> tuple:
        """fn spec for the map that starts the pool (fork-inheritable)."""
        if isinstance(fn, str):
            if fn not in self._registry:
                raise KeyError(f"no registered pool function {fn!r}")
            return ("name", fn)
        name = f"__map_{self._call_seq}__"
        self._registry[name] = fn
        return ("name", name)

    def _resolve_spec(self, fn) -> tuple:
        if isinstance(fn, str):
            if fn not in self._registry:
                raise KeyError(f"no registered pool function {fn!r}")
            return ("name", fn)
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise TypeError(
                "callable is not picklable and the pool is already "
                "running; register() it before start so workers inherit "
                "it through the fork") from exc
        return ("fn", fn)

    def _serial(self, fn, items, seeds) -> list:
        if isinstance(fn, str):
            fn = self._registry[fn]
        if seeds is None:
            return [fn(item) for item in items]
        return [fn(item, np.random.default_rng(s))
                for item, s in zip(items, seeds)]

    def _dispatch(self, fn_spec, items, seeds, chunksize) -> list:
        call_id = self._call_seq
        self._call_seq += 1
        n = len(items)
        size = chunksize or _default_chunksize(n, min(self.workers, n))
        pending = deque(range(0, n, size))
        out: list = [None] * n
        errors: list[tuple[int, BaseException, str]] = []
        crashes: list[tuple[int, int, object]] = []
        busy: dict = {}

        def send_next(conn) -> None:
            start = pending.popleft()
            payload = items[start:start + size]
            seed_slice = None if seeds is None else seeds[start:start + size]
            conn.send(("chunk", call_id, start, fn_spec, payload, seed_slice))
            busy[conn] = (start, len(payload))

        for conn in self._conns:
            if not pending:
                break
            send_next(conn)
        while busy:
            ready = connection.wait(list(busy), timeout=5.0)
            if not ready:
                for conn in list(busy):
                    if not self._proc_of[conn].is_alive():
                        start, count = busy.pop(conn)
                        crashes.append((start, count,
                                        self._proc_of[conn].exitcode))
                continue
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    start, count = busy.pop(conn)
                    self._proc_of[conn].join(timeout=1.0)
                    crashes.append((start, count,
                                    self._proc_of[conn].exitcode))
                    continue
                start, count = busy.pop(conn)
                if msg[0] == "done":
                    _, _, msg_start, pairs = msg
                    out[msg_start:msg_start + len(pairs)] = pairs
                else:
                    _, _, msg_start, exc, note = msg
                    errors.append((msg_start, exc, note))
                # Dynamic load balancing: the first worker to finish gets
                # the next chunk.  Results reassemble by index, so the
                # schedule cannot affect the output.  After a failure no
                # new work goes out; in-flight chunks still drain.
                if pending and not errors and not crashes:
                    send_next(conn)

        if crashes:
            lost = ", ".join(f"items {s}..{s + c - 1} (exit {code})"
                             for s, c, code in sorted(crashes))
            never_ran = sum(len(items[s:s + size]) for s in pending)
            self._closed = True
            self._teardown_processes(timeout=1.0)
            self._release_shared()
            PersistentPool._ACTIVE.discard(self)
            raise WorkerCrashError(
                f"pool worker died mid-chunk: {lost}; {never_ran} queued "
                "items were never dispatched; nothing was re-executed")
        if errors:
            errors.sort(key=lambda e: e[0])
            _, exc, note = errors[0]
            exc.add_note("(raised in a PersistentPool worker)\n" + note)
            raise exc
        results = []
        for result, telemetry in out:
            obs.absorb(telemetry)  # item order -> deterministic
            results.append(result)
        return results


@atexit.register
def _close_active_pools() -> None:
    for pool in list(PersistentPool._ACTIVE):
        try:
            pool.close(timeout=1.0)
        except Exception:
            pass
