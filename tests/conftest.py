"""Session-wide guards: no PersistentPool workers or shared-memory blocks
may outlive the tests."""

import multiprocessing
import os

import pytest

from repro.parallel import PersistentPool, SharedArrays


@pytest.fixture(autouse=True, scope="session")
def no_pool_leaks():
    """Fail the session if any pool worker is still resident at the end,
    or a shared-memory block created during the run still exists.

    Pools must be closed (or garbage-collected through their atexit
    hook) by the tests that start them; an orphaned worker here means a
    leaked fork that would accumulate across CI runs, and a leftover
    ``/dev/shm/psm_*`` entry a block nobody unlinked.  Only blocks this
    session created are checked, so other processes on the host cannot
    fail the run.
    """
    created = []
    create = SharedArrays.__init__

    def recording_create(self, arrays):
        create(self, arrays)
        created.append(self.spec["name"])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedArrays, "__init__", recording_create)
        yield
    leaked = PersistentPool.active_pools()
    assert leaked == [], f"PersistentPool leaked open pools: {leaked}"
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
    stragglers = [proc for proc in multiprocessing.active_children()
                  if proc.is_alive()]
    assert stragglers == [], f"orphaned worker processes: {stragglers}"
    left = [name for name in created
            if os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))]
    assert left == [], f"shared-memory blocks left behind: {left}"
