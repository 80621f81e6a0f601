"""Self-time arithmetic and wrapper lifecycle of the span tracer."""

import multiprocessing
import threading

import pytest

from bench.trace import Target, Tracer


def test_self_time_of_a_nested_tree():
    tracer = Tracer()
    tracer.enter("root", now=0.0)
    tracer.enter("a", now=1.0)
    tracer.enter("leaf", now=2.0)
    tracer.exit(now=3.0)
    tracer.exit(now=4.0)
    tracer.enter("b", now=5.0)
    tracer.exit(now=9.0)
    tracer.exit(now=10.0)

    totals = tracer.totals()
    assert totals["root"][:3] == (1, 10.0, 3.0)
    assert totals["a"][:3] == (1, 3.0, 2.0)
    assert totals["leaf"][:3] == (1, 1.0, 1.0)
    assert totals["b"][:3] == (1, 4.0, 4.0)
    # Self times of one thread's tree sum to its root's duration.
    assert sum(row[2] for row in totals.values()) == 10.0
    parents = {span[3]: span[1] for span in tracer.spans}
    ids = {span[3]: span[0] for span in tracer.spans}
    assert parents["root"] == 0
    assert parents["a"] == parents["b"] == ids["root"]
    assert parents["leaf"] == ids["a"]


def test_spans_nest_per_thread():
    """A span opened on another thread is a root there, not a child."""
    tracer = Tracer()
    outer_open = threading.Event()

    def engine():
        outer_open.wait(5)
        tracer.enter("engine", now=1.0)
        tracer.enter("kernel", now=2.0)
        tracer.exit(now=4.0)
        tracer.exit(now=6.0)

    thread = threading.Thread(target=engine)
    thread.start()
    tracer.enter("loop", now=0.0)
    outer_open.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.exit(now=10.0)

    totals = tracer.totals()
    assert totals["loop"][2] == 10.0          # nothing subtracted from it
    assert totals["engine"][2] == 3.0
    assert totals["kernel"][2] == 2.0
    spans = {span[3]: span for span in tracer.spans}
    assert spans["engine"][1] == 0
    assert spans["kernel"][1] == spans["engine"][0]
    assert spans["engine"][2] != spans["loop"][2]


class _Base:
    def inherited(self, x):
        return x + 1


class _Thing(_Base):
    def own(self, x):
        if x < 0:
            raise ValueError("negative")
        return self.inherited(x) * 2


def test_install_records_units_and_uninstall_restores():
    own, inherited = vars(_Thing)["own"], _Base.inherited
    tracer = Tracer()
    targets = [Target(_Thing, "own", "thing.own",
                      units=lambda args, kwargs: args[1]),
               Target(_Thing, "inherited", "thing.inherited")]
    with tracer.installed(targets):
        assert _Thing().own(3) == 8
        with pytest.raises(ValueError):
            _Thing().own(-1)
    assert vars(_Thing)["own"] is own
    assert "inherited" not in vars(_Thing)
    assert _Thing.inherited is inherited

    totals = tracer.totals()
    assert totals["thing.own"][0] == 2        # the raising call closed too
    assert totals["thing.own"][3] == 2        # units: 3 + (-1)
    assert totals["thing.inherited"][0] == 1
    assert _Thing().own(1) == 4 and tracer.totals() == totals


def _child_reports(tracer, conn):
    conn.send(tracer.enabled)
    conn.close()


def test_forked_children_do_not_trace():
    tracer = Tracer()
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_child_reports, args=(tracer, child))
    proc.start()
    assert parent.poll(10)
    assert parent.recv() is False
    proc.join(timeout=10)
    assert not proc.is_alive()
    assert tracer.enabled
