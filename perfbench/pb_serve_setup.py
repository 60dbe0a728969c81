"""``--setup`` script of the ``serve_warm`` inspection server.

``python -m repro serve --setup pb_serve_setup.py`` executes this file
with the open ``session`` in its globals.  It loads the generated inputs
the benchmark pickled into ``$PERFBENCH_WORK``, registers them, and warms
the session by running every statement of the served mix once; those
direct ``Session.sql`` / ``stream_sql`` frames are written back to
``direct.pkl`` so the benchmark can check them against its reference.

Two signals drive tracing inside the server process:

* ``SIGUSR1`` wraps the layers with a :class:`pb_trace.Tracer`, snapshots
  the session counters and writes the ``traced`` marker;
* ``SIGUSR2`` snapshots the counters again, removes the wrappers, writes
  spans, counts and counter deltas to ``server-trace.json`` and then
  the ``dumped`` marker.
"""

import os
import pickle
import signal

import pb_inputs
import pb_layers
import pb_trace
from repro.util.testing import CountingForwardModel

_work = os.environ["PERFBENCH_WORK"]


def _path(name):
    return os.path.join(_work, name)


def _publish(name, write):
    """Write a file atomically: the benchmark polls for its name."""
    tmp = _path(name + ".tmp")
    write(tmp)
    os.replace(tmp, _path(name))


def _touch(path):
    with open(path, "w", encoding="utf-8"):
        pass


with open(_path("inputs.pkl"), "rb") as _f:
    _inputs = pickle.load(_f)
with open(_path("warm.pkl"), "rb") as _f:
    _warm = pickle.load(_f)
_models = pb_inputs.register(session, _inputs, CountingForwardModel)  # noqa: F821
_direct = {}
for _kind, _sql in _warm:
    if _kind == "stream":
        _direct[(_kind, _sql)] = list(session.stream_sql(_sql))  # noqa: F821
    else:
        _direct[(_kind, _sql)] = session.sql(_sql)  # noqa: F821


def _dump_direct(path):
    with open(path, "wb") as f:
        pickle.dump(_direct, f)


_publish("direct.pkl", _dump_direct)
_state = {}


def _start_trace(signum, frame):
    tracer = pb_trace.Tracer()
    pb_layers.install(tracer, _inputs.hypotheses)
    _state["tracer"] = tracer
    _state["before"] = pb_layers.counters(session, _models)  # noqa: F821
    _publish("traced", _touch)


def _stop_trace(signum, frame):
    tracer = _state.pop("tracer")
    after = pb_layers.counters(session, _models)  # noqa: F821
    tracer.restore()
    deltas = pb_layers.delta(after, _state.pop("before"))
    _publish("server-trace.json",
             lambda path: tracer.dump(path, extra={"deltas": deltas}))
    _publish("dumped", _touch)


signal.signal(signal.SIGUSR1, _start_trace)
signal.signal(signal.SIGUSR2, _stop_trace)
