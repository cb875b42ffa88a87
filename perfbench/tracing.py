"""Traced runs: spans around the program's public functions.

Only traced runs import this module: the serve launcher
(``traced_serve.py``) and ``grid_child.py`` given a spans directory.
Each wrapper replaces a function at the name its caller looks up (a
class attribute, or every ``repro`` module global bound to it) and
records one span per call: name, start, end, parent span and, on the
server's request path, the request tag the client put in the body.

Spans stay in memory.  A process writes them to
``SPANS_DIR/spans-<pid>.jsonl`` when it finishes (:func:`flush`); a
forked pool worker writes its own each time its outermost wrapped call
returns, since it never runs the parent's exit path.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time

from loadgen import rid_of

#: The client's request tag, set in the asyncio handler task when the
#: request is read; every later span of that task carries it.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)

_DROP = object()  # an ``attrs`` hook returns this to discard the span


class _Recorder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return (self.pid << 24) | next(self._ids)

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


_REC: _Recorder | None = None


def _record(sid, parent, name, start, end, tagged, attrs) -> None:
    _REC.spans.append({
        "id": sid, "parent": parent, "name": name, "pid": _REC.pid,
        "start": start, "end": end,
        "rid": REQUEST.get() if tagged else None,
        "attrs": attrs,
    })
    if parent is None and _REC.pid != _REC.main_pid:
        _REC.flush()


def _wrap(name: str, fn, *, pre=None, attrs=None, tagged: bool = True):
    """A span-recording stand-in for ``fn`` (sync or coroutine).

    ``pre(args, kwargs)`` runs before the call; ``attrs(args, kwargs,
    result, pre_value)`` after it, returning the span's attributes or
    ``_DROP``.  Both run outside the timed interval.
    """

    def finish(sid, parent, start, args, kwargs, result, token):
        end = time.perf_counter_ns()
        extra = attrs(args, kwargs, result, token) if attrs else None
        if extra is not _DROP:
            _record(sid, parent, name, start, end, tagged, extra)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            parent = _PARENT.get()
            sid = _REC.new_id()
            reset = _PARENT.set(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                _PARENT.reset(reset)
                finish(sid, parent, start, args, kwargs, result, token)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            parent = _PARENT.get()
            sid = _REC.new_id()
            reset = _PARENT.set(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _PARENT.reset(reset)
                finish(sid, parent, start, args, kwargs, result, token)
    return wrapper


def _patch_method(cls, attr: str, name: str, **hooks) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(name, raw.__func__, **hooks)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(name, raw.__func__, **hooks)))
    else:
        setattr(cls, attr, _wrap(name, raw, **hooks))


def _patch_function(fn, name: str, **hooks) -> None:
    """Rebind every ``repro`` module global that names ``fn``."""
    wrapper = _wrap(name, fn, **hooks)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapper)


def _start(out_dir: str) -> None:
    global _REC
    _REC = _Recorder(out_dir)
    os.register_at_fork(after_in_child=_REC.reset)


def flush() -> None:
    if _REC is not None:
        _REC.flush()


# -- attribute hooks ----------------------------------------------------
def _rows(args, kwargs, result, token):
    return {"rows": int(len(args[1]))}


def _lru_misses(fn):
    return lambda args, kwargs: fn.cache_info().misses


def _cold_only(fn):
    def attrs(args, kwargs, result, misses):
        return {} if fn.cache_info().misses > misses else _DROP
    return attrs


def _on_read(args, kwargs, result, token):
    if result is not None:
        REQUEST.set(rid_of(result[3][:32]))
    return None


def _batch(args, kwargs, result, token):
    batch = args[1]
    return {
        "model": args[0].model.key,
        "rids": [getattr(item, "_perfbench_rid", None) for item in batch],
    }


def _slices(args, kwargs, result, token):
    rows = int(args[1].shape[0])
    slices = len(result[1]) if result is not None else 0
    return {"rows": rows, "slices": slices, "model": args[0].key}


def _install_core() -> None:
    """Wrappers shared by the serve and grid processes."""
    from repro import formats
    from repro.core.positron import PositronNetwork
    from repro.posit import tables

    def network_rows(args, kwargs, result, token):
        net = args[0]
        fmt = net.__dict__.get("_perfbench_fmt")
        if fmt is None:
            fmt = formats.backend_for(net.fmt).name
            net._perfbench_fmt = fmt
        return {"rows": int(len(args[1])), "format": fmt}

    def plan_before(args, kwargs):
        return args[0].__dict__.get("_network_plan")

    def plan_compiled(args, kwargs, result, before):
        net = args[0]
        if result is None or net.__dict__.get("_network_plan") is before:
            return _DROP
        return {"paths": [row["path"] for row in result.explain()]}

    _patch_method(PositronNetwork, "predict_patterns",
                  "formats.network.predict", attrs=network_rows,
                  tagged=False)
    _patch_method(PositronNetwork, "from_float_params",
                  "core.positron.from_float_params", tagged=False)
    _patch_method(PositronNetwork, "network_kernel",
                  "core.positron.network_kernel", pre=plan_before,
                  attrs=plan_compiled, tagged=False)
    cached = tables.tables_for
    _patch_function(cached, "posit.tables.tables_for",
                    pre=_lru_misses(cached), attrs=_cold_only(cached),
                    tagged=False)


def install_serve(out_dir: str) -> None:
    """Wrap the serving layers (single-process server or pool manager)."""
    _start(out_dir)
    import repro.serve  # noqa: F401 - binds every re-exported name
    from repro.serve import batcher, registry, scheduler, server

    _install_core()
    cls = server.InferenceServer
    _patch_method(cls, "_read_request", "serve.http.read", attrs=_on_read)
    _patch_method(cls, "_write_response", "serve.http.write")
    _patch_method(registry.ModelRegistry, "get", "serve.registry.get")
    _patch_function(registry.build_served_model, "serve.registry.build",
                    tagged=False)
    _patch_method(registry.ServedModel, "quantize",
                  "serve.registry.quantize", attrs=_rows)
    _patch_method(batcher.MicroBatcher, "submit", "serve.batcher.submit",
                  attrs=_rows)
    # The batcher's worker task inherits the context of whichever
    # request started it, so its spans must not read the request tag.
    _patch_method(batcher.MicroBatcher, "_execute", "serve.batcher.execute",
                  attrs=_batch, tagged=False)
    _patch_function(scheduler.predict_in_slices, "serve.scheduler.exec",
                    attrs=_slices, tagged=False)

    pending = batcher.PendingRequest

    def tagged_pending(*args, **kwargs):
        item = pending(*args, **kwargs)
        item._perfbench_rid = REQUEST.get()
        return item

    batcher.PendingRequest = tagged_pending


def install_grid(out_dir: str) -> None:
    """Wrap the analysis layers before the runner forks its workers."""
    _start(out_dir)
    import repro.analysis  # noqa: F401 - binds every re-exported name
    from repro.analysis import ablation, store, sweep

    _install_core()
    trained = sweep.trained_model
    _patch_function(trained, "analysis.train", pre=_lru_misses(trained),
                    attrs=_cold_only(trained), tagged=False)
    for fn, name in (
        (sweep.evaluate_configs_batch, "analysis.evaluate"),
        (ablation.naive_accuracy, "analysis.ablation"),
        (ablation.truncated_accuracy, "analysis.ablation"),
        (sweep.sweep_width, "analysis.task"),
        (ablation.ablation_width, "analysis.task"),
    ):
        _patch_function(fn, name, tagged=False)
    for op in ("save_model", "load_model", "save_result", "load_result"):
        _patch_method(store.ArtifactStore, op, "analysis.store",
                      tagged=False)
