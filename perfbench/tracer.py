"""Spans around calls into a package, installed from outside it.

A probe names one function or method of the package.  `Tracer.install`
replaces that function object *by identity*: every module attribute and
class attribute in the package that is bound to the original object gets
the wrapper, whatever name it is bound under (``from .chains import
homology as simplicial_homology`` is caught).  Patching by name would miss
such aliases and undercount the layer.

Each span records its name, start, end, parent span and job id.  Spans
are kept in flat arrays in memory and written out by the caller once the
run ends.  Calls, inclusive busy time (time under the outermost span of a
name, so recursion is not counted twice) and self time (span duration
minus the time covered by its child spans) are also summed online.

A probe with ``span=False`` only runs its hooks: it feeds counters without
adding a span, so it does not change the self time of its callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

WRAPPED_MARK = "__perfbench_wrapped__"


class Probe:
    """One traced function.

    name: the metric prefix (``layer.fn``); the layer is the part before
    the first dot.  module, qualname: where the original lives
    (``Reducer.insert`` for a method).  pre(tracer, args, kwargs) runs
    before the call and may return replacement ``(args, kwargs)``;
    post(tracer, args, kwargs, result) runs after it.
    """

    def __init__(self, name, module, qualname, pre=None, post=None,
                 span=True):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.module = module
        self.qualname = qualname
        self.pre = pre
        self.post = post
        self.span = span


def _raw_attr_value(raw):
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    return raw


def _raw_attr(owner, attr):
    """The attribute as stored, unwrapping staticmethod/classmethod."""
    return _raw_attr_value(vars(owner)[attr])


def package_namespaces(package: str):
    """(owner, name) pairs: every loaded module of the package and every
    class defined in one of them, each with a printable name."""
    out = []
    seen = set()
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        out.append((mod, modname))
        for attr, value in vars(mod).items():
            if (inspect.isclass(value) and id(value) not in seen
                    and getattr(value, "__module__", "").startswith(package)):
                seen.add(id(value))
                out.append((value, f"{value.__module__}.{value.__qualname__}"))
    return out


def find_wrappers(package: str) -> list[str]:
    """Names of package attributes that hold a tracer wrapper."""
    found = []
    for owner, where in package_namespaces(package):
        for attr in list(vars(owner)):
            value = _raw_attr(owner, attr)
            if getattr(value, WRAPPED_MARK, None) is not None:
                found.append(f"{where}.{attr}")
    return found


class Tracer:
    def __init__(self, package: str, probes):
        self.package = package
        self.probes = list(probes)
        self.names: list[str] = [p.name for p in self.probes if p.span]
        self._name_index = {n: i for i, n in enumerate(self.names)}
        # span arrays, one entry per span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        # online aggregates, per probe name
        self.calls: dict[str, int] = {p.name: 0 for p in self.probes}
        self.busy: dict[str, float] = {n: 0.0 for n in self.names}
        self.self_time: dict[str, float] = {n: 0.0 for n in self.names}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.job = -1
        self._stack: list[int] = []          # open span ids
        self._child: list[float] = []        # child time per open span
        self._depth_name = [0] * len(self.names)
        self.layer_depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._originals_by_id: dict = {}
        self.installed = False

    # --- counters used by probe hooks ---

    def add(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def note(self, key: str, item):
        """Remember item in a set, to count distinct items later."""
        self.distinct.setdefault(key, set()).add(item)

    def active(self, name: str) -> bool:
        """Whether a span of the named probe is open."""
        return self._depth_name[self._name_index[name]] > 0

    # --- wrappers ---

    def _open(self, idx: int) -> tuple[int, float]:
        sid = len(self.span_name)
        parent = self._stack[-1] if self._stack else -1
        self.span_name.append(idx)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self._depth_name[idx] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        return sid, start

    def _close(self, idx: int, sid: int, start: float):
        end = time.perf_counter()
        self.span_end[sid] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - start
        name = self.names[idx]
        self._depth_name[idx] -= 1
        if self._depth_name[idx] == 0:
            self.busy[name] += dur
        self.self_time[name] += dur - child
        if self._child:
            self._child[-1] += dur

    def _wrap(self, probe: Probe, original):
        tracer = self
        idx = self._name_index.get(probe.name) if probe.span else None
        layer = probe.layer
        pre, post = probe.pre, probe.post
        depth = self.layer_depth
        depth.setdefault(layer, 0)

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[probe.name] += 1
                if pre is not None:
                    args, kwargs = pre(tracer, args, kwargs) or (args, kwargs)
                inner = original(*args, **kwargs)
                while True:
                    # only time spent inside the generator is the span's
                    depth[layer] += 1
                    sid, start = tracer._open(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, sid, start)
                        depth[layer] -= 1
                    if post is not None:
                        post(tracer, args, kwargs, item)
                    yield item
            wrapper = gen_wrapper
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[probe.name] += 1
                if pre is not None:
                    args, kwargs = pre(tracer, args, kwargs) or (args, kwargs)
                depth[layer] += 1
                if idx is None:
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        depth[layer] -= 1
                else:
                    sid, start = tracer._open(idx)
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        tracer._close(idx, sid, start)
                        depth[layer] -= 1
                if post is not None:
                    post(tracer, args, kwargs, result)
                return result
        setattr(wrapper, WRAPPED_MARK, original)
        return wrapper

    # --- install / uninstall ---

    def _originals(self) -> dict[int, tuple[Probe, object]]:
        out = {}
        for probe in self.probes:
            owner = sys.modules[probe.module]
            parts = probe.qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = _raw_attr(owner, parts[-1])
            if getattr(original, WRAPPED_MARK, None) is not None:
                raise RuntimeError(f"{probe.name} is already wrapped")
            if id(original) in out:
                raise RuntimeError(f"{probe.name} probes a traced function twice")
            out[id(original)] = (probe, original)
        return out

    def install(self):
        """Wrap every binding of every probed function in the package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        originals = self._originals()
        wrappers = {key: self._wrap(probe, orig)
                    for key, (probe, orig) in originals.items()}
        for owner, _where in package_namespaces(self.package):
            for attr, raw in list(vars(owner).items()):
                func = _raw_attr_value(raw)
                key = id(func)
                if key not in originals or func is not originals[key][1]:
                    continue
                new = wrappers[key]
                if isinstance(raw, staticmethod):
                    new = staticmethod(new)
                elif isinstance(raw, classmethod):
                    new = classmethod(new)
                self._patches.append((owner, attr, raw, new))
                setattr(owner, attr, new)
        self.installed = True
        self.patch_count = len(self._patches)
        self._originals_by_id = originals
        leftover = self.unwrapped_bindings()
        patched = {id(_raw_attr_value(raw)) for _o, _a, raw, _n in self._patches}
        missing = [probe.name for key, (probe, _o) in originals.items()
                   if key not in patched]
        if leftover or missing:
            self.uninstall()
            raise RuntimeError("unwrapped originals remain: "
                               + ", ".join(leftover + missing))

    def unwrapped_bindings(self) -> list[str]:
        """Package attributes still bound to an original probed function,
        including inside module-level dicts, lists and tuples."""
        originals = self._originals_by_id or self._originals()
        found = []
        for owner, where in package_namespaces(self.package):
            for attr in list(vars(owner)):
                value = _raw_attr(owner, attr)
                holders = [value]
                if isinstance(value, dict):
                    holders = list(value.values())
                elif isinstance(value, (list, tuple)):
                    holders = list(value)
                for v in holders:
                    if id(v) in originals and v is originals[id(v)][1]:
                        found.append(f"{where}.{attr}")
        return found

    def uninstall(self):
        """Put every original back and check that no wrapper is left."""
        for owner, attr, raw, _new in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.installed = False
        left = find_wrappers(self.package)
        if left:
            raise RuntimeError("wrappers left after uninstall: " + ", ".join(left))

    # --- results ---

    def metrics(self) -> dict[str, float]:
        out = {}
        for probe in self.probes:
            if not probe.span:
                continue
            out[f"{probe.name}.calls"] = self.calls[probe.name]
            out[f"{probe.name}.s"] = self.busy[probe.name]
            out[f"{probe.name}.self_s"] = self.self_time[probe.name]
        return out

    def spans(self):
        """Spans as (name, start, end, parent, job) tuples."""
        for i in range(len(self.span_name)):
            yield (self.names[self.span_name[i]], self.span_start[i],
                   self.span_end[i], self.span_parent[i], self.span_job[i])
