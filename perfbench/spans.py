"""In-memory span recorder for the traced run.

A span is one call into a layer's public function: its key
(``layer:function``), start and end (``perf_counter`` seconds), the id of
the span that caused it and the request id current on its thread (serve
requests; 0 elsewhere). Each thread keeps its own stack and columnar
arrays, so spans from the serve client threads never interleave, and
nothing is written until :meth:`SpanRecorder.write` runs at the end.

Self time is accumulated online: when a span closes, its duration is
charged to its parent's child time, and its own self time is its
duration minus the child time it collected. Summing self time over every
span of a thread therefore reproduces the duration of that thread's root
spans exactly, which is the check the traced run makes.

This recorder belongs to the benchmark, not to ``repro.obs``, so changes
to the program's own tracing cannot change how the benchmark measures.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter


class ThreadLog:
    """Spans and per-key totals of one thread."""

    def __init__(self, thread_name: str, num_keys: int) -> None:
        self.thread_name = thread_name
        # Open spans: [start, child_seconds, span_id, layer_group].
        self.stack: list[list] = []
        self.next_id = 1
        self.request = 0
        self.calls = [0] * num_keys
        self.self_s = [0.0] * num_keys
        self.incl_s = [0.0] * num_keys
        self.key = array("i")
        self.span_id = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("d")
        self.end = array("d")
        #: closed root spans of this thread: (key, start, end)
        self.roots: list[tuple[int, float, float]] = []

    def grow(self, num_keys: int) -> None:
        extra = num_keys - len(self.calls)
        self.calls += [0] * extra
        self.self_s += [0.0] * extra
        self.incl_s += [0.0] * extra

    def open(self, group: int) -> list:
        frame = [perf_counter(), 0.0, self.next_id, group]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, key: int, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        start, child, sid, _group = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        else:
            parent_id = 0
            self.roots.append((key, start, end))
        self.calls[key] += 1
        self.self_s[key] += duration - child
        self.incl_s[key] += duration
        self.key.append(key)
        self.span_id.append(sid)
        self.parent.append(parent_id)
        self.req.append(self.request)
        self.start.append(start)
        self.end.append(end)


class SpanRecorder:
    """Per-thread span logs; keys are ``layer:function`` or a bare layer."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self._groups: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[ThreadLog] = []
        self._lock = threading.Lock()

    def _register(self, key: str) -> tuple[int, int]:
        """Index of ``key`` and of its layer (the part before ``:``)."""
        with self._lock:
            if key not in self._key_index:
                self._key_index[key] = len(self.keys)
                self.keys.append(key)
                for log in self._logs:
                    log.grow(len(self.keys))
            group = self._groups.setdefault(
                key.split(":")[0], len(self._groups)
            )
        return self._key_index[key], group

    def log(self) -> ThreadLog:
        """The calling thread's log (created on first use)."""
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = ThreadLog(threading.current_thread().name, len(self.keys))
                self._logs.append(log)
            self._local.log = log
            return log

    def wrap(self, key: str, fn):
        """``fn`` with every call recorded as a span of ``key``.

        A call made while the innermost open span already belongs to the
        same layer runs unrecorded: an override that calls ``super()``
        (``ZCacheArray.commit_replacement``) or a delegating stream is
        one call into the layer, not two.
        """
        kid, group = self._register(key)
        local = self._local
        get_log = self.log

        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = get_log()
            stack = log.stack
            if stack and stack[-1][3] == group:
                return fn(*args, **kwargs)
            frame = log.open(group)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(kid, frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def span(self, key: str) -> "_Span":
        """Context manager recording one span of ``key``."""
        return _Span(self, *self._register(key))

    def reset(self) -> None:
        """Drop everything recorded so far (no span may be open)."""
        for log in self._logs:
            if log.stack:
                raise RuntimeError(f"{log.thread_name}: reset with open spans")
            log.__init__(log.thread_name, len(self.keys))

    def by_key(self) -> dict[str, tuple[int, float, float]]:
        """Per-key (calls, self seconds, inclusive seconds) over threads."""
        out = {}
        for key, i in self._key_index.items():
            out[key] = (
                sum(log.calls[i] for log in self._logs),
                sum(log.self_s[i] for log in self._logs),
                sum(log.incl_s[i] for log in self._logs),
            )
        return out

    def totals(self, layers) -> tuple[dict[str, int], dict[str, float]]:
        """Per-layer call counts and self seconds, summed over functions."""
        calls = dict.fromkeys(layers, 0)
        self_s = dict.fromkeys(layers, 0.0)
        for key, (n, s, _incl) in self.by_key().items():
            layer = key.split(":")[0]
            calls[layer] += n
            self_s[layer] += s
        return calls, self_s

    def self_time_errors(self, tolerance: float = 1e-6) -> list[str]:
        """Problems with exclusive attribution, one string each.

        On every thread the self times must sum to the total duration
        of that thread's root spans (so no interval is counted twice or
        dropped), no key may have negative self time, and every span
        must have closed.
        """
        errors = []
        for log in self._logs:
            if log.stack:
                errors.append(f"{log.thread_name}: {len(log.stack)} spans left open")
            root_total = sum(end - start for _k, start, end in log.roots)
            self_total = sum(log.self_s)
            if abs(self_total - root_total) > tolerance * max(1.0, root_total):
                errors.append(
                    f"{log.thread_name}: self times sum to {self_total:.9f} s "
                    f"but root spans last {root_total:.9f} s"
                )
            for key, i in self._key_index.items():
                if log.self_s[i] < -tolerance:
                    errors.append(f"{log.thread_name}: {key} self time < 0")
        return errors

    def write(self, path) -> int:
        """Write every span to a ``.npz`` file; returns the span count.

        ``keys`` holds the span keys; thread ``i``'s spans are the columns
        ``t<i>.key`` (index into ``keys``), ``t<i>.span_id``,
        ``t<i>.parent`` (0 for a root), ``t<i>.request``, ``t<i>.start``
        and ``t<i>.end`` (``perf_counter`` seconds).
        """
        import numpy as np

        columns = {"keys": np.array(self.keys)}
        count = 0
        for i, log in enumerate(self._logs):
            count += len(log.key)
            for name, col in (("key", log.key), ("span_id", log.span_id),
                              ("parent", log.parent), ("request", log.req),
                              ("start", log.start), ("end", log.end)):
                columns[f"t{i}.{name}"] = np.frombuffer(col, dtype=col.typecode)
        np.savez(path, **columns)
        return count


class _Span:
    def __init__(self, recorder: SpanRecorder, key: int, group: int) -> None:
        self._key = key
        self._group = group
        self._frame: list = []
        self._log: ThreadLog = recorder.log()

    def __enter__(self) -> "_Span":
        self._frame = self._log.open(self._group)
        return self

    def __exit__(self, *exc) -> None:
        self._log.close(self._key, self._frame)
