"""Span tracing for the traced benchmark pass.

`Tracer.install` wraps the public functions of every sodlab layer module,
and the validating constructors of the value classes, so that each call
records one span.  A span is a tuple

    (parent, op, case, start, end, events, segments)

kept in `Tracer.spans`, indexed by span id, with `parent == -1` at the top.
`op` indexes `Tracer.ops`, a list of `(layer, name)`; `case` is the label the
benchmark set before the command that made the call.  Spans stay in memory
and are aggregated or written out when the pass ends.

`events` and `segments` size the work of a span: the event sequences and
signals among the arguments, or in the result when no argument has one
(norms count the amplitudes they receive).  They turn self times into
microseconds per event or per segment.

Timed workers never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Layer modules, in the order the report lists them.  `cli` has no wrapped
# functions: the benchmark opens one cli span around each subcommand.
LAYERS = ("signals", "events", "sampler", "norms", "spike_metrics",
          "structure", "trains", "analysis", "cli")

# Value classes whose __post_init__ validates the whole input; wrapped and
# reported as `<Class>.validate`.
VALIDATORS = {"signals": ("Signal",), "events": ("EventSequence",),
              "structure": ("DenseEvents",)}


class Tracer:
    """Span store plus the wrappers that fill it; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.ops: list[tuple[str, str]] = []
        self._op_ids: dict[tuple[str, str], int] = {}
        self.spans: list = []
        # op name -> fn(result) -> (hits, attempts), summed per (op, case)
        self.observers: dict = {}
        self.counters: dict[tuple[str, str], list[int]] = {}
        self.case = ""
        self._stack = [-1]
        self._sized = ()  # (EventSequence, DenseEvents, Signal) once installed

    def op_index(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._op_ids:
            self._op_ids[key] = len(self.ops)
            self.ops.append(key)
        return self._op_ids[key]

    def _sizes(self, layer, args, result):
        es_types, signal_type = self._sized
        if layer == "norms" and args:
            values = getattr(args[0], "values", args[0])
            return (len(values) if isinstance(values, (list, tuple)) else 0), 0
        events = segments = 0
        for arg in args:
            if isinstance(arg, es_types):
                events += len(arg.values)
            elif isinstance(arg, signal_type):
                segments += len(arg.segments)
        if not events and isinstance(result, es_types):
            events = len(result.values)
        if not segments and isinstance(result, signal_type):
            segments = len(result.segments)
        return events, segments

    def wrap(self, layer: str, name: str, fn):
        """A wrapper of `fn` that records one span per call."""
        op = self.op_index(layer, name)
        spans, stack, clock, sizes = self.spans, self._stack, time.perf_counter, self._sizes
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (parent, op, self.case, start, clock(), 0, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            # a validator's size is its own instance, complete only now
            events, segments = sizes(layer, args, result)
            spans[sid] = (parent, op, self.case, start, end, events, segments)
            if observer is not None:
                hits, attempts = observer(result)
                total = self.counters.setdefault((name, self.case), [0, 0])
                total[0] += hits
                total[1] += attempts
            return result

        return traced

    def open_span(self, layer: str, name: str):
        """Start a span the caller closes with `close_span`; returns its id."""
        op = self.op_index(layer, name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        self.spans[sid] = (parent, op, self.case, time.perf_counter(), None, 0, 0)
        return sid

    def close_span(self, sid: int) -> None:
        end = time.perf_counter()
        parent, op, case, start, _, ev, seg = self.spans[sid]
        self._stack.pop()
        self.spans[sid] = (parent, op, case, start, end, ev, seg)

    def install(self) -> None:
        """Wrap every public function of the layer modules and rebind each
        wrapper at every sodlab module attribute bound to the original
        object, so from-imported aliases are traced too.  `norm_by_kind`
        returns the wrapped norm, so closures built from it are traced as
        well."""
        import sodlab

        modules = {layer: importlib.import_module(f"sodlab.{layer}")
                   for layer in LAYERS if layer != "cli"}
        self._sized = ((modules["events"].EventSequence,
                        modules["structure"].DenseEvents),
                       modules["signals"].Signal)
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(layer, attr, obj)
            for cls_name in VALIDATORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                cls.__post_init__ = self.wrap(layer, f"{cls_name}.validate",
                                              cls.__dict__["__post_init__"])

        norms = modules["norms"]
        by_kind = wrapped[norms.norm_by_kind]

        def norm_by_kind(kind):
            fn = by_kind(kind)
            return wrapped.get(fn, fn)

        wrapped[norms.norm_by_kind] = norm_by_kind

        targets = [sodlab, importlib.import_module("sodlab.cli"), *modules.values()]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that the union of its direct children's intervals covers."""
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, _op, _case, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_parent, _op, _case, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def aggregate(tracer: Tracer) -> list[dict]:
    """One row per (layer, op, case): calls, self and inclusive seconds,
    and summed event and segment sizes.

    A `sod_sample` call whose previous sibling span is `reconstruct` samples
    a reconstruction (one event per piece); its case gets a `.resample`
    suffix so that it does not dilute the events per piece of the inputs.
    """
    selfs = self_times(tracer.spans)
    sod = tracer._op_ids.get(("sampler", "sod_sample"))
    rec = tracer._op_ids.get(("sampler", "reconstruct"))
    last_child: dict[int, int] = {}
    rows: dict[tuple[int, str], dict] = {}
    for (parent, op, case, start, end, events, segments), own in zip(tracer.spans, selfs):
        if op == sod and last_child.get(parent) == rec:
            case += ".resample"
        last_child[parent] = op
        row = rows.get((op, case))
        if row is None:
            layer, name = tracer.ops[op]
            row = rows[(op, case)] = {"layer": layer, "op": name, "case": case,
                                      "calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                      "events": 0, "segments": 0}
        row["calls"] += 1
        row["self_s"] += own
        row["incl_s"] += end - start
        row["events"] += events
        row["segments"] += segments
    return sorted(rows.values(), key=lambda r: (r["layer"], r["op"], r["case"]))


def write_spans(tracer: Tracer, path) -> None:
    """Dump every span as one CSV row: id, parent, layer, op, case, start,
    end, events, segments, run id."""
    with open(path, "w") as handle:
        handle.write("id,parent,layer,op,case,start,end,events,segments,run\n")
        for sid, (parent, op, case, start, end, events, segments) in enumerate(tracer.spans):
            layer, name = tracer.ops[op]
            handle.write(f"{sid},{parent},{layer},{name},{case},{start!r},{end!r},"
                         f"{events},{segments},{tracer.run_id}\n")
