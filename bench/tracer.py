"""In-memory span tracer for the benchmark's traced run.

``Tracer.install()`` wraps every public module-level function of each
celltherm layer, in its defining module and in every module or module-level
dict that holds the same object (``from ... import`` bindings and the CLI's
``COMMANDS`` table), plus the methods and private helpers in ``EXTRA``.
``Tracer.uninstall()`` puts every original back.

A span records its name, start, end, parent span, thread, the CPU time of
its thread over the call, and a few attributes taken from the call. Open
spans are kept per thread. The thread that creates the tracer is the
command thread; a span that opens on another thread with none open there (a
CLI pool worker) is a worker span and takes as parent the innermost open
span of the command thread, which is the command that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "chebyshev", "particular", "galerkin", "simulate",
          "reference", "control", "profiles", "core")

# Traced besides the public functions: the per-step methods, the methods the
# per-layer metrics single out, and the private helpers whose spans give the
# quadrature-check share and the pool concurrency.
EXTRA = {
    "simulate": ("FieldEvaluator.__init__", "FieldEvaluator.metrics", "Stepper.step"),
    "reference": ("FdSolver.__init__", "FdSolver.step", "FdSolver.outputs",
                  "FdSolver.metrics"),
    "particular": ("ParticularComponents.component_grid",),
    "galerkin": ("_assemble_matrices",),
    "cli": ("_scenario_point", "_control_point", "_sweep_point"),
}


def _steps(result):
    return {"steps": len(result.times) - 1}


def _csv_size(args, kwargs):
    path = kwargs.get("path", args[0])
    with open(path, "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


# Attributes recorded per span, from (args, kwargs, result).
ATTRS = {
    "simulate.run": lambda a, kw, r: {**_steps(r), "order": r.states.shape[1]},
    "control.closed_loop_run": lambda a, kw, r: _steps(r),
    "reference.fd_solve": lambda a, kw, r: _steps(r),
    "reference.tec_run": lambda a, kw, r: {"steps": len(r[0]) - 1},
    "galerkin.assemble": lambda a, kw, r: {"order": r.order},
    "galerkin._assemble_matrices": lambda a, kw, r: {"quad_order": a[5]},
    "cli.write_csv": lambda a, kw, r: _csv_size(a, kw),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float = 0.0
    worker: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def busy(self) -> float:
        """Wall time on the command thread, where sibling spans never
        overlap and the time spent waiting for BLAS threads counts; CPU time
        of the thread on a pool worker, whose wall time also counts the time
        it waits for the interpreter lock."""
        return self.cpu if self.worker else self.duration


class Tracer:
    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records one span."""
        clock, cpu_clock = self.clock, self.cpu_clock
        spans, ids, root_stack = self.spans, self._ids, self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            worker = stack is not root_stack
            if stack:
                parent = stack[-1]
            else:
                parent = root_stack[-1] if root_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            cpu0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                end = clock()
                stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), cpu,
                        worker)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            spans.append(span)
            return result

        return traced

    def install(self):
        """Wrap the traced entry points of every layer of celltherm."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"celltherm.{layer}")
                   for layer in LAYERS}
        holders = [importlib.import_module("celltherm"), *modules.values()]
        try:
            for layer, mod in modules.items():
                public = [n for n, obj in vars(mod).items()
                          if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                          and not n.startswith("_")]
                for qualname in public + list(EXTRA.get(layer, ())):
                    self._install_one(layer, mod, qualname, holders)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, layer, mod, qualname, holders):
        owner, attr = mod, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
        original = vars(owner)[attr]
        name = f"{layer}.{qualname}"
        wrapped = self.wrap(name, original, ATTRS.get(name))
        self._set(owner, attr, wrapped)
        if owner is not mod:
            return
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original and holder is not mod:
                    self._set(holder, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set_item(value, dkey, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)


# ----------------------------------------------------------------- analysis
#
# Per-layer times are busy times (``Span.busy``): wall time for spans on the
# command thread, CPU time for spans on the CLI's pool workers.

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans):
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def self_times(spans) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its children on the same
    thread and minus the wall time that its children on other threads (pool
    workers) cover, during which the command thread waits for them."""
    children = _children(spans)
    self_time = {}
    for s in spans:
        own = [c for c in children[s.id] if c.thread == s.thread]
        pooled = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children[s.id] if c.thread != s.thread]
        self_time[s.id] = s.busy - sum(c.busy for c in own) - _covered(pooled)
    return self_time


def _under(span, by_id, names) -> bool:
    parent = span.parent
    while parent is not None:
        anc = by_id.get(parent)
        if anc is None:
            return False
        if anc.name in names:
            return True
        parent = anc.parent
    return False


# Spans whose FieldEvaluator.metrics results are discarded: validate keeps
# only the output error, and the timing harness only the elapsed time.
_DISCARDS_METRICS = {"cli.cmd_validate", "reference.timing_harness"}

POOL_POINTS = {"scenarios": "cli._scenario_point", "control": "cli._control_point",
               "sweep": "cli._sweep_point"}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced workload repetition.

    ``*.calls``, ``*.steps``, ``*.rows`` and ``*.bytes`` are counts; ``*_ms``
    are busy-time totals over the repetition; ``*_us`` are busy time per
    call or per step as named.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.busy for s in by_name[name])

    def self_busy(name):
        return sum(selfs[s.id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    metrics_spans = by_name["simulate.FieldEvaluator.metrics"]
    used = sum(not _under(s, by_id, _DISCARDS_METRICS) for s in metrics_spans)
    m["simulate.metrics.calls"] = len(metrics_spans)
    m["simulate.metrics_us"] = 1e6 * per(busy("simulate.FieldEvaluator.metrics"),
                                         len(metrics_spans))
    m["simulate.metrics_used_ratio"] = per(used, len(metrics_spans))
    m["simulate.evaluator_init_ms"] = 1e3 * busy("simulate.FieldEvaluator.__init__")

    fd_steps = calls("reference.FdSolver.step")
    m["reference.fd_build.calls"] = calls("reference.FdSolver.__init__")
    m["reference.fd_build_ms"] = 1e3 * busy("reference.FdSolver.__init__")
    m["reference.fd_step.calls"] = fd_steps
    m["reference.fd_step_us"] = 1e6 * per(busy("reference.FdSolver.step"), fd_steps)
    m["reference.fd_sample_us"] = 1e6 * per(
        busy("reference.FdSolver.outputs") + busy("reference.FdSolver.metrics"), fd_steps)

    m["galerkin.assemble.calls"] = calls("galerkin.assemble")
    m["galerkin.assemble_ms"] = 1e3 * busy("galerkin.assemble")
    m["galerkin.quad_check_share"] = quad_check_share(spans).get("all", 0.0)
    m["galerkin.project_initial_state_ms"] = 1e3 * busy("galerkin.project_initial_state")
    m["chebyshev.basis_matrix.calls"] = calls("chebyshev.basis_matrix")
    m["chebyshev.basis_matrix_ms"] = 1e3 * busy("chebyshev.basis_matrix")
    grid = "particular.ParticularComponents.component_grid"
    m["particular.component_grid.calls"] = calls(grid)
    m["particular.component_grid_ms"] = 1e3 * busy(grid)

    run_steps = attr_sum("simulate.run", "steps")
    m["simulate.discretize.calls"] = calls("simulate.discretize")
    m["simulate.discretize_ms"] = 1e3 * busy("simulate.discretize")
    m["simulate.run.steps"] = run_steps
    m["simulate.step_us"] = 1e6 * per(self_busy("simulate.run"), run_steps)
    m["simulate.stepper_step_us"] = 1e6 * per(busy("simulate.Stepper.step"),
                                              calls("simulate.Stepper.step"))

    m["reference.tec_step_us"] = 1e6 * per(busy("reference.tec_run"),
                                           attr_sum("reference.tec_run", "steps"))

    loop_steps = attr_sum("control.closed_loop_run", "steps")
    m["control.loop.steps"] = loop_steps
    m["control.loop_us"] = 1e6 * per(self_busy("control.closed_loop_run"), loop_steps)

    pools = pool_concurrency(spans)
    m["cli.pool_concurrency"] = pools.get("all", 0.0)
    for command in POOL_POINTS:
        m[f"cli.pool_concurrency.{command}"] = pools.get(command, 0.0)
    m["cli.write_csv.rows"] = attr_sum("cli.write_csv", "rows")
    m["cli.write_csv.bytes"] = attr_sum("cli.write_csv", "bytes")
    m["cli.write_csv_ms"] = 1e3 * busy("cli.write_csv")
    m["cli.load_config_ms"] = 1e3 * busy("cli.load_config")

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
    m["trace.spans"] = len(spans)
    return m


def quad_check_share(spans) -> dict[str, float]:
    """Share of ``assemble`` busy time spent in its order-doubling check
    (the second, higher-order ``_assemble_matrices`` call), overall ("all")
    and per model order ("O<order>")."""
    children = defaultdict(list)
    for s in spans:
        if s.name == "galerkin._assemble_matrices":
            children[s.parent].append(s)
    check, whole = defaultdict(float), defaultdict(float)
    for s in spans:
        if s.name != "galerkin.assemble" or not children[s.id]:
            continue
        doubled = max(children[s.id], key=lambda c: c.attrs["quad_order"])
        for key in ("all", f"O{s.attrs['order']}"):
            check[key] += doubled.busy
            whole[key] += s.busy
    return {key: check[key] / whole[key] for key in whole if whole[key] > 0}


def pool_concurrency(spans) -> dict[str, float]:
    """Summed busy time of the CLI pool workers over the wall time of each
    pool section, per command and over all of them ("all"). 1.0 is serial."""
    busy, wall = defaultdict(float), defaultdict(float)
    for command, name in POOL_POINTS.items():
        sections = defaultdict(list)
        for s in spans:
            if s.name == name:
                sections[s.parent].append(s)
        for points in sections.values():
            width = max(p.end for p in points) - min(p.start for p in points)
            for key in (command, "all"):
                busy[key] += sum(p.busy for p in points)
                wall[key] += width
    return {key: busy[key] / wall[key] for key in wall if wall[key] > 0}


def write_spans(spans, path):
    """Write spans as CSV: id, parent, thread, whether it ran on a pool
    worker, name, start and end (wall, from the first span), CPU time, busy
    time and busy self time."""
    selfs = self_times(spans)
    t0 = min((s.start for s in spans), default=0.0)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id,parent,thread,worker,name,start_s,end_s,cpu_s,busy_s,self_s\n")
        for s in sorted(spans, key=lambda s: s.start):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{parent},{s.thread},{int(s.worker)},{s.name},"
                     f"{s.start - t0:.9f},{s.end - t0:.9f},{s.cpu:.9f},"
                     f"{s.busy:.9f},{selfs[s.id]:.9f}\n")
