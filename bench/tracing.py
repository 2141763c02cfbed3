"""In-memory spans around the simulator's layer entry points.

``Tracer.install`` replaces each entry point with a wrapper that records
a span (name, start, end, parent span, op id, size) while an op is
running; outside an op, for example during a correctness check, the
wrapper calls straight through. ``cell.pulse_shift`` runs once per cell
per pulse (over a thousand times a pulse on a 32x34 array), so it is
counted and timed as a leaf instead: its time is charged to the span
that called it, and no span is kept per call.

Self time is a span's duration minus the time its child spans and
leaves cover. The benchmark is single-threaded and has no queues, so
no span waits.
"""

from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.sizes = []
        self.leaf_ns = []
        self.leaves = {}  # name -> [calls, ns]
        self._stack = []
        self._op = -1
        self._undo = []

    # ---------------------------------------------------------- recording

    def begin_op(self, op_id):
        self._op = op_id

    def end_op(self):
        self._op = -1

    def span(self, fn, name, size=None):
        """Wrap ``fn``; ``size(args, kwargs, result)`` gives the span's size."""

        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self._op)
            self.sizes.append(0)
            self.leaf_ns.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter_ns()
                self._stack.pop()
            if size is not None:
                self.sizes[idx] = size(args, kwargs, result)
            return result

        return traced

    def leaf(self, fn, name):
        stat = self.leaves.setdefault(name, [0, 0])

        def counted(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stat[0] += 1
                stat[1] += dt
                if self._stack:
                    self.leaf_ns[self._stack[-1]] += dt

        return counted

    def patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self, fv):
        """Wrap the layer entry points of an imported ``flashvmm``."""
        arr, tuning, vmm = fv.array, fv.tuning, fv.vmm
        A = arr.ArrayState

        def sites(args, kwargs, result):
            return args[0].rows * args[0].cols

        def read_samples(args, kwargs, result):
            return kwargs.get("samples", 1) if kwargs.get("noisy", False) else 0

        def converged(args, kwargs, result):
            return int(result.converged)

        def normals(args, kwargs, result):
            if not kwargs.get("noisy", False):
                return 0
            array = args[0]
            return kwargs.get("samples", 1) * array.rows * len(array.array_cols)

        self.patch(A, "pulse_cell", self.span(A.pulse_cell, "array.pulse_cell", sites))
        self.patch(A, "read_cell", self.span(A.read_cell, "array.read_cell", read_samples))
        self.patch(arr, "pulse_shift", self.leaf(arr.pulse_shift, "cell.pulse_shift"))
        self.patch(tuning, "tune_cell", self.span(tuning.tune_cell, "tuning.tune_cell", converged))
        self.patch(tuning, "tune_array", self.span(tuning.tune_array, "tuning.tune_array"))
        self.patch(vmm, "multiply", self.span(vmm.multiply, "vmm.multiply", normals))
        for name in ("optimize_bias_weight", "plan_differential", "differential_multiply"):
            self.patch(vmm, name, self.span(getattr(vmm, name), f"vmm.{name}"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_ns(self):
        return self_times(self.starts, self.ends, self.parents, self.leaf_ns)

    def totals(self):
        """Per span name: calls, inclusive ns, self ns and summed size."""
        own = self.self_ns()
        out = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "size": 0})
            t["calls"] += 1
            t["ns"] += self.ends[i] - self.starts[i]
            t["self_ns"] += own[i]
            t["size"] += self.sizes[i]
        return out

    def write(self, path):
        """Spans as CSV, then one ``#leaf`` line per leaf counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,size,leaf_ns\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]},"
                    f"{self.ops[i]},{self.sizes[i]},{self.leaf_ns[i]}\n"
                )
            for name, (calls, ns) in self.leaves.items():
                fh.write(f"#leaf,{name},calls={calls},ns={ns}\n")


def self_times(starts, ends, parents, leaf_ns=None):
    """Duration of each span minus what its direct children and leaves cover."""
    own = [e - s for s, e in zip(starts, ends)]
    if leaf_ns is not None:
        own = [o - lf for o, lf in zip(own, leaf_ns)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own
