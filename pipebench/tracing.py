"""Layer spans around consensuslab's public functions, installed from outside.

Each wrapper is installed where its caller looks the function up (a module
global such as `signals.algebraic_connectivity`, or the `_kernels.rk4_run`
attribute that `dynamics` reads), and removed again afterwards, so untraced
calls run the unmodified program.  A lookup place that no longer exists is
skipped: its span then reports 0 calls, and the time shows up as self time
of the parent span.

Span names are `<module>.<function>`; the private module `_kernels` is
named `kernels` because metric names cannot start with `_`.
"""
import collections
import contextlib
import functools
import importlib
import time
import tracemalloc

# span name -> every place its function is looked up, relative to the package
SPANS = {
    "cli.parse_config": ("cli.parse_config",),
    "cli.cmd_verify": ("cli.cmd_verify",),
    "cli.cmd_certify": ("cli.cmd_certify",),
    "cli.cmd_simulate": ("cli.cmd_simulate",),
    "signals.certify_eta": ("signals.certify_eta",),
    "signals.certify_lambda2": ("signals.certify_lambda2",),
    "signals.window_average": ("signals.window_average",),
    "graphs.scrambling": ("signals.scrambling", "graphs.scrambling"),
    "graphs.algebraic_connectivity": ("signals.algebraic_connectivity",
                                      "graphs.algebraic_connectivity"),
    "graphs.is_balanced": ("cli.is_balanced", "signals.is_balanced",
                           "analysis.is_balanced", "graphs.is_balanced"),
    "kernels.jacobi_min_eigenvalue": ("_kernels.jacobi_min_eigenvalue",),
    "dynamics.integrate": ("dynamics.integrate",),
    "kernels.rk4_run": ("_kernels.rk4_run",),
    "dynamics.Trajectory.diameters": ("dynamics.Trajectory.diameters",),
    "dynamics.Trajectory.to_csv": ("dynamics.Trajectory.to_csv",),
    "analysis.diameter": ("analysis.diameter",),
    "analysis.window_contraction": ("analysis.window_contraction",),
    "analysis.fit_exponential": ("analysis.fit_exponential",),
}

# span name -> (counter, value taken from the call's arguments and result);
# a value that cannot be read because the signature changed is not counted
COUNTERS = {
    "kernels.rk4_run": ("dynamics.steps", lambda args, result: len(args[3])),
    "dynamics.integrate": ("dynamics.samples", lambda args, result: len(result.times)),
    "signals.certify_eta": ("signals.checked_starts",
                            lambda args, result: result.checked_starts),
    "signals.certify_lambda2": ("signals.checked_starts",
                                lambda args, result: result.checked_starts),
}

ALLOC_SPANS = ("dynamics.integrate", "dynamics.Trajectory.diameters")


def _resolve(place):
    """(owner, attribute) for `module.attr` or `module.Class.attr`, or None."""
    module, *path = place.split(".")
    try:
        owner = importlib.import_module(f"consensuslab.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return (owner, path[-1]) if path[-1] in vars(owner) else None


def _rewrap(original, wrap):
    """Wrap a function, or the getter of a cached property."""
    if isinstance(original, functools.cached_property):
        return functools.cached_property(wrap(original.func))
    return wrap(original)


@contextlib.contextmanager
def installed(wrapper_for):
    """Install `wrapper_for(span)` (a decorator, or None to skip) at every
    lookup place of every span; restore the originals on exit."""
    saved = []
    try:
        for span, places in SPANS.items():
            wrap = wrapper_for(span)
            if wrap is None:
                continue
            for place in places:
                target = _resolve(place)
                if target is None:
                    continue
                owner, attr = target
                original = vars(owner)[attr]
                replacement = _rewrap(original, wrap)
                if isinstance(replacement, functools.cached_property):
                    replacement.__set_name__(owner, attr)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans: [name, start, end, parent index, workload, call id]."""

    def __init__(self, workload):
        self.workload = workload
        self.call_id = 0
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)
        self._stack = []

    def wrapper_for(self, span):
        counter = COUNTERS.get(span)

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                record = [span, 0.0, 0.0, parent, self.workload, self.call_id]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
                if counter is not None:
                    name, value = counter
                    with contextlib.suppress(IndexError, TypeError, AttributeError):
                        self.counts[self.call_id][name] += value(args, result)
                return result
            return traced
        return wrap

    def layer_totals(self, call_id):
        """span -> (calls, inclusive seconds, self seconds) for one call."""
        child_s = collections.Counter()
        for rec in self.spans:
            if rec[5] == call_id and rec[3] >= 0:
                child_s[rec[3]] += rec[2] - rec[1]
        totals = {span: [0, 0.0, 0.0] for span in SPANS}
        for index, (span, start, end, _, _, cid) in enumerate(self.spans):
            if cid == call_id:
                total = totals[span]
                total[0] += 1
                total[1] += end - start
                total[2] += end - start - child_s[index]
        return totals

    def to_json(self):
        keys = ("name", "start", "end", "parent", "workload", "call_id")
        return [dict(zip(keys, rec)) for rec in self.spans]


class AllocPeaks:
    """tracemalloc peak of the first call of each allocation span.

    Runs in its own pass, never together with the timed spans.  tracemalloc
    is on only inside that first call, because tracing every allocation of
    a whole pipeline call slows it down several times over."""

    def __init__(self):
        self.peak_mb = dict.fromkeys(ALLOC_SPANS, 0.0)
        self._probed = set()

    def wrapper_for(self, span):
        if span not in ALLOC_SPANS:
            return None

        def wrap(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                if span in self._probed or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                self._probed.add(span)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_mb[span] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            return probed
        return wrap
