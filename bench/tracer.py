"""Layer spans recorded from outside the stmmmf package.

`install` wraps the public functions of each package module (plus the
grid-cell worker entry point and the rating-matrix constructor) and
rebinds every module-level reference to them, so calls made through
`from .x import y` names are timed too.  The package files are never
edited.  Each wrapper keeps, per span name, the call count, the busy
(inclusive) time and the self time, which is the busy time minus the part
covered by child spans.  Observers read counts off the arguments and
return values of selected calls.

Grid cells run in forked worker processes.  The tracer resets itself in
each child after the fork, and every worker writes its cumulative totals
to a JSON file in the trace directory after each cell; `merge_workers`
folds those files back into the parent's totals when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "trainer", "selftrain", "evaluation", "ingest", "baseline", "cli")
# Private functions that are still layer boundaries worth a span.
EXTRA = {"cli._grid_cell": "cli.grid.cell"}
# Span names whose individual durations are kept (for medians).
KEEP_DURATIONS = {"cli.grid.cell"}


def _file_size(target) -> int:
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return os.path.getsize(target)
    return 0


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.in_worker = False
        self.recording = True
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(float)
        self.series = defaultdict(list)
        self._stack = []

    def _after_fork(self):
        self._reset()
        self.in_worker = True

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer.calls[name] += 1
                tracer.busy[name] += elapsed
                tracer.self_time[name] += elapsed - child
                if name in KEEP_DURATIONS:
                    tracer.durations[name].append(elapsed)
            if observe is not None:
                observe(tracer, args, return_value)
            return return_value

        return traced

    def stop(self):
        """Stop recording; wrapped calls run untimed from here on."""
        self.recording = False

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls), "busy": dict(self.busy),
            "self_time": dict(self.self_time), "durations": dict(self.durations),
            "counts": dict(self.counts), "series": dict(self.series),
        }

    def dump_worker(self):
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict()))
        os.replace(tmp, path)

    def merge_workers(self):
        """Fold the totals shipped by forked workers into this tracer."""
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for key in ("calls", "busy", "self_time", "counts"):
                target = getattr(self, key)
                for name, value in data[key].items():
                    target[name] += value
            for key in ("durations", "series"):
                target = getattr(self, key)
                for name, values in data[key].items():
                    target[name].extend(values)
            path.unlink()


def span_cost(repeats: int = 20000) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op function."""
    def noop():
        return None

    traced = Tracer(Path(".")).wrap("noop", noop)
    start = perf_counter()
    for _ in range(repeats):
        traced()
    wrapped = perf_counter() - start
    start = perf_counter()
    for _ in range(repeats):
        noop()
    return max(wrapped - (perf_counter() - start), 0.0) / repeats


# ----------------------------------------------------------------- observers

def _observe_train(tracer, args, result):
    _, trace = result
    tracer.counts["trainer.accepted_steps"] += trace.iterations
    tracer.counts["trainer.converged"] += int(trace.converged)
    tracer.series["trainer.final_objective"].append(float(trace.objectives[-1]))


def _observe_hinge(tracer, args, result):
    y = args[1]
    tracer.counts["trainer.hinge_terms"] += y.n_observed * (y.max_rating - 1)


def _observe_candidates(tracer, args, result):
    tracer.series["selftrain.observed"].append(args[1].n_observed)
    tracer.series["selftrain.candidates"].append(len(result))


def _observe_refine(tracer, args, result):
    tracer.series["selftrain.refined"].append(int(result[0].size))


def _observe_sample(tracer, args, result):
    tracer.series["selftrain.augmented"].append(len(result))


def _observe_read(tracer, args, result):
    tracer.counts["ingest.bytes"] += _file_size(args[0])


def _observe_write(tracer, args, result):
    tracer.counts["ingest.bytes"] += _file_size(args[1])


def _observe_baseline(tracer, args, result):
    y, cfg = args
    tracer.counts["baseline.rating_epochs"] += y.n_observed * cfg.epochs


def _observe_cell(tracer, args, result):
    sizes = tracer.series["cli.grid.payload_bytes"]
    if not sizes:  # once per process: every cell ships the same matrix
        sizes.append(len(pickle.dumps(args[0], protocol=pickle.HIGHEST_PROTOCOL)))
    if tracer.in_worker:
        tracer.dump_worker()


OBSERVERS = {
    "trainer.train": _observe_train,
    "trainer.objective": _observe_hinge,
    "trainer.compute_gradients": _observe_hinge,
    "selftrain.high_confidence_candidates": _observe_candidates,
    "selftrain.low_confidence_observed": _observe_refine,
    "selftrain.sample_augment": _observe_sample,
    "ingest.parse_ml100k": _observe_read,
    "ingest.load_matrix": _observe_read,
    "ingest.save_matrix": _observe_write,
    "baseline.train_baseline": _observe_baseline,
    "cli.grid.cell": _observe_cell,
}


def install(tracer: Tracer):
    """Wrap the layer functions of the imported stmmmf package in spans."""
    package = importlib.import_module("stmmmf")
    modules = [importlib.import_module(f"stmmmf.{layer}") for layer in LAYERS]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = EXTRA.get(f"{layer}.{attr}")
            if name is None and attr.startswith("_"):
                continue
            name = name or f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    matrix_cls = modules[0].SparseRatingMatrix
    matrix_cls.__init__ = tracer.wrap("core.SparseRatingMatrix.init", matrix_cls.__init__)
    os.register_at_fork(after_in_child=tracer._after_fork)
