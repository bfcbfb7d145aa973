"""Span tracing for the benchmark's traced run.

Each traced layer is a library function.  `traced()` swaps every module-level
name bound to it, in the projmetrics modules and in scipy.spatial, for a
wrapper that records a span, and puts the originals back on exit.  The
library source is not touched.

A span records its layer's call count, self time (duration minus the time
its child spans cover), raised exceptions and layer-specific counts, plus
one call count per (parent layer, child layer) edge.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import util as mp_util


def _delta_counts(args, est):
    per = est.per_subspace or ()
    return {"samples": est.n_subspaces, "per_subspace_items": len(per),
            "zero_samples": sum(1 for _, f in per if f == 0.0)}


# (layer, module, attribute, extra counts from (args, result))
LAYERS = [
    ("numerics.uniform_block", "projmetrics.numerics", "uniform_block",
     lambda args, r: {"values": r.size}),
    ("numerics.gram_schmidt", "projmetrics.numerics", "gram_schmidt", None),
    ("grassmann.haar_sample", "projmetrics.grassmann", "haar_sample", None),
    ("grassmann.goodness", "projmetrics.grassmann", "goodness", None),
    ("bodies.hull_2d", "projmetrics.bodies", "hull_2d", None),
    ("bodies.polygon_area", "projmetrics.bodies", "polygon_area", None),
    ("bodies.polygon_clip", "projmetrics.bodies", "polygon_clip", None),
    ("bodies.ring_contains", "projmetrics.bodies", "ring_contains",
     lambda args, r: {"points": len(r)}),
    ("bodies.distance_to_hull", "projmetrics.bodies", "distance_to_hull", None),
    ("bodies.line_fiber", "projmetrics.bodies", "line_fiber", None),
    # metrics imports ConvexHull lazily, from scipy.spatial, on each call
    ("metrics.qhull", "scipy.spatial", "ConvexHull", None),
    ("metrics.delta_j", "projmetrics.metrics", "delta_j", _delta_counts),
    ("metrics.fiber_profile", "projmetrics.metrics", "fiber_profile", None),
    ("metrics.hausdorff", "projmetrics.metrics", "hausdorff", None),
    ("metrics.projected_volume", "projmetrics.metrics", "projected_volume", None),
    ("constructions.sequence", "projmetrics.constructions", "thm1_sequence", None),
    ("constructions.sequence", "projmetrics.constructions", "thm2_sequence", None),
    ("constructions.sequence", "projmetrics.constructions", "thm3_sequence", None),
    ("experiments.runner", "projmetrics.experiments.runners", "run_thm1", None),
    ("experiments.runner", "projmetrics.experiments.runners", "run_thm2", None),
    ("experiments.runner", "projmetrics.experiments.runners", "run_thm3", None),
    ("experiments.runner", "projmetrics.experiments.runners", "run_fibers", None),
    ("experiments.write_csv", "projmetrics.experiments.tables", "write_csv",
     lambda args, r: {"bytes": os.path.getsize(args[1])}),
    ("experiments.write_svg", "projmetrics.experiments.tables", "write_svg", None),
]


class Tracer:
    """In-memory span aggregates: stats[layer][key] and edges[(parent, child)]."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(lambda: defaultdict(float))
        self.edges = defaultdict(int)
        self.stack = []  # [layer, time covered by child spans] per open span

    def call(self, layer, fn, args, kwargs, count):
        parent = self.stack[-1] if self.stack else None
        frame = [layer, 0.0]
        self.stack.append(frame)
        stat = self.stats[layer]
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            stat["errors"] += 1
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self.stack.pop()
            stat["calls"] += 1
            stat["self_s"] += elapsed - frame[1]
            if parent is not None:
                parent[1] += elapsed
                self.edges[parent[0], layer] += 1
        if count is not None:
            for key, value in count(args, result).items():
                stat[key] += value
        return result

    def to_json(self) -> dict:
        return {"stats": {k: dict(v) for k, v in self.stats.items()},
                "edges": [[p, c, n] for (p, c), n in self.edges.items()]}

    def merge(self, data: dict) -> None:
        for layer, stat in data["stats"].items():
            for key, value in stat.items():
                self.stats[layer][key] += value
        for parent, child, n in data["edges"]:
            self.edges[parent, child] += n


def _wrap(tracer: Tracer, layer: str, fn, count):
    @functools.wraps(fn, updated=())
    def traced_call(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, count)
    return traced_call


def _worker_init(tracer: Tracer, dump_dir: str) -> None:
    # Runs in each forked pool worker, which inherited the parent's wrappers
    # and tracer.  Workers leave through os._exit, so atexit hooks never run;
    # multiprocessing runs its registered finalizers just before that.
    started = time.perf_counter()
    tracer.reset()
    mp_util.Finalize(None, _dump_worker, args=(tracer, dump_dir, started), exitpriority=10)


def _dump_worker(tracer: Tracer, dump_dir: str, started: float) -> None:
    data = tracer.to_json()
    data["started"] = started
    path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


class TracedPool(ProcessPoolExecutor):
    """The library's per-call ProcessPoolExecutor, counting its starts and
    merging the spans its workers recorded once they have been joined."""

    def __init__(self, tracer: Tracer, dump_dir: str, max_workers=None, **kwargs):
        self._tracer, self._dump_dir = tracer, dump_dir
        self._created = time.perf_counter()
        tracer.stats["metrics.pool"]["starts"] += 1
        super().__init__(max_workers, initializer=_worker_init,
                         initargs=(tracer, dump_dir), **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait, cancel_futures=cancel_futures)
        if not wait:
            return
        starts = []
        for name in sorted(os.listdir(self._dump_dir)):
            path = os.path.join(self._dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            self._tracer.merge(data)
            starts.append(data["started"])
        if starts:  # pool start: creation until the first worker is up
            self._tracer.stats["metrics.pool"]["start_s"] += min(starts) - self._created


@contextmanager
def traced(tracer: Tracer, dump_dir: str):
    """Route every traced layer, and the library's process pool, through tracer."""
    if multiprocessing.get_start_method() != "fork":
        # workers must inherit the wrappers; a fresh interpreter would not
        raise RuntimeError("tracing pool workers needs the fork start method")
    modules = [m for n, m in list(sys.modules.items())
               if n == "projmetrics" or n.startswith("projmetrics.")]
    modules.append(sys.modules["scipy.spatial"])
    swaps = []
    for layer, module, attr, count in LAYERS:
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(tracer, layer, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    swaps.append((mod, key, original))
                    setattr(mod, key, wrapper)
    metrics = sys.modules["projmetrics.metrics"]
    swaps.append((metrics, "ProcessPoolExecutor", metrics.ProcessPoolExecutor))
    metrics.ProcessPoolExecutor = functools.partial(TracedPool, tracer, dump_dir)
    try:
        yield tracer
    finally:
        for mod, key, original in reversed(swaps):
            setattr(mod, key, original)
