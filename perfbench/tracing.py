"""Per-layer tracing for the benchmark, applied from outside the program.

The tracer replaces public functions and methods of the ``mvstereo``
layers with timing wrappers for the length of a traced run, and restores
them afterwards. Spans nest: a layer's self time is its span's duration
minus the time covered by the spans it encloses, so the self times of one
operation sum to at most its wall time. Names a module imported by value
(``model.warp_source_features``, ``ops.make_op``) are wrapped where they are
looked up, not where they are defined.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

MB = 1024.0 * 1024.0

# Autodiff ops whose forward and backward are timed one by one. Each name is
# both the public function in ``mvstereo.autodiff`` and the op tag its node
# carries on the tape.
TRACED_OPS = ("conv3d", "conv2d", "grid_sample_2d", "upsample_bilinear_2x",
              "upsample_trilinear_2x", "matmul", "layer_norm", "softmax", "getitem")

# Every per-layer metric, in report order, with its unit. Times are self
# seconds per operation; counts are per operation.
LAYER_METRICS: dict[str, str] = {
    "autodiff.tape_nodes": "count",
    "autodiff.backward_s": "s",
    **{f"autodiff.op.{op}.{kind}": unit
       for op in TRACED_OPS
       for kind, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))},
    "autodiff.peak_mb": "MB",
    "autodiff.retained_mb": "MB",
    "gc.pause_s": "s",
    "gc.collected": "count",
    "features.fpn_s": "s",
    "features.deform_s": "s",
    "features.pathway_s": "s",
    "matcher.transformer_s": "s",
    "regularizer.reg1_s": "s",
    "regularizer.reg2_s": "s",
    "regularizer.reg3_s": "s",
    "regularizer.wta_s": "s",
    "cameras.hypotheses_s": "s",
    "costvolume.warp_s": "s",
    "costvolume.warp.calls": "count",
    "costvolume.correlation_s": "s",
    "costvolume.correlation.calls": "count",
    "costvolume.aggregate_s": "s",
    "costvolume.aggregate.calls": "count",
    "training.forward_s": "s",
    "training.loss_s": "s",
    "training.adam_s": "s",
    "fusion.geometric_check_s": "s",
    "fusion.dynamic_filter_s": "s",
    "fusion.fuse_points_s": "s",
    "fusion.kept_ratio": "ratio",
    "metrics.grid_build_s": "s",
    "metrics.nearest_s": "s",
    "metrics.queries": "count",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes": "B",
    "trace.op_s.p50": "s",
}

# Counts that depend only on the inputs, so two traced runs with one seed
# must report them identically.
EXACT_COUNTS = tuple(name for name in LAYER_METRICS
                     if name == "autodiff.tape_nodes" or name.endswith(".calls")
                     or name == "metrics.queries")


class Tracer:
    """Span and count recorder for one operation at a time.

    Wrappers record only while ``active`` is set, so set-up and output
    checks stay out of the per-operation figures.
    """

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.reset()

    def reset(self) -> None:
        """Start a fresh per-operation record."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.made: dict[str, int] = defaultdict(int)   # make_op calls by op tag
        self.kept = 0
        self.valid = 0

    # -- spans -----------------------------------------------------------------
    def run_span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owners, attr: str, name, count: str | None = None, after=None):
        """Time ``attr`` on every owner under one wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``count`` names a per-call counter; ``after(result, args)`` runs
        on the result while the tracer is active.
        """
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        orig = getattr(owners[0], attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if count is not None:
                tracer.counts[count] += 1
            span = name(args) if callable(name) else name
            result = tracer.run_span(span, orig, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        for owner in owners:
            self._set(owner, attr, wrapper)

    # -- garbage collector -------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            self.counts["gc.collected"] += info.get("collected", 0)

    # -- installation ------------------------------------------------------------
    def install(self, model=None) -> None:
        """Wrap every traced layer; ``model`` names its three regularizers."""
        import mvstereo.autodiff as ad
        from mvstereo import features, fileio, fusion, matcher, metrics, training
        from mvstereo import model as model_mod
        # ``mvstereo.autodiff.tensor`` is the ``tensor`` function, which
        # shadows the submodule of the same name, so reach it by import path.
        tensor_mod = importlib.import_module("mvstereo.autodiff.tensor")
        ops_mod = importlib.import_module("mvstereo.autodiff.ops")
        conv_mod = importlib.import_module("mvstereo.autodiff.conv")
        sampling_mod = importlib.import_module("mvstereo.autodiff.sampling")

        for op in TRACED_OPS:
            home = next(m for m in (ops_mod, conv_mod, sampling_mod) if hasattr(m, op))
            self.wrap([ad, home], op, f"autodiff.op.{op}.fwd_s",
                      count=f"autodiff.op.{op}.calls")

        # Every op builds its output through make_op, which its module
        # imported by value; counting there proves no call path skips the
        # op wrappers above.
        make_op = tensor_mod.make_op

        def counting_make_op(op, *args, **kwargs):
            if self.active:
                self.made[op] += 1
            return make_op(op, *args, **kwargs)

        for mod in (tensor_mod, ops_mod, conv_mod, sampling_mod):
            self._set(mod, "make_op", counting_make_op)

        self._set(ad.Tensor, "backward", self._traced_backward(ad.Tensor.backward,
                                                               tensor_mod.Tape))

        self.wrap(features.FeaturePyramidNet, "__call__", "features.fpn_s")
        self.wrap(features.DeformableConv2d, "__call__", "features.deform_s")
        self.wrap(features.PathwayMerge, "__call__", "features.pathway_s")
        self.wrap(matcher.MatchingTransformer, "__call__", "matcher.transformer_s")
        regs = {}
        if model is not None:
            regs = {id(model.reg1): "regularizer.reg1_s", id(model.reg2): "regularizer.reg2_s",
                    id(model.reg3): "regularizer.reg3_s"}
        self.wrap(model_mod.VolumeRegularizer, "__call__",
                  lambda args: regs.get(id(args[0]), "regularizer.other_s"))
        self.wrap(model_mod, "winner_take_all", "regularizer.wta_s")
        self.wrap(model_mod, "sample_hypotheses_initial", "cameras.hypotheses_s")
        self.wrap(model_mod, "refine_hypotheses", "cameras.hypotheses_s")
        self.wrap(model_mod, "warp_source_features", "costvolume.warp_s",
                  count="costvolume.warp.calls")
        self.wrap(model_mod, "pairwise_correlation", "costvolume.correlation_s",
                  count="costvolume.correlation.calls")
        self.wrap(model_mod, "aggregate_correlation", "costvolume.aggregate_s",
                  count="costvolume.aggregate.calls")
        self.wrap(model_mod.StereoModel, "__call__", "training.forward_s")
        self.wrap(training, "cascade_loss", "training.loss_s")
        self.wrap(training.Adam, "step", "training.adam_s")

        self.wrap(fusion, "geometric_check", "fusion.geometric_check_s")
        self.wrap(fusion, "dynamic_filter", "fusion.dynamic_filter_s")
        self.wrap(fusion, "fuse_point_cloud", "fusion.fuse_points_s",
                  after=self._count_kept)
        self.wrap(metrics.GridIndex, "__init__", "metrics.grid_build_s")
        self.wrap(metrics.GridIndex, "nearest_distances", "metrics.nearest_s",
                  after=self._count_queries)

        for reader in ("read_pfm", "read_ppm", "read_ply", "load_camera_file"):
            self.wrap(fileio, reader, "fileio.read_s", after=self._count_bytes)
        for writer in ("write_pfm", "write_ppm", "write_ply", "save_camera_file"):
            self.wrap(fileio, writer, "fileio.write_s", after=self._count_bytes)

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        self.active = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _traced_backward(self, backward, tape_cls):
        tracer = self

        def traced_backward(loss):
            if not tracer.active:
                return backward(loss)
            nodes = tape_cls.trace(loss).nodes
            tracer.counts["autodiff.tape_nodes"] += len(nodes)
            for node in nodes:
                if node.op in TRACED_OPS:
                    node.backward_fn = functools.partial(
                        tracer.run_span, f"autodiff.op.{node.op}.bwd_s", node.backward_fn)
            return tracer.run_span("autodiff.backward_s", backward, loss)

        return traced_backward

    def _count_kept(self, cloud, args) -> None:
        ref_depth, valid = args[1], args[3]
        self.kept += int(valid.sum())
        self.valid += int((ref_depth > 0).sum())

    def _count_queries(self, distances, args) -> None:
        self.counts["metrics.queries"] += len(distances)

    def _count_bytes(self, result, args) -> None:
        """Size of the file just read or written; its path is the first argument."""
        self.counts["fileio.bytes"] += os.path.getsize(args[0])

    # -- one operation -------------------------------------------------------------
    def begin(self) -> None:
        self.reset()
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self.active = True

    def end(self) -> None:
        self.active = False
        self._peak = tracemalloc.get_traced_memory()[1]

    def memory(self, baseline: int) -> tuple[float, float]:
        """(peak, retained) MB of the last operation over ``baseline`` bytes."""
        current = tracemalloc.get_traced_memory()[0]
        return (self._peak - baseline) / MB, (current - baseline) / MB

    def record(self) -> dict[str, float]:
        """The finished operation's per-layer figures (no memory or timing)."""
        out = dict(self.counts)
        out.update(self.self_s)
        out["fusion.kept_ratio"] = self.kept / self.valid if self.valid else 0.0
        return out

    def op_mismatches(self) -> list[str]:
        """Traced ops whose wrapper calls differ from their make_op calls."""
        return [f"{op}: {int(self.counts[f'autodiff.op.{op}.calls'])} wrapped vs "
                f"{self.made[op]} made"
                for op in TRACED_OPS
                if self.counts[f"autodiff.op.{op}.calls"] != self.made[op]]
