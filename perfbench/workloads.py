"""The benchmark's three workloads: train, infer and reconstruct.

Each workload builds its inputs from the run seed in ``setup`` (scenes
rendered and written to disk, then read back the way the command line
reads them), runs one timed operation per ``run`` call, and checks that
operation's outputs in ``check``. It drives the system only through its
public entry points.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from mvstereo import autodiff as ad
from mvstereo import fileio
from mvstereo.cameras import backproject_pixels
from mvstereo.cli import main as cli_main
from mvstereo.metrics import GridIndex, depth_metrics, nearest_distances_bruteforce
from mvstereo.model import ModelConfig, StereoModel
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import Adam, LossConfig, train_step


def _scene_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write_scene(spec: SceneSpec, seed: int, directory: Path):
    scene = render_synthetic_scene(spec, seed=seed)
    fileio.save_scene(scene, directory)
    return scene


def _model_for(manifest: dict) -> StereoModel:
    """Untrained default model sweeping the scene's range, as the CLI builds it."""
    config = ModelConfig()
    cascade = replace(config.cascade, d_min=float(manifest["d_min"]),
                      d_max=float(manifest["d_max"]))
    return StereoModel(replace(config, cascade=cascade), seed=0)


class Workload:
    """Hooks shared by every workload."""

    # Whether a traced run follows allocations with tracemalloc. It costs
    # little next to numpy kernels but slows pure-Python loops several times.
    traces_memory = True

    def __init__(self):
        self.phase_samples: dict[str, list[float]] = {}

    def prepare(self, i: int) -> None:
        pass

    def phases(self, result) -> dict[str, float]:
        """Timed parts of one checked operation, by name."""
        return {}


class Train(Workload):
    """Repeated ``train_step`` on jittered 64x80, 3-view scenes, 16/8/4 cascade."""

    name = "train"
    unit = "step"
    labels = {"op_s": "train_step_s", "ops_per_s": "train_steps_per_s",
              "output_error": "train_loss_end"}
    n_scenes = 3
    # The output error is the mean loss over steps [6, 12): a fixed window,
    # so it does not depend on how many steps fit in the run.
    loss_window = (6, 12)
    min_ops = loss_window[1]

    def setup(self, seed: int, workdir: Path) -> None:
        spec = replace(SceneSpec(), jitter=0.12)
        self.scenes = []
        manifest = None
        for k, scene_seed in enumerate(_scene_seeds(seed, self.n_scenes)):
            directory = workdir / f"scene_{k:04d}"
            _write_scene(spec, scene_seed, directory)
            views, manifest = fileio.load_scene(directory)
            self.scenes.append(views)
        self.inputs = len(self.scenes)
        self.model = _model_for(manifest)
        self.params = list(self.model.parameters())
        self.optimizer = Adam(self.model.named_parameters(), lr=1e-3)
        self.loss_cfg = LossConfig()
        self.losses: list[float] = []

    def prepare(self, i: int) -> None:
        self.before = np.concatenate([p.data.ravel() for p in self.params])

    def run(self, i: int):
        return train_step(self.model, self.scenes[i % self.inputs], self.optimizer,
                          self.loss_cfg)

    def check(self, i: int, result) -> str | None:
        loss, per_stage = result
        self.losses.append(loss)
        if not np.isfinite([loss] + list(per_stage)).all():
            return f"non-finite loss {loss} (stages {per_stage})"
        after = np.concatenate([p.data.ravel() for p in self.params])
        if np.array_equal(self.before, after):
            return "parameters did not change"
        return None

    def output_error(self) -> float:
        lo, hi = self.loss_window
        return float(np.mean(self.losses[lo:hi]))


class Infer(Workload):
    """No-grad cascade inference for every reference view of two 5-view scenes."""

    name = "infer"
    unit = "view"
    labels = {"op_s": "infer_view_s", "ops_per_s": "infer_views_per_s",
              "output_error": "infer_epe"}
    n_scenes = 2
    # Field of view as the default 64x80 camera; the tighter baseline keeps
    # every view's depths inside the default sweep range.
    spec = SceneSpec(height=96, width=128, focal=112.0, n_views=5, baseline=0.3,
                     jitter=0.06)

    def setup(self, seed: int, workdir: Path) -> None:
        self.scenes = []
        manifest = None
        for k, scene_seed in enumerate(_scene_seeds(seed, self.n_scenes)):
            directory = workdir / f"scene_{k:04d}"
            _write_scene(self.spec, scene_seed, directory)
            views, manifest = fileio.load_scene(directory)
            self.scenes.append(views)
        self.model = _model_for(manifest)
        self.per_scene = self.spec.n_views
        self.inputs = self.n_scenes * self.per_scene
        self.min_ops = self.inputs
        self.out = workdir / "depths"
        self.epe: list[float] = []

    def _views(self, i: int):
        """(scene index, reference index, views) of input ``i``."""
        k, ref = divmod(i % self.inputs, self.per_scene)
        return k, ref, self.scenes[k]

    def run(self, i: int):
        # Mirrors ``mvstereo infer``: reference first, no tape, PFMs per stage.
        k, ref, views = self._views(i)
        ordered = [views[ref]] + [v for j, v in enumerate(views) if j != ref]
        with ad.no_grad():
            outputs = self.model(ordered)
        view_dir = self.out / f"scene_{k:04d}" / f"view_{ref:04d}"
        view_dir.mkdir(parents=True, exist_ok=True)
        for out in outputs:
            fileio.write_pfm(view_dir / f"depth_stage{out.stage}.pfm", out.estimate.depth)
            fileio.write_pfm(view_dir / f"conf_stage{out.stage}.pfm", out.estimate.confidence)
        return outputs

    def check(self, i: int, outputs) -> str | None:
        _, r, views = self._views(i)
        ref = views[r]
        cascade = self.model.config.cascade
        for out, scale in zip(outputs, (4, 2, 1)):
            depth, conf = out.estimate.depth, out.estimate.confidence
            shape = (ref.height // scale, ref.width // scale)
            if depth.shape != shape or conf.shape != shape:
                return f"stage {out.stage}: depth {depth.shape}, conf {conf.shape}, want {shape}"
            if not np.isfinite(depth).all():
                return f"stage {out.stage}: non-finite depth"
            if depth.min() < cascade.d_min or depth.max() > cascade.d_max:
                return (f"stage {out.stage}: depth [{depth.min():.4g}, {depth.max():.4g}] "
                        f"outside [{cascade.d_min}, {cascade.d_max}]")
            if not (conf.min() >= 0.0 and conf.max() <= 1.0):
                return f"stage {out.stage}: confidence outside [0, 1]"
        if len(self.epe) < self.inputs:
            epe, _, _ = depth_metrics(outputs[-1].estimate.depth, ref.depth, ref.depth > 0,
                                      cascade.d_min, cascade.d_max)
            self.epe.append(epe)
        return None

    def output_error(self) -> float:
        return float(np.mean(self.epe))


class Reconstruct(Workload):
    """``mvstereo fuse`` then ``mvstereo eval --mode cloud``, in process, per scene."""

    name = "reconstruct"
    unit = "scene"
    labels = {"op_s": "reconstruct_scene_s", "ops_per_s": "reconstruct_scenes_per_s",
              "output_error": "reconstruct_overall"}
    n_scenes = 4
    traces_memory = False     # no autodiff here, and the grid index is pure Python
    # Half the default resolution, same field of view: the cloud eval stays
    # dominated by the grid index while a run still holds enough scenes
    # for a tail percentile.
    spec = SceneSpec(height=32, width=40, focal=35.0, jitter=0.12)
    depth_noise = 0.003     # multiplicative Gaussian noise on ground-truth depth
    outlier_frac = 0.05     # pixels pushed 6-7% off, for the geometric filter to reject
    oracle_queries = 64

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.scenes = []
        for k, scene_seed in enumerate(_scene_seeds(seed, self.n_scenes)):
            scene_dir = workdir / f"scene_{k:04d}"
            depth_dir = workdir / f"depths_{k:04d}"
            scene = _write_scene(self.spec, scene_seed, scene_dir)
            for v, view in enumerate(scene.views):
                depth = view.depth * (1.0 + self.depth_noise * rng.standard_normal(view.depth.shape))
                outlier = rng.random(depth.shape) < self.outlier_frac
                depth[outlier] *= 1.0 + np.where(rng.random(depth.shape) < 0.5, 0.06, -0.07)[outlier]
                conf = rng.uniform(0.2, 1.0, size=depth.shape)
                view_dir = depth_dir / f"view_{v:04d}"
                view_dir.mkdir(parents=True, exist_ok=True)
                fileio.write_pfm(view_dir / "depth_stage3.pfm", depth)
                fileio.write_pfm(view_dir / "conf_stage3.pfm", conf)
            views, _ = fileio.load_scene(scene_dir)
            self.scenes.append((scene_dir, depth_dir, workdir / f"fused_{k:04d}",
                                self._reference_points(views)))
        self.inputs = len(self.scenes)
        self.min_ops = self.inputs
        self.accuracy_bound = 3.0 * self.depth_noise * self.spec.d_max
        self.oracle_rng = np.random.default_rng(seed + 1)
        self.overall: list[float] = []

    @staticmethod
    def _reference_points(views) -> np.ndarray:
        """Every valid pixel of every view, back-projected: the eval reference."""
        pts = []
        for view in views:
            h, w = view.depth.shape
            ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                                 np.arange(w, dtype=np.float64), indexing="ij")
            valid = view.depth > 0
            pts.append(backproject_pixels(view.intrinsics, view.extrinsics,
                                          np.stack([xs, ys], axis=-1)[valid],
                                          view.depth[valid]))
        return np.concatenate(pts)

    def run(self, i: int):
        scene_dir, depth_dir, fused_dir, _ = self.scenes[i % self.inputs]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            fuse_code = cli_main(["fuse", "--scene", str(scene_dir), "--depths", str(depth_dir),
                                  "--out", str(fused_dir)])
            t1 = time.perf_counter()
            eval_code = cli_main(["eval", "--mode", "cloud", "--scene", str(scene_dir),
                                  "--cloud", str(fused_dir / "cloud.ply"),
                                  "--out", str(fused_dir / "metrics.csv")])
            t2 = time.perf_counter()
        return {"codes": (fuse_code, eval_code), "fuse_s": t1 - t0, "eval_s": t2 - t1}

    def check(self, i: int, result) -> str | None:
        if result["codes"] != (0, 0):
            return f"fuse/eval exit codes {result['codes']}"
        _, _, fused_dir, reference = self.scenes[i % self.inputs]
        cloud = fileio.read_ply(fused_dir / "cloud.ply").points
        if len(cloud) == 0:
            return "fused cloud is empty"
        with open(fused_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[0]
        accuracy, overall = float(row["accuracy"]), float(row["overall"])
        if not 0.0 < accuracy < self.accuracy_bound:
            return f"accuracy {accuracy:.4g} outside (0, {self.accuracy_bound:.4g})"
        for queries, points in ((cloud, reference), (reference, cloud)):
            pick = self.oracle_rng.choice(len(queries), size=min(self.oracle_queries,
                                                                len(queries)), replace=False)
            q = queries[pick]
            if not (GridIndex(points).nearest_distances(q)
                    == nearest_distances_bruteforce(q, points)).all():
                return "grid index distances differ from brute force"
        if len(self.overall) < self.inputs:
            self.overall.append(overall)
        return None

    def output_error(self) -> float:
        return float(np.mean(self.overall))

    def phases(self, result) -> dict[str, float]:
        return {"fuse_scene_s": result["fuse_s"], "eval_cloud_s": result["eval_s"]}


WORKLOADS = {w.name: w for w in (Train, Infer, Reconstruct)}
