"""Command-line entry point.

Subcommands: synth, train, infer, fuse, eval, bench-attention, gradcheck,
print-config. Exit codes: 0 success, 1 runtime failure, 2 configuration
or argument error. Log verbosity comes from the MVSTEREO_LOG environment
variable (debug/info/warning; default warning).

Heavyweight imports happen inside the command handlers so that --threads
can pin the BLAS thread pools before numpy is loaded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import os
import sys
from pathlib import Path

__all__ = ["main"]


class UsageError(Exception):
    """A command-line argument out of range; ``main`` prints it and exits 2."""


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise UsageError(problem)


def _apply_threads_flag(argv: list[str]) -> None:
    """Pin the BLAS pools to ``--threads N``; a value that is not a positive
    integer raises UsageError before anything is pinned."""
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    try:
        count = int(threads)
    except ValueError:
        count = 0
    _require(count >= 1, f"--threads {threads} must be a positive integer")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)


def _configure_logging() -> None:
    level = os.environ.get("MVSTEREO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path):
    from .config import load_config
    return load_config(path)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- commands -------------------------------------------------------------------

def cmd_synth(args) -> int:
    from dataclasses import replace
    from .fileio import save_scene
    from .scene import render_synthetic_scene

    _require(args.scenes >= 1, f"--scenes {args.scenes} must be at least 1")
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    count = args.scenes
    for i in range(count):
        spec = cfg.scene if count == 1 else replace(cfg.scene, jitter=max(cfg.scene.jitter, 0.12))
        scene = render_synthetic_scene(spec, seed=args.seed + i)
        save_scene(scene, out / f"scene_{i:04d}",
                   hypothesis_count=cfg.model.cascade.counts[0])
        # Audit: rendered depths must reproject onto each other. The bound
        # allows for bilinear interpolation of the (curved) depth field when
        # the round trip reads the source map at continuous coordinates.
        from .fusion import geometric_check
        ref = scene.views[0]
        for src in scene.views[1:]:
            rec = geometric_check(ref.depth, src.depth, ref, src)
            worst = rec.pixel_error[rec.covisible].max() if rec.covisible.any() else 0.0
            if worst > 1e-2:
                raise RuntimeError(f"scene {i}: warp-consistency audit failed ({worst:.2g} px)")
    print(f"wrote {count} scene(s) under {out}")
    return 0


def _load_scene_dirs(root: Path, one_range: bool):
    """The views of each ``scene_*`` directory under ``root`` (or of
    ``root`` itself) and the first scene's manifest. With ``one_range``
    every manifest must carry the first one's depth range, which the one
    model sweeps for all of them."""
    from .autodiff import ContractError
    from .fileio import load_scene
    dirs = sorted(p for p in root.glob("scene_*") if p.is_dir())
    if not dirs:
        dirs = [root]
    loaded = [load_scene(d) for d in dirs]
    ranges = [[float(m["d_min"]), float(m["d_max"])] for _, m in loaded]
    for d, r in zip(dirs, ranges):
        if one_range and r != ranges[0]:
            raise ContractError(
                f"{d / 'manifest.txt'}: depth range {r} does not match "
                f"{dirs[0] / 'manifest.txt'}'s {ranges[0]}; pin [cascade] d_min and "
                f"d_max to train over both")
    return [views for views, _ in loaded], loaded[0][1]


def _adopt_scene_range(cfg, manifest):
    """Sweep the scene's own depth range unless the config pinned one."""
    if cfg.cascade_range_explicit:
        return cfg.model
    from dataclasses import replace
    cascade = replace(cfg.model.cascade, d_min=float(manifest["d_min"]),
                      d_max=float(manifest["d_max"]))
    return replace(cfg.model, cascade=cascade)


def cmd_train(args) -> int:
    import numpy as np
    from . import autodiff as ad
    from .model import StereoModel
    from .scene import SyntheticScene
    from .training import Adam, fit, save_checkpoint

    cfg = _load_config(args.config)
    ad.set_default_dtype(np.float32)
    scene_views, manifest = _load_scene_dirs(Path(args.scenes),
                                             one_range=not cfg.cascade_range_explicit)
    scenes = [SyntheticScene(spec=cfg.scene, seed=args.seed, views=v, surface={})
              for v in scene_views]
    model = StereoModel(_adopt_scene_range(cfg, manifest), seed=args.seed)
    optimizer = Adam(model.named_parameters(), lr=cfg.train.learning_rate,
                     decay_factor=cfg.train.decay_factor,
                     decay_steps=cfg.train.decay_steps)
    rows: list = []
    fit(model, scenes, cfg.train.steps, optimizer, cfg.loss, log_rows=rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.bin", model, optimizer)
    _write_csv(out / "loss_log.csv",
               ["step", "total"] + [f"stage{i + 1}" for i in range(3)] + ["lr"], rows)
    print(f"trained {cfg.train.steps} steps; final loss {rows[-1][1]:.5f}; "
          f"checkpoint at {out / 'checkpoint.bin'}")
    return 0


def _run_inference(model, views, out_dir: Path, ref: int) -> None:
    from . import autodiff as ad
    from .fileio import write_pfm
    ordered = [views[ref]] + [v for i, v in enumerate(views) if i != ref]
    with ad.no_grad():
        outputs = model(ordered)
    view_dir = out_dir / f"view_{ref:04d}"
    view_dir.mkdir(parents=True, exist_ok=True)
    for out in outputs:
        write_pfm(view_dir / f"depth_stage{out.stage}.pfm", out.estimate.depth)
        write_pfm(view_dir / f"conf_stage{out.stage}.pfm", out.estimate.confidence)


def cmd_infer(args) -> int:
    import numpy as np
    from . import autodiff as ad
    from .fileio import load_scene
    from .model import StereoModel
    from .training import load_checkpoint, restore

    cfg = _load_config(args.config)
    ad.set_default_dtype(np.float32)
    views, manifest = load_scene(Path(args.scene))
    _require(args.ref is None or 0 <= args.ref < len(views),
             f"--ref {args.ref} is not a view of this scene; valid: 0..{len(views) - 1}")
    model = StereoModel(_adopt_scene_range(cfg, manifest), seed=args.seed)
    if args.checkpoint:
        restore(model, load_checkpoint(args.checkpoint))
    out = Path(args.out)
    refs = range(len(views)) if args.ref is None else [args.ref]
    for ref in refs:
        _run_inference(model, views, out, ref)
    print(f"wrote depth/confidence maps for {len(list(refs))} view(s) under {out}")
    return 0


def _read_prediction(root: Path, view: int, kind: str):
    """One view's final-stage ``depth`` or ``conf`` map under ``root``, as
    float64; a map holding a non-finite pixel is rejected by name."""
    import numpy as np
    from .autodiff import ContractError
    from .fileio import read_pfm
    path = root / f"view_{view:04d}" / f"{kind}_stage3.pfm"
    if not path.is_file():
        raise ContractError(f"{path}: no such map; `mvstereo infer` writes it")
    values = read_pfm(path).astype(np.float64)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ContractError(f"{path}: {bad} non-finite pixel(s) of {values.size}")
    return values


def cmd_fuse(args) -> int:
    import numpy as np
    from .fileio import load_scene, write_ply, write_ppm
    from .fusion import dynamic_filter, fuse_point_cloud, geometric_check

    cfg = _load_config(args.config)
    views, _ = load_scene(Path(args.scene))
    depth_root = Path(args.depths)
    depths = [_read_prediction(depth_root, i, "depth") for i in range(len(views))]
    confs = [_read_prediction(depth_root, i, "conf") for i in range(len(views))]
    thresholds = cfg.fusion
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_points = []
    all_colors = []
    for ref in range(len(views)):
        records = [geometric_check(depths[ref], depths[src], views[ref], views[src])
                   for src in range(len(views)) if src != ref]
        valid, support = dynamic_filter(records, confs[ref], thresholds)
        cloud = fuse_point_cloud(views[ref], depths[ref], records, valid, support)
        all_points.append(cloud.points)
        all_colors.append(cloud.colors)
        write_ppm(out / f"mask_{ref:04d}.ppm",
                  np.repeat(valid[None].astype(np.float64), 3, axis=0))
    from .fusion import PointCloud
    merged = PointCloud(points=np.concatenate(all_points),
                        colors=np.concatenate(all_colors))
    write_ply(out / "cloud.ply", merged)
    print(f"fused {len(merged)} points into {out / 'cloud.ply'}")
    return 0


def _reference_cloud(views):
    import numpy as np
    from .cameras import backproject_pixels, pixel_grid
    from .fusion import PointCloud
    pts = []
    for view in views:
        valid = view.depth > 0
        xy = pixel_grid(*view.depth.shape)[valid]
        pts.append(backproject_pixels(view.intrinsics, view.extrinsics, xy, view.depth[valid]))
    return PointCloud(points=np.concatenate(pts))


def cmd_eval(args) -> int:
    import numpy as np
    from .autodiff import ContractError
    from .fileio import load_scene, read_ply
    from .metrics import cloud_metrics, depth_metrics

    needed = "pred" if args.mode == "depth" else "cloud"
    _require(getattr(args, needed) is not None, f"--mode {args.mode} needs --{needed}")
    _require(args.clamp is None or 0 < args.clamp < np.inf,
             f"--clamp {args.clamp} must be finite and above 0")
    views, manifest = load_scene(Path(args.scene))
    d_min, d_max = float(manifest["d_min"]), float(manifest["d_max"])
    out_rows = []
    if args.mode == "depth":
        pred_root = Path(args.pred)
        epes = []
        for i, view in enumerate(views):
            pred = _read_prediction(pred_root, i, "depth")
            epe, e1, e3 = depth_metrics(pred, view.depth, view.depth > 0, d_min, d_max)
            out_rows.append([f"view_{i:04d}", f"{epe:.6f}", f"{e1:.3f}", f"{e3:.3f}"])
            epes.append((epe, e1, e3))
            print(f"view {i}: EPE {epe:.4f}  e1 {e1:.2f}%  e3 {e3:.2f}%")
        mean = np.mean(np.array(epes), axis=0)
        out_rows.append(["mean", f"{mean[0]:.6f}", f"{mean[1]:.3f}", f"{mean[2]:.3f}"])
        header = ["view", "epe", "e1", "e3"]
        print(f"mean: EPE {mean[0]:.4f}  e1 {mean[1]:.2f}%  e3 {mean[2]:.2f}%")
    else:
        cloud = read_ply(Path(args.cloud))
        if len(cloud.points) == 0:
            raise ContractError(f"{args.cloud}: the cloud has no vertices to evaluate")
        reference = _reference_cloud(views)
        clamp = args.clamp if args.clamp is not None else 20 * (d_max - d_min) / 128.0
        acc, comp, overall = cloud_metrics(cloud, reference, clamp=clamp)
        out_rows.append([f"{acc:.6f}", f"{comp:.6f}", f"{overall:.6f}"])
        header = ["accuracy", "completeness", "overall"]
        print(f"Accuracy {acc:.5f}  Completeness {comp:.5f}  Overall {overall:.5f}")
    if args.out:
        _write_csv(args.out, header, out_rows)
    return 0


def cmd_bench_attention(args) -> int:
    from .bench import run_attention_benchmark

    try:
        lengths = tuple(int(x) for x in args.lengths.split(","))
    except ValueError:
        lengths = ()
    _require(len(set(lengths)) >= 2 and min(lengths) >= 1,
             f"--lengths {args.lengths} must list at least two distinct positive integers")
    _require(args.trials >= 1, f"--trials {args.trials} must be at least 1")
    _require(args.channels >= 1, f"--channels {args.channels} must be at least 1")
    _require(args.heads >= 1 and args.channels % args.heads == 0,
             f"--heads {args.heads} must be at least 1 and divide --channels {args.channels}")
    result = run_attention_benchmark(lengths=lengths, channels=args.channels,
                                     n_heads=args.heads, trials=args.trials,
                                     seed=args.seed)
    rows = [[kind, length, f"{seconds:.6f}"] for kind, length, seconds in result["rows"]]
    rows.append(["linear_slope", "", f"{result['linear_slope']:.4f}"])
    rows.append(["softmax_slope", "", f"{result['softmax_slope']:.4f}"])
    if args.out:
        _write_csv(args.out, ["kind", "length", "seconds"], rows)
    print(f"linear slope {result['linear_slope']:.3f}  "
          f"softmax slope {result['softmax_slope']:.3f}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradsuite import GRAD_CHECKS, run_suite

    _require(args.scope == "all" or args.scope in GRAD_CHECKS,
             f"unknown --scope {args.scope!r}; valid: all, {', '.join(GRAD_CHECKS)}")
    _require(args.instances >= 1, f"--instances {args.instances} must be at least 1")
    names = list(GRAD_CHECKS) if args.scope == "all" else [args.scope]
    ok = run_suite(names, instances=args.instances, base_seed=args.seed)
    return 0 if ok else 1


def cmd_print_config(args) -> int:
    from .config import config_text
    sys.stdout.write(config_text(_load_config(args.config)))
    return 0


# -- parser -----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="mvstereo",
        description="Desk-scale multi-view stereo: synthesize scenes, train, "
                    "infer depth, fuse point clouds, and evaluate.")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS thread count (default: all cores)")

    p = sub.add_parser("synth", help="render synthetic scenes to a directory")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=1, help="number of scenes")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on rendered scenes")
    common(p)
    p.add_argument("--scenes", required=True, help="directory of scene_* subdirs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict depth maps for a scene")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--ref", type=int, default=None,
                   help="reference view id (default: all views)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("fuse", help="filter and fuse depth maps into a cloud")
    common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--depths", required=True, help="directory written by infer")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="evaluate depth maps or a fused cloud")
    common(p)
    p.add_argument("--mode", choices=("depth", "cloud"), default="depth")
    p.add_argument("--scene", required=True)
    p.add_argument("--pred", default=None, help="depth-map directory (mode=depth)")
    p.add_argument("--cloud", default=None, help="PLY path (mode=cloud)")
    p.add_argument("--clamp", type=float, default=None)
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-attention", help="linear vs softmax attention scaling")
    common(p)
    p.add_argument("--lengths", default="256,1024,4096,16384")
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_attention)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
    p.add_argument("--scope", default="all")
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("print-config",
                       help="print every config key: the defaults, or --config's values")
    common(p)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _apply_threads_flag(argv)
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - map everything to exit codes
        from .config import ConfigError
        if isinstance(exc, ConfigError):
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        if os.environ.get("MVSTEREO_LOG", "").lower() == "debug":
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
