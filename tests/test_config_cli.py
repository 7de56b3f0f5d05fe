"""Configuration parsing and command-line behavior."""

import configparser
import subprocess
import sys

import numpy as np
import pytest

from mvstereo.config import (
    ConfigError,
    TrainSettings,
    config_text,
    default_config_text,
    load_config,
)


def run_cli(*args, timeout=240):
    return subprocess.run([sys.executable, "-m", "mvstereo.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


# A non-default value for every key of every section.
EVERY_KEY = {
    "scene": {"kind": "sphere", "height": 32, "width": 40, "n_views": 4, "focal": 50.0,
              "baseline": 0.5, "d_min": 1.0, "d_max": 4.0, "plane_depth": 2.5,
              "plane_tilt": (0.1, 0.2), "sphere_depth": 2.0, "sphere_radius": 0.5,
              "checker_size": 0.3, "noise_freq": 7.0, "light": (0.1, 0.2, -0.9),
              "ambient": 0.4, "jitter": 0.1, "parallel_rig": True, "supersample": 3},
    "model": {"n_blocks": 2, "n_heads": 4, "attention_normalized": False,
              "use_pathway": False},
    "cascade": {"counts": (12, 6, 2), "decays": (0.9, 0.3, 0.4), "d_min": 1.1, "d_max": 3.9},
    "loss": {"gamma": 2.0, "stage_weights": (0.5, 1.0, 2.0)},
    "train": {"steps": 10, "learning_rate": 0.01, "decay_factor": 0.1,
              "decay_steps": (3, 6, 9)},
    "fusion": {"confidence": 0.5, "pixel": 2.0, "relative": 0.02},
}


def _sections(cfg):
    return {"scene": cfg.scene, "model": cfg.model, "cascade": cfg.model.cascade,
            "loss": cfg.loss, "train": cfg.train, "fusion": cfg.fusion}


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg.model.cascade.counts == (16, 8, 4)
        assert cfg.model.n_blocks == 4
        assert cfg.model.n_heads == 8
        assert cfg.loss.gamma == 0.0

    def test_parse_overrides(self):
        cfg = load_config(text="""
[cascade]
counts = 8, 6, 4
decays = 1.0, 0.5, 0.5

[loss]
gamma = 2.0

[model]
use_pathway = false
""")
        assert cfg.model.cascade.counts == (8, 6, 4)
        assert cfg.loss.gamma == 2.0
        assert cfg.model.use_pathway is False

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="garbage_key"):
            load_config(text="[loss]\ngarbage_key = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(text="[nonsense]\nx = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="loss.gamma"):
            load_config(text="[loss]\ngamma = banana\n")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError, match="invalid configuration"):
            load_config(text="[loss]\ngamma = -1\n")

    def test_default_text_roundtrips(self):
        text = default_config_text()
        cfg = load_config(text=text)
        assert cfg.model.cascade.counts == (16, 8, 4)

    def test_every_key_reads_back(self):
        """Each key set to a non-default value reads back through load_config,
        and the written configuration reads back whole."""
        def written(value):
            if isinstance(value, tuple):
                return ", ".join(map(str, value))
            return str(value).lower()

        text = "".join(f"[{section}]\n" + "".join(f"{k} = {written(v)}\n"
                                                  for k, v in keys.items())
                       for section, keys in EVERY_KEY.items())
        cfg = load_config(text=text)
        default = _sections(load_config())
        for section, settings in _sections(cfg).items():
            for key, value in EVERY_KEY[section].items():
                assert getattr(default[section], key) != value, f"{section}.{key}"
                assert getattr(settings, key) == value, f"{section}.{key}"
        printed = configparser.ConfigParser()
        printed.optionxform = str
        printed.read_string(config_text(cfg))
        assert {s: list(printed[s]) for s in printed.sections()} == \
            {s: list(keys) for s, keys in EVERY_KEY.items()}, "a key has no test value"
        assert load_config(text=config_text(cfg)) == cfg

    def test_printed_defaults_leave_the_range_free(self):
        cfg = load_config(text=default_config_text())
        assert not cfg.cascade_range_explicit
        assert cfg == load_config()

    def test_scene_range_alone_leaves_the_range_free(self):
        cfg = load_config(text="[scene]\nd_min = 1.0\nd_max = 4.0\n")
        assert not cfg.cascade_range_explicit
        assert (cfg.model.cascade.d_min, cfg.model.cascade.d_max) == (1.0, 4.0)
        assert load_config(text=config_text(cfg)) == cfg

    @pytest.mark.parametrize("lines, d_range", [("d_min = 1.1\nd_max = 3.9\n", (1.1, 3.9)),
                                                ("d_max = 3.9\n", (1.2, 3.9))])
    def test_cascade_range_prints_and_reads_back(self, lines, d_range):
        cfg = load_config(text="[cascade]\n" + lines)
        assert cfg.cascade_range_explicit
        assert (cfg.model.cascade.d_min, cfg.model.cascade.d_max) == d_range
        text = config_text(cfg)
        assert f"d_min = {d_range[0]}\nd_max = {d_range[1]}\n" in text.split("[cascade]")[1]
        assert load_config(text=text) == cfg

    def test_printed_config_adopts_the_scene_range(self):
        from mvstereo.cli import _adopt_scene_range
        model = _adopt_scene_range(load_config(text=default_config_text()),
                                   {"d_min": "0.5", "d_max": "9.0"})
        assert (model.cascade.d_min, model.cascade.d_max) == (0.5, 9.0)
        pinned = load_config(text="[cascade]\nd_min = 1.1\n")
        model = _adopt_scene_range(load_config(text=config_text(pinned)),
                                   {"d_min": "0.5", "d_max": "9.0"})
        assert (model.cascade.d_min, model.cascade.d_max) == (1.1, 3.3)

    @pytest.mark.parametrize("line", ["light = 1, 2", "plane_tilt = 1, 2, 3"])
    def test_fixed_length_tuple_checks_its_length(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"scene.{key}"):
            load_config(text=f"[scene]\n{line}\n")

    def test_field_without_a_parser_fails(self):
        from dataclasses import dataclass
        from mvstereo import config

        @dataclass
        class Odd:
            ratio: "complex" = 1j

        with pytest.raises(TypeError, match="'complex'"):
            config._keys(Odd)

    @pytest.mark.parametrize("section, key", [("cascade", "weights"), ("train", "n_scenes"),
                                              ("model", "normalize_correlation")])
    def test_removed_keys_rejected_with_name(self, section, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(text=f"[{section}]\n{key} = 1\n")

    @pytest.mark.parametrize("key, value", [
        ("steps", "0"), ("steps", "-2"), ("learning_rate", "nan"), ("learning_rate", "inf"),
        ("learning_rate", "0"), ("learning_rate", "-1e-3"), ("decay_factor", "0"),
        ("decay_factor", "1.5"), ("decay_steps", "180, -1")])
    def test_bad_train_setting_rejected_with_name(self, key, value):
        with pytest.raises(ConfigError, match=f"train {key} must"):
            load_config(text=f"[train]\n{key} = {value}\n")

    def test_edge_train_settings_accepted(self):
        settings = TrainSettings(steps=1, decay_factor=1.0, decay_steps=(0,))
        assert settings.steps == 1 and settings.decay_steps == (0,)

    def test_missing_file(self, tmp_path):
        for where in ("/nonexistent/config.cfg", tmp_path):  # a directory is not a file
            with pytest.raises(ConfigError, match="not found"):
                load_config(where)

    @pytest.mark.parametrize("text, named", [
        ("[loss]\ngamma = 5%\n", "bad value for 'loss.gamma': '5%'"),
        ("[nonsense]\nx = 1\n", "unknown config section"),
        ("gamma = 2\n", "config parse failure")])
    def test_error_in_a_file_names_it(self, tmp_path, text, named):
        """A '%' is read as itself, not as an interpolation."""
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=named) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")


class TestCliBasics:
    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "synth" in result.stdout and "bench-attention" in result.stdout

    def test_print_config(self):
        result = run_cli("print-config")
        assert result.returncode == 0
        assert "[cascade]" in result.stdout and "counts = 16, 8, 4" in result.stdout

    @pytest.mark.parametrize("args", [("print-config", "--threads", "1", "--seed", "3"),
                                      ("--threads", "1", "print-config")])
    def test_print_config_takes_the_common_options(self, args):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        assert result.stdout == default_config_text()

    def test_print_config_prints_the_given_file(self, tmp_path):
        """Every key, with the file's values in place of the defaults."""
        cfg = tmp_path / "gamma.cfg"
        cfg.write_text("[loss]\ngamma = 2.0\n")
        result = run_cli("print-config", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        assert "gamma = 2.0" in result.stdout.splitlines()
        assert result.stdout == default_config_text().replace("gamma = 0.0", "gamma = 2.0")

    def test_bad_config_key_exit_code_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[loss]\nbogus_option = 1\n")
        result = run_cli("synth", "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert result.returncode == 2
        assert "bogus_option" in result.stderr

    @pytest.mark.parametrize("command", [
        ("print-config",), ("synth", "--out", "o"), ("train", "--scenes", "s", "--out", "o"),
        ("infer", "--scene", "s", "--out", "o"),
        ("fuse", "--scene", "s", "--depths", "d", "--out", "o")], ids=lambda c: c[0])
    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, command):
        """A byte that is not UTF-8 is a configuration error naming the file,
        in every command that reads a config, before it writes anything."""
        from mvstereo import cli
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[loss]\n# it\x92s cp1252\ngamma = 2.0\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main([*command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(cfg) in err[0], err
        assert not (tmp_path / "o").exists()

    def test_unknown_subcommand_exit_code_2(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize("args", [
        ("--threads", "0"), ("--threads=-3",), ("--threads", "two"), ("--threads", "1.5")])
    def test_threads_must_be_a_positive_integer(self, tmp_path, args):
        """Checked before any BLAS pool is pinned: one line naming the value."""
        result = run_cli(*args, "synth", "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        value = args[-1].split("=")[-1]
        assert f"--threads {value} must be a positive integer" in result.stderr
        assert result.stdout == "" and not (tmp_path / "o").exists()

    def test_runtime_failure_exit_code_1(self, tmp_path):
        result = run_cli("infer", "--scene", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o"))
        assert result.returncode == 1


@pytest.fixture(scope="module")
def small_scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliscene")
    cfg = root / "small.cfg"
    cfg.write_text("""
[scene]
height = 16
width = 16
focal = 18.0

[cascade]
counts = 8, 6, 4

[model]
n_blocks = 1
n_heads = 2
""")
    result = run_cli("synth", "--out", str(root / "scenes"), "--scenes", "2",
                     "--seed", "5", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    return root


@pytest.fixture(scope="module")
def noisy_fused_scene(small_scene_dir, tmp_path_factory):
    """Fused cloud from ground-truth depths with 0.3% noise; (scene, fused dir)."""
    from mvstereo.fileio import load_scene, write_pfm
    scene_dir = small_scene_dir / "scenes" / "scene_0001"
    views, _ = load_scene(scene_dir)
    root = tmp_path_factory.mktemp("noisyfuse")
    rng = np.random.default_rng(7)
    for i, view in enumerate(views):
        vdir = root / "depths" / f"view_{i:04d}"
        vdir.mkdir(parents=True)
        write_pfm(vdir / "depth_stage3.pfm",
                  view.depth * (1 + 0.003 * rng.standard_normal(view.depth.shape)))
        write_pfm(vdir / "conf_stage3.pfm", np.ones_like(view.depth))
    result = run_cli("fuse", "--scene", str(scene_dir), "--depths", str(root / "depths"),
                     "--out", str(root / "fused"))
    assert result.returncode == 0, result.stderr
    return scene_dir, root / "fused"


class TestCliPipeline:
    def test_synth_writes_expected_layout(self, small_scene_dir):
        scene0 = small_scene_dir / "scenes" / "scene_0000"
        names = sorted(p.name for p in scene0.iterdir())
        assert "manifest.txt" in names
        assert sum(n.startswith("cam_") for n in names) == 3
        assert sum(n.startswith("view_") for n in names) == 3
        assert sum(n.startswith("depth_") for n in names) == 3

    def test_synth_deterministic_bitwise(self, small_scene_dir, tmp_path):
        cfg = small_scene_dir / "small.cfg"
        result = run_cli("synth", "--out", str(tmp_path / "again"), "--scenes", "2",
                         "--seed", "5", "--config", str(cfg))
        assert result.returncode == 0
        base = small_scene_dir / "scenes"
        for sub in ("scene_0000", "scene_0001"):
            for p in sorted((base / sub).iterdir()):
                assert p.read_bytes() == (tmp_path / "again" / sub / p.name).read_bytes()

    def test_untrained_infer_round_trip(self, small_scene_dir, tmp_path):
        """synth -> infer with no checkpoint completes with shape-valid output."""
        from mvstereo.fileio import read_pfm
        cfg = small_scene_dir / "small.cfg"
        result = run_cli("infer", "--scene", str(small_scene_dir / "scenes" / "scene_0000"),
                         "--out", str(tmp_path / "pred"), "--ref", "0",
                         "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        depth = read_pfm(tmp_path / "pred" / "view_0000" / "depth_stage3.pfm")
        conf = read_pfm(tmp_path / "pred" / "view_0000" / "conf_stage3.pfm")
        assert depth.shape == (16, 16) and conf.shape == (16, 16)
        assert (depth > 0).all() and (conf >= 0).all() and (conf <= 1).all()

    @pytest.mark.parametrize("ref", ["3", "-1"])
    def test_infer_ref_outside_the_scene_exits_2(self, small_scene_dir, tmp_path, ref):
        """Each synthetic scene has 3 views, so --ref must lie in 0..2."""
        result = run_cli("infer", "--scene", str(small_scene_dir / "scenes" / "scene_0000"),
                         "--out", str(tmp_path / "pred"), "--ref", ref,
                         "--config", str(small_scene_dir / "small.cfg"))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert f"--ref {ref}" in result.stderr and "0..2" in result.stderr
        assert not (tmp_path / "pred").exists()

    def test_mismatched_checkpoint_is_named_on_stderr(self, small_scene_dir, tmp_path):
        """A checkpoint saved with one block, read by a two-block config."""
        from mvstereo.model import StereoModel
        from mvstereo.training import save_checkpoint
        cfg = small_scene_dir / "small.cfg"
        save_checkpoint(tmp_path / "ckpt.bin", StereoModel(load_config(cfg).model))
        two_blocks = tmp_path / "two_blocks.cfg"
        two_blocks.write_text(cfg.read_text().replace("n_blocks = 1", "n_blocks = 2"))
        result = run_cli("infer", "--scene", str(small_scene_dir / "scenes" / "scene_0000"),
                         "--out", str(tmp_path / "pred"), "--ref", "0",
                         "--config", str(two_blocks), "--checkpoint", str(tmp_path / "ckpt.bin"))
        assert result.returncode == 1
        assert "does not match" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_checkpoint_of_another_head_count_is_named_on_stderr(self, small_scene_dir,
                                                                 tmp_path):
        """n_heads changes no parameter shape; the checkpoint records it."""
        from mvstereo.model import StereoModel
        from mvstereo.training import save_checkpoint
        cfg = small_scene_dir / "small.cfg"
        save_checkpoint(tmp_path / "ckpt.bin", StereoModel(load_config(cfg).model))
        one_head = tmp_path / "one_head.cfg"
        one_head.write_text(cfg.read_text().replace("n_heads = 2", "n_heads = 1"))
        result = run_cli("infer", "--scene", str(small_scene_dir / "scenes" / "scene_0000"),
                         "--out", str(tmp_path / "pred"), "--ref", "0",
                         "--config", str(one_head), "--checkpoint", str(tmp_path / "ckpt.bin"))
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            "error: checkpoint was saved with n_heads = 2, but the model has n_heads = 1"]
        assert not (tmp_path / "pred").exists()

    def test_fuse_and_cloud_eval_on_gt_depths(self, small_scene_dir, tmp_path):
        """Writing GT depths as predictions, fuse + eval produce a near-zero
        overall cloud distance."""
        import numpy as np
        from mvstereo.fileio import load_scene, write_pfm
        scene_dir = small_scene_dir / "scenes" / "scene_0000"
        views, _ = load_scene(scene_dir)
        depths = tmp_path / "gtdepths"
        for i, view in enumerate(views):
            vdir = depths / f"view_{i:04d}"
            vdir.mkdir(parents=True)
            write_pfm(vdir / "depth_stage3.pfm", view.depth)
            write_pfm(vdir / "conf_stage3.pfm", np.ones_like(view.depth))
        fused = tmp_path / "fused"
        result = run_cli("fuse", "--scene", str(scene_dir), "--depths", str(depths),
                         "--out", str(fused))
        assert result.returncode == 0, result.stderr
        assert (fused / "cloud.ply").exists()
        assert (fused / "mask_0000.ppm").exists()
        result = run_cli("eval", "--mode", "cloud", "--cloud", str(fused / "cloud.ply"),
                         "--scene", str(scene_dir), "--out", str(tmp_path / "m.csv"))
        assert result.returncode == 0, result.stderr
        accuracy = float(result.stdout.split("Accuracy")[1].split()[0])
        overall = float(result.stdout.split("Overall")[1].split()[0])
        # Accuracy is tight (every fused point has an exact counterpart);
        # completeness pays for border pixels seen by only one view.
        assert accuracy < 2e-3
        assert overall < 0.05
        assert (tmp_path / "m.csv").exists()

    def test_fuse_missing_depth_map_is_named_on_stderr(self, small_scene_dir, tmp_path):
        result = run_cli("fuse", "--scene", str(small_scene_dir / "scenes" / "scene_0000"),
                         "--depths", str(tmp_path / "nope"), "--out", str(tmp_path / "fused"))
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        missing = tmp_path / "nope" / "view_0000" / "depth_stage3.pfm"
        assert str(missing) in result.stderr and "mvstereo infer" in result.stderr

    def test_cloud_eval_csv_equals_bruteforce(self, noisy_fused_scene):
        """fuse -> eval --mode cloud exits 0, and the CSV row is
        ``cloud_metrics`` recomputed from brute-force distances between the
        fused cloud and the reference cloud."""
        from mvstereo.cameras import backproject_pixels
        from mvstereo.fileio import load_scene, read_ply
        from mvstereo.metrics import cloud_metrics, nearest_distances_bruteforce
        scene_dir, fused = noisy_fused_scene
        csv_path = fused.parent / "m.csv"
        result = run_cli("eval", "--mode", "cloud", "--cloud", str(fused / "cloud.ply"),
                         "--scene", str(scene_dir), "--out", str(csv_path))
        assert result.returncode == 0, result.stderr
        header, row = csv_path.read_text().splitlines()
        assert header == "accuracy,completeness,overall"
        views, manifest = load_scene(scene_dir)
        reference = []
        for view in views:
            ys, xs = np.nonzero(view.depth > 0)
            reference.append(backproject_pixels(
                view.intrinsics, view.extrinsics,
                np.stack([xs, ys], axis=-1).astype(np.float64), view.depth[ys, xs]))
        reference = np.concatenate(reference)
        clamp = 20 * (float(manifest["d_max"]) - float(manifest["d_min"])) / 128.0
        cloud = read_ply(fused / "cloud.ply").points
        acc = float(np.minimum(nearest_distances_bruteforce(cloud, reference), clamp).mean())
        comp = float(np.minimum(nearest_distances_bruteforce(reference, cloud), clamp).mean())
        assert cloud_metrics(cloud, reference, clamp) == (acc, comp, (acc + comp) / 2.0)
        assert row == f"{acc:.6f},{comp:.6f},{(acc + comp) / 2.0:.6f}"

    def test_truncated_cloud_is_named_on_stderr(self, noisy_fused_scene, tmp_path):
        scene_dir, fused = noisy_fused_scene
        blob = (fused / "cloud.ply").read_bytes()
        cut = tmp_path / "cloud.ply"
        cut.write_bytes(blob[: len(blob) // 2])
        result = run_cli("eval", "--mode", "cloud", "--cloud", str(cut),
                         "--scene", str(scene_dir))
        assert result.returncode == 1
        assert str(cut) in result.stderr and "truncated" in result.stderr

    @pytest.mark.parametrize("key, replacement", [("n_views", None), ("d_min", None),
                                                  ("d_max", "d_max = far")])
    def test_bad_manifest_is_named_on_stderr(self, noisy_fused_scene, tmp_path,
                                             key, replacement):
        import shutil
        scene_dir, fused = noisy_fused_scene
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        manifest = scene / "manifest.txt"
        lines = [replacement if line.split("=")[0].strip() == key else line
                 for line in manifest.read_text().splitlines()]
        manifest.write_text("\n".join(line for line in lines if line is not None) + "\n")
        result = run_cli("eval", "--mode", "cloud", "--cloud", str(fused / "cloud.ply"),
                         "--scene", str(scene))
        assert result.returncode == 1
        assert str(manifest) in result.stderr and f"'{key}'" in result.stderr

    def test_gradcheck_command_single_scope(self):
        result = run_cli("gradcheck", "--scope", "matmul", "--instances", "3")
        assert result.returncode == 0
        assert "PASS matmul" in result.stdout

    def test_gradcheck_command_unknown_scope_exits_2(self):
        result = run_cli("gradcheck", "--scope", "bogus")
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert "'bogus'" in result.stderr
        assert "all, matmul, conv2d" in result.stderr and "cascade_loss" in result.stderr

    @pytest.mark.parametrize("args, scene_key, named", [
        (("synth", "--scenes", "0"), None, "--scenes 0"),
        (("synth", "--scenes", "-2"), None, "--scenes -2"),
        (("gradcheck", "--scope", "matmul", "--instances", "0"), None, "--instances 0"),
        (("gradcheck", "--scope", "matmul", "--instances", "-2"), None, "--instances -2"),
        (("synth",), "supersample = 0", "supersample"),
        (("synth",), "supersample = -3", "supersample"),
        (("synth",), "height = 0", "height"),
        (("synth",), "width = 0", "width"),
        (("synth",), "n_views = 0", "n_views"),
        (("synth",), "n_views = 1", "n_views"),
        (("synth",), "noise_freq = nan", "noise_freq"),
        (("synth",), "focal = -70", "focal"),
        (("synth",), "checker_size = inf", "checker_size")])
    def test_bad_count_or_scene_exits_2(self, tmp_path, args, scene_key, named):
        """Each probe exits 2 with one line naming the problem, and writes nothing."""
        extra = ()
        if args[0] == "synth":
            extra = ("--out", str(tmp_path / "o"))
        if scene_key is not None:
            cfg = tmp_path / "scene.cfg"
            cfg.write_text(f"[scene]\n{scene_key}\n")
            extra += ("--config", str(cfg))
        result = run_cli(*args, *extra)
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert named in result.stderr
        assert result.stdout == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, train_key, named", [
        (("eval", "--mode", "depth"), None, "--pred"),
        (("eval", "--mode", "cloud"), None, "--cloud"),
        (("eval", "--mode", "cloud", "--cloud", "{cloud}", "--clamp", "0"), None, "--clamp"),
        (("eval", "--mode", "cloud", "--cloud", "{cloud}", "--clamp", "-1"), None, "--clamp"),
        (("eval", "--mode", "cloud", "--cloud", "{cloud}", "--clamp", "nan"), None, "--clamp"),
        (("eval", "--mode", "cloud", "--cloud", "{cloud}", "--clamp", "inf"), None, "--clamp"),
        (("bench-attention", "--lengths", "a"), None, "--lengths a"),
        (("bench-attention", "--lengths", "64"), None, "--lengths 64"),
        (("bench-attention", "--lengths", "64,64"), None, "--lengths 64,64"),
        (("bench-attention", "--lengths", "0,64"), None, "--lengths 0,64"),
        (("bench-attention", "--trials", "0"), None, "--trials 0"),
        (("bench-attention", "--channels", "0"), None, "--channels 0"),
        (("bench-attention", "--heads", "0"), None, "--heads 0"),
        (("bench-attention", "--heads", "3"), None, "--heads 3"),
        (("train",), "steps = 0", "steps"),
        (("train",), "steps = -2", "steps"),
        (("train",), "learning_rate = nan", "learning_rate"),
        (("train",), "learning_rate = 0", "learning_rate"),
        (("train",), "decay_factor = 1.5", "decay_factor"),
        (("train",), "decay_steps = 3, -1", "decay_steps")])
    def test_bad_argument_or_train_key_exits_2(self, noisy_fused_scene, small_scene_dir,
                                               tmp_path, args, train_key, named):
        """Each probe exits 2 with one line naming the flag or key, and writes nothing."""
        scene, fused = noisy_fused_scene
        args = tuple(a.replace("{cloud}", str(fused / "cloud.ply")) for a in args)
        out = tmp_path / "o"
        if args[0] == "eval":
            args += ("--scene", str(scene))
        if args[0] == "train":
            cfg = tmp_path / "train.cfg"
            cfg.write_text(f"[train]\n{train_key}\n")
            args += ("--scenes", str(small_scene_dir / "scenes"), "--config", str(cfg))
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert named in result.stderr
        assert result.stdout == "" and not out.exists()

    @pytest.mark.parametrize("probe, named", [
        ("one_view", "manifest.txt: n_views = 1"),
        ("inverted_range", "[3.5, 3.3]"),
        ("camera_range", "cam_0001.txt: depth range [0.5, 9.0]"),
        ("zero_focal", "cam_0001.txt: focal lengths must be positive, got fx=0.0"),
        ("smaller_image", "view_0001.ppm"),
        ("skewed_rotation", "cam_0001.txt: rotation is not orthonormal"),
        ("empty_cloud", "empty.ply: the cloud has no vertices")])
    def test_malformed_scene_exits_1_naming_it(self, small_scene_dir, tmp_path, probe, named):
        """Each boundary probe exits 1 with one stderr line naming the file
        or the value, and writes nothing."""
        import shutil
        from mvstereo.fileio import read_ppm, write_ply, write_ppm
        from mvstereo.fusion import PointCloud
        scene = tmp_path / "scene"
        shutil.copytree(small_scene_dir / "scenes" / "scene_0000", scene)

        def edit(name, old, new):
            path = scene / name
            text = path.read_text()
            assert old in text
            path.write_text(text.replace(old, new, 1))

        if probe == "one_view":
            edit("manifest.txt", "n_views = 3", "n_views = 1")
        elif probe == "inverted_range":
            edit("manifest.txt", "d_min = 1.2", "d_min = 3.5")
        elif probe == "camera_range":
            lines = (scene / "cam_0001.txt").read_text().splitlines()
            lines[-1] = "0.5 0.01 16 9.0"  # the depth line
            (scene / "cam_0001.txt").write_text("\n".join(lines) + "\n")
        elif probe == "zero_focal":
            edit("cam_0001.txt", "\n18 0 ", "\n0 0 ")
        elif probe == "smaller_image":
            write_ppm(scene / "view_0001.ppm", read_ppm(scene / "view_0001.ppm")[:, :-4])
        elif probe == "skewed_rotation":
            lines = (scene / "cam_0001.txt").read_text().splitlines()
            row = lines[1].split()  # first rotation row, after "extrinsic"
            lines[1] = " ".join([repr(2 * float(row[0]))] + row[1:])
            (scene / "cam_0001.txt").write_text("\n".join(lines) + "\n")
        if probe == "empty_cloud":
            cloud = tmp_path / "empty.ply"
            write_ply(cloud, PointCloud(np.zeros((0, 3)), np.zeros((0, 3))))
            args = ("eval", "--mode", "cloud", "--cloud", str(cloud), "--scene", str(scene))
        else:
            args = ("infer", "--scene", str(scene), "--out", str(tmp_path / "pred"),
                    "--config", str(small_scene_dir / "small.cfg"))
        result = run_cli(*args)
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        assert named in result.stderr
        assert not (tmp_path / "pred").exists()

    def test_train_over_two_depth_ranges_needs_a_pinned_range(self, small_scene_dir,
                                                              tmp_path, capsys):
        """One model sweeps one range: scenes taking theirs from disk must
        agree, and a config that pins ``[cascade]`` d_min/d_max trains over both."""
        import shutil
        from mvstereo import cli
        scenes = tmp_path / "scenes"
        shutil.copytree(small_scene_dir / "scenes" / "scene_0000", scenes / "scene_0000")
        small = "[scene]\nheight = 16\nwidth = 16\nfocal = 18.0\n"
        wide = tmp_path / "wide.cfg"
        wide.write_text(small + "d_min = 1.0\nd_max = 5.0\n")
        assert cli.main(["synth", "--out", str(tmp_path / "wide"), "--config", str(wide)]) == 0
        shutil.move(tmp_path / "wide" / "scene_0000", scenes / "scene_0001")
        capsys.readouterr()

        def train(cascade: str, out):
            cfg = tmp_path / "train.cfg"
            cfg.write_text(small + "[model]\nn_blocks = 1\nn_heads = 2\n[train]\nsteps = 1\n"
                           "[cascade]\ncounts = 8, 6, 4\n" + cascade)
            code = cli.main(["train", "--scenes", str(scenes), "--out", str(out),
                             "--config", str(cfg)])
            return code, capsys.readouterr()

        code, captured = train("", tmp_path / "from_disk")
        assert code == 1 and captured.out == "" and not (tmp_path / "from_disk").exists()
        assert captured.err.splitlines() == [
            f"error: {scenes / 'scene_0001' / 'manifest.txt'}: depth range [1.0, 5.0] "
            f"does not match {scenes / 'scene_0000' / 'manifest.txt'}'s [1.2, 3.3]; "
            f"pin [cascade] d_min and d_max to train over both"]
        code, _ = train("d_min = 1.0\nd_max = 5.0\n", tmp_path / "pinned")
        assert code == 0 and (tmp_path / "pinned" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("command, kind", [("fuse", "depth"), ("fuse", "conf"),
                                               ("eval", "depth")])
    def test_non_finite_prediction_exits_1_naming_it(self, small_scene_dir, tmp_path,
                                                     command, kind, value):
        """A non-finite pixel in a depth or confidence map exits 1 with one
        stderr line naming the map and the count, and no numpy warning.
        ``eval --mode depth`` reads no confidence map."""
        from mvstereo.fileio import load_scene, write_pfm
        scene = small_scene_dir / "scenes" / "scene_0000"
        views, _ = load_scene(scene)
        for i, view in enumerate(views):
            vdir = tmp_path / "pred" / f"view_{i:04d}"
            vdir.mkdir(parents=True)
            maps = {"depth": view.depth.copy(), "conf": np.ones_like(view.depth)}
            if i == 1:
                maps[kind][3, 2:4] = value
            for name, data in maps.items():
                write_pfm(vdir / f"{name}_stage3.pfm", data)
        if command == "fuse":
            args = ("fuse", "--scene", str(scene), "--depths", str(tmp_path / "pred"),
                    "--out", str(tmp_path / "fused"))
        else:
            args = ("eval", "--mode", "depth", "--scene", str(scene),
                    "--pred", str(tmp_path / "pred"))
        result = run_cli(*args)
        assert result.returncode == 1
        bad = tmp_path / "pred" / "view_0001" / f"{kind}_stage3.pfm"
        assert result.stderr.strip().splitlines() == [
            f"error: {bad}: 2 non-finite pixel(s) of 256"]
        assert not (tmp_path / "fused").exists()

    def test_parser_is_built_once(self, capsys):
        from mvstereo import cli
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            assert cli.main(["print-config"]) == 0
        assert capsys.readouterr().out == 2 * default_config_text()

    def test_bench_attention_small(self, tmp_path):
        out = tmp_path / "bench.csv"
        result = run_cli("bench-attention", "--lengths", "64,128,256",
                         "--trials", "1", "--out", str(out))
        assert result.returncode == 0
        assert "slope" in result.stdout
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "kind,length,seconds"
