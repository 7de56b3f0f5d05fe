"""Every file reader, fed a valid file that was truncated, had bytes flipped
or had bytes inserted, reads it or raises a named error naming the file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstereo.autodiff import ContractError, DimensionError
from mvstereo.cameras import Extrinsics, Intrinsics, format_camera_text
from mvstereo.config import ConfigError, default_config_text, load_config
from mvstereo.fileio import (
    load_camera_file,
    load_scene,
    read_pfm,
    read_ply,
    read_ppm,
    save_scene,
    write_pfm,
    write_ply,
    write_ppm,
)
from mvstereo.fusion import PointCloud
from mvstereo.model import ModelConfig, StereoModel
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import load_checkpoint, save_checkpoint

NAMED = (ContractError, DimensionError, ConfigError)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)
SCENE_FILES = ("manifest.txt", "view_0001.ppm", "depth_0001.pfm", "cam_0001.txt")


def _write_files(directory) -> dict:
    """One valid file per reader, by reader name."""
    rng = np.random.default_rng(5)
    paths = {name: directory / file for name, file in [
        ("pfm", "d.pfm"), ("ppm", "i.ppm"), ("ply", "c.ply"), ("camera", "cam.txt"),
        ("checkpoint", "ckpt.bin"), ("config", "run.cfg")]}
    write_pfm(paths["pfm"], rng.standard_normal((3, 4)).astype(np.float32))
    write_ppm(paths["ppm"], rng.random((3, 3, 4)))
    write_ply(paths["ply"], PointCloud(rng.standard_normal((5, 3)), rng.random((5, 3))))
    paths["camera"].write_text(format_camera_text(
        Intrinsics(18.0, 18.0, 7.5, 7.5), Extrinsics(np.eye(3), [0.25, 0.0, 0.0]),
        1.2, 0.14, 16, 3.3), encoding="utf-8")
    save_checkpoint(paths["checkpoint"], StereoModel(ModelConfig(n_blocks=1, n_heads=2)))
    paths["config"].write_text(default_config_text(), encoding="utf-8")
    paths["scene"] = directory / "scene"
    save_scene(render_synthetic_scene(SceneSpec(height=8, width=8, focal=9.0, n_views=2), 1),
               paths["scene"])
    return paths


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _write_files(tmp_path_factory.mktemp("fuzz"))


def mutated(data, blob: bytes) -> bytes:
    """``blob`` cut short, with one to three bytes flipped, or with bytes
    inserted; positions favour the header."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert"]), label="kind")
    def position():
        return data.draw(st.one_of(st.integers(0, min(len(blob), 96)),
                                   st.integers(0, len(blob))), label="at")
    if kind == "truncate":
        return blob[:position()]
    if kind == "insert":
        at = position()
        return blob[:at] + data.draw(st.binary(min_size=1, max_size=6), label="bytes") + blob[at:]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        out[min(position(), len(out) - 1)] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(out)


def reads_or_names(read, target, path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` and read ``target``: it must succeed or
    raise a named error whose message names ``path``."""
    original = path.read_bytes()
    path.write_bytes(blob)
    try:
        read(target)
    except NAMED as exc:
        assert str(path) in str(exc), f"{type(exc).__name__} does not name {path}: {exc}"
    finally:
        path.write_bytes(original)


READERS = {"pfm": read_pfm, "ppm": read_ppm, "ply": read_ply, "camera": load_camera_file,
           "checkpoint": load_checkpoint, "config": load_config}


@pytest.mark.parametrize("name", list(READERS))
@FUZZ
@given(data=st.data())
def test_file_reader(files, name, data):
    path = files[name]
    reads_or_names(READERS[name], path, path, mutated(data, path.read_bytes()))


@FUZZ
@given(data=st.data())
def test_scene_directory(files, data):
    path = files["scene"] / data.draw(st.sampled_from(SCENE_FILES), label="file")
    reads_or_names(load_scene, files["scene"], path, mutated(data, path.read_bytes()))
