"""File formats: PFM, PPM, PLY, and scene directories."""

import re

import numpy as np
import pytest

from mvstereo.autodiff import ContractError
from mvstereo.fileio import (
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
from mvstereo.scene import SceneSpec, render_synthetic_scene


class TestPfm:
    def test_roundtrip(self, tmp_path, rng):
        data = rng.standard_normal((13, 17)).astype(np.float32)
        path = tmp_path / "d.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.pfm"
        write_pfm(path, np.zeros((4, 6), np.float32))
        with open(path, "rb") as fh:
            assert fh.readline().strip() == b"Pf"
            assert fh.readline().split() == [b"6", b"4"]
            assert float(fh.readline()) < 0  # little-endian marker

    def test_rows_stored_bottom_up(self, tmp_path):
        data = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
        path = tmp_path / "d.pfm"
        write_pfm(path, data)
        raw = path.read_bytes()
        floats = np.frombuffer(raw[-16:], dtype="<f4")
        np.testing.assert_array_equal(floats, [3.0, 4.0, 1.0, 2.0])

    def test_big_endian_read(self, tmp_path):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "be.pfm"
        write_pfm(path, data, little_endian=False)
        np.testing.assert_array_equal(read_pfm(path), data)


class TestPpm:
    def test_roundtrip_within_quantization(self, tmp_path, rng):
        img = rng.random((3, 5, 7))
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(Exception):
            write_ppm(tmp_path / "x.ppm", np.zeros((5, 7)))


class TestPly:
    def test_roundtrip(self, tmp_path, rng):
        cloud = PointCloud(points=rng.standard_normal((25, 3)).astype(np.float32),
                           colors=rng.random((25, 3)))
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)
        assert np.abs(back.colors - cloud.colors).max() <= 0.5 / 255 + 1e-9

    def test_header_declares_vertex_count_and_properties(self, tmp_path):
        cloud = PointCloud(points=np.zeros((3, 3)))
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        text = path.read_text()
        assert "element vertex 3" in text
        assert "property float x" in text and "property uchar red" in text

    def test_rows_match_per_row_formatting(self, tmp_path, rng):
        """The vertex rows, across more than one formatting chunk, are the
        text of a per-row loop over float32 points and uint8 colors."""
        n = 5000
        points = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-30, 30, (n, 1))
        points[:4] = [[0.0, -0.0, 1e-45], [3.4e38, -3.4e38, 1e-40],
                      [0.1, 0.2, 0.3], [16777217.0, -1e-7, 1.0]]
        cloud = PointCloud(points=points, colors=rng.uniform(-0.1, 1.1, (n, 3)))
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        colors = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        rows = "".join(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {c[0]} {c[1]} {c[2]}\n"
                       for p, c in zip(cloud.points.astype(np.float32), colors))
        assert path.read_text().split("end_header\n", 1)[1] == rows
        back = read_ply(path)
        np.testing.assert_array_equal(back.points.astype(np.float32),
                                      cloud.points.astype(np.float32))
        np.testing.assert_array_equal(back.colors * 255.0, colors)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "e.ply"
        write_ply(path, PointCloud(points=np.zeros((0, 3))))
        assert len(read_ply(path)) == 0


class TestSceneDirectory:
    def test_save_load_roundtrip(self, tmp_path):
        scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), 3)
        save_scene(scene, tmp_path / "s")
        views, manifest = load_scene(tmp_path / "s")
        assert len(views) == 3
        assert manifest["kind"] == "plane"
        for orig, back in zip(scene.views, views):
            assert np.abs(back.image - orig.image).max() <= 0.5 / 255 + 1e-9
            np.testing.assert_allclose(back.depth, orig.depth, rtol=1e-6)
            np.testing.assert_allclose(back.intrinsics.matrix,
                                       orig.intrinsics.matrix, rtol=1e-15)
            np.testing.assert_allclose(back.extrinsics.matrix4,
                                       orig.extrinsics.matrix4, atol=1e-15)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="manifest"):
            load_scene(tmp_path)

    def test_view_the_manifest_counts_but_lacks_is_named(self, tmp_path):
        save_scene(render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), 3),
                   tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("n_views = 3", "n_views = 4"))
        with pytest.raises(ContractError, match=re.escape(
                f"{manifest}: n_views = 4, but {tmp_path / 'view_0003.ppm'} does not exist")):
            load_scene(tmp_path)

    def test_byte_that_is_not_utf8_spoils_only_its_line(self, tmp_path):
        save_scene(render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), 3),
                   tmp_path)
        manifest = tmp_path / "manifest.txt"
        text = manifest.read_bytes()
        manifest.write_bytes(text.replace(b"kind", b"\x92kind"))
        assert len(load_scene(tmp_path)[0]) == 3
        manifest.write_bytes(text.replace(b"n_views = 3", b"n_views = \x923"))
        with pytest.raises(ContractError, match=re.escape(
                f"{manifest}: 'n_views' is missing or not a valid int")):
            load_scene(tmp_path)

    @pytest.mark.parametrize("d_min, named", [
        ("3.5", "[3.5, 3.3]"), ("0", "[0.0, 3.3]"), ("nan", "[nan, 3.3]")])
    def test_bad_manifest_range_is_named(self, tmp_path, d_min, named):
        save_scene(render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), 3),
                   tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("d_min = 1.2", f"d_min = {d_min}"))
        with pytest.raises(ContractError, match=re.escape(f"{manifest}: bad depth range {named}")):
            load_scene(tmp_path)

    @pytest.mark.parametrize("line, named", [
        ("0.5 0.01 16 9.0", "[0.5, 9.0]"),
        ("{d_min!r} 0.14 16 9.0", "9.0]"),
        ("0.5 0.01", "[0.5, {d_max!r}]"),
        ("{d_min!r} 0.01", None),
        ("{d_min!r} 0.14 16 {d_max!r}", None)],
        ids=["both_ends", "d_max", "d_min_without_d_max", "agrees_without_d_max", "agrees"])
    def test_camera_depth_range_must_match_manifest(self, tmp_path, line, named):
        """A camera depth line that disagrees with the manifest on d_min, or
        on d_max when it carries one, is named with both ranges."""
        spec = SceneSpec(height=16, width=16, focal=18.0)
        save_scene(render_synthetic_scene(spec, 3), tmp_path)
        cam = tmp_path / "cam_0001.txt"
        lines = cam.read_text().splitlines()
        lines[-1] = line.format(d_min=spec.d_min, d_max=spec.d_max)
        cam.write_text("\n".join(lines) + "\n")
        if named is None:
            assert len(load_scene(tmp_path)[0]) == 3
            return
        with pytest.raises(ContractError) as err:
            load_scene(tmp_path)
        message = str(err.value)
        assert message.startswith(f"{cam}: ")
        assert named.format(d_min=spec.d_min, d_max=spec.d_max) in message
        assert f"manifest.txt's [{spec.d_min!r}, {spec.d_max!r}]" in message

    def test_deterministic_bytes(self, tmp_path):
        spec = SceneSpec(height=16, width=16, focal=18.0)
        save_scene(render_synthetic_scene(spec, 9), tmp_path / "a")
        save_scene(render_synthetic_scene(spec, 9), tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


def _every_cut_is_named_or_exact(path, read, same) -> None:
    """Cut the file at every byte offset: each read either raises a
    ContractError that names the file or returns the original contents."""
    blob = path.read_bytes()
    full = read(path)
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        try:
            back = read(path)
        except ContractError as exc:
            assert str(path) in str(exc), exc
        else:
            same(back, full)


class TestTruncatedArtifacts:
    def test_pfm(self, tmp_path, rng):
        path = tmp_path / "d.pfm"
        write_pfm(path, rng.standard_normal((3, 4)).astype(np.float32))
        _every_cut_is_named_or_exact(path, read_pfm, np.testing.assert_array_equal)

    def test_ppm(self, tmp_path, rng):
        path = tmp_path / "i.ppm"
        write_ppm(path, rng.random((3, 3, 4)))
        _every_cut_is_named_or_exact(path, read_ppm, np.testing.assert_array_equal)

    def test_ply(self, tmp_path, rng):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(points=rng.standard_normal((4, 3)), colors=rng.random((4, 3))))

        def same(a, b):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.colors, b.colors)
        _every_cut_is_named_or_exact(path, read_ply, same)

    @pytest.mark.parametrize("header", [b"Pf\n4\n-1.0\n", b"Pf\n4 x\n-1.0\n",
                                        b"Pf\n4 3 2\n-1.0\n", b"Pf\n4 3\nscale\n",
                                        b"Pf\n-4 -3\n-1.0\n"])
    def test_pfm_malformed_header(self, tmp_path, header):
        path = tmp_path / "d.pfm"
        path.write_bytes(header + bytes(48))
        with pytest.raises(ContractError, match="d.pfm"):
            read_pfm(path)

    def test_pfm_trailing_bytes(self, tmp_path):
        path = tmp_path / "d.pfm"
        write_pfm(path, np.zeros((3, 4), np.float32))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ContractError, match="payload"):
            read_pfm(path)

    @pytest.mark.parametrize("body", ["element vertex many\n", "element vertex -2\n"])
    def test_ply_malformed_count(self, tmp_path, body):
        path = tmp_path / "c.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{body}end_header\n")
        with pytest.raises(ContractError, match="c.ply"):
            read_ply(path)

    @pytest.mark.parametrize("row", ["1 2 3 4 5\n", "1 2 3 4 5 6 7\n", "1 2 x 4 5 6\n",
                                     "1 2 nan 4 5 6\n", "1 2 3 4 inf 6\n",
                                     "1 2 \u00ff 4 5 6\n", "1 2 3 4 5 6 # note\n", "\n",
                                     "   \n", "\t \n"])
    @pytest.mark.filterwarnings("error")
    def test_ply_malformed_row(self, tmp_path, row):
        path = tmp_path / "c.ply"
        path.write_text(f"ply\nformat ascii 1.0\nelement vertex 1\nend_header\n{row}")
        with pytest.raises(ContractError, match="c.ply"):
            read_ply(path)

    def test_ppm_bad_maxval(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n1 1\n0\n" + bytes(3))
        with pytest.raises(ContractError, match="i.ppm"):
            read_ppm(path)

    @pytest.mark.parametrize("at", [30, None])
    def test_ppm_payload_byte_inserted(self, tmp_path, rng, at):
        """One byte more than the header's w * h * 3, in the payload or
        after it, is refused rather than read as a shifted image."""
        path = tmp_path / "i.ppm"
        write_ppm(path, rng.random((3, 4, 5)))
        blob = path.read_bytes()
        at = len(blob) if at is None else at
        path.write_bytes(blob[:at] + b"\x7f" + blob[at:])
        with pytest.raises(ContractError, match=r"i\.ppm: .* 61 payload bytes"):
            read_ppm(path)
