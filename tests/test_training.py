"""Focal loss, optimizer behavior, checkpoints, and short training runs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstereo import autodiff as ad
from mvstereo.cameras import sample_hypotheses_initial
from mvstereo.model import RECORDED_FIELDS, CascadeConfig, ModelConfig, StereoModel
from mvstereo.regularizer import probability_volume
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import (
    Adam,
    LossConfig,
    TrainingAborted,
    cascade_loss,
    fit,
    focal_loss,
    load_checkpoint,
    restore,
    save_checkpoint,
    total_loss,
    train_step,
)


def _random_prob(rng, h, w, d):
    return probability_volume(ad.tensor(rng.standard_normal((h, w, d))))


def focal_loop(p, gt, hyps, mask, gamma):
    """Direct per-pixel evaluation of the focal objective."""
    h, w, d = p.shape
    total = 0.0
    count = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            target = np.abs(hyps.values - gt[i, j]).argmin()
            prob = max(p[i, j, target], 1e-12)
            total += -((1 - p[i, j, target]) ** gamma) * np.log(prob)
            count += 1
    return total / max(count, 1)


class TestFocalLoss:
    def test_gamma_zero_equals_cross_entropy(self, f64, rng):
        """The focusing factor vanishes at gamma = 0."""
        hyps = sample_hypotheses_initial(1.0, 3.0, 8)
        prob = _random_prob(rng, 5, 6, 8)
        gt = rng.uniform(1.0, 3.0, size=(5, 6))
        mask = rng.random((5, 6)) > 0.3
        loss = focal_loss(prob, gt, hyps, mask, gamma=0.0)
        p = prob.data
        target = np.abs(hyps.values[None, None] - gt[..., None]).argmin(axis=2)
        sel = np.take_along_axis(p, target[..., None], axis=2)[..., 0]
        ce = -(np.log(np.maximum(sel, 1e-12))[mask]).mean()
        assert abs(float(loss.data) - ce) <= 1e-12

    def test_matches_loop_oracle(self, f64, rng):
        hyps = sample_hypotheses_initial(0.5, 2.5, 6)
        prob = _random_prob(rng, 4, 5, 6)
        gt = rng.uniform(0.5, 2.5, size=(4, 5))
        mask = rng.random((4, 5)) > 0.25
        for gamma in (0.0, 1.0, 2.0):
            loss = focal_loss(prob, gt, hyps, mask, gamma)
            expected = focal_loop(prob.data, gt, hyps, mask, gamma)
            np.testing.assert_allclose(float(loss.data), expected, atol=1e-6)

    def test_perfect_prediction_gives_zero(self, f64):
        hyps = sample_hypotheses_initial(1.0, 2.0, 3)
        p = np.zeros((2, 2, 3))
        p[..., 1] = 1.0
        gt = np.full((2, 2), 1.5)
        loss = focal_loss(ad.tensor(p), gt, hyps, np.ones((2, 2), bool), gamma=2.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_single_pixel_worked_example(self, f64):
        """P(target) = 0.5, gamma = 2 -> 0.25 * ln 2."""
        hyps = sample_hypotheses_initial(1.0, 2.0, 2)
        p = np.array([[[0.5, 0.5]]])
        gt = np.array([[1.0]])
        loss = focal_loss(ad.tensor(p), gt, hyps, np.ones((1, 1), bool), gamma=2.0)
        assert float(loss.data) == pytest.approx(0.25 * np.log(2.0), rel=1e-9)
        assert float(loss.data) == pytest.approx(0.17329, abs=5e-6)

    def test_no_valid_pixels_is_zero_with_warning(self, f64, rng, caplog):
        hyps = sample_hypotheses_initial(1.0, 2.0, 4)
        prob = _random_prob(rng, 3, 3, 4)
        with caplog.at_level("WARNING"):
            loss = focal_loss(prob, np.ones((3, 3)), hyps,
                              np.zeros((3, 3), bool), gamma=0.0)
        assert float(loss.data) == 0.0
        assert any("no valid pixels" in r.message for r in caplog.records)

    def test_masked_pixels_cannot_influence_loss(self, f64, rng):
        hyps = sample_hypotheses_initial(1.0, 2.0, 5)
        logits = rng.standard_normal((4, 4, 5))
        gt = rng.uniform(1.0, 2.0, size=(4, 4))
        mask = rng.random((4, 4)) > 0.4
        a = focal_loss(probability_volume(ad.tensor(logits)), gt, hyps, mask, 1.0)
        tampered_gt = gt.copy()
        tampered_gt[~mask] = 99.0
        b = focal_loss(probability_volume(ad.tensor(logits)), tampered_gt, hyps, mask, 1.0)
        assert float(a.data) == float(b.data)

    def test_loss_non_negative(self, f64, rng):
        hyps = sample_hypotheses_initial(1.0, 2.0, 7)
        for _ in range(10):
            prob = _random_prob(rng, 3, 4, 7)
            gt = rng.uniform(1.0, 2.0, size=(3, 4))
            loss = focal_loss(prob, gt, hyps, np.ones((3, 4), bool),
                              gamma=float(rng.uniform(0, 3)))
            assert float(loss.data) >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_gamma_when_confident(self, seed):
        """With P(target) > 1/e everywhere, loss never grows with gamma."""
        rng = np.random.default_rng(seed)
        with ad.precision("float64"):
            hyps = sample_hypotheses_initial(1.0, 2.0, 4)
            gt = rng.uniform(1.0, 2.0, size=(3, 3))
            target = np.abs(hyps.values[None, None] - gt[..., None]).argmin(axis=2)
            p = rng.dirichlet(np.ones(4) * 0.7, size=(3, 3))
            boost = rng.uniform(np.exp(-1) + 0.05, 0.98, size=(3, 3))
            np.put_along_axis(p, target[..., None], 0.0, axis=2)
            p = p / p.sum(axis=2, keepdims=True) * (1 - boost[..., None])
            np.put_along_axis(p, target[..., None], boost[..., None], axis=2)
            mask = np.ones((3, 3), bool)
            gammas = [0.0, 0.5, 1.0, 2.0, 4.0]
            losses = [float(focal_loss(ad.tensor(p), gt, hyps, mask, g).data)
                      for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestTotalLoss:
    def test_single_stage_identity(self, f64):
        out = total_loss([ad.tensor(np.array(2.5))], (1.0,))
        assert float(out.data) == pytest.approx(2.5)

    def test_zero_weights(self, f64):
        losses = [ad.tensor(np.array(v)) for v in (1.0, 2.0, 3.0)]
        assert float(total_loss(losses, (0.0, 0.0, 0.0)).data) == 0.0

    def test_weighted_sum(self, f64):
        losses = [ad.tensor(np.array(v)) for v in (1.0, 2.0, 3.0)]
        assert float(total_loss(losses, (1.0, 1.0, 2.0)).data) == pytest.approx(9.0)

    def test_length_mismatch(self, f64):
        with pytest.raises(ad.ContractError):
            total_loss([ad.tensor(np.array(1.0))], (1.0, 1.0))


class TestAdam:
    def test_converges_on_quadratic(self, f64):
        x = ad.tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"x": x}, lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ad.sum_(x * x).backward()
            opt.step()
        assert np.abs(x.data).max() < 1e-3

    def test_lr_step_decay(self, f64):
        x = ad.tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"x": x}, lr=1.0, decay_factor=0.5, decay_steps=(2, 4))
        lrs = []
        for _ in range(5):
            opt.zero_grad()
            ad.sum_(x * x).backward()
            opt.step()
            lrs.append(opt.current_lr())
        assert lrs == [1.0, 0.5, 0.5, 0.25, 0.25]

    def test_state_roundtrip(self, f64, rng):
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        opt = Adam({"x": x}, lr=0.05)
        for _ in range(3):
            opt.zero_grad()
            ad.sum_(x * x).backward()
            opt.step()
        state = opt.state()
        opt2 = Adam({"x": x}, lr=0.05)
        opt2.load_state(state)
        assert opt2.step_count == 3
        np.testing.assert_array_equal(opt2.m["x"], opt.m["x"])

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_in_place_step_matches_formula(self, precision, rng):
        """Five steps equal the out-of-place formula bit for bit, the
        parameters and both moments keep their buffers, and a step allocates
        less than one copy of the largest parameter."""
        shapes = {"w": (16, 16, 3, 3), "b": (16,), "s": (), "frozen": (5,)}
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        with ad.precision(precision):
            params = {k: ad.tensor(rng.standard_normal(s), requires_grad=True)
                      for k, s in shapes.items()}
            opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps, decay_steps=(3,))
            ref = {k: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
                   for k, p in params.items()}
            buffers = [a for k in params for a in (params[k].data, opt.m[k], opt.v[k])]
            for t in range(1, 6):
                opt.zero_grad()
                step_lr = lr * (0.5 if t >= 3 else 1.0)
                for k, p in params.items():
                    if k == "frozen":
                        continue
                    g = rng.standard_normal(shapes[k]).astype(p.dtype)
                    p.accumulate_grad(g)
                    x, m, v = ref[k]
                    m *= b1
                    m += (1 - b1) * g
                    v *= b2
                    v += (1 - b2) * g * g
                    x -= step_lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
                opt.step()
                for k, p in params.items():
                    for got, want in zip((p.data, opt.m[k], opt.v[k]), ref[k]):
                        assert np.array_equal(got, want), (k, t)
            after = [a for k in params for a in (params[k].data, opt.m[k], opt.v[k])]
            assert all(a is b for a, b in zip(buffers, after))
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < params["w"].data.nbytes, f"a step allocated {peak} bytes"


def _tiny_setup(seed=0, steps_cfg=None):
    spec = SceneSpec(height=16, width=16, focal=18.0)
    scene = render_synthetic_scene(spec, seed=3)
    cfg = ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)), n_blocks=1, n_heads=2)
    model = StereoModel(cfg, seed=seed)
    opt = Adam(model.named_parameters(), lr=1e-3)
    return scene, model, opt


class TestTrainStep:
    def test_two_runs_identical_parameters(self, f32):
        results = []
        for _ in range(2):
            scene, model, opt = _tiny_setup(seed=7)
            for _ in range(3):
                train_step(model, scene.views, opt, LossConfig())
            results.append(model.state())
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_overfit_single_scene_loss_decreases(self, f32):
        """50 steps on one tiny scene: the loss trace trends strictly down."""
        scene, model, opt = _tiny_setup(seed=1)
        trace = fit(model, [scene], 50, opt, LossConfig())
        drops = sum(1 for a, b in zip(trace, trace[1:]) if b < a)
        assert trace[-1] < 0.5 * trace[0]
        assert drops >= 35

    def test_non_finite_loss_aborts_with_norms(self, f32):
        scene, model, opt = _tiny_setup(seed=2)
        first = next(iter(model.named_parameters().values()))
        first.data[...] = np.nan
        with pytest.raises(TrainingAborted, match="parameter norms"):
            train_step(model, scene.views, opt, LossConfig())


class TestLossWithoutTape:
    @pytest.mark.parametrize("name", ["fpn.enc1a.weight", "reg2.c1.weight"])
    def test_no_grad_loss_equals_recorded_loss_when_perturbed(self, f64, name):
        """Finite-difference probes evaluate the loss under no_grad: at a
        perturbed feature-path or regularizer parameter, every no-grad
        evaluation (features reused or not) equals the recorded one bit for
        bit."""
        scene, model, _ = _tiny_setup(seed=4)
        flat = model.named_parameters()[name].data.reshape(-1)
        for index, step in ((0, 1e-5), (5, -1e-5)):
            flat[index] += step
            recorded = cascade_loss(model(scene.views), scene.views[0], LossConfig())[0]
            assert recorded.node is not None
            with ad.no_grad():
                for _ in range(3):
                    loss = cascade_loss(model(scene.views), scene.views[0], LossConfig())[0]
                    assert loss.node is None and loss.item() == recorded.item()


class TestCheckpoint:
    def test_roundtrip_exact(self, f32, tmp_path, rng):
        _, model, opt = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, opt)
        _, model2, opt2 = _tiny_setup(seed=9)
        restore(model2, load_checkpoint(path), opt2)
        for (ka, pa), (kb, pb) in zip(sorted(model.named_parameters().items()),
                                      sorted(model2.named_parameters().items())):
            assert ka == kb
            np.testing.assert_array_equal(pa.data, pb.data)
        assert opt2.step_count == opt.step_count

    def test_mismatched_model_is_one_short_error(self, f32, tmp_path):
        """An n_blocks=1 state into the default model: counts plus a few names."""
        _, model, _ = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        default = StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4))))
        with pytest.raises(ad.ContractError, match="does not match") as info:
            restore(default, load_checkpoint(path))
        message = str(info.value)
        assert "42 missing" in message and "0 unexpected" in message
        assert "matcher.block1." in message and "\n" not in message
        assert len(message) < 300

    @pytest.mark.parametrize("field, value", [
        ("n_heads", 4), ("attention_normalized", False), ("use_pathway", False)])
    def test_config_field_mismatch_is_named(self, f32, tmp_path, field, value):
        """Fields that change no parameter shape are recorded in the file and
        checked on restore; a state without them loads unchecked."""
        from dataclasses import replace
        cfg = ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, StereoModel(cfg))
        other = StereoModel(replace(cfg, **{field: value}), seed=1)
        before = {name: p.data.copy() for name, p in other.named_parameters().items()}
        with pytest.raises(ad.ContractError) as info:
            restore(other, load_checkpoint(path))
        message = str(info.value)
        assert f"{field} = {getattr(cfg, field)}" in message and f"{field} = {value}" in message
        assert "\n" not in message
        for name, p in other.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name])
        arrays = {k: v for k, v in load_checkpoint(path).items() if not k.startswith("config.")}
        restore(other, arrays)
        for name, p in other.named_parameters().items():
            np.testing.assert_array_equal(p.data, arrays[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(ad.ContractError, match="magic"):
            load_checkpoint(path)

    def test_cut_or_padded_file_is_named(self, f32, tmp_path):
        """Cuts in the header and in every field of the first and last entry,
        and one appended byte, raise ContractError naming the file and, once
        read, the entry."""
        import struct
        _, model, opt = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, opt)
        blob = path.read_bytes()
        names = sorted({**model.state(), **opt.state()})
        # Walk the layout: each field's offset and length, its entry, and
        # whether the entry's name precedes it (ndim, shape, data).
        fields, pos = [], 16
        for name in names:
            (name_len,) = struct.unpack_from("<I", blob, pos)
            (ndim,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
            shape = struct.unpack_from(f"<{ndim}q", blob, pos + 8 + name_len)
            for length, after_name in ((4, False), (name_len, False), (4, True),
                                       (8 * ndim, True), (4 * int(np.prod(shape)), True)):
                fields.append((pos, length, name, after_name))
                pos += length
        assert pos == len(blob)
        cuts = [(size, None) for size in range(16)]
        for offset, length, name, after_name in fields:
            if name in (names[0], names[-1]):
                cuts += [(offset + k, name if after_name else None)
                         for k in sorted({0, length // 2, length - 1})]
        for size, name in cuts:
            cut = tmp_path / "cut.bin"
            cut.write_bytes(blob[:size])
            with pytest.raises(ad.ContractError) as info:
                load_checkpoint(cut)
            assert str(cut) in str(info.value)
            if name is not None:
                assert f"'{name}'" in str(info.value)
        padded = tmp_path / "padded.bin"
        padded.write_bytes(blob + b"\0")
        with pytest.raises(ad.ContractError, match="trailing") as info:
            load_checkpoint(padded)
        assert str(padded) in str(info.value)
        shape_offset = fields[3][0]  # the first entry's shape field
        negative = tmp_path / "negative.bin"
        negative.write_bytes(blob[:shape_offset] + struct.pack("<q", -1)
                             + blob[shape_offset + 8:])
        with pytest.raises(ad.ContractError, match="negative") as info:
            load_checkpoint(negative)
        assert str(negative) in str(info.value) and f"'{names[0]}'" in str(info.value)

    def test_too_many_dimensions_are_named(self, f32, tmp_path):
        """An ndim past numpy's 64, with enough bytes left for its shape,
        raises ContractError naming the file and the entry."""
        import struct
        _, model, _ = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        name = sorted(model.state())[0]
        ndim_offset = 16 + 4 + len(name.encode())
        bad = tmp_path / "ndim.bin"
        bad.write_bytes(blob[:ndim_offset] + struct.pack("<I", 371) + blob[ndim_offset + 4:])
        assert len(blob) - ndim_offset - 4 >= 8 * 371
        with pytest.raises(ad.ContractError, match="371 dimensions") as info:
            load_checkpoint(bad)
        assert str(bad) in str(info.value) and f"'{name}'" in str(info.value)

    def test_failed_save_keeps_previous_checkpoint(self, f32, tmp_path, monkeypatch):
        """A save that fails midway leaves the previous file loadable and
        no temporary file behind."""
        import struct
        _, model, opt = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, opt)
        before = path.read_bytes()
        calls = []
        pack = struct.pack

        def failing_pack(fmt, *values):
            calls.append(fmt)
            if len(calls) == 7:
                raise OSError("disk full")
            return pack(fmt, *values)

        monkeypatch.setattr(struct, "pack", failing_pack)
        _, other, _ = _tiny_setup(seed=9)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, other)
        monkeypatch.undo()
        assert len(calls) == 7
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
        restored = load_checkpoint(path)
        for name, param in model.named_parameters().items():
            np.testing.assert_array_equal(restored[name], param.data)

    def test_layout_is_little_endian_float32(self, f32, tmp_path):
        import struct
        _, model, _ = _tiny_setup(seed=4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        assert blob[:8] == b"MVSTCKPT"
        version, count = struct.unpack("<II", blob[8:16])
        assert version == 1
        assert count == len(model.named_parameters()) + len(RECORDED_FIELDS)
