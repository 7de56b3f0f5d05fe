"""Full network: pyramid, receptive-field adaptation, matching transformer,
pathway, and the coarse-to-fine plane-sweep cascade."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .cameras import (
    CameraView,
    DepthHypotheses,
    refine_hypotheses,
    sample_hypotheses_initial,
)
from .costvolume import aggregate_correlation, pairwise_correlation, warp_source_features
from .features import PYRAMID_CHANNELS, DeformableConv2d, FeaturePyramidNet, PathwayMerge
from .matcher import MatchingTransformer
from .nn import Module
from .regularizer import DepthEstimate, VolumeRegularizer, probability_volume, winner_take_all

__all__ = ["CascadeConfig", "ModelConfig", "StageOutput", "StereoModel"]

STAGE_SCALES = (0.25, 0.5, 1.0)

# Model config fields that change what the model computes but no parameter
# shape; a checkpoint records them so a restore can check them.
RECORDED_FIELDS = ("n_heads", "attention_normalized", "use_pathway")

# The modules whose parameters the per-view features depend on.
FEATURE_MODULES = ("fpn", "deform_quarter", "deform_half", "deform_full")


@dataclass(frozen=True)
class CascadeConfig:
    """Per-stage hypothesis counts and interval decays, plus the depth range."""

    counts: tuple[int, ...] = (16, 8, 4)
    decays: tuple[float, ...] = (1.0, 0.25, 0.5)
    d_min: float = 1.2
    d_max: float = 3.3

    def __post_init__(self):
        if not (len(self.counts) == len(self.decays) == 3):
            raise ContractError("cascade config needs exactly three stages")
        if any(c2 > c1 for c1, c2 in zip(self.counts, self.counts[1:])):
            raise ContractError("hypothesis counts must be non-increasing")
        if any(not (0 < d <= 1) for d in self.decays):
            raise ContractError("interval decays must lie in (0, 1]")
        if self.d_min <= 0 or self.d_max <= self.d_min:
            raise ContractError(f"bad depth range [{self.d_min}, {self.d_max}]")


@dataclass(frozen=True)
class ModelConfig:
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    n_blocks: int = 4
    n_heads: int = 8
    attention_normalized: bool = True
    use_pathway: bool = True


@dataclass
class StageOutput:
    """Everything one cascade stage produces."""

    stage: int
    prob: Tensor  # per-pixel softmax over the hypotheses, (H', W', D)
    hyps: DepthHypotheses
    estimate: DepthEstimate


class StereoModel(Module):
    """Depth from one reference view and its neighbors, three stages deep."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        c4, c2, c1 = PYRAMID_CHANNELS
        self.fpn = FeaturePyramidNet(rng)
        self.deform_quarter = DeformableConv2d(rng, c4)
        self.deform_half = DeformableConv2d(rng, c2)
        self.deform_full = DeformableConv2d(rng, c1)
        self.matcher = MatchingTransformer(
            rng, c4, n_blocks=config.n_blocks, n_heads=config.n_heads,
            normalized=config.attention_normalized)
        self.path_half = PathwayMerge(rng, c4, c2)
        self.path_full = PathwayMerge(rng, c2, c1)
        self.reg1 = VolumeRegularizer(rng)
        self.reg2 = VolumeRegularizer(rng)
        self.reg3 = VolumeRegularizer(rng)
        # No-grad feature memo: view key -> its features, or None for a view
        # seen once; see extract_features.
        self._feature_memo: dict[bytes, tuple[Tensor, ...] | None] = {}

    # -- checkpoint state -----------------------------------------------------
    def state(self) -> dict[str, np.ndarray]:
        """Parameters, plus one ``config.<field>`` entry per recorded field."""
        out = super().state()
        for name in RECORDED_FIELDS:
            out[f"config.{name}"] = np.array(float(getattr(self.config, name)))
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters. A recorded field that differs from this model's
        raises ContractError; a state without one loads unchecked. Parameter
        names are checked first, since a different set is the plainer error."""
        recorded = {f"config.{name}": name for name in RECORDED_FIELDS}
        params = {k: v for k, v in state.items() if k not in recorded}
        if set(params) == set(self.named_parameters()):
            for key, name in recorded.items():
                if key not in state:
                    continue
                saved, mine = float(state[key]), getattr(self.config, name)
                if saved != float(mine):
                    raise ContractError(
                        f"checkpoint was saved with {name} = {type(mine)(saved)}, "
                        f"but the model has {name} = {mine}")
        super().load_state(params)

    # -- feature path ---------------------------------------------------------
    def extract_features(self, views: list[CameraView]) -> list[tuple[Tensor, ...]]:
        """Pyramid + receptive-field adaptation for every view.

        A view's features do not depend on which view is the reference, so
        under ``no_grad`` they are kept between calls. Each view is keyed
        by a blake2b digest of its image (in the default dtype), the dtype
        and every parameter of the feature path, so an edited image, a
        dtype switch or any in-place parameter change (an optimizer step,
        ``load_state``, a direct edit) misses. A view's features are kept
        only on its second sighting in a row, and each call replaces the
        memo with its own views: a one-shot call keeps no features, and
        the memo holds at most one call's views (about 0.69 MB per 96x128
        view in float32). Kept arrays are read-only. Across the references
        of one scene, the third call onwards reuses every view's features.
        With gradients on, nothing is hashed, read or kept.
        """
        dtype = ad.get_default_dtype()
        if ad.grad_enabled():
            return [self._features(np.asarray(view.image, dtype=dtype)) for view in views]
        path = hashlib.blake2b(dtype.str.encode())
        for name in FEATURE_MODULES:
            for key, p in getattr(self, name).named_parameters(f"{name}.").items():
                path.update(f"{key}:{p.dtype.str}{p.shape}".encode())
                path.update(np.ascontiguousarray(p.data))
        memo, kept, out = self._feature_memo, {}, []
        for view in views:
            image = np.asarray(view.image, dtype=dtype)
            h = path.copy()
            h.update(f"{image.shape}".encode())
            h.update(np.ascontiguousarray(image))
            key = h.digest()
            feats = memo.get(key)
            if feats is None:
                feats = self._features(image)
                if key in memo:
                    for f in feats:
                        f.data.flags.writeable = False
            kept[key] = feats if key in memo else None
            out.append(feats)
        self._feature_memo = kept
        return out

    def _features(self, image: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        f4, f2, f1 = self.fpn(ad.tensor(image))
        return self.deform_quarter(f4), self.deform_half(f2), self.deform_full(f1)

    def _cost_volume(self, feats: list[Tensor], hyps: DepthHypotheses,
                     views: list[CameraView], scale: float) -> Tensor:
        """Saliency-aggregated correlation of every source against the reference."""
        ref_view = views[0]
        ref_intr = ref_view.intrinsics.scaled(scale)
        planes = hyps.planes(*feats[0].shape[1:]).astype(ad.get_default_dtype())
        # The correlation samples each warp: no warped volume is ever held.
        pairs = [pairwise_correlation(feats[0], warp_source_features(
                     feat, planes, ref_intr, ref_view.extrinsics,
                     view.intrinsics.scaled(scale), view.extrinsics))
                 for feat, view in zip(feats[1:], views[1:])]
        volumes, masks = zip(*pairs)
        return aggregate_correlation(ad.stack(volumes), np.stack(masks))

    def __call__(self, views: list[CameraView]) -> list[StageOutput]:
        """Run the cascade; views[0] is the reference."""
        if len(views) < 2:
            raise ContractError("cascade needs a reference plus at least one source view")
        cfg = self.config.cascade
        d_min, d_max = cfg.d_min, cfg.d_max
        pathway = self.config.use_pathway

        # One feature list per scale, coarse first. Each is dropped once its
        # stage has read it (the feature memo may still hold it), and a
        # stage's features are dropped before its regularizer runs unless the
        # pathway carries them to the next stage.
        scales = [list(scale) for scale in zip(*self.extract_features(views))]
        merges = (None, self.path_half, self.path_full)
        regs = (self.reg1, self.reg2, self.reg3)

        outputs: list[StageOutput] = []
        for s in range(3):
            if s == 0:
                # Stage 1: global uniform sweep on the transformed quarter-scale features.
                feats = self.matcher(scales.pop(0))
                hyps = sample_hypotheses_initial(d_min, d_max, cfg.counts[0])
            else:
                # Stages 2-3: pathway-merged features, per-pixel refined hypotheses.
                feats = ([merges[s](c, r) for c, r in zip(feats, scales.pop(0))] if pathway
                         else scales.pop(0))
                # A constant float64 tensor: no tape node, full depth precision.
                prev_depth = ad.upsample_bilinear_2x(
                    ad.tensor(outputs[-1].estimate.depth[None], dtype=np.float64)).data[0]
                hyps = refine_hypotheses(prev_depth, cfg.counts[s], cfg.decays[s],
                                         hyps.interval, d_min, d_max)
            volume = self._cost_volume(feats, hyps, views, STAGE_SCALES[s])
            if not (pathway and scales):
                feats = None
            prob = probability_volume(regs[s](volume))
            outputs.append(StageOutput(s + 1, prob, hyps, winner_take_all(prob, hyps)))
        return outputs
