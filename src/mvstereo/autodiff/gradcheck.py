"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, no_grad

__all__ = ["gradcheck", "max_relative_error"]


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       atol: float = 1e-7) -> float:
    """Worst-case max(|analytic - numeric| - atol, 0) / max(|analytic|, |numeric|, 1):
    relative above magnitude 1, absolute below (0 vs -7.47e-6 scores 7.37e-6)."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max((diff - atol).clip(min=0.0) / scale))


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
              h: float = 1e-5, rtol: float = 1e-4, max_entries: int | None = 24,
              rng: np.random.Generator | None = None, pooled: bool = False) -> float:
    """Compare reverse-mode gradients of ``fn(*inputs)`` with central differences.

    ``fn`` must return a scalar tensor. By default each requires-grad input
    is probed either exhaustively or at ``max_entries`` randomly chosen
    coordinates. With ``pooled``, ``max_entries`` probes are drawn across
    all requires-grad inputs, each tensor with probability proportional to
    its size, for a function of many parameters (a whole model).

    The functions are piecewise smooth: a probe whose +-h interval
    straddles a kink (a ReLU's, an argmax flip) measures the jump, not a
    derivative. So every probe also differences at h/2 and is skipped when
    the two estimates disagree by more than ``rtol`` under the error measure
    the check applies (a smooth point agrees to O(h^2)), or when a probe
    that would fail has right and left slopes that disagree (a kink at x
    itself fools the h/2 test). A skipped
    random probe is replaced by a new draw: any tensor in pooled mode, an
    unprobed index of the same tensor otherwise. An exhaustive tensor
    cannot redraw, and one left with no smooth probe fails the check.

    Returns the worst ``max_relative_error`` seen (absolute below magnitude
    1) and raises AssertionError if it exceeds ``rtol``. Run under 64-bit
    precision; 32-bit inputs have too little headroom for h = 1e-5.
    """
    rng = rng or np.random.default_rng(0)
    for t in inputs:
        t.zero_grad()
    loss = fn(*inputs)
    if loss.size != 1:
        raise ValueError("gradcheck target must be scalar")
    loss.backward()
    probed = [t for t in inputs if t.requires_grad]
    assert all(t.grad is not None for t in probed), "requires-grad input received no gradient"

    def central(t, i, step):
        """f(x + step) and f(x - step) at flat index ``i``. The forward
        values do not depend on grad mode, so the probes record no tape."""
        flat = t.data.reshape(-1)
        orig = flat[i]
        with no_grad():
            flat[i] = orig + step
            f_plus = fn(*inputs).item()
            flat[i] = orig - step
            f_minus = fn(*inputs).item()
        flat[i] = orig
        return f_plus, f_minus

    worst = 0.0

    def smooth_probe(t, i) -> bool:
        """Check the probe and return True, or return False at a kink."""
        nonlocal worst
        far, near = central(t, i, h), central(t, i, h / 2)
        numeric = (far[0] - far[1]) / (2.0 * h)
        if max_relative_error(numeric, (near[0] - near[1]) / h) > rtol:
            return False
        analytic = float(t.grad.reshape(-1)[i])
        err = max_relative_error(analytic, numeric)
        if err > rtol:
            # At a kink at x both quotients read its midpoint; the slopes differ.
            right, left = (far[0] - near[0]) / (h / 2), (near[1] - far[1]) / (h / 2)
            if max_relative_error(right, left) > rtol:
                return False
            raise AssertionError(
                f"gradient mismatch at flat index {i} of tensor shape {t.shape}: "
                f"analytic={analytic:.8g} numeric={numeric:.8g} rel_err={err:.3g}")
        worst = max(worst, err)
        return True

    if pooled:
        sizes = np.array([t.size for t in probed])
        weights = sizes / sizes.sum()
        accepted = 0
        for _ in range(10 * max_entries):
            t = probed[int(rng.choice(len(probed), p=weights))]
            accepted += smooth_probe(t, int(rng.integers(t.size)))
            if accepted == max_entries:
                return worst
        raise AssertionError("could not find enough smooth probe points")

    for t in probed:
        n = t.size
        if max_entries is None or n <= max_entries:
            coords = list(range(n))
        else:
            coords = [int(i) for i in rng.choice(n, size=max_entries, replace=False)]
        drawn = np.zeros(n, dtype=bool)
        drawn[coords] = True
        accepted = skipped = 0
        while coords:
            if smooth_probe(t, coords.pop(0)):
                accepted += 1
                continue
            skipped += 1
            if not drawn.all():  # an exhaustive tensor has no index left to draw
                i = int(rng.choice(np.flatnonzero(~drawn)))
                drawn[i] = True
                coords.append(i)
        if skipped and not accepted:
            raise AssertionError(
                f"gradient mismatch unresolved: all {skipped} probes of tensor shape "
                f"{t.shape} straddle a kink, so none measures a derivative")
    return worst
