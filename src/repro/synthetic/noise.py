"""X-ray quantum and electronic noise.

Fluoroscopy runs at low dose, so quantum (photon-counting) noise
dominates: the variance of a pixel is proportional to its signal.  We
use the standard Gaussian approximation of Poisson statistics --
``sigma = sqrt(I / dose)`` -- plus a small signal-independent
electronic noise floor.  The ``dose`` knob is the main SNR control and
one of the content drivers of short-term computation-time fluctuation
(noisier frames yield more spurious ridge/marker candidates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = ["NoiseSpec", "apply_xray_noise"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise parameters.

    Attributes
    ----------
    dose:
        Relative photon dose; larger is cleaner.  Quantum noise sigma
        is ``sqrt(I) * quantum_scale / sqrt(dose)``.
    quantum_scale:
        Overall quantum-noise magnitude at ``dose == 1``.
    electronic_sigma:
        Signal-independent additive Gaussian noise.
    """

    dose: float = 1.0
    quantum_scale: float = 0.03
    electronic_sigma: float = 0.005

    def __post_init__(self) -> None:
        if self.dose <= 0:
            raise ValueError("dose must be positive")


def apply_xray_noise(
    clean: NDArray[np.float32],
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> NDArray[np.float32]:
    """Return a noisy copy of ``clean`` (values clipped to [0, 1]).

    The input is the noiseless detected intensity in [0, 1]; output has
    quantum noise with per-pixel variance proportional to intensity and
    an additive electronic floor.
    """
    clean = np.asarray(clean, dtype=np.float32)
    sigma_q = spec.quantum_scale / np.sqrt(spec.dose)
    # Quantum and electronic components are independent Gaussians, so
    # their sum is a single Gaussian with the combined variance -- one
    # draw suffices (halves the RNG cost of frame rendering).
    var = np.clip(clean, 0.0, None)
    var *= np.float32(sigma_q**2)
    var += np.float32(spec.electronic_sigma**2)
    noisy = rng.standard_normal(clean.shape).astype(np.float32)
    noisy *= np.sqrt(var, out=var)
    # Float addition commutes exactly: noise + clean == clean + noise.
    noisy += clean
    np.clip(noisy, 0.0, 1.0, out=noisy)
    return noisy
