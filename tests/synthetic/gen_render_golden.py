"""Regenerate the synthetic-rendering pixel golden.

Usage::

    PYTHONPATH=src python tests/synthetic/gen_render_golden.py

Writes ``tests/synthetic/golden/render_golden.json``: the sha256 of
every static phantom layer and of every rendered frame of a small
corpus per registered workload (two base seeds each), plus short
sequences at odd frame geometries.  ``test_render_golden.py`` renders
the same corpora and requires every digest to match, pinning that the
synthesis kernels produce the same pixels byte for byte.

The committed golden file was produced by the scipy-interpolation
renderer (``ndimage.shift`` translation, ``ndimage.zoom`` background,
full-frame tube canvases).  Only regenerate it when a deliberate
change to the rendered pixels is made, and say so in the commit
message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from repro.synthetic import CorpusSpec, SequenceConfig, XRaySequence, corpus_configs
from repro.workloads import get_workload

OUT = Path(__file__).parent / "golden" / "render_golden.json"

#: Per workload: 2 base seeds x 3 sequences = 6 sequences of ~60 frames.
WORKLOADS = ("stentboost", "robotvision", "ultrasound")
SEEDS = (0, 2009)
N_SEQUENCES = 3
TOTAL_FRAMES = 180

#: Odd (width, height) geometries: non-square, non-power-of-two and a
#: background zoom whose coarse grid does not divide the frame.
GEOMETRIES = ((64, 49), (100, 76), (333, 250))
GEOMETRY_SEED = 7
GEOMETRY_FRAMES = 40

LAYERS = ("background", "vessels", "clutter", "stent", "wire")


def digest(a: NDArray[np.generic]) -> str:
    """sha256 over dtype, shape and C-order bytes of ``a``."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def corpora() -> dict[str, list[SequenceConfig]]:
    """Named config lists covered by the golden (deterministic)."""
    out: dict[str, list[SequenceConfig]] = {}
    for name in WORKLOADS:
        wl = get_workload(name)
        for seed in SEEDS:
            spec = CorpusSpec(N_SEQUENCES, TOTAL_FRAMES, base_seed=seed)
            out[f"{name}/seed{seed}"] = wl.corpus_configs(spec)
    for w, h in GEOMETRIES:
        spec = CorpusSpec(
            2, GEOMETRY_FRAMES, width=w, height=h, base_seed=GEOMETRY_SEED
        )
        out[f"geometry/{w}x{h}"] = corpus_configs(spec)
    return out


def render(cfg: SequenceConfig) -> dict[str, object]:
    """Digests of one sequence's phantom layers and frames."""
    seq = XRaySequence(cfg)
    return {
        "phantom": {k: digest(getattr(seq.phantom, k)) for k in LAYERS},
        "frames": [digest(seq.frame(k)[0]) for k in range(len(seq))],
    }


def main() -> None:
    doc = {
        name: [render(cfg) for cfg in configs]
        for name, configs in corpora().items()
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    n = sum(len(s["frames"]) for seqs in doc.values() for s in seqs)
    print(f"wrote {OUT} ({n} frames)")


if __name__ == "__main__":
    main()
