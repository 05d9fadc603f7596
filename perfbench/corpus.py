"""Seeded, hash-seed-independent input corpus for the benchmark workloads.

Every scan is built from the public ``repro.synthetic`` / ``repro.geometry``
pieces with a random generator seeded from ``(GENERATOR_VERSION, workload
index, seed, file index)`` -- plain integers, never ``hash()`` -- so the
same arguments give byte-identical ``.h5lite`` files in every process.

Run as a script it generates one workload's corpus into a directory and
writes ``manifest.json`` (file names, shapes, SHA-256 digests)::

    python3 perfbench/corpus.py --workload dense-scan --seed 1 --out DIR

The measuring process never generates: it only reads the files, so neither
generation time nor generation memory reaches its metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

#: Bumped whenever the generator's output bytes change on purpose.
GENERATOR_VERSION = 1

#: Depth range (µm) and bin count shared by every workload.
DEPTH_RANGE: Tuple[float, float] = (0.0, 100.0)
N_DEPTH_BINS = 40


@dataclass(frozen=True)
class CorpusSpec:
    """The generator arguments of one workload's corpus."""

    index: int
    n_files: int
    n_positions: int
    n_rows: int
    n_cols: int
    n_spots: int
    pixel_fraction: float
    spot_peak: float = 2000.0
    spot_sigma_px: float = 1.5


# 6.0 MB cubes carry 12 spots per MB; the 49 MB streamed cubes are sparse
# on purpose (16 spots, half the pixels masked), so their cost is dominated
# by the bytes read and scanned rather than by active elements.
SPECS: Dict[str, CorpusSpec] = {
    "dense-scan": CorpusSpec(index=1, n_files=4, n_positions=49, n_rows=87, n_cols=176,
                             n_spots=72, pixel_fraction=1.0),
    "sparse-stream": CorpusSpec(index=2, n_files=4, n_positions=51, n_rows=200, n_cols=600,
                                n_spots=16, pixel_fraction=0.5),
    "serve-readwrite": CorpusSpec(index=3, n_files=4, n_positions=49, n_rows=87, n_cols=176,
                                  n_spots=72, pixel_fraction=0.25),
}


def corpus_key(workload: str, seed: int) -> str:
    """Stable identifier of (generator, arguments, seed)."""
    payload = json.dumps(
        {"version": GENERATOR_VERSION, "workload": workload, "seed": int(seed),
         "spec": asdict(SPECS[workload]), "depth_range": DEPTH_RANGE},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def file_sha256(path: str) -> str:
    """SHA-256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def make_stack(spec: CorpusSpec, seed: int, file_index: int):
    """One deterministic wire-scan stack of *spec*."""
    import numpy as np

    from repro.geometry.beam import Beam
    from repro.geometry.detector import Detector
    from repro.geometry.wire import Wire
    from repro.synthetic.forward_model import design_scan_for_depth_range, simulate_wire_scan
    from repro.synthetic.sample import DepthSourceField

    rng = np.random.default_rng([GENERATOR_VERSION, spec.index, int(seed), file_index])
    detector = Detector(n_rows=spec.n_rows, n_cols=spec.n_cols, pixel_size=200.0,
                        distance=510_000.0)
    lo, hi = DEPTH_RANGE
    n_depths = 2 * N_DEPTH_BINS
    depths = np.linspace(lo, hi, n_depths, endpoint=False) + (hi - lo) / n_depths / 2.0

    # Laue-like spots: a Gaussian blob on the detector emitting from one
    # Gaussian depth band, one draw order fixed per spot
    source = np.zeros((n_depths, spec.n_rows, spec.n_cols))
    rows = np.arange(spec.n_rows, dtype=np.float64)[:, None]
    cols = np.arange(spec.n_cols, dtype=np.float64)[None, :]
    for _ in range(spec.n_spots):
        row, col = rng.uniform(0, spec.n_rows - 1), rng.uniform(0, spec.n_cols - 1)
        center, half_width = rng.uniform(lo, hi), rng.uniform(0.03, 0.15) * (hi - lo)
        weights = np.exp(-0.5 * ((depths - center) / half_width) ** 2)
        weights /= weights.sum()
        blob = np.exp(-0.5 * ((rows - row) ** 2 + (cols - col) ** 2) / spec.spot_sigma_px ** 2)
        source += (spec.spot_peak * rng.uniform(0.3, 1.0)) * weights[:, None, None] * blob

    mask = None
    if spec.pixel_fraction < 1.0:
        n_pixels = spec.n_rows * spec.n_cols
        flat = np.zeros(n_pixels, dtype=bool)
        flat[rng.permutation(n_pixels)[: int(round(spec.pixel_fraction * n_pixels))]] = True
        mask = flat.reshape(spec.n_rows, spec.n_cols)

    scan = design_scan_for_depth_range(detector, DEPTH_RANGE, wire=Wire(radius=26.0),
                                       n_points=spec.n_positions)
    return simulate_wire_scan(
        DepthSourceField(depth_samples=depths, source=source), scan, detector, Beam(),
        pixel_mask=mask,
        metadata={"generator": "perfbench", "generator_version": GENERATOR_VERSION,
                  "seed": int(seed), "file_index": file_index},
    )


def generate(workload: str, seed: int, out_dir: str) -> Dict:
    """Write *workload*'s corpus for *seed* into *out_dir*; return the manifest."""
    from repro.io.image_stack import save_wire_scan

    spec = SPECS[workload]
    os.makedirs(out_dir, exist_ok=True)
    files: List[Dict] = []
    for file_index in range(spec.n_files):
        name = f"scan{file_index}.h5lite"
        path = os.path.join(out_dir, name)
        stack = make_stack(spec, seed, file_index)
        save_wire_scan(path, stack)
        files.append({"name": name, "shape": list(stack.shape),
                      "bytes": os.path.getsize(path), "sha256": file_sha256(path)})
        del stack
    manifest = {"workload": workload, "seed": int(seed), "key": corpus_key(workload, seed),
                "generator_version": GENERATOR_VERSION, "spec": asdict(spec),
                "files": files}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
