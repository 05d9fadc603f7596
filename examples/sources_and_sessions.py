"""One front door: ``repro.open()`` sources and the fluent ``repro.session()``.

Run with::

    python examples/sources_and_sessions.py

What it does
------------
1. simulates a small wire-scan stack and saves three copies as files;
2. opens the *same data* four different ways — in-memory stack, single
   file, glob of files, bare ndarray + geometry — and shows that one
   session API reconstructs them all;
3. forks an immutable session fluently (backend, layout, window rows) and
   proves the file run, which always streams its scan from disk, is
   bit-identical to the in-memory run at any window size;
4. runs the glob as a batch through ``run_many`` and prints the aggregated
   report;
5. prints the run's JSON provenance record (config snapshot, plan,
   timings, source identity) — the observability payload every run carries.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.io import save_wire_scan
from repro.synthetic import make_point_source_stack


def main() -> None:
    stack, _source = make_point_source_stack(depth=40.0, n_rows=8, n_cols=6, n_positions=61)
    grid = repro.DepthGrid.from_range(0.0, 100.0, 40)

    workdir = tempfile.mkdtemp(prefix="repro_sources_")
    paths = []
    for index in range(3):
        path = os.path.join(workdir, f"scan_{index}.h5lite")
        save_wire_scan(path, stack)
        paths.append(path)
    print(f"wrote {len(paths)} scan files to {workdir}")

    # 1. one immutable session, forked fluently — each call returns a new one
    base = repro.session(grid=grid)
    gpu = base.on("gpusim", layout="pointer3d")
    streamed = gpu.stream(rows_per_chunk=4)
    print(f"base session backend:     {base.backend_name}")
    print(f"forked session backend:   {gpu.backend_name} "
          f"(layout={gpu.config.layout}, rows per window={streamed.config.rows_per_chunk})")

    # 2. source polymorphism: the same session runs anything repro.open() takes
    from_stack = gpu.run(repro.open(stack))
    from_file = gpu.run(paths[0])                     # open() is applied implicitly
    from_array = gpu.run(repro.open(
        stack.images, scan=stack.scan, detector=stack.detector, beam=stack.beam
    ))
    from_stream = streamed.run(paths[0])
    print("\nsame data, four sources, one API:")
    for label, run in [("stack", from_stack), ("file", from_file),
                       ("ndarray", from_array), ("file (4-row windows)", from_stream)]:
        identical = np.array_equal(run.result.data, from_stack.result.data)
        print(f"  {label:<20s} kind={run.source['kind']:<6s} "
              f"wall={run.report.wall_time:.4f}s bit-identical={identical}")

    # 3. a glob is a batch: run_many schedules it on a worker pool
    batch = streamed.run_many(os.path.join(workdir, "scan_*.h5lite"),
                              max_workers=3, keep_results=False)
    print(f"\nbatch: {batch.n_ok}/{batch.n_files} ok, "
          f"{batch.throughput_files_per_second:.1f} files/s "
          f"on {batch.max_workers} workers")

    # 4. every run carries its provenance — reproducible from the snapshot
    print("\nprovenance record of the 4-row-window run:")
    print(from_stream.to_json())

    snapshot = from_stream.config.to_dict()
    replay = repro.session(config=repro.ReconstructionConfig.from_dict(snapshot)).run(paths[0])
    print(f"\nreplayed from config snapshot, bit-identical: "
          f"{np.array_equal(replay.result.data, from_stream.result.data)}")

    # 5. the pluggable registry behind .on(...)
    print("\nregistered backends:")
    for info in repro.backends():
        print(f"  {info.name:<14s} {info.description}")


if __name__ == "__main__":
    main()
