"""Out-of-core streaming and multi-file batch scheduling.

Run with::

    python examples/streaming_batch.py

What it does
------------
1. generates a few synthetic wire-scan files on disk;
2. reconstructs one scan twice — its stack in memory, then its file, which
   is streamed from disk a few detector rows at a time — and shows the
   results are bit-identical while the file run never held the full cube;
3. schedules the whole directory as a batch on a worker pool (one file is
   deliberately corrupt to show per-file error isolation) and prints the
   aggregated batch report.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.core import DepthGrid, ReconstructionConfig, execute_backend
from repro.core.session import session
from repro.io import StreamingWireScanSource, save_wire_scan
from repro.perf.reporting import format_batch_table
from repro.synthetic.workloads import make_point_source_stack


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro_batch_")
    grid = DepthGrid.from_range(0.0, 100.0, 40)

    # 1. a few scan files with emitters at different depths
    paths, stacks = [], []
    for index, depth in enumerate((25.0, 40.0, 60.0)):
        stack, _source = make_point_source_stack(depth=depth, n_rows=12, n_cols=8, n_positions=81)
        path = os.path.join(workdir, f"scan_{index}.h5lite")
        save_wire_scan(path, stack)
        paths.append(path)
        stacks.append(stack)
    print(f"wrote {len(paths)} scan files to {workdir}")

    # 2. in-memory stack vs streamed file: identical results, bounded memory
    config = ReconstructionConfig(grid=grid, backend="vectorized", rows_per_chunk=3)
    in_memory = session(config=config).run(stacks[0])

    source = StreamingWireScanSource(paths[0])
    streamed_result, streamed_report = execute_backend(source, config)
    accounting = source.accounting()
    print(f"\nin-memory: {in_memory.report.wall_time:.4f} s wall")
    print(f"streamed:  {streamed_report.wall_time:.4f} s wall, "
          f"{streamed_report.n_chunks} chunk(s), "
          f"peak {accounting['max_resident_rows']} row(s) resident "
          f"of {source.n_rows} total")
    print(f"bit-identical: {np.array_equal(streamed_result.data, in_memory.result.data)}")

    # 3. batch the directory (with one corrupt file mixed in)
    broken = os.path.join(workdir, "broken.h5lite")
    with open(broken, "wb") as fh:
        fh.write(b"this is not a wire scan")
    batch = session(grid=grid, backend="vectorized").run_many(
        paths + [broken],
        max_workers=3,
        output_dir=os.path.join(workdir, "depth"),
        keep_results=False,
    )
    print()
    print(format_batch_table(batch))


if __name__ == "__main__":
    main()
