#!/usr/bin/env python3
"""The repository's benchmark: one run of one workload, end to end or traced.

    python3 perfbench/run.py --workload dense-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates (once per workload and
seed, in a separate process) its input corpus under ``perfbench/.corpus``,
measures, checks every output against a reference digest, writes a record
to ``perfbench/.out`` and prints every metric by name with its unit.  The
last line of standard output is the machine-readable result::

    {"correct": true, "attempted": 56, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``perfbench/.out``).
``--write-definition`` regenerates ``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 20

#: name -> why the workload exists (which layers it stresses).
WORKLOADS = {
    "dense-scan": "in-memory 6 MB scans, every pixel on, d_cutoff 0: the fused kernel is "
                  "nearly all of a serial run and threads x2 beat serial; kernel and "
                  "executor changes show here",
    "sparse-stream": "49 MB scans streamed 4 rows per window, half masked, d_cutoff 1: "
                     "window reads and engine passes dominate and threads lose to serial; "
                     "io, engine and band-size changes show here",
    "serve-readwrite": "live repro-serve daemon: cache-first hits beside computes that "
                       "collapse and store; the only workload for fingerprint, cache "
                       "read/write and the serve layers",
}

#: (name, unit, better, bound).  The two latency metrics name what they
#: time on each kind of workload: a cold serial / threads x2 Session.run on
#: the scan workloads, a cache-hit request / a collapsed cold pair on serve.
#: Times and rates are reported at the reference host speed (see
#: ``measure.REFERENCE_CALIBRATION_S``); each record keeps the raw reading.
END_TO_END = (
    ("serial_or_hit_p50_s", "s", "lower", 0.25),
    ("threads_or_cold_p50_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better) of the traced run's layer metrics.
PER_LAYER = (
    ("kernel.busy_s", "s", "lower"),
    ("kernel.active_elements", "count", "lower"),
    ("kernel.active_share", "ratio", "higher"),
    ("kernel.us_per_active_element", "us", "lower"),
    ("kernel.computed_mb", "MB", "lower"),
    ("io.read_s", "s", "lower"),
    ("io.read_mb", "MB", "lower"),
    ("io.reads", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.chunks", "count", "lower"),
    ("backend.exec_s", "s", "lower"),
    ("backend.dispatches", "count", "lower"),
    ("backend.speedup", "ratio", "higher"),
    ("source.fingerprint_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.entry_mb", "MB", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("ops.apply_s", "s", "lower"),
    ("session.self_s", "s", "lower"),
    ("serve.http_rtt_s", "s", "lower"),
    ("serve.admit_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.polls_per_cold", "count", "lower"),
    ("serve.computed", "count", "lower"),
    ("serve.collapsed", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def definition() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------------------- #
def ensure_corpus(workload: str, seed: int):
    """The corpus directory of (workload, seed), generated in a child process.

    Only the current corpus of each workload is kept on disk.  Every file
    is re-hashed against the manifest, which also leaves the files in the
    page cache, so no run starts on a cold disk.
    """
    import corpus

    base = os.path.join(HERE, ".corpus")
    name = f"{workload}-{seed}-{corpus.corpus_key(workload, seed)}"
    target = os.path.join(base, name)
    if not os.path.isfile(os.path.join(target, "manifest.json")):
        staging = f"{target}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "corpus.py"), "--workload",
                        workload, "--seed", str(seed), "--out", staging],
                       check=True, cwd=ROOT, timeout=600)
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
        # write the new files back now, not during the measured loops
        os.sync()
    for other in os.listdir(base):
        if other.startswith(f"{workload}-") and other != name:
            shutil.rmtree(os.path.join(base, other), ignore_errors=True)
    with open(os.path.join(target, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for entry in manifest["files"]:
        actual = corpus.file_sha256(os.path.join(target, entry["name"]))
        if actual != entry["sha256"]:
            raise RuntimeError(f"corpus file {entry['name']} does not match its manifest")
    return target, manifest


def _format(name: str, metric: dict) -> str:
    notes = []
    if metric.get("raw", metric["value"]) != metric["value"]:
        notes.append(f"raw {metric['raw']:.6g}")
    if "n" in metric:
        notes.append(f"n={metric['n']}")
    if "iqr_share" in metric:
        notes.append(f"IQR {100 * metric['iqr_share']:.1f}%")
    extra = f" ({', '.join(notes)})" if notes else ""
    return f"  {name} = {metric['value']:.6g} {metric['unit']}{extra}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-definition", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_definition:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(definition(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # one BLAS thread (set before numpy loads; children inherit it): the
    # workloads allow at most two threads, and both belong to the program
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro source tree under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    started = time.time()
    corpus_dir, manifest = ensure_corpus(args.workload, args.seed)
    paths = [os.path.join(corpus_dir, entry["name"]) for entry in manifest["files"]]

    import measure

    calibration = measure.Calibration()
    cpu_before = measure.cpu_times()
    if args.workload == "serve-readwrite":
        from serve_workload import ServeRun

        work_dir = os.path.join(HERE, ".work", f"serve-{os.getpid()}")
        run = ServeRun(ROOT, work_dir, paths, args.seed, args.seconds, bool(args.trace),
                       calibration)
        try:
            run.run()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    else:
        from scan_workloads import WORKLOADS as SCANS, ScanRun

        run = ScanRun(SCANS[args.workload], paths, args.seed, args.seconds,
                      bool(args.trace), calibration)
        run.run()

    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    e2e = run.end_to_end()
    if args.trace:
        layers = run.per_layer()
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _b in PER_LAYER}
    else:
        layers = None
        metrics = {name: {"value": float(e2e[name]["value"]), "unit": unit}
                   for name, unit, _b, _bound in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "machine": measure.machine_block(
            calibration, measure.host_share(cpu_before, measure.cpu_times())),
        "inputs": [{"name": e["name"], "sha256": e["sha256"], "bytes": e["bytes"],
                    "shape": e["shape"]} for e in manifest["files"]],
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / max(1, run.attempted),
        "failures": run.failures,
        "setup_samples_s": run.setup_s,
        "timed_attempts_host_cpu": run.attempts,
        "samples_s": run.samples(),
    }
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(run.tracer.to_json(), fh)

    calib = record["machine"]["calibration"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"(nproc={record['machine']['nproc']}, calibration p50 {1e3 * calib['p50']:.2f} ms "
          f"vs reference {1e3 * calib['reference_p50']:.2f} ms, IQR "
          f"{100 * calib['iqr_share']:.1f}%, n={calib['n']})")
    for name, metric in (metrics.items() if args.trace else e2e.items()):
        if name.startswith("_"):
            continue
        print(_format(name, metric))
    tail = e2e.get("_hit_tail_s")
    if tail:
        print(f"  hit_p{tail['pct']:g}_s = {tail['value']:.6g} s (n={tail['n']}, "
              f"{tail['beyond']} beyond)")
    print(f"  error_rate = {record['error_rate']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    print(f"  record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # any crash is a failed run: no result line, non-zero exit
        traceback.print_exc()
        sys.exit(1)
