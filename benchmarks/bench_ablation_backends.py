"""Ablation A2 — every execution backend and executor on one workload.

Puts the paper's two contenders (scalar CPU program, CUDA-style design) next
to two alternatives a practitioner would consider before porting to a GPU:
host-vectorised NumPy, serial and on the ``threads`` executor (row bands on a
thread pool).  All four produce identical results (asserted in the
test-suite); only the time differs.
"""

import pytest

from _bench_utils import SeriesCollector, run_and_time

#: variant label -> (backend, config overrides)
VARIANTS = {
    "cpu_reference": ("cpu_reference", {}),
    "vectorized": ("vectorized", {}),
    "gpusim": ("gpusim", {}),
    "vectorized+threads": ("vectorized", {"executor": "threads", "n_workers": 2}),
}

collector = SeriesCollector("Ablation: execution backends (2.7G-scaled workload)", x_label="backend")


@pytest.mark.parametrize("variant", VARIANTS)
def test_backend_sweep(benchmark, workload_cache, variant):
    workload = workload_cache("2.7G")
    backend, overrides = VARIANTS[variant]
    seconds = benchmark.pedantic(
        run_and_time, args=(workload, backend), kwargs=overrides, rounds=1, iterations=1, warmup_rounds=0
    )
    collector.add(variant, "wall seconds", seconds)
    benchmark.extra_info["n_elements"] = workload.n_elements


def test_backend_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if "cpu_reference" not in collector.series or "gpusim" not in collector.series:
        pytest.skip("sweep benchmarks did not run (run the whole file)")
    cpu = collector.series["cpu_reference"]["wall seconds"]
    gpu = collector.series["gpusim"]["wall seconds"]
    assert gpu < cpu, "the GPU-style design must beat the scalar CPU baseline"
    print(collector.report([
        "",
        "cpu_reference is the paper's baseline; gpusim is the paper's design;",
        "vectorized (serial and on threads) is the host-side alternative the paper does not evaluate.",
    ]))
