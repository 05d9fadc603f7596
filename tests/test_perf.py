"""Unit tests for the perf subpackage (metrics, sweeps, reporting, model runs)."""

import numpy as np
import pytest

from repro.perf.metrics import relative_change, speedup, summarize_ratio_range, time_ratio
from repro.perf.modelruns import (
    PAPER_FIG8_CPU_SECONDS,
    PAPER_FIG8_GPU_SECONDS,
    paper_scale_prediction,
    predict_figure8,
    predict_figure9,
)
from repro.perf.reporting import format_figure_report, format_series_table, records_to_series
from repro.perf.sweep import SweepRecord, run_backend_sweep
from repro.synthetic.workloads import make_benchmark_workload


class TestMetrics:
    def test_speedup_and_ratio_are_inverses(self):
        assert np.isclose(speedup(10.0, 2.5), 4.0)
        assert np.isclose(time_ratio(2.5, 10.0), 0.25)

    def test_paper_headline_ratio_range(self):
        pairs = [
            (PAPER_FIG8_GPU_SECONDS[k], PAPER_FIG8_CPU_SECONDS[k]) for k in PAPER_FIG8_CPU_SECONDS
        ]
        summary = summarize_ratio_range(pairs)
        # the big data sets reach the paper's quoted 25-30 % band
        assert summary["min"] < 0.30
        assert summary["max"] < 0.50
        assert summary["count"] == 4

    def test_relative_change(self):
        assert np.isclose(relative_change(10.0, 12.0), 0.2)
        with pytest.raises(ValueError):
            relative_change(0.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            time_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            summarize_ratio_range([])


class TestSweepAndReporting:
    @pytest.fixture(scope="class")
    def records(self):
        workload = make_benchmark_workload("2.1G", scale=1.0 / 65536.0, seed=9)
        return run_backend_sweep([workload], ["vectorized", "gpusim"])

    def test_sweep_produces_one_record_per_pair(self, records):
        assert len(records) == 2
        assert {r.backend for r in records} == {"vectorized", "gpusim"}
        for record in records:
            assert record.wall_time > 0
            assert record.n_elements > 0

    def test_records_to_series_pivot(self, records):
        series = records_to_series(records)
        assert "2.1G" in series
        assert set(series["2.1G"]) == {"vectorized", "gpusim"}

    def test_series_table_formatting(self, records):
        series = records_to_series(records)
        table = format_series_table(series, x_label="dataset")
        assert "dataset" in table
        assert "vectorized" in table and "gpusim" in table
        assert "2.1G" in table

    def test_figure_report_contains_title(self, records):
        report = format_figure_report("Fig. X test", records, extra_lines=["note line"])
        assert "Fig. X test" in report
        assert "note line" in report

    def test_missing_variant_renders_dash(self):
        record = SweepRecord(
            workload="w", backend="a", pixel_fraction=1.0, data_bytes=1, n_elements=1,
            wall_time=1.0, simulated_time=0.0, transfer_time=0.0, compute_time=1.0,
        )
        table = format_series_table({"w": {"a": 1.0}}, x_label="x", variants=["a", "b"])
        assert "-" in table
        assert record.as_dict()["backend"] == "a"

    def test_sweep_config_overrides(self):
        workload = make_benchmark_workload("2.1G", scale=1.0 / 65536.0, seed=9)
        records = run_backend_sweep(
            [workload], ["gpusim"], config_overrides={"gpusim": {"layout": "pointer3d"}}
        )
        assert records[0].layout == "pointer3d"

    def test_sweep_validates_repeats(self):
        with pytest.raises(ValueError):
            run_backend_sweep([], ["vectorized"], repeats=0)


class TestPaperScaleModel:
    def test_gpu_faster_than_cpu_at_paper_scale(self):
        prediction = paper_scale_prediction("5.2G", 5.2 * 1024**3)
        assert prediction.gpu_seconds < prediction.cpu_seconds
        assert 0.0 < prediction.gpu_over_cpu < 1.0

    def test_figure8_series_monotonic_in_size(self):
        series = predict_figure8()
        cpu_times = [series[k].cpu_seconds for k in ("2.1G", "2.7G", "3.6G", "5.2G")]
        gpu_times = [series[k].gpu_seconds for k in ("2.1G", "2.7G", "3.6G", "5.2G")]
        assert all(np.diff(cpu_times) > 0)
        assert all(np.diff(gpu_times) > 0)

    def test_figure8_gpu_scales_flatter_than_cpu(self):
        series = predict_figure8()
        cpu_growth = series["5.2G"].cpu_seconds / series["2.1G"].cpu_seconds
        gpu_growth = series["5.2G"].gpu_seconds / series["2.1G"].gpu_seconds
        assert gpu_growth <= cpu_growth + 1e-9

    def test_figure8_ratio_in_paper_band(self):
        series = predict_figure8()
        for prediction in series.values():
            assert 0.1 <= prediction.gpu_over_cpu <= 0.5

    def test_figure9_cpu_grows_with_pixel_fraction(self):
        series = predict_figure9()
        assert series["25%"].cpu_seconds < series["50%"].cpu_seconds < series["100%"].cpu_seconds
        assert series["25%"].gpu_seconds <= series["100%"].gpu_seconds

    def test_cpu_magnitudes_comparable_to_paper(self):
        # order-of-magnitude sanity: modelled CPU time within 3x of Fig. 8
        series = predict_figure8()
        for label, paper_seconds in PAPER_FIG8_CPU_SECONDS.items():
            modelled = series[label].cpu_seconds
            assert paper_seconds / 3.0 <= modelled <= paper_seconds * 3.0
