"""Tests for the measured-wall-clock microbenchmark harness.

The quick profile keeps this cheap enough for CI while still exercising
every section of the payload: SOI races (engine vs the frozen pre-PR
baseline), kernel races, the 4-rank distributed timing, and the
consistency block that guards the numerical contract.
"""

import json

import numpy as np
import pytest

from repro.bench import BENCH_SCHEMA, run_micro
from repro.bench.micro import KERNEL_ULP_FACTOR

# Engine vs the frozen seed pipeline, max-abs over max-abs.  The seed
# convolves with one complex einsum, the engine with real banded GEMMs
# (repro.core.convolve): two orders of the same B-term sums, bounded by
# 4 * eps * sqrt(B) at the full window's B = 78 (measured ~1.4e-15);
# the FFT stages' GEMM passes add well under an ulp to that.  Kernel
# rows carry their own 16 * eps * log2 n tolerance; seq == dist stays
# bitwise.
DRIFT_TOL = 8e-15


@pytest.fixture(scope="module")
def payload():
    return run_micro(quick=True, reps=2)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema",
            "config",
            "headline",
            "soi",
            "kernels",
            "distributed",
            "consistency",
        }

    def test_headline_fields(self, payload):
        headline = payload["headline"]
        for key in (
            "name",
            "engine_hit_us",
            "baseline_noreuse_us",
            "baseline_percall_us",
            "speedup",
            "speedup_vs_warm_baseline",
        ):
            assert key in headline
        assert headline["engine_hit_us"] > 0
        assert headline["speedup"] == pytest.approx(
            headline["baseline_noreuse_us"] / headline["engine_hit_us"]
        )

    def test_soi_rows_are_measured(self, payload):
        assert payload["soi"]
        for row in payload["soi"]:
            assert row["engine_hit_us"] > 0
            assert row["baseline_noreuse_us"] > 0
            assert row["engine_vs_baseline_max_rel"] < DRIFT_TOL

    def test_kernel_rows_match_frozen_baseline(self, payload):
        assert payload["kernels"]
        eps = np.finfo(np.float64).eps
        for row in payload["kernels"]:
            assert row["tolerance"] == pytest.approx(
                KERNEL_ULP_FACTOR * eps * np.log2(row["shape"][-1])
            )
            assert row["max_rel_to_baseline"] < row["tolerance"]
            assert row["engine_hit_us"] > 0

    def test_distributed_row(self, payload):
        dist = payload["distributed"]
        assert dist["nranks"] == 4
        assert dist["bitwise_equal_to_sequential"] is True
        assert dist["engine_dist_us"] > 0

    def test_consistency_block(self, payload):
        cons = payload["consistency"]
        assert cons["kernels_within_tolerance"] is True
        assert cons["dist_bitwise_equal_to_sequential"] is True
        assert cons["engine_vs_baseline_max_rel"] < DRIFT_TOL


class TestCliIntegration:
    def test_bench_micro_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["bench-micro", "--bench-quick", "--bench-reps", "1",
                     "--bench-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bench-micro" in text
        written = json.loads(out.read_text())
        assert written["schema"] == BENCH_SCHEMA
