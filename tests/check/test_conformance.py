"""Tests for the differential conformance registry.

The registry is only as good as its coverage and its honesty: it must
enumerate every transform family, hold each row to the documented
tolerance, fail loudly (not skip) when an entry point crashes, and the
edge-geometry sweep must stay inside the Theorem-2 budget at every
boundary configuration.
"""

import json
import math

import numpy as np
import pytest

from repro.check import (
    EXACT_ULP_FACTOR,
    SOI_BUDGET_SAFETY,
    edge_geometries,
    exact_tolerance,
    run_conformance,
    soi_tolerance,
)
from repro.check.conformance import ConformanceReport, _bitwise_row, _oracle_row
from repro.core import SoiPlan, soi_fft
from repro.core.accuracy import error_budget


class TestTolerances:
    def test_exact_tolerance_scales_with_log_n(self):
        eps = np.finfo(np.float64).eps
        assert exact_tolerance(256) == EXACT_ULP_FACTOR * eps * 8.0
        assert exact_tolerance(1024) > exact_tolerance(256)

    def test_soi_tolerance_is_safety_times_budget(self):
        plan = SoiPlan(n=4096, p=8)
        budget = error_budget(plan)["modelled_relative_error"]
        assert soi_tolerance(plan) == SOI_BUDGET_SAFETY * budget


class TestRowMechanics:
    def test_crashing_entry_point_is_a_failure_not_a_skip(self):
        report = ConformanceReport("small")

        def boom():
            raise RuntimeError("kernel exploded")

        _oracle_row(report, "boom", "dft", 8, 1e-12, boom)
        row = report.rows[0]
        assert not row.passed
        assert math.isinf(row.error)
        assert "kernel exploded" in row.detail
        assert not report.ok

    def test_out_of_tolerance_row_fails(self):
        report = ConformanceReport("small")
        _oracle_row(
            report, "off", "dft", 8, 1e-15,
            lambda: (np.ones(8) * 1.001, np.ones(8)),
        )
        assert not report.rows[0].passed

    def test_bitwise_row_rejects_dtype_drift(self):
        """Same values, different dtype: not bitwise equal."""
        report = ConformanceReport("small")
        _bitwise_row(
            report, "drift", "dist", 8,
            lambda: (np.ones(8, np.complex64), np.ones(8, np.complex128)),
        )
        assert not report.rows[0].passed

    def test_bitwise_row_has_zero_tolerance(self):
        report = ConformanceReport("small")
        _bitwise_row(report, "same", "dist", 8, lambda: (np.ones(8), np.ones(8)))
        row = report.rows[0]
        assert row.passed and row.error == 0.0 and row.tolerance == 0.0


class TestRegistry:
    @pytest.fixture(scope="class")
    def report(self):
        return run_conformance("small")

    def test_every_entry_point_passes(self, report):
        assert report.ok, [r.as_dict() for r in report.failures()]

    def test_coverage_floor(self, report):
        """The acceptance floor: at least 12 distinct entry points."""
        assert len(report.rows) >= 12
        names = {r.name for r in report.rows}
        assert len(names) == len(report.rows)  # no duplicate rows

    def test_every_transform_family_is_represented(self, report):
        groups = {r.group for r in report.rows}
        assert {"dft", "nufft", "soi", "soi-edge", "dist"} <= groups

    def test_execute_layout_variants_covered(self, report):
        names = " ".join(r.name for r in report.rows)
        for needle in ("execute_t", "execute_tt", "inverse", "rfft", "irfft",
                       "TransportPolicy", "trace=", "float32"):
            assert needle in names, f"registry lost coverage of {needle}"

    def test_overlap_rows_covered(self, report):
        """The pipelined path is pinned bitwise in the registry: forward
        (both backends), inverse, transport/trace= transparency, and the
        per-phase traffic-totals row."""
        names = " ".join(r.name for r in report.rows)
        for needle in (
            "soi_fft_distributed[overlap=True,numpy]",
            "soi_fft_distributed[overlap=True,repro]",
            "soi_ifft_distributed[overlap=True]",
            "soi_fft_distributed[overlap=True,transport=TransportPolicy()]",
            "soi_fft_distributed[overlap=True,trace=]",
            "soi_overlap_traffic==blocking",
        ):
            assert needle in names, f"registry lost coverage of {needle}"
        overlap_rows = [r for r in report.rows if "overlap" in r.name]
        assert all(r.tolerance == 0.0 for r in overlap_rows)

    def test_report_roundtrips_through_json(self, report):
        d = json.loads(json.dumps(report.as_dict()))
        assert d["schema"] == "repro.check.conformance/1"
        assert d["ok"] is True
        assert d["summary"]["entry_points"] == len(report.rows)
        assert d["summary"]["failed"] == 0

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            run_conformance("enormous")


class TestEdgeGeometries:
    """Satellite sweep: odd segment counts, every beta, minimal N."""

    GEOMETRIES = list(edge_geometries())

    def test_sweep_is_exhaustive(self):
        # 3 windows x 3 betas x 3 odd segment counts.
        assert len(self.GEOMETRIES) == 27
        assert {g["p"] for g in self.GEOMETRIES} == {3, 5, 7}

    @pytest.mark.parametrize(
        "geo", GEOMETRIES,
        ids=[f"{g['window']}-b{g['beta']}-p{g['p']}" for g in GEOMETRIES],
    )
    def test_minimal_geometry_within_theorem2_budget(self, geo):
        plan = SoiPlan(
            n=geo["n"], p=geo["p"], beta=geo["beta"], window=geo["window"]
        )
        # The generator's N really is minimal: one nu-chunk less and the
        # stencil no longer fits a segment.
        assert plan.m == geo["nu"] * math.ceil(geo["b"] / geo["nu"])
        gen = np.random.default_rng(geo["n"] * 31 + geo["p"])
        x = gen.standard_normal(plan.n) + 1j * gen.standard_normal(plan.n)
        ref = np.fft.fft(x)
        err = np.linalg.norm(soi_fft(x, plan) - ref) / np.linalg.norm(ref)
        assert err <= soi_tolerance(plan)

    def test_both_backends_within_budget_on_an_edge_geometry(self):
        """Odd P forces the repro backend through its non-power-of-two
        kernels (mixed-radix / Bluestein for F_7); both backends must
        still land inside the same Theorem-2 bound."""
        geo = next(g for g in self.GEOMETRIES if g["p"] == 7)
        plan = SoiPlan(
            n=geo["n"], p=geo["p"], beta=geo["beta"], window=geo["window"]
        )
        gen = np.random.default_rng(7)
        x = gen.standard_normal(plan.n) + 1j * gen.standard_normal(plan.n)
        ref = np.fft.fft(x)
        for backend in ("numpy", "repro"):
            err = np.linalg.norm(
                soi_fft(x, plan, backend=backend) - ref
            ) / np.linalg.norm(ref)
            assert err <= soi_tolerance(plan), backend
