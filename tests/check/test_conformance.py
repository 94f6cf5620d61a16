"""Tests for the differential conformance table.

The table is only as good as its coverage and its honesty: it must
enumerate every transform family, hold each row to the documented
tolerance, fail loudly (not skip) when an entry point crashes, and the
edge-geometry sweep must stay inside the Theorem-2 budget at every
boundary configuration.  Coverage is asserted over the rows' typed
fields, never over substrings of their names.
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
from repro.check.conformance import ConformanceReport, _row
from repro.core import SoiPlan, soi_fft
from repro.core.accuracy import error_budget

#: Rows in the table at every size, and how many of them are bitwise; a
#: change that adds or removes a row changes these pins on purpose.
TABLE_ROWS = 100
BITWISE_ROWS = 47

#: The fields a name carries, besides the options.
NAME_FIELDS = ("n", "engine", "schedule", "rpn", "library", "dtype", "oracle",
               "tol_kind")


def parse_name(name):
    """``entry[k=v,...]`` -> (entry, {k: v}) with string values."""
    entry, bracket, rest = name.partition("[")
    assert bracket and rest.endswith("]"), name
    pairs = [kv.split("=") for kv in rest[:-1].split(",")]
    assert all(len(kv) == 2 for kv in pairs), name
    return entry, dict(pairs)


def select(report, **where):
    """The rows whose fields, or options for keys that are no field,
    equal every given value."""
    fields = set(NAME_FIELDS) | {"entry", "group"}
    return [
        r for r in report.rows
        if all((getattr(r, k) if k in fields else r.options.get(k)) == v
               for k, v in where.items())
    ]


class TestTolerances:
    def test_exact_tolerance_scales_with_log_n(self):
        eps = np.finfo(np.float64).eps
        assert exact_tolerance(256) == EXACT_ULP_FACTOR * eps * 8.0
        assert exact_tolerance(1024) > exact_tolerance(256)

    def test_soi_tolerance_is_safety_times_budget(self):
        plan = SoiPlan(n=4096, p=8)
        budget = error_budget(plan)["modelled_relative_error"]
        assert soi_tolerance(plan) == SOI_BUDGET_SAFETY * budget


def _add(report, compute, tol_kind="exact"):
    _row(report, compute, entry="probe", group="dft", n=8, oracle="numpy.fft",
         tol_kind=tol_kind)
    return report.rows[-1]


class TestRowMechanics:
    def test_crashing_entry_point_is_a_failure_not_a_skip(self):
        report = ConformanceReport("small")

        def boom():
            raise RuntimeError("kernel exploded")

        row = _add(report, boom)
        assert not row.passed
        assert math.isinf(row.error)
        assert "kernel exploded" in row.detail
        assert not report.ok

    def test_out_of_tolerance_row_fails(self):
        row = _add(ConformanceReport("small"), lambda: (np.ones(8) * 1.001, np.ones(8)))
        assert row.tolerance == exact_tolerance(8)
        assert not row.passed

    @pytest.mark.parametrize("got, ref", [
        (np.ones((4, 1)), np.ones(4)),
        (np.ones(4), np.ones(1)),
    ], ids=["column-vs-vector", "vector-vs-scalar"])
    def test_oracle_row_rejects_a_shape_that_only_broadcasts(self, got, ref):
        """An output that merely broadcasts against its oracle is wrong,
        even when every broadcast element matches."""
        row = _add(ConformanceReport("small"), lambda: (got, ref))
        assert not row.passed
        assert math.isinf(row.error)
        assert "shape" in row.detail

    def test_bitwise_row_rejects_dtype_drift(self):
        """Same values, different dtype: not bitwise equal."""
        row = _add(
            ConformanceReport("small"),
            lambda: (np.ones(8, np.complex64), np.ones(8, np.complex128)),
            tol_kind="bitwise",
        )
        assert not row.passed

    def test_bitwise_row_has_zero_tolerance(self):
        row = _add(ConformanceReport("small"), lambda: (np.ones(8), np.ones(8)),
                   tol_kind="bitwise")
        assert row.passed and row.error == 0.0 and row.tolerance == 0.0


class TestRegistry:
    @pytest.fixture(scope="class")
    def report(self):
        return run_conformance("small")

    def test_every_entry_point_passes(self, report):
        assert report.ok, [r.as_dict() for r in report.failures()]

    def test_coverage_floor(self, report):
        """The table keeps its rows, and its bitwise rows at tolerance 0."""
        assert len(report.rows) == TABLE_ROWS
        bitwise = select(report, tol_kind="bitwise")
        assert len(bitwise) == BITWISE_ROWS
        assert all(r.tolerance == 0.0 for r in bitwise)
        assert all(r.tolerance > 0.0 for r in report.rows if r not in bitwise)

    def test_names_are_unique_and_parse_back_to_their_fields(self, report):
        names = [r.name for r in report.rows]
        assert len(set(names)) == len(names)
        for r in report.rows:
            d = r.as_dict()
            assert not set(d["options"]) & set(NAME_FIELDS)
            want = {k: str(d[k]) for k in NAME_FIELDS if d[k] is not None}
            want.update({k: str(v) for k, v in d["options"].items()})
            assert parse_name(r.name) == (r.entry, want)

    def test_every_transform_family_is_represented(self, report):
        groups = {r.group for r in report.rows}
        assert groups == {"dft", "nufft", "soi", "soi-edge", "dist", "resilience",
                          "serve", "a2a", "des"}

    def test_execute_layout_variants_covered(self, report):
        assert select(report, group="dft", entry="FftPlan.execute_tt",
                      oracle="numpy.fft")
        assert select(report, group="dft", entry="FftPlan.execute_tt",
                      tol_kind="bitwise")
        assert select(report, group="dft", entry="FftPlan.execute", inverse=True)
        assert select(report, entry="dft.ifft")
        assert select(report, entry="dft.rfft") and select(report, entry="dft.irfft")
        assert select(report, entry="dft.fft", dtype="float32", tol_kind="bitwise")
        assert select(report, group="dist", transport=True, overlap=None)
        assert select(report, group="dist", trace=True, overlap=None)
        assert {r.options["kernel"] for r in select(report, entry="FftPlan.execute")} \
            >= {"mixed_radix", "bluestein"}

    def test_overlap_rows_covered(self, report):
        """The pipelined path is pinned bitwise: forward (both libraries),
        inverse, transport/trace= transparency and the per-phase traffic
        totals; every overlap row is held to tolerance 0."""
        plain = select(report, group="dist", oracle="plain", overlap=True)
        assert {r.library for r in plain if r.entry == "soi_fft_distributed"} \
            == {"numpy", "repro"}
        assert [r for r in plain if r.entry == "soi_ifft_distributed"]
        assert [r for r in plain if r.options.get("transport")]
        assert [r for r in plain if r.options.get("trace")]
        assert select(report, oracle="plain-traffic", overlap=True)
        overlap = [r for r in report.rows if r.options.get("overlap")]
        assert overlap and all(r.tolerance == 0.0 for r in overlap)

    # The coverage contract of the ``check`` report: one assertion per
    # property, each over the rows' fields.

    def test_transport_rows_registered(self, report):
        """The reliable transport is the one integrity mechanism."""
        assert select(report, transport=True)

    def test_no_verify_mode(self, report):
        """The retired verify= mode must not come back."""
        assert not [r for r in report.rows if "verify" in r.options]

    def test_schedules_are_pairwise_and_hierarchical(self, report):
        """The retired bruck schedule must not come back, and both kept
        schedules stay registered."""
        schedules = {r.schedule for r in report.rows} - {None}
        assert schedules == {"pairwise", "hierarchical"}

    def test_hierarchical_transport_row(self, report):
        assert select(report, schedule="hierarchical", transport=True)

    def test_des_equals_thread_hierarchical_row(self, report):
        assert select(report, engine="des", oracle="thread", schedule="hierarchical")

    def test_resilience_composes_with_overlap(self, report):
        assert select(report, resilience=True, overlap=True)

    def test_kill_rows_registered_and_passing(self, report):
        """The kill rows drive shrink() + allgather (the ABFT commit
        agreement on the survivors' communicator)."""
        kills = [r for r in select(report, resilience=True) if r.options.get("kill")]
        assert kills and all(r.passed for r in kills)

    @pytest.mark.parametrize("library", ["numpy", "repro"])
    @pytest.mark.parametrize("backend", ["dft", "soi", "transpose"])
    def test_serve_batch_rows_for_both_libraries(self, report, backend, library):
        """numpy.fft is serve's default library and repro the opt-in."""
        assert select(report, entry="serve.execute_batch", library=library,
                      backend=backend)

    def test_live_serve_row_on_the_default_config(self, report):
        assert select(report, entry="serve.server", default_library=True)

    def test_report_roundtrips_through_json(self, report):
        d = json.loads(json.dumps(report.as_dict()))
        assert d["schema"] == "repro.check.conformance/2"
        assert d["ok"] is True
        assert d["summary"]["entry_points"] == len(report.rows)
        assert d["summary"]["failed"] == 0
        row = d["rows"][0]
        assert {"name", "entry", "group", "n", "engine", "schedule", "rpn", "library",
                "dtype", "options", "oracle", "tol_kind", "error", "tolerance",
                "passed", "detail"} == set(row)

    def test_default_size_has_the_same_rows_and_all_pass(self, report):
        """The acceptance configuration: the same table over larger
        transforms, every row passing."""
        default = run_conformance("default")
        assert default.ok, [r.as_dict() for r in default.failures()]

        def size_free(rep):
            # Only n, and the rfft world's rank count, depend on the size.
            rows = []
            for r in rep.rows:
                d = {k: getattr(r, k) for k in NAME_FIELDS + ("entry", "group")}
                d["n"] = None
                d["options"] = {k: v for k, v in r.options.items() if k != "R"}
                rows.append(json.dumps(d, sort_keys=True))
            return sorted(rows)

        assert len(default.rows) == TABLE_ROWS
        assert size_free(default) == size_free(report)
        assert len(select(default, tol_kind="bitwise")) == BITWISE_ROWS

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            run_conformance("enormous")


class TestEdgeGeometries:
    """Odd segment counts, every beta, minimal N."""

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
