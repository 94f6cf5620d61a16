"""Self-tests of the ledger harness (not part of the tier-1 suite).

Run from the repository root: ``python -m pytest ledger/tests``.  The
subprocess tests use the harness's ``--quick`` mode.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))   # in-process tests call the program directly

from ledger import compare, inputs, probes, spec  # noqa: E402
from ledger.trace import Span, Tracer, layer_self_seconds  # noqa: E402
from ledger.workloads import (  # noqa: E402
    soi_inverse_stages_batch, soi_stages_1d, soi_stages_batch,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = spec.load()


def quick_run(workload: str, trace: int, seed: int = 7) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "run", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_e2e() -> dict:
    return quick_run("dist_soi", 0)


@pytest.fixture(scope="module")
def quick_traces() -> tuple[dict, dict]:
    return quick_run("dist_soi", 1), quick_run("dist_soi", 1)


def test_every_name_is_well_formed_and_unique():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in DECLARED.end_to_end
    assert spec.EXACT <= set(DECLARED.per_layer)


def test_result_line_has_exactly_the_contract_keys(quick_e2e):
    assert set(quick_e2e) == {"correct", "attempted", "failed", "metrics"}
    assert quick_e2e["correct"] is True and quick_e2e["failed"] == 0 and quick_e2e["attempted"] >= 1


def test_emitted_end_to_end_names_equal_declared(quick_e2e):
    assert set(quick_e2e["metrics"]) == set(DECLARED.end_to_end)
    for name, cell in quick_e2e["metrics"].items():
        assert cell["unit"] == DECLARED.end_to_end[name].unit
        assert cell["value"] > 0


def test_emitted_per_layer_names_equal_declared(quick_traces):
    first, _ = quick_traces
    assert first["correct"] is True
    assert set(first["metrics"]) == set(DECLARED.per_layer)
    for name, cell in first["metrics"].items():
        assert cell["unit"] == DECLARED.per_layer[name].unit


def test_exact_metrics_repeat_across_two_quick_runs(quick_traces):
    first, second = quick_traces
    for name in sorted(spec.EXACT):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_trace_checks_hold(quick_traces):
    m = {name: cell["value"] for name, cell in quick_traces[0]["metrics"].items()}
    assert m["parallel.seq_eq_dist_bitwise"] == 1
    assert m["parallel.soi_over_transpose_bytes"] == pytest.approx((1 + 0.25) / 3)
    assert 1.0 <= m["parallel.bytes_over_model"] < 1.01      # payload plus 64-byte headers
    assert m["core.error_over_budget"] < 1
    assert m["trace.spans"] > 0
    assert (ROOT / "ledger" / "out" / "trace-dist_soi.json").is_file()


@pytest.mark.parametrize("workload", list(DECLARED.workloads))
def test_same_seed_gives_identical_inputs_and_request_order(workload):
    first, again = inputs.make_inputs(workload, 5), inputs.make_inputs(workload, 5)
    assert inputs.digest(first) == inputs.digest(again)
    assert inputs.digest(first) != inputs.digest(inputs.make_inputs(workload, 6))
    if workload == "serve_mix":
        assert np.array_equal(first["order"], again["order"])
        shares = np.bincount(first["order"], minlength=3) / first["order"].size
        assert shares == pytest.approx([0.7, 0.2, 0.1], abs=0.03)


def test_staged_replay_equals_soi_fft_bitwise():
    from repro.core import SoiPlan, soi_fft, soi_ifft
    from repro.dft.backends import get_backend

    plan = SoiPlan(n=1 << 14, p=16)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(plan.n) + 1j * rng.standard_normal(plan.n)
    span = Tracer().span
    assert np.array_equal(soi_stages_1d(plan, get_backend("numpy"), x, span), soi_fft(x, plan, backend="numpy"))

    xb = rng.standard_normal((3, plan.n)) + 1j * rng.standard_normal((3, plan.n))
    be = get_backend("repro")
    fwd = soi_fft(xb, plan, backend="repro")
    assert np.array_equal(soi_stages_batch(plan, be, xb, span), fwd)
    assert np.array_equal(soi_inverse_stages_batch(plan, be, fwd, span), soi_ifft(fwd, plan, backend="repro"))


def test_missing_engine_is_reported_absent_not_as_an_error():
    from repro.simmpi import run_spmd

    def thread_only(*args, engine="thread", **kwargs):
        if engine != "thread":
            raise ValueError(f"unknown engine {engine!r}")
        return run_spmd(*args, engine=engine, **kwargs)

    out = probes.Probed()
    out.values["machine.triad_gbs"] = 1.0
    probes.simmpi_layer(out, seed=3, reps=1, run_spmd=thread_only)
    assert out.failed == 0
    assert out.notes["engines"] == ["thread"]
    assert {"simmpi.alltoall_ms.des", "simmpi.spawn_join_ms.des", "simmpi.halo_ring_ms.des",
            "simmpi.des_over_thread"} == out.absent
    assert out.values["simmpi.alltoall_ms.des"] == 0.0
    assert out.values["simmpi.alltoall_ms.thread"] > 0
    assert out.values["simmpi.alltoall_bytes"] == (1 << 18) * 5 // 4 * 16


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        Span(0, "harness.op", None, 0, 0, 0.0, 10.0),
        Span(1, "simmpi.run_spmd", 0, 0, 0, 1.0, 9.0),
        Span(2, "parallel.rank", 1, 0, 1, 2.0, 6.0),
        Span(3, "parallel.rank", 1, 0, 2, 4.0, 8.0),   # overlaps span 2 on another lane
    ]
    own = layer_self_seconds(spans)
    assert own == {"harness": 2.0, "simmpi": 2.0, "parallel": 8.0}


def test_compare_applies_each_bound_in_its_direction():
    lower = spec.Metric("latency_p50_ms", "ms", "lower", 0.08)
    higher = spec.Metric("throughput_ops", "ops/s", "higher", 0.08)
    assert compare.classify(100, 105, lower) == "unchanged"
    assert compare.classify(100, 110, lower) == "regressed"
    assert compare.classify(100, 90, lower) == "improved"
    assert compare.classify(100, 90, higher) == "regressed"
    assert compare.classify(100, 110, higher) == "improved"

    def doc(latency, failed=0):
        cell = {n: {"value": 1.0, "unit": m.unit} for n, m in DECLARED.end_to_end.items()}
        cell["latency_p50_ms"] = {"value": latency, "unit": "ms"}
        one = {"metrics": cell, "failed": failed, "attempted": 10, "detail": {}}
        return {"workloads": {w: one for w in DECLARED.workloads}}

    partial = doc(2.0)
    del partial["workloads"]["serve_mix"]
    rows = compare.compare_docs(doc(1.0), partial, DECLARED)
    verdicts = {(w, m): v for w, m, *_, v in rows}
    assert verdicts["seq_soi_1d", "latency_p50_ms"] == "regressed"
    assert verdicts["seq_soi_1d", "throughput_ops"] == "unchanged"
    assert verdicts["serve_mix", "latency_p50_ms"] == "unresolved"
    assert any(m == "failed_share" for _, m, *_ in compare.compare_docs(doc(1.0), doc(1.0, failed=1), DECLARED))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "run", "--workload", "dist_soi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
