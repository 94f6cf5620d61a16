"""Integration tests of the top-level public API (the README quickstart)."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    GaussianWindow,
    SoiPlan,
    TauSigmaWindow,
    design_window,
    run_spmd,
    snr_db,
    soi_fft,
    soi_fft_distributed,
    soi_segment,
    transpose_fft_distributed,
)


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_option_surface_is_pinned(self):
        """``run_spmd`` takes 12 keyword options and ``ServeConfig`` 8
        fields; surfaces that no driver reached stay deleted, and the
        all-to-all schedule and tracing are set only by ``run_spmd``.  The conformance
        table's only setting is its size."""
        from repro.serve import ServeConfig
        from repro.simmpi import Communicator

        params = inspect.signature(run_spmd).parameters.values()
        options = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
        assert len(options) == 12, options
        assert not {"fault_hook", "link_latency", "link_bandwidth"} & set(options)
        fields = [f.name for f in dataclasses.fields(ServeConfig)]
        assert len(fields) == 8 and "warmup_path" not in fields
        assert "alltoall_algorithm" not in fields
        # The schedule and tracing are set once, by the world.
        from repro.parallel import soi_ifft_distributed

        for fn in (soi_fft_distributed, soi_ifft_distributed, transpose_fft_distributed):
            params = inspect.signature(fn).parameters
            assert "alltoall_algorithm" not in params and "trace" not in params
        assert not hasattr(Communicator, "ialltoall")
        # The conformance table's whole surface is its size.
        from repro.check import edge_geometries, run_conformance

        assert list(inspect.signature(run_conformance).parameters) == ["size"]
        assert not inspect.signature(edge_geometries).parameters
        assert not hasattr(SoiPlan, "convolve_fft_p")
        assert not hasattr(repro.serve.TransformServer, "timeline")
        for module, name in [
            ("repro.trace", "serve_timeline"),
            ("repro.trace", "wait_attribution"),
            ("repro.dft", "save_plan_cache_shapes"),
            ("repro.dft", "fft_gflops_rate"),
            ("repro.perf", "measure_kernel_rates"),
            ("repro.parallel", "scatter_blocks"),
            ("repro.utils", "next_power_of_two"),
            ("repro.dft", "fft_radix2"),
            ("repro.dft", "ifft_radix2"),
            ("repro.dft", "fft_mixed_radix"),
            ("repro.dft", "register_backend"),
            ("repro.dft", "available_backends"),
            ("repro.dft", "set_plan_cache_limit"),
            ("repro.trace", "aggregate"),
            ("repro.core", "SoiWindowSpec"),
            ("repro.core", "window_from_spec"),
            ("repro.simmpi", "NodeSharedPool"),
            ("repro.check", "CONFORMANCE_GROUPS"),
        ]:
            assert not hasattr(__import__(module, fromlist=[name]), name), name
        for module in ("repro.dft.radix2", "repro.dft.mixed_radix"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_unreached_surface_stays_deleted(self):
        """Communicator splits and the getters no driver read are gone;
        ``shrink`` is the one producer of a ``SubCommunicator``."""
        from repro.cluster.machine import NodeSpec
        from repro.core import WindowDesign
        from repro.dft import FftPlan
        from repro.perf.model import WeakScalingModel
        from repro.perf.weakscaling import WeakScalingSweep
        from repro.serve import MetricsLog, RequestSpan, Ticket, TransformServer
        from repro.simmpi import Communicator, NodeMap
        from repro.simmpi.stats import PhaseTraffic
        from repro.trace import TraceRecorder

        for cls, name in [
            (Communicator, "split"),
            (Communicator, "split_by_node"),
            (NodeMap, "flat"),
            (NodeMap, "ranks_on"),
            (NodeMap, "leader_of"),
            (NodeMap, "as_dict"),
            (PhaseTraffic, "max_pair_bytes"),
            (WindowDesign, "predicted_snr_db"),
            (FftPlan, "__call__"),
            (FftPlan, "flops_per_execution"),
            (WeakScalingSweep, "gflops_series"),
            (WeakScalingSweep, "as_rows"),
            (WeakScalingModel, "time"),
            (WeakScalingModel, "gflops"),
            (TransformServer, "backpressure"),
            (TransformServer, "inflight"),
            (TraceRecorder, "clear"),
            (RequestSpan, "as_dict"),
            (MetricsLog, "t_start"),
            (Ticket, "done"),
            (NodeSpec, "hw_threads"),
        ]:
            assert name not in dir(cls), (cls.__name__, name)
        for module, name in [
            ("repro.trace", "inflight_profile"),
            ("repro.trace.analysis", "inflight_profile"),
            ("repro.core", "digits_from_snr"),
            ("repro.core", "snr_from_digits"),
            ("repro.core.accuracy", "digits_from_snr"),
            ("repro.core", "named_window"),
            ("repro.core.design", "named_window"),
            ("repro.bench", "random_real"),
            ("repro.bench.workloads", "random_real"),
        ]:
            mod = importlib.import_module(module)
            assert not hasattr(mod, name), (module, name)
            assert name not in getattr(mod, "__all__", ()), (module, name)

    def test_one_default_fft_library(self):
        """Every public function with a ``backend`` parameter defaults to
        ``DEFAULT_BACKEND`` (a plain string), and so does the server."""
        import pkgutil

        from repro.dft.backends import DEFAULT_BACKEND
        from repro.serve import ServeConfig

        assert DEFAULT_BACKEND == "numpy"
        defaults = {}
        for info in pkgutil.iter_modules(repro.__path__):
            module = importlib.import_module(f"repro.{info.name}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    param = inspect.signature(obj).parameters.get("backend")
                    if param is not None:
                        defaults[obj.__name__] = param.default
        assert {
            "soi_fft", "soi_ifft", "soi_fft2", "soi_segment",
            "soi_fft_distributed", "soi_ifft_distributed",
            "transpose_fft_distributed", "rfft_distributed",
            "allgather_fft_distributed", "nufft1", "nufft2",
        } <= set(defaults), sorted(defaults)
        assert {name: d for name, d in defaults.items() if d != DEFAULT_BACKEND} == {}
        assert ServeConfig().default_library == DEFAULT_BACKEND

    def test_quickstart_from_docstring(self):
        """The exact flow promised in the package docstring."""
        n, p = 4096, 8
        plan = SoiPlan(n=n, p=p)
        x = np.random.default_rng(0).standard_normal(n) + 0j
        y = soi_fft(x, plan)
        assert snr_db(y, np.fft.fft(x)) / 20.0 > 13.0

    def test_window_classes_exported(self):
        assert TauSigmaWindow(0.8, 100.0).kappa() > 1.0
        assert GaussianWindow(40.0).h_hat(np.array([0.5]))[0] > 0.0

    def test_design_window_exported(self):
        assert design_window(8.0).b > 0

    def test_segment_api(self):
        plan = SoiPlan(n=2048, p=4, window="digits8")
        x = np.random.default_rng(1).standard_normal(2048) + 0j
        seg = soi_segment(x, plan, 2)
        assert seg.shape == (512,)

    def test_distributed_end_to_end(self):
        """Full user journey: plan -> scatter -> SPMD -> in-order result."""
        n, nranks = 4096, 4
        plan = SoiPlan(n=n, p=8)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def prog(comm):
            block = n // comm.size
            local = x[comm.rank * block : (comm.rank + 1) * block]
            return soi_fft_distributed(comm, local, plan)

        res = run_spmd(nranks, prog)
        y = np.concatenate(res.values)
        assert snr_db(y, np.fft.fft(x)) > 280.0
        assert res.stats.alltoall_rounds == 1

    def test_baseline_exported(self):
        n, nranks = 1024, 2
        x = np.random.default_rng(3).standard_normal(n) + 0j

        def prog(comm):
            block = n // comm.size
            return transpose_fft_distributed(
                comm, x[comm.rank * block : (comm.rank + 1) * block], n
            )

        res = run_spmd(nranks, prog)
        assert snr_db(np.concatenate(res.values), np.fft.fft(x)) > 290.0


# Run in a fresh interpreter: this process has long since imported
# everything.  Prints nothing and exits 0 when the contract holds.
_COLD_IMPORT = r"""
import importlib
import sys

import repro
from repro import SoiPlan, soi_fft

# Only NumPy and the core load eagerly.
eager = [m for m in ("scipy", "repro.simmpi", "repro.parallel", "repro.trace", "repro.check")
         if m in sys.modules]
assert not eager, eager

# Every exported name resolves to its defining module's object.
home = {
    "repro.core": ["SoiPlan", "TauSigmaWindow", "GaussianWindow", "design_window", "soi_fft",
                   "soi_ifft", "soi_fft2", "soi_segment", "snr_db"],
    "repro.simmpi": ["run_spmd", "ChaosSchedule", "FaultPlan", "TransportPolicy"],
    "repro.parallel": ["soi_fft_distributed", "transpose_fft_distributed"],
    "repro.trace": ["TraceCostModel", "TraceRecorder"],
    "repro.check": ["HbTracker", "ScheduleController", "replay_interleavings", "run_conformance"],
}
assert sorted(repro.__all__) == sorted(["__version__", *sum(home.values(), [])]), repro.__all__
for module, names in home.items():
    for name in names:
        assert getattr(repro, name) is getattr(importlib.import_module(module), name), name

# Every subpackage an eager `import repro` used to load is still an attribute.
for sub in ("check", "cluster", "core", "dft", "exectx", "nufft", "parallel", "simmpi",
            "trace", "utils"):
    assert getattr(repro, sub) is sys.modules["repro." + sub], sub
try:
    repro.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")

namespace = {}
exec("from repro import *", namespace)
assert all(namespace[name] is getattr(repro, name) for name in repro.__all__)
"""


class TestColdImport:
    def test_import_loads_only_the_core_and_every_name_resolves(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        done = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
