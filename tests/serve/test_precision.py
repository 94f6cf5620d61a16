"""Tests for the serve-layer float32 wire.

Batch keys carry the payload dtype, so a coalesced batch is always
precision-homogeneous and complex64 requests ride the single-precision
kernels end to end — half the payload bytes on the wire and in the
batcher.
"""

import numpy as np
import pytest

from repro.serve import ServeConfig, TransformServer
from repro.serve.request import TransformRequest, Ticket


def _signal(n, seed=0, dtype=np.complex128):
    gen = np.random.default_rng(seed)
    return (gen.standard_normal(n) + 1j * gen.standard_normal(n)).astype(dtype)


def _req(payload, rid=0):
    return TransformRequest(
        rid=rid, payload=payload, n=payload.shape[-1], direction="forward",
        backend="dft", library="repro", priority=1, deadline=None, params={},
        ticket=Ticket(rid, 1),
    )


class TestBatchKey:
    def test_dtype_separates_batches(self):
        a = _req(_signal(256, dtype=np.complex128))
        b = _req(_signal(256, dtype=np.complex64))
        c = _req(_signal(256, seed=1, dtype=np.complex64))
        assert a.batch_key != b.batch_key
        assert b.batch_key == c.batch_key


class TestSinglePrecisionRequests:
    @pytest.mark.parametrize("library", ["repro", "numpy"])
    def test_complex64_in_complex64_out(self, library):
        x = _signal(512, seed=7, dtype=np.complex64)
        with TransformServer(ServeConfig(workers=1)) as srv:
            out = srv.submit(x, library=library).result(timeout=10.0)
        assert out.dtype == np.complex64
        ref = np.fft.fft(x.astype(np.complex128))
        rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
        assert rel < 64 * np.finfo(np.float32).eps * np.log2(512)

    def test_warmed_complex64_request_adds_no_miss(self):
        """A ``(n, complex64)`` warm shape builds the single-precision
        plan the repro backend runs a complex64 payload on."""
        from repro.dft import clear_plan_cache, plan_cache_info

        clear_plan_cache()
        cfg = ServeConfig(workers=1, warm_shapes=((1024, np.complex64),))
        with TransformServer(cfg) as srv:
            misses = plan_cache_info()["misses"]
            x = _signal(1024, seed=9, dtype=np.complex64)
            out = srv.submit(x, library="repro").result(timeout=10.0)
        assert out.dtype == np.complex64
        assert plan_cache_info()["misses"] == misses == 1

    def test_complex128_contract_unchanged(self):
        x = _signal(512, seed=8)
        with TransformServer(ServeConfig(workers=1)) as srv:
            out = srv.submit(x, library="repro").result(timeout=10.0)
        assert out.dtype == np.complex128

