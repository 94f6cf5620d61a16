"""Coalescing property tests: batching may never change a result bit.

``execute_batch`` on K same-key requests must be bitwise-identical to
executing each request alone, for every backend and direction — the
contract that lets the batcher group purely for throughput.  The live
server tests then pin that the linger window actually forms multi-
request batches and that ``max_batch=1`` really is the
one-at-a-time baseline.
"""

import numpy as np
import pytest

from repro.serve import ServeConfig, TransformServer
from repro.serve.batcher import execute_batch


def _signals(k, n, seed=7):
    gen = np.random.default_rng(seed)
    return [
        np.ascontiguousarray(gen.standard_normal(n) + 1j * gen.standard_normal(n))
        for _ in range(k)
    ]


def _request(x, direction="forward", backend="dft", library="numpy",
             priority="batch", **params):
    """Build a fully-validated request without starting a server."""
    srv = TransformServer(ServeConfig())
    return srv._build_request(x, direction, backend, library, priority, None, params)


def _assert_batch_equals_solo(requests):
    batched = execute_batch(requests)
    assert len(batched) == len(requests)
    for req, out in zip(requests, batched):
        (solo,) = execute_batch([req])
        np.testing.assert_array_equal(out, solo)
    return batched


class TestExecuteBatchBitwise:
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("library", ["numpy", "repro"])
    def test_dft(self, direction, library):
        reqs = [
            _request(x, direction=direction, library=library)
            for x in _signals(5, 256)
        ]
        outs = _assert_batch_equals_solo(reqs)
        # Cross-check against the library called directly.
        for x, out in zip(_signals(5, 256), outs):
            if library == "numpy":
                ref = np.fft.ifft(x) if direction == "inverse" else np.fft.fft(x)
            else:
                from repro.dft import plan_for

                ref = plan_for(256, x.dtype).execute(x, inverse=direction == "inverse")
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_soi(self, direction):
        reqs = [
            _request(x, direction=direction, backend="soi", library="numpy", p=8)
            for x in _signals(3, 1024)
        ]
        _assert_batch_equals_solo(reqs)

    def test_transpose_shares_one_spmd_world(self):
        reqs = [
            _request(x, backend="transpose", library="numpy", nranks=4)
            for x in _signals(3, 256)
        ]
        outs = _assert_batch_equals_solo(reqs)
        for x, out in zip(_signals(3, 256), outs):
            np.testing.assert_allclose(out, np.fft.fft(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kind", [1, 2])
    def test_nufft(self, kind):
        gen = np.random.default_rng(11)
        k_modes = 128
        points = gen.uniform(0.0, 1.0, size=96)
        reqs = []
        for seed in range(3):
            payload = _signals(1, 96 if kind == 1 else k_modes, seed=seed)[0]
            reqs.append(
                _request(
                    payload, backend="nufft", library="numpy",
                    points=points, k_modes=k_modes, kind=kind,
                )
            )
        _assert_batch_equals_solo(reqs)

    def test_priorities_and_deadlines_do_not_affect_outputs(self):
        xs = _signals(4, 256)
        plain = [_request(x, priority="batch") for x in xs]
        mixed = [
            _request(x, priority=prio)
            for x, prio in zip(xs, ("interactive", "batch", "best_effort", 0))
        ]
        for a, b in zip(execute_batch(plain), execute_batch(mixed)):
            np.testing.assert_array_equal(a, b)
        assert len({r.batch_key for r in plain + mixed}) == 1

    def test_empty_batch_is_a_no_op(self):
        assert execute_batch([]) == []


class TestLiveServerCoalescing:
    def _serve(self, batched):
        cfg = ServeConfig(
            workers=1, max_batch=16 if batched else 1,
            batch_linger_s=0.05 if batched else 0.0,
            default_library="numpy",
        )
        xs = _signals(6, 256)
        with TransformServer(cfg) as srv:
            tickets = [srv.submit(x, priority="interactive") for x in xs]
            outs = [t.result(timeout=30.0) for t in tickets]
        # Read batch shapes only after stop() joined the workers.
        sizes = [s.batch_size for s in srv.metrics.spans()]
        return xs, outs, sizes

    def test_lingering_server_forms_multi_request_batches(self):
        xs, outs, sizes = self._serve(batched=True)
        assert max(sizes) >= 2  # the linger window actually coalesced
        for x, out in zip(xs, outs):
            np.testing.assert_array_equal(out, np.fft.fft(x))

    def test_coalesce_off_is_strictly_one_at_a_time(self):
        xs, outs, sizes = self._serve(batched=False)
        assert sizes and max(sizes) == 1
        for x, out in zip(xs, outs):
            np.testing.assert_array_equal(out, np.fft.fft(x))
