"""Tests for the six-step (triple all-to-all) baseline."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import snr_db
from repro.parallel import (
    choose_grid,
    distributed_transpose,
    split_blocks,
    transpose_fft_distributed,
)
from repro.simmpi import run_spmd


def run_sixstep(n, nranks, seed=0, **kwargs):
    x = random_complex(n, seed)
    blocks = split_blocks(x, nranks)
    res = run_spmd(
        nranks,
        lambda comm: transpose_fft_distributed(comm, blocks[comm.rank], n, **kwargs),
    )
    return x, np.concatenate(res.values), res.stats


class TestChooseGrid:
    def test_square_split(self):
        n1, n2 = choose_grid(4096, 4)
        assert n1 * n2 == 4096
        assert n1 % 4 == 0 and n2 % 4 == 0

    def test_as_square_as_possible(self):
        n1, n2 = choose_grid(1024, 2)
        assert {n1, n2} == {32, 32}

    def test_requires_nranks_squared(self):
        with pytest.raises(ValueError, match="nranks"):
            choose_grid(24, 4)  # 16 does not divide 24


class TestDistributedTranspose:
    @pytest.mark.parametrize("rows,cols,nranks", [(8, 8, 2), (16, 8, 4), (12, 24, 4)])
    def test_matches_numpy_transpose(self, rows, cols, nranks, rng):
        mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        def prog(comm):
            rloc = rows // nranks
            local = mat[comm.rank * rloc : (comm.rank + 1) * rloc]
            return distributed_transpose(comm, local, rows, cols)

        res = run_spmd(nranks, prog)
        full = np.concatenate(res.values, axis=0)
        np.testing.assert_array_equal(full, mat.T)

    def test_double_transpose_is_identity(self, rng):
        rows, cols, nranks = 8, 16, 4
        mat = rng.standard_normal((rows, cols)) + 0j

        def prog(comm):
            rloc = rows // nranks
            local = mat[comm.rank * rloc : (comm.rank + 1) * rloc]
            t = distributed_transpose(comm, local, rows, cols)
            return distributed_transpose(comm, t, cols, rows)

        res = run_spmd(nranks, prog)
        np.testing.assert_array_equal(np.concatenate(res.values, axis=0), mat)

    def test_one_alltoall_per_transpose(self, rng):
        mat = rng.standard_normal((8, 8)) + 0j

        def prog(comm):
            local = mat[comm.rank * 4 : (comm.rank + 1) * 4]
            return distributed_transpose(comm, local, 8, 8)

        res = run_spmd(2, prog)
        assert res.stats.alltoall_rounds == 1

    def test_shape_validation(self):
        def prog(comm):
            return distributed_transpose(comm, np.zeros((3, 8)), 8, 8)

        with pytest.raises(Exception, match="slab"):
            run_spmd(2, prog, timeout=5)


class TestSixStepFft:
    @pytest.mark.parametrize("n,nranks", [(1024, 2), (4096, 4), (4096, 8), (46656, 6)])
    def test_matches_numpy(self, n, nranks):
        x, y, _ = run_sixstep(n, nranks, seed=n)
        assert snr_db(y, np.fft.fft(x)) > 250.0

    def test_standard_accuracy_level(self):
        """The baseline has no window error: ~15.5 digits like any FFT."""
        x, y, _ = run_sixstep(4096, 4, seed=1)
        assert snr_db(y, np.fft.fft(x)) > 290.0

    def test_exactly_three_alltoalls(self):
        _, _, stats = run_sixstep(4096, 4, seed=2)
        assert stats.alltoall_rounds == 3
        assert set(stats.phases()) >= {"transpose-1", "transpose-2", "transpose-3"}

    def test_each_transpose_moves_full_payload(self):
        n, nranks = 4096, 4
        _, _, stats = run_sixstep(n, nranks, seed=3)
        for phase in ("transpose-1", "transpose-2", "transpose-3"):
            assert stats.phase(phase).total_bytes == n * 16

    def test_total_traffic_is_three_times_soi_ratio(self, full_plan):
        """Structural claim of the paper: 3N vs (1+beta)N points moved."""
        n, nranks = full_plan.n, 4
        _, _, std_stats = run_sixstep(n, nranks, seed=4)
        std_total = sum(
            std_stats.phase(p).total_bytes
            for p in ("transpose-1", "transpose-2", "transpose-3")
        )
        assert std_total == 3 * n * 16

    def test_explicit_grid(self):
        x, y, _ = run_sixstep(4096, 4, seed=5, grid=(64, 64))
        assert snr_db(y, np.fft.fft(x)) > 290.0

    def test_bad_grid_rejected(self):
        with pytest.raises(Exception, match="grid"):
            run_sixstep(4096, 4, seed=6, grid=(64, 32))

    def test_in_order_output(self):
        n, nranks = 1024, 2
        x = random_complex(n, 7)
        blocks = split_blocks(x, nranks)
        res = run_spmd(
            nranks, lambda comm: transpose_fft_distributed(comm, blocks[comm.rank], n)
        )
        ref = np.fft.fft(x)
        for r in range(nranks):
            assert snr_db(res[r], ref[r * 512 : (r + 1) * 512]) > 290.0

    def test_batch_is_its_rows_bitwise(self):
        """A stack of K blocks gives each transform the bits of a solo call,
        also where one rank's twiddle rows pass 256 KiB (n = 2^16 on 4
        ranks), the size at which a per-call temporary would let NumPy
        swap the operands of the complex product."""
        n, nranks = 65536, 4
        xs = np.stack([random_complex(n, seed) for seed in (8, 9)])
        block = n // nranks

        def run(x):
            res = run_spmd(nranks, lambda comm: transpose_fft_distributed(
                comm, x[..., comm.rank * block : (comm.rank + 1) * block], n
            ))
            return np.concatenate(res.values, axis=-1)

        batched = run(xs)
        for x, row in zip(xs, batched):
            np.testing.assert_array_equal(row, run(x))


class TestTwiddleTable:
    def test_one_read_only_table_per_shape(self):
        from repro.parallel.transpose import _twiddle_table

        table = _twiddle_table(4096, 64, 64)
        assert table is _twiddle_table(4096, 64, 64)
        assert table.shape == (64, 64) and not table.flags.writeable
        j2 = np.arange(64, dtype=np.int64)[:, None]
        k1 = np.arange(64, dtype=np.int64)[None, :]
        np.testing.assert_array_equal(
            table, np.exp(-2j * np.pi * ((j2 * k1) % 4096) / 4096)
        )

    def test_concurrent_callers_share_one_table(self, monkeypatch):
        """Rank threads race for the same shapes: each shape is built once
        and every caller gets that one object."""
        import sys
        import threading

        import repro.parallel.transpose as six_step

        monkeypatch.setattr(six_step, "_twiddles", type(six_step._twiddles)())
        shapes = [(256, 16, 16), (1024, 32, 32), (4096, 64, 64)]
        seen = [[] for _ in range(8)]

        def worker(out):
            for _ in range(50):
                for shape in shapes:
                    out.append((shape, id(six_step._twiddle_table(*shape))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        ids = {}
        for shape, ident in (pair for out in seen for pair in out):
            ids.setdefault(shape, set()).add(ident)
        assert {shape: len(v) for shape, v in ids.items()} == dict.fromkeys(shapes, 1)

    def test_lru_bound(self, monkeypatch):
        import repro.parallel.transpose as six_step

        monkeypatch.setattr(six_step, "_MAX_TWIDDLES", 2)
        monkeypatch.setattr(six_step, "_twiddles", type(six_step._twiddles)())
        first = six_step._twiddle_table(256, 16, 16)
        six_step._twiddle_table(1024, 32, 32)
        six_step._twiddle_table(4096, 64, 64)
        assert list(six_step._twiddles) == [(1024, 32, 32), (4096, 64, 64)]
        assert six_step._twiddle_table(256, 16, 16) is not first
