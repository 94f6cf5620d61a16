"""Tests for the two named FFT backends and their lookup."""

import numpy as np
import pytest

from repro.dft import FftBackend, get_backend
from repro.dft.backends import backend_fft, backend_fft_tt
from repro.dft.cache import plan_for


class TestRegistry:
    def test_builtin_backends_present(self):
        for name in ("repro", "numpy"):
            be = get_backend(name)
            assert isinstance(be, FftBackend) and be.name == name

    def test_get_by_name(self):
        assert get_backend("numpy").name == "numpy"

    def test_instance_passthrough(self):
        be = get_backend("repro")
        assert get_backend(be) is be

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="numpy"):
            get_backend("mkl")

    def test_unknown_name_is_a_value_error_naming_backend(self):
        from repro.dft.backends import UnknownBackendError

        with pytest.raises(ValueError, match=r"backend='bogus'.*\['numpy', 'repro'") as info:
            get_backend("bogus")
        assert isinstance(info.value, (UnknownBackendError, KeyError))
        assert str(info.value).startswith("backend=")  # not KeyError's quoting

    @pytest.mark.parametrize("bad", [3, None, b"numpy"])
    def test_non_name_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="backend"):
            get_backend(bad)


class TestBackendAgreement:
    """The two built-in backends must agree — a cross-implementation check."""

    @pytest.mark.parametrize("n", [16, 60, 97, 640])
    def test_forward_agreement(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = get_backend("repro").fft(x)
        b = get_backend("numpy").fft(x)
        np.testing.assert_allclose(a, b, atol=1e-9 * n)

    @pytest.mark.parametrize("n", [16, 60])
    def test_inverse_agreement(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = get_backend("repro").ifft(x)
        b = get_backend("numpy").ifft(x)
        np.testing.assert_allclose(a, b, atol=1e-11)

    def test_batched_agreement(self, rng):
        x = rng.standard_normal((4, 80)) + 1j * rng.standard_normal((4, 80))
        np.testing.assert_allclose(
            get_backend("repro").fft(x), get_backend("numpy").fft(x), atol=1e-9
        )


class TestPrecisionContract:
    """Every callable answers at its input's precision: complex64 in,
    complex64 out (numpy: complex128 then one rounding; repro: the
    single-precision kernel plan); any other input, complex128."""

    N, COLS = 60, 7

    @staticmethod
    def _callables(be):
        """The five callables, the in-place ones transforming a copy."""
        return {
            "fft": be.fft,
            "ifft": be.ifft,
            "fft_tt": lambda xt: backend_fft_tt(be, xt),
            "fft_into": lambda x: backend_fft(be, x, out=x.copy()),
            "fft_tt_into": lambda xt: backend_fft_tt(be, xt, out=xt.copy()),
        }

    @staticmethod
    def _single(backend, kind, x):
        if backend == "numpy":
            x = x.astype(np.complex128)
            y = {
                "ifft": lambda: np.fft.ifft(x),
                "fft_tt": lambda: np.fft.fft(x, axis=0),
                "fft_tt_into": lambda: np.fft.fft(x, axis=0),
            }.get(kind, lambda: np.fft.fft(x))()
            return y.astype(np.complex64)
        if kind in ("fft_tt", "fft_tt_into"):
            return plan_for(x.shape[0], precision="single").execute_tt(x)
        return plan_for(x.shape[-1], precision="single").execute(x, inverse=kind == "ifft")

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    @pytest.mark.parametrize(
        "kind", ["fft", "ifft", "fft_tt", "fft_into", "fft_tt_into"]
    )
    def test_complex64_in_complex64_out(self, backend, kind, rng):
        x = (rng.standard_normal((self.N, self.COLS))
             + 1j * rng.standard_normal((self.N, self.COLS))).astype(np.complex64)
        got = self._callables(get_backend(backend))[kind](x)
        assert got.dtype == np.complex64
        assert np.array_equal(got, self._single(backend, kind, x))

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    @pytest.mark.parametrize("kind", ["fft", "ifft", "fft_tt"])
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int64, np.complex128]
    )
    def test_any_other_input_gives_complex128(self, backend, kind, dtype, rng):
        x = (rng.standard_normal((self.N, self.COLS)) * 8).astype(dtype)
        be = get_backend(backend)
        got = self._callables(be)[kind](x)
        assert got.dtype == np.complex128
        want = self._callables(be)[kind](x.astype(np.complex128))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    @pytest.mark.parametrize("kind", ["fft_into", "fft_tt_into"])
    def test_complex128_in_place_gives_complex128(self, backend, kind, rng):
        x = rng.standard_normal((self.N, self.COLS)) + 1j * rng.standard_normal((self.N, self.COLS))
        be = get_backend(backend)
        got = self._callables(be)[kind](x)
        want = be.fft(x) if kind == "fft_into" else backend_fft_tt(be, x)
        assert got.dtype == np.complex128 and np.array_equal(got, want)
