"""Tests for the two named FFT backends and their lookup."""

import numpy as np
import pytest

from repro.dft import FftBackend, get_backend


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
