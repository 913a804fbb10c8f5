"""FFT backend name for benchmark host records.

Every spectral transform runs on :mod:`numpy.fft` through the array backend
(:class:`repro.utils.xp.ArrayBackend`); there is no separate FFT selection.
"""

from __future__ import annotations

__all__ = ["default_backend_name"]


def default_backend_name() -> str:
    """The FFT implementation every transform uses: always ``"numpy"``."""
    return "numpy"
