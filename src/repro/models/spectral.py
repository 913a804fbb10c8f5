"""Spectral (FFT) machinery for the SQG model.

The SQG model is discretised in spectral space using the real 2-D FFT, with a
2/3-rule dealiasing mask applied to nonlinear products and spectral
derivatives computed by multiplication with ``i k`` (paper §II-B, following
Tulloch & Smith 2009 and the ``sqgturb`` reference implementation).

All transforms operate on the trailing two axes so that batched states
(ensembles) of shape ``(..., nlev, ny, nx)`` are handled with a single FFT
call — this is the main vectorisation lever for ensemble forecasting.

Transforms run on :mod:`numpy.fft` through the grid's array backend
(:class:`repro.utils.xp.ArrayBackend`), so a device backend supplies its FFT
on the same object as the rest of the spectral arithmetic.

Fused-kernel support
--------------------
The 2/3 rule zeroes every column with ``|k_x|`` above the cutoff, so a masked
spectrum carries information only in its first :attr:`kx_keep` columns.  The
*retained-mode* transforms (:meth:`to_physical_retained`,
:meth:`to_spectral_retained`) exploit this by feeding the FFT only the
retained columns — bit-identical to transforming the full masked spectrum
(the dropped columns are exact zeros) while skipping a third of the
column-direction transform work.  Combined derivative-plus-dealias
multipliers (:attr:`ikx_dealias`, :attr:`ily_dealias`) fold
``truncate``-then-``ddx`` into one multiply; because the mask entries are
exactly 0 or 1, ``(i·k·mask)·θ̂`` is bit-identical to ``i·k·(mask·θ̂)``.
These are the building blocks of the SQG tendency
(:class:`repro.models.sqg.SQGModel`), whose trajectory loop keeps each state
*split* into its ``kx_keep`` retained columns and its dead columns from the
first step to the last: the retained-mode transforms read and write the
retained block directly (no per-call column copy), and the dead block only
sees the linear terms.  The loop advances a cache-sized chunk of members
through all steps at a time; the chunk rule and the sweep it comes from are
documented on ``SQGModel`` and in ``BENCH_forecast.json``
(``forecast_chunk_curve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.xp import ArrayBackend
from repro.utils.xp import resolve_backend as resolve_array_backend

__all__ = ["SpectralGrid"]


@dataclass(frozen=True)
class _SpectralArrays:
    k: np.ndarray
    l: np.ndarray
    ksq: np.ndarray
    dealias_mask: np.ndarray


class SpectralGrid:
    """Wavenumber bookkeeping and transforms for a doubly-periodic grid.

    Parameters
    ----------
    nx, ny:
        Number of grid points in x and y (physical space).
    lx, ly:
        Physical domain lengths (metres).
    dealias:
        Apply the 2/3 rule when truncating spectra of nonlinear products.
    array_backend:
        Array backend (:mod:`repro.utils.xp`) for the transforms and the
        spectral arithmetic; ``None`` uses the ``REPRO_ARRAY_BACKEND``
        default.  The numpy backend is bit-identical to the pre-shim grid.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        lx: float,
        ly: float,
        dealias: bool = True,
        array_backend: str | ArrayBackend | None = None,
    ):
        if nx < 4 or ny < 4:
            raise ValueError("spectral grid needs at least 4 points per direction")
        if nx % 2 or ny % 2:
            raise ValueError("nx and ny must be even for the rfft layout used here")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx)
        self.ly = float(ly)
        self.dealias = bool(dealias)
        self.xp = resolve_array_backend(array_backend)

        # rfft2 layout: full frequencies along y (axis -2), half along x (axis -1).
        kx = 2.0 * np.pi / self.lx * np.arange(0, self.nx // 2 + 1)
        ky = 2.0 * np.pi / self.ly * np.fft.fftfreq(self.ny) * self.ny
        k2d, l2d = np.meshgrid(kx, ky)
        ksq = k2d**2 + l2d**2

        kmax_x = 2.0 * np.pi / self.lx * (self.nx // 2)
        kmax_y = 2.0 * np.pi / self.ly * (self.ny // 2)
        mask = np.ones_like(ksq)
        if self.dealias:
            mask = np.where(
                (np.abs(k2d) > (2.0 / 3.0) * kmax_x) | (np.abs(l2d) > (2.0 / 3.0) * kmax_y),
                0.0,
                1.0,
            )

        self._arrays = _SpectralArrays(k=k2d, l=l2d, ksq=ksq, dealias_mask=mask)

        # Cached derived arrays (satellite: kappa was recomputed per access).
        self._kappa = np.sqrt(ksq)
        self._ksq_max = float(ksq.max())

        # Number of retained kx columns: every column at index >= kx_keep is
        # zeroed by the mask, so masked spectra are fully described by their
        # first kx_keep columns (= nx//2+1 when dealiasing is off).
        retained_cols = np.nonzero(mask.any(axis=0))[0]
        self._kx_keep = int(retained_cols[-1]) + 1
        self._ikx_dealias = 1j * k2d * mask
        self._ily_dealias = 1j * l2d * mask

    # ------------------------------------------------------------------ #
    # wavenumber arrays
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> np.ndarray:
        """Zonal wavenumbers, shape ``(ny, nx//2+1)``."""
        return self._arrays.k

    @property
    def l(self) -> np.ndarray:
        """Meridional wavenumbers, shape ``(ny, nx//2+1)``."""
        return self._arrays.l

    @property
    def ksq(self) -> np.ndarray:
        """Squared total wavenumber ``k² + l²``."""
        return self._arrays.ksq

    @property
    def kappa(self) -> np.ndarray:
        """Total wavenumber magnitude ``sqrt(k² + l²)`` (cached)."""
        return self._kappa

    @property
    def ksq_max(self) -> float:
        """Largest resolved squared wavenumber (used to scale hyperdiffusion)."""
        return self._ksq_max

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask (ones where retained, zeros where truncated)."""
        return self._arrays.dealias_mask

    @property
    def kx_keep(self) -> int:
        """Number of leading kx columns a masked spectrum can be non-zero in."""
        return self._kx_keep

    @property
    def ikx_dealias(self) -> np.ndarray:
        """Combined multiplier ``i·k·mask`` (x-derivative of a truncated field)."""
        return self._ikx_dealias

    @property
    def ily_dealias(self) -> np.ndarray:
        """Combined multiplier ``i·l·mask`` (y-derivative of a truncated field)."""
        return self._ily_dealias

    @property
    def spectral_shape(self) -> tuple[int, int]:
        """Shape of spectral arrays ``(ny, nx//2+1)``."""
        return (self.ny, self.nx // 2 + 1)

    # ------------------------------------------------------------------ #
    # transforms (batched over leading axes)
    # ------------------------------------------------------------------ #
    def to_spectral(self, field: np.ndarray) -> np.ndarray:
        """Forward transform of the trailing ``(ny, nx)`` axes.

        Accepts host or backend-device arrays; ``xp.asarray`` keeps
        device-resident inputs on the device, and the transform itself
        moves nothing across the host boundary.
        """
        field = self.xp.asarray(field)
        self._check_physical(field)
        return self.xp.rfft2(field, axes=(-2, -1))

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Inverse transform returning a real field on the trailing axes."""
        spec = self.xp.asarray(spec)
        self._check_spectral(spec)
        return self.xp.irfft2(spec, s=(self.ny, self.nx), axes=(-2, -1))

    def to_physical_retained(self, spec_retained: np.ndarray) -> np.ndarray:
        """Inverse transform of the retained columns of a masked spectrum.

        ``spec_retained`` holds the first :attr:`kx_keep` columns of a
        2/3-truncated spectrum; the remaining columns are exact zeros and are
        never materialised.  Bit-identical to
        ``to_physical(full_masked_spectrum)``.
        """
        spec_retained = self.xp.asarray(spec_retained)
        if spec_retained.shape[-2:] != (self.ny, self._kx_keep):
            raise ValueError(
                f"retained spectrum trailing shape {spec_retained.shape[-2:]} "
                f"!= {(self.ny, self._kx_keep)}"
            )
        w = self.xp.ifft(spec_retained, axis=-2)
        return self.xp.irfft(w, n=self.nx, axis=-1)

    def to_spectral_retained(self, field: np.ndarray) -> np.ndarray:
        """Forward transform returning only the first :attr:`kx_keep` columns.

        The result is *not* row-masked; multiply by
        ``dealias_mask[:, :kx_keep]`` to complete the 2/3 truncation.
        Bit-identical to ``to_spectral(field)[..., :kx_keep]``.
        """
        field = self.xp.asarray(field)
        self._check_physical(field)
        r = self.xp.rfft(field, axis=-1)
        return self.xp.fft(r[..., : self._kx_keep], axis=-2)

    def truncate(self, spec: np.ndarray) -> np.ndarray:
        """Apply the 2/3 dealiasing mask to a spectral array."""
        self._check_spectral(self.xp.asarray(spec))
        return self.xp.multiply(spec, self.dealias_mask)

    # ------------------------------------------------------------------ #
    # spectral calculus
    # ------------------------------------------------------------------ #
    def ddx(self, spec: np.ndarray) -> np.ndarray:
        """Spectral x-derivative (returns a spectral array)."""
        return 1j * self.k * spec

    def ddy(self, spec: np.ndarray) -> np.ndarray:
        """Spectral y-derivative (returns a spectral array)."""
        return 1j * self.l * spec

    def laplacian(self, spec: np.ndarray) -> np.ndarray:
        """Spectral Laplacian ``-(k²+l²)``."""
        return -self.ksq * spec

    def jacobian(self, psi_spec: np.ndarray, theta_spec: np.ndarray) -> np.ndarray:
        """Advective Jacobian ``J(ψ, θ) = ψ_x θ_y − ψ_y θ_x`` in spectral space.

        Products are formed in physical space with dealiased inputs and the
        result is transformed back and truncated, following the standard
        pseudo-spectral 2/3-rule treatment.  The combined derivative×mask
        multipliers dealias and differentiate in a single pass (the inputs
        are not truncated separately, which previously cost two redundant
        full-array multiplies).
        """
        psi_x = self.to_physical(self.ikx_dealias * psi_spec)
        psi_y = self.to_physical(self.ily_dealias * psi_spec)
        th_x = self.to_physical(self.ikx_dealias * theta_spec)
        th_y = self.to_physical(self.ily_dealias * theta_spec)
        jac = psi_x * th_y - psi_y * th_x
        return self.truncate(self.to_spectral(jac))

    def hyperdiffusion_filter(
        self, dt: float, efolding_time: float, order: int = 8
    ) -> np.ndarray:
        """Implicit hyperdiffusion multiplier applied once per time step.

        Damps the largest resolved wavenumber with e-folding time
        ``efolding_time`` and scales as ``(K²/K²_max)^(order/2)`` — this is
        the implicit hyperdiffusion treatment referenced in §II-B.  Models
        keep the result; the grid stores nothing, so it pickles the same
        size whatever steps were asked for.
        """
        if efolding_time <= 0:
            raise ValueError("efolding_time must be positive")
        if order <= 0 or order % 2:
            raise ValueError("hyperdiffusion order must be a positive even integer")
        ratio = self.ksq / self.ksq_max
        return np.exp(-(dt / efolding_time) * ratio ** (order // 2))

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    def _check_physical(self, field: np.ndarray) -> None:
        if field.shape[-2:] != (self.ny, self.nx):
            raise ValueError(
                f"physical field trailing shape {field.shape[-2:]} != {(self.ny, self.nx)}"
            )

    def _check_spectral(self, spec: np.ndarray) -> None:
        if spec.shape[-2:] != self.spectral_shape:
            raise ValueError(
                f"spectral field trailing shape {spec.shape[-2:]} != {self.spectral_shape}"
            )
