"""Covariance localization for ensemble Kalman filters.

LETKF regularises the sampled covariances of a small ensemble by damping the
influence of distant observations.  The paper's SQG-LETKF uses the
Gaspari–Cohn (1999) fifth-order piecewise-rational correlation function as an
observation-error (R-)localization, with the cut-off radius optimally tuned
to 2000 km; horizontal and vertical extents are coupled through the Rossby
radius of deformation (so for the two-boundary SQG state the whole column is
updated together).

The local transforms vary on the localization scale, not the grid scale, so
they are solved on a coarser *analysis grid* — every ``s``-th row and column,
``s`` = :func:`analysis_stride` — and interpolated to the state columns (Yang,
Kalnay, Hunt & Bowler 2009, QJRMS 135).  :class:`LocalAnalysisGeometry` is
built over the analysis-grid columns only.

Every observation network is assembled one way: the local systems are
circular convolutions with one Gaspari–Cohn kernel scaled by ``1 / r₀``, and
a non-uniform R⁻¹ enters as the per-observation weight ``√(r₀ / r_o)``
multiplied into the observation perturbations and innovation.  Columns no
observation reaches keep the prior.
"""

from __future__ import annotations

import numpy as np

from repro.utils.grid import Grid2D

__all__ = [
    "gaspari_cohn",
    "analysis_stride",
    "LocalAnalysisGeometry",
    "geometry_cache_key",
]


def gaspari_cohn(distance: np.ndarray, cutoff: float) -> np.ndarray:
    """Gaspari–Cohn fifth-order compactly supported correlation function.

    Parameters
    ----------
    distance:
        Non-negative separation(s).
    cutoff:
        Localization length scale ``c``.  The function decays smoothly and is
        identically zero for ``distance ≥ 2c``.

    Returns
    -------
    Correlation values in ``[0, 1]`` with ``gaspari_cohn(0, c) == 1``.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    r = np.abs(np.asarray(distance, dtype=float)) / float(cutoff)
    out = np.zeros_like(r)

    near = r <= 1.0
    far = (r > 1.0) & (r < 2.0)

    rn = r[near]
    out[near] = (
        -0.25 * rn**5 + 0.5 * rn**4 + 0.625 * rn**3 - (5.0 / 3.0) * rn**2 + 1.0
    )
    rf = r[far]
    out[far] = (
        (1.0 / 12.0) * rf**5
        - 0.5 * rf**4
        + 0.625 * rf**3
        + (5.0 / 3.0) * rf**2
        - 5.0 * rf
        + 4.0
        - (2.0 / 3.0) / rf
    )
    return np.clip(out, 0.0, 1.0)


# The analysis grid is spaced at most this fraction of the cut-off (the
# Gaspari–Cohn half-width) and keeps at least this many points per axis.
_SPACING_FRACTION = 2.0 / 3.0
_MIN_POINTS = 4


def analysis_stride(grid: Grid2D, cutoff: float) -> int:
    """Stride ``s`` of the LETKF analysis grid: derived, never configured.

    The largest common divisor of ``ny`` and ``nx`` whose analysis-grid
    spacing ``s·max(Δx, Δy)`` stays within ⅔ of ``cutoff`` and leaves at
    least four analysis points per axis; 1 (every column is solved) when the
    cut-off is within a few grid lengths or no such divisor exists.
    """
    limit = _SPACING_FRACTION * cutoff / max(grid.dx, grid.dy)
    candidates = range(2, min(grid.ny, grid.nx) // _MIN_POINTS + 1)
    return max(
        (s for s in candidates if s <= limit and grid.ny % s == 0 and grid.nx % s == 0),
        default=1,
    )


class LocalAnalysisGeometry:
    """Precomputed localization geometry for one ``(grid, obs network)`` pair.

    This is the cache layer behind the vectorized LETKF analysis kernels: the
    Gaspari–Cohn kernel and the columns no observation reaches are computed
    **once** from a single distance-stencil evaluation and reused across
    cycles, so steady-state analysis steps perform zero distance evaluations.

    The columns it describes are those of the **analysis grid** — rows and
    columns ``0, s, 2s, …`` of the state grid with ``s = stride`` from
    :func:`analysis_stride` — numbered row-major ``0 … n_columns - 1``;
    ``columns`` maps them to state-grid column indices and ``shape`` is the
    analysis grid's ``(ny / s, nx / s)``.

    There is one assembly.  Because the Gaspari–Cohn weight depends only on
    the periodic column offset, the per-column weighted sums over
    observations (the local Gram matrices and innovation projections) are
    circular convolutions with a fixed kernel; the geometry stores the real
    FFT of ``k = gc(stencil) / r₀``, ``r₀`` the first observation's error
    variance, and the analysis assembles all local systems with a handful of
    batched FFTs.  This is exact: Gaspari–Cohn is identically zero beyond
    twice the cut-off, so summing over *all* observations equals summing
    over each column's footprint.  A non-uniform R stays a convolution:
    ``Σ_o k(c ⊖ col(o)) y_o y_oᵀ r₀ / r_o`` is the same kernel applied to
    observation perturbations weighted by ``obs_weight = √(r₀ / r_o)``, which
    the LETKF multiplies in before the transform (``obs_weight`` is ``None``
    for a uniform R, which is therefore never multiplied).

    ``empty_columns`` are the analysis-grid columns no observation reaches —
    the kernel's support convolved with the observed columns is zero there;
    ``prior_columns`` are the *state* columns every one of whose
    interpolation neighbours is empty.  They keep the prior, for every
    network; both are empty when every grid column is observed.

    Parameters
    ----------
    grid:
        The physical analysis grid.
    obs_columns:
        Horizontal column index of every observation, shape ``(n_obs,)``.
    cutoff:
        Gaspari–Cohn length scale in metres (paper's tuned value: 2000 km).
    obs_error_var:
        Diagonal observation-error variances, shape ``(n_obs,)``.
    """

    def __init__(
        self,
        grid: Grid2D,
        obs_columns: np.ndarray,
        cutoff: float,
        obs_error_var: np.ndarray,
    ) -> None:
        self.grid = grid
        self.obs_columns = np.asarray(obs_columns, dtype=np.intp)
        self.cutoff = float(cutoff)
        self.obs_error_var = np.asarray(obs_error_var, dtype=float)
        if self.obs_error_var.shape != self.obs_columns.shape:
            raise ValueError("obs_error_var and obs_columns must have the same length")
        self.stride = stride = analysis_stride(grid, self.cutoff)
        self.shape = (grid.ny // stride, grid.nx // stride)
        self.columns = (
            np.arange(0, grid.ny, stride)[:, None] * grid.nx + np.arange(0, grid.nx, stride)
        ).ravel()
        self.n_columns = int(self.columns.size)
        self.n_obs = int(self.obs_columns.size)

        # Per-backend device copies of the kernel spectrum, so steady-state
        # cycles do no geometry transfers.
        self._cache: dict[tuple, object] = {}

        weight = gaspari_cohn(grid.distance_stencil(), self.cutoff)
        r0 = float(self.obs_error_var[0])
        # The kernel is even under periodic index negation, so its spectrum
        # is exactly real; taking .real only discards FFT round-off.
        self.kernel_rfft2 = np.fft.rfft2(weight / r0).real
        uniform_var = bool(np.all(self.obs_error_var == r0))
        self.obs_weight = None if uniform_var else np.sqrt(r0 / self.obs_error_var)
        # Fully observed grid (observation i *is* state variable i): the
        # per-cycle channel scatter degenerates to a reshape.
        self.identity_network = self.n_obs == grid.size and np.array_equal(
            self.obs_columns, np.tile(np.arange(grid.ny * grid.nx), grid.nlev)
        )

        self.empty_columns = self.prior_columns = np.empty(0, dtype=np.intp)
        if self.identity_network:
            return
        observed = np.zeros((grid.ny, grid.nx))
        observed.ravel()[self.obs_columns] = 1.0
        if observed.all():
            return
        # Observations reaching each column: the kernel's support convolved
        # with the observed columns, an integer count up to FFT round-off.
        reach = np.fft.irfft2(
            np.fft.rfft2(weight > 0.0) * np.fft.rfft2(observed), s=(grid.ny, grid.nx)
        )
        self.empty_columns = np.flatnonzero(reach[::stride, ::stride] < 0.5)
        # Interpolate the occupancy (1 = reached) exactly as the LETKF
        # interpolates weights: it is 0.0 where only empty columns contribute.
        occupied = np.ones(self.shape)
        occupied.ravel()[self.empty_columns] = 0.0
        frac = np.arange(stride) / stride
        rows = occupied[:, None] + frac[:, None] * (np.roll(occupied, -1, 0) - occupied)[:, None]
        rows = rows.reshape(grid.ny, -1, 1)
        full = rows + frac * (np.roll(rows, -1, 1) - rows)
        self.prior_columns = np.flatnonzero(full.ravel() == 0.0)

    # ------------------------------------------------------------------ #
    def conv_kernel(self, xp):
        """Device copy of :attr:`kernel_rfft2` on backend ``xp`` (cached).

        The localized R⁻¹ kernel spectrum never changes between cycles, so
        it is moved to the device once per backend and reused — the
        mock-device transfer counters verify this in the tests.
        """
        key = ("kernel", xp.name)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = xp.to_device(self.kernel_rfft2)
        return cached


def geometry_cache_key(
    grid: Grid2D,
    obs_columns: np.ndarray,
    cutoff: float,
    obs_error_var: np.ndarray,
) -> tuple:
    """Key identifying one ``(grid, observation network, localization)`` tuple."""
    return (
        grid,
        float(cutoff),
        np.asarray(obs_columns, dtype=np.intp).tobytes(),
        np.asarray(obs_error_var, dtype=float).tobytes(),
    )

