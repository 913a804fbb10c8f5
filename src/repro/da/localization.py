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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.grid import Grid2D, periodic_distance_matrix

__all__ = [
    "gaspari_cohn",
    "LocalizationConfig",
    "analysis_stride",
    "column_distances",
    "FootprintGroup",
    "GeometryBlock",
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


@dataclass(frozen=True)
class LocalizationConfig:
    """Localization settings for LETKF.

    Attributes
    ----------
    cutoff:
        Gaspari–Cohn length scale in metres (paper's tuned value: 2000 km).
    min_weight:
        Observations whose localization weight falls below this threshold are
        dropped from the local analysis.  The default of 0 keeps the exact
        Gaspari–Cohn support (identically zero beyond twice the cut-off) and
        lets the batched LETKF use the convolution assembly; a positive
        threshold shrinks the per-column problems (useful for the reference
        loop and the grouped kernel) at the cost of ~``min_weight``-level
        changes to the analysis.  Before the vectorized kernels the default
        was ``1e-4``; pass that explicitly to reproduce older runs.
    """

    cutoff: float = 2.0e6
    min_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if not 0.0 <= self.min_weight < 1.0:
            raise ValueError("min_weight must lie in [0, 1)")

    def weights(self, distance: np.ndarray) -> np.ndarray:
        """Localization weights for the given distances."""
        return gaspari_cohn(distance, self.cutoff)


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


@dataclass(frozen=True)
class FootprintGroup:
    """Columns whose local observation footprints have the same size.

    Equal footprint sizes let the per-column local problems stack into dense
    ``(n_cols_in_group, ...)`` tensors, which is all the batched LETKF solver
    needs (columns with *identical* footprints are a special case and stack
    automatically).  All arrays are precomputed once per ``(grid, operator)``
    pair and reused every cycle.

    Attributes
    ----------
    columns:
        Analysis-grid column indices in this group, shape ``(g,)``.
    obs_indices:
        Indices into the observation vector of each column's local
        observations, shape ``(g, p)``.
    sqrt_r_inv:
        Square roots of the localized inverse observation-error variances
        ``sqrt(gc(d)/obs_error_var)`` at the selected observations,
        ``(g, p)`` — the symmetrized form is all the batched Gram/innovation
        products need.
    """

    columns: np.ndarray
    obs_indices: np.ndarray
    sqrt_r_inv: np.ndarray

    @property
    def n_local_obs(self) -> int:
        return int(self.obs_indices.shape[1])

    def to_device(self, xp) -> "FootprintGroup":
        """Copy of this group with its tensors on backend ``xp``'s device."""
        return FootprintGroup(
            xp.to_device(self.columns),
            xp.to_device(self.obs_indices),
            xp.to_device(self.sqrt_r_inv),
        )


@dataclass(frozen=True)
class GeometryBlock:
    """Slice of a :class:`LocalAnalysisGeometry` over contiguous columns.

    This is the geometry of one LETKF shard (see
    :meth:`LocalAnalysisGeometry.column_block`): it carries only what is
    needed to assemble and solve the local systems of columns
    ``[start, stop)``.

    Attributes
    ----------
    start, stop:
        Half-open analysis-grid column range covered by this block.
    mode:
        ``"convolution"`` or ``"grouped"`` (inherited from the geometry).
    obs_subset:
        Grouped mode: sorted indices into the *full* observation vector of
        the observations appearing in any footprint of this block (what the
        shard gathers from ``y_pert``/``innovation``); ``None`` in
        convolution mode, where assembly is one global FFT.
    groups:
        Grouped mode: :class:`FootprintGroup` slices with ``columns``
        shifted block-local and ``obs_indices`` remapped into
        ``obs_subset``; empty in convolution mode.
    """

    start: int
    stop: int
    mode: str
    obs_subset: np.ndarray | None
    groups: tuple[FootprintGroup, ...]

    @property
    def n_block_columns(self) -> int:
        return int(self.stop - self.start)


class LocalAnalysisGeometry:
    """Precomputed localization geometry for one ``(grid, obs network)`` pair.

    This is the cache layer behind the vectorized LETKF analysis kernels: the
    full column→observation distance structure, Gaspari–Cohn weights, and
    per-column selection footprints are computed **once** and reused across
    cycles, so steady-state analysis steps perform zero distance evaluations.

    The columns it describes are those of the **analysis grid** — rows and
    columns ``0, s, 2s, …`` of the state grid with ``s = stride`` from
    :func:`analysis_stride` — numbered row-major ``0 … n_columns - 1``;
    ``columns`` maps them to state-grid column indices and ``shape`` is the
    analysis grid's ``(ny / s, nx / s)``.  Footprints, blocks and
    ``empty_columns`` all index the analysis grid, so they are ``s²`` times
    smaller than the state grid's.  ``prior_columns`` are the *state* columns
    every one of whose interpolation neighbours is empty: they keep the prior.

    Two execution modes are selected at build time:

    ``"convolution"``
        Available when the observation-error variance is uniform and
        ``min_weight == 0``.  Because the Gaspari–Cohn weight depends only on
        the periodic column offset, the per-column weighted sums over
        observations (the local Gram matrices and innovation projections) are
        circular convolutions with a fixed kernel; the geometry stores the
        kernel's real FFT and the analysis assembles all local systems with a
        handful of batched FFTs.  This is exact: Gaspari–Cohn is identically
        zero beyond twice the cut-off, so summing over *all* observations
        equals summing over the selected footprint.

    ``"grouped"``
        The general path: per-column footprints (``weight > min_weight``) are
        grouped by footprint size into :class:`FootprintGroup` tensors which
        the batched solver processes with stacked ``eigh`` calls.

    Parameters
    ----------
    grid:
        The physical analysis grid.
    obs_columns:
        Horizontal column index of every observation, shape ``(n_obs,)``.
    config:
        Localization settings (cut-off, selection threshold).
    obs_error_var:
        Diagonal observation-error variances, shape ``(n_obs,)``.
    chunk:
        Number of analysis columns processed per build chunk (bounds the
        peak memory of the one-off build; does not affect results).
    """

    def __init__(
        self,
        grid: Grid2D,
        obs_columns: np.ndarray,
        config: LocalizationConfig,
        obs_error_var: np.ndarray,
        chunk: int = 512,
    ) -> None:
        self.grid = grid
        self.obs_columns = np.asarray(obs_columns, dtype=np.intp)
        self.config = config
        self.obs_error_var = np.asarray(obs_error_var, dtype=float)
        if self.obs_error_var.shape != self.obs_columns.shape:
            raise ValueError("obs_error_var and obs_columns must have the same length")
        self.stride = stride = analysis_stride(grid, config.cutoff)
        self.shape = (grid.ny // stride, grid.nx // stride)
        self.columns = (
            np.arange(0, grid.ny, stride)[:, None] * grid.nx + np.arange(0, grid.nx, stride)
        ).ravel()
        self.n_columns = int(self.columns.size)
        self.n_obs = int(self.obs_columns.size)

        # Cycle-invariant derived data — the shard blocks and the per-backend
        # device copies of them and of the convolution kernel spectrum —
        # so steady-state cycles do no geometry work and no geometry transfers.
        self._cache: dict[tuple, object] = {}

        uniform_var = bool(np.all(self.obs_error_var == self.obs_error_var[0]))
        if uniform_var and config.min_weight == 0.0:
            self.mode = "convolution"
            self._build_convolution()
            self.groups: list[FootprintGroup] = []
            self.empty_columns = self.prior_columns = np.empty(0, dtype=np.intp)
        else:
            self.mode = "grouped"
            self.kernel_rfft2 = None
            self.identity_network = False
            self._build_grouped(chunk)

    # ------------------------------------------------------------------ #
    def _build_convolution(self) -> None:
        """Store the real FFT of the localized R⁻¹ kernel on the grid."""
        stencil = self.grid.distance_stencil()
        kernel = gaspari_cohn(stencil, self.config.cutoff) / float(self.obs_error_var[0])
        # The kernel is even under periodic index negation, so its spectrum
        # is exactly real; taking .real only discards FFT round-off.
        self.kernel_rfft2 = np.fft.rfft2(kernel).real
        # Fully observed grid (observation i *is* state variable i): the
        # per-cycle channel scatter degenerates to a reshape.
        grid = self.grid
        self.identity_network = self.n_obs == grid.size and np.array_equal(
            self.obs_columns, np.tile(np.arange(grid.ny * grid.nx), grid.nlev)
        )

    def _build_grouped(self, chunk: int) -> None:
        """Group columns by footprint size with precomputed weights."""
        stencil = self.grid.distance_stencil()
        cutoff = self.config.cutoff
        min_weight = self.config.min_weight

        by_size: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        empty: list[np.ndarray] = []
        all_columns = np.arange(self.n_columns, dtype=np.intp)
        for start in range(0, self.n_columns, chunk):
            cols = all_columns[start : start + chunk]
            dist = self.grid.column_pair_distances(
                self.columns[cols], self.obs_columns, stencil=stencil
            )
            weight = gaspari_cohn(dist, cutoff)
            mask = weight > min_weight
            counts = mask.sum(axis=1)
            for p in np.unique(counts):
                rows = np.nonzero(counts == p)[0]
                if p == 0:
                    empty.append(cols[rows])
                    continue
                obs_idx = np.nonzero(mask[rows])[1].reshape(rows.size, int(p))
                w_sel = weight[rows[:, None], obs_idx]
                by_size.setdefault(int(p), []).append((cols[rows], obs_idx, w_sel))

        groups = []
        for p in sorted(by_size):
            parts = by_size[p]
            columns = np.concatenate([c for c, _, _ in parts])
            obs_idx = np.concatenate([i for _, i, _ in parts]).astype(np.intp)
            w_sel = np.concatenate([w for _, _, w in parts])
            groups.append(
                FootprintGroup(
                    columns=columns,
                    obs_indices=obs_idx,
                    sqrt_r_inv=np.sqrt(w_sel / self.obs_error_var[obs_idx]),
                )
            )
        self.groups = groups
        self.empty_columns = (
            np.concatenate(empty) if empty else np.empty(0, dtype=np.intp)
        )
        # Interpolate the occupancy (1 = has a footprint) exactly as the LETKF
        # interpolates weights: it is 0.0 where only empty columns contribute.
        occupied = np.ones(self.shape)
        occupied.ravel()[self.empty_columns] = 0.0
        frac = np.arange(self.stride) / self.stride
        rows = occupied[:, None] + frac[:, None] * (np.roll(occupied, -1, 0) - occupied)[:, None]
        rows = rows.reshape(self.grid.ny, -1, 1)
        full = rows + frac * (np.roll(rows, -1, 1) - rows)
        self.prior_columns = np.flatnonzero(full.ravel() == 0.0)

    # ------------------------------------------------------------------ #
    def conv_kernel(self, xp):
        """Device copy of :attr:`kernel_rfft2` on backend ``xp`` (cached).

        The localized R⁻¹ kernel spectrum never changes between cycles, so
        it is moved to the device once per backend and reused — the
        mock-device transfer counters verify this in the tests.
        """
        if self.mode != "convolution":
            raise ValueError("conv_kernel is only defined for convolution-mode geometries")
        key = ("kernel", xp.name)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = xp.to_device(self.kernel_rfft2)
        return cached

    def block(self, start: int, stop: int, xp=None) -> GeometryBlock:
        """Cached :meth:`column_block`; with ``xp``, its copy on that device.

        A static network is cut into the same shards every cycle, so each
        ``(start, stop)`` block is built once (a second copy of its share of
        the footprint arrays) and moved to a device once per backend; the
        grouped solver indexes the device copy inside its batch loop, which
        keeps that loop free of host↔device traffic.
        """
        key = ("block", int(start), int(stop), None if xp is None else xp.name)
        cached = self._cache.get(key)
        if cached is None:
            if xp is None:
                cached = self.column_block(start, stop)
            else:
                host = self.block(start, stop)
                cached = replace(
                    host,
                    obs_subset=xp.to_device(host.obs_subset),
                    groups=tuple(group.to_device(xp) for group in host.groups),
                )
            self._cache[key] = cached
        return cached

    def column_block(self, start: int, stop: int) -> GeometryBlock:
        """First-class slice of this geometry over columns ``[start, stop)``.

        The returned :class:`GeometryBlock` is self-contained: in grouped
        mode the footprint rows of the block's columns are extracted, their
        observation indices remapped onto the block's own (sorted, unique)
        ``obs_subset``, and the column indices shifted block-local, so the
        shard kernel needs only ``y_pert[:, obs_subset]`` and
        ``innovation[obs_subset]`` alongside the block.  In convolution mode
        the per-column systems come from a *global* circular convolution, so
        the block carries no geometry payload (each shard takes its rows of
        the convolved channels instead).
        """
        if not 0 <= start < stop <= self.n_columns:
            raise ValueError(
                f"column block [{start}, {stop}) outside [0, {self.n_columns})"
            )
        if self.mode == "convolution":
            return GeometryBlock(int(start), int(stop), "convolution", None, ())

        parts = []
        for group in self.groups:
            mask = (group.columns >= start) & (group.columns < stop)
            if not np.any(mask):
                continue
            parts.append(
                (
                    group.columns[mask] - start,
                    group.obs_indices[mask],
                    group.sqrt_r_inv[mask],
                )
            )
        if parts:
            obs_subset = np.unique(np.concatenate([idx.ravel() for _, idx, _ in parts]))
        else:
            obs_subset = np.empty(0, dtype=np.intp)
        groups = tuple(
            FootprintGroup(
                columns=cols,
                obs_indices=np.searchsorted(obs_subset, idx).astype(np.intp),
                sqrt_r_inv=w,
            )
            for cols, idx, w in parts
        )
        return GeometryBlock(int(start), int(stop), "grouped", obs_subset, groups)


def geometry_cache_key(
    grid: Grid2D,
    obs_columns: np.ndarray,
    config: LocalizationConfig,
    obs_error_var: np.ndarray,
) -> tuple:
    """Key identifying one ``(grid, observation network, localization)`` tuple."""
    return (
        grid,
        config.cutoff,
        config.min_weight,
        np.asarray(obs_columns, dtype=np.intp).tobytes(),
        np.asarray(obs_error_var, dtype=float).tobytes(),
    )


def column_distances(grid: Grid2D, column_index: int, obs_columns: np.ndarray) -> np.ndarray:
    """Periodic horizontal distances from one analysis column to observation columns.

    Parameters
    ----------
    grid:
        The physical grid.
    column_index:
        Index of the analysis column in ``[0, ny*nx)``.
    obs_columns:
        Column indices of the observations.

    Returns
    -------
    Distances in metres, shape ``(len(obs_columns),)``.
    """
    coords = grid.point_coordinates()
    target = coords[column_index][None, :]
    obs_xy = coords[np.asarray(obs_columns, dtype=int)]
    return periodic_distance_matrix(target, obs_xy, grid.lx, grid.ly)[0]
