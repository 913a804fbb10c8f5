"""Local Ensemble Transform Kalman Filter (LETKF).

This is the state-of-the-art baseline the paper compares against (Hunt,
Kostelich & Szunyogh 2007).  The analysis is computed independently in local
regions surrounding each horizontal grid column — the embarrassingly parallel
structure that makes LETKF the operational choice (e.g. the German KENDA
system) — with:

* Gaspari–Cohn **R-localization**: observation-error variances are inflated
  with distance so remote observations lose influence smoothly;
* **RTPS inflation** (relaxation to prior spread) applied after the update;
* optional prior multiplicative inflation.

For the two-boundary SQG state both vertical levels of a column are updated
with the same local weights (the paper couples horizontal and vertical
localization through the Rossby radius; with only two boundary levels this
reduces to whole-column updates).

One local-solve pipeline, on an analysis grid
---------------------------------------------
The ensemble-space transform of a column varies on the localization scale
(``cutoff``), not the grid scale, so — as in operational LETKFs (Yang,
Kalnay, Hunt & Bowler 2009, QJRMS 135; KENDA) — it is solved on a coarser
**analysis grid** and interpolated.  :meth:`LETKF.analyze` runs six steps:

1. **global statistics** (means, perturbations, innovation), computed once
   on the host by :meth:`LETKF._update_statistics`;
2. **the analysis grid**: every ``s``-th row and column, with ``s`` the
   largest common divisor of ``ny`` and ``nx`` such that
   ``s·max(Δx, Δy) ≤ ⅔·cutoff`` and ≥ 4 analysis points remain per axis
   (:func:`~repro.da.localization.analysis_stride`: 4 at 64², 8 at 128², 1
   when the cut-off is within a few grid lengths).  The stride is derived,
   never configured.  A :class:`~repro.da.localization.LocalAnalysisGeometry`
   (cached across cycles) describes the analysis-grid columns only;
3. **the shard list**: the analysis-grid columns cut into contiguous runs of
   ``config.shard_columns`` — a function of the grid only, which bounds the
   stacked-``eigh`` workspace;
4. **one kernel per assembly mode**, run in-process once per shard on
   device-resident arrays: :func:`_solve_convolution` takes the shard's
   columns of a global circular FFT convolution (uniform observation
   errors, ``min_weight == 0``), whose spectrum is folded onto the
   analysis grid before the inverse; it runs one cache-sized block of
   channels at a time, through buffers that persist across cycles
   (:meth:`LETKF._convolution_channels`).
   :func:`_solve_grouped` gathers the shard's precomputed footprints (a
   :class:`~repro.da.localization.GeometryBlock`).  Both end in
   :func:`solve_local_batch`, a stacked ``eigh`` over ``(n, m, m)`` tensors,
   and return each column's ``(m, m)`` weight matrix
   ``W_c = E √((m-1)/λ) Eᵀ + w̄_c 1ᵀ``;
5. **interpolate and apply** (:func:`_interpolate_apply`): periodic bilinear
   interpolation of ``W`` to every state column fused with
   ``x̄_c + X′_c W_c``, one grid row at a time so the full-resolution weight
   field never exists.  With ``s = 1`` the interpolation is skipped.  State
   columns whose interpolation neighbours all lack observations keep the
   prior bit for bit;
6. **RTPS** inflation on the whole ensemble.

Mean analysis RMSE against the stride (64² SQG, 20 members, 60 cycles; the
rule picks 4): 0.02776 / 0.02767 / 0.02738 / 0.02711 K at ``s`` = 1 / 2 / 4 /
8 (``letkf_stride_curve`` in ``BENCH_kernels.json``).

The shards run in the calling process on slices of statistics uploaded
once.  The paper's column decomposition is not shipped to a process pool:
on the hosts measured (``letkf_sharded`` in ``BENCH_kernels.json``),
shipping shards has not measurably beaten running the same shards here.
Every analysis column is an independent problem, and a state column's
weights are an elementwise function of its four neighbours', so any
``shard_columns`` / ``block_columns`` layout gives the same bits, by
construction rather than by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.filters import EnsembleFilter
from repro.core.observations import (
    IdentityObservation,
    ObservationOperator,
    SubsampledObservation,
)
from repro.da.inflation import multiplicative_inflation, rtps_inflation
from repro.da.localization import (
    LocalAnalysisGeometry,
    LocalizationConfig,
    geometry_cache_key,
)
from repro.utils.grid import Grid2D
from repro.utils.xp import ArrayBackend, as_host_array, resolve_backend

__all__ = ["LETKFConfig", "LETKF", "solve_local_batch"]


def solve_local_batch(
    a_stack: np.ndarray, c_innov: np.ndarray, xp: ArrayBackend | None = None
) -> np.ndarray:
    """Solve a stack of local ETKF problems for their weight matrices.

    This is the LETKF's per-column work-unit.  Every batch element is
    solved independently, so any contiguous re-blocking of the stack yields
    bit-identical results.

    Parameters
    ----------
    a_stack:
        Local system matrices ``(m-1) I + C Yᵀ``, shape ``(B, m, m)``.
    c_innov:
        Projected innovations ``C (y - ȳ)``, shape ``(B, m)``.
    xp:
        Array backend the inputs live on (``None`` = the process default).
        All arithmetic — the stacked ``eigh`` included — runs on that
        backend.

    Returns
    -------
    Weights ``W = E √((m-1)/λ) Eᵀ + w̄ 1ᵀ``, shape ``(B, m, m)``: analysis
    member ``k`` of a column with prior mean ``x̄`` and perturbations ``X′``
    is ``x̄ + X′ W[:, k]``.
    """
    xp = resolve_backend(xp)
    n_members = a_stack.shape[-1]
    evals, evecs = xp.stacked_eigh(a_stack)
    xp.maximum(evals, 1.0e-12, out=evals)

    # Mean-update weights: w̄ = A⁻¹ C δy = E (Eᵀ C δy / λ).
    u = xp.einsum("bji,bj->bi", evecs, c_innov)
    u /= evals
    w_mean = xp.matmul(evecs, u[:, :, None])

    # Perturbation transform: the symmetric root E √((m-1)/λ) Eᵀ.
    scaled = evecs * xp.sqrt((n_members - 1) / evals)[:, None, :]
    weights = xp.matmul(scaled, xp.ascontiguousarray(evecs.transpose(0, 2, 1)))
    weights += w_mean
    return weights


def _interpolate_apply(weights, local_pert, local_mean, shape, stride, xp: ArrayBackend):
    """Interpolate analysis-grid weights to every state column and apply them.

    ``weights`` ``(ny_a * nx_a, m, m)`` sit on the analysis grid ``shape =
    (ny_a, nx_a)``, i.e. at rows and columns ``0, stride, 2·stride, …`` of the
    state grid; ``local_pert`` ``(n_columns, nlev, m)`` and ``local_mean``
    ``(n_columns, nlev)`` cover every state column.  Returns
    ``x̄_c + X′_c W_c`` ``(n_columns, nlev, m)`` with ``W_c`` the periodic
    bilinear interpolant, built and consumed one grid row at a time.
    """
    if stride == 1:
        analysis = xp.matmul(local_pert, weights)
    else:
        (ny_a, nx_a), n_members = shape, weights.shape[-1]
        w = weights.reshape(ny_a, nx_a, 1, n_members, n_members)
        w = xp.concatenate([w, w[:1]], axis=0)  # periodic wrap-around
        w = xp.concatenate([w, w[:, :1]], axis=1)
        pert = local_pert.reshape(ny_a, stride, nx_a, stride, -1, n_members)
        analysis = xp.empty(pert.shape)
        band = xp.empty((nx_a, stride, n_members, n_members))
        frac_x = (xp.arange(stride) / stride).reshape(stride, 1, 1)
        for j in range(ny_a):
            step_y = w[j + 1] - w[j]
            for r in range(stride):
                row = w[j] + (r / stride) * step_y  # (nx_a + 1, 1, m, m)
                xp.multiply(row[1:] - row[:-1], frac_x, out=band)
                band += row[:-1]
                xp.matmul(pert[j, r], band, out=analysis[j, r])
        analysis = analysis.reshape(local_pert.shape)
    analysis += local_mean[:, :, None]
    return analysis


def _assemble_from_conv(
    conv_block: np.ndarray, n_members: int, xp: ArrayBackend
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(a_stack, c_innov)`` from a block of convolved channels.

    Each row of ``conv_block`` ``(n_block_columns, n_pair + m)`` holds one
    column's ``m(m+1)/2`` upper-triangle Gram channels followed by its ``m``
    innovation channels — the output of the global circular convolution (see
    :meth:`LETKF._convolution_channels`) — on ``xp``'s device.
    """
    iu0, iu1 = xp.triu_indices(n_members)
    n_pair = iu0.size
    a_stack = xp.empty((conv_block.shape[0], n_members, n_members))
    a_stack[:, iu0, iu1] = conv_block[:, :n_pair]
    a_stack[:, iu1, iu0] = conv_block[:, :n_pair]
    diag = xp.arange(n_members)
    a_stack[:, diag, diag] += n_members - 1
    return a_stack, conv_block[:, n_pair:]


def _solve_convolution(conv_block, n_members: int, xp: ArrayBackend):
    """Convolution-mode shard kernel: assemble from channels, then solve.

    ``conv_block`` (on ``xp``'s device) is the shard's rows of
    :meth:`LETKF._convolution_channels`.  Returns weights ``(n_block, m, m)``.
    """
    return solve_local_batch(*_assemble_from_conv(conv_block, n_members, xp), xp)


def _solve_grouped(groups, y_sub_t, innov_sub, n_block, max_batch, xp):
    """Grouped-mode shard kernel: gather footprints, assemble, solve.

    All arrays live on ``xp``'s device.  ``groups`` are the shard's
    :class:`~repro.da.localization.FootprintGroup` slices (block-local
    columns, observation indices into ``y_sub_t`` ``(p_sub, m)`` /
    ``innov_sub`` ``(p_sub,)``); at most ``max_batch`` columns are gathered
    at a time.  Returns weights ``(n_block, m, m)``; a column without a
    footprint gets the identity.
    """
    n_members = y_sub_t.shape[-1]
    diag = xp.arange(n_members)
    weights = xp.zeros((n_block, n_members, n_members))
    weights[:, diag, diag] = 1.0
    for group in groups:
        n_group = group.columns.shape[0]
        for start in range(0, n_group, max_batch):
            sl = slice(start, min(start + max_batch, n_group))
            idx = group.obs_indices[sl]
            sqrt_r = group.sqrt_r_inv[sl]
            cols = group.columns[sl]

            q = xp.take(y_sub_t, idx, axis=0)  # (B, p, m)
            q *= sqrt_r[:, :, None]
            a_stack = xp.matmul(q.transpose(0, 2, 1), q)
            a_stack[:, diag, diag] += n_members - 1
            c_innov = xp.einsum("bpm,bp->bm", q, sqrt_r * innov_sub[idx])
            weights[cols] = solve_local_batch(a_stack, c_innov, xp)
    return weights


# The convolution assembly runs one contiguous block of channels at a time,
# as many as fit, with their spectrum, in this many bytes: 15 of a 20-member
# ensemble's 230 channels at 128², 63 at 64², all 230 at 32².  Every channel
# is an independent transform, so any block gives the same bits;
# ``assembly_block_curve`` in ``BENCH_kernels.json`` is the sweep behind it.
_ASSEMBLY_BYTES = 4 << 20


def _assembly_block(n_channels: int, ny: int, nx: int) -> int:
    """Channels per assembly block on a ``(ny, nx)`` grid (see ``_ASSEMBLY_BYTES``)."""
    channel_bytes = ny * nx * 8 + ny * (nx // 2 + 1) * 16  # float rows + complex spectrum
    return max(1, min(n_channels, _ASSEMBLY_BYTES // channel_bytes))


class _AssemblyWorkspace:
    """Buffers the convolution assembly keeps from cycle to cycle, sized to
    one block of ``B = _assembly_block(C, ny, nx)`` of the ``C = m(m+1)/2 +
    m`` channels: the ``(B, ny·nx)`` channel rows and their ``(B, ny,
    nx//2+1)`` spectrum, plus a ``(min(m, B), ny·nx)`` product scratch that
    only the identity network's second and later levels use, so it is
    allocated on first use.  ``key`` is what they were sized for:
    ``(m, ny, nx, backend name)``."""

    def __init__(self, n_members: int, ny: int, nx: int, xp: ArrayBackend):
        block = _assembly_block(n_members * (n_members + 3) // 2, ny, nx)
        self.key = (n_members, ny, nx, xp.name)
        self.channels = xp.empty((block, ny * nx))
        self.spectrum = xp.empty((block, ny, nx // 2 + 1), dtype=complex)
        self.scratch = None

    def product_scratch(self, xp: ArrayBackend):
        if self.scratch is None:
            rows = min(self.key[0], len(self.channels))
            self.scratch = xp.empty((rows, self.channels.shape[1]))
        return self.scratch


def _channel_runs(n_members: int, lo: int, hi: int):
    """Channels ``lo … hi-1`` as runs of one broadcast product each.

    The channels are the upper triangle's rows, pairs ``(i, i) … (i, m-1)``
    contiguous as in ``triu_indices``, then the ``m`` innovation channels.
    Yields ``(i, j0, j1, row)``: block rows ``row, row+1, …`` are
    ``y[j0:j1] * y[i]``, or ``y[j0:j1] * innovation`` for ``i == m``.
    """
    start = 0
    for i in range(n_members + 1):
        first = i if i < n_members else 0
        stop = start + n_members - first
        a, b = max(start, lo), min(stop, hi)
        if a < b:
            yield i, first + a - start, first + b - start, a - lo
        start = stop


def _deposit(rows, left, right, scratch, xp: ArrayBackend) -> None:
    """``rows = left * right`` without a scratch (the first level), else
    ``rows += left * right`` with the product formed in ``scratch``."""
    if scratch is None:
        xp.multiply(left, right, out=rows)
    else:
        rows += xp.multiply(left, right, out=scratch[: len(rows)])


@dataclass(frozen=True)
class LETKFConfig:
    """LETKF tuning parameters.

    The defaults are the paper's optimally tuned values for the SQG testbed:
    RTPS factor 0.3 and a 2000 km localization cut-off.  The default
    localization (see :class:`~repro.da.localization.LocalizationConfig`)
    uses ``min_weight = 0`` — exact Gaspari–Cohn support, which enables the
    fast convolution assembly; a positive ``min_weight`` selects the
    grouped-footprint kernel instead.

    Attributes
    ----------
    block_columns:
        Upper bound on the number of columns per grouped-gather batch; caps
        the peak size of the stacked ``(B, p, m)`` local-observation
        tensors, whose size depends on the footprint.
    shard_columns:
        Number of contiguous analysis-grid columns per shard — the unit the
        local solves run over, and therefore the bound on the
        stacked-``eigh`` workspace.  The shard list is a function of the
        grid only.
    backend:
        Array backend name for the shard kernels
        (``None`` = the ``REPRO_ARRAY_BACKEND`` process default).  The
        numpy backend is bit-identical to the pre-shim kernels.
    """

    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    rtps_factor: float = 0.3
    prior_inflation: float = 1.0
    block_columns: int = 512
    shard_columns: int = 1024
    backend: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rtps_factor <= 1.0:
            raise ValueError("rtps_factor must lie in [0, 1]")
        if self.prior_inflation < 1.0:
            raise ValueError("prior multiplicative inflation must be >= 1")
        if self.block_columns < 1:
            raise ValueError("block_columns must be positive")
        if self.shard_columns < 1:
            raise ValueError("shard_columns must be positive")


class LETKF(EnsembleFilter):
    """LETKF analysis on a doubly-periodic grid.

    Parameters
    ----------
    grid:
        Physical grid describing the state layout ``(nlev, ny, nx)``; used to
        compute periodic distances for localization.
    config:
        Tuning parameters (localization radius, inflation factors).
    obs_columns:
        Optional explicit mapping from observation index to horizontal column
        index.  When omitted it is derived automatically for identity and
        subsampled observation operators.
    """

    def __init__(
        self,
        grid: Grid2D,
        config: LETKFConfig | None = None,
        obs_columns: np.ndarray | None = None,
    ) -> None:
        self.grid = grid
        self.config = config or LETKFConfig()
        self.xp = resolve_backend(self.config.backend)
        self._obs_columns = None if obs_columns is None else np.asarray(obs_columns, dtype=int)
        # Geometry cache: one entry per (grid, obs network, localization)
        # identity, so a static network costs zero distance computations
        # after the first analysis cycle.  Bounded so per-cycle adaptive
        # networks/variances cannot accumulate stale geometries.
        self._geometry_cache: dict[tuple, LocalAnalysisGeometry] = {}
        self._geometry_cache_max = 4
        self._assembly: _AssemblyWorkspace | None = None

    def __getstate__(self):
        # The assembly workspace is cheap to rebuild (≈ 6 MB at 128², 20
        # members); drop it so filters pickle compactly.
        state = self.__dict__.copy()
        state["_assembly"] = None
        return state

    def _assembly_workspace(self, n_members: int) -> _AssemblyWorkspace:
        """The assembly buffers, rebuilt only when ``(m, ny, nx, backend)`` changes."""
        grid, xp = self.grid, self.xp
        key = (n_members, grid.ny, grid.nx, xp.name)
        if self._assembly is None or self._assembly.key != key:
            self._assembly = None  # release the old buffers before allocating
            self._assembly = _AssemblyWorkspace(n_members, grid.ny, grid.nx, xp)
        return self._assembly

    # ------------------------------------------------------------------ #
    def _resolve_obs_columns(self, operator: ObservationOperator) -> np.ndarray:
        """Horizontal column index of every observation."""
        if self._obs_columns is not None:
            if self._obs_columns.shape != (operator.obs_dim,):
                raise ValueError("obs_columns length does not match operator.obs_dim")
            return self._obs_columns
        if isinstance(operator, IdentityObservation):
            return self.grid.column_index(np.arange(operator.obs_dim))
        if isinstance(operator, SubsampledObservation):
            return self.grid.column_index(operator.indices)
        raise ValueError(
            "LETKF needs observation locations: pass obs_columns for operators "
            f"of type {type(operator).__name__}"
        )

    def geometry(self, operator: ObservationOperator) -> LocalAnalysisGeometry:
        """Cached :class:`LocalAnalysisGeometry` for ``operator``'s network."""
        obs_columns = self._resolve_obs_columns(operator)
        key = geometry_cache_key(
            self.grid, obs_columns, self.config.localization, operator.obs_error_var
        )
        geometry = self._geometry_cache.get(key)
        if geometry is None:
            geometry = LocalAnalysisGeometry(
                self.grid, obs_columns, self.config.localization, operator.obs_error_var
            )
            while len(self._geometry_cache) >= self._geometry_cache_max:
                self._geometry_cache.pop(next(iter(self._geometry_cache)))
            self._geometry_cache[key] = geometry
        else:
            # Refresh LRU order (dicts preserve insertion order).
            self._geometry_cache.pop(key)
            self._geometry_cache[key] = geometry
        return geometry

    # ------------------------------------------------------------------ #
    def _validate(self, forecast_ensemble) -> np.ndarray:
        # Accepts a host array or a StateHandle (the cycle engine's
        # device-state seam); LETKF staging starts from the host mirror.
        forecast_ensemble = np.asarray(as_host_array(forecast_ensemble), dtype=float)
        if forecast_ensemble.ndim != 2:
            raise ValueError("forecast ensemble must have shape (m, state_dim)")
        n_members, state_dim = forecast_ensemble.shape
        if state_dim != self.grid.size:
            raise ValueError(
                f"state dimension {state_dim} does not match grid size {self.grid.size}"
            )
        if n_members < 2:
            raise ValueError("LETKF requires at least two ensemble members")
        return forecast_ensemble

    def _update_statistics(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Global ensemble statistics, the pipeline's first step (host side).

        Returns ``(prior, x_mean, x_pert, y_pert, innovation)`` with prior
        multiplicative inflation already applied.
        """
        prior = forecast_ensemble
        if self.config.prior_inflation > 1.0:
            prior = multiplicative_inflation(prior, self.config.prior_inflation)

        x_mean = prior.mean(axis=0)
        x_pert = prior - x_mean
        y_ens = operator.apply(prior)
        y_mean = y_ens.mean(axis=0)
        y_pert = y_ens - y_mean
        innovation = observation - y_mean
        return prior, x_mean, x_pert, y_pert, innovation

    def analyze(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> np.ndarray:
        """The analysis pipeline (see the module docstring): the shard
        kernels run in-process on slices of device-resident statistics."""
        forecast_ensemble = self._validate(forecast_ensemble)
        observation = np.asarray(observation, dtype=float)

        prior, x_mean, x_pert, y_pert, innovation = self._update_statistics(
            forecast_ensemble, observation, operator
        )
        geometry = self.geometry(operator)
        xp = self.xp
        n_members = prior.shape[0]
        n_columns, n_levels = self.grid.ny * self.grid.nx, self.grid.nlev
        shard = self.config.shard_columns
        bounds = [
            (start, min(start + shard, geometry.n_columns))
            for start in range(0, geometry.n_columns, shard)
        ]

        if geometry.mode == "convolution":
            kernel = _solve_convolution
            # The circular convolution is global: it runs once, and each
            # shard takes its columns' rows.
            conv = self._convolution_channels(y_pert, innovation, geometry, n_members)
            jobs = ((conv[a:b], n_members) for a, b in bounds)
        else:
            kernel = _solve_grouped
            y_t = xp.to_device(np.ascontiguousarray(y_pert.T))  # (n_obs, m)
            innovation = xp.to_device(innovation)
            blocks = (geometry.block(a, b, xp) for a, b in bounds)
            jobs = (
                (
                    block.groups,
                    y_t[block.obs_subset],
                    innovation[block.obs_subset],
                    block.n_block_columns,
                    self.config.block_columns,
                )
                for block in blocks
            )

        # The jobs are lazy, so only one shard's gather is alive at a time.
        weights = xp.concatenate([kernel(*job, xp) for job in jobs], axis=0)

        # Column-major prior, member axis last: (n_columns, nlev, m).
        local_pert = xp.to_device(
            np.ascontiguousarray(x_pert.reshape(n_members, n_levels, n_columns).transpose(2, 1, 0))
        )
        local_mean = xp.to_device(np.ascontiguousarray(x_mean.reshape(n_levels, n_columns).T))
        analysis_t = xp.to_host(
            _interpolate_apply(
                weights, local_pert, local_mean, geometry.shape, geometry.stride, xp
            )
        )
        analysis = np.ascontiguousarray(analysis_t.transpose(2, 1, 0)).reshape(
            n_members, n_levels * n_columns
        )
        if geometry.prior_columns.size:
            # Columns no observation reaches keep the prior, bit for bit.
            keep = (geometry.prior_columns + np.arange(n_levels)[:, None] * n_columns).ravel()
            analysis[:, keep] = prior[:, keep]
        if self.config.rtps_factor > 0.0:
            analysis = rtps_inflation(analysis, forecast_ensemble, self.config.rtps_factor)
        return analysis

    # ------------------------------------------------------------------ #
    def _convolution_channels(
        self,
        y_pert: np.ndarray,
        innovation: np.ndarray,
        geometry: LocalAnalysisGeometry,
        n_members: int,
    ) -> np.ndarray:
        """Convolved Gram/innovation channels at the analysis-grid columns.

        For uniform observation errors the localized Gram matrix of column
        ``c`` is ``A_c = (m-1)I + Σ_o k(c ⊖ col(o)) y_o y_oᵀ / r`` — a
        circular convolution of the per-column outer-product channels with
        the fixed Gaspari–Cohn kernel.  One batched real FFT over the
        ``m(m+1)/2`` symmetric channels (plus ``m`` innovation channels)
        replaces every per-column distance/weight/gather operation.

        Only the analysis-grid columns are consumed, so with stride ``s > 1``
        the inverse runs small: sampling every ``s``-th row of a periodic
        signal sums the spectrum's ``s`` aliases along y, so the spectrum,
        once multiplied by the kernel, is folded to ``ny/s`` rows, inverted
        at ``(ny/s, nx)``, and every ``s``-th x is kept and divided by ``s``.
        The same law as inverting at ``(ny, nx)`` and slicing, not the same
        bits (≈ 1e-16 relative); at stride 1 the fold sums one alias and
        the inverse is the unfolded one, bit for bit.

        The channels run through products → ``rfft2`` → kernel → fold →
        ``irfft2`` one contiguous block at a time (:func:`_assembly_block`:
        15 channels at 128², all of them at 32²), so the transform working
        set stays cache-sized; every channel is an independent transform,
        so the blocking changes no bit.  The block's channels, spectrum and
        product scratch live in the instance's :class:`_AssemblyWorkspace`,
        reused every cycle (rebuilt only when the member count, grid or
        backend changes): level 0 writes its products straight into the
        channel rows and the ``bincount`` path overwrites every row, so
        nothing is zeroed.

        Returns a fresh ``(geometry.n_columns, m(m+1)/2 + m)`` array of local
        system entries (one row per analysis-grid column: upper-triangle Gram
        channels then innovation channels) on the analysis backend's device;
        it never aliases the workspace, so shards of one cycle survive the
        next cycle's assembly.
        """
        xp = self.xp
        grid = self.grid
        ny, nx, n_levels = grid.ny, grid.nx, grid.nlev
        n_columns = ny * nx
        n_channels = n_members * (n_members + 3) // 2

        y_pert = xp.to_device(y_pert)
        innovation = xp.to_device(innovation)
        workspace = self._assembly_workspace(n_members)
        kernel = geometry.conv_kernel(xp)
        stride = geometry.stride
        ny_a, nx_a = geometry.shape
        if geometry.identity_network:
            # Fast path for the fully observed grid: observations are the
            # state columns themselves, so the scatter is a reshape and a
            # run of channels is one product of contiguous slices.
            y_lev = y_pert.reshape(n_members, n_levels, n_columns)
            innov_lev = innovation.reshape(n_levels, n_columns)
        else:
            obs_cols_dev = xp.to_device(geometry.obs_columns)

        # Fresh rows: shards of this cycle may outlive the next assembly.
        rows = xp.empty((ny_a, nx_a, n_channels))
        block = len(workspace.channels)
        for lo in range(0, n_channels, block):
            hi = min(lo + block, n_channels)
            channels = workspace.channels[: hi - lo]
            runs = list(_channel_runs(n_members, lo, hi))
            if geometry.identity_network:
                for lev in range(n_levels):
                    scratch = workspace.product_scratch(xp) if lev else None
                    for i, j0, j1, row in runs:
                        right = innov_lev[lev] if i == n_members else y_lev[i, lev]
                        out = channels[row : row + j1 - j0]
                        _deposit(out, y_lev[j0:j1, lev], right, scratch, xp)
            else:
                for i, j0, j1, row in runs:
                    products = y_pert[j0:j1] * (innovation if i == n_members else y_pert[i])
                    for k in range(j1 - j0):
                        channels[row + k] = xp.bincount(
                            obs_cols_dev, weights=products[k], minlength=n_columns
                        )

            spectra = xp.rfft2(
                channels.reshape(-1, ny, nx), axes=(-2, -1), out=workspace.spectrum[: hi - lo]
            )
            spectra *= kernel
            # Every stride-th row of the convolution is the inverse, at ny/s,
            # of the sum of the spectrum's s aliases along y, divided by s.
            folded = xp.sum(spectra.reshape(-1, stride, ny_a, nx // 2 + 1), axis=1)
            conv = xp.irfft2(folded, s=(ny_a, nx), axes=(-2, -1))
            xp.divide(conv[:, :, ::stride].transpose(1, 2, 0), stride, out=rows[:, :, lo:hi])
        return rows.reshape(geometry.n_columns, -1)
