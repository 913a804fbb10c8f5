"""Test-only oracle: the LETKF convolution assembly as it stood before the
channel blocking.

``_AssemblyWorkspace``, ``_deposit`` and ``_convolution_channels`` are the
previous release's code, bodies verbatim: one whole-spectrum workspace, every
channel transformed in one batch.  :class:`HeadAssembly` binds them to an
:class:`~repro.da.letkf.LETKF`'s grid and backend and keeps its own
workspace.  The blocked assembly in ``repro/da/letkf.py`` must be
``array_equal`` to this for every stride, network, member count and block
size — it lives under ``tests/`` so that ``src/`` cannot import it.
"""

from __future__ import annotations

import numpy as np

from repro.da.localization import LocalAnalysisGeometry
from repro.utils.xp import ArrayBackend


class _AssemblyWorkspace:
    """Buffers the convolution assembly keeps from cycle to cycle: the
    ``(C, ny·nx)`` channels and their ``(C, ny, nx//2+1)`` spectrum, with
    ``C = m(m+1)/2 + m`` channels, plus an ``(m, ny·nx)`` product scratch
    that only the identity network's second and later levels use, so it is
    allocated on first use.  ``key`` is what they were sized for:
    ``(m, ny, nx, backend name)``."""

    def __init__(self, n_members: int, ny: int, nx: int, xp: ArrayBackend):
        n_channels = n_members * (n_members + 3) // 2
        self.key = (n_members, ny, nx, xp.name)
        self.channels = xp.empty((n_channels, ny * nx))
        self.spectrum = xp.empty((n_channels, ny, nx // 2 + 1), dtype=complex)
        self.scratch = None

    def product_scratch(self, xp: ArrayBackend):
        if self.scratch is None:
            self.scratch = xp.empty((self.key[0], self.channels.shape[1]))
        return self.scratch


def _deposit(rows, left, right, scratch, xp: ArrayBackend) -> None:
    """``rows = left * right`` without a scratch (the first level), else
    ``rows += left * right`` with the product formed in ``scratch``."""
    if scratch is None:
        xp.multiply(left, right, out=rows)
    else:
        rows += xp.multiply(left, right, out=scratch[: len(rows)])


class HeadAssembly:
    """The previous release's assembly, bound to an LETKF's grid and backend."""

    def __init__(self, letkf):
        self.grid = letkf.grid
        self.xp = letkf.xp
        self._assembly: _AssemblyWorkspace | None = None

    def _assembly_workspace(self, n_members: int) -> _AssemblyWorkspace:
        """The assembly buffers, rebuilt only when ``(m, ny, nx, backend)`` changes."""
        grid, xp = self.grid, self.xp
        key = (n_members, grid.ny, grid.nx, xp.name)
        if self._assembly is None or self._assembly.key != key:
            self._assembly = None  # release the old buffers before allocating
            self._assembly = _AssemblyWorkspace(n_members, grid.ny, grid.nx, xp)
        return self._assembly

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

        The channels, their spectrum and a product scratch live in the
        instance's :class:`_AssemblyWorkspace`, reused every cycle (rebuilt
        only when the member count, grid or backend changes): level 0 writes
        its products straight into the channel rows and the ``bincount``
        path overwrites every row, so nothing is zeroed.

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

        y_pert = xp.to_device(y_pert)
        innovation = xp.to_device(innovation)
        n_pair = n_members * (n_members + 1) // 2
        workspace = self._assembly_workspace(n_members)
        channels = workspace.channels

        if geometry.identity_network:
            # Fast path for the fully observed grid: observations are the
            # state columns themselves, so the scatter is a reshape.  Row i
            # of the upper triangle — pairs (i, i), …, (i, m-1), contiguous
            # in ``triu_indices`` order — is one product of contiguous slices.
            y_lev = y_pert.reshape(n_members, n_levels, n_columns)
            innov_lev = innovation.reshape(n_levels, n_columns)
            for lev in range(n_levels):
                scratch = workspace.product_scratch(xp) if lev else None
                start = 0
                for i in range(n_members):
                    stop = start + n_members - i
                    _deposit(channels[start:stop], y_lev[i:, lev], y_lev[i, lev], scratch, xp)
                    start = stop
                _deposit(channels[n_pair:], y_lev[:, lev], innov_lev[lev], scratch, xp)
        else:
            iu0, iu1 = xp.triu_indices(n_members)
            obs_cols_dev = xp.to_device(geometry.obs_columns)
            contrib = y_pert[iu0] * y_pert[iu1]
            proj = y_pert * innovation[None, :]
            for q in range(n_pair):
                channels[q] = xp.bincount(
                    obs_cols_dev, weights=contrib[q], minlength=n_columns
                )
            for j in range(n_members):
                channels[n_pair + j] = xp.bincount(
                    obs_cols_dev, weights=proj[j], minlength=n_columns
                )

        spectra = xp.rfft2(channels.reshape(-1, ny, nx), axes=(-2, -1), out=workspace.spectrum)
        spectra *= geometry.conv_kernel(xp)
        # Every stride-th row of the convolution is the inverse, at ny/s, of
        # the sum of the spectrum's s aliases along y, divided by s.
        stride = geometry.stride
        ny_a, nx_a = geometry.shape
        folded = xp.sum(spectra.reshape(-1, stride, ny_a, nx // 2 + 1), axis=1)
        conv = xp.irfft2(folded, s=(ny_a, nx), axes=(-2, -1))
        # Fresh rows: shards of this cycle may outlive the next assembly.
        rows = xp.empty((ny_a, nx_a, len(channels)))
        xp.divide(conv[:, :, ::stride].transpose(1, 2, 0), stride, out=rows)
        return rows.reshape(geometry.n_columns, -1)
