"""Test-only oracle: the SQG fused RK4 step as it stood before PR 23.

``_ForecastWorkspace``, ``_tendency_fused`` and ``step_spectral_device`` are
the parent commit's code, bodies verbatim; :class:`HeadStepper` rebuilds the
constants ``SQGModel.__init__`` used to hoist for them (from the public
spectral grid and parameters, so nothing here depends on the new kernel) and
carries the one-workspace-per-leading-shape cache.  The member-chunked kernel
in ``repro/models/sqg.py`` must be ``array_equal`` to this for every grid,
leading shape, branch and array backend — it lives under ``tests/`` so that
``src/`` cannot import it.
"""

from __future__ import annotations

import numpy as np

from repro.utils.xp import ArrayBackend


class _ForecastWorkspace:
    def __init__(self, lead: tuple[int, ...], ny: int, nkx: int, keep: int, xp: ArrayBackend):
        full = lead + (2, ny, nkx)
        pruned = lead + (2, ny, keep)
        level = lead + (ny, keep)
        self.thp = xp.empty(pruned, dtype=complex)  # contiguous retained-state copy
        self.thf = xp.empty(pruned, dtype=complex)  # buoyancy-scaled θ̂
        self.psi = xp.empty(pruned, dtype=complex)
        self.t1 = xp.empty(level, dtype=complex)
        self.t2 = xp.empty(level, dtype=complex)
        self.quad = xp.empty((4,) + pruned, dtype=complex)  # θ̂_x, θ̂_y, û, v̂
        self.k = [xp.empty(full, dtype=complex) for _ in range(4)]
        self.stage = xp.empty(full, dtype=complex)
        self.acc = xp.empty(full, dtype=complex)
        self.div = xp.empty(full, dtype=complex)


class HeadStepper:
    """The parent commit's step, bound to an :class:`SQGModel`'s grid."""

    def __init__(self, model):
        self.params = p = model.params
        self.xp = xp = model.xp
        self.spectral = sp = model.spectral

        kappa = sp.kappa
        mu = p.brunt_vaisala * kappa * p.depth / p.coriolis
        mu_safe = np.clip(mu, 1.0e-12, 500.0)
        zero_mode = kappa == 0.0
        h_over_mu = np.where(zero_mode, 0.0, p.depth / mu_safe)
        inv_sinh = np.where(zero_mode, 0.0, 1.0 / np.sinh(mu_safe))
        inv_tanh = np.where(zero_mode, 0.0, 1.0 / np.tanh(mu_safe))
        u_base = np.array([-0.5 * p.shear_velocity, 0.5 * p.shear_velocity])
        self._factor = p.buoyancy_factor
        self._mean_grad = (p.shear_velocity / p.depth) / self._factor
        hyperdiff = sp.hyperdiffusion_filter(p.dt, p.hyperdiff_efold, p.hyperdiff_order)

        keep = sp.kx_keep
        self._keep = keep
        self._ikx_m = xp.to_device(np.ascontiguousarray(sp.ikx_dealias[:, :keep]))
        self._ily_m = xp.to_device(np.ascontiguousarray(sp.ily_dealias[:, :keep]))
        self._mask_keep = xp.to_device(np.ascontiguousarray(sp.dealias_mask[:, :keep]))
        self._h_over_mu_k = xp.to_device(np.ascontiguousarray(h_over_mu[:, :keep]))
        self._inv_sinh_k = xp.to_device(np.ascontiguousarray(inv_sinh[:, :keep]))
        self._inv_tanh_k = xp.to_device(np.ascontiguousarray(inv_tanh[:, :keep]))
        self._hyperdiff_dev = xp.to_device(hyperdiff)
        self._u_base_col = xp.to_device(u_base.reshape((2, 1, 1)))
        self._workspaces: dict[tuple[int, ...], _ForecastWorkspace] = {}

    def _workspace(self, lead: tuple[int, ...]) -> _ForecastWorkspace:
        ws = self._workspaces.get(lead)
        if ws is None:
            p = self.params
            ws = _ForecastWorkspace(lead, p.ny, p.nx // 2 + 1, self._keep, self.xp)
            self._workspaces[lead] = ws
        return ws

    def _tendency_fused(self, theta_spec, out, ws):
        sp = self.spectral
        p = self.params
        xp = self.xp
        keep = self._keep

        # Contiguous copy of the retained columns (strided views slow every
        # subsequent elementwise pass).
        xp.copyto(ws.thp, theta_spec[..., :keep])
        thp = ws.thp

        # --- inversion θ̂ → ψ̂ on the retained columns ---------------------- #
        th0 = xp.multiply(thp[..., 0, :, :], self._factor, out=ws.thf[..., 0, :, :])
        th1 = xp.multiply(thp[..., 1, :, :], self._factor, out=ws.thf[..., 1, :, :])
        xp.multiply(th1, self._inv_sinh_k, out=ws.t1)
        xp.multiply(th0, self._inv_tanh_k, out=ws.t2)
        xp.subtract(ws.t1, ws.t2, out=ws.t1)
        xp.multiply(self._h_over_mu_k, ws.t1, out=ws.psi[..., 0, :, :])
        xp.multiply(th1, self._inv_tanh_k, out=ws.t1)
        xp.multiply(th0, self._inv_sinh_k, out=ws.t2)
        xp.subtract(ws.t1, ws.t2, out=ws.t1)
        xp.multiply(self._h_over_mu_k, ws.t1, out=ws.psi[..., 1, :, :])

        # --- θ̂_x, θ̂_y, û, v̂ stacked for one batched inverse transform ----- #
        xp.multiply(self._ikx_m, thp, out=ws.quad[0])
        xp.multiply(self._ily_m, thp, out=ws.quad[1])
        xp.multiply(self._ily_m, ws.psi, out=ws.quad[2])
        xp.negative(ws.quad[2], out=ws.quad[2])  # û = −(i·l·mask)·ψ̂
        xp.multiply(self._ikx_m, ws.psi, out=ws.quad[3])
        theta_x, theta_y, u, v = sp.to_physical_retained(ws.quad)

        # --- physical-space products (reference operation order) ----------- #
        xp.add(u, self._u_base_col, out=u)
        xp.multiply(u, theta_x, out=u)
        xp.multiply(v, theta_y, out=theta_y)
        xp.add(u, theta_y, out=u)                 # advection
        xp.multiply(v, -self._mean_grad, out=v)   # baroclinic
        xp.add(u, v, out=u)
        xp.negative(u, out=u)                     # tend_phys

        # --- back to (retained) spectral space, dealias, relax -------------- #
        conv = sp.to_spectral_retained(u)
        xp.multiply(conv, self._mask_keep, out=conv)
        xp.divide(theta_spec, p.relaxation_time, out=ws.div)
        xp.subtract(conv, ws.div[..., :keep], out=out[..., :keep])
        xp.negative(ws.div[..., keep:], out=out[..., keep:])

        if p.ekman_drag > 0.0:
            drag0 = xp.multiply(
                theta_spec[..., 0, :, :], -p.ekman_drag, out=ws.div[..., 0, :, :]
            )
            xp.add(out[..., 0, :, :], drag0, out=out[..., 0, :, :])
            # The reference adds an all-zero drag level; replicate the +0.0
            # pass so even signed zeros match.
            xp.add(out[..., 1, :, :], 0.0, out=out[..., 1, :, :])
        return out

    def step_spectral_device(self, theta_spec):
        xp = self.xp
        ws = self._workspace(theta_spec.shape[:-3])
        dt = self.params.dt
        k1, k2, k3, k4 = ws.k
        self._tendency_fused(theta_spec, k1, ws)
        xp.multiply(k1, 0.5 * dt, out=ws.stage)
        xp.add(theta_spec, ws.stage, out=ws.stage)
        self._tendency_fused(ws.stage, k2, ws)
        xp.multiply(k2, 0.5 * dt, out=ws.stage)
        xp.add(theta_spec, ws.stage, out=ws.stage)
        self._tendency_fused(ws.stage, k3, ws)
        xp.multiply(k3, dt, out=ws.stage)
        xp.add(theta_spec, ws.stage, out=ws.stage)
        self._tendency_fused(ws.stage, k4, ws)
        # new = (θ̂ + dt/6 · (k1 + 2·k2 + 2·k3 + k4)) · hyperdiff, in the
        # reference association order.
        xp.multiply(k2, 2.0, out=ws.acc)
        xp.add(k1, ws.acc, out=ws.acc)
        xp.multiply(k3, 2.0, out=ws.stage)
        xp.add(ws.acc, ws.stage, out=ws.acc)
        xp.add(ws.acc, k4, out=ws.acc)
        xp.multiply(ws.acc, dt / 6.0, out=ws.acc)
        new = xp.add(theta_spec, ws.acc)
        xp.multiply(new, self._hyperdiff_dev, out=new)
        return new

    def advance(self, theta_spec, n_steps: int):
        """``n_steps`` of :meth:`step_spectral_device` (the old trajectory loop)."""
        for _ in range(n_steps):
            theta_spec = self.step_spectral_device(theta_spec)
        return theta_spec
