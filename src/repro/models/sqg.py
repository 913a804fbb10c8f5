"""Two-boundary surface quasi-geostrophic (SQG) turbulence model.

This is the benchmark forecast model of the paper (§II-B): a nonlinear Eady
model on an f-plane with uniform stratification and shear, discretised
spectrally with the FFT, advanced with a 4th-order Runge–Kutta scheme, the
2/3 dealiasing rule for nonlinear products, and implicit hyperdiffusion.  The
formulation follows Tulloch & Smith (2009) and the open-source ``sqgturb``
code referenced by the paper.

State
-----
The prognostic variable is the scaled boundary potential temperature
``θ ≡ b/f`` (buoyancy divided by the Coriolis parameter) on the two
horizontal boundaries ``z = 0`` and ``z = H``; the state array has shape
``(2, ny, nx)``.

Inversion
---------
With zero interior PV, the streamfunction for total wavenumber ``K`` has the
vertical structure ``ψ̂(z) = A cosh(mz) + B sinh(mz)`` with ``m = N K / f``.
Matching ``θ = ψ_z`` at the two boundaries gives (``μ = m H``):

``ψ̂(0) = (H/μ) (θ̂₁ / sinh μ − θ̂₀ / tanh μ)``
``ψ̂(H) = (H/μ) (θ̂₁ / tanh μ − θ̂₀ / sinh μ)``

Dynamics
--------
``∂θ_b/∂t = −J(ψ_b, θ_b) − Ū_b ∂θ_b/∂x + Λ v_b − D(θ_b)``

with the symmetric Eady base state ``Ū = ∓U/2`` at the bottom/top boundary,
thermal-wind meridional gradient ``∂θ̄/∂y = −Λ = −U/H``, and ``D`` an
8th-order hyperdiffusion applied implicitly each step.

Time step
---------
Every model call steps at ``params.dt``.  The hyperdiffusion factor is
exact for any step, so only advection limits it, and the flow uses a small
part of that limit (advective CFL ≈ 0.15–0.25 at the default ``dt``).  The
cycle engine's ensemble forecast therefore asks :meth:`SQGModel.coarse_step`
for a stepper: ``k`` model steps per RK4 step, ``k`` the largest divisor of
the cycle's steps with ``k · CFL <= _CFL_MAX``, CFL the largest over the
members at the cycle start (:meth:`SQGModel.max_cfl`).  Same law, not the
same bits: a cycle's forecast differs from the fine-step one by ~1e-6 K
RMS at 64².  The truth and the model's own ``dt`` stay untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.spectral import SpectralGrid
from repro.utils.grid import Grid2D
from repro.utils.random import default_rng
from repro.utils.spectra import kinetic_energy_spectrum
from repro.utils.xp import ArrayBackend
from repro.utils.xp import resolve_backend as resolve_array_backend

__all__ = ["SQGParameters", "SQGModel", "spinup_sqg"]


# What one forecast call may keep hot.  ``SQGModel._advance`` walks an
# ensemble in chunks of ``_WORKSPACE_BYTES // _member_bytes(...)`` members;
# the value is read off the ``forecast_chunk_curve`` sweep recorded in
# BENCH_forecast.json (flat optimum on every grid) — a constant, not a knob.
_WORKSPACE_BYTES = 4 * 2**20

# The largest advective CFL number one RK4 step of an ensemble forecast may
# take.  :meth:`SQGModel.coarse_step` steps the ensemble ``k`` model steps at
# a time, ``k`` the largest divisor of the cycle's steps with
# ``k · CFL <= _CFL_MAX``; the value is the largest candidate of the
# ``cfl_step_curve`` sweep in BENCH_forecast.json with no non-finite cycle and
# a mean analysis RMSE within 0.5 % of ``k = 1`` on every input — a constant,
# not a knob.  RK4's linear limit for the dealiased advection is ≈ 1.35.
_CFL_MAX = 1.0


def _member_bytes(ny: int, nkx: int, keep: int) -> int:
    """Bytes one member keeps hot: its share of a :class:`_ChunkWorkspace`
    plus one tendency's transform outputs (ifft, irfft, rfft, fft)."""
    spectral, retained, physical = 32 * ny * nkx, 32 * ny * keep, 32 * ny * (nkx - 1)
    return (5 * spectral + 7 * retained) + (5 * retained + spectral + 4 * physical)


def step_factor_for(cfl: float, n_steps: int) -> int:
    """Model steps per RK4 step for an ``n_steps`` forecast at advective CFL
    number ``cfl``: the largest divisor ``k`` of ``n_steps`` with
    ``k · cfl <= _CFL_MAX``, else 1 (also for a non-finite ``cfl``)."""
    divisors = (k for k in range(1, n_steps + 1) if n_steps % k == 0)
    return max((k for k in divisors if k * cfl <= _CFL_MAX), default=1)


class _SplitSpectrum:
    """``chunk`` spectral states, each stored as its *retained* columns
    ``(2, ny, kx_keep)`` followed by its *dead* columns ``(2, ny, nkx -
    kx_keep)`` (the 2/3 rule keeps the nonlinear term out of those: they only
    see relaxation, the RK4 combination and hyperdiffusion).  ``real`` is the
    ``float64`` view of whole states — one pass per RK4 operation; ``ret`` /
    ``ret_real`` are what the tendency reads and writes.
    """

    def __init__(self, chunk: int, ny: int, nkx: int, keep: int, xp: ArrayBackend):
        buf = xp.empty((chunk, 2 * ny * nkx), dtype=complex)
        n_ret = 2 * ny * keep
        self.real = buf.view(float)
        self.ret = buf[:, :n_ret].reshape((chunk, 2, ny, keep))
        self.dead = buf[:, n_ret:].reshape((chunk, 2, ny, nkx - keep))
        self.ret_real = self.ret.view(float)


class _ChunkWorkspace:
    """Buffers that carry one chunk of members through a whole trajectory:
    five split spectra (state, two tendencies, RK4 stage and accumulator)
    and the tendency's retained-column intermediates.  Buffers only — no
    constants, no reference to the model, so the two never form a cycle.
    The FFT outputs are still allocated by the backend: ``out=`` buffers for
    the four transforms (numpy >= 2.0 has them) measured within ±2 %.
    """

    def __init__(self, chunk: int, ny: int, nkx: int, keep: int, xp: ArrayBackend):
        self.cur, self.k_a, self.k_b, self.stage, self.acc = (
            _SplitSpectrum(chunk, ny, nkx, keep, xp) for _ in range(5)
        )
        retained = (chunk, 2, ny, keep)
        self.thf = xp.empty((chunk, 2, ny, 2 * keep))  # buoyancy-scaled θ̂, as (re, im)
        self.t2 = xp.empty((chunk, 2, ny, 2 * keep))
        self.psi = xp.empty(retained, dtype=complex)
        self.psi_real = self.psi.view(float)
        self.quad = xp.empty((4,) + retained, dtype=complex)  # θ̂_x, θ̂_y, û, v̂
        # Whole-state scratch for the Ekman branch, in quad's memory (free
        # once the inverse transform has run; 4·kx_keep >= nkx always).
        self.drag = self.quad.reshape((chunk, -1))[:, : 2 * ny * nkx].view(float)
        self.nbytes = 5 * self.cur.real.nbytes + 3 * self.psi.nbytes + self.quad.nbytes


@dataclass(frozen=True)
class SQGParameters:
    """Physical and numerical parameters of the SQG model.

    Defaults follow the ``sqgturb`` reference configuration used by the
    paper: a 20,000 km doubly-periodic domain, 10 km depth, f = 1e-4 s⁻¹,
    N = 1e-2 s⁻¹ and a 30 m/s boundary-to-boundary shear.
    """

    nx: int = 64
    ny: int = 64
    lx: float = 2.0e7
    ly: float = 2.0e7
    depth: float = 1.0e4
    coriolis: float = 1.0e-4
    brunt_vaisala: float = 1.0e-2
    shear_velocity: float = 30.0
    gravity: float = 9.81
    reference_temperature: float = 300.0
    dt: float = 600.0
    hyperdiff_order: int = 8
    hyperdiff_efold: float = 3600.0 * 3
    relaxation_time: float = 2.0 * 86400.0
    ekman_drag: float = 0.0
    dealias: bool = True

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.depth <= 0 or self.coriolis <= 0 or self.brunt_vaisala <= 0:
            raise ValueError("physical parameters must be positive")
        if self.gravity <= 0 or self.reference_temperature <= 0:
            raise ValueError("gravity and reference temperature must be positive")
        if self.relaxation_time <= 0:
            raise ValueError("relaxation_time must be positive")

    @property
    def buoyancy_factor(self) -> float:
        """Conversion from potential-temperature anomaly (K) to ``b/f`` (m/s).

        The prognostic state is carried as potential temperature in Kelvin;
        internally the inversion works with the scaled variable
        ``θ_scaled = b/f = (g / (θ₀ f)) θ_K``.
        """
        return self.gravity / (self.reference_temperature * self.coriolis)

    @property
    def grid(self) -> Grid2D:
        """Physical grid associated with these parameters (two levels)."""
        return Grid2D(nx=self.nx, ny=self.ny, lx=self.lx, ly=self.ly, nlev=2)

    @property
    def rossby_radius(self) -> float:
        """Rossby radius of deformation ``N H / f`` (metres).

        Used by the LETKF implementation to couple horizontal and vertical
        localization scales, as in the paper's SQG-LETKF configuration.
        """
        return self.brunt_vaisala * self.depth / self.coriolis


class SQGModel:
    """Spectral SQG forecast model, vectorised over ensembles.

    The model satisfies the :class:`repro.models.base.ForecastModel` protocol:
    flattened states of shape ``(state_size,)`` or ``(m, state_size)`` are
    accepted by :meth:`forecast`, which is how the DA layer drives it.
    Internally states are ``(..., 2, ny, nx)`` physical fields.

    Every trajectory (:meth:`step`, :meth:`forecast_device`, :meth:`run`,
    :meth:`step_spectral`) is one call of the **member-chunked kernel**
    ``_advance(spec, n_steps)``: a chunk of members is taken through *all*
    its steps before the next chunk is touched, with each spectral state
    held split into its retained and its dead (2/3-rule) columns for the
    whole trajectory, so no tendency call copies or slices it.  Members are
    independent, hence any partition is exact; the chunk is derived, never
    configured — ``_WORKSPACE_BYTES // bytes-per-member`` clamped to
    ``[1, n_members]``: 3 / 1 / 13 / all members at 64² / 128² / 32² / 16² —
    so that the RK4 buffers, the retained-column intermediates and one
    tendency's transform outputs stay cache-resident
    (``forecast_chunk_curve`` in ``BENCH_forecast.json`` is the sweep the
    constant comes from).  ``_tendency`` documents the floating-point
    ordering contract; ``tests/reference/sqg_step_head.py`` is the oracle
    it is certified against.

    A model ships as its parameters: it pickles as its
    :class:`SQGParameters` and array backend (≈ 460 B, against ≈ 2 MB of
    derived constants at 128²) and rebuilds the constants on unpickling, so
    an :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor` forecast job —
    the model or a :meth:`coarse_step` view of it — carries none of them.

    Parameters
    ----------
    params:
        Physical/numerical configuration.
    array_backend:
        Array backend (:mod:`repro.utils.xp`) for the fused kernel's
        transforms and workspace arithmetic; ``None`` uses the
        ``REPRO_ARRAY_BACKEND`` default.  The numpy backend is bit-identical
        to the pre-shim kernel.  Whole trajectories stay device-resident:
        :meth:`step`, :meth:`run` and :meth:`forecast` pay one upload and
        one download total, while :meth:`forecast_device` /
        :meth:`step_spectral_device` never touch the host at all.
    """

    def __init__(
        self,
        params: SQGParameters | None = None,
        *,
        array_backend: str | ArrayBackend | None = None,
    ):
        self.params = params or SQGParameters()
        self.xp = resolve_array_backend(array_backend)
        p = self.params
        self.grid = p.grid
        self.spectral = SpectralGrid(
            p.nx, p.ny, p.lx, p.ly, dealias=p.dealias, array_backend=self.xp
        )
        self.state_size = self.grid.size

        # Vertical structure parameter μ = N K H / f for every wavenumber.
        kappa = self.spectral.kappa
        mu = p.brunt_vaisala * kappa * p.depth / p.coriolis
        # Avoid division-by-zero at the mean mode and overflow at large μ.
        mu_safe = np.clip(mu, 1.0e-12, 500.0)
        self._h_over_mu = p.depth / mu_safe
        self._inv_sinh = 1.0 / np.sinh(mu_safe)
        self._inv_tanh = 1.0 / np.tanh(mu_safe)
        # The K = 0 mode carries no streamfunction (it is a domain constant).
        zero_mode = kappa == 0.0
        self._h_over_mu = np.where(zero_mode, 0.0, self._h_over_mu)
        self._inv_sinh = np.where(zero_mode, 0.0, self._inv_sinh)
        self._inv_tanh = np.where(zero_mode, 0.0, self._inv_tanh)

        # Symmetric Eady base state: mean zonal wind ∓U/2 at bottom/top and a
        # thermal-wind meridional temperature gradient.  In Kelvin the mean
        # gradient magnitude is Λ θ₀ f / g with Λ = U/H the vertical shear.
        self._u_base = np.array([-0.5 * p.shear_velocity, 0.5 * p.shear_velocity])
        self._lambda = p.shear_velocity / p.depth
        self._factor = p.buoyancy_factor
        self._mean_grad = self._lambda / self._factor  # = |∂θ̄_K/∂y|

        self._hyperdiff = self.spectral.hyperdiffusion_filter(
            p.dt, p.hyperdiff_efold, p.hyperdiff_order
        )

        # --- kernel constants, uploaded once ------------------------------- #
        # A complex×real product is applied on the float64 view, so real
        # multipliers are stored with each value repeated (re, im); the two
        # sign flips of the tendency live in −i·l·mask and −mask.
        sp = self.spectral
        xp = self.xp
        keep = self._keep = sp.kx_keep
        self._nkx = nkx = p.nx // 2 + 1

        def repeated(values):  # (..., ny, nkx) → retained columns, (re, im)
            return xp.to_device(np.repeat(values[..., :keep], 2, axis=-1))

        ikx, ily = sp.ikx_dealias[:, :keep], sp.ily_dealias[:, :keep]
        self._grad_m = xp.to_device(np.stack([ikx, ily])[:, None, None])    # θ̂ → θ̂_x, θ̂_y
        self._wind_m = xp.to_device(np.stack([-ily, ikx])[:, None, None])   # ψ̂ → û, v̂
        self._inv_st = repeated(np.stack([self._inv_sinh, self._inv_tanh]))
        self._inv_ts = repeated(np.stack([self._inv_tanh, self._inv_sinh]))
        self._h_over_mu_r = repeated(self._h_over_mu)
        self._neg_mask_r = repeated(-sp.dealias_mask)
        self._hyperdiff_r = self._split_layout(self._hyperdiff)
        self._coarse_hyperdiff: dict[int, object] = {}  # k → multiplier of k·dt, split layout
        # Ekman drag acts on the lower level only (no multiplier when off).
        drag = np.array([-p.ekman_drag, 0.0]).reshape((2, 1, 1))
        self._drag_r = self._split_layout(drag) if p.ekman_drag > 0.0 else None
        # Base state broadcast against (..., 2, ny, nx) physical fields.
        self._u_base_col = xp.to_device(self._u_base.reshape((2, 1, 1)))
        self._member_bytes = _member_bytes(p.ny, nkx, keep)
        self._workspaces: dict[int, _ChunkWorkspace] = {}  # by chunk size, oldest first

    def __getstate__(self):
        # A model is its parameters and its backend (which pickles by name):
        # every constant above derives from them, ≈ 2 MB at 128² against a
        # rebuild of ≈ 1 ms, so models ship to EnsembleExecutor workers as
        # a few hundred bytes and rebuild there, workspaces empty.
        return {"params": self.params, "array_backend": self.xp}

    def __setstate__(self, state):
        self.__init__(state["params"], array_backend=state["array_backend"])

    def _split_layout(self, values):
        """``values`` broadcast to one whole state in :class:`_SplitSpectrum`
        order, each value repeated (re, im), on the device."""
        p, keep = self.params, self._keep
        full = np.repeat(np.broadcast_to(values, (2, p.ny, self._nkx)), 2, axis=-1)
        blocks = (full[..., : 2 * keep], full[..., 2 * keep :])
        return self.xp.to_device(np.concatenate([b.ravel() for b in blocks]))

    def _chunk(self, n_members: int) -> int:
        """Members advanced together: what ``_WORKSPACE_BYTES`` holds, at least one."""
        return max(1, min(_WORKSPACE_BYTES // self._member_bytes, n_members))

    def _workspace(self, chunk: int) -> _ChunkWorkspace:
        ws = self._workspaces.pop(chunk, None)
        if ws is None:
            ws = _ChunkWorkspace(chunk, self.params.ny, self._nkx, self._keep, self.xp)
        self._workspaces[chunk] = ws  # most recently used last
        return ws

    # ------------------------------------------------------------------ #
    # state helpers
    # ------------------------------------------------------------------ #
    def flatten(self, theta: np.ndarray) -> np.ndarray:
        """Flatten ``(..., 2, ny, nx)`` physical states to ``(..., state_size)``."""
        return self.grid.flatten_state(theta)

    def unflatten(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`flatten`."""
        return self.grid.unflatten_state(vec)

    def random_initial_condition(
        self,
        rng: np.random.Generator | int | None = None,
        amplitude: float = 2.0,
        peak_wavenumber: int = 4,
    ) -> np.ndarray:
        """Smooth random boundary-θ field used to seed spin-up integrations.

        The field has a red spectrum peaking near ``peak_wavenumber`` with the
        two boundaries anti-correlated (the most unstable Eady structure),
        which shortens the spin-up needed to reach developed turbulence.
        """
        rng = default_rng(rng)
        p = self.params
        noise = rng.standard_normal((2, p.ny, p.nx))
        spec = self.spectral.to_spectral(noise)
        kappa_nd = self.spectral.kappa * p.lx / (2.0 * np.pi)
        shaping = kappa_nd**2 / (1.0 + (kappa_nd / max(peak_wavenumber, 1)) ** 6)
        spec *= shaping
        theta = self.spectral.to_physical(spec)
        theta[1] = 0.5 * theta[1] - 0.5 * theta[0]
        theta -= theta.mean(axis=(-2, -1), keepdims=True)
        rms = np.sqrt((theta**2).mean())
        if rms > 0:
            theta *= amplitude / rms
        return theta

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def invert(self, theta_spec: np.ndarray) -> np.ndarray:
        """Invert boundary θ̂ (Kelvin) to boundary ψ̂ (both ``(..., 2, ky, kx)``)."""
        th0 = theta_spec[..., 0, :, :] * self._factor
        th1 = theta_spec[..., 1, :, :] * self._factor
        psi0 = self._h_over_mu * (th1 * self._inv_sinh - th0 * self._inv_tanh)
        psi1 = self._h_over_mu * (th1 * self._inv_tanh - th0 * self._inv_sinh)
        return np.stack([psi0, psi1], axis=-3)

    def velocities(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Geostrophic perturbation velocities ``(u, v)`` at both boundaries."""
        theta_spec = self.spectral.to_spectral(np.asarray(theta, dtype=float))
        psi_spec = self.invert(theta_spec)
        u = -self.spectral.to_physical(self.spectral.ddy(psi_spec))
        v = self.spectral.to_physical(self.spectral.ddx(psi_spec))
        return u, v

    def total_kinetic_energy(self, theta: np.ndarray) -> float:
        """Domain-averaged eddy kinetic energy (both boundaries)."""
        u, v = self.velocities(theta)
        return float(0.5 * np.mean(u**2 + v**2))

    def kinetic_energy_spectrum(self, theta: np.ndarray, level: int = 0):
        """Isotropic KE spectrum of the requested boundary level."""
        u, v = self.velocities(theta)
        return kinetic_energy_spectrum(u[..., level, :, :], v[..., level, :, :])

    def cfl_number(self, theta: np.ndarray) -> float:
        """Advective CFL number of the current state (should stay below ~1)."""
        return self.max_cfl(theta)

    def max_cfl(self, theta) -> float:
        """Largest advective CFL number ``dt·(max|u|/dx + max|v|/dy)`` of
        the states ``(..., 2, ny, nx)``, each taken over its own grid.

        The wind is the one the tendency advects with: the retained,
        dealiased wind plus the base state.  Members are walked in
        :meth:`_chunk` blocks through the forecast's own workspace
        (``thf`` / ``psi`` / ``quad`` carry θ̂ → ψ̂ → û, v̂ exactly as in
        :meth:`_tendency`), so the probe adds no memory, and host states on
        a CPU backend cross no meter.
        """
        p, xp = self.params, self.xp
        members = xp.asarray(theta).reshape((-1, 2, p.ny, p.nx))
        n = members.shape[0]
        chunk = self._chunk(n)
        ws = self._workspace(chunk)
        worst = 0.0
        for start in range(0, n, chunk):
            b = min(chunk, n - start)
            spec = self.spectral.to_spectral_retained(members[start : start + b])
            self._invert(spec.view(float), ws.thf[:b], ws.t2[:b], ws.psi_real[:b])
            wind = ws.quad[2:, :b]
            xp.multiply(self._wind_m, ws.psi[:b], out=wind)
            u, v = self.spectral.to_physical_retained(wind)
            xp.add(u, self._u_base_col, out=u)
            # per member: max|u|/dx + max|v|/dy
            u_max, v_max = (
                xp.maximum(xp.amax(f, axis=(1, 2, 3)), xp.negative(xp.amin(f, axis=(1, 2, 3))))
                for f in (u, v)
            )
            rate = xp.add(xp.divide(u_max, self.grid.dx), xp.divide(v_max, self.grid.dy))
            worst = max(worst, float(xp.amax(rate)))
        return p.dt * worst

    def coarse_step(self, ensemble: np.ndarray, n_steps: int):
        """The stepper and step count for an ``n_steps`` forecast of the
        flattened ``ensemble`` ``(m, state_size)``, at the CFL it allows.

        ``k = step_factor_for(max_cfl(ensemble), n_steps)``: a pure function of
        the ensemble, so every executor layout and a resumed run step
        alike.  ``k = 1`` returns this model itself (today's bits);
        otherwise a view taking ``n_steps // k`` RK4 steps of ``k·dt``.
        """
        k = step_factor_for(self.max_cfl(self.unflatten(ensemble)), n_steps)
        return (self, n_steps) if k == 1 else (_CoarseStep(self, k), n_steps // k)

    # ------------------------------------------------------------------ #
    # dynamics — the member-chunked kernel
    # ------------------------------------------------------------------ #
    def _tendency(self, ws: _ChunkWorkspace, theta: _SplitSpectrum, out: _SplitSpectrum):
        """Spectral tendency (advection + baroclinic source + relaxation).

        Every floating-point operation of the retired reference
        implementation is kept, in the same order (the bit-identity contract
        ``tests/reference/sqg_step_head.py`` certifies, signed zeros aside):
        combined derivative×dealias multipliers (the mask is exactly 0/1, so
        ``(i·k·mask)·θ̂`` is ``i·k·(mask·θ̂)``), transforms of the retained
        columns only, one batched inverse transform for the four advection
        fields.  A complex×real product is two real products, so those run
        on the ``float64`` views; ``θ̂/τ`` is the same view times ``1/τ``
        (numpy's complex division by a real *is* ``a·(1/c)``); negation
        commutes exactly with every product and transform, so ``û`` and the
        final sign come from the pre-negated multipliers.
        """
        sp = self.spectral
        p = self.params
        xp = self.xp
        self._invert(theta.ret_real, ws.thf, ws.t2, ws.psi_real)

        # --- θ̂_x, θ̂_y, û, v̂ stacked for one batched inverse transform ----- #
        xp.multiply(self._grad_m, theta.ret, out=ws.quad[:2])
        xp.multiply(self._wind_m, ws.psi, out=ws.quad[2:])
        theta_x, theta_y, u, v = sp.to_physical_retained(ws.quad)

        # --- physical-space products (reference operation order) ----------- #
        xp.add(u, self._u_base_col, out=u)
        xp.multiply(u, theta_x, out=u)
        xp.multiply(v, theta_y, out=theta_y)
        xp.add(u, theta_y, out=u)                 # advection
        xp.multiply(v, -self._mean_grad, out=v)   # baroclinic
        xp.add(u, v, out=u)                       # −tend_phys

        # --- back to (retained) spectral space, dealias, relax -------------- #
        conv = sp.to_spectral_retained(u).view(float)
        xp.multiply(conv, self._neg_mask_r, out=conv)
        xp.multiply(theta.real, -1.0 / p.relaxation_time, out=out.real)
        xp.add(out.ret_real, conv, out=out.ret_real)
        if self._drag_r is not None:
            xp.multiply(theta.real, self._drag_r, out=ws.drag)
            xp.add(out.real, ws.drag, out=out.real)

    def _invert(self, theta_ret_real, thf, t2, psi) -> None:
        """Inversion θ̂ → ψ̂ on the retained columns (``float64`` views),
        both levels a pass, into ``psi``; ``thf`` and ``t2`` are scratch."""
        xp = self.xp
        xp.multiply(theta_ret_real, self._factor, out=thf)
        xp.multiply(thf[:, 1:], self._inv_st, out=psi)     # θ̂₁·(1/sinh μ, 1/tanh μ)
        xp.multiply(thf[:, :1], self._inv_ts, out=t2)      # θ̂₀·(1/tanh μ, 1/sinh μ)
        xp.subtract(psi, t2, out=psi)
        xp.multiply(self._h_over_mu_r, psi, out=psi)

    def _step_constants(self, factor: int):
        """Step and split-layout hyperdiffusion multiplier of one RK4 step
        spanning ``factor`` model steps: the exact
        ``hyperdiffusion_filter(factor·dt)``, built once per factor."""
        if factor == 1:
            return self.params.dt, self._hyperdiff_r
        p = self.params
        dt = factor * p.dt
        hyperdiff = self._coarse_hyperdiff.get(factor)
        if hyperdiff is None:
            hyperdiff = self._coarse_hyperdiff[factor] = self._split_layout(
                self.spectral.hyperdiffusion_filter(dt, p.hyperdiff_efold, p.hyperdiff_order)
            )
        return dt, hyperdiff

    def _rk4_step(self, ws: _ChunkWorkspace, dt: float, hyperdiff) -> None:
        """One RK4 step of ``dt`` plus implicit hyperdiffusion on ``ws.cur``,
        in place.

        ``θ̂ ← (θ̂ + dt/6·(k1 + 2·k2 + 2·k3 + k4))·hyperdiff`` in the reference
        association order; k1 and k2 are folded into the accumulator as soon
        as both exist, so two tendency buffers serve all four stages.
        """
        xp = self.xp
        cur, k_a, k_b, stage, acc = (s.real for s in (ws.cur, ws.k_a, ws.k_b, ws.stage, ws.acc))
        self._tendency(ws, ws.cur, ws.k_a)        # k1
        xp.multiply(k_a, 0.5 * dt, out=stage)
        xp.add(cur, stage, out=stage)
        self._tendency(ws, ws.stage, ws.k_b)      # k2
        xp.multiply(k_b, 2.0, out=acc)
        xp.add(k_a, acc, out=acc)
        xp.multiply(k_b, 0.5 * dt, out=stage)
        xp.add(cur, stage, out=stage)
        self._tendency(ws, ws.stage, ws.k_a)      # k3
        xp.multiply(k_a, 2.0, out=k_b)
        xp.add(acc, k_b, out=acc)
        xp.multiply(k_a, dt, out=stage)
        xp.add(cur, stage, out=stage)
        self._tendency(ws, ws.stage, ws.k_a)      # k4
        xp.add(acc, k_a, out=acc)
        xp.multiply(acc, dt / 6.0, out=acc)
        xp.add(cur, acc, out=cur)
        xp.multiply(cur, hyperdiff, out=cur)

    def _advance(self, spec, n_steps: int, step_factor: int = 1):
        """Advance device-resident spectral states by ``n_steps`` RK4 steps,
        each spanning ``step_factor`` model steps.

        The one trajectory loop: ``spec`` is ``(..., 2, ny, nx//2+1)`` on the
        model's array backend and is not modified; the result stays there
        and nothing crosses to the host (the mock-device counters assert
        it).  Each chunk of members is copied into the split layout once,
        taken through *all* ``n_steps`` in a cache-sized workspace, and
        copied out — members are independent, so no partition changes a bit.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if n_steps == 0:
            return spec
        xp = self.xp
        dt, hyperdiff = self._step_constants(step_factor)
        keep = self._keep
        members = spec.reshape((-1,) + spec.shape[-3:])
        out = xp.empty(members.shape, dtype=complex)
        n = members.shape[0]
        chunk = self._chunk(n)
        for start in range(0, n, chunk):
            block = slice(start, min(start + chunk, n))
            ws = self._workspace(block.stop - start)
            xp.copyto(ws.cur.ret, members[block, ..., :keep])
            xp.copyto(ws.cur.dead, members[block, ..., keep:])
            for _ in range(n_steps):
                self._rk4_step(ws, dt, hyperdiff)
            xp.copyto(out[block, ..., :keep], ws.cur.ret)
            xp.copyto(out[block, ..., keep:], ws.cur.dead)
        # Keep what this call used (a full chunk and at most one ragged
        # tail); beyond that, least recently used goes first.
        spare = list(self._workspaces)[: -(2 if n > chunk and n % chunk else 1)]
        while spare and sum(w.nbytes for w in self._workspaces.values()) > 2 * _WORKSPACE_BYTES:
            del self._workspaces[spare.pop(0)]
        return out.reshape(spec.shape)

    def step_spectral(self, theta_spec: np.ndarray) -> np.ndarray:
        """Advance spectral θ̂ by one RK4 step plus implicit hyperdiffusion.

        Host-in/host-out public contract: exactly one upload and one
        download per call.  Trajectories (:meth:`step`,
        :meth:`forecast_device`, :meth:`run`) keep the state resident
        across all their steps instead.
        """
        xp = self.xp
        return xp.to_host(self.step_spectral_device(xp.to_device(np.asarray(theta_spec))))

    def step_spectral_device(self, theta_spec) -> np.ndarray:
        """One step on a **device-resident** spectral state (zero transfers).

        ``theta_spec`` must already live on the model's array backend; the
        returned state stays there.
        """
        return self._advance(theta_spec, 1)

    def step(self, theta: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """Advance physical states ``(..., 2, ny, nx)`` by ``n_steps`` steps.

        The whole trajectory is device-resident: one upload before the first
        step, one download after the last, regardless of ``n_steps``.
        """
        theta = np.asarray(theta, dtype=float)
        xp = self.xp
        spec = self._advance(self.spectral.to_spectral(xp.to_device(theta)), n_steps)
        return xp.to_host(self.spectral.to_physical(spec))

    def forecast(self, state: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """ForecastModel protocol entry point on flattened states."""
        state = np.asarray(state, dtype=float)
        squeeze = state.ndim == 1
        if squeeze:
            state = state[None, :]
        theta = self.unflatten(state)
        theta = self.step(theta, n_steps=n_steps)
        out = self.flatten(theta)
        return out[0] if squeeze else out

    def forecast_device(self, state, n_steps: int = 1, *, step_factor: int = 1):
        """Device-resident forecast on flattened states.

        The counterpart of :meth:`forecast` for callers that already hold
        the ensemble on the model's array backend (the cycle engine's
        :class:`~repro.utils.xp.StateHandle` path): flattened device states
        in, flattened device states out, **zero** host↔device transfers —
        the caller owns the boundary.  Identical arithmetic to
        :meth:`forecast`.  ``step_factor`` is how :meth:`coarse_step`'s
        view takes RK4 steps of ``step_factor·dt`` (1: the model's step).
        """
        squeeze = state.ndim == 1
        if squeeze:
            state = state[None, :]
        spec = self.spectral.to_spectral(self.unflatten(state))
        spec = self._advance(spec, n_steps, step_factor)
        out = self.flatten(self.spectral.to_physical(spec))
        return out[0] if squeeze else out

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def run(
        self,
        theta0: np.ndarray,
        n_steps: int,
        save_every: int | None = None,
    ) -> np.ndarray:
        """Integrate and optionally return a trajectory.

        Returns the final state when ``save_every`` is ``None``; otherwise an
        array of snapshots of shape ``(n_saved, 2, ny, nx)`` including the
        initial state.
        """
        theta = np.asarray(theta0, dtype=float)
        if save_every is None:
            return self.step(theta, n_steps=n_steps)
        xp = self.xp
        snapshots = [theta.copy()]
        # One upload for the whole trajectory; each saved snapshot is one
        # download (a diagnostic — the integration state never leaves the
        # device).
        spec = self.spectral.to_spectral(xp.to_device(theta))
        for _ in range(n_steps // save_every):
            spec = self._advance(spec, save_every)
            snapshots.append(xp.to_host(self.spectral.to_physical(spec)))
        return np.array(snapshots)


class _CoarseStep:
    """An SQG ensemble forecast taking ``k`` model steps per RK4 step.

    A view, not a second model: it holds the model and ``k``.  The step
    ``k·dt``, its hyperdiffusion multiplier (built once per ``k`` and kept
    by the model, which never pickles it) and the chunk workspaces are the
    model's, whose own ``params.dt`` and multiplier never change — truth and
    ensemble may share one instance.  Forecasts go through the model's
    :meth:`SQGModel.forecast_device`, so whatever wraps that entry point
    sees them.  Pickles as the model (its parameters) plus ``k``.
    """

    def __init__(self, model: SQGModel, k: int):
        self.model, self.k = model, k
        self.state_size, self.xp = model.state_size, model.xp

    @property
    def _workspaces(self) -> dict:
        return self.model._workspaces

    def forecast_device(self, state, n_steps: int = 1):
        return self.model.forecast_device(state, n_steps, step_factor=self.k)

    def forecast(self, state: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """Host-in/host-out, one upload and one download (the pool path)."""
        xp = self.xp
        state = xp.to_device(np.asarray(state, dtype=float))
        return xp.to_host(self.forecast_device(state, n_steps))


def spinup_sqg(
    model: SQGModel,
    n_steps: int = 2000,
    rng: np.random.Generator | int | None = None,
    amplitude: float = 2.0,
) -> np.ndarray:
    """Spin the model up from a random seed field to developed turbulence.

    Returns the final ``(2, ny, nx)`` state.  Used to build the truth run and
    the climatological catalogue from which initial ensembles are drawn.
    """
    theta0 = model.random_initial_condition(rng=rng, amplitude=amplitude)
    return model.step(theta0, n_steps=n_steps)
