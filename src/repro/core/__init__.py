"""The paper's primary contribution: the Ensemble Score Filter (EnSF).

Submodules
----------
``schedules``
    Diffusion drift/diffusion coefficient schedules (Eq. 9).
``score``
    Training-free Monte-Carlo estimator of the prior score (Eqs. 13–16).
``likelihood``
    Analytic Gaussian likelihood score and the damping function ``h(t)``.
``sde``
    Euler–Maruyama integrator of the reverse-time SDE (Eq. 7).
``ensf``
    The :class:`EnSF` filter combining the above (predict/update API).
``observations``
    Observation operators shared by all filters (Eq. 2).
``filters``
    Common filter API and ensemble post-processing (spread relaxation).
"""
