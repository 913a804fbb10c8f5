"""Baseline data-assimilation methods and the OSSE cycling machinery.

The state-of-the-art baseline of the paper is the Local Ensemble Transform
Kalman Filter (LETKF, Hunt et al. 2007) with Gaspari–Cohn R-localization and
relaxation-to-prior-spread (RTPS) inflation.  A stochastic (perturbed
observation) EnKF is also provided as a secondary baseline and as an exactly
verifiable reference on linear-Gaussian problems.
"""
