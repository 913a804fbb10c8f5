"""Baseline data-assimilation methods and the OSSE cycling machinery.

The state-of-the-art baseline of the paper is the Local Ensemble Transform
Kalman Filter (LETKF, Hunt et al. 2007) with Gaspari–Cohn R-localization and
relaxation-to-prior-spread (RTPS) inflation.
"""
