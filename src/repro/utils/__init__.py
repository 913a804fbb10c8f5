"""Shared utilities: RNG handling, grid geometry, spectra, FFT/array backends and timing."""
