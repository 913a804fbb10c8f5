"""Forecast-model substrates: SQG turbulence, Lorenz-96, model-error processes."""
