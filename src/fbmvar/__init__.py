"""Weighted Hermite and power variations of fractional Brownian motion.

Exact dyadic-grid fBm samplers, Hermite polynomial algebra in the
H_q = He_q / q! normalisation, numerical evaluation of every asymptotic
constant of the central/non-central limit theorems for weighted power
variations, Hermite-process simulation, and seeded Monte Carlo
experiments verifying each limit theorem at desk scale.

The package re-exports nothing: import its submodules (``fbmvar.fbm``,
``fbmvar.experiments``, ...), so that ``import fbmvar`` loads no engine.
"""

__version__ = "0.1.0"
