"""Diffractive optical neural networks, end to end.

Simulation of scalar wave propagation through trainable phase layers,
adjoint-method training against detector-plane energy readout, and a
holographic recording pipeline that maps learned phases to fabricable
elements and measures what realization costs in accuracy. The API lives
in the submodules; the package re-exports only the input-side basics.
"""

from .fields import DEFAULT_GRID, EncodeSpec, encode_input
from .network import random_init

__version__ = "0.1.0"
