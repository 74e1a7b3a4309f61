"""Phase-only diffractive layer stacks.

A layer multiplies the incident field pointwise by ``exp(j*phase)``; the
network alternates layers with free-space propagation over fixed
distances. The whole stack is linear in the complex field amplitude, and
since every stage is unit-modulus or power-preserving it never adds
power. The batched forward and adjoint passes live in :mod:`donn.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI, GridSpec, wrap_phase


@dataclass(frozen=True, eq=False)
class PhaseLayer:
    """A trainable thin phase element; values wrapped to [0, 2*pi)."""

    grid: GridSpec
    phase: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phase, dtype=np.float64)
        if p.shape != self.grid.shape:
            raise ValueError(
                f"phase shape {p.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("phase contains non-finite values")
        if p.min() < 0.0 or p.max() >= TWO_PI:
            raise ValueError("phase values must lie in [0, 2*pi); use wrap_phase")
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "phase", p)


@dataclass(frozen=True, eq=False)
class OpticalNetwork:
    """An ordered stack of phase layers with inter-layer distances.

    ``distances[i]`` is the free-space propagation distance (meters,
    strictly positive) after layer i; ``input_distance`` is an optional
    propagation before the first layer (zero by default: the input plane
    coincides with layer 1). Immutable; training produces new instances.
    """

    grid: GridSpec
    layers: tuple[PhaseLayer, ...]
    distances: tuple[float, ...]
    input_distance: float = 0.0

    def __post_init__(self):
        layers = tuple(self.layers)
        distances = tuple(float(d) for d in self.distances)
        if not layers:
            raise ValueError("network needs at least one layer")
        if len(distances) != len(layers):
            raise ValueError(
                f"{len(layers)} layers but {len(distances)} distances"
            )
        if any(d <= 0 for d in distances):
            raise ValueError("post-layer distances must be strictly positive")
        if self.input_distance < 0:
            raise ValueError("input distance must be >= 0")
        for layer in layers:
            if layer.grid != self.grid:
                raise ValueError("all layers must share the network grid")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "distances", distances)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def n_parameters(self) -> int:
        return self.depth * self.grid.npix

    def with_phases(self, phases: list[np.ndarray]) -> "OpticalNetwork":
        """Same geometry, new phase values (wrapped)."""
        layers = tuple(PhaseLayer(self.grid, wrap_phase(p)) for p in phases)
        return OpticalNetwork(self.grid, layers, self.distances, self.input_distance)


def random_init(
    grid: GridSpec, n_layers: int, distances: list[float], seed: int
) -> OpticalNetwork:
    """Seeded network with phases i.i.d. uniform on [0, 2*pi).

    Uniform random phase breaks the symmetry that a zero-initialized
    first layer would have (it would act as a pure propagator). The same
    seed gives a bit-identical network.
    """
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if len(distances) != n_layers:
        raise ValueError(
            f"{n_layers} layers but {len(distances)} distances given"
        )
    rng = np.random.default_rng(seed)
    layers = tuple(
        PhaseLayer(grid, wrap_phase(rng.uniform(0.0, TWO_PI, size=grid.shape)))
        for _ in range(n_layers)
    )
    return OpticalNetwork(grid, layers, tuple(float(d) for d in distances))
