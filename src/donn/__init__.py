"""Diffractive optical neural networks, end to end.

Simulation of scalar wave propagation through trainable phase layers,
adjoint-method training against detector-plane energy readout, and a
holographic recording pipeline that maps learned phases to fabricable
elements and measures what realization costs in accuracy.
"""

from .fields import (
    DEFAULT_GRID,
    ComplexField,
    EncodeSpec,
    GridSpec,
    encode_input,
    frequency_coordinates,
    total_power,
    wrap_phase,
)
from .hibl import (
    FabricationModel,
    FidelityMetrics,
    Hologram,
    ReferenceSpec,
    encode_hologram,
    fabricate,
    fidelity_metrics,
    realize_network,
    reconstruct_phase,
    recording_reference,
)
from .network import OpticalNetwork, PhaseLayer, random_init
from .propagation import (
    TransferFunction,
    adjoint_propagate,
    bandlimit_to_propagating,
    cached_transfer_function,
    propagate,
    transfer_function,
)
from .readout import (
    DegenerateScoresError,
    DetectorLayout,
    default_detector_layout,
    softmax_cross_entropy,
)
from .training import (
    AdamState,
    MetricsLog,
    TrainConfig,
    TrainResult,
    adam_step,
    cosine_lr,
    depth_sweep,
    evaluate,
    loss_and_gradients,
    train,
)

__version__ = "0.1.0"
