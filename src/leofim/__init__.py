"""Fisher-information bounds for joint receiver localization and satellite
ephemeris-offset correction from satellite, base-station, and
satellite-to-station links."""

from .analysis import (
    CrlbReport,
    IdentifiabilityVerdict,
    NotIdentifiableError,
    SweepPoint,
    crlb,
    identifiability_sweep,
    is_identifiable,
    parameter_sweep,
)
from .channel_fim import (
    ChannelLayout,
    GlobalChannelLayout,
    LinkFim,
    LinkKind,
    assemble_channel_fim,
    link_fim,
)
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BsState,
    DegenerateGeometryError,
    EulerAngles,
    LeoState,
    ReceiverState,
    SlotGrid,
    rotation_matrix,
    rotation_matrix_partials,
)
from .linalg import NumericalError, balanced_eigvalsh, invert_psd
from .location_fim import (
    Efim,
    InterestFim,
    LossMatrix,
    assemble_information_loss,
    assemble_interest_fim,
    compute_efim,
    efim_lemma_route,
    efim_schur_route,
)
from .links import LinkJacobians, link_jacobians
from .scenario import (
    Case,
    Scenario,
    ScenarioConfig,
    SplitMix64,
    derive_trial_seeds,
    random_scenario,
)
from .signals import (
    OffsetParams,
    SignalProps,
    effective_frequency,
    omega,
    rect_window_rms_duration,
    snr_from_db,
)
from .transform import (
    LocationLayout,
    TransformationMatrix,
    build_transformation_matrix,
    transform_fim,
)

__version__ = "0.1.0"

__all__ = [
    "BsState",
    "Case",
    "ChannelLayout",
    "CrlbReport",
    "DegenerateGeometryError",
    "Efim",
    "EulerAngles",
    "GlobalChannelLayout",
    "IdentifiabilityVerdict",
    "InterestFim",
    "LeoState",
    "LinkFim",
    "LinkJacobians",
    "LinkKind",
    "LocationLayout",
    "LossMatrix",
    "NotIdentifiableError",
    "NumericalError",
    "OffsetParams",
    "ReceiverState",
    "Scenario",
    "ScenarioConfig",
    "SignalProps",
    "SlotGrid",
    "SPEED_OF_LIGHT_M_S",
    "SplitMix64",
    "SweepPoint",
    "TransformationMatrix",
    "assemble_channel_fim",
    "assemble_information_loss",
    "assemble_interest_fim",
    "balanced_eigvalsh",
    "build_transformation_matrix",
    "compute_efim",
    "crlb",
    "derive_trial_seeds",
    "effective_frequency",
    "efim_lemma_route",
    "efim_schur_route",
    "identifiability_sweep",
    "invert_psd",
    "is_identifiable",
    "link_fim",
    "link_jacobians",
    "omega",
    "parameter_sweep",
    "random_scenario",
    "rect_window_rms_duration",
    "rotation_matrix",
    "rotation_matrix_partials",
    "snr_from_db",
    "transform_fim",
]
