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
    TransformationMatrix,
    assemble_channel_fim,
    build_transformation_matrix,
    efim_schur_route,
    link_fim,
    transform_fim,
)
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BsState,
    DegenerateGeometryError,
    EulerAngles,
    LeoState,
    ReceiverState,
    SlotGrid,
)
from .linalg import NumericalError, balanced_eigvalsh, invert_psd
from .location_fim import (
    Efim,
    InterestFim,
    LocationLayout,
    assemble_interest_fim,
    compute_efim,
    efim_lemma_route,
)
from .links import LinkKind
from .scenario import (
    Case,
    Scenario,
    ScenarioConfig,
    derive_trial_seeds,
    random_scenario,
)
from .signals import (
    SignalProps,
    effective_frequency,
    omega,
    rect_window_rms_duration,
    snr_from_db,
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
    "LinkKind",
    "LocationLayout",
    "NotIdentifiableError",
    "NumericalError",
    "ReceiverState",
    "Scenario",
    "ScenarioConfig",
    "SignalProps",
    "SlotGrid",
    "SPEED_OF_LIGHT_M_S",
    "SweepPoint",
    "TransformationMatrix",
    "assemble_channel_fim",
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
    "omega",
    "parameter_sweep",
    "random_scenario",
    "rect_window_rms_duration",
    "snr_from_db",
    "transform_fim",
]
