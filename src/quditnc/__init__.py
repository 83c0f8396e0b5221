"""Finite-level coherent states and their nonclassicality toolbox.

Build linear (truncated Poissonian) or nonlinear (truncated displacement)
coherent states on d Fock levels, test them with moment-based witnesses,
quantify them with beam-splitter entanglement measures, and sweep the
parameter space from the command line.
"""

from .fock import (
    FockVector,
    fock_state,
    mean_photon,
    normal_moment,
    number_moment,
    photon_probabilities,
)
from .measures import (
    MeasureReport,
    TwoModeAmplitudes,
    anticlassicality,
    beamsplit,
    concurrence_closed_form,
    concurrence_exact,
    log_negativity_exact,
    measure_report,
    negativity_potential_closed_form,
)
from .states import (
    HermiteRootSet,
    QcsSpec,
    StateKind,
    build_state,
    he_roots,
    linear_qcs,
    nonlinear_qcs,
    period,
)
from .sweep import (
    NumericalError,
    SweepResult,
    SweepSpec,
    klyshko_bars,
    run_sweep,
    table1_search,
)
from .witnesses import (
    SingularMomentMatrix,
    WitnessEntry,
    WitnessReport,
    agarwal_tara,
    hm_quadrature_moment,
    hoa,
    hos_witness,
    hosps,
    klyshko,
    witness_report,
)

__version__ = "0.1.0"

__all__ = [
    "FockVector",
    "HermiteRootSet",
    "MeasureReport",
    "NumericalError",
    "QcsSpec",
    "SingularMomentMatrix",
    "StateKind",
    "SweepResult",
    "SweepSpec",
    "TwoModeAmplitudes",
    "WitnessEntry",
    "WitnessReport",
    "agarwal_tara",
    "anticlassicality",
    "beamsplit",
    "build_state",
    "concurrence_closed_form",
    "concurrence_exact",
    "fock_state",
    "he_roots",
    "hm_quadrature_moment",
    "hoa",
    "hos_witness",
    "hosps",
    "klyshko",
    "klyshko_bars",
    "linear_qcs",
    "log_negativity_exact",
    "mean_photon",
    "measure_report",
    "negativity_potential_closed_form",
    "nonlinear_qcs",
    "normal_moment",
    "number_moment",
    "period",
    "photon_probabilities",
    "run_sweep",
    "table1_search",
    "witness_report",
]
