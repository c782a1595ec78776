"""Entropy-based correctable-noise thresholds for stabilizer codes.

The package computes per-syndrome encoded channel maps for [[n,1,d]]
stabilizer codes under Pauli noise, propagates ensembles of syndrome
conditioned channels through repeated concatenation with adapted recovery,
and locates the noise strengths where the logical channel's Shannon entropy
crosses a target value.
"""

from .channels import (
    ChannelError,
    OneQubitSuperop,
    PauliProbVec,
    entropy,
    noise_family,
)
from .codes import CodeError, StabilizerCode, builtin_codes, encoding_column, get_code
from .ensemble import (
    BudgetExceeded,
    ChannelEnsemble,
    concatenate_exact,
    ensemble_entropy,
    exact_level,
    exact_level_entropy,
)
from .levelmap import BlockNoise, blind_map, coset_map_enumerate, coset_map_probs, general_map_oracle
from .montecarlo import MCEstimate, mc_concatenate
from .pauli import PauliError, PauliString, enumerate_group, eta, multiply
from .reference import ReferenceCell, exact_cells, sampled_cells
from .thresholds import CriticalPoint, NoStraddle, entropy_critical_p, threshold_series, unoptimized_threshold

__version__ = "0.1.0"

__all__ = [
    "PauliError", "PauliString", "eta", "multiply", "enumerate_group",
    "ChannelError", "PauliProbVec", "OneQubitSuperop", "entropy",
    "noise_family",
    "CodeError", "StabilizerCode", "builtin_codes", "get_code",
    "encoding_column",
    "BlockNoise", "coset_map_probs", "coset_map_enumerate", "blind_map",
    "general_map_oracle",
    "ChannelEnsemble", "BudgetExceeded", "exact_level",
    "exact_level_entropy", "concatenate_exact", "ensemble_entropy",
    "MCEstimate", "mc_concatenate",
    "CriticalPoint", "NoStraddle", "entropy_critical_p",
    "unoptimized_threshold", "threshold_series",
    "ReferenceCell", "exact_cells", "sampled_cells",
    "__version__",
]
