"""The package's public surface, pinned: adding or removing a name shows here."""

import concatqec

PUBLIC_NAMES = [
    "BlockNoise", "BudgetExceeded", "ChannelEnsemble", "ChannelError",
    "CodeError", "CriticalPoint", "MCEstimate", "NoStraddle",
    "OneQubitSuperop", "PauliError", "PauliProbVec", "PauliString",
    "ReferenceCell", "StabilizerCode", "__version__", "blind_map",
    "builtin_codes", "concatenate_exact", "coset_map_enumerate",
    "coset_map_probs", "encoding_column", "ensemble_entropy", "entropy",
    "entropy_critical_p", "enumerate_group", "eta", "exact_cells",
    "exact_level", "exact_level_entropy", "general_map_oracle", "get_code",
    "mc_concatenate", "multiply", "noise_family", "sampled_cells",
    "threshold_series", "unoptimized_threshold",
]


def test_public_names_are_pinned():
    assert sorted(concatqec.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in concatqec.__all__ if not hasattr(concatqec, name)]
    assert missing == []
