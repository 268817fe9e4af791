"""Exact-arithmetic analysis of binary collective choice rules.

Rules map vote profiles in {-1, +1}^n to a decision; every quantity here
is a fraction, every verdict carries a finite certificate, and every
certificate can be re-checked by substitution alone.

The public names below are loaded on first access (PEP 562), so importing
the package, or one module of it, loads only what is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "DecisionProfile": "core",
    "Distribution": "core",
    "DistributionSet": "core",
    "ExtendedRational": "gamma_mechanism",
    "FormatError": "core",
    "GammaWitness": "gamma_mechanism",
    "InternalError": "certificates",
    "NoTransportError": "efficiency",
    "ParetoVerdict": "efficiency",
    "RandomVotingRule": "core",
    "ResponsivenessVector": "respond",
    "RobustnessCertificate": "robustness",
    "VotingRule": "core",
    "WeightVector": "respond",
    "WmrQuery": "wmr",
    "agreement_counts": "respond",
    "agreement_matrix": "robustness",
    "all_profiles": "core",
    "anonymous_even_impossibility": "random_rules",
    "apply_permutation": "core",
    "certify_anonymous": "robustness",
    "certify_p_robust": "robustness",
    "certify_p_robust_full": "robustness",
    "certify_random": "random_rules",
    "classify_rule": "wmr",
    "constant_rule": "core",
    "count_distribution": "core",
    "detect_wmr": "wmr",
    "dictatorship_rule": "core",
    "efficiency_verdict": "efficiency",
    "enumerate_rules": "core",
    "epsilon_lower_witness": "gamma_mechanism",
    "epsilon_upper": "gamma_mechanism",
    "find_dominating_deterministic": "random_rules",
    "format_rational": "core",
    "gain_ratio": "gamma_mechanism",
    "gamma_counterexample": "gamma_mechanism",
    "gamma_utilities": "gamma_mechanism",
    "inverse_rule": "core",
    "is_anonymous": "core",
    "is_dictatorship": "core",
    "is_own_vote_monotone": "core",
    "is_permutation_invariant": "robustness",
    "is_self_dual": "core",
    "is_strategy_proof": "gamma_mechanism",
    "is_strictly_efficient": "efficiency",
    "load_rule": "core",
    "majority_rule": "core",
    "mean_responsiveness_by_count": "respond",
    "parity_rule": "core",
    "parse_rational": "core",
    "pareto_compare": "efficiency",
    "permute_distribution": "robustness",
    "permute_profile_index": "core",
    "popcount": "core",
    "responsiveness": "respond",
    "responsiveness_game": "robustness",
    "rtf_max_weighted": "respond",
    "sign_pattern_holds": "certificates",
    "supermajority_rule": "core",
    "transport_distribution": "efficiency",
    "unanimity_rule": "core",
    "verify_report": "verification",
    "vote_in_profile": "core",
    "weighted_majority_rule": "core",
    "weights_represent": "certificates",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
