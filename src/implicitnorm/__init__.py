"""Exact computation of implicitly defined partition norms on finitely
supported sequences, with constructive block-sequence procedures and
numeric inequality audits.

The central object is the norm defined as the unique fixed point of

    N(x) = max( sup|x_i| ,
                sup over n >= 2 and successive sets E_1 < ... < E_n of
                    (1/log2(n+1)) * sum_i N(E_i x) )

together with its layer norms, characters, witness partitions, and dual
norming functionals, all evaluated exactly (to double precision) by
dynamic programming over interval partitions of the support.

The namespace is lazy (PEP 562): an exported name or a submodule is
imported from its home module on first access, so a process pays only
for the modules it uses.
"""

import importlib

_EXPORTS = {
    "vectors": ("FinVector", "Functional", "Interval", "OrderedPartition",
                "VectorError", "WitnessTree", "elementary_norms", "restrict",
                "spread"),
    "engine": ("CharacterResult", "DomainError", "EngineCheckError",
               "ENGINE_VERSION", "F_SYSTEM", "G_SYSTEM", "IntervalTables",
               "MemoTable", "NormResult", "NormSystem", "SupportGuardError",
               "best_sum", "brute_norm", "build_tables", "character",
               "constant_best_sum", "constant_vector_norm", "get_system",
               "layer_norm", "log2_affine_system", "norm", "norm_value",
               "norm_values", "norming_functional", "tail_layer_norm"),
    "blocks": ("BlockSequence", "ExperimentReport", "NotEquivalentOnFamilyError",
               "ProjectionOp", "ProjectionReport", "SplitProfile",
               "StabilizationState", "average_split_experiment",
               "build_projection", "domination_margin", "equivalence_constant",
               "greedy_block_select", "greedy_split", "l1_average_block",
               "projection_norm_estimate", "split_count_bounds",
               "stabilize_subsequence", "tail_constant"),
    "audits": ("AuditReport", "RefinementReport", "Tower", "TowerProductResult",
               "audit_all", "audit_power", "audit_product_growth_printed",
               "audit_root_power", "audit_slack", "audit_subadditivity", "beta",
               "beta_tilde", "default_nu_grid", "default_xi_grid", "f_log2",
               "find_min_constant", "g_log2", "gamma_factor",
               "refinement_margin", "tower_product"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("vectors", "engine", "blocks", "audits", "serialize",
                         "cli"))

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
