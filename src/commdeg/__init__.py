"""commdeg: exact and Monte Carlo commuting-pair probabilities.

Finite groups are explicit multiplication tables; every exact quantity is
an arbitrary-precision Fraction. Profinite groups appear as truncated
towers of finite quotients, compact Lie groups as certificate presets for
the power-map singularity criteria, and a counter-based sampler estimates
the same probabilities on continuous presets.

The public names below are loaded on first use (PEP 562), so importing the
package loads no submodule and a subcommand imports only its own modules.
A name is looked up on its defining module at every access and never
stored here, so a function rebound on that module is what the package
returns.
"""
from importlib import import_module

_EXPORTS = {
    "actions": (
        "FiniteAction",
        "conjugation_action",
        "equalizer_prob_via_group",
        "equalizer_prob_via_points",
        "fixed_set",
        "isotropy",
        "orbits",
    ),
    "degrees": (
        "DegreeReport",
        "Distribution",
        "degree_bruteforce",
        "degree_centralizer_sum",
        "degree_mn",
        "degree_mn_pushforward",
        "degree_of_product",
        "degree_structural",
        "haar",
        "pushforward_power",
    ),
    "groups": (
        "GroupTable",
        "Homomorphism",
        "Subgroup",
        "center",
        "centralizer",
        "characteristic_abelian_subgroup",
        "commutator_subgroup",
        "conjugacy_classes",
        "direct_product",
        "power_map",
        "quotient",
        "semidirect_product",
    ),
    "lie": (
        "LieElement",
        "LiePreset",
        "StraightnessVerdict",
        "adjoint_eigenvalues",
        "alpha_matrix",
        "build_lie_preset",
        "is_singular",
        "is_totally_singular",
        "singular_via_alpha",
        "straightness_verdict",
    ),
    "sampler": (
        "Estimate",
        "SampledElement",
        "commutes",
        "estimate_degree_mn",
        "estimate_finite",
        "get_sampler_preset",
        "sample",
    ),
    "specs": ("build_group",),
    "towers": (
        "Tower",
        "TowerReport",
        "build_tower_preset",
        "cyclic_tower",
        "elementary_tower",
        "fc_class_growth",
        "heisenberg_tower",
        "product_degree_partials",
        "straightness_fraction",
        "tower_degrees",
    ),
}

# public name -> defining module; the errors module is itself public
_HOME = {"errors": "errors"}
_HOME.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
