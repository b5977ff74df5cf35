"""chainmat: exact matroid representations over finite commutative local
rings via modular independence.

``import chainmat`` loads no submodule: a public name is imported from its
home module when it is first read (PEP 562), so a command or a script
compiles only the modules it uses.
"""

__version__ = "0.1.0"

# home submodule -> the public names it provides
_EXPORTS = {
    "codes": ("Code", "contract_code", "dual_code", "is_contractible", "puncture", "shorten"),
    "enumgeo": (
        "ModuleShape",
        "count_cyclic_submodules",
        "cyc_antichain_bound",
        "projective_line",
        "simple_size_bound",
        "uniform_rank2_representation",
    ),
    "indepsys": (
        "Clutter",
        "IndependenceSystem",
        "MatroidReport",
        "build_from_matrix",
        "check_matroid",
        "is_isomorphic",
        "uniform_system",
    ),
    "linalg": (
        "Mat",
        "SnfResult",
        "det",
        "format_matrix",
        "parse_matrix",
        "parse_matrix_file",
        "smith_normal_form",
        "systematic_form",
    ),
    "modindep": (
        "Submodule",
        "has_nonzero_maximal_minor",
        "has_trivial_annihilator",
        "is_modular_independent",
        "minimal_generator_count",
        "span",
    ),
    "rings": ("Ring", "make_ring"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
