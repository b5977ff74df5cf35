"""chainmat: exact matroid representations over finite commutative local
rings via modular independence."""

from .codes import Code, contract_code, dual_code, is_contractible, puncture, shorten
from .enumgeo import (
    ModuleShape,
    count_cyclic_submodules,
    cyc_antichain_bound,
    projective_line,
    simple_size_bound,
    uniform_rank2_representation,
)
from .indepsys import (
    Clutter,
    IndependenceSystem,
    MatroidReport,
    build_from_matrix,
    check_matroid,
    is_isomorphic,
    uniform_system,
)
from .linalg import Mat, SnfResult, det, format_matrix, parse_matrix, parse_matrix_file, smith_normal_form, systematic_form
from .modindep import (
    Submodule,
    has_nonzero_maximal_minor,
    has_trivial_annihilator,
    is_modular_independent,
    minimal_generator_count,
    span,
)
from .rings import Ring, make_ring

__version__ = "0.1.0"

__all__ = [
    "Clutter",
    "Code",
    "IndependenceSystem",
    "Mat",
    "MatroidReport",
    "ModuleShape",
    "Ring",
    "SnfResult",
    "Submodule",
    "build_from_matrix",
    "check_matroid",
    "contract_code",
    "count_cyclic_submodules",
    "cyc_antichain_bound",
    "det",
    "dual_code",
    "format_matrix",
    "has_nonzero_maximal_minor",
    "has_trivial_annihilator",
    "is_contractible",
    "is_isomorphic",
    "is_modular_independent",
    "make_ring",
    "minimal_generator_count",
    "parse_matrix",
    "parse_matrix_file",
    "projective_line",
    "puncture",
    "shorten",
    "simple_size_bound",
    "smith_normal_form",
    "span",
    "systematic_form",
    "uniform_rank2_representation",
    "uniform_system",
]
