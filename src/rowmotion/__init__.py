"""Exact-arithmetic antichain rowmotion on finite posets.

Combinatorial rowmotion on antichains, plus its piecewise-linear (tropical),
birational (rational-function), and noncommutative (matrix) liftings, all
through one transfer-map and toggle code path; fiber words, homomesy checks,
and a seeded periodicity fuzzer on top.
"""

from .combinatorial import (
    combinatorial_orbits,
    rowmotion_antichain,
    st_word_combinatorial,
)
from .dynamics import (
    Orbit,
    TransferKind,
    antichain_rowmotion,
    closed_form_first_pass,
    iterate,
    polytope_membership,
    toggle,
    transfer,
)
from .errors import PosetError, SamplingExhausted, SingularValue
from .labeling import Labeling, labeling_from_json
from .poset import (
    FinitePoset,
    RectanglePoset,
    build_poset,
    enumerate_antichains,
    fibers,
    poset_from_json,
    poset_to_json,
    product_of_chains,
)
from .realms import (
    FUZZ_PRIME,
    FpMatrixRealm,
    FractionMatrixRealm,
    RationalFunctionRealm,
    TropicalRealm,
    realm_from_config,
)
from .sampling import derive_seed, sample_generic_labeling, symbolic_labeling
from .stword import (
    check_rotation,
    fiber_orbit_product,
    fiber_product_checks,
    orbit_window,
    pl_homomesy_report,
    st_word,
)

__version__ = "0.1.0"
