"""Tools for mutually unbiased bases: constructions, Hadamard catalogs, exact
root-of-unity searches, the six-dimensional biunimodular census, and the
chordal distance geometry that scores near-unbiasedness."""

from .core import (
    Basis,
    InadmissibleParameterError,
    dephase,
    equivalent_heuristic,
    haagerup_invariants,
    hadamard_defect,
    is_complex_hadamard,
    is_unbiased_pair,
    overlap_squares,
)
from .cyclotomic import CyclotomicInt, RootVector, is_orthogonal, is_unbiased_exact, root_inner
from .constructions import (
    fourier,
    ks_uncolourable,
    peres_rays,
    prime_mub_set,
    real_mub_set_dim4,
    real_unbiased_census,
    weyl_pair,
)
from .catalog import (
    beauchamp_nicoara,
    bjorck_c,
    bjorck_d,
    f6,
    f6_transpose,
    h4,
    load_fixture,
)
from .grassmann import (
    basis_projector,
    bloch_embed,
    chordal_distance_sq,
    chordal_distance_sq_overlap,
    distance_table,
    hs_distance_sq,
    spread_objective,
)
from .biunimodular import (
    CensusResult,
    assemble_bases,
    autocorrelation,
    census_distance_report,
    dft,
    is_biunimodular,
    newton_census,
    root_census,
)
from .search import (
    SearchSpec,
    mub_quartet_search,
    mub_triplet_search,
    root_hadamard_enumerate,
    unbiased_vector_enumerate,
)
from .optimize import maximize_spread, scan_family

__version__ = "0.1.0"
