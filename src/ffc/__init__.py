"""Exact finite free convolutions and certified Ramanujan matching unions.

Everything numeric here is exact unless a name says otherwise: polynomials
and matrices live over the rationals, root locations are decided by Sturm
counts on the integer remainder sequence of p and p' (no square-free part;
multiplicities come from the tower of such chains of p, gcd(p, p'), ...)
with endpoints in a real quadratic extension or, for the real spectra of the
certifier, by Descartes counts on integer Taylor shifts.  Floats remain in
the Laguerre step that picks which cell to prove holds a largest root, the
``inverse_cauchy`` midpoints and ``BoundReport.passed``, which compares them
with a tolerance (the one verdict still decided on floats), the uncalled
float screen, and decimal renderings.
"""

from .config import PACKAGE_VERSION
from .convolution import asym_convolve, m_fold_asym, m_fold_sym, sym_convolve
from .errors import BudgetError, ContractError, ParameterError
from .graphs import (
    MatchingUnion,
    RamanujanCertificate,
    certify,
    deflate_trivial,
    float_filter,
    jacobi_eigenvalues,
    sample_bipartite,
    sample_nonbipartite,
)
from .matrix import RatMatrix, char_poly, dilation
from .perms import (
    Permutation,
    RandomSwap,
    SwapProgram,
    bipartite_uniform_program,
    leaf_distribution,
    relabel_grid,
    uniform_permutation,
    uniform_program,
)
from .poly import RatPoly, cauchy_root_bound
from .quadfield import QuadScalar, as_quad
from .quadrature import (
    ExpectedPoly,
    FourierReport,
    QuadratureReport,
    expected_charpoly_perm,
    expected_charpoly_swaps,
    fourier_degree_test,
    random_doubly_regular,
    random_regular_symmetric,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from .rng import SplitMix64, derive_seed
from .search import (
    DescentStep,
    SearchReport,
    expected_poly_for_graph_model,
    interlacing_descent,
    rejection_search,
)
from .sturm import (
    SturmChain,
    compare_max_roots,
    count_roots_in,
    count_roots_in_mult,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    max_root_bracket,
    root_multiplicity_at,
    squarefree_decomposition,
    sturm_chain,
)
from .transforms import (
    BoundReport,
    TableRow,
    bip_matching_nontrivial_poly,
    check_asym_bound,
    check_sym_bound,
    inverse_cauchy,
    matching_nontrivial_poly,
    mfold_root_bound_table,
    ramanujan_bound,
)

__version__ = PACKAGE_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
