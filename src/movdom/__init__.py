"""Exact domination and movable-domination invariants on small graphs.

Core pieces: immutable bitmask graphs with named families and connected
enumeration by isomorphism class; join and corona products with provenance
layouts; exact solvers for the domination number and the 1- and 2-movable
variants, returning witnesses and re-checkable certificates; and a harness
that validates the package's numbered claims on instance pools.
"""

from .domination import (
    SOLVER_MAX_ORDER,
    SolverResult,
    dominating_sets,
    gamma,
    is_dominating,
)
from .graph import (
    ENUMERATION_MAX_ORDER,
    Graph,
    VertexSet,
    bits,
    closed_neighborhood,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_classes,
    format_edge_list,
    from_edge_list,
    is_connected,
    make_family,
    mask_of,
    path,
    random_connected_graph,
    star,
    vertex_list,
)
from .harness import (
    CLAIM_IDS,
    BudgetConfig,
    ClaimReport,
    default_pools,
    run_all,
    verify_corollary_3_1,
    verify_lemma_3_4,
    verify_lemma_3_5,
    verify_remark_3_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
    verify_theorem_3_6,
)
from .movable import (
    MalformedCertificateError,
    MovabilityCertificate,
    MovabilityFailure,
    Move,
    ReplacementMode,
    gamma_m1,
    gamma_m2,
    is_1movable_dominating,
    is_2movable_dominating,
    verify_certificate,
)
from .products import (
    CoronaLayout,
    JoinLayout,
    corona,
    join,
)

__version__ = "0.1.0"
