"""
Interaction graphs, one-dimensional cobordisms, and the path functor
between them.

The library exposes four layers:

* ``graph`` / ``execution``: directed multigraphs, alternating paths,
  prime-cycle classes, the execution operation, and checkers for
  associativity of execution and the trefoil property.
* ``interaction``: the category whose morphisms are graphs on tagged
  boundaries, composed by execution, plus the project (wager) layer.
* ``cob0`` / ``functor``: combinatorial cobordisms (perfect matchings with
  circle counts), their gluing, and the wagered fundamental-graph functor
  with functoriality/faithfulness checkers.
* ``bimodular``: graphs with a group per vertex and commuting edge
  actions, composed by orbit quotient.

``campaigns`` drives randomized and exhaustive verification runs;
``formats`` parses and renders the text formats used by the CLI.
"""

from .graph import (
    DIRECTED,
    UNORIENTED,
    OMEGA,
    CycleClass,
    DerivedGraph,
    DuplicateEdgeIdError,
    Edge,
    ExtNat,
    Graph,
    GraphError,
    InfiniteCycleSetError,
    InfinitePathSetError,
    InvariantViolationError,
    Path,
    UnknownVertexError,
    alternating_paths,
    count_paths,
    derived_graph,
    flatten,
    prime_cycles,
)
from .execution import (
    CheckReport,
    PreconditionViolationError,
    check_associativity,
    check_trefoil,
    execute,
    graphs_equal_flattened,
    measure,
    normal_form,
)
from .interaction import (
    IdentityEdgeId,
    IntMorphism,
    InterfaceMismatchError,
    Project,
    int_compose,
    int_identity,
    interface_measure,
    project_execute,
    project_unit,
)
from .cob0 import (
    AlternatingDecomposition,
    Cob0Morphism,
    NotACompositeError,
    cob0_compose,
    cob0_enumerate,
    cob0_identity,
    cob0_morphism,
    decompose_segment,
)
from .functor import (
    SegmentEdgeId,
    check_faithfulness,
    check_functoriality,
    functor_bar,
    fundamental_graph,
)
from .bimodular import (
    BimodularGraph,
    FiniteGroup,
    IncompatibleActionsError,
    IncompatibleGroupsError,
    OrbitCapExceededError,
    bimod_compose2,
    bimod_execute,
    check_well_defined,
    cyclic_group,
    direct_product,
    klein_four_group,
    symmetric_group,
    trivial_group,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
