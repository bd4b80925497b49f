"""Exact lattice invariants, root graphs and Vinberg checks for the Coble
surface classification tables."""

from .lattice import (
    DiscriminantGroup,
    Lattice,
    det,
    direct_sum,
    disc_q,
    discriminant_group,
    gram_matrix,
    half_overlattice,
    is_even,
    load_gram_file,
    make_lattice,
    make_named,
    mod2_nullity,
    overlattice,
    radical_quotient,
    rescale,
    signature,
)
from .rootgraph import (
    DiagramType,
    GraphFormatError,
    ParabolicSubdiagram,
    RootGraph,
    VinbergReport,
    automorphisms,
    connected_parabolics,
    export_dot,
    load_graph_file,
    maximal_parabolics,
    parse_diagram,
    parse_graph_text,
    span_check,
    span_det,
    span_lattice,
    type_multisets,
    vinberg_check,
)
from .catalog import (
    BlowupModel,
    CatalogEntry,
    CobleMukaiLattice,
    RInvariant,
    Table1Row,
    build_graph,
    build_model,
    coble_mukai,
    get_entry,
    q_kernel_invariant,
    r_invariant_check,
    table1,
    verify_realization,
)
from .fibrations import (
    KodairaFiber,
    admissible_assignments,
    diagram_of,
    extremal_lookup,
    fiber_multiset,
    fibers_of,
    parse_fiber,
)

__version__ = "0.1.0"
