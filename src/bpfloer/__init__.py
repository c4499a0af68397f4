"""Exact computation of equivariant instanton Floer homology for the
binary polyhedral spaces, with all supporting combinatorics.

The layers, bottom up: exact fields and cyclotomic values (fields, cyclo),
sparse exact linear algebra and chain complexes (sparse, chains), finite
subgroups of SU(2) and their character theory (groups), McKay graphs and the
labeled graphs on flat connections (mckay), the model multicomplexes and
their windows (donaldson), the equivariant chain functors and oracles
(equivariant), the index spectral sequence and closed-form modules (floer,
theorems, presented), Chern-Simons invariants (cs), and the CLI (cli).
"""

from .cs import CohClass, CsValue, c2_class, chern_simons, group_cohomology
from .donaldson import BAR, STD, Window, build_model
from .equivariant import (
    MINUS,
    PLUS,
    TATE,
    UReduction,
    bar_oracle,
    exact_triangle_check,
    functor_model,
    orbit_homology,
    u_reduction,
)
from .fields import QQ, PrimeField, parse_field
from .floer import (
    GroupRun,
    MinusPages,
    direct_homology_window,
    norm_vanishing_and_splitting,
    ss_accounting,
)
from .groups import (
    GroupId,
    I_STAR,
    O_STAR,
    T_STAR,
    binary_dihedral,
    character_table,
    cyclic,
    fs_indicator,
    parse_group,
    quaternionic_reps,
    tensor_decompose,
)
from .mckay import (
    McKayGraph,
    SGraph,
    VirtualRep,
    mckay_graph,
    quotient_graph,
    recognize_subgroup,
    s_graph,
    solve_rep_equation,
)
from .presented import BarWindow, Family, ModuleWindow, PresentedModule, compare_windows
from .theorems import encoded_module

__version__ = "1.0.0"
