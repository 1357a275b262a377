"""Exact-arithmetic calculator for contact Dehn and contact round surgery diagrams."""

from .core import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    NicenessReport,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    check_nice,
    contact_to_topological,
    is_fillable_sufficient,
    is_pm1,
    joint_pairs_to_pm1,
    validate_diagram,
)
from .bridge import (
    GadgetSpec,
    PairingPlan,
    kirby1_gadget,
    pair_pm1_diagram,
)
from .dividing import (
    ArcConfig,
    ClosedCurve,
    GluedCurves,
    ParallelArc,
    TraversingArc,
    giroux_overtwisted,
    glue_annuli,
)
from .front import (
    FrontInvariants,
    FrontWord,
    OrientedFront,
    classical_invariants,
    parse_front_word,
    stabilize,
    trace_components,
)
from .homology import (
    H1Class,
    IntMatrix,
    SmithForm,
    det,
    h1_dehn,
    h1_round1,
    h1_round2,
    h1_round_diagram,
    linking_matrix,
    smith_normal_form,
)
from .slopes import (
    BoundaryData,
    NegCF,
    TightCount,
    UnimodularMatrix,
    count_configurations,
    enumerate_configurations,
    honda_count,
    neg_cf,
    normalize_slopes,
)

__version__ = "0.1.0"
