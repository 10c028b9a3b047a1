"""Flow-table vector-space modeling of OpenFlow 1.0 control applications.

Control applications are modeled by the impact they have on the
network information base: each application is a homogeneous matrix
acting on the vector of per-switch flow tables, rule actions are
affine maps on the rule state, and two applications (or service
chains) are reported congruent when the normal forms of their
composite matrices are equal.  The check is sound, not complete:
congruent transforms give equal tables on every NIB, but transforms
whose guards differ in form can behave alike and still be reported
not congruent.  On top of the algebra the package offers congruence
reports, behavioral differencing, forwarding-loop detection by
additive-inverse rule scanning, and what-if previews of FLOW_MOD
changes, plus a CLI (`flowspace`) over JSON scenario files.
"""

__version__ = "0.1.0"

from flowspace.actions import (
    ActionLabel,
    AffineAction,
    RuleState,
    apply_action,
    compose,
    drop,
    forward,
    identity,
    invert,
    is_identity,
    modify_field,
)
from flowspace.analysis import (
    CongruenceReport,
    Counterexample,
    FlowModRequest,
    LoopFinding,
    TableDiff,
    WhatIfReport,
    behavioral_diff,
    check_congruence,
    detect_loops,
    what_if,
)
from flowspace.errors import (
    ArityMismatchError,
    DimensionMismatchError,
    EmptyChainError,
    FlowspaceError,
    InvalidRuleError,
    RuleNotFoundError,
    ScenarioFormatError,
    SingularActionError,
    SlotOutOfRangeError,
    UnknownFieldError,
    UnresolvedPortError,
    WidthOverflowError,
)
from flowspace.headers import (
    FIELDS,
    FieldSpec,
    Header,
    HeaderDelta,
    MatchPattern,
    dest_of,
    field_delta,
    make_header,
    matches,
    src_of,
    translate_header,
)
from flowspace.nib import (
    NIB,
    Flow,
    Topology,
    count_by_dest,
    count_by_src,
    nib_vector,
)
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    add,
    empty,
    negate_rule,
    negate_table,
    reduce,
    scalar_mul,
)
from flowspace.transforms import (
    AppTransform,
    GuardedDelta,
    RuleTemplate,
    ServiceChain,
    apply_transform,
    chain,
    compose_apps,
    flow_mod_add,
    flow_mod_delete,
    flow_mod_modify,
    make_app,
    normalize,
)
