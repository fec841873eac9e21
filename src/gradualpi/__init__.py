"""A workbench for a gradually typed capability pi-calculus.

Parse `.gpi` programs, check them against channel-capability environments,
compile them to a cast calculus, and execute that calculus under an
operational semantics that resolves, succeeds, or fails casts at run time.
"""

from .castinsert import CompilationOutput, CastSite, erase_casts, insert_casts, reverse_type
from .parser import (
    GpiParseError,
    Program,
    format_channel,
    parse,
    parse_process,
    print_cast,
    print_surface,
)
from .runtime import (
    Configuration,
    Exhaustive,
    Interactive,
    MalformedCastError,
    Outcome,
    Redex,
    RunReport,
    Seeded,
    Status,
    TraceEvent,
    enumerate_redexes,
    format_trace,
    normalize,
    resolve_input_casts,
    resolve_output_casts,
    run,
    step,
)
from .syntax import (
    DYN,
    Capability,
    CastChannel,
    ChanType,
    Dyn,
    Name,
    TypeEnv,
    alpha_equal,
    free_names,
    substitute,
)
from .typecheck import CheckResult, ConsistencyCheck, TypeDiagnostic, check, check_static, consistent

__version__ = "0.1.0"
