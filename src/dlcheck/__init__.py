"""Static detection of train/test data leakage in data-frame programs and
Jupyter notebooks, with a concrete-semantics oracle for differential
validation."""

from .lang import (  # noqa: F401
    Apply,
    Branch,
    DslError,
    INF,
    Loop,
    Merge,
    ParseError,
    Phi,
    Program,
    Read,
    RowExpr,
    RowList,
    RowRange,
    Select,
    SsaError,
    UndefinedVariableError,
    Use,
    input_sources,
    parse_program,
    program_text,
    used_vars,
)
from .domains import (  # noqa: F401
    AbsDataFrame,
    BOT_ROWS,
    BOT_SOURCE,
    ColumnAbs,
    RowInterval,
    SourceAbs,
    TOP_COLS,
    TOP_ROWS,
)
from .interp import (  # noqa: F401
    AbstractState,
    AnalysisError,
    Finding,
    check_leakage,
    run_program,
    transfer,
)
from .oracle import (  # noqa: F401
    ConcreteFrame,
    OracleError,
    TraceSet,
    alpha_dependencies,
    alpha_pointwise,
    check_lemma1,
    concrete_run,
    enumerate_independence,
)
from .fuzz import fuzz_soundness  # noqa: F401

__version__ = "0.1.0"
