"""Static detection of train/test data leakage in data-frame programs and
Jupyter notebooks, with a concrete-semantics oracle for differential
validation.

Importing the package loads the analysis modules only; the oracle and the
fuzzer are ``dlcheck.oracle`` and ``dlcheck.fuzz``."""

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
    RowInterval,
    RowList,
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
    SourceAbs,
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

__version__ = "0.1.0"
