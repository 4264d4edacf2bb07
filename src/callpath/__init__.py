"""Call-graph call-path extraction toolkit.

Find shortest caller->callee paths in large call graphs with a
bidirectional search that *postpones* expanding backward through
methods of interface or abstract classes (which tend to have many
callers), instead of expanding them immediately. Includes an
in-memory and a disk-resident graph backend with read accounting, a
seeded synthetic-graph generator, and a benchmark harness that
compares algorithm variants across endpoint-pair regimes and storage
conditions.
"""

__version__ = "0.1.0"

from .bench import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    PairSpec,
    ReportRow,
    Scenario,
    ScenarioReport,
    StorageCondition,
    emit_report,
    find_regime_pairs,
    load_scenario,
    run_scenario,
)
from .errors import (
    AmbiguousNameError,
    CallpathError,
    ChecksumError,
    InternalSearchError,
    InvalidNodeError,
    JsonlFormatError,
    NameNotFoundError,
    ScenarioError,
    StoreError,
    StoreFormatError,
    StoreLimitError,
    SyntheticSpecError,
)
from .ingest import (
    PairProfile,
    Regime,
    SyntheticSpec,
    classify_pair,
    export_jsonl,
    generate_synthetic,
    import_jsonl,
    iter_jsonl,
    reachable_count,
    reachable_set,
)
from .model import (
    ClassKind,
    Direction,
    Edge,
    InMemoryGraph,
    MethodMeta,
    NodeColumns,
    NodeId,
    materialize,
    resolve_name,
)
from .search import (
    DEFAULT_POSTPONE_KINDS,
    Algorithm,
    FrontierPolicy,
    SearchConfig,
    SearchResult,
    SearchStatus,
    TraceEvent,
    run_search,
)
from .store import (
    AccessStats,
    CacheConfig,
    CacheMode,
    DiskGraph,
    StoreSummary,
    build_store,
    is_store_file,
    open_store,
)

__all__ = [
    "__version__",
    # model
    "NodeId",
    "Direction",
    "ClassKind",
    "Edge",
    "MethodMeta",
    "NodeColumns",
    "InMemoryGraph",
    "materialize",
    "resolve_name",
    # ingest
    "import_jsonl",
    "export_jsonl",
    "iter_jsonl",
    "SyntheticSpec",
    "generate_synthetic",
    "reachable_count",
    "reachable_set",
    "classify_pair",
    "PairProfile",
    "Regime",
    # search
    "Algorithm",
    "FrontierPolicy",
    "SearchConfig",
    "SearchResult",
    "SearchStatus",
    "TraceEvent",
    "DEFAULT_POSTPONE_KINDS",
    "run_search",
    # store
    "AccessStats",
    "CacheConfig",
    "CacheMode",
    "DiskGraph",
    "StoreSummary",
    "build_store",
    "open_store",
    "is_store_file",
    # bench
    "Scenario",
    "PairSpec",
    "StorageCondition",
    "ScenarioReport",
    "ReportRow",
    "run_scenario",
    "emit_report",
    "load_scenario",
    "find_regime_pairs",
    "CSV_COLUMNS",
    "TIMING_COLUMNS",
    # errors
    "CallpathError",
    "InvalidNodeError",
    "NameNotFoundError",
    "AmbiguousNameError",
    "JsonlFormatError",
    "SyntheticSpecError",
    "StoreError",
    "StoreFormatError",
    "StoreLimitError",
    "ChecksumError",
    "ScenarioError",
    "InternalSearchError",
]
