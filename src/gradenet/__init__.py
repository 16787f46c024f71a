"""Co-selection network analysis of production-campaign records."""

from .errors import (
    GenerationError,
    GradenetError,
    InsufficientDataError,
    InvalidArgumentError,
    ParseError,
    SchemaError,
    UndefinedCorrelationError,
)
from .evolution import (
    GroupSummary,
    StageSeries,
    group_summary,
    node_age,
    prune_minor_groups,
    stage_networks,
)
from .graph import (
    CommunityPartition,
    Graph,
    connected_components,
    girvan_newman,
    modularity,
)
from .mining import CoSelectionGraph
from .nullmodels import (
    NullModelSpec,
    SeedStream,
    calibrate_radius,
    er_gnm,
    generate_null,
    random_geometric,
    spec_for,
    switch_randomize,
)
from .pipeline import AnalysisConfig, run_analysis
from .records import (
    RecordTable,
    TransactionSet,
    assign_windows,
    campaign_diversity_histogram,
    group_campaigns,
    parse_records,
    slabs_per_item_histogram,
)
from .stats import (
    CorrelationResult,
    EnsembleSummary,
    ensemble_zscores,
    kendall,
    midranks,
    node_metric_correlations,
    pearson,
    spearman,
)
from .synth import Band, PlannerConfig, ProductionRecord, generate, planted_two_band_config

__version__ = "0.1.0"
