"""Co-selection network analysis of production-campaign records.

The package exports the names of the README's library example; everything
else is imported from its submodule (`gradenet.records`, `gradenet.stats`,
`gradenet.errors`, ...).
"""

from .evolution import stage_networks
from .graph import girvan_newman
from .pipeline import AnalysisConfig, run_analysis
from .records import assign_windows, parse_records

__version__ = "0.1.0"
