"""ardkit: turn raw spatio-temporal count tables into analysis ready data.

The pipeline stages are: ingest raw tables into the standardized record
schema, clean them, convert boundary editions via correspondence tables,
apply disclosure control, run quality-assurance rules with uncertainty
scoring, and emit FAIR metadata, data dictionaries, a data-management-plan
scaffold, and a hash-chained provenance log.
"""

__version__ = "0.1.0"

from .errors import ArdkitError
from .model import (
    BoundaryEdition,
    CellKind,
    Dataset,
    GeoLevel,
    Indicator,
    NestDomain,
    UncertaintyLevel,
    Vocabulary,
    canonical_sort,
    read_csv,
    validate_dataset,
    write_csv,
)

__all__ = [
    "ArdkitError",
    "BoundaryEdition",
    "CellKind",
    "Dataset",
    "GeoLevel",
    "Indicator",
    "NestDomain",
    "UncertaintyLevel",
    "Vocabulary",
    "canonical_sort",
    "read_csv",
    "validate_dataset",
    "write_csv",
    "__version__",
]
