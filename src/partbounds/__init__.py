"""Exact partition numbers with certified interval enclosures for their
ratios, shifted differences, and related rank statistics."""

from .enclosure import DEFAULT_PRECISION, Enclosure
from .errors import (
    PartboundsError,
    PreconditionError,
    PrecisionError,
    StabilizationError,
)
from .exact import (
    PartitionTable,
    default_table,
    delta_r_j_direct,
    dyson_rank_count,
    enumerate_partitions,
    f_jn,
    nonkary_enumerate_oracle,
    nu_k,
    p_enumerate_oracle,
    p_exact,
    series_delta_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION",
    "Enclosure",
    "PartboundsError",
    "PartitionTable",
    "PrecisionError",
    "PreconditionError",
    "StabilizationError",
    "default_table",
    "delta_r_j_direct",
    "dyson_rank_count",
    "enumerate_partitions",
    "f_jn",
    "nonkary_enumerate_oracle",
    "nu_k",
    "p_enumerate_oracle",
    "p_exact",
    "series_delta_coeffs",
]
