"""Shared utilities: space-filling-curve orderings, validation."""

from repro.utils.hilbert import hilbert_index_3d, hilbert_order
from repro.utils.morton import morton_index_3d, morton_order
from repro.utils.validation import check_positive

__all__ = [
    "hilbert_index_3d",
    "hilbert_order",
    "morton_index_3d",
    "morton_order",
    "check_positive",
]
