"""Small shared helpers used across the library."""

from repro.util.mathutil import ceil_div, floor_div, gcd_list, lcm_list, sign
from repro.util.tables import format_table

__all__ = [
    "ceil_div",
    "floor_div",
    "gcd_list",
    "lcm_list",
    "sign",
    "format_table",
]
