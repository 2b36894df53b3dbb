"""Tag algebra (Section 3.3 / Figure 6 of the paper).

A tag τ = d0 d1 ... d(n-1) is a bit vector over the n data blocks; we
store it as a Python integer with bit j set iff block βj is accessed.
Python integers are arbitrary precision, so the number of data blocks is
unbounded, and each of the paper's three tag operations is one big-int
AND/OR/XOR, plus a C-speed popcount (``int.bit_count()``) where it
counts blocks:

* ``dot(τ1, τ2)`` — the dot product, i.e. the number of common 1 bits;
  the clustering algorithm's affinity measure;
* ``bitwise_sum(τ1, τ2, ...)`` — the OR of tags; the tag of a cluster;
* ``hamming(τ1, τ2)`` — the Hamming distance; the local scheduler's
  dissimilarity measure.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["dot", "hamming", "bitwise_sum", "ones", "blocks_in", "tag_from_blocks", "render"]


def dot(a: int, b: int) -> int:
    """Tag dot product: the number of data blocks shared by two tags."""
    return (a & b).bit_count()


def hamming(a: int, b: int) -> int:
    """Number of data blocks exactly one of two tags covers."""
    return (a ^ b).bit_count()


def bitwise_sum(*tags: int) -> int:
    """The cluster tag: bitwise OR of member tags (Figure 6, 'BitwiseSum')."""
    acc = 0
    for tag in tags:
        acc |= tag
    return acc


def ones(tag: int) -> int:
    """Number of data blocks a tag covers."""
    if tag < 0:
        raise ValueError("tags are non-negative integers")
    return tag.bit_count()


def blocks_in(tag: int) -> list[int]:
    """Block numbers covered by a tag, ascending."""
    if tag < 0:
        raise ValueError("tags are non-negative integers")
    return [j for j in range(tag.bit_length()) if tag >> j & 1]


def tag_from_blocks(blocks: Iterable[int]) -> int:
    """Tag covering exactly the given block numbers.

    >>> bin(tag_from_blocks([0, 3]))
    '0b1001'
    """
    acc = 0
    for block in blocks:
        if block < 0:
            raise ValueError(f"block number must be non-negative, got {block}")
        acc |= 1 << block
    return acc


def render(tag: int, num_blocks: int) -> str:
    """Paper-style rendering, d0 first (e.g. τ=1100 for blocks {0,1})."""
    if num_blocks < tag.bit_length():
        raise ValueError(f"width {num_blocks} too small for a tag of {tag.bit_length()} bits")
    return "".join("1" if tag >> j & 1 else "0" for j in range(num_blocks))
