"""Test-pattern sources: vector containers, random generation, greedy
compaction, and the coverage-directed generator used for the Table 4 sets."""

from repro.patterns.vectors import TestSequence, parse_vectors, format_vectors
from repro.patterns.random_gen import random_sequence
from repro.patterns.compaction import greedy_compact_tests
from repro.patterns.atpg import generate_tests

__all__ = [
    "TestSequence",
    "parse_vectors",
    "format_vectors",
    "random_sequence",
    "greedy_compact_tests",
    "generate_tests",
]
