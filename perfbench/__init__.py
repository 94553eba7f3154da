"""Benchmark of the default verification path (see README.md)."""
