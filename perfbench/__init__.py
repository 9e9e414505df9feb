"""Benchmark of fbplab: workloads, output checks and per-module spans (see README.md)."""
