"""Benchmark harness for tomokit: workloads, tracing and metrics."""
