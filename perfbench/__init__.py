"""Benchmark of the iprox package: three closed-loop workloads, output checks
and a traced per-layer run.  See README.md in this directory."""
