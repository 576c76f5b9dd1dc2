"""The benchmark of the OMQ path: workloads, oracles, tracing, comparison."""
