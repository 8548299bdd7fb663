"""spineml benchmark: workloads, tracing and correctness gates."""
