"""Outside-in benchmark of the SMORE reproduction; run ``python -m bench``.

See ``bench/README.md`` for the workloads, the metrics and the run rules.
"""
