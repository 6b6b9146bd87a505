"""The naive baseline: every query computed directly from R.

This is the plan every speedup in the paper's Table 3 and Figures 9-14
is measured against, and the starting point of the GB-MQO search.  Like
every other execution path it runs through the physical layer: the
naive logical plan lowers to one Scan + grouping pipeline per query.
"""

from repro.engine.executor import execute_naive as run_naive

__all__ = ["run_naive"]
