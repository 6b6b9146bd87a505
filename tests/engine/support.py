"""Test helpers that put small parallel plans on dependency waves.

Below the cost model's parallel floors the lowering picks the serial
schedule, so a "parallel" run over a small test table would compare
serial with serial.  :class:`WavesModel` keeps every other decision of
the engine cost model and always picks waves.
"""

from dataclasses import replace

from repro.costmodel.engine_model import EngineCostModel
from repro.engine.executor import PlanExecutor


class WavesModel(EngineCostModel):
    """The engine cost model, except that every plan runs on waves."""

    def execution_mode_choice(self, n_groupings, parallelism):
        choice = super().execution_mode_choice(n_groupings, parallelism)
        return replace(choice, mode="morsel")


def wave_executor(catalog, base_table, estimator, parallelism, **kwargs):
    """A parallel executor whose lowering puts any plan on waves."""
    model = WavesModel(estimator, catalog=catalog, base_table=base_table)
    return PlanExecutor(
        catalog,
        base_table,
        parallelism=parallelism,
        estimator=estimator,
        model=model,
        **kwargs,
    )
