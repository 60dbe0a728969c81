"""Progressive inspection (Section 5.2.3).

Streaming execution means affinity scores can be computed and updated
progressively, like online aggregation queries, so the user can stop
DeepBase after any block.  The per-block loop lives in the plan executor
itself (:meth:`repro.core.pipeline.InspectionPlan.execute_blocks`) — the
engine that serves one-shot ``inspect()`` calls and the Session API's
``.stream()`` is the same one that yields partial results here, so
progressive runs share caches, stores and schedulers with everything else
and the final update is bit-identical to a one-shot run.

:func:`inspect_progressive` keeps the seed generator surface: one
:class:`ProgressiveUpdate` list per processed block, carrying the current
scores, error estimates and convergence state.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.groups import UnitGroup, all_units_group
from repro.core.pipeline import InspectConfig, InspectionPlan
from repro.data.datasets import Dataset
from repro.extract.base import Extractor
from repro.extract.rnn import RnnActivationExtractor
from repro.measures.base import Measure, MeasureResult


@dataclass
class ProgressiveUpdate:
    """State of one (group, measure) pair after a processed block."""

    group: UnitGroup
    measure: Measure
    result: MeasureResult
    error: float
    records_processed: int
    converged: bool


def inspect_progressive(models, dataset: Dataset, scores, hypotheses,
                        unit_groups: list[UnitGroup] | None = None,
                        extractor: Extractor | None = None,
                        config: InspectConfig | None = None
                        ) -> Iterator[list[ProgressiveUpdate]]:
    """Yield per-block score updates; stops when all scores converge.

    Consume lazily and ``break`` at any point to stop the analysis early --
    no further extraction happens after the generator is abandoned (owned
    schedulers shut down and pending store commits flush on close).
    """
    if isinstance(scores, Measure):
        scores = [scores]
    if not isinstance(hypotheses, (list, tuple)):
        hypotheses = [hypotheses]
    extractor = extractor or RnnActivationExtractor()
    if unit_groups is None:
        if not isinstance(models, (list, tuple)):
            models = [models]
        unit_groups = [all_units_group(m, extractor) for m in models]
    config = config or InspectConfig(mode="streaming")

    plan = InspectionPlan.build(unit_groups, dataset, list(scores),
                                list(hypotheses), extractor, config)
    names = [h.name for h in plan.hypotheses]

    def update_of(task) -> ProgressiveUpdate:
        outcome = task.outcome(names)
        return ProgressiveUpdate(
            group=outcome.group, measure=outcome.measure,
            result=outcome.result, error=task.last_error,
            records_processed=outcome.records_processed,
            # converged reports the convergence *criterion*, independent
            # of whether early stopping acts on it (early_stop=False keeps
            # processing but still tells the caller the bound is met)
            converged=task.done or (task.measure.supports_early_stop
                                    and task.last_error <= task.threshold))

    steps = plan.execute_blocks()
    try:
        while True:
            # seed semantics: a task that finished on an earlier block
            # drops out of later update lists, and pays no further
            # snapshot cost — only tasks the block advanced build outcomes
            was_done = [task.done for task in plan.tasks]
            try:
                next(steps)
            except StopIteration:
                return
            yield [update_of(task) for task, done_before
                   in zip(plan.tasks, was_done) if not done_before]
    finally:
        # deterministic cleanup even when abandoned mid-stream (don't
        # lean on refcount GC): flush the store scope, stop owned pools
        steps.close()
