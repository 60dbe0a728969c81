"""Tests for progressive inspection and ablation verification."""

import numpy as np
import pytest

from repro import InspectConfig, InspectionPlan, Session, all_units_group
from repro.extract import RnnActivationExtractor
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore
from repro.util.rng import new_rng
from repro.verify.ablation import ablate_units


def build_plan(model, dataset, measure, hyps, config) -> InspectionPlan:
    extractor = RnnActivationExtractor()
    return InspectionPlan.build([all_units_group(model, extractor)],
                                dataset, [measure], hyps, extractor, config)


class TestProgressive:
    """Progressive runs on the plan executor's per-block generator."""

    def test_yields_once_per_block(self, trained_sql_model, sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=50,
                               early_stop=False, max_records=150)
        plan = build_plan(trained_sql_model, sql_workload.dataset,
                          CorrelationScore(), hyps, config)
        assert len(list(plan.execute_blocks())) == 3  # 150 / 50 per block
        assert plan.tasks[0].records_processed == 150

    def test_error_decreases_across_blocks(self, trained_sql_model,
                                           sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        config = InspectConfig(mode="streaming", block_size=40,
                               early_stop=False, max_records=160)
        plan = build_plan(trained_sql_model, sql_workload.dataset,
                          CorrelationScore(), hyps, config)
        errors = [plan.tasks[0].last_error for _ in plan.execute_blocks()]
        assert errors[-1] < errors[0]

    def test_stops_on_convergence(self, trained_sql_model, sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=40,
                               early_stop=True, error_threshold=0.2)
        plan = build_plan(trained_sql_model, sql_workload.dataset,
                          CorrelationScore(), hyps, config)
        for _ in plan.execute_blocks():
            pass
        task = plan.tasks[0]
        assert task.done
        assert task.records_processed < sql_workload.dataset.n_records

    def test_early_break_is_clean(self, trained_sql_model, sql_workload):
        """Abandoning the stream mid-run must be safe."""
        hyps = sql_keyword_hypotheses(("SELECT",))
        with Session() as session:
            stream = (session.inspect(trained_sql_model,
                                      sql_workload.dataset)
                      .using(CorrelationScore()).hypotheses(hyps)
                      .with_config(mode="streaming", block_size=30,
                                   early_stop=False)
                      .stream())
            first = next(stream)
            stream.close()
            assert session.stats()["queries"]["streams_abandoned"] == 1
        assert first.records_processed == 30
        assert np.isfinite(first.column("val", dtype=float)).all()

    def test_final_scores_match_batch_inspection(self, trained_sql_model,
                                                 sql_workload):
        from repro import inspect
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=64,
                               early_stop=False, seed=3)
        plan = build_plan(trained_sql_model, sql_workload.dataset,
                          CorrelationScore(), hyps, config)
        for _ in plan.execute_blocks():
            pass
        batch_cfg = InspectConfig(mode="streaming", block_size=64,
                                  early_stop=False, seed=3)
        out = inspect([trained_sql_model], sql_workload.dataset,
                      [CorrelationScore()], hyps, config=batch_cfg,
                      as_frame=False)
        assert np.allclose(plan.outcomes()[0].result.unit_scores,
                           out[0].result.unit_scores, atol=1e-12)


class TestAblation:
    def test_report_fields(self, specialized_parens_model, parens_workload):
        report = ablate_units(specialized_parens_model,
                              parens_workload.dataset.symbols[:200],
                              parens_workload.targets[:200],
                              unit_ids=[0, 1, 2, 3], rng=new_rng(1))
        assert 0.0 <= report.base_accuracy <= 1.0
        assert len(report.random_accuracies) == 5
        assert report.drop == pytest.approx(
            report.base_accuracy - report.ablated_accuracy)

    def test_ablating_nothing_changes_nothing(self, trained_sql_model,
                                              sql_workload):
        ids = sql_workload.dataset.symbols[:100]
        targets = sql_workload.targets[:100]
        report = ablate_units(trained_sql_model, ids, targets,
                              unit_ids=np.array([], dtype=int),
                              n_random_controls=1, rng=new_rng(2))
        assert report.ablated_accuracy == pytest.approx(
            report.base_accuracy)

    def test_ablating_all_units_makes_predictions_constant(
            self, trained_sql_model, sql_workload):
        ids = sql_workload.dataset.symbols[:100]
        states = trained_sql_model.hidden_states(ids)
        masked = np.zeros_like(states)
        logits = trained_sql_model.head.forward(masked[:, -1])
        preds = logits.argmax(axis=-1)
        assert np.unique(preds).shape[0] == 1  # only the bias speaks

    def test_random_controls_use_other_units(self, trained_sql_model,
                                             sql_workload):
        # with half the units ablated, controls must come from the rest:
        # ensure the call does not crash and produces distinct accuracies
        ids = sql_workload.dataset.symbols[:60]
        targets = sql_workload.targets[:60]
        half = np.arange(trained_sql_model.n_units // 2)
        report = ablate_units(trained_sql_model, ids, targets, half,
                              n_random_controls=3, rng=new_rng(4))
        assert len(report.random_accuracies) == 3

    def test_more_important_than_random_threshold(self):
        from repro.verify.ablation import AblationReport
        report = AblationReport(base_accuracy=0.8, ablated_accuracy=0.4,
                                random_accuracies=[0.75, 0.78])
        assert report.more_important_than_random()
        assert not report.more_important_than_random(margin=0.5)
