"""Seeded inputs and the SQL statements every workload issues.

Everything the program under test receives is built here from one seed:
the ``generate_sql_workload`` dataset (657 window records, so the default
512-record blocks split every query into two blocks), eight training
snapshots of a 32-unit ``CharLSTMModel`` and the full grammar + keyword
hypothesis library (72 hypotheses).  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

N_RECORDS = 657
N_QUERIES = 60          # sampled SQL strings; enough for N_RECORDS windows
N_SNAPSHOTS = 8
N_UNITS = 32
WINDOW = 30
STRIDE = 5

#: the Fig. 14 epoch sweep, exactly as analysts type it
SWEEP_SQL = """
    SELECT M.epoch, S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    GROUP BY M.epoch
"""

_SCORE_ITEMS = ("M.epoch AS epoch, S.uid AS uid, S.hid AS hid, "
                "S.unit_score AS unit_score")
#: the keyword library only, so one write + read pair stays near a second
_SWEEP_BODY = """
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND H.name = 'keyword'
    GROUP BY M.epoch
"""
#: store_roundtrip: the sweep persisted into the paged catalog ...
STORE_WRITE_SQL = f"SELECT {_SCORE_ITEMS} INTO scores {_SWEEP_BODY}"
#: ... answered again from the disk tier ...
STORE_SWEEP_SQL = f"SELECT {_SCORE_ITEMS} {_SWEEP_BODY}"
#: ... and probed through the B+-tree on ``unit_score``
STORE_TOPK_SQL = ("SELECT epoch, uid, hid, unit_score FROM scores "
                  "WHERE unit_score > 0.2 ORDER BY unit_score DESC LIMIT 25")


def topk_epoch_sql(epoch: int) -> str:
    """Refinement: the strongest units of one snapshot."""
    return f"""
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND M.epoch = {epoch}
    ORDER BY S.unit_score DESC LIMIT 10
"""


HAVING_SQL = """
    SELECT M.epoch, S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND M.epoch >= 6
    GROUP BY M.epoch
    HAVING S.unit_score > 0.3
"""

KEYWORD_SQL = """
    SELECT M.epoch, S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND H.name = 'keyword'
    GROUP BY M.epoch
"""

LOGREG_SQL = f"""
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING logreg OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND M.epoch = {N_SNAPSHOTS - 1}
      AND H.name = 'keyword'
"""

JACCARD_SQL = f"""
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING jaccard OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND M.epoch = {N_SNAPSHOTS - 1}
"""

MODELS_SQL = "SELECT mid, epoch FROM models ORDER BY epoch"
HYPS_SQL = "SELECT h, name FROM hypotheses WHERE name = 'keyword'"


@dataclass
class Inputs:
    """The generated objects the program receives."""

    seed: int
    dataset: object
    snapshots: list          # [(epoch, model)] in epoch order
    grammar_hyps: list
    keyword_hyps: list

    @property
    def hypotheses(self) -> list:
        return self.grammar_hyps + self.keyword_hyps


def generate(seed: int) -> Inputs:
    """Build every input from ``seed`` (deterministic)."""
    from repro.data import generate_sql_workload
    from repro.hypotheses import grammar_hypotheses
    from repro.hypotheses.library import sql_keyword_hypotheses
    from repro.nn import CharLSTMModel, TrainConfig, train_model
    from repro.nn.serialize import clone_model
    from repro.util.rng import new_rng

    workload = generate_sql_workload(
        "default", n_queries=N_QUERIES, window=WINDOW, stride=STRIDE,
        max_records=N_RECORDS, seed=seed)
    if workload.dataset.n_records != N_RECORDS:
        raise RuntimeError(
            f"seed {seed} produced {workload.dataset.n_records} records, "
            f"expected {N_RECORDS}")
    grammar = grammar_hypotheses(workload.grammar, workload.queries,
                                 workload.trees, mode="derivation")
    keywords = sql_keyword_hypotheses()
    model = CharLSTMModel(len(workload.vocab), N_UNITS, rng=new_rng(seed),
                          model_id="sweep")
    snapshots: list = []

    def capture(epoch, trained):
        snap = clone_model(trained)
        snap.model_id = f"sweep_e{epoch}"
        snapshots.append((epoch, snap))

    train_model(model, workload.dataset.symbols, workload.targets,
                TrainConfig(epochs=N_SNAPSHOTS, lr=3e-3, patience=99,
                            seed=seed),
                snapshot_hook=capture)
    return Inputs(seed=seed, dataset=workload.dataset, snapshots=snapshots,
                  grammar_hyps=grammar, keyword_hyps=keywords)


def register(session, inputs: Inputs, wrap=None) -> list:
    """Register snapshots, dataset and hypotheses with ``session``.

    ``wrap`` (e.g. ``CountingForwardModel``) wraps each snapshot before
    registration; the registered objects are returned in epoch order.
    """
    registered = []
    for epoch, model in inputs.snapshots:
        obj = wrap(model) if wrap is not None else model
        session.register_model(model.model_id, obj, epoch=epoch)
        registered.append(obj)
    session.register_dataset("d0", inputs.dataset)
    session.register_hypotheses(inputs.grammar_hyps, name="grammar")
    session.register_hypotheses(inputs.keyword_hyps, name="keyword")
    return registered
