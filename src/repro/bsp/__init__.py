"""``repro.bsp`` — rounds and replication as a view over job stats.

Every MapReduce round is two BSP supersteps (local compute ->
h-relation communication -> barrier), so the rounds/replication cost
frontier the paper's independent-group designs trade along (Lemma 2 /
Figure 6; Afrati et al.'s replication-vs-reducer-input bound) is a
function of what each shuffle moved. Every engine measures that
exchange onto :class:`~repro.mapreduce.metrics.JobStats`; this package
folds it into a report.

Public surface:

* :class:`~repro.bsp.cost.CostReport` (``CostReport.from_jobs``) /
  :class:`~repro.bsp.cost.SuperstepCost` /
  :func:`~repro.bsp.cost.afrati_allpairs_bound` — the cost model.

The barrier-aware schedule is the ``barriers`` option of
:func:`repro.mapreduce.trace.schedule_spans` and
:func:`repro.mapreduce.trace.render_pipeline_gantt`.
"""

from repro.bsp.cost import CostReport, SuperstepCost, afrati_allpairs_bound

__all__ = [
    "CostReport",
    "SuperstepCost",
    "afrati_allpairs_bound",
]
