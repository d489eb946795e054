"""Declarative reproductions of every figure in the paper's evaluation.

The evaluation (Section 7) contains five figures and no result tables:

* Figure 7  — runtime vs dimensionality, independent data
* Figure 8  — runtime vs dimensionality, anti-correlated data
* Figure 9  — runtime vs cardinality (3-d and 8-d, both distributions)
* Figure 10 — runtime vs number of reducers (8-d, both distributions)
* Figure 11 — cost-model estimates vs measured partition comparisons

Each ``run_figureN`` executes the sweep on the simulated cluster and
returns a :class:`FigureReport` whose ``render()`` prints the same
rows/series the paper plots. ``scale`` shrinks the paper's cardinalities
(default 1/100) so a laptop finishes; the paper's DNF entries — and a
handful of budget DNFs for the slowest baseline cells — are skipped and
rendered as ``DNF`` (run with ``include_dnf=True`` to force them).

The paper ran on a 13-node cluster with one reducer per node for
MR-GPMRS (Section 7.1); the default cluster and ``num_reducers=13``
mirror that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    Cell,
    CellResult,
    Workload,
    run_cell,
    run_cells,
    scaled_cardinality,
)
from repro.bench.reporting import format_series
from repro.grid.cost import kappa_mapper, kappa_reducer
from repro.mapreduce.cluster import SimulatedCluster

#: Paper cardinalities (Section 7.1).
PAPER_CARD_LOW = 100_000
PAPER_CARD_HIGH = 2_000_000
PAPER_CARD_SWEEP = (100_000, 500_000, 1_000_000, 2_000_000, 3_000_000)
PAPER_CARD_COST = 1_000_000

#: Default downscaling of the paper's cardinalities.
DEFAULT_SCALE = 0.01

#: The four algorithms every runtime figure compares.
FIGURE_ALGORITHMS: Tuple[Tuple[str, dict], ...] = (
    ("mr-gpsrs", {}),
    ("mr-gpmrs", {"num_reducers": 13}),
    ("mr-bnl", {}),
    ("mr-angle", {}),
)

#: Grid algorithms that take a TPP (tuples-per-partition) target.
_GRID_ALGORITHMS = frozenset({"mr-gpsrs", "mr-gpmrs", "mr-hybrid"})


def auto_tpp(cardinality: int, dimensionality: int) -> int:
    """A TPP target that keeps the grid meaningful at bench scale.

    Equation 4 rounds (c/TPP)^(1/d) to the nearest integer; with the
    paper's cardinalities a TPP of ~512 yields n in [2, 6], but on
    laptop-scaled cardinalities it collapses to n = 1 (a single
    partition, which degenerates both GP algorithms). Cap TPP so at
    least a 2-per-dimension grid survives — the same effect the paper's
    adaptive heuristic achieves by measuring occupancy.
    """
    cap = max(4, cardinality // (2 ** dimensionality))
    return min(512, cap)


@dataclass
class Panel:
    """One sub-figure: an x-sweep with one series per algorithm."""

    title: str
    x_name: str
    x_values: List
    series: Dict[str, List[CellResult]] = field(default_factory=dict)

    def runtime_series(self) -> Dict[str, List[Optional[float]]]:
        return {
            name: [r.runtime_s for r in results]
            for name, results in self.series.items()
        }

    def render(self, values: Optional[Dict[str, List]] = None) -> str:
        return format_series(
            self.x_name,
            self.x_values,
            values or self.runtime_series(),
            title=self.title,
        )


@dataclass
class FigureReport:
    """All panels of one reproduced figure."""

    figure_id: str
    title: str
    panels: List[Panel]
    notes: str = ""

    def render(self) -> str:
        parts = [f"=== {self.figure_id}: {self.title} ==="]
        for panel in self.panels:
            parts.append(panel.render())
            parts.append("")
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_csv(self, path: str) -> None:
        """Dump every panel's runtime series as CSV (one block per
        panel, blank-line separated; DNF cells are empty)."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([self.figure_id, self.title])
            for panel in self.panels:
                writer.writerow([])
                series = panel.runtime_series()
                writer.writerow([panel.title])
                writer.writerow([panel.x_name] + list(series))
                for i, x in enumerate(panel.x_values):
                    row = [x]
                    for name in series:
                        value = series[name][i]
                        row.append("" if value is None else value)
                    writer.writerow(row)


def _paper_dnf(distribution: str, cardinality: int, d: int, algorithm: str) -> bool:
    """Cells the paper reported as non-terminating, plus budget skips.

    Paper: on anti-correlated data "MR-Angle and MR-BNL cannot terminate
    in a reasonable period of time for higher dimensionalities, and
    therefore they are excluded in Figures 8(b) and (d)" (d >= 7); the
    budget rule additionally skips MR-Angle's slowest anti-correlated
    cells (its single-reducer merge is 30-40x slower than MR-GPMRS
    there — see EXPERIMENTS.md).
    """
    if distribution != "anticorrelated":
        return False
    if algorithm in ("mr-bnl", "mr-angle") and d >= 7:
        return True
    if algorithm == "mr-angle" and d >= 6 and cardinality >= 15_000:
        return True
    return False


def _dimensionality_panel(
    title: str,
    distribution: str,
    cardinality: int,
    dims: Sequence[int],
    seed: int,
) -> Tuple[Panel, List[Cell]]:
    panel = Panel(title=title, x_name="dim", x_values=list(dims))
    cells: List[Cell] = []
    for name, options in FIGURE_ALGORITHMS:
        row = []
        for d in dims:
            workload = Workload(distribution, cardinality, d, seed=seed)
            extra = dict(options)
            if name in _GRID_ALGORITHMS:
                extra["tpp"] = auto_tpp(cardinality, d)
            row.append(
                Cell.make(
                    workload,
                    name,
                    dnf=_paper_dnf(distribution, cardinality, d, name),
                    **extra,
                )
            )
        panel.series[name] = row  # type: ignore[assignment]
        cells.extend(row)
    return panel, cells


def _execute_panels(
    panels_cells: List[Tuple[Panel, List[Cell]]],
    cluster: Optional[SimulatedCluster],
    engine,
    include_dnf: bool,
    verbose: bool,
) -> List[Panel]:
    panels = []
    for panel, _cells in panels_cells:
        for name, row in list(panel.series.items()):
            panel.series[name] = run_cells(
                row,
                cluster=cluster,
                engine=engine,
                include_dnf=include_dnf,
                verbose=verbose,
            )
        panels.append(panel)
    return panels


def _dimensionality_figure(
    figure_id: str,
    distribution: str,
    scale: float,
    quick: bool,
    cluster: Optional[SimulatedCluster],
    engine,
    include_dnf: bool,
    verbose: bool,
    seed: int,
) -> FigureReport:
    low = scaled_cardinality(PAPER_CARD_LOW, scale)
    high = scaled_cardinality(PAPER_CARD_HIGH, scale)
    low_dims = [2, 3, 4, 5, 6]
    high_dims = [7, 8, 9, 10]
    if quick:
        low_dims, high_dims = [2, 4, 6], [8]
    spec = [
        _dimensionality_panel(
            f"(a) dim {low_dims[0]}-{low_dims[-1]}, card {low}",
            distribution, low, low_dims, seed,
        ),
        _dimensionality_panel(
            f"(b) dim {high_dims[0]}-{high_dims[-1]}, card {low}",
            distribution, low, high_dims, seed,
        ),
        _dimensionality_panel(
            f"(c) dim {low_dims[0]}-{low_dims[-1]}, card {high}",
            distribution, high, low_dims, seed,
        ),
        _dimensionality_panel(
            f"(d) dim {high_dims[0]}-{high_dims[-1]}, card {high}",
            distribution, high, high_dims, seed,
        ),
    ]
    panels = _execute_panels(spec, cluster, engine, include_dnf, verbose)
    return FigureReport(
        figure_id=figure_id,
        title=f"Effect of dimensionality on {distribution} data "
        f"(runtime, simulated seconds)",
        panels=panels,
        notes=f"paper cardinalities {PAPER_CARD_LOW} and {PAPER_CARD_HIGH} "
        f"scaled by {scale}",
    )


def run_figure7(
    scale: float = DEFAULT_SCALE,
    quick: bool = False,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
    seed: int = 7,
) -> FigureReport:
    """Figure 7: runtime vs dimensionality, independent data."""
    return _dimensionality_figure(
        "Figure 7", "independent", scale, quick, cluster, engine,
        include_dnf, verbose, seed,
    )


def run_figure8(
    scale: float = DEFAULT_SCALE,
    quick: bool = False,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
    seed: int = 8,
) -> FigureReport:
    """Figure 8: runtime vs dimensionality, anti-correlated data."""
    return _dimensionality_figure(
        "Figure 8", "anticorrelated", scale, quick, cluster, engine,
        include_dnf, verbose, seed,
    )


def run_figure9(
    scale: float = DEFAULT_SCALE,
    quick: bool = False,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
    seed: int = 9,
) -> FigureReport:
    """Figure 9: runtime vs cardinality, 3-d and 8-d, both
    distributions."""
    cards = [scaled_cardinality(c, scale) for c in PAPER_CARD_SWEEP]
    if quick:
        cards = cards[::2]
    spec = []
    for dist in ("independent", "anticorrelated"):
        for d in (3, 8):
            panel = Panel(
                title=f"{d}-d {dist}", x_name="card", x_values=list(cards)
            )
            cells: List[Cell] = []
            for name, options in FIGURE_ALGORITHMS:
                row = []
                for c in cards:
                    workload = Workload(dist, c, d, seed=9)
                    extra = dict(options)
                    if name in _GRID_ALGORITHMS:
                        extra["tpp"] = auto_tpp(c, d)
                    row.append(
                        Cell.make(
                            workload,
                            name,
                            dnf=_paper_dnf(dist, c, d, name),
                            **extra,
                        )
                    )
                panel.series[name] = row  # type: ignore[assignment]
                cells.extend(row)
            spec.append((panel, cells))
    panels = _execute_panels(spec, cluster, engine, include_dnf, verbose)
    return FigureReport(
        figure_id="Figure 9",
        title="Effect of cardinality (runtime, simulated seconds)",
        panels=panels,
        notes=f"paper cardinalities {list(PAPER_CARD_SWEEP)} scaled by {scale}",
    )


def run_figure10(
    scale: float = DEFAULT_SCALE,
    quick: bool = False,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
    seed: int = 10,
) -> FigureReport:
    """Figure 10: runtime vs number of reducers in MR-GPMRS.

    1 reducer means MR-GPSRS, as in the paper ("vary the number of
    reducers from 1 (using MR-GPSRS) to 17").
    """
    card = scaled_cardinality(PAPER_CARD_HIGH, scale)
    reducer_counts = [1, 5, 9, 13, 17]
    if quick:
        reducer_counts = [1, 9, 17]
    spec = []
    for dist in ("independent", "anticorrelated"):
        panel = Panel(
            title=f"8-d {dist}, card {card}",
            x_name="reducers",
            x_values=list(reducer_counts),
        )
        workload = Workload(dist, card, 8, seed=seed)
        tpp = auto_tpp(card, 8)
        row = []
        for r in reducer_counts:
            if r == 1:
                row.append(Cell.make(workload, "mr-gpsrs", tpp=tpp))
            else:
                row.append(
                    Cell.make(workload, "mr-gpmrs", num_reducers=r, tpp=tpp)
                )
        panel.series["mr-gpmrs"] = row  # type: ignore[assignment]
        spec.append((panel, row))
    panels = _execute_panels(spec, cluster, engine, include_dnf, verbose)
    return FigureReport(
        figure_id="Figure 10",
        title="Effect of the number of reducers in MR-GPMRS "
        "(runtime, simulated seconds)",
        panels=panels,
        notes="x=1 runs MR-GPSRS, as in the paper",
    )


def run_figure11(
    scale: float = DEFAULT_SCALE,
    quick: bool = False,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
    seed: int = 11,
) -> FigureReport:
    """Figure 11: Section 6 cost estimates vs measured partition-wise
    comparisons, for the busiest mapper (a) and reducer (b)."""
    card = scaled_cardinality(PAPER_CARD_COST, scale)
    dims = [2, 3, 4, 5, 6, 7, 8, 9, 10]
    if quick:
        dims = [2, 4, 6, 8]
    mapper_panel = Panel(
        title="(a) Mappers: measured vs estimate",
        x_name="dim",
        x_values=list(dims),
    )
    reducer_panel = Panel(
        title="(b) Reducers: measured vs estimate",
        x_name="dim",
        x_values=list(dims),
    )
    mapper_values: Dict[str, List] = {}
    reducer_values: Dict[str, List] = {}
    for dist in ("independent", "anticorrelated"):
        cells = [
            Cell.make(
                Workload(dist, card, d, seed=seed),
                "mr-gpmrs",
                num_reducers=13,
                tpp=auto_tpp(card, d),
            )
            for d in dims
        ]
        results = run_cells(
            cells, cluster=cluster, engine=engine, verbose=verbose
        )
        mapper_values[f"measured({dist})"] = [
            r.max_mapper_compares for r in results
        ]
        reducer_values[f"measured({dist})"] = [
            r.max_reducer_compares for r in results
        ]
        estimates_map, estimates_red = [], []
        for r in results:
            n = r.artifacts["grid"].n
            d = r.cell.workload.dimensionality
            estimates_map.append(kappa_mapper(n, d))
            estimates_red.append(kappa_reducer(n, d))
        mapper_values[f"estimate({dist})"] = estimates_map
        reducer_values[f"estimate({dist})"] = estimates_red
        mapper_panel.series[dist] = results
        reducer_panel.series[dist] = results
    mapper_panel.render = lambda values=None, p=mapper_panel, v=mapper_values: (
        format_series(p.x_name, p.x_values, values or v, title=p.title)
    )
    reducer_panel.render = lambda values=None, p=reducer_panel, v=reducer_values: (
        format_series(p.x_name, p.x_values, values or v, title=p.title)
    )
    return FigureReport(
        figure_id="Figure 11",
        title="Cost estimation: partition-wise comparisons "
        "(measured max-task vs Section 6 estimates)",
        panels=[mapper_panel, reducer_panel],
        notes="estimates are worst-case upper bounds (paper Section 6 "
        "assumptions); expect measured <= estimate, tight for the "
        "independent mappers",
    )


# -- ablations (design choices DESIGN.md calls out) -----------------------


def run_ablation_merging(
    scale: float = DEFAULT_SCALE,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    verbose: bool = False,
) -> FigureReport:
    """Section 5.4.1: computation-cost vs communication-cost vs the
    Section-8 balanced group merging.

    Merging only engages when there are more independent groups than
    reducers, so this ablation uses a fine 3-d grid (ppd=8 yields
    dozens of surface groups) with few reducers. The paper's
    preliminary tests preferred computation-cost merging; the
    'balanced' strategy is our implementation of the paper's stated
    future work."""
    card = scaled_cardinality(PAPER_CARD_HIGH, scale)
    strategies = ["computation", "communication", "balanced"]
    panel = Panel(
        title=f"3-d anticorrelated, card {card}, ppd 8, 4 reducers",
        x_name="strategy",
        x_values=strategies,
    )
    workload = Workload("anticorrelated", card, 3, seed=54)
    cells = [
        Cell.make(
            workload, "mr-gpmrs", num_reducers=4, merge_strategy=s, ppd=8
        )
        for s in strategies
    ]
    results = run_cells(cells, cluster=cluster, engine=engine, verbose=verbose)
    panel.series["mr-gpmrs"] = results
    values = {
        "runtime_s": [r.runtime_s for r in results],
        "shuffle_MB": [r.shuffle_bytes / 1e6 for r in results],
        "groups": [len(r.artifacts["independent_groups"]) for r in results],
    }
    panel.render = lambda v=None, p=panel, vals=values: format_series(
        p.x_name, p.x_values, v or vals, title=p.title
    )
    return FigureReport(
        figure_id="Ablation: merging",
        title="Independent-group merging strategy (Section 5.4.1 + "
        "Section 8 'balanced')",
        panels=[panel],
    )


def run_ablation_ppd(
    scale: float = DEFAULT_SCALE,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    verbose: bool = False,
) -> FigureReport:
    """Section 3.3: PPD selection strategies."""
    card = scaled_cardinality(PAPER_CARD_LOW, scale * 10)
    strategies = ["equation4", "adaptive-target", "adaptive-literal"]
    panels = []
    for dist in ("independent", "anticorrelated"):
        for d in (3, 8):
            panel = Panel(
                title=f"{d}-d {dist}, card {card}",
                x_name="strategy",
                x_values=strategies,
            )
            workload = Workload(dist, card, d, seed=33)
            cells = [
                Cell.make(workload, "mr-gpmrs", num_reducers=13, ppd_strategy=s)
                for s in strategies
            ]
            results = run_cells(
                cells, cluster=cluster, engine=engine, verbose=verbose
            )
            panel.series["mr-gpmrs"] = results
            values = {
                "runtime_s": [r.runtime_s for r in results],
                "chosen_n": [r.artifacts["grid"].n for r in results],
            }
            panel.render = lambda v=None, p=panel, vals=values: format_series(
                p.x_name, p.x_values, v or vals, title=p.title
            )
            panels.append(panel)
    return FigureReport(
        figure_id="Ablation: PPD",
        title="Partitions-per-dimension selection (Section 3.3)",
        panels=panels,
    )


def run_ablation_pruning(
    scale: float = DEFAULT_SCALE,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    verbose: bool = False,
) -> FigureReport:
    """Equation 2 vs Equation 1: value of bitstring dominance pruning."""
    card = scaled_cardinality(PAPER_CARD_HIGH, scale)
    panels = []
    for dist in ("independent", "anticorrelated"):
        # A fine low-d grid: Equation 2 prunes (n-1)^d of n^d cells, so
        # pruning bites hardest where n is large (ppd 8 at 3-d prunes
        # two-thirds of the occupied cells on uniform data).
        panel = Panel(
            title=f"3-d {dist}, card {card}, ppd 8",
            x_name="pruning",
            x_values=["on", "off"],
        )
        workload = Workload(dist, card, 3, seed=44)
        cells = [
            Cell.make(workload, "mr-gpsrs", prune_bitstring=flag, ppd=8)
            for flag in (True, False)
        ]
        results = run_cells(
            cells, cluster=cluster, engine=engine, verbose=verbose
        )
        panel.series["mr-gpsrs"] = results
        values = {
            "runtime_s": [r.runtime_s for r in results],
            "shuffle_MB": [r.shuffle_bytes / 1e6 for r in results],
        }
        panel.render = lambda v=None, p=panel, vals=values: format_series(
            p.x_name, p.x_values, v or vals, title=p.title
        )
        panels.append(panel)
    return FigureReport(
        figure_id="Ablation: pruning",
        title="Bitstring dominance pruning (Eq. 2) on vs off (Eq. 1)",
        panels=panels,
    )


def run_ablation_local(
    scale: float = DEFAULT_SCALE,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    verbose: bool = False,
) -> FigureReport:
    """Section 8 future work: effect of the local skyline algorithm
    (BNL vs presorted SFS) inside the Zhang-style baselines."""
    card = scaled_cardinality(PAPER_CARD_HIGH, scale)
    panels = []
    for dist in ("independent", "anticorrelated"):
        panel = Panel(
            title=f"6-d {dist}, card {card}",
            x_name="local",
            x_values=["bnl", "sfs"],
        )
        workload = Workload(dist, card, 6, seed=55)
        cells = [
            Cell.make(workload, "mr-bnl"),
            Cell.make(workload, "mr-sfs"),
        ]
        results = run_cells(
            cells, cluster=cluster, engine=engine, verbose=verbose
        )
        panel.series["baseline"] = results
        panels.append(panel)
    return FigureReport(
        figure_id="Ablation: local skyline",
        title="Local skyline algorithm inside MR-BNL/MR-SFS",
        panels=panels,
    )


def run_cost_frontier(
    scale: float = DEFAULT_SCALE,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    verbose: bool = False,
) -> FigureReport:
    """Rounds/replication cost frontier (Lemma 2 / Figure 6).

    Sweeps the reducer count of MR-GPMRS and reads each run's
    :class:`~repro.bsp.cost.CostReport`: shrinking the
    max-reducer-input budget ``q`` buys parallelism at the price of a
    higher replication rate ``r``, the trade-off Afrati et al. bound
    by ``r >= n/q`` for all-pairs problems. The skyline's independent
    groups sit *below* that curve — the bound column is a reference
    line, not a target. The report is folded from each run's job
    stats, so every engine measures the same frontier.
    """
    from repro.bsp import afrati_allpairs_bound

    card = scaled_cardinality(PAPER_CARD_LOW, scale * 4)
    d = 4
    reducers = [1, 2, 4, 8, 13]
    panels = []
    for dist in ("independent", "anticorrelated"):
        panel = Panel(
            title=f"{d}-d {dist}, card {card}",
            x_name="reducers",
            x_values=list(reducers),
        )
        workload = Workload(dist, card, d, seed=7)
        results: List[CellResult] = []
        replication: List[float] = []
        max_q: List[int] = []
        bound: List[float] = []
        for nr in reducers:
            cell = Cell.make(
                workload,
                "mr-gpmrs",
                num_reducers=nr,
                tpp=auto_tpp(card, d),
            )
            result = run_cell(cell, cluster=cluster, engine=engine)
            cost = result.cost
            results.append(result)
            replication.append(round(cost.replication_rate, 4))
            max_q.append(cost.max_reducer_input_records)
            bound.append(
                round(
                    afrati_allpairs_bound(
                        cost.source_records, cost.max_reducer_input_records
                    ),
                    4,
                )
            )
            if verbose:
                print(
                    f"  {workload.label():34s} reducers={nr:<3d} "
                    f"q={max_q[-1]:<6d} r={replication[-1]:.4f}"
                )
        panel.series["mr-gpmrs"] = results
        values = {
            "runtime_s": [r.runtime_s for r in results],
            "replication_r": replication,
            "max_reducer_q": max_q,
            "allpairs_bound": bound,
        }
        panel.render = lambda v=None, p=panel, vals=values: format_series(
            p.x_name, p.x_values, v or vals, title=p.title
        )
        panels.append(panel)
    return FigureReport(
        figure_id="Cost frontier",
        title="Replication rate vs reducer-input budget (BSP cost view)",
        panels=panels,
        notes=(
            "allpairs_bound is Afrati's r >= n/q reference curve; the "
            "grid's independent groups stay below it. See "
            "docs/paper_mapping.md, 'Rounds & replication'."
        ),
    )


#: Experiment id -> runner, for the CLI.
EXPERIMENTS: Dict[str, Callable[..., FigureReport]] = {
    "fig7": run_figure7,
    "fig8": run_figure8,
    "fig9": run_figure9,
    "fig10": run_figure10,
    "fig11": run_figure11,
    "ablation-merging": run_ablation_merging,
    "ablation-ppd": run_ablation_ppd,
    "ablation-pruning": run_ablation_pruning,
    "ablation-local": run_ablation_local,
    "cost-frontier": run_cost_frontier,
}
