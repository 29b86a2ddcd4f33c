"""The benchmark's workloads: a synthetic bundle plus the CLI commands run on it.

Each workload is built so that a different layer dominates, so an
optimisation to one layer shows on one workload and predicts no change on
another. Sizes are scaled down from the full-size runs (60, 30 and 200
counties) so that one session takes a few seconds and a timed run holds
several sessions to take a median over.
"""

from dataclasses import dataclass

YEARS_5 = (2018, 2019, 2020, 2021, 2022)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthSpec keyword arguments
    commands: tuple[str, ...]  # CLI commands of one session, in order
    settings: tuple[str, ...]  # key=value overrides shared by every command
    width: int  # feature-set column contract
    score_metric: str  # aggregate report metric reported as ``score``
    score_floor: float  # score must reach ceiling - floor
    n_folds: int  # folds per repeat in the report


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="yield-rs-rf",
            why="paper headline task: deep RF regression growing dominates, "
                "then hourly GDD in featurize",
            synth=dict(n_counties=20, fields_per_county=1, years=YEARS_5,
                       label_r2_ceiling=0.9),
            commands=("benchmark",),
            settings=("task.name=yield", "task.crop=corn", "task.feature_set=RS",
                      "model.kind=RF", "model.n_trees=30", "scheme=group_cv",
                      "scheme.k=5", "n_repeats=1"),
            width=90,
            score_metric="R2",
            score_floor=0.15,
            n_folds=5,
        ),
        Workload(
            name="covercrop-rs-rfc",
            why="no GDD; fitted-curve monthly extrema and the climate month "
                "rescan dominate featurize; sqrt RF classification; dropout",
            synth=dict(n_counties=10, fields_per_county=4, years=(2019, 2020, 2021),
                       tasks=("covercrop_class",), dropout=0.1, sigma_obs=0.01),
            commands=("benchmark",),
            settings=("task.name=covercrop_class", "task.feature_set=RS",
                      "model.kind=RF", "model.n_trees=50", "scheme=group_cv",
                      "scheme.k=5", "n_repeats=1"),
            width=144,
            score_metric="F1_weighted",
            score_floor=0.3,
            n_folds=5,
        ),
        Workload(
            name="cli-aef-gbt",
            why="three CLI commands each reload the bundle, so CSV load "
                "dominates; AEF featurize is trivial; shallow GBT",
            synth=dict(n_counties=40, years=(2018, 2019, 2020, 2021),
                       region_offset=2.0),
            commands=("featurize", "train", "benchmark"),
            settings=("task.name=yield", "task.crop=corn", "task.feature_set=AEF",
                      "model.kind=GBT", "model.n_trees=100", "model.max_depth=3",
                      "scheme=yearly_cv", "n_repeats=1"),
            width=64,
            score_metric="R2",
            score_floor=0.5,
            n_folds=4,
        ),
    )
}
