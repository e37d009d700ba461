"""§V.D recovery-effectiveness analysis.

The paper evaluates the emergency-brake RecoveryPlanner by asking: when
the monitor fired and recovery braked, did it prevent a collision that
would otherwise have occurred?  Our simulator makes the counterfactual
exact instead of "manual inspection of near-miss scenarios": every seeded
run is replayed with recovery disabled, and the four cells of the
(recovery on x collision) table follow.

Run as a script::

    python -m repro.experiments.recovery [--seeds N] [--jobs N] \
        [--journal PATH] [--resume]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..analysis.stats import Rate
from ..analysis.tables import render_table
from ..exec import CampaignEngine, EnginePolicy
from ..sim.scenario import ScenarioType
from .campaign import (
    DEFAULT_SEEDS,
    CampaignOptions,
    RunOutcome,
    _decode_outcome,
    _encode_outcome,
    campaign_unit,
    execute_campaign_unit,
    positive_int,
)
from .table2 import SCENARIO_ORDER, _SCENARIO_LABELS


@dataclass(frozen=True)
class CounterfactualPair:
    """One seed's outcome with and without the RecoveryPlanner."""

    scenario: ScenarioType
    seed: int
    with_recovery: RunOutcome
    without_recovery: RunOutcome

    @property
    def recovery_engaged(self) -> bool:
        return self.with_recovery.recovery_activations > 0

    @property
    def prevented(self) -> bool:
        """Recovery engaged, no collision — and the ablation collided."""
        return (
            self.recovery_engaged
            and not self.with_recovery.collision
            and self.without_recovery.collision
        )

    @property
    def failed(self) -> bool:
        """Recovery engaged but the collision happened anyway (§V.D's
        'developed too rapidly for braking alone')."""
        return self.recovery_engaged and self.with_recovery.collision


def measure(
    scenarios: Sequence[ScenarioType] = SCENARIO_ORDER,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    *,
    jobs: int = 1,
    journal: "str | Path | None" = None,
    resume: bool = False,
    trace: "str | Path | None" = None,
) -> List[CounterfactualPair]:
    """Run every (scenario, seed) twice: with and without recovery.

    Both passes go through one engine campaign: 2 x scenarios x seeds
    work units, interleaved (with, without) so the pairs re-assemble by
    position whatever order the pool finishes them in.  ``trace`` records
    both passes into one campaign trace directory.
    """
    base = options or CampaignOptions()
    variants = tuple(
        CampaignOptions(
            use_recovery=use_recovery,
            planner=base.planner,
            surrogate_config=base.surrogate_config,
            monitor_horizon_s=base.monitor_horizon_s,
        )
        for use_recovery in (True, False)
    )
    units = [
        campaign_unit(scenario, seed, variant, trace_dir=trace)
        for scenario in scenarios
        for seed in seeds
        for variant in variants
    ]
    engine = CampaignEngine(
        execute_campaign_unit,
        EnginePolicy(jobs=jobs),
        encode=_encode_outcome,
        decode=_decode_outcome,
        journal=journal,
        resume=resume,
        trace=trace,
    )
    outcomes = engine.run(units).raise_on_error().results()
    pairs: List[CounterfactualPair] = []
    cursor = 0
    for scenario in scenarios:
        for seed in seeds:
            with_rec, without_rec = outcomes[cursor], outcomes[cursor + 1]
            cursor += 2
            pairs.append(CounterfactualPair(scenario, seed, with_rec, without_rec))
    return pairs


def generate(
    scenarios: Sequence[ScenarioType] = SCENARIO_ORDER,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    pairs: Optional[List[CounterfactualPair]] = None,
    *,
    jobs: int = 1,
    journal: "str | Path | None" = None,
    resume: bool = False,
    trace: "str | Path | None" = None,
) -> str:
    """Render the recovery-effectiveness tables."""
    if pairs is None:
        pairs = measure(
            scenarios,
            seeds,
            options,
            jobs=jobs,
            journal=journal,
            resume=resume,
            trace=trace,
        )

    per_scenario: Dict[ScenarioType, List[CounterfactualPair]] = {}
    for pair in pairs:
        per_scenario.setdefault(pair.scenario, []).append(pair)

    rows: List[List[str]] = []
    for scenario in scenarios:
        group = per_scenario.get(scenario, [])
        if not group:
            continue
        n = len(group)
        engaged = [p for p in group if p.recovery_engaged]
        rows.append(
            [
                _SCENARIO_LABELS[scenario],
                str(Rate(len(engaged), n)),
                str(Rate(sum(1 for p in group if p.with_recovery.collision), n)),
                str(Rate(sum(1 for p in group if p.without_recovery.collision), n)),
                str(Rate(sum(1 for p in group if p.prevented), max(len(engaged), 1))),
            ]
        )

    engaged_all = [p for p in pairs if p.recovery_engaged]
    prevented = sum(1 for p in pairs if p.prevented)
    failed = sum(1 for p in pairs if p.failed)
    summary = [
        ["runs with recovery engaged", str(len(engaged_all))],
        ["collisions prevented (counterfactual)", str(prevented)],
        ["collisions despite recovery", str(failed)],
        [
            "prevention rate among engaged runs",
            str(Rate(prevented, len(engaged_all))) if engaged_all else "n/a",
        ],
    ]
    return (
        render_table(
            headers=[
                "Scenario",
                "Recovery engaged",
                "Collisions (with)",
                "Collisions (without)",
                "Prevented / engaged",
            ],
            rows=rows,
            title="Recovery effectiveness (paper SS V.D), exact counterfactuals",
        )
        + "\n\n"
        + render_table(headers=["Summary", "Value"], rows=summary)
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=15)
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--journal", type=Path, default=None)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="record schema-v1 run + engine traces into DIR",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="repro.* logger level (stderr)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    from ..obs import configure_logging

    configure_logging(args.log_level)
    print(
        generate(
            seeds=tuple(range(args.seeds)),
            jobs=args.jobs,
            journal=args.journal,
            resume=args.resume,
            trace=args.trace,
        )
    )


if __name__ == "__main__":
    main()
