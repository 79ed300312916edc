"""Experiment harness reproducing Section 6 (figures 8-13, tables 2-3)."""

from repro.experiments.period import PeriodChoice, choose_period, run_all
from repro.experiments.runner import (
    InstanceRecord,
    FailureCounter,
    normalized_energy,
    normalized_inverse_energy,
)
from repro.experiments.streamit_experiments import (
    StreamItExperiment,
    run_streamit_experiment,
    CCR_SETTINGS,
)
from repro.experiments.random_experiments import (
    RandomExperiment,
    run_random_experiment,
    DEFAULT_ELEVATIONS,
)
from repro.experiments.parallel import pool_available, resolve_jobs, run_tasks
from repro.resilience import (
    ExecutionStats,
    FaultPlan,
    RetryPolicy,
    TaskError,
    TaskFailure,
)
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_scenarios,
    parse_shard,
    run_scenario_sweep,
    sweep_summary,
)
from repro.experiments.report import (
    REPORT_SCHEMA_VERSION,
    random_csv,
    random_markdown,
    report_json,
    streamit_csv,
    streamit_markdown,
    write_report,
)

__all__ = [
    "PeriodChoice",
    "choose_period",
    "run_all",
    "InstanceRecord",
    "FailureCounter",
    "normalized_energy",
    "normalized_inverse_energy",
    "StreamItExperiment",
    "run_streamit_experiment",
    "CCR_SETTINGS",
    "RandomExperiment",
    "run_random_experiment",
    "DEFAULT_ELEVATIONS",
    "random_csv",
    "random_markdown",
    "streamit_csv",
    "streamit_markdown",
    "resolve_jobs",
    "run_tasks",
    "pool_available",
    "RetryPolicy",
    "TaskFailure",
    "TaskError",
    "ExecutionStats",
    "FaultPlan",
    "ScenarioSpec",
    "build_scenarios",
    "parse_shard",
    "run_scenario_sweep",
    "sweep_summary",
    "REPORT_SCHEMA_VERSION",
    "report_json",
    "write_report",
]
