//! # anu-harness — regenerating the paper's evaluation
//!
//! Everything needed to reproduce Figures 6–11 of the SC'03 evaluation:
//!
//! * [`experiment`] — workload + cluster + policies bundles, run in
//!   parallel with deterministic results;
//! * [`figures`] — one constructor per figure and the qualitative *shape
//!   checks* each figure makes (who wins, what converges, what
//!   oscillates);
//! * [`runner`] — the deterministic parallel sweep engine: the
//!   figure/seed grid as independent tasks, drained by a scoped-thread
//!   worker pool with byte-identical outputs at any `--jobs N`; the
//!   [`Sweep`] every grid of the `figures` run goes through; and the
//!   `BENCH_figures.json` run manifest;
//! * [`chaos`] — the fault-intensity sweep: the four-policy lineup under
//!   escalating deterministic fault scripts, with availability metrics
//!   and robustness checks;
//! * [`storm`] — the elasticity sweep: storm-shaped workloads (flash
//!   crowds, diurnal curves, popularity shifts, adversarial hot sets)
//!   with heavy-tailed demands and membership churn against the
//!   autoscaler + shed machinery, scored on Jain fairness and
//!   per-file-set p99;
//! * [`meanfield`] — the mean-field cross-validation sweep: the
//!   `anu-analytic` oracle's fixed-point predictions next to simulated
//!   per-server means across growing workload scales, with the
//!   shrinking-divergence gate;
//! * [`studies`] — the studies beyond the figures: ablations (average
//!   kind, threshold, γ, homogeneous balance, membership churn) and
//!   extensions (gossip tuning, delegate crashes, offered-load crossover,
//!   convergence, scale, closed-loop clients, rendezvous hashing), each
//!   claim a check;
//! * [`report`] — text tables, CSV emission, and verdict rendering.
//!
//! Binary: `figures` regenerates every figure's series and prints the
//! shape-check verdicts, and with `--chaos`, `--storm`, `--meanfield` and
//! `--studies` runs the other sweeps. Every workload it simulates is
//! regenerated from its config and seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiment;
pub mod figures;
pub mod meanfield;
pub mod report;
pub mod runner;
pub mod storm;
pub mod studies;

pub use chaos::{
    chaos_checks, chaos_experiment, chaos_name, chaos_sweep, write_chaos_summary_csv, CHAOS_LEVELS,
};
pub use experiment::{Experiment, PolicyKind, PrescientWindow};
pub use figures::{
    checks_for, fig10, fig11, fig6, fig7, fig8, fig9, figure, figure_scaled, figures_sweep,
    reduced, ShapeCheck, DEFAULT_SEED, FIGURE_NUMBERS, PLAIN_ANU_LABEL,
};
pub use meanfield::{
    meanfield_cell, meanfield_checks, meanfield_lens, meanfield_name, meanfield_rows,
    meanfield_sweep, meanfield_tuning, model_input, write_meanfield_cells_csv,
    write_meanfield_convergence_csv, ConvergenceRow, MeanfieldRow, MeasureWindow,
    MEANFIELD_DIVERGENCE_CEILING, MEANFIELD_REPLICAS, MEANFIELD_SCALES,
};
pub use report::{
    checks_table, csv_field, series_table, sparklines, summary_table, write_figure_csvs_tagged,
    write_metrics_csv, write_series_csv, write_tuner_epochs_csv,
};
pub use storm::{
    storm_checks, storm_cluster, storm_converge_experiment, storm_experiment, storm_name,
    storm_sweep, write_storm_summary_csv, StormCell, CONVERGE_JAIN_FLOOR, STORM_LEVELS,
};
pub use studies::studies_sweep;

pub use runner::{
    effective_jobs, group_results, manifest, measure_trace_overhead, plan, run_grid, Cell,
    Finished, Output, SimTask, Sweep, TaskOutcome, TraceOverhead, Verdict, MANIFEST_SCHEMA,
};
