//! Prediction-driven cluster scheduling — the integration the paper leaves
//! as future work ("integrate PredictDDL with production-level cluster
//! schedulers", §VI) and motivates in its abstract ("allocating the
//! required cluster resources for completing critical model training tasks
//! before a deadline").
//!
//! One discrete-event [`engine`] runs 10⁵–10⁶ jobs with deadline SLOs,
//! seeded [`arrivals`] (Poisson/burst) and mid-run cost-model shifts under
//! four policies (FIFO, SJF-by-prediction, deadline-aware right-sizing,
//! autoscale-by-prediction). Jobs run for their *actual* (simulated
//! testbed) durations while the policies only ever see *predictions* from
//! a [`live::LivePredictor`], which folds every completed job back into an
//! online ridge model with Page–Hinkley drift detection — so estimator
//! error shows up as missed deadlines and idle servers, exactly as in
//! production. The predictor bootstraps on simulated measurements or on a
//! caller's table of predicted seconds (PredictDDL's, in
//! `pddl-experiments exp_sched_predictddl`). Every run is
//! bit-deterministic for a fixed seed.

pub mod arrivals;
pub mod engine;
pub mod live;

pub use arrivals::ArrivalProcess;
pub use engine::{
    run_engine, runtime_table, AccuracyBucket, AccuracySummary, ArrivalSpec, CostShift,
    DriftRecord, EngineConfig, EngineMetrics, EngineTrace, PolicyKind,
};
pub use live::LivePredictor;
