//! The experiment runner behind `pddl-experiments`: every figure of the
//! paper's evaluation (Section IV), the two scheduling experiments and one
//! diagnostic are each a function in [`figures`] that returns its
//! [`Table`]s. They share one lazily built [`Context`] — one trace, one
//! 80/20 split, one trained system — so the default GHN is meta-trained
//! once per dataset (§III-G) however many figures read it.

pub mod figures;
pub mod table;

pub use figures::FIGURES;
pub use table::{Cell, Table};

use pddl_cluster::ServerClass;
use pddl_ddlsim::{generate_trace, TraceConfig, TraceRecord};
use pddl_regress::split::train_test_split;
use pddl_regress::{Regressor, StandardScaler};
use pddl_tensor::Matrix;
use predictddl::registry::GhnRegistry;
use predictddl::{OfflineTrainer, PredictDdl};
use std::cell::OnceCell;

/// The seed of the shared split and system (Fig. 9's, so the headline
/// keeps its digits).
pub const SEED: u64 = 0x916;

/// Table II of the paper: the eleven evaluation workloads.
/// (`MobileNet-V3` → the large variant; `SqueezeNet-1` → 1_0.)
pub fn table2_workloads() -> Vec<(&'static str, &'static str)> {
    vec![
        ("efficientnet_b0", "cifar10"),
        ("resnext50_32x4d", "cifar10"),
        ("vgg16", "cifar10"),
        ("alexnet", "cifar10"),
        ("resnet18", "cifar10"),
        ("densenet161", "cifar10"),
        ("mobilenet_v3_large", "cifar10"),
        ("squeezenet1_0", "cifar10"),
        ("alexnet", "tiny-imagenet"),
        ("resnet18", "tiny-imagenet"),
        ("squeezenet1_0", "tiny-imagenet"),
    ]
}

/// The standard experiment corpus: the full 31-model × {CIFAR-10 on GPUs,
/// Tiny-ImageNet on CPUs} × 1–20 servers trace (paper §IV-A2's 2,000-point
/// collection).
fn standard_trace() -> Vec<TraceRecord> {
    generate_trace(&TraceConfig::default())
}

/// Splits a trace into train/test record sets by the given train fraction.
pub(crate) fn split_records(
    records: &[TraceRecord],
    train_fraction: f64,
    seed: u64,
) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let (tr, te) = train_test_split(records.len(), train_fraction, seed);
    (
        tr.iter().map(|&i| records[i].clone()).collect(),
        te.iter().map(|&i| records[i].clone()).collect(),
    )
}

/// The records of one dataset.
pub(crate) fn on(records: &[TraceRecord], dataset: &str) -> Vec<TraceRecord> {
    records.iter().filter(|r| r.workload.dataset == dataset).cloned().collect()
}

/// Arithmetic mean (NaN for an empty slice).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `Predicted/Actual` for each record.
pub(crate) fn ratios<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    mut predict: impl FnMut(&TraceRecord) -> f64,
) -> Vec<f64> {
    records.into_iter().map(|r| predict(r) / r.time_secs).collect()
}

/// A system's `Predicted/Actual` for each record (NaN where it cannot
/// predict).
pub(crate) fn system_ratios<'a>(
    system: &PredictDdl,
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> Vec<f64> {
    ratios(records, |r| {
        system.predict_workload(&r.workload, &r.cluster()).map_or(f64::NAN, |p| p.seconds)
    })
}

/// Server class used for a dataset in the standard trace.
pub(crate) fn class_for_dataset(dataset: &str) -> ServerClass {
    let classes = TraceConfig::default().dataset_clusters;
    classes.into_iter().find(|(d, _)| d == dataset).expect("a dataset of the standard trace").1
}

/// A regression over trace records outside the PredictDDL pipeline: the
/// train records' `features`, standardised, against `log10` (or raw)
/// seconds.
pub(crate) struct Design<F> {
    features: F,
    scaler: StandardScaler,
    log_target: bool,
    /// The standardised train features, one row per record.
    pub x: Matrix,
    /// The train targets.
    pub y: Vec<f32>,
}

impl<F: Fn(&TraceRecord) -> Vec<f32>> Design<F> {
    /// Builds the design matrix of `train`.
    pub fn new(train: &[TraceRecord], features: F, log_target: bool) -> Self {
        let mut x = Matrix::zeros(train.len(), features(&train[0]).len());
        for (i, r) in train.iter().enumerate() {
            x.set_row(i, &features(r));
        }
        let y = train.iter().map(|r| r.time_secs);
        let y = y.map(|t| if log_target { t.log10() as f32 } else { t as f32 }).collect();
        let scaler = StandardScaler::fit(&x);
        Self { x: scaler.transform(&x), y, features, scaler, log_target }
    }

    /// `model`'s predicted seconds for one record.
    pub fn predict(&self, model: &dyn Regressor, r: &TraceRecord) -> f64 {
        let f = (self.features)(r);
        let row = self.scaler.transform(&Matrix::from_vec(1, f.len(), f));
        let p = model.predict(&row)[0] as f64;
        if self.log_target { 10f64.powf(p) } else { p }
    }

    /// Fits `model` on the design, then returns its `Predicted/Actual` on
    /// `test`.
    pub fn fit_ratios(&self, model: &mut dyn Regressor, test: &[TraceRecord]) -> Vec<f64> {
        model.fit(&self.x, &self.y);
        ratios(test, |r| self.predict(model, r))
    }
}

/// What every figure shares, each part built on first use: the standard
/// trace, its 80/20 split at [`SEED`], and the system trained on that
/// split, whose registry holds the default GHN of each dataset.
#[derive(Default)]
pub struct Context {
    trace: OnceCell<Vec<TraceRecord>>,
    split: OnceCell<(Vec<TraceRecord>, Vec<TraceRecord>)>,
    system: OnceCell<PredictDdl>,
    ghn_trainings: std::cell::Cell<usize>,
}

impl Context {
    /// The standard trace.
    pub(crate) fn trace(&self) -> &[TraceRecord] {
        self.trace.get_or_init(standard_trace)
    }

    /// The shared split of the trace: 80 % train, 20 % test.
    pub(crate) fn split(&self) -> (&[TraceRecord], &[TraceRecord]) {
        let (train, test) = self.split.get_or_init(|| split_records(self.trace(), 0.8, SEED));
        (train, test)
    }

    /// The shared split's records of one dataset.
    pub(crate) fn split_on(&self, dataset: &str) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
        let (train, test) = self.split();
        (on(train, dataset), on(test, dataset))
    }

    /// The standard system, trained on the train side of the split with
    /// its own default GHN per dataset.
    pub(crate) fn system(&self) -> &PredictDdl {
        self.system.get_or_init(|| {
            self.fit(self.split().0, GhnRegistry::default())
        })
    }

    /// A system fitted on `records` over the shared default GHNs: only the
    /// regressor is trained.
    pub(crate) fn refit(&self, records: &[TraceRecord]) -> PredictDdl {
        self.fit(records, self.system().registry.clone())
    }

    /// Trains what `registry` lacks, then the regressor; counts (and logs)
    /// the GHN meta-trainings.
    fn fit(&self, records: &[TraceRecord], registry: GhnRegistry) -> PredictDdl {
        let trainer = OfflineTrainer { seed: SEED, ..OfflineTrainer::default() };
        let before = registry.datasets().count();
        let system = trainer.train_from_records_reusing(records, registry);
        let n = system.registry.datasets().count() - before;
        if n > 0 {
            self.ghn_trainings.set(self.ghn_trainings.get() + n);
            let (secs, total) = (system.train_cost.ghn_secs, self.ghn_trainings());
            eprintln!("[experiments] meta-trained {n} GHN(s) in {secs:.1}s ({total} so far)");
        }
        system
    }

    /// GHN meta-trainings so far.
    pub fn ghn_trainings(&self) -> usize {
        self.ghn_trainings.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eleven_workloads() {
        let t = table2_workloads();
        assert_eq!(t.len(), 11);
        assert_eq!(t.iter().filter(|(_, d)| *d == "cifar10").count(), 8);
        assert_eq!(t.iter().filter(|(_, d)| *d == "tiny-imagenet").count(), 3);
    }

    #[test]
    fn split_preserves_counts() {
        let records = generate_trace(&TraceConfig::small());
        let (tr, te) = split_records(&records, 0.8, 1);
        assert_eq!(tr.len() + te.len(), records.len());
    }

    #[test]
    fn tables_address_cells_by_row_and_column() {
        let mut t = Table::new("t", &["row", "a", "b"]);
        t.row("x", [Cell::pct(0.7534), Cell::times(22.61, 1)]);
        assert_eq!(t.cell("x", "a").to_string(), "75.3%");
        assert_eq!(t.cell("x", "b").to_string(), "22.6×");
        assert!(t.to_string().contains("75.3%"));
    }

    #[test]
    #[should_panic(expected = "t: (x, b) is NaN")]
    fn tables_refuse_a_non_finite_cell() {
        let mut t = Table::new("t", &["row", "a", "b"]);
        t.row("x", [Cell::pct(0.5), Cell::ratio(mean(&[]))]);
    }
}
