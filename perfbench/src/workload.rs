//! The benchmark's workloads, run through the library entry points the paper
//! commands use, and the checks every iteration's output must pass.

use pmlp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use pmlp_core::experiment::{headline_combined, Effort, Figure2Experiment, Figure2Result};
use pmlp_core::objective::{DesignMetrics, DesignPoint};
use pmlp_core::pareto::{dominates, hypervolume};
use pmlp_core::report::FigureSeries;
use pmlp_core::ObjectiveSpace;
use pmlp_data::UciDataset;
use pmlp_serve::{ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Accuracy-loss threshold of the headline area gain (the paper's 5%).
pub const MAX_ACCURACY_LOSS: f64 = 0.05;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-effort campaign over the 12-dataset registry, cold local store.
    Battery,
    /// Full-effort Fig. 2 experiment (sweeps + NSGA-II) on WhiteWine.
    GaWhiteWine,
    /// The battery against a loopback server filled during set-up.
    BatteryWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Battery,
        Workload::GaWhiteWine,
        Workload::BatteryWarm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Battery => "battery",
            Workload::GaWhiteWine => "ga_whitewine",
            Workload::BatteryWarm => "battery_warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one dataset of an iteration produced, reduced to the numbers the
/// benchmark reports and compares bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetOutcome {
    /// Dataset display name.
    pub name: String,
    /// Baseline-referenced hypervolume in the accuracy/area space.
    pub hypervolume: f64,
    /// Headline area gain at <= 5% accuracy loss per technique (`None`:
    /// the technique never met the threshold).
    pub gains: Vec<(String, Option<f64>)>,
}

/// The scientific output of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// One entry per dataset, in name order.
    pub datasets: Vec<DatasetOutcome>,
    /// Full pipeline evaluations a campaign iteration ran (engine misses);
    /// 0 for the Fig. 2 experiment, whose entry point does not report them.
    pub fresh_evaluations: usize,
    /// Front violations found in the iteration's output (empty = clean).
    pub violations: Vec<String>,
}

impl Outcome {
    /// Mean hypervolume over the iteration's datasets.
    pub fn hypervolume(&self) -> f64 {
        mean(self.datasets.iter().map(|d| d.hypervolume))
    }

    /// Mean headline area gain over every (dataset, technique) pair that met
    /// the threshold.
    pub fn area_gain(&self) -> f64 {
        mean(
            self.datasets
                .iter()
                .flat_map(|d| d.gains.iter().filter_map(|(_, gain)| *gain)),
        )
    }

    /// Whether `other` carries bit-identical hypervolumes and gains.
    pub fn same_science(&self, other: &Outcome) -> bool {
        let bits = |o: &Outcome| -> Vec<(String, u64, Vec<Option<u64>>)> {
            o.datasets
                .iter()
                .map(|d| {
                    (
                        d.name.clone(),
                        d.hypervolume.to_bits(),
                        d.gains.iter().map(|(_, g)| g.map(f64::to_bits)).collect(),
                    )
                })
                .collect()
        };
        bits(self) == bits(other)
    }

    /// Summarizes a campaign result.
    pub fn from_campaign(result: &CampaignResult, fresh_evaluations: usize) -> Self {
        let mut violations = Vec::new();
        let datasets = result
            .reports
            .iter()
            .map(|report| {
                for series in &report.series {
                    check_series(&report.name, series, &mut violations);
                }
                DatasetOutcome {
                    name: report.name.clone(),
                    hypervolume: report.hypervolume,
                    gains: report
                        .headline
                        .iter()
                        .map(|row| (row.technique.clone(), row.area_gain))
                        .collect(),
                }
            })
            .collect();
        Outcome::sorted(datasets, fresh_evaluations, violations)
    }

    /// Builds an outcome with its datasets in name order, so sums and
    /// comparisons do not depend on the order the campaign ran them in.
    pub fn sorted(
        mut datasets: Vec<DatasetOutcome>,
        fresh_evaluations: usize,
        violations: Vec<String>,
    ) -> Self {
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        Outcome {
            datasets,
            fresh_evaluations,
            violations,
        }
    }

    /// Summarizes a Fig. 2 result: the combined GA front's hypervolume and
    /// headline gain.
    pub fn from_figure2(result: &Figure2Result) -> Self {
        let mut violations = Vec::new();
        for series in result.standalone.iter().chain([&result.combined]) {
            check_series(&result.dataset, series, &mut violations);
        }
        check_front(
            &result.dataset,
            &result.search.pareto_front,
            &mut violations,
        );
        let baseline = DesignMetrics {
            accuracy: result.baseline_accuracy,
            area_mm2: result.baseline_area_mm2,
            // The accuracy/area space reads no other baseline axis.
            power_uw: 1.0,
            delay_us: 1.0,
            energy_pj: 1.0,
        };
        let headline = headline_combined(result, MAX_ACCURACY_LOSS);
        Outcome {
            datasets: vec![DatasetOutcome {
                name: result.dataset.clone(),
                hypervolume: hypervolume(
                    &ObjectiveSpace::classic(),
                    &result.search.all_points,
                    &baseline,
                ),
                gains: vec![(headline.technique, headline.area_gain)],
            }],
            fresh_evaluations: 0,
            violations,
        }
    }
}

/// Arithmetic mean (0 for an empty sequence).
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A front must be non-empty, finite and free of dominated points
/// (normalized accuracy is maximized, normalized area minimized).
pub fn check_series(dataset: &str, series: &FigureSeries, violations: &mut Vec<String>) {
    let label = format!("{dataset}/{}", series.label);
    if series.points.is_empty() {
        violations.push(format!("{label}: empty front"));
    }
    for (accuracy, area, config) in &series.points {
        if !accuracy.is_finite() || !area.is_finite() {
            violations.push(format!("{label}: non-finite point {config}"));
        }
    }
    for (a_acc, a_area, a_cfg) in &series.points {
        for (b_acc, b_area, b_cfg) in &series.points {
            let no_worse = a_acc >= b_acc && a_area <= b_area;
            let better = a_acc > b_acc || a_area < b_area;
            if no_worse && better {
                violations.push(format!("{label}: {a_cfg} dominates {b_cfg}"));
            }
        }
    }
}

/// The same check on raw design points.
fn check_front(dataset: &str, front: &[DesignPoint], violations: &mut Vec<String>) {
    if front.is_empty() {
        violations.push(format!("{dataset}: empty GA front"));
    }
    for a in front {
        if !a.accuracy.is_finite() || !a.area_mm2.is_finite() {
            violations.push(format!("{dataset}: non-finite GA point"));
        }
        if front.iter().any(|b| dominates(b, a)) {
            violations.push(format!(
                "{dataset}: dominated GA point {}",
                a.config.describe()
            ));
        }
    }
}

/// The inputs a workload runs on, generated from the benchmark seed.
///
/// The science seed (data generation, training, GA) is the reproduction's
/// seed unless `--data-seed` overrides it. The benchmark seed orders the
/// battery's datasets: the campaign hands them to its workers in list order,
/// so the order decides which datasets share a core and which one finishes
/// last, while every dataset's result stays the same.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Seed of data generation, baseline training and the GA.
    pub data_seed: u64,
    /// Datasets in the order the workload submits them.
    pub datasets: Vec<UciDataset>,
}

impl Inputs {
    /// The inputs of `workload` for benchmark seed `seed`.
    pub fn generate(workload: Workload, seed: u64, data_seed: u64) -> Self {
        let datasets = match workload {
            Workload::GaWhiteWine => vec![UciDataset::WhiteWine],
            Workload::Battery | Workload::BatteryWarm => {
                let mut datasets = UciDataset::all().to_vec();
                datasets.shuffle(&mut StdRng::seed_from_u64(seed));
                datasets
            }
        };
        Inputs {
            data_seed,
            datasets,
        }
    }

    /// The campaign of one battery iteration: full effort, the seed passed
    /// through the library configuration, a fresh local store.
    pub fn campaign(&self, store_dir: &Path, remote: Option<String>) -> CampaignConfig {
        CampaignConfig {
            datasets: self.datasets.clone(),
            effort: Effort::Full,
            seed: self.data_seed,
            store_dir: Some(store_dir.to_path_buf()),
            remote_store: remote,
            ..CampaignConfig::default()
        }
    }

    /// The Fig. 2 experiment of the `ga_whitewine` workload.
    pub fn figure2(&self) -> Figure2Experiment {
        Figure2Experiment::new(UciDataset::WhiteWine, Effort::Full, self.data_seed)
    }
}

/// Runs one battery iteration through `Campaign::run_with_stats`.
fn run_campaign(config: CampaignConfig) -> Result<Outcome, String> {
    let (result, stats) = Campaign::new(config)
        .run_with_stats()
        .map_err(|e| format!("campaign failed: {e}"))?;
    Ok(Outcome::from_campaign(&result, stats.fresh_evaluations))
}

/// A workload ready to iterate: its inputs, work directory, the outcome
/// every iteration must reproduce and, for `battery_warm`, the filled server.
pub struct Prepared {
    workload: Workload,
    inputs: Inputs,
    work: PathBuf,
    server: Option<ServerHandle>,
    reference: Outcome,
    iterations: usize,
}

impl Prepared {
    /// Sets the workload up in `work`: checks that every dataset generates
    /// from the seed, then runs one checked warm-up iteration whose outcome
    /// every timed iteration must reproduce bit for bit. For `battery_warm`
    /// the warm-up is the store fill: a cold battery through a loopback
    /// server with at most `nproc` workers.
    pub fn setup(workload: Workload, inputs: Inputs, work: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
        for &dataset in &inputs.datasets {
            let descriptor = dataset.descriptor();
            let data = descriptor
                .generate(inputs.data_seed)
                .map_err(|e| format!("{dataset}: input generation failed: {e}"))?;
            if data.feature_count() != descriptor.feature_count || data.is_empty() {
                return Err(format!("{dataset}: generated input has the wrong shape"));
            }
        }
        let server = match workload {
            Workload::BatteryWarm => Some(
                pmlp_serve::spawn(&ServeConfig {
                    workers: crate::procfs::nproc(),
                    ..ServeConfig::default()
                })
                .map_err(|e| format!("server failed to start: {e}"))?,
            ),
            Workload::Battery | Workload::GaWhiteWine => None,
        };
        let mut prepared = Prepared {
            workload,
            inputs,
            work: work.to_path_buf(),
            server,
            reference: Outcome::sorted(Vec::new(), 0, Vec::new()),
            iterations: 0,
        };
        let warm_up_dir = prepared.fresh_store_dir();
        let warm_up = prepared.iterate(&warm_up_dir);
        std::fs::remove_dir_all(&warm_up_dir).ok();
        let warm_up = match warm_up {
            Ok(outcome) => outcome,
            Err(message) => {
                prepared.teardown();
                return Err(format!("warm-up: {message}"));
            }
        };
        let mut problems = prepared.output_problems(&warm_up);
        if workload == Workload::BatteryWarm && warm_up.fresh_evaluations == 0 {
            problems.push("the store fill evaluated nothing".into());
        }
        if !problems.is_empty() {
            prepared.teardown();
            return Err(format!("warm-up: {}", problems.join("; ")));
        }
        prepared.reference = warm_up;
        Ok(prepared)
    }

    /// Which workload this is.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The workload's inputs.
    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    /// The loopback server (`battery_warm` only).
    pub fn server(&self) -> Option<&ServerHandle> {
        self.server.as_ref()
    }

    /// The outcome every iteration must reproduce.
    pub fn reference(&self) -> &Outcome {
        &self.reference
    }

    /// A fresh, empty store directory for the next iteration.
    pub fn fresh_store_dir(&mut self) -> PathBuf {
        self.iterations += 1;
        let dir = self.work.join(format!("iter-{}", self.iterations));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Runs one untraced iteration through the library entry point.
    pub fn iterate(&self, store_dir: &Path) -> Result<Outcome, String> {
        match self.workload {
            Workload::Battery => run_campaign(self.inputs.campaign(store_dir, None)),
            Workload::BatteryWarm => run_campaign(
                self.inputs
                    .campaign(store_dir, self.server.as_ref().map(ServerHandle::url)),
            ),
            Workload::GaWhiteWine => {
                let result = self
                    .inputs
                    .figure2()
                    .run()
                    .map_err(|e| format!("fig2 failed: {e}"))?;
                Ok(Outcome::from_figure2(&result))
            }
        }
    }

    /// Problems with an output on its own: bad fronts, hypervolumes out of
    /// range, non-finite gains, a GA that met no design.
    fn output_problems(&self, outcome: &Outcome) -> Vec<String> {
        let mut problems = outcome.violations.clone();
        for dataset in &outcome.datasets {
            if !(0.0..=1.0).contains(&dataset.hypervolume) {
                problems.push(format!("{}: hypervolume out of [0, 1]", dataset.name));
            }
            for (technique, gain) in &dataset.gains {
                if gain.is_some_and(|g| !g.is_finite() || g <= 0.0) {
                    problems.push(format!("{}/{technique}: bad area gain", dataset.name));
                }
            }
        }
        if self.workload == Workload::GaWhiteWine && outcome.area_gain() <= 0.0 {
            problems.push("the GA met no design within the loss threshold".into());
        }
        problems
    }

    /// Every problem with a timed iteration's output; empty when it passes.
    pub fn check(&self, outcome: &Outcome) -> Vec<String> {
        let mut problems = self.output_problems(outcome);
        if self.workload == Workload::BatteryWarm && outcome.fresh_evaluations != 0 {
            problems.push(format!(
                "warm battery ran {} fresh evaluations",
                outcome.fresh_evaluations
            ));
        }
        if !self.reference.same_science(outcome) {
            problems.push("hypervolumes or gains differ from the warm-up's".into());
        }
        problems
    }

    /// Stops the server (if any), waits for it, and removes the work
    /// directory.
    pub fn teardown(self) {
        if let Some(server) = self.server {
            server.stop();
        }
        std::fs::remove_dir_all(&self.work).ok();
    }
}
