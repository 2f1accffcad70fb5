//! The traced run: per-layer self times of each workload.
//!
//! The traced iteration rebuilds the workload from the public pieces its
//! entry point uses (`BaselineDesign::train_cached`, `EvalEngine` with a
//! store backend, `sweep_all`, `Nsga2::run`, `EvalEngine::finalize`) and
//! records a span around every call into a layer. Wrappers that implement
//! `Evaluator` and `StoreBackend` sit around the engine and the store, and
//! the engine's progress callback closes one span per computed candidate.
//! A layer's self time is its spans' time minus the part their child spans
//! cover. Stages only reachable inside another layer's function are
//! measured by replaying the first traced iteration's work (see
//! [`crate::replay`]).
//!
//! Traced and untraced iterations alternate; the difference of their
//! median wall times is the tracing overhead.

use crate::procfs;
use crate::replay::{replay_dataset, DatasetWork, Replay};
use crate::stats::{median, quantile};
use crate::workload::{DatasetOutcome, Outcome, Prepared, Workload, MAX_ACCURACY_LOSS};
use crate::{Metric, Report, SetupStats};
use pmlp_core::baseline::{baseline_doc_name, BaselineDesign};
use pmlp_core::engine::{EvalEngine, EvalProgress, Evaluator};
use pmlp_core::experiment::{headline_summary, Effort, Figure1Result, Figure2Result};
use pmlp_core::nsga2::Nsga2;
use pmlp_core::objective::{DesignMetrics, DesignPoint};
use pmlp_core::pareto::{hypervolume, pareto_front_in};
use pmlp_core::report::FigureSeries;
use pmlp_core::store::{
    record_line, EvalRecord, LocalJsonlBackend, RemoteBackend, ResilienceStats, ScanOutcome,
    StoreBackend, TieredStore,
};
use pmlp_core::sweep::{sweep_all, Technique};
use pmlp_core::{CoreError, EvalKey, ObjectiveSpace};
use pmlp_data::UciDataset;
use pmlp_minimize::MinimizationConfig;
use rayon::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- spans --

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    end: Instant,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Span identifiers, unique in the process.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Spans open on this thread, innermost last: the parent of the next.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// When this thread last saw an evaluation resolve (see
    /// [`EngineProbe::resolved`]).
    static LAST_RESOLVED: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Collects the spans of one traced iteration, in memory.
#[derive(Default)]
struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Runs `f` inside a span whose parent is the innermost span open on
    /// this thread, or `parent` when given (work handed to a new thread).
    fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = parent.or_else(|| OPEN.with(|open| open.borrow().last().copied()));
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        value
    }

    /// The innermost span open on this thread.
    fn current() -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to it.
fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort();
                let mut reach = span.start;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end.duration_since(start).as_secs_f64();
                        reach = end;
                    }
                }
            }
            (span.id, (span.seconds() - covered).max(0.0))
        })
        .collect()
}

// ------------------------------------------------------------- backends --

/// Which layer a [`TimedBackend`] measures.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tier {
    /// Every call the engines and baselines make into the store.
    Store,
    /// The remote tier's HTTP client: one call is one request.
    Serve,
}

/// Counters of one [`TimedBackend`] over one iteration.
#[derive(Debug, Default, Clone)]
struct BackendCounts {
    appends: u64,
    records_written: u64,
    bytes_written: u64,
    records_read: u64,
    failures: u64,
    doc_misses: u64,
    /// Document names written (how a trained baseline is told from a
    /// loaded one).
    docs_put: Vec<String>,
    /// Duration of every call, seconds.
    calls: Vec<f64>,
}

/// A `StoreBackend` that records a span around every call it forwards.
struct TimedBackend {
    inner: Box<dyn StoreBackend>,
    tier: Tier,
    tracer: Arc<Tracer>,
    counts: Mutex<BackendCounts>,
}

impl TimedBackend {
    fn new(inner: Box<dyn StoreBackend>, tier: Tier, tracer: Arc<Tracer>) -> Self {
        TimedBackend {
            inner,
            tier,
            tracer,
            counts: Mutex::new(BackendCounts::default()),
        }
    }

    fn take_counts(&self) -> BackendCounts {
        std::mem::take(&mut *self.counts.lock().expect("backend counts lock"))
    }

    /// Times one forwarded call as a span named after the operation (store
    /// tier) or as one request (serve tier), and counts a failure.
    fn call<T>(
        &self,
        operation: &'static str,
        f: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let name = match self.tier {
            Tier::Store => operation,
            Tier::Serve => "serve.request",
        };
        let start = Instant::now();
        let result = self.tracer.span(name, None, f);
        let mut counts = self.counts.lock().expect("backend counts lock");
        counts.calls.push(start.elapsed().as_secs_f64());
        if result.is_err() {
            counts.failures += 1;
        }
        result
    }

    fn count_written(&self, records: &[EvalRecord]) {
        let bytes: usize = records.iter().map(|r| record_line(r).len() + 1).sum();
        let mut counts = self.counts.lock().expect("backend counts lock");
        counts.appends += 1;
        counts.records_written += records.len() as u64;
        counts.bytes_written += bytes as u64;
    }
}

impl StoreBackend for TimedBackend {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let outcome = self.call("store.scan", || self.inner.scan(name, fingerprint))?;
        self.counts
            .lock()
            .expect("backend counts lock")
            .records_read += outcome.records.len() as u64;
        Ok(outcome)
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        self.call("store.scan", || self.inner.get(name, fingerprint, key))
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        self.call("store.append", || {
            self.inner.append(name, fingerprint, record)
        })?;
        self.count_written(std::slice::from_ref(record));
        Ok(())
    }

    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        self.call("store.append", || {
            self.inner.append_batch(name, fingerprint, records)
        })?;
        self.count_written(records);
        Ok(())
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        self.call("store.other", || self.inner.compact(name, fingerprint))
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        let doc = self.call("store.doc_get", || self.inner.get_doc(name))?;
        if doc.is_none() {
            self.counts.lock().expect("backend counts lock").doc_misses += 1;
        }
        Ok(doc)
    }

    fn get_doc_fresh(&self, name: &str) -> Result<Option<String>, CoreError> {
        let doc = self.call("store.doc_get", || self.inner.get_doc_fresh(name))?;
        if doc.is_none() {
            self.counts.lock().expect("backend counts lock").doc_misses += 1;
        }
        Ok(doc)
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        self.call("store.doc_put", || self.inner.put_doc(name, contents))?;
        let mut counts = self.counts.lock().expect("backend counts lock");
        counts.bytes_written += contents.len() as u64;
        counts.docs_put.push(name.to_string());
        Ok(())
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        self.call("store.other", || self.inner.remove_doc(name))
    }

    fn list_docs(&self, prefix: &str) -> Result<Vec<String>, CoreError> {
        self.call("store.other", || self.inner.list_docs(prefix))
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        self.inner.record_path(name, fingerprint)
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        self.inner.resilience()
    }

    fn flush(&self) -> Result<(), CoreError> {
        self.call("store.other", || self.inner.flush())
    }
}

// --------------------------------------------------------------- engine --

/// A computed candidate, as the engine's progress callback saw it.
struct Candidate {
    config: MinimizationConfig,
    seconds: f64,
}

/// One `evaluate_batch` call.
struct Batch {
    threads: usize,
    seconds: f64,
    candidate_seconds: f64,
    in_search: bool,
}

/// The batch being evaluated: its span, start, and first candidate.
#[derive(Clone, Copy)]
struct OpenBatch {
    span: u64,
    start: Instant,
    first_candidate: usize,
}

/// What the traced evaluator learns about one engine.
#[derive(Default)]
struct ProbeState {
    batch: Option<OpenBatch>,
    /// Whether batches are issued by the GA (as opposed to the sweeps).
    in_search: bool,
    candidates: Vec<Candidate>,
    batches: Vec<Batch>,
}

/// Shared between the traced evaluator and the engine's progress callback.
struct EngineProbe {
    tracer: Arc<Tracer>,
    state: Mutex<ProbeState>,
}

impl EngineProbe {
    fn new(tracer: Arc<Tracer>) -> Self {
        EngineProbe {
            tracer,
            state: Mutex::new(ProbeState::default()),
        }
    }

    /// Progress callback: closes a candidate span for every computed
    /// evaluation. The thread pool runs a batch's items one after another
    /// on each of its threads, so a candidate began when its thread last
    /// resolved one, or when the batch started.
    fn resolved(&self, progress: EvalProgress) {
        let now = Instant::now();
        let last = LAST_RESOLVED.with(|last| last.replace(Some(now)));
        if progress.cached {
            return;
        }
        let mut state = self.state.lock().expect("probe lock");
        let Some(batch) = state.batch else {
            return;
        };
        let start = last.map_or(batch.start, |last| last.max(batch.start));
        state.candidates.push(Candidate {
            config: progress.config,
            seconds: now.duration_since(start).as_secs_f64(),
        });
        drop(state);
        self.tracer.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: Some(batch.span),
            name: "engine.eval",
            start,
            end: now,
        });
    }

    fn set_in_search(&self, in_search: bool) {
        self.state.lock().expect("probe lock").in_search = in_search;
    }
}

/// An `Evaluator` that forwards to the engine inside batch spans.
struct TracedEvaluator<'a> {
    engine: &'a EvalEngine,
    probe: &'a EngineProbe,
}

impl Evaluator for TracedEvaluator<'_> {
    fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
        self.probe
            .tracer
            .span("engine.evaluate", None, || self.engine.evaluate(config))
    }

    fn evaluate_batch(
        &self,
        configs: &[MinimizationConfig],
    ) -> Result<Vec<DesignPoint>, CoreError> {
        self.probe.tracer.span("engine.batch", None, || {
            let start = Instant::now();
            {
                let mut state = self.probe.state.lock().expect("probe lock");
                state.batch = Some(OpenBatch {
                    span: Tracer::current().expect("inside the batch span"),
                    start,
                    first_candidate: state.candidates.len(),
                });
            }
            let points = self.engine.evaluate_batch(configs);
            let seconds = start.elapsed().as_secs_f64();
            let mut state = self.probe.state.lock().expect("probe lock");
            let batch = state.batch.take().expect("the batch opened above");
            let candidate_seconds = state.candidates[batch.first_candidate..]
                .iter()
                .map(|c| c.seconds)
                .sum();
            let in_search = state.in_search;
            state.batches.push(Batch {
                threads: procfs::nproc().min(configs.len()).max(1),
                seconds,
                candidate_seconds,
                in_search,
            });
            points
        })
    }
}

/// Re-runs every finalist through full synthesis, as the experiments do.
fn verify_front(tracer: &Tracer, engine: &EvalEngine, front: &[DesignPoint]) -> Result<(), String> {
    for point in front {
        let finalized = tracer
            .span("hw.finalize", None, || engine.finalize(&point.config))
            .map_err(|e| format!("finalize: {e}"))?;
        if !finalized.matches_fast_path {
            return Err(format!(
                "finalist {} failed full-synthesis verification",
                point.config.describe()
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------- traced iterations --

/// Everything one traced iteration recorded.
struct IterationTrace {
    outcome: Outcome,
    seconds: f64,
    spans: Vec<Span>,
    engine: EngineTotals,
    candidate_seconds: Vec<f64>,
    batches: Vec<Batch>,
    store: BackendCounts,
    serve: BackendCounts,
    work: Vec<DatasetWork>,
}

/// Engine counters summed over an iteration's engines.
#[derive(Default)]
struct EngineTotals {
    hits: usize,
    misses: usize,
    coalesced: usize,
    warmed: usize,
    finalize_reruns: usize,
}

/// One dataset's share of a traced iteration.
struct DatasetRun {
    outcome: DatasetOutcome,
    violations: Vec<String>,
    probe: Arc<EngineProbe>,
    stats: pmlp_core::EngineStats,
    work: DatasetWork,
}

impl DatasetRun {
    /// Packs up a finished engine: its counters, its probe, and the work
    /// replay will redo.
    fn finish(
        engine: &EvalEngine,
        probe: Arc<EngineProbe>,
        outcome: DatasetOutcome,
        violations: Vec<String>,
        points: &[DesignPoint],
        trained: bool,
    ) -> Self {
        let candidates = probe
            .state
            .lock()
            .expect("probe lock")
            .candidates
            .iter()
            .map(|candidate| {
                let c = candidate.config;
                let scored = points
                    .iter()
                    .find(|p| {
                        p.config.weight_bits == c.weight_bits
                            && p.config.sparsity == c.sparsity
                            && p.config.clusters_per_input == c.clusters_per_input
                    })
                    .map(|p| (p.accuracy, p.area_mm2));
                (c, scored)
            })
            .collect();
        DatasetRun {
            outcome,
            violations,
            probe,
            stats: engine.stats(),
            work: DatasetWork {
                baseline: engine.baseline().clone(),
                trained,
                candidates,
            },
        }
    }
}

/// A traced engine: the probe is installed as its progress callback.
fn traced_engine(tracer: &Arc<Tracer>, baseline: BaselineDesign) -> (EvalEngine, Arc<EngineProbe>) {
    let probe = Arc::new(EngineProbe::new(Arc::clone(tracer)));
    let callback = Arc::clone(&probe);
    let engine = EvalEngine::new(baseline)
        .with_fine_tune_epochs(Effort::Full.fine_tune_epochs())
        .with_progress(move |progress| callback.resolved(progress));
    (engine, probe)
}

/// One battery dataset, rebuilt from the pieces `Campaign::run_dataset`
/// uses: baseline (store-cached), engine on the shared backend, the three
/// sweeps, finalist verification, headline rows and hypervolume.
fn traced_dataset(
    tracer: &Arc<Tracer>,
    dataset: UciDataset,
    seed: u64,
    backend: &Arc<dyn StoreBackend>,
) -> Result<DatasetRun, String> {
    let config = Effort::Full.baseline_config();
    let baseline = tracer
        .span("nn.baseline", None, || {
            BaselineDesign::train_cached(dataset, seed, &config, Some(&**backend))
        })
        .map_err(|e| format!("{dataset}: baseline: {e}"))?;
    let (engine, probe) = traced_engine(tracer, baseline);
    let engine = tracer
        .span("engine.warm_start", None, || {
            engine.with_backend(Box::new(Arc::clone(backend)))
        })
        .map_err(|e| format!("{dataset}: store: {e}"))?;
    let evaluator = TracedEvaluator {
        engine: &engine,
        probe: &probe,
    };
    let sweeps = sweep_all(&evaluator, &Effort::Full.sweep_ranges())
        .map_err(|e| format!("{dataset}: sweep: {e}"))?;
    let classic = ObjectiveSpace::classic();
    let mut series = Vec::with_capacity(sweeps.len());
    let mut raw_points = Vec::with_capacity(sweeps.len());
    for sweep in sweeps {
        let front = pareto_front_in(&classic, &sweep.points);
        verify_front(tracer, &engine, &front)?;
        series.push(FigureSeries::from_points(sweep.technique, &front));
        raw_points.push((sweep.technique, sweep.points));
    }
    let result = Figure1Result {
        dataset: dataset.to_string(),
        baseline_accuracy: engine.baseline().accuracy(),
        baseline_area_mm2: engine.baseline().area_mm2(),
        series,
        raw_points,
    };
    let headline = headline_summary(&result, MAX_ACCURACY_LOSS);
    let reference =
        DesignMetrics::from_synthesis(result.baseline_accuracy, &engine.baseline().synthesis);
    let evaluated: Vec<DesignPoint> = result
        .raw_points
        .iter()
        .flat_map(|(_, points)| points.iter().cloned())
        .collect();
    let mut violations = Vec::new();
    for series in &result.series {
        crate::workload::check_series(&result.dataset, series, &mut violations);
    }
    let outcome = DatasetOutcome {
        name: result.dataset.clone(),
        hypervolume: hypervolume(&classic, &evaluated, &reference),
        gains: headline
            .iter()
            .map(|row| (row.technique.clone(), row.area_gain))
            .collect(),
    };
    // Whether the baseline was trained is read off the store's document
    // log once the campaign is done.
    Ok(DatasetRun::finish(
        &engine, probe, outcome, violations, &evaluated, false,
    ))
}

/// The battery, rebuilt as `Campaign::run_with_stats` runs it: one shared
/// backend, datasets fanned out over the thread pool in input order, the
/// backend flushed at the end. Completion markers are not written (the
/// marker writer is private to the campaign): those are one small document
/// per dataset.
fn traced_campaign(
    tracer: &Arc<Tracer>,
    prepared: &Prepared,
    store_dir: &Path,
) -> Result<(Vec<DatasetRun>, BackendCounts, BackendCounts), String> {
    let store_error = |e: CoreError| format!("store: {e}");
    let local = LocalJsonlBackend::open(store_dir).map_err(store_error)?;
    let serve = match prepared.server() {
        Some(server) => Some(Arc::new(TimedBackend::new(
            Box::new(RemoteBackend::new(&server.url()).map_err(store_error)?),
            Tier::Serve,
            Arc::clone(tracer),
        ))),
        None => None,
    };
    let inner: Box<dyn StoreBackend> = match &serve {
        Some(client) => Box::new(TieredStore::new(
            Box::new(local),
            Box::new(Arc::clone(client)),
        )),
        None => Box::new(local),
    };
    let store = Arc::new(TimedBackend::new(inner, Tier::Store, Arc::clone(tracer)));
    let backend: Arc<dyn StoreBackend> = store.clone();
    let seed = prepared.inputs().data_seed;
    let mut runs = tracer.span("campaign.run", None, || {
        let parent = Tracer::current();
        let runs: Result<Vec<DatasetRun>, String> = prepared
            .inputs()
            .datasets
            .par_iter()
            .map(|&dataset| {
                tracer.span("campaign.dataset", parent, || {
                    traced_dataset(tracer, dataset, seed, &backend)
                })
            })
            .collect();
        let runs = runs?;
        backend.flush().map_err(store_error)?;
        Ok::<_, String>(runs)
    })?;
    let store_counts = store.take_counts();
    for (run, &dataset) in runs.iter_mut().zip(&prepared.inputs().datasets) {
        let doc = baseline_doc_name(dataset, seed, &Effort::Full.baseline_config());
        run.work.trained = store_counts.docs_put.contains(&doc);
    }
    let serve_counts = serve.map(|client| client.take_counts()).unwrap_or_default();
    Ok((runs, store_counts, serve_counts))
}

/// The Fig. 2 experiment, rebuilt as `Figure2Experiment::run` runs it:
/// baseline, the three sweeps, NSGA-II, finalist verification.
fn traced_figure2(tracer: &Arc<Tracer>, seed: u64) -> Result<(Outcome, DatasetRun), String> {
    let dataset = UciDataset::WhiteWine;
    let baseline = tracer
        .span("nn.baseline", None, || {
            BaselineDesign::train_cached(dataset, seed, &Effort::Full.baseline_config(), None)
        })
        .map_err(|e| format!("baseline: {e}"))?;
    let (engine, probe) = traced_engine(tracer, baseline);
    let evaluator = TracedEvaluator {
        engine: &engine,
        probe: &probe,
    };
    let classic = ObjectiveSpace::classic();
    let sweeps =
        sweep_all(&evaluator, &Effort::Full.sweep_ranges()).map_err(|e| format!("sweep: {e}"))?;
    let standalone: Vec<FigureSeries> = sweeps
        .iter()
        .map(|s| FigureSeries::from_points(s.technique, &pareto_front_in(&classic, &s.points)))
        .collect();
    let mut ga = Effort::Full.nsga2_config();
    ga.seed ^= seed;
    ga.objectives = classic;
    probe.set_in_search(true);
    let search = tracer
        .span("nsga2.run", None, || Nsga2::new(ga).run(&evaluator))
        .map_err(|e| format!("nsga2: {e}"))?;
    probe.set_in_search(false);
    verify_front(tracer, &engine, &search.pareto_front)?;
    let result = Figure2Result {
        dataset: dataset.to_string(),
        baseline_accuracy: engine.baseline().accuracy(),
        baseline_area_mm2: engine.baseline().area_mm2(),
        standalone,
        combined: FigureSeries::from_points(Technique::Combined, &search.pareto_front),
        search,
    };
    let outcome = Outcome::from_figure2(&result);
    let mut points: Vec<DesignPoint> = sweeps.into_iter().flat_map(|s| s.points).collect();
    points.extend(result.search.all_points.iter().cloned());
    let run = DatasetRun::finish(
        &engine,
        probe,
        outcome.datasets[0].clone(),
        outcome.violations.clone(),
        &points,
        true,
    );
    Ok((outcome, run))
}

/// Samples the process's thread count until stopped.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(procfs::thread_count().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    /// The peak thread count, the sampler itself not counted.
    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .expect("the thread sampler does not panic")
            .saturating_sub(1)
    }
}

/// Runs one traced iteration of the prepared workload.
fn traced_iteration(
    prepared: &Prepared,
    store_dir: &Path,
) -> Result<(IterationTrace, u64, ServerDelta), String> {
    let tracer = Arc::new(Tracer::default());
    let server_before = prepared.server().map(|s| s.stats());
    let sampler = ThreadSampler::start();
    let start = Instant::now();
    let result = match prepared.workload() {
        Workload::GaWhiteWine => {
            traced_figure2(&tracer, prepared.inputs().data_seed).map(|(outcome, run)| {
                (
                    outcome,
                    vec![run],
                    BackendCounts::default(),
                    BackendCounts::default(),
                )
            })
        }
        Workload::Battery | Workload::BatteryWarm => traced_campaign(&tracer, prepared, store_dir)
            .map(|(runs, store, serve)| {
                let mut violations = Vec::new();
                let datasets = runs
                    .iter()
                    .map(|run| {
                        violations.extend(run.violations.iter().cloned());
                        run.outcome.clone()
                    })
                    .collect();
                let fresh = runs.iter().map(|run| run.stats.misses).sum();
                (
                    Outcome::sorted(datasets, fresh, violations),
                    runs,
                    store,
                    serve,
                )
            }),
    };
    let seconds = start.elapsed().as_secs_f64();
    let threads_peak = sampler.stop();
    let server = match (prepared.server(), server_before) {
        (Some(server), Some(before)) => {
            let after = server.stats();
            ServerDelta {
                bytes_in: after.bytes_in - before.bytes_in,
                bytes_out: after.bytes_out - before.bytes_out,
                connections: after.connections_accepted - before.connections_accepted,
            }
        }
        _ => ServerDelta::default(),
    };
    let (outcome, runs, store, serve) = result?;
    let mut engine = EngineTotals::default();
    let mut candidate_seconds = Vec::new();
    let mut batches = Vec::new();
    let mut work = Vec::new();
    for run in runs {
        engine.hits += run.stats.hits;
        engine.misses += run.stats.misses;
        engine.coalesced += run.stats.coalesced;
        engine.warmed += run.stats.warmed;
        engine.finalize_reruns += run.stats.finalize_reruns;
        let mut state = run.probe.state.lock().expect("probe lock");
        candidate_seconds.extend(state.candidates.iter().map(|c| c.seconds));
        batches.append(&mut state.batches);
        drop(state);
        work.push(run.work);
    }
    Ok((
        IterationTrace {
            outcome,
            seconds,
            spans: tracer.take(),
            engine,
            candidate_seconds,
            batches,
            store,
            serve,
            work,
        },
        threads_peak,
        server,
    ))
}

/// Server-side counters over one iteration.
#[derive(Debug, Default, Clone, Copy)]
struct ServerDelta {
    bytes_in: u64,
    bytes_out: u64,
    connections: u64,
}

// --------------------------------------------------------------- metrics --

/// Sum of the self times of the spans named `name`, in milliseconds.
fn self_ms(spans: &[Span], selfs: &BTreeMap<u64, f64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + selfs[&s.id])
        * 1e3
}

/// The per-layer numbers of one traced iteration that are not replayed.
fn iteration_metrics(
    trace: &IterationTrace,
    threads_peak: u64,
    server: ServerDelta,
) -> Vec<Metric> {
    let spans = &trace.spans;
    let selfs = self_times(spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    };
    let datasets = durations("campaign.dataset");
    // Folded from +0.0: an empty float `sum()` is -0.0.
    let campaign_wall = durations("campaign.run").iter().fold(0.0, |a, b| a + b);
    let dataset_sum = datasets.iter().fold(0.0, |a, b| a + b);
    let campaign_threads = procfs::nproc().min(datasets.len()).max(1) as f64;
    let (search_busy, search_capacity) =
        trace
            .batches
            .iter()
            .filter(|b| b.in_search)
            .fold((0.0, 0.0), |(busy, capacity), b| {
                (
                    busy + b.candidate_seconds,
                    capacity + b.threads as f64 * b.seconds,
                )
            });
    let engine = &trace.engine;
    let requests = engine.hits + engine.misses + engine.coalesced;
    let count = |n: usize| n as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    // Idle share of `capacity` thread-seconds; 0 when nothing ran.
    let idle = |busy: f64, capacity: f64| {
        if capacity > 0.0 {
            1.0 - share(busy, capacity)
        } else {
            0.0
        }
    };
    let ms = |name: &str| self_ms(spans, &selfs, name);
    vec![
        Metric::new("nn.baseline_ms", ms("nn.baseline"), "ms"),
        Metric::new("hw.full_synth_ms", ms("hw.finalize"), "ms"),
        Metric::new(
            "hw.full_synth_count",
            count(durations("hw.finalize").len()),
            "count",
        ),
        Metric::new("engine.hits", count(engine.hits), "count"),
        Metric::new("engine.misses", count(engine.misses), "count"),
        Metric::new("engine.coalesced", count(engine.coalesced), "count"),
        Metric::new("engine.warmed", count(engine.warmed), "count"),
        Metric::new(
            "engine.finalize_reruns",
            count(engine.finalize_reruns),
            "count",
        ),
        Metric::new(
            "engine.hit_ratio",
            share(count(engine.hits + engine.coalesced), count(requests)),
            "ratio",
        ),
        Metric::new("engine.warm_start_ms", ms("engine.warm_start"), "ms"),
        Metric::new("nsga2.select_ms", ms("nsga2.run"), "ms"),
        Metric::new(
            "nsga2.batch_idle_ratio",
            idle(search_busy, search_capacity),
            "ratio",
        ),
        Metric::new(
            "campaign.dataset_s_max",
            datasets.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        Metric::new("campaign.dataset_s_sum", dataset_sum, "s"),
        Metric::new(
            "campaign.idle_ratio",
            idle(dataset_sum, campaign_threads * campaign_wall),
            "ratio",
        ),
        Metric::new("store.append_ms", ms("store.append"), "ms"),
        Metric::new("store.appends", trace.store.appends as f64, "count"),
        Metric::new(
            "store.records_written",
            trace.store.records_written as f64,
            "count",
        ),
        Metric::new(
            "store.bytes_written",
            trace.store.bytes_written as f64,
            "bytes",
        ),
        Metric::new("store.scan_ms", ms("store.scan"), "ms"),
        Metric::new(
            "store.records_read",
            trace.store.records_read as f64,
            "count",
        ),
        Metric::new("store.doc_get_ms", ms("store.doc_get"), "ms"),
        Metric::new("store.doc_put_ms", ms("store.doc_put"), "ms"),
        Metric::new("store.failures", trace.store.failures as f64, "count"),
        Metric::new("serve.requests", count(trace.serve.calls.len()), "count"),
        Metric::new("serve.bytes_in", server.bytes_in as f64, "bytes"),
        Metric::new("serve.bytes_out", server.bytes_out as f64, "bytes"),
        Metric::new("serve.connections", server.connections as f64, "count"),
        Metric::new("serve.errors", trace.serve.failures as f64, "count"),
        Metric::new("serve.doc_misses", trace.serve.doc_misses as f64, "count"),
        Metric::new("proc.threads_peak", threads_peak as f64, "count"),
    ]
}

/// A quantile in milliseconds, 0 for an empty sample.
fn quantile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q) * 1e3
    }
}

/// A mean in microseconds, 0 for an empty sample.
fn mean_us(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64 * 1e6
    }
}

/// Runs untraced and traced iterations alternately until `budget` is spent,
/// replays the first traced iteration's work, and reports the per-layer
/// metrics (live ones averaged over the traced iterations) with the tracing
/// overhead. `setup` carries what the process's first set-up, the one with
/// a cold multiplier-cost cache, measured.
pub fn run(mut prepared: Prepared, budget: Duration, setup: &SetupStats) -> Result<Report, String> {
    let mut report = Report::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut live: Vec<Metric> = Vec::new();
    let mut eval_samples = Vec::new();
    let mut request_samples = Vec::new();
    let mut replay_work: Option<Vec<DatasetWork>> = None;
    let start = Instant::now();
    while untraced.len() < 2 || traced.len() < 2 || start.elapsed() < budget {
        let store_dir = prepared.fresh_store_dir();
        let problems = if untraced.len() <= traced.len() {
            let began = Instant::now();
            let outcome = prepared.iterate(&store_dir);
            untraced.push(began.elapsed().as_secs_f64());
            outcome.map_or_else(|message| vec![message], |o| prepared.check(&o))
        } else {
            match traced_iteration(&prepared, &store_dir) {
                Ok((trace, threads_peak, server)) => {
                    traced.push(trace.seconds);
                    let metrics = iteration_metrics(&trace, threads_peak, server);
                    if live.is_empty() {
                        live = metrics;
                    } else {
                        for (sum, metric) in live.iter_mut().zip(metrics) {
                            sum.value += metric.value;
                        }
                    }
                    eval_samples.extend_from_slice(&trace.candidate_seconds);
                    request_samples.extend_from_slice(&trace.serve.calls);
                    let problems = prepared.check(&trace.outcome);
                    replay_work.get_or_insert(trace.work);
                    problems
                }
                Err(message) => {
                    traced.push(f64::NAN);
                    vec![message]
                }
            }
        };
        std::fs::remove_dir_all(&store_dir).ok();
        report.attempted += 1;
        if !problems.is_empty() {
            report.failed += 1;
            for problem in problems {
                eprintln!("check failed: {problem}");
            }
        }
    }
    prepared.teardown();

    let mut replay = Replay::default();
    report.attempted += 1;
    let replayed = replay_work
        .iter()
        .flatten()
        .try_for_each(|work| replay_dataset(work, &mut replay));
    let replay_problem = match replayed {
        Err(message) => Some(message),
        Ok(()) if replay.mismatches > 0 => Some(format!(
            "{} replayed baselines or candidates differ from the engine's",
            replay.mismatches
        )),
        Ok(()) => None,
    };
    if let Some(problem) = replay_problem {
        report.failed += 1;
        eprintln!("check failed: {problem}");
    }

    let traced_runs = traced.iter().filter(|t| t.is_finite()).count().max(1) as f64;
    for metric in &mut live {
        metric.value /= traced_runs;
    }
    let untraced_s = median(&untraced);
    let overhead_s = median(&traced) - untraced_s;
    report.notes.push(format!(
        "{} untraced and {} traced iterations; replayed metrics come from the first traced \
         iteration's work, re-run single-threaded; error_rate = {}/{}",
        untraced.len(),
        traced.len(),
        report.failed,
        report.attempted
    ));
    let mut metrics = vec![
        Metric::new("data.generate_ms", replay.generate_s * 1e3, "ms"),
        Metric::new("nn.baseline_fit_ms", replay.fit_s * 1e3, "ms"),
        Metric::new("nn.baseline_epochs", replay.fit_epochs as f64, "count"),
        Metric::new("minimize.prune_ms", replay.prune_s * 1e3, "ms"),
        Metric::new("minimize.cluster_ms", replay.cluster_s * 1e3, "ms"),
        Metric::new("minimize.qat_ms", replay.qat_s * 1e3, "ms"),
        Metric::new("minimize.quantize_ms", replay.quantize_s * 1e3, "ms"),
        Metric::new(
            "minimize.fine_tune_epochs",
            replay.fine_tune_epochs as f64,
            "count",
        ),
        Metric::new(
            "minimize.cand_ms_p50",
            quantile_ms(&replay.candidate_s, 0.5),
            "ms",
        ),
        Metric::new(
            "minimize.cand_ms_p90",
            quantile_ms(&replay.candidate_s, 0.9),
            "ms",
        ),
        Metric::new(
            "minimize.replay_mismatches",
            replay.mismatches as f64,
            "count",
        ),
        Metric::new("hw.int_accuracy_us", mean_us(&replay.int_accuracy_s), "us"),
        Metric::new("hw.fast_cost_us", mean_us(&replay.fast_cost_s), "us"),
    ];
    metrics.append(&mut live);
    metrics.extend([
        Metric::new("engine.eval_ms_p50", quantile_ms(&eval_samples, 0.5), "ms"),
        Metric::new("engine.eval_ms_p90", quantile_ms(&eval_samples, 0.9), "ms"),
        Metric::new("hw.mulcache_hit_ratio", setup.cold_cache_hit_ratio, "ratio"),
        Metric::new("setup.cold_s", setup.first_seconds, "s"),
        Metric::new(
            "serve.request_ms_p50",
            quantile_ms(&request_samples, 0.5),
            "ms",
        ),
        Metric::new(
            "serve.request_ms_p90",
            quantile_ms(&request_samples, 0.9),
            "ms",
        ),
        Metric::new("proc.nproc", procfs::nproc() as f64, "count"),
        Metric::new("trace.overhead_s", overhead_s, "s"),
        Metric::new("trace.overhead_ratio", overhead_s / untraced_s, "ratio"),
        Metric::new(
            "error_rate",
            report.failed as f64 / report.attempted as f64,
            "ratio",
        ),
    ]);
    report.metrics = metrics;
    Ok(report)
}
