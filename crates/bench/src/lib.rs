//! Shared helpers of the benchmark harness: effort parsing, result printing
//! and JSON persistence used by both the figure-regeneration binaries and the
//! criterion benches.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pmlp_core::experiment::{Effort, Figure1Result, Figure2Result};
use pmlp_core::report::{render_headline_table, HeadlineRow};
use std::path::{Path, PathBuf};

/// Parses an effort name from the command line (`full`, or `quick` and its
/// alias `smoke`; case-insensitive).
///
/// # Errors
///
/// Returns a message naming the accepted values for any other name.
pub fn parse_effort(name: &str) -> Result<Effort, String> {
    match name.to_ascii_lowercase().as_str() {
        "full" => Ok(Effort::Full),
        "quick" | "smoke" => Ok(Effort::Quick),
        _ => Err(format!(
            "unknown effort '{name}' (expected full, quick or smoke)"
        )),
    }
}

/// Parsed command line shared by the figure/table/campaign binaries.
#[derive(Debug, Default)]
pub struct CliOptions<'a> {
    /// Positional arguments, in order.
    pub positional: Vec<&'a str>,
    /// Effort override from `--quick`/`-q`/`--full`.
    pub effort: Option<Effort>,
    /// Persistent evaluation-store directory from `--store DIR` (or
    /// `--store=DIR`): engines warm-start from it and append their misses,
    /// and searches checkpoint into it.
    pub store: Option<PathBuf>,
    /// Remote `pmlp-serve` URL from `--remote-store URL` (or
    /// `--remote-store=URL`). Combined with `--store DIR` the directory
    /// becomes a write-through cache of the server; alone, the server is the
    /// only persistence tier.
    pub remote_store: Option<String>,
    /// `--resume`: reuse completion markers and search checkpoints from the
    /// store directory instead of recomputing finished work.
    pub resume: bool,
    /// `--require-warm`: exit with an error if the run needed any fresh
    /// evaluation — CI's assertion that a store re-run recomputes nothing.
    pub require_warm: bool,
    /// Objective space from `--objectives LIST` (or `--objectives=LIST`), a
    /// comma-separated subset of `accuracy,area,power,delay,energy`. `None`
    /// keeps the classic `(accuracy, area)` space — and byte-identical
    /// artifacts to the fixed two-objective pipeline.
    pub objectives: Option<pmlp_core::ObjectiveSpace>,
    /// Remote-store request timeout override in milliseconds from
    /// `--remote-timeout-ms N` (connect + read + write deadlines of every
    /// request to the `pmlp-serve` tier; default 10s).
    pub remote_timeout_ms: Option<u64>,
    /// Bearer token from `--token TOKEN`: the `serve` binary requires it on
    /// every request except the liveness probe. (Workers pass their token
    /// inline in the URL instead: `--remote-store http://TOKEN@host:port`.)
    pub token: Option<String>,
    /// Worker-pool size override for the `serve` binary from `--workers N`
    /// (default: one per core, clamped to 4..=32).
    pub workers: Option<usize>,
    /// Durability policy of the local JSONL tier from `--durability POLICY`
    /// (`buffered`, `sync-each-append` or `sync-on-seal`; default
    /// `buffered`). Honoured by `--store DIR` compositions and by the
    /// `serve` binary's disk-backed store.
    pub durability: Option<pmlp_core::store::DurabilityPolicy>,
    /// Graceful-shutdown drain deadline override for the `serve` binary
    /// from `--drain-timeout-ms N`: how long a stopping server waits for
    /// in-flight requests before abandoning them (default 5s).
    pub drain_timeout_ms: Option<u64>,
    /// A malformed command line detected during parsing (e.g. `--store`
    /// without a directory, or an unknown `--flag`); surfaced by
    /// [`CliOptions::validate`].
    pub parse_error: Option<String>,
}

impl CliOptions<'_> {
    /// Validates the parse and the flag combinations: `--resume`/
    /// `--require-warm` only make sense with a persistence tier (`--store`
    /// and/or `--remote-store`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed or invalid command
    /// lines.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(error) = &self.parse_error {
            return Err(error.clone());
        }
        if self.store.is_none() && self.remote_store.is_none() && (self.resume || self.require_warm)
        {
            return Err(
                "--resume/--require-warm need --store DIR and/or --remote-store URL".into(),
            );
        }
        if self.remote_timeout_ms == Some(0) {
            return Err("--remote-timeout-ms must be positive".into());
        }
        if self.workers == Some(0) {
            return Err("--workers must be positive".into());
        }
        Ok(())
    }

    /// The `[full|quick] [seed]` positionals starting at index `at`: an
    /// absent effort is full (`--quick`/`--full` override it), an absent seed
    /// is 42.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown effort name, a seed that is not a
    /// non-negative integer — a misplaced seed such as `campaign all 43` is
    /// rejected instead of running seed 42 at full effort — or a positional
    /// past the seed.
    pub fn effort_and_seed(&self, at: usize) -> Result<(Effort, u64), String> {
        let named = self
            .positional
            .get(at)
            .map(|name| parse_effort(name))
            .transpose()?;
        let seed = self.seed(at + 1)?;
        Ok((self.effort.or(named).unwrap_or(Effort::Full), seed))
    }

    /// The `[seed]` positional at index `at`, 42 when absent. It must be the
    /// last positional.
    ///
    /// # Errors
    ///
    /// Returns a message for a seed that is not a non-negative integer or
    /// for any positional after it.
    pub fn seed(&self, at: usize) -> Result<u64, String> {
        if let Some(extra) = self.positional.get(at + 1) {
            return Err(format!("unexpected argument '{extra}' after the seed"));
        }
        match self.positional.get(at) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("seed must be a non-negative integer, got '{text}'")),
            None => Ok(42),
        }
    }

    /// `true` when any persistence tier is configured.
    pub fn has_store(&self) -> bool {
        self.store.is_some() || self.remote_store.is_some()
    }

    /// Opens the [`StoreBackend`](pmlp_core::store::StoreBackend) the parsed
    /// flags select: local directory, remote server, their tiered
    /// composition, or `None` (see [`pmlp_core::store::open_backend`]).
    ///
    /// # Errors
    ///
    /// Propagates [`pmlp_core::CoreError::Store`] for an uncreatable
    /// directory or malformed URL.
    pub fn open_backend(
        &self,
    ) -> Result<Option<Box<dyn pmlp_core::store::StoreBackend>>, pmlp_core::CoreError> {
        pmlp_core::store::open_backend_durable(
            self.store.as_deref(),
            self.remote_store.as_deref(),
            self.remote_timeout_ms.map(std::time::Duration::from_millis),
            self.durability.unwrap_or_default(),
        )
    }
}

/// Parses the raw CLI arguments (excluding the program name) of the bench
/// binaries: positionals, the effort override and the persistence flags. An
/// unknown `--flag` is recorded as a parse error, never taken as a
/// positional.
pub fn parse_cli(args: &[String]) -> CliOptions<'_> {
    let mut options = CliOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => options.effort = Some(Effort::Quick),
            "--full" => options.effort = Some(Effort::Full),
            "--store" => match iter.next() {
                // A following flag is a forgotten value, not a directory.
                Some(dir) if !dir.starts_with('-') => options.store = Some(PathBuf::from(dir)),
                _ => {
                    options.parse_error = Some("--store needs a directory argument".into());
                }
            },
            "--remote-store" => match iter.next() {
                Some(url) if !url.starts_with('-') => options.remote_store = Some(url.clone()),
                _ => {
                    options.parse_error = Some("--remote-store needs a URL argument".into());
                }
            },
            "--remote-timeout-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => options.remote_timeout_ms = Some(ms),
                _ => {
                    options.parse_error =
                        Some("--remote-timeout-ms needs a number of milliseconds".into());
                }
            },
            "--token" => match iter.next() {
                Some(token) if !token.starts_with('-') => options.token = Some(token.clone()),
                _ => {
                    options.parse_error = Some("--token needs a token argument".into());
                }
            },
            "--workers" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => options.workers = Some(n),
                _ => {
                    options.parse_error = Some("--workers needs a thread count".into());
                }
            },
            "--durability" => match iter.next().map(|v| v.parse()) {
                Some(Ok(policy)) => options.durability = Some(policy),
                Some(Err(err)) => options.parse_error = Some(err),
                None => {
                    options.parse_error = Some("--durability needs a policy argument".into());
                }
            },
            "--drain-timeout-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => options.drain_timeout_ms = Some(ms),
                _ => {
                    options.parse_error =
                        Some("--drain-timeout-ms needs a number of milliseconds".into());
                }
            },
            "--objectives" => match iter.next() {
                Some(list) if !list.starts_with('-') => {
                    match pmlp_core::ObjectiveSpace::parse(list) {
                        Ok(space) => options.objectives = Some(space),
                        Err(err) => options.parse_error = Some(err.to_string()),
                    }
                }
                _ => {
                    options.parse_error =
                        Some("--objectives needs a comma-separated objective list".into());
                }
            },
            "--resume" => options.resume = true,
            "--require-warm" => options.require_warm = true,
            other => {
                if let Some(dir) = other.strip_prefix("--store=") {
                    if dir.is_empty() {
                        options.parse_error = Some("--store= needs a non-empty directory".into());
                    } else {
                        options.store = Some(PathBuf::from(dir));
                    }
                } else if let Some(url) = other.strip_prefix("--remote-store=") {
                    if url.is_empty() {
                        options.parse_error = Some("--remote-store= needs a non-empty URL".into());
                    } else {
                        options.remote_store = Some(url.to_string());
                    }
                } else if let Some(ms) = other.strip_prefix("--remote-timeout-ms=") {
                    match ms.parse::<u64>() {
                        Ok(ms) => options.remote_timeout_ms = Some(ms),
                        Err(_) => {
                            options.parse_error =
                                Some("--remote-timeout-ms needs a number of milliseconds".into());
                        }
                    }
                } else if let Some(token) = other.strip_prefix("--token=") {
                    if token.is_empty() {
                        options.parse_error = Some("--token= needs a non-empty token".into());
                    } else {
                        options.token = Some(token.to_string());
                    }
                } else if let Some(n) = other.strip_prefix("--workers=") {
                    match n.parse::<usize>() {
                        Ok(n) => options.workers = Some(n),
                        Err(_) => {
                            options.parse_error = Some("--workers needs a thread count".into());
                        }
                    }
                } else if let Some(list) = other.strip_prefix("--objectives=") {
                    match pmlp_core::ObjectiveSpace::parse(list) {
                        Ok(space) => options.objectives = Some(space),
                        Err(err) => options.parse_error = Some(err.to_string()),
                    }
                } else if let Some(policy) = other.strip_prefix("--durability=") {
                    match policy.parse() {
                        Ok(policy) => options.durability = Some(policy),
                        Err(err) => options.parse_error = Some(err),
                    }
                } else if let Some(ms) = other.strip_prefix("--drain-timeout-ms=") {
                    match ms.parse::<u64>() {
                        Ok(ms) => options.drain_timeout_ms = Some(ms),
                        Err(_) => {
                            options.parse_error =
                                Some("--drain-timeout-ms needs a number of milliseconds".into());
                        }
                    }
                } else if other.starts_with("--") {
                    options.parse_error = Some(format!("unknown flag '{other}'"));
                } else {
                    options.positional.push(other);
                }
            }
        }
    }
    options
}

/// Renders one Fig. 1 subplot as the text table the paper plots.
pub fn render_figure1(result: &Figure1Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 1 ({}) — baseline accuracy {:.1}%, baseline area {:.1} mm2 ===\n",
        result.dataset,
        result.baseline_accuracy * 100.0,
        result.baseline_area_mm2
    ));
    for series in &result.series {
        out.push_str(&series.to_string());
    }
    out
}

/// Renders the Fig. 2 comparison (standalone fronts vs the combined GA front).
pub fn render_figure2(result: &Figure2Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 2 ({}) — baseline accuracy {:.1}%, baseline area {:.1} mm2 ===\n",
        result.dataset,
        result.baseline_accuracy * 100.0,
        result.baseline_area_mm2
    ));
    for series in &result.standalone {
        out.push_str(&series.to_string());
    }
    out.push_str(&result.combined.to_string());
    out.push_str(&format!(
        "# GA: {} generations, {} evaluations\n",
        result.search.history.len(),
        result
            .search
            .history
            .last()
            .map(|h| h.evaluations)
            .unwrap_or(0)
    ));
    out
}

/// Renders headline rows.
pub fn render_headline(rows: &[HeadlineRow]) -> String {
    render_headline_table(rows)
}

/// Writes a serializable result next to the repository root (under
/// `target/experiment-results/`) so EXPERIMENTS.md can reference raw data.
///
/// Errors are printed rather than propagated: persisting results must never
/// fail a benchmark run.
pub fn persist_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = Path::new("target").join("experiment-results");
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(err) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {err}", path.display());
            }
        }
        Err(err) => eprintln!("warning: cannot serialize {name}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn effort_parsing_rejects_unknown_names() {
        assert_eq!(parse_effort("quick"), Ok(Effort::Quick));
        assert_eq!(parse_effort("SMOKE"), Ok(Effort::Quick));
        assert_eq!(parse_effort("full"), Ok(Effort::Full));
        assert_eq!(parse_effort("Full"), Ok(Effort::Full));
        for bad in ["anything", "43", "", "fast"] {
            assert!(parse_effort(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn effort_and_seed_positionals_are_validated() {
        let parse = |args: &[&str]| parse_cli(&cli(args)).effort_and_seed(1);
        // The CI invocations keep working.
        assert_eq!(parse(&["seeds", "--quick"]), Ok((Effort::Quick, 42)));
        assert_eq!(parse(&["all", "--quick"]), Ok((Effort::Quick, 42)));
        assert_eq!(parse(&["gc", "--quick"]), Ok((Effort::Quick, 42)));
        assert_eq!(parse(&["all"]), Ok((Effort::Full, 42)));
        assert_eq!(parse(&["all", "quick", "7"]), Ok((Effort::Quick, 7)));
        assert_eq!(parse(&["all", "full", "43"]), Ok((Effort::Full, 43)));
        // `--quick`/`--full` override a valid effort positional.
        assert_eq!(parse(&["all", "full", "--quick"]), Ok((Effort::Quick, 42)));
        // A seed in the effort slot, an unknown effort and an unparseable
        // seed are errors, not silent defaults.
        for bad in [
            vec!["all", "43"],
            vec!["all", "43", "--quick"],
            vec!["seeds", "fast"],
            vec!["all", "quick", "seven"],
            vec!["all", "quick", "-1"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} must be rejected");
        }
        // The table binary reads its effort from the first positional.
        let args = cli(&["quick", "9"]);
        assert_eq!(parse_cli(&args).effort_and_seed(0), Ok((Effort::Quick, 9)));
    }

    #[test]
    fn quick_flag_overrides_positionals() {
        let args = cli(&["seeds", "--quick", "7"]);
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["seeds", "7"]);
        assert_eq!(options.effort, Some(Effort::Quick));

        let args = cli(&["seeds", "full"]);
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["seeds", "full"]);
        assert_eq!(options.effort, None);
    }

    #[test]
    fn persistence_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = ["all", "--store", "target/s", "--resume", "--require-warm"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["all"]);
        assert_eq!(options.store.as_deref(), Some(Path::new("target/s")));
        assert!(options.resume && options.require_warm);
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--store=target/other"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.store.as_deref(), Some(Path::new("target/other")));

        let args: Vec<String> = ["--resume"].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err(), "resume needs a store");
    }

    #[test]
    fn unknown_flags_are_rejected_not_taken_as_positionals() {
        for bad in [
            vec!["all", "--float-accuracy"],
            vec!["seeds", "--quick", "--frobnicate"],
            vec!["--stor=target/s"],
        ] {
            let args = cli(&bad);
            let options = parse_cli(&args);
            let err = options.validate().expect_err("unknown flag");
            assert!(err.contains("unknown flag"), "{bad:?}: {err}");
            assert!(!options.positional.iter().any(|p| p.starts_with("--")));
        }
        // Short `-q` and a negative-looking positional are not `--` flags.
        assert!(parse_cli(&cli(&["all", "-q"])).validate().is_ok());
    }

    #[test]
    fn positionals_past_the_seed_are_rejected() {
        let parse = |args: &[&str]| parse_cli(&cli(args)).effort_and_seed(1);
        assert_eq!(parse(&["seeds", "quick", "3"]), Ok((Effort::Quick, 3)));
        let err = parse(&["seeds", "quick", "3", "extra"]).expect_err("extra positional");
        assert!(err.contains("'extra'"), "{err}");
        assert!(parse(&["all", "full", "43", "7"]).is_err());
    }

    #[test]
    fn a_seed_only_command_line_rejects_a_non_integer_seed() {
        // The perf_report form: `[--quick] [seed]`.
        let seed = |args: &[&str]| parse_cli(&cli(args)).seed(0);
        assert_eq!(seed(&["--quick"]), Ok(42));
        assert_eq!(seed(&["--quick", "7"]), Ok(7));
        assert!(seed(&["--quick", "4x"]).is_err());
        assert!(seed(&["7", "8"]).is_err());
    }

    #[test]
    fn objectives_flag_is_parsed_in_both_forms() {
        use pmlp_core::ObjectiveKind;
        let args: Vec<String> = ["all", "--objectives", "accuracy,area,energy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        let space = options.objectives.expect("parsed space");
        assert_eq!(
            space.objectives,
            vec![
                ObjectiveKind::AccuracyLoss,
                ObjectiveKind::Area,
                ObjectiveKind::EnergyPerInference
            ]
        );
        assert_eq!(options.positional, vec!["all"]);

        let args: Vec<String> = ["--objectives=accuracy,area,power,delay"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_cli(&args).objectives.unwrap().dim(), 4);
        assert!(parse_cli(&[]).objectives.is_none(), "defaults to classic");

        for bad in [
            vec!["--objectives"],
            vec!["--objectives", "--resume"],
            vec!["--objectives", "accuracy,sparkle"],
            vec!["--objectives", "accuracy,area,accuracy"],
            vec!["--objectives="],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn remote_store_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = ["all", "--remote-store", "http://127.0.0.1:7878"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(
            options.remote_store.as_deref(),
            Some("http://127.0.0.1:7878")
        );
        assert!(options.has_store());
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--remote-store=http://h:1", "--require-warm"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.remote_store.as_deref(), Some("http://h:1"));
        assert!(
            options.validate().is_ok(),
            "--require-warm works with a remote tier alone"
        );

        // Missing or empty URLs are parse errors.
        let args: Vec<String> = ["--remote-store"].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());
        let args: Vec<String> = ["--remote-store="].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());
        // A following flag is a forgotten value, not a URL.
        let args: Vec<String> = ["--remote-store", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_cli(&args).validate().is_err());
    }

    #[test]
    fn serve_tier_flags_are_parsed_in_both_forms() {
        let args: Vec<String> = [
            "0.0.0.0:7878",
            "--token",
            "sekrit",
            "--workers",
            "8",
            "--remote-timeout-ms",
            "2500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = parse_cli(&args);
        assert_eq!(options.positional, vec!["0.0.0.0:7878"]);
        assert_eq!(options.token.as_deref(), Some("sekrit"));
        assert_eq!(options.workers, Some(8));
        assert_eq!(options.remote_timeout_ms, Some(2500));
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--token=t0k", "--workers=4", "--remote-timeout-ms=100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.token.as_deref(), Some("t0k"));
        assert_eq!(options.workers, Some(4));
        assert_eq!(options.remote_timeout_ms, Some(100));

        // Missing values, non-numbers and zeros are rejected.
        for bad in [
            vec!["--token"],
            vec!["--workers", "lots"],
            vec!["--remote-timeout-ms"],
            vec!["--remote-timeout-ms", "soon"],
            vec!["--workers", "0"],
            vec!["--remote-timeout-ms", "0"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn durability_flag_is_parsed_in_both_forms() {
        use pmlp_core::store::DurabilityPolicy;
        let args: Vec<String> = ["--store", "target/s", "--durability", "sync-each-append"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert_eq!(options.durability, Some(DurabilityPolicy::SyncEachAppend));
        assert!(options.validate().is_ok());

        let args: Vec<String> = ["--durability=sync-on-seal"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_cli(&args).durability,
            Some(DurabilityPolicy::SyncOnSeal)
        );
        assert_eq!(parse_cli(&[]).durability, None, "defaults to buffered");

        for bad in [vec!["--durability"], vec!["--durability", "paranoid"]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn drain_timeout_flag_is_parsed_in_both_forms() {
        let args: Vec<String> = ["--drain-timeout-ms", "2500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_cli(&args).drain_timeout_ms, Some(2500));

        let args: Vec<String> = ["--drain-timeout-ms=100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_cli(&args).drain_timeout_ms, Some(100));
        assert_eq!(parse_cli(&[]).drain_timeout_ms, None);

        for bad in [
            vec!["--drain-timeout-ms"],
            vec!["--drain-timeout-ms", "soon"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_cli(&args).validate().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn open_backend_composes_the_selected_tiers() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-bench-backend-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let options = CliOptions {
            store: Some(dir.clone()),
            remote_store: Some("http://127.0.0.1:7878".into()),
            ..CliOptions::default()
        };
        let backend = options.open_backend().unwrap().unwrap();
        assert!(backend.describe().starts_with("tiered"));
        assert!(CliOptions::default().open_backend().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_store_flags_are_rejected_not_swallowed() {
        // `--store` followed by another flag must not eat the flag as a path.
        let args: Vec<String> = ["all", "--store", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_cli(&args);
        assert!(options.store.is_none());
        assert!(options.validate().is_err());

        // A trailing `--store` without a value is an error, not a silent
        // no-persistence run.
        let args: Vec<String> = ["all", "--quick", "--store"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_cli(&args).validate().is_err());

        let args: Vec<String> = ["--store="].iter().map(|s| s.to_string()).collect();
        assert!(parse_cli(&args).validate().is_err());
    }
}
