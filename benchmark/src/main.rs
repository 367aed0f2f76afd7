//! `ch-benchmark` — the workspace's single end-to-end benchmark.
//!
//! ```text
//! ch-benchmark --workload <city-day|fig5-campaign|serve-crash> --seed N
//!              --seconds S --trace <0|1> [--tiny] [--fig5-reference PATH]
//!              [--inputs DIR [--prepare]]
//! ```
//!
//! `--trace 0` repeats the workload for at least `S` wall seconds, checks
//! its output, and prints the end-to-end metrics. `--trace 1` runs the
//! workload once untraced and once through the benchmark's own layer-by-
//! layer re-drive, and prints the per-layer metrics plus the tracing
//! overhead. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `run.py` adds the
//! process's peak RSS (`rss_peak_mb`) to the `--trace 0` result.
//!
//! serve-crash reads its input stream from `--inputs DIR`, which an
//! earlier `--prepare --inputs DIR` process generated from the seed; the
//! other workloads build their inputs in-process and take neither flag.
//! `run.py` prepares in a separate process, so that generating the stream
//! does not count toward the measured run's peak memory, and removes
//! `DIR` afterwards.
//!
//! Everything is measured from outside the program: the benchmark calls
//! the public functions of the workspace crates and times the calls. It
//! never reads `CH_JOBS`/`CH_WORKER_CAP` (worker width is passed
//! explicitly) and never writes under `results/`; scratch files live in
//! `.bench_tmp/` and are removed on exit.

mod city;
mod fig5;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use ch_scenarios::{CampaignCtx, CityData};

/// Worker width every parallel workload runs at.
pub const WORKERS: usize = 2;
/// Set-ups timed before the first pass.
const SETUP_REPS: usize = 9;
/// After each timed pass, set-up is re-timed until this share of the
/// pass's wall time has been spent on it, so that `setup_s` samples the
/// host over the whole run and not only over its first second.
const SETUP_SHARE: f64 = 0.1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken configurations for the benchmark's own tests.
    pub tiny: bool,
    /// The committed Fig. 5 artifact the seed-1 campaign must reproduce.
    pub fig5_reference: PathBuf,
    /// Only generate serve-crash's input files into `inputs`, then exit.
    pub prepare: bool,
    /// serve-crash's pre-generated input directory.
    pub inputs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        fig5_reference: PathBuf::from("results/fig5.txt"),
        prepare: false,
        inputs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => args.tiny = true,
            "--fig5-reference" => args.fig5_reference = PathBuf::from(value()?),
            "--prepare" => args.prepare = true,
            "--inputs" => args.inputs = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Applies the failure rule: a run whose correctness check fails
    /// counts every one of its operations as failed.
    pub fn settle(&mut self, correct: bool, attempted: u64, failed: u64) {
        self.correct = correct;
        self.attempted = attempted.max(1);
        self.failed = if correct { failed } else { self.attempted };
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `pass` until at least `seconds` of wall time and `min_passes`
/// passes have gone by, calling `after` with each pass's wall seconds
/// (untimed); returns each pass's wall seconds and result.
pub fn measure<R>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> R,
    mut after: impl FnMut(f64),
) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = pass();
        let wall = t.elapsed().as_secs_f64();
        after(wall);
        out.push((wall, result));
    }
    out
}

/// Prints every pass's wall time and returns their median.
pub fn median_wall(walls: &[f64]) -> f64 {
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("# pass walls (s): {}", list.join(" "));
    stats::median(walls)
}

/// Wall times of repeated set-ups. A set-up is two timed steps: the
/// standard city, then the campaign context (or the service) built on it.
#[derive(Default)]
pub struct SetupTimes {
    pub first_s: Vec<f64>,
    pub second_s: Vec<f64>,
}

impl SetupTimes {
    /// Records one set-up's two steps, in seconds.
    pub fn push(&mut self, first_s: f64, second_s: f64) {
        self.first_s.push(first_s);
        self.second_s.push(second_s);
    }

    /// Times `reps` set-ups with `rep`, which returns its two steps' seconds.
    pub fn repeat(&mut self, reps: usize, mut rep: impl FnMut() -> (f64, f64)) {
        for _ in 0..reps {
            let (first, second) = rep();
            self.push(first, second);
        }
    }

    /// After a pass of `pass_s` seconds, re-times set-up with `rep` until
    /// [`SETUP_SHARE`] of `pass_s` has been spent on it (never for `--tiny`).
    pub fn after_pass(&mut self, args: &Args, pass_s: f64, mut rep: impl FnMut() -> (f64, f64)) {
        let budget = if args.tiny { 0.0 } else { SETUP_SHARE * pass_s };
        let mut spent = 0.0;
        while spent < budget {
            let (first, second) = rep();
            self.push(first, second);
            spent += first + second;
        }
    }

    /// Prints each set-up's wall time and returns their median in seconds.
    pub fn median_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .first_s
            .iter()
            .zip(&self.second_s)
            .map(|(a, b)| a + b)
            .collect();
        let list: Vec<String> = totals.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
        println!("# set-up walls (ms): {}", list.join(" "));
        stats::median(&totals)
    }

    /// The `setup.*` per-layer metrics (for serve-crash the second step is
    /// `Service::new`).
    pub fn layer_metrics(&self, layers: &mut trace::Layers) {
        layers.set("setup.city_data_ms", stats::median(&self.first_s) * 1e3);
        layers.set("setup.campaign_ctx_ms", stats::median(&self.second_s) * 1e3);
    }
}

/// Set-ups timed before the first pass of a run.
pub fn setup_reps(args: &Args) -> usize {
    if args.tiny {
        1
    } else {
        SETUP_REPS
    }
}

/// One timed set-up of the shared campaign context: the context and the
/// seconds of `CityData::standard` and of `CampaignCtx::build`.
fn build_ctx() -> (CampaignCtx, f64, f64) {
    let t = Instant::now();
    let data = CityData::standard(ch_scenarios::experiments::CITY_SEED);
    let city_data_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ctx = CampaignCtx::build(&data);
    (ctx, city_data_s, t.elapsed().as_secs_f64())
}

/// The shared campaign context of city-day and fig5-campaign, with the
/// timings of every set-up made in the run.
pub struct CtxSetup {
    pub ctx: CampaignCtx,
    pub times: SetupTimes,
}

impl CtxSetup {
    /// Builds the context [`setup_reps`] times, timing each set-up, and
    /// keeps the first.
    pub fn build(args: &Args) -> CtxSetup {
        let (ctx, first, second) = build_ctx();
        let mut times = SetupTimes::default();
        times.push(first, second);
        times.repeat(setup_reps(args) - 1, || {
            let (_, a, b) = build_ctx();
            (a, b)
        });
        CtxSetup { ctx, times }
    }
}

/// Re-times set-up after a pass of `pass_s` seconds (see [`SETUP_SHARE`]).
pub fn ctx_after_pass(times: &mut SetupTimes, args: &Args, pass_s: f64) {
    times.after_pass(args, pass_s, || {
        let (_, a, b) = build_ctx();
        (a, b)
    });
}

/// A scratch directory under `.bench_tmp/`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while a
        // concurrent run still owns a sibling directory).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ch-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if args.prepare {
        let prepared = match args.workload.as_str() {
            "serve-crash" => serve::prepare(&args),
            other => Err(format!("workload `{other}` has no inputs to prepare")),
        };
        if let Err(e) = prepared {
            eprintln!("ch-benchmark: {e}");
            std::process::exit(1);
        }
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# ch-benchmark: workload {} | seed {} | {} s | trace {} | nproc {} | workers {} requested, {} effective",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        WORKERS,
        WORKERS.min(ch_fleet::worker_cap()),
    );
    let result = match args.workload.as_str() {
        "city-day" => city::run(&args),
        "fig5-campaign" => fig5::run(&args),
        "serve-crash" => serve::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (city-day, fig5-campaign, serve-crash)"
        )),
    };
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "fail_ratio {} ({} failed / {} attempted), correct {}",
                outcome.failed as f64 / outcome.attempted as f64,
                outcome.failed,
                outcome.attempted,
                outcome.correct
            );
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("ch-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
