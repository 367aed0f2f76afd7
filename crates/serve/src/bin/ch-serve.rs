//! `ch-serve` — run an attacker as a crash-safe streaming service.
//!
//! ```text
//! ch-serve --attacker cityhunter --source sim --seed 7 \
//!          --out lures.ndjson --report report.json \
//!          --checkpoint serve.ckpt --checkpoint-every 64
//! ```
//!
//! Kill it (`kill -9`) at any instant and rerun the identical command:
//! the service restarts warm from the last committed checkpoint, replays
//! the remainder of the stream, and the final report and output stream
//! are byte-identical to an uninterrupted run's. `--abort-after-events N`
//! kills it the same way at an exact event count. Status and recovery
//! notes go to stderr; wire output and the report go to the configured
//! files.

use std::path::PathBuf;
use std::process::ExitCode;

use ch_attack::{AttackerSpec, CityHunterConfig, EvasionSpec};
use ch_mobility::VenueKind;
use ch_scenarios::{CityData, RunConfig};
use ch_serve::{serve_to_files, EventSource, ServeConfig};
use ch_sim::SimDuration;

const USAGE: &str = "\
ch-serve: crash-safe streaming attacker service (ch-serve-v1)

USAGE: ch-serve [FLAGS]

  --attacker KIND      karma | mana | prelim | cityhunter  [cityhunter]
  --evasive            wrap the attacker with rotation + beacon cloning
  --source SRC         sim | pcap:PATH | ndjson:PATH       [sim]
  --seed N             master seed (city + attacker + sim)  [7]
  --venue V            canteen | passage | mall | railway   [canteen]
  --duration-mins N    sim-source stream length             [30]
  --compress N         divide stream timestamps by N (overload) [1]
  --out PATH           wire output stream (NDJSON)
  --report PATH        final report (JSON)
  --checkpoint PATH    checkpoint file (enables recovery)
  --checkpoint-every N checkpoint every N acked events      [256]
  --stats-every N      emit a stats wire event every N      [0 = off]
  --ring N             ingest ring capacity                 [64]
  --deadline-us N      per-event latency deadline           [100000]
  --throttle-ms N      wall-clock sleep per event (chaos)   [0]
  --abort-after-events N  abort the process once N events are acked
                       (deterministic kill point, as kill -9) [off]
  --help               this text
";

struct Options {
    attacker: String,
    evasive: bool,
    source: String,
    seed: u64,
    venue: String,
    duration_mins: u64,
    compress: u64,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    stats_every: u64,
    ring: usize,
    deadline_us: u64,
    throttle_ms: u64,
    abort_after_events: Option<u64>,
}

impl Options {
    fn defaults() -> Options {
        Options {
            attacker: "cityhunter".to_string(),
            evasive: false,
            source: "sim".to_string(),
            seed: 7,
            venue: "canteen".to_string(),
            duration_mins: 30,
            compress: 1,
            out: None,
            report: None,
            checkpoint: None,
            checkpoint_every: 256,
            stats_every: 0,
            ring: 64,
            deadline_us: 100_000,
            throttle_ms: 0,
            abort_after_events: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::defaults();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--evasive" => opts.evasive = true,
            "--attacker" => opts.attacker = value("--attacker")?.clone(),
            "--source" => opts.source = value("--source")?.clone(),
            "--venue" => opts.venue = value("--venue")?.clone(),
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--seed" => opts.seed = parse_num(value("--seed")?, "--seed")?,
            "--duration-mins" => {
                opts.duration_mins = parse_num(value("--duration-mins")?, "--duration-mins")?;
            }
            "--compress" => opts.compress = parse_num(value("--compress")?, "--compress")?,
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    parse_num(value("--checkpoint-every")?, "--checkpoint-every")?;
            }
            "--stats-every" => {
                opts.stats_every = parse_num(value("--stats-every")?, "--stats-every")?;
            }
            "--ring" => {
                opts.ring = usize::try_from(parse_num(value("--ring")?, "--ring")?)
                    .map_err(|_| "--ring out of range".to_string())?;
            }
            "--deadline-us" => {
                opts.deadline_us = parse_num(value("--deadline-us")?, "--deadline-us")?;
            }
            "--throttle-ms" => {
                opts.throttle_ms = parse_num(value("--throttle-ms")?, "--throttle-ms")?;
            }
            "--abort-after-events" => {
                opts.abort_after_events = Some(parse_num(
                    value("--abort-after-events")?,
                    "--abort-after-events",
                )?);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn parse_num(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a number"))
}

fn parse_attacker(name: &str, evasive: bool) -> Result<AttackerSpec, String> {
    let base = match name {
        "karma" => AttackerSpec::Karma,
        "mana" => AttackerSpec::Mana,
        "prelim" => AttackerSpec::Prelim,
        "cityhunter" => AttackerSpec::CityHunter(CityHunterConfig::default()),
        other => return Err(format!("unknown attacker `{other}` (try --help)")),
    };
    if evasive {
        Ok(AttackerSpec::Evasive {
            base: Box::new(base),
            evasion: EvasionSpec {
                rotation: Some(ch_attack::RotationSpec {
                    period: SimDuration::from_mins(5),
                }),
                beacon_clone: true,
                throttle: None,
            },
        })
    } else {
        Ok(base)
    }
}

fn parse_venue(name: &str) -> Result<VenueKind, String> {
    Ok(match name {
        "canteen" => VenueKind::Canteen,
        "passage" => VenueKind::SubwayPassage,
        "mall" => VenueKind::ShoppingCenter,
        "railway" => VenueKind::RailwayStation,
        other => return Err(format!("unknown venue `{other}` (try --help)")),
    })
}

fn build_source(
    opts: &Options,
    data: &CityData,
    spec: &AttackerSpec,
    venue: VenueKind,
) -> Result<EventSource, String> {
    let source = match opts.source.as_str() {
        "sim" => {
            let mut run = RunConfig::canteen_30min(spec.clone(), opts.seed);
            run.venue = venue;
            run.duration = SimDuration::from_mins(opts.duration_mins);
            EventSource::from_sim(data, &run)
        }
        other => match other.split_once(':') {
            Some(("pcap", path)) => EventSource::from_pcap(std::path::Path::new(path))?,
            Some(("ndjson", path)) => EventSource::from_ndjson(std::path::Path::new(path))?,
            _ => return Err(format!("unknown source `{other}` (try --help)")),
        },
    };
    Ok(source.with_time_compressed(opts.compress))
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(opts) = parse_args(args)? else {
        println!("{USAGE}");
        return Ok(false);
    };
    let spec = parse_attacker(&opts.attacker, opts.evasive)?;
    let venue = parse_venue(&opts.venue)?;
    let data = CityData::standard(opts.seed);
    let source = build_source(&opts, &data, &spec, venue)?;
    eprintln!(
        "ch-serve: {} events from source `{}` ({} malformed skipped{})",
        source.len(),
        opts.source,
        source.malformed,
        if source.truncated { ", torn tail" } else { "" },
    );

    let mut config = ServeConfig::new(spec, opts.seed);
    config.venue = venue;
    config.ring_capacity = opts.ring;
    config.deadline_us = opts.deadline_us;
    config.checkpoint_every = opts.checkpoint_every;
    config.checkpoint_path = opts.checkpoint.clone();
    config.stats_every = opts.stats_every;
    config.throttle_ms = opts.throttle_ms;
    config.abort_after_events = opts.abort_after_events;

    let summary = serve_to_files(
        &data,
        &config,
        &source,
        opts.out.as_deref(),
        opts.report.as_deref(),
    )?;
    if summary.cold_fallback {
        eprintln!("ch-serve: cold start (checkpoint was unusable)");
    }
    eprintln!("ch-serve: done: {}", summary.stats.render_line());
    if let Some(report) = &opts.report {
        eprintln!("ch-serve: report at {}", report.display());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ch-serve: error: {message}");
            ExitCode::FAILURE
        }
    }
}
