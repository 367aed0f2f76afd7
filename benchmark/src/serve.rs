//! `serve-crash`: the first 18,000 events of a canteen City-Hunter
//! stream, generated from the seed during set-up and written as
//! `ch-serve-v1` NDJSON, served by `serve_to_files` with an output file, a
//! report and a checkpoint every 256 events. Each pass "kills" the
//! service — a prefix run leaves its checkpoint and output behind, plus a
//! torn half-written line — and a second call on the full stream recovers
//! warm. The recovered output stream and report must be byte-identical to
//! an uninterrupted run of the same seed.
//!
//! The kill point is keyed to the service's state, not to an event count:
//! half a checkpoint interval after the first checkpoint that renders to
//! at least [`KILL_CHECKPOINT_BYTES`]. Restore cost grows faster than
//! linearly with the checkpoint (`checkpoint::load` parses it in
//! quadratic time). Killed at the stream's midpoint instead, seeds
//! restored 1.05–1.32 MB and one pass took 16.7–21.9 s, of which the
//! restore alone was 11–18 s and moved by 40 % with the host's cache
//! contention. At a fixed checkpoint size every seed restores the same
//! amount of state, and the restore no longer crowds out the other layers.
//!
//! The traced run re-drives the calls `serve_to_files` makes — NDJSON
//! decode, `Service::process`, `encode_output`, output writes, checkpoint
//! render/write and restore — and times each layer.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ch_attack::{AttackerSpec, CityHunterConfig};
use ch_fleet::Json;
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::{CityData, RunConfig};
use ch_serve::protocol::{decode_input, encode_input, encode_output};
use ch_serve::{
    checkpoint, serve_to_files, EventSource, OutputEvent, ServeConfig, Service, ServiceStats,
};
use ch_sim::SimDuration;

use crate::stats::{ns_u32, percentile_sorted, ratio};
use crate::trace::{Layers, Tracer};
use crate::{median_wall, setup_reps, Args, Outcome, SetupTimes, TempDir};

/// A torn final record, as a process killed mid-`write` leaves it.
const TORN_TAIL: &[u8] = b"{\"v\":\"ch-serve-v1\",\"kind\":\"lure\",\"t_us\":12";

/// Input events served per pass.
const STREAM_EVENTS: usize = 18_000;
/// Simulated minutes generated: 60-minute streams held 18.8k–22.4k events.
const STREAM_MINUTES: u64 = 75;
/// Rendered checkpoint size the service is killed at.
const KILL_CHECKPOINT_BYTES: usize = 500_000;

fn spec() -> AttackerSpec {
    AttackerSpec::CityHunter(CityHunterConfig::default())
}

/// Everything a pass needs: the city, the input files and the expected
/// bytes of an uninterrupted run.
struct Fixture {
    data: CityData,
    config: ServeConfig,
    full: PathBuf,
    half: PathBuf,
    events: usize,
    mid: usize,
    out: PathBuf,
    report: PathBuf,
    ref_out: PathBuf,
    ref_report: PathBuf,
    setup: SetupTimes,
    _tmp: TempDir,
}

fn write_ndjson(path: &Path, events: &[ch_serve::InputEvent]) -> Result<(), String> {
    let mut text = String::new();
    for event in events {
        text.push_str(&encode_input(event));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Byte-compares two files in fixed-size chunks, so checking a 50 MB
/// output stream does not inflate the run's peak memory.
fn same_bytes(a: &Path, b: &Path) -> Result<bool, String> {
    use std::io::{BufRead, BufReader};
    let open = |p: &Path| {
        File::open(p)
            .map(|f| BufReader::with_capacity(1 << 16, f))
            .map_err(|e| format!("open {}: {e}", p.display()))
    };
    let (mut a, mut b) = (open(a)?, open(b)?);
    loop {
        let chunk_a = io("read", a.fill_buf())?;
        let chunk_b = io("read", b.fill_buf())?;
        let n = chunk_a.len().min(chunk_b.len());
        if n == 0 {
            return Ok(chunk_a.is_empty() && chunk_b.is_empty());
        }
        if chunk_a[..n] != chunk_b[..n] {
            return Ok(false);
        }
        a.consume(n);
        b.consume(n);
    }
}

/// The kill index: half a checkpoint interval past the first checkpoint
/// that renders to at least `bytes`.
fn kill_point(
    data: &CityData,
    config: &ServeConfig,
    source: &EventSource,
    bytes: usize,
) -> Result<usize, String> {
    let every = config.checkpoint_every;
    let mut service = Service::new(data, config.clone());
    let mut emit = Vec::new();
    for event in source.events() {
        service.process(event, &mut emit);
        let acked = service.acked();
        if acked.is_multiple_of(every) && checkpoint::to_json(&service, 0).render().len() >= bytes {
            return usize::try_from(acked + every / 2).map_err(|e| e.to_string());
        }
    }
    Err(format!(
        "the stream never reached a {bytes} byte checkpoint"
    ))
}

fn count_lines(path: &Path) -> Result<usize, String> {
    Ok(read(path)?.iter().filter(|&&b| b == b'\n').count())
}

/// `--prepare --inputs DIR`: generates the seed's stream and writes the
/// full and the killed-prefix inputs into `DIR`.
pub fn prepare(args: &Args) -> Result<(), String> {
    let dir = args.inputs.as_ref().ok_or("--prepare needs --inputs DIR")?;
    let (minutes, events, kill_bytes) = if args.tiny {
        (15, 1_000, 200_000)
    } else {
        (STREAM_MINUTES, STREAM_EVENTS, KILL_CHECKPOINT_BYTES)
    };
    let data = CityData::standard(CITY_SEED);
    let mut run = RunConfig::canteen_30min(spec(), args.seed);
    run.duration = SimDuration::from_mins(minutes);
    let source = EventSource::from_sim(&data, &run);
    let events = source
        .events()
        .get(..events)
        .ok_or_else(|| format!("seed {} streams fewer than {events} events", args.seed))?;
    let source = EventSource::from_events(events.to_vec());
    let config = ServeConfig::new(spec(), CITY_SEED);
    let mid = kill_point(&data, &config, &source, kill_bytes)?;
    if mid >= events.len() {
        return Err(format!(
            "seed {} is killed past its stream's end",
            args.seed
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write_ndjson(&dir.join("input.ndjson"), events)?;
    write_ndjson(&dir.join("input-half.ndjson"), &events[..mid])
}

/// One timed set-up: the city and the seconds of `CityData::standard`
/// and of `Service::new`. The city is the standard one every experiment
/// shares (`ServeConfig::seed` names the city); the workload seed drives
/// the stream alone.
fn build_service() -> (CityData, f64, f64) {
    let t = Instant::now();
    let data = CityData::standard(CITY_SEED);
    let city_data_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let service = Service::new(&data, ServeConfig::new(spec(), CITY_SEED));
    let service_s = t.elapsed().as_secs_f64();
    drop(service);
    (data, city_data_s, service_s)
}

fn timed_setup() -> (f64, f64) {
    let (_, city_data_s, service_s) = build_service();
    (city_data_s, service_s)
}

fn fixture(args: &Args) -> Result<Fixture, String> {
    // Set-up proper, timed several times; the first city is kept.
    let (data, first, second) = build_service();
    let mut setup = SetupTimes::default();
    setup.push(first, second);
    setup.repeat(setup_reps(args) - 1, timed_setup);

    // The input stream, generated from the seed by an earlier `--prepare`
    // process, so the generator's memory stays out of this run's peak RSS.
    let dir = args
        .inputs
        .as_ref()
        .ok_or("serve-crash needs --inputs DIR, written by --prepare")?;
    let tmp = TempDir::new("serve-crash").map_err(|e| format!("temp dir: {e}"))?;
    let full = dir.join("input.ndjson");
    let half = dir.join("input-half.ndjson");
    let events = count_lines(&full)?;
    let mid = count_lines(&half)?;
    let mut config = ServeConfig::new(spec(), CITY_SEED);
    config.checkpoint_path = Some(tmp.path("service.checkpoint"));

    // The uninterrupted reference run.
    let ref_out = tmp.path("reference.out.ndjson");
    let ref_report = tmp.path("reference.report.json");
    let ref_config = ServeConfig {
        checkpoint_path: Some(tmp.path("reference.checkpoint")),
        ..config.clone()
    };
    let source = EventSource::from_ndjson(&full)?;
    serve_to_files(
        &data,
        &ref_config,
        &source,
        Some(&ref_out),
        Some(&ref_report),
    )?;
    Ok(Fixture {
        data,
        full,
        half,
        events,
        mid,
        out: tmp.path("out.ndjson"),
        report: tmp.path("report.json"),
        ref_out,
        ref_report,
        config,
        setup,
        _tmp: tmp,
    })
}

impl Fixture {
    fn checkpoint_path(&self) -> &Path {
        self.config
            .checkpoint_path
            .as_deref()
            .expect("the fixture always configures a checkpoint")
    }

    fn clean(&self) {
        for path in [
            &self.out,
            &self.report,
            &self.checkpoint_path().to_path_buf(),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    fn tear_output(&self) -> Result<(), String> {
        let mut file = OpenOptions::new()
            .append(true)
            .open(&self.out)
            .map_err(|e| format!("open output: {e}"))?;
        file.write_all(TORN_TAIL)
            .map_err(|e| format!("tear output: {e}"))
    }
}

/// What one kill-and-recover pass produced.
struct Pass {
    /// Size of the checkpoint the recovery restored from.
    checkpoint_bytes: u64,
    stats: ServiceStats,
    /// Recovered warm, from a mid-stream checkpoint, without a cold fallback.
    warm: bool,
}

/// One timed pass: source read → prefix run → kill → recovery → report.
fn kill_and_recover(fx: &Fixture) -> Result<Pass, String> {
    let half = EventSource::from_ndjson(&fx.half)?;
    serve_to_files(&fx.data, &fx.config, &half, Some(&fx.out), None)?;
    fx.tear_output()?;
    let full = EventSource::from_ndjson(&fx.full)?;
    let checkpoint_bytes = std::fs::metadata(fx.checkpoint_path()).map_or(0, |m| m.len());
    let summary = serve_to_files(&fx.data, &fx.config, &full, Some(&fx.out), Some(&fx.report))?;
    Ok(Pass {
        checkpoint_bytes,
        stats: summary.stats,
        warm: summary.recovered && !summary.cold_fallback && summary.resumed_at > 0,
    })
}

/// Runs passes for at least `seconds` and `min` passes; returns each
/// pass's wall seconds, whether every output matched, and failed events.
/// Set-up is re-timed after each pass (see `SetupTimes::after_pass`).
fn passes(
    fx: &mut Fixture,
    args: &Args,
    seconds: f64,
    min: usize,
) -> Result<(Vec<f64>, bool, u64), String> {
    let mut walls = Vec::new();
    let mut correct = true;
    let mut failed = 0;
    let start = Instant::now();
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        fx.clean();
        let t = Instant::now();
        let pass = kill_and_recover(fx)?;
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        if walls.len() == 1 {
            println!(
                "# recovery restored a {} byte checkpoint",
                pass.checkpoint_bytes
            );
        }
        failed += pass.stats.shed + pass.stats.deadline_misses;
        correct &= pass.warm
            && same_bytes(&fx.out, &fx.ref_out)?
            && same_bytes(&fx.report, &fx.ref_report)?;
        fx.setup.after_pass(args, wall, timed_setup);
    }
    fx.clean();
    Ok((walls, correct, failed))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut fx = fixture(args)?;
    println!(
        "# serve-crash: {} input events, kill at event {}, reference output {} bytes",
        fx.events,
        fx.mid,
        std::fs::metadata(&fx.ref_out).map_or(0, |m| m.len())
    );
    if args.trace {
        return traced(args, &mut fx);
    }
    // One pass already takes longer than most measurement windows.
    let (walls, correct, failed) = passes(&mut fx, args, args.seconds, 1)?;
    let wall = median_wall(&walls);
    println!(
        "# serve-crash: {} passes, recovered output and report identical to uninterrupted run: {correct}",
        walls.len()
    );
    println!("serve.events_per_s {} 1/s", fx.events as f64 / wall);
    let mut out = Outcome::default();
    out.settle(correct, (fx.events * walls.len()) as u64, failed);
    out.push("setup_s", fx.setup.median_s(), "s");
    out.push("makespan_s", wall, "s");
    Ok(out)
}

/// Layer self times of the re-drive, nanoseconds.
#[derive(Default)]
struct ServeLayers {
    decode: u64,
    process: Vec<u32>,
    encode: u64,
    lines: u64,
    write: u64,
    out_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    render: u64,
    cp_write: u64,
    restore: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Writes one wire line the way `serve_to_files` does.
fn write_line(file: &mut File, line: &str, acc: &mut ServeLayers) -> Result<(), String> {
    let t = Instant::now();
    io("write output", file.write_all(line.as_bytes()))?;
    io("write output", file.write_all(b"\n"))?;
    acc.write += elapsed_ns(t);
    acc.out_bytes += line.len() as u64 + 1;
    Ok(())
}

/// Feeds `events[range]` through the service, writing and
/// checkpointing exactly as `serve_to_files` does.
#[allow(clippy::too_many_arguments)]
fn drive(
    fx: &Fixture,
    service: &mut Service,
    events: &[ch_serve::InputEvent],
    range: std::ops::Range<usize>,
    file: &mut File,
    acc: &mut ServeLayers,
    tracer: &Tracer,
    half: usize,
) -> Result<(), String> {
    let every = fx.config.checkpoint_every;
    let mut emit = Vec::new();
    for event in &events[range] {
        let t = Instant::now();
        service.process(event, &mut emit);
        acc.process.push(ns_u32(elapsed_ns(t)));
        for output in &emit {
            let t = Instant::now();
            let line = encode_output(output);
            acc.encode += elapsed_ns(t);
            acc.lines += 1;
            write_line(file, &line, acc)?;
        }
        let acked = service.acked();
        if every > 0 && acked.is_multiple_of(every) {
            let span = tracer.open("checkpoint", format!("acked{acked}"), Some(half));
            let line = encode_output(&OutputEvent::Checkpoint {
                t_us: service.clock_us(),
                acked,
            });
            write_line(file, &line, acc)?;
            let t = Instant::now();
            io("sync output", file.sync_data())?;
            acc.write += elapsed_ns(t);
            let t = Instant::now();
            let rendered = checkpoint::to_json(service, acc.out_bytes).render();
            acc.render += elapsed_ns(t);
            let t = Instant::now();
            let path = fx.checkpoint_path();
            let tmp = path.with_extension("tmp");
            io("write checkpoint", std::fs::write(&tmp, &rendered))?;
            io("rename checkpoint", std::fs::rename(&tmp, path))?;
            acc.cp_write += elapsed_ns(t);
            acc.checkpoints += 1;
            acc.checkpoint_bytes += rendered.len() as u64;
            tracer.close(span);
        }
    }
    Ok(())
}

/// The layer re-drive of one kill-and-recover pass. Returns the service
/// (for its modeled latency and counters) and the layer times.
fn redrive(fx: &Fixture, tracer: &Tracer) -> Result<(Service, ServeLayers, f64), String> {
    let mut acc = ServeLayers::default();
    fx.clean();
    let start = Instant::now();
    let text = io("read input", std::fs::read_to_string(&fx.full))?;
    let t = Instant::now();
    let events = text
        .lines()
        .map(decode_input)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("decode input: {e:?}"))?;
    acc.decode = elapsed_ns(t);

    let prefix = tracer.open("serve-half", "prefix", None);
    let mut service = Service::new(&fx.data, fx.config.clone());
    let mut file = io("create output", File::create(&fx.out))?;
    drive(
        fx,
        &mut service,
        &events,
        0..fx.mid,
        &mut file,
        &mut acc,
        tracer,
        prefix,
    )?;
    drop(service);
    drop(file);
    fx.tear_output()?;
    tracer.close(prefix);

    let recovery = tracer.open("serve-half", "recovery", None);
    let span = tracer.open("restore", "checkpoint", Some(recovery));
    let t = Instant::now();
    let saved = checkpoint::load(fx.checkpoint_path())?.ok_or("no checkpoint was written")?;
    let load_ns = elapsed_ns(t);
    let mut service = Service::new(&fx.data, fx.config.clone());
    let point = checkpoint::restore(&mut service, &saved)?;
    acc.restore = elapsed_ns(t);
    println!(
        "# restore: load+parse {:.1} ms, rebuild+apply {:.1} ms",
        load_ns as f64 / 1e6,
        (acc.restore - load_ns) as f64 / 1e6
    );
    tracer.close(span);
    let t = Instant::now();
    let mut file = io(
        "reopen output",
        OpenOptions::new().read(true).write(true).open(&fx.out),
    )?;
    io("truncate output", file.set_len(point.out_bytes))?;
    io("seek output", file.seek(SeekFrom::End(0)))?;
    acc.write += elapsed_ns(t);
    acc.out_bytes = point.out_bytes;
    let from = usize::try_from(point.acked).map_err(|e| format!("acked offset: {e}"))?;
    drive(
        fx,
        &mut service,
        &events,
        from..events.len(),
        &mut file,
        &mut acc,
        tracer,
        recovery,
    )?;
    let t = Instant::now();
    io("sync output", file.sync_data())?;
    let mut report = service.report().render();
    report.push('\n');
    let tmp = fx.report.with_extension("tmp");
    io("write report", std::fs::write(&tmp, &report))?;
    io("rename report", std::fs::rename(&tmp, &fx.report))?;
    acc.write += elapsed_ns(t);
    tracer.close(recovery);
    Ok((service, acc, start.elapsed().as_secs_f64()))
}

fn traced(args: &Args, fx: &mut Fixture) -> Result<Outcome, String> {
    let (walls, untraced_ok, failed) = passes(fx, args, 0.0, 1)?;
    let tracer = Tracer::new();
    let (service, mut acc, wall_s) = redrive(fx, &tracer)?;
    crate::trace::write_spans(&tracer, args);

    // Oracles: the re-drive's output stream is byte-identical to the
    // uninterrupted reference, and its counters and modeled latency agree
    // with the reference report (the checkpoint count aside: the re-drive
    // cannot bump the service's private counter).
    let same_output = same_bytes(&fx.out, &fx.ref_out)?;
    let ref_report = read(&fx.ref_report)?;
    let reference = Json::parse(String::from_utf8_lossy(&ref_report).trim())
        .map_err(|e| format!("parse reference report: {e}"))?;
    let ref_stats = reference
        .get("stats")
        .ok_or("reference report has no stats")
        .and_then(|s| ServiceStats::from_json(s).map_err(|_| "reference stats malformed"))?;
    let stats = ServiceStats {
        checkpoints: ref_stats.checkpoints,
        ..*service.stats()
    };
    let modeled_p50 = service.latency_percentile_us(50.0);
    let modeled_p99 = service.latency_percentile_us(99.0);
    let ref_u64 = |key: &str| reference.get(key).and_then(Json::as_u64);
    let same_report = stats == ref_stats
        && ref_u64("p50_us") == Some(modeled_p50)
        && ref_u64("p99_us") == Some(modeled_p99);
    fx.clean();
    println!(
        "# oracle: re-driven output == uninterrupted output: {same_output}; counters and modeled p50/p99 == reference report: {same_report}"
    );

    let lines = fx.events as f64;
    let process_ns: u64 = acc.process.iter().map(|&n| u64::from(n)).sum();
    acc.process.sort_unstable();
    let attributed =
        acc.decode + process_ns + acc.encode + acc.write + acc.render + acc.cp_write + acc.restore;
    let mut layers = Layers::default();
    fx.setup.layer_metrics(&mut layers);
    layers.set("serve.decode_ns_per_line", ratio(acc.decode as f64, lines));
    layers.set(
        "serve.process_ns.p50",
        percentile_sorted(&acc.process, 50.0),
    );
    layers.set(
        "serve.process_ns.p99",
        percentile_sorted(&acc.process, 99.0),
    );
    layers.set("serve.modeled_p50_us", modeled_p50 as f64);
    layers.set("serve.modeled_p99_us", modeled_p99 as f64);
    layers.set(
        "serve.encode_ns_per_line",
        ratio(acc.encode as f64, acc.lines as f64),
    );
    layers.set("serve.out_mb", acc.out_bytes as f64 / 1e6);
    layers.set("serve.write_ms", acc.write as f64 / 1e6);
    layers.set("checkpoint.count", acc.checkpoints as f64);
    layers.set("checkpoint.mb_total", acc.checkpoint_bytes as f64 / 1e6);
    layers.set("checkpoint.render_ms", acc.render as f64 / 1e6);
    layers.set("checkpoint.write_ms", acc.cp_write as f64 / 1e6);
    layers.set("checkpoint.restore_ms", acc.restore as f64 / 1e6);
    layers.set("trace.overhead_ratio", wall_s / walls[0]);
    layers.set("trace.coverage", attributed as f64 / (wall_s * 1e9));

    let mut out = Outcome::default();
    out.settle(
        untraced_ok && same_output && same_report,
        fx.events as u64,
        failed,
    );
    layers.finish(&mut out);
    Ok(out)
}
