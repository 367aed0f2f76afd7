//! `fig5-campaign`: `experiments::campaign_fleet` runs the 48-job Fig. 5
//! campaign (4 venues × 12 hours, City-Hunter, one hour per job) on two
//! workers from `FleetOptions::in_memory`, so no manifest is ever read.
//!
//! Correctness: the seed-1 campaign must render byte-identical to the
//! committed `results/fig5.txt` (checked in every run, whatever the
//! workload seed), and every pass of the run must render identically.
//!
//! The traced run re-drives the same 48 jobs through
//! `ch_fleet::run_campaign_scoped` with `run_experiment_with_attacker`
//! and a timing wrapper around the attacker, and records frames from one
//! job per venue with `CollectingObserver` to time the 802.11 codec.

use std::sync::Mutex;
use std::time::Instant;

use ch_fleet::{run_campaign_scoped, FleetOptions, JobStatus};
use ch_mobility::VenueKind;
use ch_scenarios::experiments::{campaign_fleet, campaign_jobs, CampaignOutcome};
use ch_scenarios::runner::run_experiment_with_attacker;
use ch_scenarios::{
    run_experiment_observed, CampaignCtx, CampaignJob, CollectingObserver, JobRecord, SummaryRow,
};
use ch_sim::SimDuration;
use ch_wifi::codec;

use crate::stats::{percentile_sorted, ratio};
use crate::trace::{AttackSamples, Layers, TimedAttacker, Tracer};
use crate::{ctx_after_pass, measure, median_wall, Args, CtxSetup, Outcome, WORKERS};

/// The paper's campaign: hours 8..=19, one-hour tests.
fn full_hours() -> Vec<usize> {
    (8..20).collect()
}

fn shape(args: &Args) -> (Vec<usize>, SimDuration) {
    if args.tiny {
        (vec![8, 12], SimDuration::from_mins(10))
    } else {
        (full_hours(), SimDuration::from_hours(1))
    }
}

fn options() -> FleetOptions {
    FleetOptions::in_memory("fig5", 0).with_jobs(Some(WORKERS))
}

/// The campaign plus its rendered figure, exactly as the `fig5` artifact
/// is written (render body plus one trailing newline).
fn campaign(
    ctx: &CampaignCtx,
    seed: u64,
    hours: &[usize],
    duration: SimDuration,
) -> Result<(CampaignOutcome, String), String> {
    let (outcome, stats) = campaign_fleet(ctx, seed, hours, duration, &options())?;
    if stats.failed > 0 {
        return Err(format!("{} fig5 job(s) failed", stats.failed));
    }
    let text = format!("{}\n", outcome.render_fig5());
    Ok((outcome, text))
}

/// Checks the seed-1 campaign against the committed artifact.
fn reference_matches(args: &Args, setup: &CtxSetup) -> Result<bool, String> {
    let expected = std::fs::read_to_string(&args.fig5_reference).map_err(|e| {
        format!(
            "read fig5 reference `{}`: {e}",
            args.fig5_reference.display()
        )
    })?;
    let (_, text) = campaign(&setup.ctx, 1, &full_hours(), SimDuration::from_hours(1))?;
    Ok(text == expected)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = CtxSetup::build(args);
    let reference_ok = reference_matches(args, &setup)?;
    println!(
        "# fig5 seed-1 render == {}: {reference_ok}",
        args.fig5_reference.display()
    );
    if args.trace {
        return traced(args, &setup, reference_ok);
    }
    let (hours, duration) = shape(args);
    let jobs_per_pass = (hours.len() * VenueKind::ALL.len()) as u64;
    let (ctx, times) = (&setup.ctx, &mut setup.times);
    let passes = measure(
        args.seconds,
        2,
        || campaign(ctx, args.seed, &hours, duration),
        |pass_s| ctx_after_pass(times, args, pass_s),
    );
    let mut failed = 0;
    let mut texts = Vec::new();
    for (_, pass) in &passes {
        match pass {
            Ok((_, text)) => texts.push(text),
            Err(e) => {
                eprintln!("ch-benchmark: {e}");
                failed += jobs_per_pass;
            }
        }
    }
    let consistent = texts.windows(2).all(|w| w[0] == w[1]);
    if let Some((_, Ok((outcome, _)))) = passes.first() {
        let clients: usize = outcome
            .venues
            .iter()
            .flat_map(|v| v.hours.iter().map(|h| h.row.total_clients))
            .sum();
        println!("# fig5-campaign: {clients} simulated clients per pass");
    }
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let wall = median_wall(&walls);
    println!(
        "# fig5-campaign: {jobs_per_pass} jobs per pass, {} passes, renders identical: {consistent}",
        passes.len()
    );
    println!("fig5.makespan_s {wall} s");
    let mut out = Outcome::default();
    out.settle(
        reference_ok && consistent && failed == 0,
        jobs_per_pass * passes.len() as u64,
        failed,
    );
    out.push("setup_s", setup.times.median_s(), "s");
    out.push("makespan_s", wall, "s");
    Ok(out)
}

/// One re-driven job's measurements.
struct JobTiming {
    ms: f64,
    attack: AttackSamples,
}

fn traced(args: &Args, setup: &CtxSetup, reference_ok: bool) -> Result<Outcome, String> {
    let (hours, duration) = shape(args);
    let data = setup.ctx.data();
    let t = Instant::now();
    let (untraced, _) = campaign(&setup.ctx, args.seed, &hours, duration)?;
    let untraced_s = t.elapsed().as_secs_f64();

    // Re-drive the same jobs on the same engine, attacker wrapped.
    let tracer = Tracer::new();
    let jobs: Vec<CampaignJob> = campaign_jobs(args.seed, &hours, duration);
    let root = tracer.open("campaign", "fig5", None);
    let timings: Mutex<Vec<(usize, JobTiming)>> = Mutex::new(Vec::new());
    let t = Instant::now();
    let report = run_campaign_scoped(
        &jobs,
        &options(),
        || (),
        |job: &CampaignJob, (): &mut ()| {
            let span = tracer.open("job", job.key.clone(), Some(root));
            let site = data.site_for(job.config.venue);
            let inner = job
                .config
                .attacker
                .build_default(&data.wigle, &data.heat, site);
            let mut attacker = TimedAttacker::new(inner);
            let metrics = run_experiment_with_attacker(data, &job.config, &mut attacker);
            let ns = tracer.close(span);
            let index = jobs.iter().position(|j| j.key == job.key).unwrap_or(0);
            timings.lock().expect("timing lock poisoned").push((
                index,
                JobTiming {
                    ms: ns as f64 / 1e6,
                    attack: attacker.samples,
                },
            ));
            JobRecord::capture(&metrics, job.label.clone())
        },
    )?;
    let traced_s = t.elapsed().as_secs_f64();
    tracer.close(root);

    // Oracle: the re-driven jobs reproduce the campaign's rows.
    let rows: Vec<&SummaryRow> = untraced
        .venues
        .iter()
        .flat_map(|v| v.hours.iter().map(|h| &h.row))
        .collect();
    let mut failed = 0u64;
    let mut same_rows = rows.len() == report.outcomes.len();
    for (outcome, row) in report.outcomes.iter().zip(&rows) {
        match &outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => {
                same_rows &= record.row == **row;
            }
            JobStatus::Failed(_) => failed += 1,
        }
    }
    println!("# oracle: re-driven job rows == campaign rows: {same_rows}");

    // Codec: frames recorded from one job per venue at the middle hour.
    let mid = hours[hours.len() / 2];
    let mut frames = Vec::new();
    let mut observed_rows_ok = true;
    for (job, row) in jobs.iter().zip(&rows) {
        if job.config.start_hour != mid {
            continue;
        }
        let span = tracer.open("job-observed", job.key.clone(), Some(root));
        let mut observer = CollectingObserver::all();
        let metrics = run_experiment_observed(data, &job.config, &mut observer);
        tracer.close(span);
        observed_rows_ok &= metrics.summary(job.label.clone()) == **row;
        frames.extend(observer.into_frames().into_iter().map(|(_, f)| f));
    }
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    let t = Instant::now();
    for frame in &frames {
        codec::encode_into(frame, &mut buf);
        bytes += std::hint::black_box(&buf).len();
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let encoded: Vec<Vec<u8>> = frames.iter().map(codec::encode).collect();
    let t = Instant::now();
    let parsed: Vec<_> = encoded.iter().map(|b| codec::parse(b)).collect();
    let parse_ns = t.elapsed().as_nanos() as f64;
    let round_trip = parsed
        .iter()
        .zip(&frames)
        .all(|(p, f)| p.as_ref().is_ok_and(|p| p == f));
    println!(
        "# codec: {} frames ({bytes} bytes) round-trip exact: {round_trip}; observed rows match: {observed_rows_ok}",
        frames.len()
    );
    crate::trace::write_spans(&tracer, args);

    let mut timings = timings.into_inner().expect("timing lock poisoned");
    timings.sort_by_key(|(i, _)| *i);
    let mut job_ms: Vec<f64> = timings.iter().map(|(_, j)| j.ms).collect();
    job_ms.sort_by(f64::total_cmp);
    let sum_ms: f64 = job_ms.iter().sum();
    let mut attack = AttackSamples::default();
    for (_, job) in timings {
        attack.merge(job.attack);
    }
    let attack_ms = attack.total_ns() as f64 / 1e6;
    let capacity_ms = WORKERS as f64 * traced_s * 1e3;

    let mut layers = Layers::default();
    setup.times.layer_metrics(&mut layers);
    layers.set("runner.events", attack.calls() as f64);
    attack.report(&mut layers);
    layers.set("attack.share", attack_ms / capacity_ms);
    layers.set("fleet.job_ms.p50", percentile_sorted(&job_ms, 50.0));
    layers.set("fleet.job_ms.p75", percentile_sorted(&job_ms, 75.0));
    layers.set("fleet.job_ms.max", job_ms.last().copied().unwrap_or(0.0));
    layers.set("fleet.idle_share", 1.0 - sum_ms / capacity_ms);
    layers.set("runner.attacker_share", ratio(attack_ms, sum_ms));
    layers.set("codec.frames", frames.len() as f64);
    layers.set("codec.encode_ns", ratio(encode_ns, frames.len() as f64));
    layers.set("codec.parse_ns", ratio(parse_ns, frames.len() as f64));
    layers.set("trace.overhead_ratio", traced_s / untraced_s);
    // `trace.coverage` stays unset (0): inside a job only the attacker is
    // timed, so the campaign has no layer self-time partition to cover.
    // How job time and worker idle time split is `fleet.idle_share`.
    println!("# trace.coverage: not applicable (only the attacker is timed inside a job)");

    let correct = reference_ok && same_rows && observed_rows_ok && round_trip && failed == 0;
    let mut out = Outcome::default();
    out.settle(correct, jobs.len() as u64, failed);
    layers.finish(&mut out);
    Ok(out)
}
