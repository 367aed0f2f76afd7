//! Countermeasures — beyond the paper.
//!
//! The paper closes by noting that existing evil-twin detection "can still
//! work as effective countermeasures for the City-Hunter". Two studies
//! test that claim with the `ch-detect` detector:
//!
//! * **`defense`** — a client-side detector next to one vulnerable client
//!   that scans once a minute near each attacker generation (the
//!   [`crate::eval`] round loop). The number of attacker frames on air
//!   before the first verdict is that generation's stealth budget.
//! * **`defense_live`** — the in-venue monitor ([`RunConfig::detector`])
//!   against a live 30-minute City-Hunter canteen run: how many phones
//!   join before the rogue is flagged.
//!
//! Both run as ordinary fleet campaigns whose job records are the rendered
//! report lines.

use ch_attack::{AttackerSpec, CityHunterConfig};
use ch_detect::{Detector, DetectorSpec, Strictness};
use ch_fleet::{run_campaign, run_campaign_scoped, FleetOptions, FleetStats, JobSpec, JobStatus};
use ch_mobility::VenueKind;
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::eval::{self, PROTECTED_SSID};
use crate::runner::{run_experiment_ctx, AttackerKind, RunConfig, RunScratch};
use crate::world::CityData;

/// One attacker-generation job of the `defense` study.
struct DefenseJob {
    slug: &'static str,
    spec: AttackerSpec,
    /// Direct probes pre-harvested before the evaluation (MANA's head
    /// start from earlier victims).
    preharvest: usize,
}

impl JobSpec for DefenseJob {
    fn key(&self) -> String {
        format!("defense/{}", self.slug)
    }
}

/// The study's jobs, one per attacker generation, in table order.
fn defense_jobs() -> [DefenseJob; 4] {
    [
        DefenseJob {
            slug: "karma",
            spec: AttackerSpec::Karma,
            preharvest: 0,
        },
        DefenseJob {
            slug: "mana",
            spec: AttackerSpec::Mana,
            preharvest: 30,
        },
        DefenseJob {
            slug: "prelim",
            spec: AttackerSpec::Prelim,
            preharvest: 0,
        },
        DefenseJob {
            slug: "city-hunter",
            spec: AttackerSpec::CityHunter(CityHunterConfig::default()),
            preharvest: 0,
        },
    ]
}

/// Runs one generation through the [`crate::eval`] round loop, from the
/// canteen site, after its pre-harvest.
fn evaluate(job: &DefenseJob, data: &CityData) -> (Detector, Option<(usize, usize)>) {
    let site = data.site_for(VenueKind::Canteen);
    let mut attacker = job.spec.build_default(&data.wigle, &data.heat, site);
    eval::preharvest(attacker.as_mut(), job.preharvest);
    eval::evaluate(attacker.as_mut())
}

/// One table row: frames and round of the first verdict, total verdicts,
/// and the reasons of the first verdict.
fn render_row(job: &DefenseJob, detector: &Detector, detection: Option<(usize, usize)>) -> String {
    let (frames, rounds) = match detection {
        Some((frames, round)) => (frames.to_string(), (round + 1).to_string()),
        None => ("never".to_string(), "-".to_string()),
    };
    let reasons = match detector.verdicts().first() {
        Some(verdict) => verdict.reasons.to_string(),
        None => "-".to_string(),
    };
    format!(
        "{:<26} {:>6} {:>6} {:>8}  {}",
        job.spec.name(),
        frames,
        rounds,
        detector.verdicts().len(),
        reasons
    )
}

/// The `defense` study: frames-to-detection per attacker generation, one
/// fleet job per [`AttackerSpec`]. Returns the full artifact text.
///
/// # Errors
///
/// Fails if the engine cannot run or any job failed.
pub fn defense_fleet(
    ctx: &CampaignCtx,
    opts: &FleetOptions,
) -> Result<(String, FleetStats), String> {
    let jobs = defense_jobs();
    let report = run_campaign(&jobs, opts, |job: &DefenseJob| {
        let (detector, detection) = evaluate(job, ctx.data());
        render_row(job, &detector, detection)
    })?;

    let threshold = Strictness::Standard.threshold().unwrap_or_default();
    let mut text = format!(
        "client-side ch-detect, standard strictness (flags at score {threshold}): stock \
         signatures and behaviour tells + downgrade([{PROTECTED_SSID}])\n\
         client: one broadcast probe and one direct probe for {PROTECTED_SSID} per round, \
         rounds 60 s apart\n\n"
    );
    text.push_str(&format!(
        "{:<26} {:>6} {:>6} {:>8}  {}\n",
        "attacker", "frames", "rounds", "verdicts", "first verdict"
    ));
    for outcome in &report.outcomes {
        match &outcome.status {
            JobStatus::Done(row) | JobStatus::Cached(row) => {
                text.push_str(row);
                text.push('\n');
            }
            JobStatus::Failed(error) => {
                return Err(format!("defense job `{}` failed: {error}", outcome.key));
            }
        }
    }
    text.push_str(
        "\nreading: every generation is flagged in its first round, within two frames. \
         KARMA, which only echoes direct probes, is caught by the downgrade of the protected \
         network; MANA and the preliminary City-Hunter by broadcast bait on their second \
         lure; City-Hunter on its very first, because its top heat-ranked SSID carries \
         free-WiFi bait wording — the popular SSIDs that make it effective are its tell.\n",
    );
    Ok((text, report.stats))
}

/// One live-deployment job of the `defense_live` study.
struct LiveJob {
    seed: u64,
}

impl JobSpec for LiveJob {
    fn key(&self) -> String {
        format!("defense-live/canteen/s{}", self.seed)
    }
}

/// The `defense_live` study: the standard in-venue monitor listening to a
/// 30-minute City-Hunter canteen run. The whole rendered report is the
/// job record, so a manifest caches it.
///
/// # Errors
///
/// Fails if the engine cannot run or the job failed.
pub fn defense_live_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(String, FleetStats), String> {
    let jobs = [LiveJob { seed }];
    let report = run_campaign_scoped(
        &jobs,
        opts,
        RunScratch::new,
        |job: &LiveJob, scratch: &mut RunScratch| {
            let config = RunConfig {
                detector: Some(DetectorSpec::standard()),
                ..RunConfig::canteen_30min(
                    AttackerKind::CityHunter(CityHunterConfig::default()),
                    job.seed,
                )
            };
            let metrics = run_experiment_ctx(ctx, &config, scratch);
            let detection = match metrics.detection {
                Some(detection) => detection,
                None => ch_sim::invariant::violation(
                    file!(),
                    line!(),
                    "defense_live ran without a detection report",
                ),
            };
            let first_flag = detection.time_to_detect();
            let row = metrics.summary("City-Hunter");
            let victims_total = row.broadcast_connected + row.direct_connected;
            let victims_before = match first_flag {
                Some(t) => metrics
                    .clients()
                    .filter(|(_, rec)| rec.hit.as_ref().is_some_and(|h| h.at <= t))
                    .count(),
                None => victims_total,
            };

            let mut text = String::from(
                "live detection against a 30-minute City-Hunter canteen run \
                 (in-venue ch-detect monitor, standard strictness):\n",
            );
            text.push_str(&format!(
                "  frames observed:          {}\n",
                detection.frames_observed
            ));
            text.push_str(&format!("  total victims:            {victims_total}\n"));
            match first_flag {
                Some(t) => {
                    text.push_str(&format!(
                        "  first verdict at:         {t} (simulation clock)\n"
                    ));
                    text.push_str(&format!("  victims before detection: {victims_before}\n"));
                    text.push_str(&format!(
                        "  exposure window:          {}\n",
                        SimDuration::from_micros(t.as_micros())
                    ));
                }
                None => text.push_str("  never detected (unexpected)\n"),
            }
            text.push_str(&format!(
                "  verdicts:                 {} ({} naming the rogue)\n",
                detection.verdicts, detection.rogue_verdicts
            ));
            text.push_str(&format!(
                "  flagged APs:              {} rogue, {} of {} legitimate\n",
                detection.flagged_rogue, detection.flagged_legit, detection.legit_aps
            ));
            // Without evasion the rogue transmits from one MAC, the
            // default BSSID; name it once it is the one flagged.
            if let (1, 1, Some(t)) = (detection.rogue_macs, detection.flagged_rogue, first_flag) {
                text.push_str(&format!(
                    "  rogue verdict:            {} (flagged at {t})\n",
                    AttackerSpec::default_bssid()
                ));
            }
            text
        },
    )?;

    match &report.outcomes[0].status {
        JobStatus::Done(body) | JobStatus::Cached(body) => Ok((body.clone(), report.stats)),
        JobStatus::Failed(error) => Err(format!("defense_live job failed: {error}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::standard_city;
    use ch_detect::Reason;
    use ch_wifi::timing;

    #[test]
    fn every_generation_detected_in_its_first_round() {
        let data = standard_city();
        for job in defense_jobs() {
            let (detector, detection) = evaluate(&job, &data);
            let (frames, round) = detection.expect("every generation is detected");
            assert_eq!(round, 0, "{}", job.slug);
            let first = detector.verdicts()[0].reasons;
            match job.slug {
                // KARMA only echoes the direct probe: the downgrade tell.
                "karma" => assert!(first.contains(Reason::SecurityDowngrade)),
                // City-Hunter is caught inside its first lure burst.
                "city-hunter" => assert!(frames <= timing::responses_per_scan()),
                _ => assert!(first.contains(Reason::BroadcastBait), "{}", job.slug),
            }
        }
    }
}
