//! Sensitivity sweeps (the §III-A cap, made visible).
//!
//! Each sweep is a one-dimensional grid of conditions, replicated across
//! seeds. The grid flattens to keyed fleet jobs (`sweep/<sweep>/<x>/s<i>`)
//! whose world seeds are the replica seeds themselves — exactly the seeds
//! the pre-fleet replication loop used — so every summary is byte-stable
//! against the old drivers.

use ch_attack::CityHunterConfig;
use ch_fleet::{FleetOptions, FleetStats};

use crate::ctx::CampaignCtx;
use crate::experiments::expect_fleet;
use crate::fleet::{run_jobs, slug, CampaignJob, JobRecord};
use crate::replicate::{seed_range, summarize};
use crate::runner::{AttackerKind, RunConfig};
use crate::world::CityData;

/// One sweep point: the independent variable plus replicated outcomes.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Independent-variable label (e.g. `"40"` lures, `"60m"` range).
    pub x: String,
    /// Replicated h_b summary at this point.
    pub h_b: ch_sim::Summary,
    /// Replicated client-volume summary at this point.
    pub clients: ch_sim::Summary,
}

/// A one-dimensional sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// What was swept.
    pub label: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
}

/// One sweep's declarative grid: a key segment, the rendered label, and
/// the `(x label, base config)` points in sweep order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Key segment (`sweep/<slug>/…`).
    pub slug: &'static str,
    /// The rendered "Sweep: …" label.
    pub label: String,
    /// The grid, in sweep order.
    pub points: Vec<(String, RunConfig)>,
}

/// Sweeps the number of lures the attacker *sends* per broadcast probe.
///
/// The §III-A arithmetic says only ~40 probe responses fit the client's
/// listen window; sending more is free for the attacker but physically
/// cannot be received. The curve therefore rises up to 40 and then goes
/// flat — the saturation MANA unknowingly lived beyond.
pub fn lure_budget_spec() -> SweepSpec {
    // The preliminary attacker honours arbitrary send budgets (the full
    // City-Hunter self-caps at its 40-slot buffer total by design), so it
    // is the one that can demonstrate the over-sending plateau.
    let points = [5usize, 10, 20, 40, 80, 160]
        .iter()
        .map(|&budget| {
            (
                budget.to_string(),
                RunConfig {
                    lure_budget: Some(budget),
                    ..RunConfig::canteen_30min(AttackerKind::Prelim, 0)
                },
            )
        })
        .collect();
    SweepSpec {
        slug: "lure-budget",
        label: "lures sent per broadcast probe (prelim attacker, canteen, \
                30 min) — reception is capped near 40 by the scan window"
            .into(),
        points,
    }
}

/// Sweeps the attacker's radio range (transmit power): h_b and the
/// observed-client volume vs maximum range in the subway passage.
pub fn radio_range_spec() -> SweepSpec {
    let points = [20.0f64, 40.0, 60.0, 80.0, 100.0]
        .iter()
        .map(|&range| {
            (
                format!("{range:.0}m"),
                RunConfig {
                    loss: Some(ch_sim::LossModel::new(range * 0.6, range, 0.97)),
                    ..RunConfig::passage_30min(
                        AttackerKind::CityHunter(CityHunterConfig::default()),
                        0,
                    )
                },
            )
        })
        .collect();
    SweepSpec {
        slug: "radio-range",
        label: "attacker radio range (subway passage, 30 min)".into(),
        points,
    }
}

/// Forward-looking study: per-scan MAC randomization (a post-2017 privacy
/// feature) vs City-Hunter. Randomizing phones present a fresh MAC every
/// scan, so the §III-A per-client untried tracking can never accumulate —
/// each scan replays the head of the ranking — and the client counts
/// themselves inflate (every scan looks like a new device).
pub fn mac_randomization_spec(data: &CityData) -> SweepSpec {
    let points = [0.0f64, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&fraction| {
            let mut population = data.population_params_for(ch_mobility::VenueKind::Canteen);
            population.mac_randomizing = fraction;
            (
                format!("{:.0}%", fraction * 100.0),
                RunConfig {
                    population: Some(population),
                    ..RunConfig::canteen_30min(
                        AttackerKind::CityHunter(CityHunterConfig::default()),
                        0,
                    )
                },
            )
        })
        .collect();
    SweepSpec {
        slug: "mac-randomization",
        label: "per-scan MAC randomization share (canteen, 30 min) — \
                note the client counts inflating as identities fragment"
            .into(),
        points,
    }
}

/// The crowd-density sweep the abstract promises ("public places with
/// different crowd density"): the canteen's arrival rate scaled from a
/// near-empty room to a crush, full City-Hunter deployed.
pub fn crowd_density_spec() -> SweepSpec {
    let points = [0.25f64, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&multiplier| {
            (
                format!("{multiplier}x"),
                RunConfig {
                    arrival_multiplier: Some(multiplier),
                    ..RunConfig::canteen_30min(
                        AttackerKind::CityHunter(CityHunterConfig::default()),
                        0,
                    )
                },
            )
        })
        .collect();
    SweepSpec {
        slug: "crowd-density",
        label: "crowd density (canteen arrival-rate multiplier, 30 min)".into(),
        points,
    }
}

/// Scan-cadence sweep: how the clients' disconnected-scan interval shapes
/// the passage outcome. Fig. 2(b)'s 40/80 histogram is pure mechanics —
/// transit time divided by scan interval — so halving the interval doubles
/// the two-burst share and lifts h_b.
pub fn scan_interval_spec(data: &CityData) -> SweepSpec {
    let points = [(15.0, 30.0), (30.0, 60.0), (40.0, 90.0), (80.0, 160.0)]
        .iter()
        .map(|&(lo, hi)| {
            let mut population = data.population_params_for(ch_mobility::VenueKind::SubwayPassage);
            population.scan_interval_secs = (lo, hi);
            (
                format!("{lo:.0}-{hi:.0}s"),
                RunConfig {
                    population: Some(population),
                    ..RunConfig::passage_30min(
                        AttackerKind::CityHunter(CityHunterConfig::default()),
                        0,
                    )
                },
            )
        })
        .collect();
    SweepSpec {
        slug: "scan-interval",
        label: "disconnected-scan interval (subway passage, 30 min)".into(),
        points,
    }
}

/// The full sweep suite, in `experiment sweep`'s print order.
pub fn sweep_specs(data: &CityData) -> Vec<SweepSpec> {
    vec![
        lure_budget_spec(),
        radio_range_spec(),
        mac_randomization_spec(data),
        crowd_density_spec(),
        scan_interval_spec(data),
    ]
}

/// The job list for one sweep: every point × every replica seed, keys
/// like `sweep/radio-range/60m/s1`. The world seed of replica `i` is
/// `base_seed + i` — the exact seed the replication loop used.
///
/// # Panics
///
/// Panics if `replicas` is zero (a sweep point needs at least one run).
pub fn sweep_jobs_for(spec: &SweepSpec, base_seed: u64, replicas: usize) -> Vec<CampaignJob> {
    assert!(replicas > 0, "a sweep needs at least one replica");
    let seeds = seed_range(base_seed, replicas);
    let mut jobs = Vec::with_capacity(spec.points.len() * replicas);
    for (x, base) in &spec.points {
        for (i, &seed) in seeds.iter().enumerate() {
            jobs.push(CampaignJob::new(
                format!("sweep/{}/{}/s{}", spec.slug, slug(x), i + 1),
                format!("{x} #{}", i + 1),
                RunConfig {
                    seed,
                    ..base.clone()
                },
            ));
        }
    }
    jobs
}

/// The whole suite's job list (all five sweeps in one campaign).
///
/// # Panics
///
/// Panics if `replicas` is zero.
pub fn sweep_jobs(data: &CityData, base_seed: u64, replicas: usize) -> Vec<CampaignJob> {
    sweep_specs(data)
        .iter()
        .flat_map(|spec| sweep_jobs_for(spec, base_seed, replicas))
        .collect()
}

/// Folds one sweep's records (point-major, `replicas` runs per point)
/// back into summarized points.
fn sweep_outcome(spec: &SweepSpec, replicas: usize, records: &[JobRecord]) -> SweepOutcome {
    let points = spec
        .points
        .iter()
        .zip(records.chunks(replicas.max(1)))
        .map(|((x, _), chunk)| {
            let h_b: Vec<f64> = chunk.iter().map(|r| r.row.h_b()).collect();
            let clients: Vec<f64> = chunk.iter().map(|r| r.row.total_clients as f64).collect();
            SweepPoint {
                x: x.clone(),
                h_b: summarize(&h_b),
                clients: summarize(&clients),
            }
        })
        .collect();
    SweepOutcome {
        label: spec.label.clone(),
        points,
    }
}

/// One sweep on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or any replica's simulation failed.
pub fn sweep_fleet(
    ctx: &CampaignCtx,
    spec: &SweepSpec,
    base_seed: u64,
    replicas: usize,
    opts: &FleetOptions,
) -> Result<(SweepOutcome, FleetStats), String> {
    let jobs = sweep_jobs_for(spec, base_seed, replicas);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    Ok((sweep_outcome(spec, replicas, &records), stats))
}

/// The full suite on the fleet engine as one campaign: all five sweeps'
/// replicas interleave on the worker pool, and one manifest resumes the
/// lot.
///
/// # Errors
///
/// Fails if the engine cannot run or any replica's simulation failed.
pub fn sweep_suite_fleet(
    ctx: &CampaignCtx,
    base_seed: u64,
    replicas: usize,
    opts: &FleetOptions,
) -> Result<(Vec<SweepOutcome>, FleetStats), String> {
    let specs = sweep_specs(ctx.data());
    let jobs = sweep_jobs(ctx.data(), base_seed, replicas);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut offset = 0;
    for spec in &specs {
        let len = spec.points.len() * replicas;
        outcomes.push(sweep_outcome(
            spec,
            replicas,
            &records[offset..offset + len],
        ));
        offset += len;
    }
    Ok((outcomes, stats))
}

fn sweep_with(data: &CityData, spec: &SweepSpec, base_seed: u64, replicas: usize) -> SweepOutcome {
    expect_fleet(sweep_fleet(
        &CampaignCtx::build(data),
        spec,
        base_seed,
        replicas,
        &FleetOptions::in_memory("sweep", 0),
    ))
}

/// The lure-budget sweep (see [`lure_budget_spec`]).
pub fn sweep_lure_budget(data: &CityData, base_seed: u64, replicas: usize) -> SweepOutcome {
    sweep_with(data, &lure_budget_spec(), base_seed, replicas)
}

/// The radio-range sweep (see [`radio_range_spec`]).
pub fn sweep_radio_range(data: &CityData, base_seed: u64, replicas: usize) -> SweepOutcome {
    sweep_with(data, &radio_range_spec(), base_seed, replicas)
}

/// The MAC-randomization sweep (see [`mac_randomization_spec`]).
pub fn sweep_mac_randomization(data: &CityData, base_seed: u64, replicas: usize) -> SweepOutcome {
    sweep_with(data, &mac_randomization_spec(data), base_seed, replicas)
}

/// The crowd-density sweep (see [`crowd_density_spec`]).
pub fn sweep_crowd_density(data: &CityData, base_seed: u64, replicas: usize) -> SweepOutcome {
    sweep_with(data, &crowd_density_spec(), base_seed, replicas)
}

/// The scan-interval sweep (see [`scan_interval_spec`]).
pub fn sweep_scan_interval(data: &CityData, base_seed: u64, replicas: usize) -> SweepOutcome {
    sweep_with(data, &scan_interval_spec(data), base_seed, replicas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_jobs_replicate_the_legacy_seed_range() {
        let spec = lure_budget_spec();
        let jobs = sweep_jobs_for(&spec, 100, 3);
        assert_eq!(jobs.len(), 6 * 3);
        assert_eq!(jobs[0].key, "sweep/lure-budget/5/s1");
        assert_eq!(jobs[0].config.seed, 100);
        assert_eq!(jobs[1].config.seed, 101);
        assert_eq!(jobs[2].config.seed, 102);
        assert_eq!(jobs[3].key, "sweep/lure-budget/10/s1");
        // Distinct x labels must stay distinct after slugging.
        let keys: std::collections::BTreeSet<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        assert_eq!(keys.len(), jobs.len(), "sweep keys must be unique");
    }

    #[test]
    fn suite_keys_are_globally_unique() {
        let data = CityData::standard(0x11);
        let jobs = sweep_jobs(&data, 1, 2);
        let keys: std::collections::BTreeSet<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        assert_eq!(keys.len(), jobs.len());
    }
}
