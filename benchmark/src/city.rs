//! `city-day`: `ch_scenarios::city::run_city` on the full-day config cut
//! to 16 districts × 240 epochs from 08:00 (arrivals ×2.0, 16 shards,
//! 2 workers).
//!
//! The traced run cannot instrument `run_city` itself (its epoch loop is
//! private), so it re-drives one city through the same public layer calls
//! — `generate_minute`, `visits_for_group`, `phones_for_group`,
//! `ScanPlan::for_window`, `EventQueue`, `respond_to_probe_into`,
//! `evaluate_offer` — with the same `derive_seed`/`SimRng::fork` streams,
//! routing handoffs serially in district order. A differential oracle
//! then requires the replay to render byte-identically to `run_city`.

use std::time::Instant;

use ch_attack::{Attacker, Lure};
use ch_mobility::arrival::{GroupArrival, GroupArrivalProcess};
use ch_mobility::path::{visits_for_group, MotionPath, Visit};
use ch_mobility::VenueTemplate;
use ch_phone::popgen::PopulationBuilder;
use ch_phone::scanner::ScanPlan;
use ch_phone::{JoinDecision, Phone};
use ch_scenarios::city::{CityOutcome, DistrictReport, DistrictSpec};
use ch_scenarios::{run_city, CampaignCtx, CityConfig, CityPlan, DistrictStats};
use ch_sim::{EventQueue, LossModel, Position, SimDuration, SimRng, SimTime};
use ch_wifi::mgmt::{ProbeRequest, ProbeResponse};
use ch_wifi::{timing, Channel, MacAddr};

use crate::stats::{ns_u32, ratio};
use crate::trace::{generation_of, AttackSamples, Layers, Tracer};
use crate::{ctx_after_pass, measure, median_wall, Args, CtxSetup, Outcome, WORKERS};

/// Must match `ch_scenarios::city`'s private constants: the replay is
/// only correct while they agree, which the render oracle checks.
const HANDOFF_PROB: f64 = 0.35;
const TRAVEL_SECS: (f64, f64) = (60.0, 300.0);

/// Sim-hours the per-hour attribution table distinguishes.
const HOURS: usize = 4;

fn config(args: &Args, jobs: usize) -> CityConfig {
    let (districts, epochs) = if args.tiny { (4, 20) } else { (16, 240) };
    CityConfig {
        seed: args.seed,
        districts,
        epochs,
        jobs: Some(jobs),
        ..CityConfig::full(args.seed)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = CtxSetup::build(args);
    if args.trace {
        return traced(args, &setup);
    }
    let config = config(args, WORKERS);
    let (ctx, times) = (&setup.ctx, &mut setup.times);
    let passes = measure(
        args.seconds,
        2,
        || run_city(ctx, &config),
        |pass_s| ctx_after_pass(times, args, pass_s),
    );
    let reference = passes[0].1.render();
    let correct = passes.iter().all(|(_, o)| o.render() == reference) && passes[0].1.events() > 0;
    let events = passes[0].1.events();
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let wall = median_wall(&walls);
    println!(
        "# city-day: {} districts x {} epochs | {} devices, {} events | {} passes, render identical: {correct}",
        config.districts,
        config.epochs,
        passes[0].1.devices(),
        events,
        passes.len()
    );
    println!("city.events_per_s {} 1/s", events as f64 / wall);
    let mut out = Outcome::default();
    out.settle(correct, config.epochs * passes.len() as u64, 0);
    out.push("setup_s", setup.times.median_s(), "s");
    out.push("makespan_s", wall, "s");
    Ok(out)
}

/// Layer indices into [`CityLayers::ns`].
const MINT: usize = 0;
const QUEUE: usize = 1;
const ATTACK: usize = 2;
const SCAN: usize = 3;
const HANDOFF: usize = 4;
const LAYER_NAMES: [&str; 5] = ["mint", "queue", "attack", "scan", "handoff"];

/// Self-time accounting for the replay. A single running clock is lapped
/// at every layer boundary, so each nanosecond lands in exactly one layer
/// (or in the unattributed remainder) at one timer read per boundary.
/// Untimed, it never reads the clock: that replay is the base of
/// `trace.overhead_ratio`.
struct CityLayers {
    timed: bool,
    clock: Instant,
    hour: usize,
    ns: [[u64; HOURS]; 5],
    events: [u64; HOURS],
    queue_ops: [u64; HOURS],
    phones: u64,
    peak_len: usize,
    routed: u64,
    attack: AttackSamples,
}

impl CityLayers {
    fn new(timed: bool) -> CityLayers {
        CityLayers {
            timed,
            clock: Instant::now(),
            hour: 0,
            ns: [[0; HOURS]; 5],
            events: [0; HOURS],
            queue_ops: [0; HOURS],
            phones: 0,
            peak_len: 0,
            routed: 0,
            attack: AttackSamples::default(),
        }
    }

    /// Charges the time since the last lap to `layer`; returns it.
    fn lap(&mut self, layer: usize) -> u64 {
        if !self.timed {
            return 0;
        }
        let now = Instant::now();
        let ns = now.duration_since(self.clock).as_nanos() as u64;
        self.ns[layer][self.hour] += ns;
        self.clock = now;
        ns
    }

    /// Restarts the clock without charging anyone (unattributed time).
    fn skip(&mut self) {
        if self.timed {
            self.clock = Instant::now();
        }
    }

    fn layer_total(&self, layer: usize) -> u64 {
        self.ns[layer].iter().sum()
    }
}

#[derive(Clone, Copy)]
enum CityEvent {
    Scan(u32),
    Depart(u32),
}

struct CityAgent {
    phone: Phone,
    visit: Visit,
    pending: u32,
    handoff: Option<SimTime>,
}

struct Transit {
    to: u32,
    arrive_at: SimTime,
    phone: Phone,
}

#[derive(Default)]
struct Scratch {
    probes: Vec<ProbeRequest>,
    lures: Vec<Lure>,
}

enum ScanFate {
    Gone,
    OutOfRange,
    Silent,
    NoJoin,
    Joined { lure: usize, at: SimTime },
}

/// One district, rebuilt from public parts exactly as `run_city` builds
/// its own.
struct District {
    spec: DistrictSpec,
    generation: usize,
    venue: VenueTemplate,
    attacker_pos: Position,
    oui: [u8; 3],
    root: SimRng,
    rng_medium: SimRng,
    process: GroupArrivalProcess,
    builder: PopulationBuilder,
    attacker: Box<dyn Attacker>,
    events: EventQueue<CityEvent>,
    agents: Vec<Option<CityAgent>>,
    free: Vec<u32>,
    inbox: Vec<Transit>,
    outbox: Vec<Transit>,
    arrivals_buf: Vec<GroupArrival>,
    loss: LossModel,
    channel: Channel,
    budget: usize,
    next_group: u32,
    stats: DistrictStats,
}

impl District {
    fn new(spec: &DistrictSpec, config: &CityConfig, ctx: &CampaignCtx) -> District {
        let duration = SimDuration::from_mins(config.epochs);
        let mut venue = spec.venue.template();
        venue.base_groups_per_hour *= config.arrival_multiplier;
        let plan = ctx.plan(spec.venue);
        let root = SimRng::seed_from(ch_fleet::derive_seed(
            config.seed,
            &format!("city/district/{:03}", spec.id),
        ));
        let rng_medium = root.fork("medium/init");
        let attacker = spec.attacker.build_from_plan(
            MacAddr::from_index([0x0a, 0xbc, 0xde], spec.id + 1),
            &plan.attack,
        );
        District {
            spec: spec.clone(),
            generation: generation_of(attacker.name()),
            attacker_pos: venue.attacker,
            oui: [0xd1, 0x5c, spec.id as u8],
            process: GroupArrivalProcess::new(&venue, config.start_hour, duration),
            builder: ctx.population_builder(plan.population.clone()),
            attacker,
            venue,
            root,
            rng_medium,
            events: EventQueue::new(),
            agents: Vec::new(),
            free: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            arrivals_buf: Vec::new(),
            loss: LossModel::urban_100mw(),
            channel: Channel::default_attack_channel(),
            budget: timing::responses_per_scan(),
            next_group: 0,
            stats: DistrictStats::default(),
        }
    }

    fn fork_epoch(&self, label: &str, epoch: u64) -> SimRng {
        self.root.fork(&format!("{label}/e{epoch}"))
    }

    /// Installs a visiting phone; the caller's layer pays for everything
    /// except the queue pushes.
    fn spawn(
        &mut self,
        phone: Phone,
        visit: Visit,
        rng: &mut SimRng,
        acc: &mut CityLayers,
        layer: usize,
    ) {
        if !phone.wifi_active {
            return;
        }
        let handoff =
            if matches!(visit.path, MotionPath::Transit { .. }) && rng.chance(HANDOFF_PROB) {
                let travel = rng.range_f64(TRAVEL_SECS.0, TRAVEL_SECS.1);
                Some(visit.exit_at + SimDuration::from_secs_f64(travel))
            } else {
                None
            };
        let plan = ScanPlan::for_window(&phone.scan, visit.enter_at, visit.exit_at, rng);
        if plan.times().is_empty() && handoff.is_none() {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.agents.push(None);
                (self.agents.len() - 1) as u32
            }
        };
        acc.lap(layer);
        let mut pending = 0u32;
        for &t in plan.times() {
            self.events.push(t, CityEvent::Scan(idx));
            pending += 1;
        }
        if handoff.is_some() {
            self.events.push(visit.exit_at, CityEvent::Depart(idx));
        }
        acc.queue_ops[acc.hour] += u64::from(pending) + u64::from(handoff.is_some());
        acc.lap(QUEUE);
        self.agents[idx as usize] = Some(CityAgent {
            phone,
            visit,
            pending,
            handoff,
        });
        self.stats.agents += 1;
    }

    fn run_epoch(&mut self, epoch: u64, scratch: &mut Scratch, acc: &mut CityLayers) {
        self.rng_medium = self.fork_epoch("medium", epoch);
        acc.skip();

        // 1. Mailbox admissions.
        let mut rng_inbox = self.fork_epoch("inbox", epoch);
        let mut inbox = std::mem::take(&mut self.inbox);
        for transit in inbox.drain(..) {
            self.stats.handoffs_in += 1;
            let group = GroupArrival {
                group_id: transit.phone.group_id,
                arrive_at: transit.arrive_at,
                size: 1,
            };
            if let Some(visit) = visits_for_group(&self.venue, &group, &mut rng_inbox).pop() {
                self.spawn(transit.phone, visit, &mut rng_inbox, acc, HANDOFF);
            }
        }
        self.inbox = inbox;
        acc.lap(HANDOFF);

        // 2. This minute's arrivals.
        let mut rng_arrivals = self.fork_epoch("arrivals", epoch);
        let mut rng_paths = self.fork_epoch("paths", epoch);
        let mut rng_pop = self.fork_epoch("pop", epoch);
        let mut rng_spawn = self.fork_epoch("spawn", epoch);
        let mut next_group = self.next_group;
        let mut arrivals = std::mem::take(&mut self.arrivals_buf);
        arrivals.clear();
        self.process.generate_minute(
            epoch as usize,
            &mut next_group,
            &mut rng_arrivals,
            &mut arrivals,
        );
        self.next_group = next_group;
        for group in &arrivals {
            let visits = visits_for_group(&self.venue, group, &mut rng_paths);
            let phones = self
                .builder
                .phones_for_group(group.group_id, visits.len(), &mut rng_pop);
            for (visit, mut phone) in visits.into_iter().zip(phones) {
                self.stats.devices += 1;
                acc.phones += 1;
                phone.mac = MacAddr::from_index(self.oui, phone.id);
                self.spawn(phone, visit, &mut rng_spawn, acc, MINT);
            }
        }
        self.arrivals_buf = arrivals;
        acc.lap(MINT);
        acc.peak_len = acc.peak_len.max(self.events.len());

        // 3. Dispatch to the boundary.
        let end = SimTime::from_mins(epoch + 1);
        loop {
            let popped = self.events.pop_until(end);
            acc.queue_ops[acc.hour] += u64::from(popped.is_some());
            acc.lap(QUEUE);
            let Some((now, event)) = popped else { break };
            self.stats.events += 1;
            acc.events[acc.hour] += 1;
            match event {
                CityEvent::Scan(idx) => {
                    self.on_scan(now, idx, scratch, acc);
                    acc.lap(SCAN);
                }
                CityEvent::Depart(idx) => {
                    self.on_depart(idx);
                    acc.lap(HANDOFF);
                }
            }
        }
    }

    fn on_scan(&mut self, now: SimTime, idx: u32, scratch: &mut Scratch, acc: &mut CityLayers) {
        let Some(slot) = self.agents.get_mut(idx as usize) else {
            return;
        };
        let Some(agent) = slot.as_mut() else {
            return;
        };
        agent.pending -= 1;
        let fate = dispatch_scan(
            agent,
            self.attacker.as_mut(),
            self.generation,
            &mut self.rng_medium,
            &self.loss,
            self.attacker_pos,
            self.channel,
            self.budget,
            now,
            scratch,
            &mut self.stats,
            acc,
        );
        let mac = agent.phone.mac;
        let done = agent.pending == 0 && agent.handoff.is_none();
        if let ScanFate::Joined { lure, at } = fate {
            self.stats.hits += 1;
            acc.lap(SCAN);
            self.attacker.on_hit(at, mac, &scratch.lures[lure]);
            acc.attack.hit_ns += acc.lap(ATTACK);
        }
        if done {
            *slot = None;
            self.free.push(idx);
        }
    }

    fn on_depart(&mut self, idx: u32) {
        let Some(slot) = self.agents.get_mut(idx as usize) else {
            return;
        };
        let Some(agent) = slot.take() else {
            return;
        };
        self.free.push(idx);
        let CityAgent {
            mut phone, handoff, ..
        } = agent;
        if let Some(arrive_at) = handoff {
            phone.handle_deauth();
            self.stats.handoffs_out += 1;
            self.outbox.push(Transit {
                to: self.spec.next,
                arrive_at,
                phone,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_scan(
    agent: &mut CityAgent,
    attacker: &mut dyn Attacker,
    generation: usize,
    rng_medium: &mut SimRng,
    loss: &LossModel,
    attacker_pos: Position,
    channel: Channel,
    budget: usize,
    now: SimTime,
    scratch: &mut Scratch,
    stats: &mut DistrictStats,
    acc: &mut CityLayers,
) -> ScanFate {
    let Some(pos) = agent.visit.position_at(now) else {
        return ScanFate::Gone;
    };
    let distance = pos.distance_to(attacker_pos);
    if distance >= loss.max_range_m() {
        agent.phone.probes_for_scan_into(&mut scratch.probes);
        stats.out_of_range += 1;
        return ScanFate::OutOfRange;
    }
    if agent.phone.connected_locally && attacker.deauth_enabled() {
        agent.phone.handle_deauth();
    }
    if !agent.phone.is_probing() {
        stats.silent += 1;
        return ScanFate::Silent;
    }
    stats.scans += 1;
    agent.phone.probes_for_scan_into(&mut scratch.probes);
    let client_mac = agent.phone.mac;
    for p in 0..scratch.probes.len() {
        if !rng_medium.chance(loss.delivery_prob(distance)) {
            continue;
        }
        stats.probes_heard += 1;
        acc.lap(SCAN);
        attacker.respond_to_probe_into(now, &scratch.probes[p], budget, &mut scratch.lures);
        let ns = acc.lap(ATTACK);
        if acc.timed {
            acc.attack.ns[generation].push(ns_u32(ns));
        }
        acc.attack.lures += scratch.lures.len() as u64;
        if scratch.lures.is_empty() {
            continue;
        }
        let bssid = attacker.bssid();
        if scratch.probes[p].is_broadcast() {
            stats.offers += scratch.lures.len() as u64;
        }
        let deadline = timing::listen_deadline(now);
        let mut elapsed = now;
        for l in 0..scratch.lures.len() {
            elapsed += timing::PROBE_RESPONSE_AIRTIME;
            if elapsed > deadline {
                break;
            }
            if !rng_medium.chance(loss.delivery_prob(distance)) {
                continue;
            }
            stats.lures_delivered += 1;
            let response =
                ProbeResponse::open_lure(bssid, client_mac, scratch.lures[l].ssid.clone(), channel);
            if agent.phone.evaluate_offer(&response) == JoinDecision::Join {
                agent.phone.connect_to(response.ssid);
                return ScanFate::Joined {
                    lure: l,
                    at: elapsed,
                };
            }
        }
    }
    ScanFate::NoJoin
}

/// Result of the traced replay.
struct Replay {
    outcome: CityOutcome,
    wall_s: f64,
    acc: CityLayers,
    /// Mean over epochs of max ÷ mean shard busy time.
    epoch_imbalance: f64,
    /// Replay wall seconds per sim-hour.
    hour_wall_ns: [u64; HOURS],
}

/// Closes `span` when tracing; returns its duration in ns, else 0.
fn close(tracer: Option<&Tracer>, span: Option<usize>) -> u64 {
    tracer.zip(span).map_or(0, |(t, s)| t.close(s))
}

/// Replays the city on one thread; with a tracer, every layer boundary
/// is timed and every epoch, shard-epoch and handoff routing is a span.
fn replay(ctx: &CampaignCtx, config: &CityConfig, tracer: Option<&Tracer>) -> Replay {
    let plan = CityPlan::build(config);
    let mut districts: Vec<District> = plan
        .districts
        .iter()
        .map(|spec| District::new(spec, config, ctx))
        .collect();
    let mut scratch = Scratch::default();
    let mut acc = CityLayers::new(tracer.is_some());
    let mut transfer: Vec<Transit> = Vec::new();
    let mut imbalance_sum = 0.0;
    let mut hour_wall_ns = [0u64; HOURS];
    let start = Instant::now();
    for epoch in 0..config.epochs {
        acc.hour = ((epoch / 60) as usize).min(HOURS - 1);
        let epoch_span = tracer.map(|t| t.open("epoch", format!("e{epoch}"), None));
        let mut busy = Vec::with_capacity(plan.shard_count());
        for (s, shard) in districts.chunks_mut(plan.per_shard).enumerate() {
            let span = tracer.map(|t| t.open("shard-epoch", format!("s{s}/e{epoch}"), epoch_span));
            for district in shard.iter_mut() {
                district.run_epoch(epoch, &mut scratch, &mut acc);
            }
            busy.push(close(tracer, span) as f64);
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        imbalance_sum += ratio(max, mean);

        let span = tracer.map(|t| t.open("handoff-route", format!("e{epoch}"), epoch_span));
        acc.skip();
        for district in districts.iter_mut() {
            transfer.append(&mut district.outbox);
        }
        for transit in transfer.drain(..) {
            acc.routed += 1;
            districts[transit.to as usize].inbox.push(transit);
        }
        acc.lap(HANDOFF);
        close(tracer, span);
        hour_wall_ns[acc.hour] += close(tracer, epoch_span);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let reports = districts
        .into_iter()
        .map(|d| DistrictReport {
            id: d.spec.id,
            venue: d.spec.venue,
            attacker: d.spec.attacker_slug,
            stats: d.stats,
        })
        .collect();
    Replay {
        outcome: CityOutcome {
            seed: config.seed,
            epochs: config.epochs,
            start_hour: config.start_hour,
            arrival_multiplier: config.arrival_multiplier,
            reports,
        },
        wall_s,
        acc,
        epoch_imbalance: imbalance_sum / config.epochs.max(1) as f64,
        hour_wall_ns,
    }
}

fn totals_line(render: &str) -> &str {
    render
        .lines()
        .find(|l| l.starts_with("totals:"))
        .unwrap_or("")
}

fn traced(args: &Args, setup: &CtxSetup) -> Result<Outcome, String> {
    let ctx = &setup.ctx;
    let t = Instant::now();
    let wide = run_city(ctx, &config(args, WORKERS));
    let wide_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serial = run_city(ctx, &config(args, 1));
    let serial_s = t.elapsed().as_secs_f64();
    let render = serial.render();
    let widths_agree = wide.render() == render;

    let config = config(args, 1);
    let plain = replay(ctx, &config, None);
    let tracer = Tracer::new();
    let rep = replay(ctx, &config, Some(&tracer));
    crate::trace::write_spans(&tracer, args);
    let oracle = rep.outcome.render() == render && plain.outcome.render() == render;
    println!("# run_city  {}", totals_line(&render));
    println!("# replay    {}", totals_line(&rep.outcome.render()));
    println!(
        "# oracle: untimed and traced replay renders == run_city render: {oracle}; {WORKERS}-worker render == 1-worker render: {widths_agree}"
    );
    println!(
        "# replay wall: {:.3} s untimed, {:.3} s traced; run_city at 1 worker {serial_s:.3} s",
        plain.wall_s, rep.wall_s
    );

    let mut acc = rep.acc;
    let wall_ns = rep.wall_s * 1e9;
    let events = serial.events();
    let epochs = config.epochs as f64;
    let totals: Vec<u64> = (0..5).map(|l| acc.layer_total(l)).collect();
    let attributed: u64 = totals.iter().sum();
    let coverage = attributed as f64 / wall_ns;

    // The length-dependent slowdown, attributed: ns per dispatched event
    // for each layer in each sim-hour.
    println!("# city layer self time, ns per dispatched event, by sim-hour:");
    println!(
        "# {:<10} {:>9} {:>9} {:>9} {:>9}",
        "layer", "h1", "h2", "h3", "h4"
    );
    for (l, name) in LAYER_NAMES.iter().enumerate() {
        let row: Vec<String> = (0..HOURS)
            .map(|h| format!("{:>9.1}", ratio(acc.ns[l][h] as f64, acc.events[h] as f64)))
            .collect();
        println!("# {:<10} {}", name, row.join(" "));
    }
    let wall_row: Vec<String> = (0..HOURS)
        .map(|h| {
            format!(
                "{:>9.1}",
                ratio(rep.hour_wall_ns[h] as f64, acc.events[h] as f64)
            )
        })
        .collect();
    println!("# {:<10} {}", "wall", wall_row.join(" "));
    let ev_row: Vec<String> = acc.events.iter().map(|e| format!("{e:>9}")).collect();
    println!("# {:<10} {}", "events", ev_row.join(" "));
    println!(
        "# coverage {coverage:.4} (attributed {:.3} s of {:.3} s traced wall)",
        attributed as f64 / 1e9,
        rep.wall_s
    );

    let mut layers = Layers::default();
    setup.times.layer_metrics(&mut layers);
    layers.set("mint.phones", acc.phones as f64);
    layers.set(
        "mint.ns_per_phone",
        ratio(totals[MINT] as f64, acc.phones as f64),
    );
    layers.set("mint.share", totals[MINT] as f64 / wall_ns);
    let queue_ops: u64 = acc.queue_ops.iter().sum();
    layers.set("queue.ops", queue_ops as f64);
    layers.set(
        "queue.ns_per_op",
        ratio(totals[QUEUE] as f64, queue_ops as f64),
    );
    for h in 0..HOURS {
        layers.set(
            &format!("queue.ns_per_op.h{}", h + 1),
            ratio(acc.ns[QUEUE][h] as f64, acc.queue_ops[h] as f64),
        );
    }
    layers.set("queue.peak_len", acc.peak_len as f64);
    acc.attack.report(&mut layers);
    layers.set("attack.share", totals[ATTACK] as f64 / wall_ns);
    let all: Vec<&DistrictStats> = rep.outcome.reports.iter().map(|r| &r.stats).collect();
    let sum = |f: fn(&DistrictStats) -> u64| all.iter().map(|s| f(s)).sum::<u64>() as f64;
    layers.set(
        "scan.ns_per_event",
        ratio(totals[SCAN] as f64, events as f64),
    );
    layers.set(
        "scan.delivery_ratio",
        ratio(sum(|s| s.lures_delivered), sum(|s| s.offers)),
    );
    layers.set(
        "scan.hits_per_kprobe",
        ratio(sum(|s| s.hits) * 1e3, sum(|s| s.probes_heard)),
    );
    layers.set("handoff.routed", acc.routed as f64);
    layers.set("handoff.ns_per_epoch", totals[HANDOFF] as f64 / epochs);
    layers.set("pool.speedup_2w", serial_s / wide_s);
    layers.set("pool.epoch_imbalance", rep.epoch_imbalance);
    layers.set("trace.overhead_ratio", rep.wall_s / plain.wall_s);
    layers.set("trace.coverage", coverage);

    let mut out = Outcome::default();
    out.settle(oracle && widths_agree, config.epochs, 0);
    layers.finish(&mut out);
    Ok(out)
}
