//! The traced run's machinery: in-memory spans, a timing wrapper for the
//! public `Attacker` trait, and the catalogue of per-layer metrics.
//!
//! Spans cover the coarse units (epoch, shard-epoch, job, serve half,
//! checkpoint); per-call timings are aggregated into sample vectors under
//! the enclosing unit, so a million events never become a million spans.
//! Spans stay in memory and are written as NDJSON when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ch_attack::{Attacker, Lure};
use ch_fleet::Json;
use ch_sim::fault::CrashMode;
use ch_sim::SimTime;
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::MacAddr;

use crate::stats::ns_u32;
use crate::Outcome;

/// Every per-layer `(name, unit)` a traced run reports, in print order:
/// the `per_layer` list of `BENCHMARK.json`, read at compile time so that
/// the names and units live in one place. Layers a workload does not
/// exercise read 0 (see the benchmark notes).
pub fn layer_metrics() -> &'static [(String, String)] {
    static CATALOGUE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let json = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let list = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json has a per_layer list");
        list.iter()
            .map(|m| {
                let field = |key: &str| {
                    m.get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("a per_layer entry lacks `{key}`"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    })
}

/// Per-layer values collected by a traced run, keyed by catalogue name.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Records `value` under a catalogue name (panics on a name missing
    /// from [`layer_metrics`], which is a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = layer_metrics()
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per_layer metric of BENCHMARK.json"));
        self.0.push((key.as_str(), value));
    }

    /// Moves every catalogue metric into `out`, in catalogue order; any
    /// metric this workload never set reads 0.
    pub fn finish(self, out: &mut Outcome) {
        for (name, unit) in layer_metrics() {
            let value = self
                .0
                .iter()
                .rev()
                .find(|(n, _)| *n == name.as_str())
                .map_or(0.0, |(_, v)| *v);
            out.push(name.as_str(), value, unit.as_str());
        }
    }
}

/// The four attacker generations, in metric-name order.
pub const GENERATIONS: [&str; 4] = ["cityhunter", "prelim", "mana", "karma"];

/// Maps an attacker's display name to its [`GENERATIONS`] index.
pub fn generation_of(name: &str) -> usize {
    match name {
        "City-Hunter" => 0,
        "City-Hunter (preliminary)" => 1,
        "MANA" => 2,
        _ => 3,
    }
}

/// Per-call samples of `respond_to_probe_into`, one vector per generation.
#[derive(Default)]
pub struct AttackSamples {
    pub ns: [Vec<u32>; 4],
    /// Lures returned across all calls.
    pub lures: u64,
    /// Nanoseconds spent in `on_hit`.
    pub hit_ns: u64,
}

impl AttackSamples {
    pub fn merge(&mut self, other: AttackSamples) {
        for (mine, theirs) in self.ns.iter_mut().zip(other.ns) {
            mine.extend(theirs);
        }
        self.lures += other.lures;
        self.hit_ns += other.hit_ns;
    }

    pub fn calls(&self) -> u64 {
        self.ns.iter().map(|v| v.len() as u64).sum()
    }

    /// Total nanoseconds inside the attacker (probe answers plus hits).
    pub fn total_ns(&self) -> u64 {
        self.ns
            .iter()
            .flat_map(|v| v.iter().map(|&n| u64::from(n)))
            .sum::<u64>()
            + self.hit_ns
    }

    /// Writes the `attack.*` metrics except `attack.share`.
    pub fn report(&mut self, layers: &mut Layers) {
        for (g, name) in GENERATIONS.iter().enumerate() {
            let samples = &mut self.ns[g];
            samples.sort_unstable();
            layers.set(&format!("attack.{name}.calls"), samples.len() as f64);
            layers.set(
                &format!("attack.{name}.ns_p50"),
                crate::stats::percentile_sorted(samples, 50.0),
            );
            layers.set(
                &format!("attack.{name}.ns_p99"),
                crate::stats::percentile_sorted(samples, 99.0),
            );
        }
        layers.set(
            "attack.lures_per_probe",
            crate::stats::ratio(self.lures as f64, self.calls() as f64),
        );
    }
}

/// Wraps any attacker behind the public trait and times its probe
/// answers; every other method forwards untouched, so a wrapped run is
/// draw-for-draw identical to an unwrapped one.
pub struct TimedAttacker {
    inner: Box<dyn Attacker>,
    generation: usize,
    pub samples: AttackSamples,
}

impl TimedAttacker {
    pub fn new(inner: Box<dyn Attacker>) -> TimedAttacker {
        let generation = generation_of(inner.name());
        TimedAttacker {
            inner,
            generation,
            samples: AttackSamples::default(),
        }
    }
}

impl Attacker for TimedAttacker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bssid(&self) -> MacAddr {
        self.inner.bssid()
    }

    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    ) {
        let t = Instant::now();
        self.inner.respond_to_probe_into(now, probe, budget, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.samples.ns[self.generation].push(ns_u32(ns));
        self.samples.lures += out.len() as u64;
    }

    fn on_hit(&mut self, now: SimTime, client: MacAddr, lure: &Lure) {
        let t = Instant::now();
        self.inner.on_hit(now, client, lure);
        self.samples.hit_ns += t.elapsed().as_nanos() as u64;
    }

    fn database_len(&self) -> usize {
        self.inner.database_len()
    }

    fn deauth_enabled(&self) -> bool {
        self.inner.deauth_enabled()
    }

    fn beacon(&mut self, now: SimTime) -> Option<ch_wifi::mgmt::Beacon> {
        self.inner.beacon(now)
    }

    fn checkpoint(&mut self, now: SimTime) {
        self.inner.checkpoint(now);
    }

    fn on_crash_restart(&mut self, now: SimTime, mode: CrashMode) {
        self.inner.on_crash_restart(now, mode);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

struct Span {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, shareable across pool workers.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(
        &self,
        name: &'static str,
        label: impl Into<String>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(Span {
            name,
            label: label.into(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id`; returns its duration in nanoseconds.
    pub fn close(&self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Writes every span as one NDJSON line:
    /// `{"id", "name", "label", "parent", "start_ns", "end_ns"}`.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"label\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.label, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)?;
        Ok(spans.len())
    }
}

/// Writes the run's spans to `.bench_out/trace-<workload>-seed<N>.ndjson`.
pub fn write_spans(tracer: &Tracer, args: &crate::Args) {
    let path =
        Path::new(".bench_out").join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(n) => println!("# trace: {n} spans -> {}", path.display()),
        Err(e) => eprintln!("ch-benchmark: could not write spans: {e}"),
    }
}
