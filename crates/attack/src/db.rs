//! The weighted SSID database (§IV-B).
//!
//! Every SSID the attacker knows, with a weight (initially rank-order from
//! the heat-ranked WiGLE seed, then bumped by online events), hit
//! statistics, and the freshness timestamp the FB runs on.
//!
//! The database owns a [`SsidInterner`] and keys everything by [`SsidId`]:
//! the ranking caches are `Vec<SsidId>` rebuilt in place (no per-call
//! clones — the old API returned `Vec<Ssid>` by clone on every freshness
//! query), and the buffers downstream dedup ids instead of comparing
//! strings. [`Ssid`] remains the validated boundary type: it enters via the
//! seed/observe calls and leaves via [`SsidDatabase::resolve`].

use std::cmp::Ordering;

use ch_sim::{ch_invariant, DetHashMap};

use ch_sim::SimTime;
use ch_wifi::{Ssid, SsidId, SsidInterner};

use crate::api::LureSource;

/// Weight bump when an SSID scores a hit on a broadcast client.
pub const HIT_WEIGHT_BONUS: f64 = 25.0;

/// Initial weight of an SSID harvested from a direct probe: the paper adds
/// them to the live database; a mid-range weight lets genuinely popular
/// ones climb via hits without letting every one-off home SSID crowd the
/// popularity buffer.
pub const DIRECT_PROBE_WEIGHT: f64 = 30.0;

/// Weight bump when an already-known SSID is seen in another direct probe
/// (several clients carrying it is evidence of popularity).
pub const DIRECT_REPEAT_BONUS: f64 = 10.0;

/// One database record.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// Selection weight (popularity).
    pub weight: f64,
    /// Original provenance.
    pub source: LureSource,
    /// Broadcast-probe hits scored with this SSID.
    pub hits: u32,
    /// Most recent hit instant (freshness).
    pub last_hit: Option<SimTime>,
    /// When the SSID entered the database.
    pub added_at: SimTime,
}

/// The attacker's SSID database.
#[derive(Debug, Clone, Default)]
pub struct SsidDatabase {
    interner: SsidInterner,
    entries: DetHashMap<SsidId, DbEntry>,
    /// Weight-descending order, kept sorted incrementally by online
    /// updates; fully re-sorted (lazily, in place) only after seeding or
    /// restore set `ranked_dirty`.
    ranked: Vec<SsidId>,
    ranked_dirty: bool,
    /// Cached freshness order (most recent hit first); rebuilt lazily.
    fresh: Vec<SsidId>,
    fresh_dirty: bool,
    fresh_scratch: Vec<(SimTime, SsidId)>,
}

impl SsidDatabase {
    /// An empty database.
    pub fn new() -> Self {
        SsidDatabase::default()
    }

    /// Number of known SSIDs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The interner backing this database. Ids returned by any method here
    /// resolve against it.
    pub fn interner(&self) -> &SsidInterner {
        &self.interner
    }

    /// The id of `ssid`, if it is known.
    pub fn id_of(&self, ssid: &Ssid) -> Option<SsidId> {
        self.interner
            .get(ssid)
            .filter(|id| self.entries.contains_key(id))
    }

    /// Resolves a database id back to its SSID.
    pub fn resolve(&self, id: SsidId) -> &Ssid {
        self.interner.resolve(id)
    }

    /// The record for `ssid`.
    pub fn entry(&self, ssid: &Ssid) -> Option<&DbEntry> {
        self.interner.get(ssid).and_then(|id| self.entries.get(&id))
    }

    /// The record for an interned id.
    pub fn entry_by_id(&self, id: SsidId) -> Option<&DbEntry> {
        self.entries.get(&id)
    }

    /// The provenance of an interned id (hot-path lookup; never allocates).
    pub fn source_of(&self, id: SsidId) -> Option<LureSource> {
        self.entries.get(&id).map(|e| e.source)
    }

    /// `true` if `ssid` is known.
    pub fn contains(&self, ssid: &Ssid) -> bool {
        self.id_of(ssid).is_some()
    }

    /// Seeds an SSID from the WiGLE ranking with an explicit rank weight.
    /// Existing entries keep the larger weight.
    pub fn seed_from_wigle(&mut self, ssid: Ssid, weight: f64, now: SimTime) -> SsidId {
        self.ranked_dirty = true;
        let id = self.interner.intern(&ssid);
        self.entries
            .entry(id)
            .and_modify(|e| e.weight = e.weight.max(weight))
            .or_insert(DbEntry {
                weight,
                source: LureSource::Wigle,
                hits: 0,
                last_hit: None,
                added_at: now,
            });
        id
    }

    /// Preloads a carrier SSID (§V-B) at a given weight.
    pub fn seed_carrier(&mut self, ssid: Ssid, weight: f64, now: SimTime) -> SsidId {
        self.ranked_dirty = true;
        let id = self.interner.intern(&ssid);
        self.entries.entry(id).or_insert(DbEntry {
            weight,
            source: LureSource::Carrier,
            hits: 0,
            last_hit: None,
            added_at: now,
        });
        id
    }

    /// Records an SSID disclosed by a direct probe: new SSIDs join at
    /// [`DIRECT_PROBE_WEIGHT`]; repeats earn [`DIRECT_REPEAT_BONUS`].
    pub fn observe_direct_probe(&mut self, ssid: &Ssid, now: SimTime) -> SsidId {
        let id = self.interner.intern(ssid);
        let mut old_weight = None;
        self.entries
            .entry(id)
            .and_modify(|e| {
                old_weight = Some(e.weight);
                e.weight += DIRECT_REPEAT_BONUS;
            })
            .or_insert(DbEntry {
                weight: DIRECT_PROBE_WEIGHT,
                source: LureSource::DirectProbe,
                hits: 0,
                last_hit: None,
                added_at: now,
            });
        self.rerank(id, old_weight);
        id
    }

    /// Records a broadcast hit with `ssid`: weight bonus + freshness stamp.
    pub fn record_hit(&mut self, ssid: &Ssid, now: SimTime) {
        if let Some(id) = self.id_of(ssid) {
            self.record_hit_id(id, now);
        }
    }

    /// [`record_hit`](SsidDatabase::record_hit) by interned id.
    pub fn record_hit_id(&mut self, id: SsidId, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&id) {
            let old_weight = e.weight;
            e.weight += HIT_WEIGHT_BONUS;
            e.hits += 1;
            e.last_hit = Some(now);
            self.fresh_dirty = true;
            self.rerank(id, Some(old_weight));
        }
    }

    /// The ranking order over `(weight, id)` keys: weight descending, then
    /// name ascending. Names are distinct per id, so this is a total order.
    fn rank_cmp(&self, (wa, a): (f64, SsidId), (wb, b): (f64, SsidId)) -> Ordering {
        wb.total_cmp(&wa)
            .then_with(|| self.interner.resolve(a).cmp(self.interner.resolve(b)))
    }

    /// The current ranking key of `id`.
    fn key(&self, id: SsidId) -> (f64, SsidId) {
        let weight = self
            .entries
            .get(&id)
            .map_or(f64::NEG_INFINITY, |e| e.weight);
        (weight, id)
    }

    /// Moves `id` to its place in `ranked` after its weight rose from
    /// `old_weight` (`None`: it just joined the database). Online updates
    /// only ever raise a weight, so the id only moves toward the head: two
    /// binary searches and one rotation over the entries it overtakes,
    /// where a dirty flag would cost the next broadcast probe a full
    /// re-sort.
    fn rerank(&mut self, id: SsidId, old_weight: Option<f64>) {
        if self.ranked_dirty {
            return; // a full sort is pending anyway
        }
        let mut ranked = std::mem::take(&mut self.ranked);
        let from = match old_weight {
            // `ranked` still holds `id` where its old weight sorted it.
            Some(old) => ranked
                .partition_point(|&x| x != id && self.rank_cmp(self.key(x), (old, id)).is_lt()),
            None => {
                ranked.push(id);
                ranked.len() - 1
            }
        };
        let found = ranked.get(from) == Some(&id);
        ch_invariant!(found, "ranking cache lost track of an SSID");
        if found {
            let new_key = self.key(id);
            let to =
                ranked[..from].partition_point(|&x| self.rank_cmp(self.key(x), new_key).is_lt());
            ranked[to..=from].rotate_right(1);
        } else {
            self.ranked_dirty = true;
        }
        self.ranked = ranked;
    }

    /// SSID ids in weight-descending order (stable name tie-break). Online
    /// updates keep the order current as they happen; only seeding and
    /// restore leave a full sort, done here in place — no allocation once
    /// the cache has reached the database size.
    pub fn ranked(&mut self) -> &[SsidId] {
        if self.ranked_dirty {
            let mut order = std::mem::take(&mut self.ranked);
            order.clear();
            order.extend(self.entries.keys().copied());
            // Unstable sort (in place, allocation-free); the (weight, name)
            // key is a total order over distinct names, so the result
            // matches the old stable sort byte for byte.
            order.sort_unstable_by(|&a, &b| self.rank_cmp(self.key(a), self.key(b)));
            self.ranked = order;
            self.ranked_dirty = false;
        }
        &self.ranked
    }

    /// SSID ids with at least one hit, most recent hit first — the
    /// freshness ranking behind the FB. Cached between hits (the old API
    /// cloned every SSID into a fresh `Vec<String>`-style list per call).
    pub fn by_freshness(&mut self) -> &[SsidId] {
        if self.fresh_dirty {
            let mut scratch = std::mem::take(&mut self.fresh_scratch);
            scratch.clear();
            scratch.extend(
                self.entries
                    .iter()
                    .filter_map(|(id, e)| e.last_hit.map(|t| (t, *id))),
            );
            let interner = &self.interner;
            scratch.sort_unstable_by(|a, b| {
                b.0.cmp(&a.0)
                    .then_with(|| interner.resolve(a.1).cmp(interner.resolve(b.1)))
            });
            self.fresh.clear();
            self.fresh.extend(scratch.iter().map(|&(_, id)| id));
            self.fresh_scratch = scratch;
            self.fresh_dirty = false;
        }
        &self.fresh
    }

    /// Both ranking caches at once, refreshed — the hot path needs the
    /// weight order and the freshness order simultaneously, and the borrow
    /// checker will not allow two sequential `&mut self` accessor calls to
    /// both stay live.
    pub fn ranked_and_fresh(&mut self) -> (&[SsidId], &[SsidId]) {
        let _ = self.ranked();
        let _ = self.by_freshness();
        (&self.ranked, &self.fresh)
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = (&Ssid, &DbEntry)> {
        self.entries
            .iter()
            .map(|(id, e)| (self.interner.resolve(*id), e))
    }

    /// Inserts one record verbatim — the checkpoint-restore path. Replaying
    /// a database export through this call in the interner's original id
    /// order (see [`SsidInterner::names`](ch_wifi::SsidInterner)) reproduces
    /// the same `SsidId` assignment, so exported id lists stay valid.
    pub fn restore_entry(&mut self, ssid: &Ssid, entry: DbEntry) -> SsidId {
        let id = self.interner.intern(ssid);
        self.entries.insert(id, entry);
        self.ranked_dirty = true;
        self.fresh_dirty = true;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    #[test]
    fn wigle_seed_keeps_max_weight() {
        let mut db = SsidDatabase::new();
        let id = db.seed_from_wigle(ssid("A"), 200.0, SimTime::ZERO);
        assert_eq!(db.seed_from_wigle(ssid("A"), 50.0, SimTime::ZERO), id);
        assert_eq!(db.entry(&ssid("A")).unwrap().weight, 200.0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.id_of(&ssid("A")), Some(id));
        assert_eq!(db.resolve(id), &ssid("A"));
    }

    #[test]
    fn direct_probe_repeats_accumulate() {
        let mut db = SsidDatabase::new();
        db.observe_direct_probe(&ssid("X"), SimTime::ZERO);
        let w0 = db.entry(&ssid("X")).unwrap().weight;
        db.observe_direct_probe(&ssid("X"), SimTime::from_secs(1));
        assert_eq!(
            db.entry(&ssid("X")).unwrap().weight,
            w0 + DIRECT_REPEAT_BONUS
        );
        assert_eq!(
            db.entry(&ssid("X")).unwrap().source,
            LureSource::DirectProbe
        );
    }

    #[test]
    fn hits_boost_weight_and_freshness() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 10.0, SimTime::ZERO);
        db.record_hit(&ssid("A"), SimTime::from_secs(30));
        let e = db.entry(&ssid("A")).unwrap();
        assert_eq!(e.hits, 1);
        assert_eq!(e.last_hit, Some(SimTime::from_secs(30)));
        assert_eq!(e.weight, 10.0 + HIT_WEIGHT_BONUS);
        // Hitting an unknown SSID is a no-op.
        db.record_hit(&ssid("Nope"), SimTime::from_secs(31));
        assert!(!db.contains(&ssid("Nope")));
    }

    #[test]
    fn ranking_follows_weight_then_name() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("Low"), 1.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B-High"), 9.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("A-High"), 9.0, SimTime::ZERO);
        let order = db.ranked().to_vec();
        let ranked: Vec<&str> = order.iter().map(|&id| db.resolve(id).as_str()).collect();
        assert_eq!(ranked, ["A-High", "B-High", "Low"]);
    }

    #[test]
    fn ranking_cache_invalidated_by_updates() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 5.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B"), 4.0, SimTime::ZERO);
        let head = db.ranked()[0];
        assert_eq!(db.resolve(head).as_str(), "A");
        db.record_hit(&ssid("B"), SimTime::from_secs(1)); // B now 29
        let head = db.ranked()[0];
        assert_eq!(db.resolve(head).as_str(), "B");
    }

    #[test]
    fn freshness_order_is_recency() {
        let mut db = SsidDatabase::new();
        for (name, t) in [("A", 10), ("B", 30), ("C", 20)] {
            db.seed_from_wigle(ssid(name), 1.0, SimTime::ZERO);
            db.record_hit(&ssid(name), SimTime::from_secs(t));
        }
        db.seed_from_wigle(ssid("NeverHit"), 99.0, SimTime::ZERO);
        let order = db.by_freshness().to_vec();
        let fresh: Vec<&str> = order.iter().map(|&id| db.resolve(id).as_str()).collect();
        assert_eq!(fresh, ["B", "C", "A"]);
    }

    #[test]
    fn freshness_cache_invalidated_by_hits() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 1.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B"), 1.0, SimTime::ZERO);
        db.record_hit(&ssid("A"), SimTime::from_secs(1));
        assert_eq!(db.by_freshness().len(), 1);
        db.record_hit(&ssid("B"), SimTime::from_secs(2));
        let order = db.by_freshness().to_vec();
        let fresh: Vec<&str> = order.iter().map(|&id| db.resolve(id).as_str()).collect();
        assert_eq!(fresh, ["B", "A"]);
    }

    #[test]
    fn stale_interned_id_is_not_an_entry() {
        // An id can exist in the interner without a database record only if
        // callers misuse the type; id_of must still answer from `entries`.
        let mut db = SsidDatabase::new();
        let id = db.seed_from_wigle(ssid("A"), 1.0, SimTime::ZERO);
        assert_eq!(
            db.entry_by_id(id).map(|e| e.source),
            Some(LureSource::Wigle)
        );
        assert_eq!(db.source_of(id), Some(LureSource::Wigle));
    }

    #[test]
    fn empty_db() {
        let mut db = SsidDatabase::new();
        assert!(db.is_empty());
        assert!(db.ranked().is_empty());
        assert!(db.by_freshness().is_empty());
    }

    /// The ranking `ranked()` must match: every entry, sorted from scratch
    /// by weight descending, then name ascending.
    fn sorted_from_scratch(db: &SsidDatabase) -> Vec<SsidId> {
        let mut all: Vec<(f64, &Ssid)> = db.iter().map(|(s, e)| (e.weight, s)).collect();
        all.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        all.iter().filter_map(|(_, s)| db.id_of(s)).collect()
    }

    proptest! {
        /// Any interleaving of seeding, online updates, restores and
        /// clones leaves `ranked()` equal to a from-scratch sort. Few names
        /// and a handful of weights (30 + 10 = 40, 30 + 25 = 55) make ties
        /// and repeats common.
        #[test]
        fn prop_incremental_ranking_matches_full_sort(
            steps in proptest::collection::vec((0u8..7, 0usize..12, 0usize..6), 1..120),
        ) {
            const WEIGHTS: [f64; 6] = [1.0, 10.0, 30.0, 40.0, 55.0, 500.0];
            let mut db = SsidDatabase::new();
            for (t, (op, name, w)) in steps.into_iter().enumerate() {
                let ssid = ssid(&format!("S{name:02}"));
                let now = SimTime::from_secs(t as u64);
                match op {
                    0 => {
                        db.seed_from_wigle(ssid, WEIGHTS[w], now);
                    }
                    1 => {
                        db.seed_carrier(ssid, WEIGHTS[w], now);
                    }
                    2 | 3 => {
                        db.observe_direct_probe(&ssid, now);
                    }
                    4 => db.record_hit(&ssid, now),
                    5 => {
                        let entry = DbEntry {
                            weight: WEIGHTS[w],
                            source: LureSource::Wigle,
                            hits: 0,
                            last_hit: None,
                            added_at: now,
                        };
                        db.restore_entry(&ssid, entry);
                    }
                    _ => db = db.clone(),
                }
                let expected = sorted_from_scratch(&db);
                prop_assert_eq!(db.ranked(), expected.as_slice(), "after step {}", t);
            }
        }
    }
}
