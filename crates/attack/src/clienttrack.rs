//! Per-client bookkeeping (§III-A's fix).
//!
//! "The attacker should record the MAC addresses of all the clients it
//! tried to connect but failed in the past, and maintains an un-tried SSID
//! list for each of them." We store the complement — the set already
//! *sent* per MAC — which is equivalent and much smaller.
//!
//! SSIDs are tracked as interned [`SsidId`]s: a membership test is one bit
//! test on the id's dense index, and the untried filter dedups through an
//! [`EpochSet`] in O(1) per candidate rather than scanning the picked list.

use ch_arc::EpochSet;
use ch_sim::DetHashMap;

use ch_wifi::{MacAddr, SsidId};

/// Tracks which SSIDs have been sent to which client.
#[derive(Debug, Clone, Default)]
pub struct ClientTracker {
    sent: DetHashMap<MacAddr, SentSet>,
}

/// The SSIDs sent to one client, one bit per interned id. The untried
/// filter tests membership for every candidate it walks past, including
/// every SSID a returning client was already sent, so the test is one bit
/// on the id's dense index, not a hash lookup.
#[derive(Debug, Clone, Default)]
struct SentSet {
    bits: Vec<u64>,
    len: usize,
}

impl SentSet {
    fn contains(&self, id: SsidId) -> bool {
        let i = id.index();
        self.bits
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    fn insert(&mut self, id: SsidId) {
        let i = id.index();
        if i / 64 >= self.bits.len() {
            self.bits.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if let Some(word) = self.bits.get_mut(i / 64) {
            if *word & bit == 0 {
                *word |= bit;
                self.len += 1;
            }
        }
    }

    /// The ids in the set, ascending.
    fn ids(&self) -> impl Iterator<Item = SsidId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .filter_map(move |b| SsidId::from_index(w * 64 + b))
        })
    }
}

impl ClientTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ClientTracker::default()
    }

    /// Number of clients on record.
    pub fn client_count(&self) -> usize {
        self.sent.len()
    }

    /// How many SSIDs have been sent to `client` so far.
    pub fn sent_count(&self, client: MacAddr) -> usize {
        self.sent.get(&client).map_or(0, |set| set.len)
    }

    /// `true` if `ssid` was already sent to `client`.
    pub fn was_sent(&self, client: MacAddr, ssid: SsidId) -> bool {
        self.sent.get(&client).is_some_and(|set| set.contains(ssid))
    }

    /// Records that `ssid` has been sent to `client`.
    pub fn mark_sent(&mut self, client: MacAddr, ssid: SsidId) {
        self.mark_all_sent(client, [ssid]);
    }

    /// Records that every id in `ssids` has been sent to `client`, with
    /// one lookup of the client instead of one per id.
    pub fn mark_all_sent(&mut self, client: MacAddr, ssids: impl IntoIterator<Item = SsidId>) {
        let set = self.sent.entry(client).or_default();
        for ssid in ssids {
            set.insert(ssid);
        }
    }

    /// Filters `candidates` down to those not yet sent to `client`,
    /// preserving order and collapsing duplicates, stopping after `limit`.
    pub fn select_untried(
        &self,
        client: MacAddr,
        candidates: &[SsidId],
        limit: usize,
    ) -> Vec<SsidId> {
        let mut seen = EpochSet::new();
        let mut out = Vec::new();
        self.select_untried_into(client, candidates, limit, &mut seen, &mut out);
        out
    }

    /// [`select_untried`](ClientTracker::select_untried) into caller-owned
    /// scratch: `out` receives the picks, `seen` is the dedup set. Both are
    /// cleared first and reused across calls, so the steady-state filter
    /// never allocates.
    pub fn select_untried_into(
        &self,
        client: MacAddr,
        candidates: &[SsidId],
        limit: usize,
        seen: &mut EpochSet,
        out: &mut Vec<SsidId>,
    ) {
        out.clear();
        seen.begin();
        let sent = self.sent.get(&client);
        for &ssid in candidates {
            if out.len() >= limit {
                break;
            }
            let already = sent.is_some_and(|set| set.contains(ssid));
            if !already && seen.insert(ssid.index()) {
                out.push(ssid);
            }
        }
    }

    /// Forgets everything (database re-initialization between tests).
    pub fn clear(&mut self) {
        self.sent.clear();
    }

    /// The full sent-map as a deterministically ordered list (clients by
    /// MAC, SSIDs by interner index) — the checkpoint export. Nothing
    /// downstream iterates the tracker's internals, so restoring through
    /// [`ClientTracker::mark_sent`] is behaviourally exact.
    pub fn export_sorted(&self) -> Vec<(MacAddr, Vec<SsidId>)> {
        let mut entries: Vec<(MacAddr, Vec<SsidId>)> = self
            .sent
            .iter()
            .map(|(mac, set)| (*mac, set.ids().collect()))
            .collect();
        entries.sort_by_key(|(mac, _)| mac.octets());
        entries
    }

    /// Rebuilds the tracker from [`ClientTracker::export_sorted`] output.
    pub fn restore(&mut self, entries: Vec<(MacAddr, Vec<SsidId>)>) {
        self.sent.clear();
        for (mac, ids) in entries {
            for id in ids {
                self.mark_sent(mac, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::{Ssid, SsidInterner};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn intern(interner: &mut SsidInterner, s: &str) -> SsidId {
        interner.intern(&Ssid::new(s).unwrap())
    }

    #[test]
    fn untried_selection_skips_sent() {
        let mut interner = SsidInterner::new();
        let (a, b, c) = (
            intern(&mut interner, "A"),
            intern(&mut interner, "B"),
            intern(&mut interner, "C"),
        );
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), a);
        let pool = [a, b, c];
        let picked = t.select_untried(mac(1), &pool, 10);
        assert_eq!(picked, vec![b, c]);
        // A different client still gets "A".
        let picked2 = t.select_untried(mac(2), &pool, 10);
        assert_eq!(picked2.len(), 3);
    }

    #[test]
    fn limit_respected() {
        let mut interner = SsidInterner::new();
        let t = ClientTracker::new();
        let pool: Vec<SsidId> = (0..100)
            .map(|i| intern(&mut interner, &format!("S{i}")))
            .collect();
        let picked = t.select_untried(mac(1), &pool, 40);
        assert_eq!(picked.len(), 40);
    }

    #[test]
    fn duplicates_in_candidates_collapsed() {
        let mut interner = SsidInterner::new();
        let (a, b) = (intern(&mut interner, "A"), intern(&mut interner, "B"));
        let t = ClientTracker::new();
        let pool = [a, a, b];
        let picked = t.select_untried(mac(1), &pool, 10);
        assert_eq!(picked, vec![a, b]);
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        let mut interner = SsidInterner::new();
        let pool: Vec<SsidId> = (0..30)
            .map(|i| intern(&mut interner, &format!("S{i}")))
            .collect();
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), pool[0]);
        t.mark_sent(mac(1), pool[5]);
        let mut seen = EpochSet::new();
        let mut out = Vec::new();
        for limit in [0, 3, 10, 40] {
            t.select_untried_into(mac(1), &pool, limit, &mut seen, &mut out);
            assert_eq!(out, t.select_untried(mac(1), &pool, limit));
        }
    }

    #[test]
    fn counts_and_clear() {
        let mut interner = SsidInterner::new();
        let (a, b) = (intern(&mut interner, "A"), intern(&mut interner, "B"));
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), a);
        t.mark_sent(mac(1), b);
        t.mark_sent(mac(2), a);
        assert_eq!(t.client_count(), 2);
        assert_eq!(t.sent_count(mac(1)), 2);
        assert!(t.was_sent(mac(1), a));
        assert!(!t.was_sent(mac(2), b));
        t.clear();
        assert_eq!(t.client_count(), 0);
        assert_eq!(t.sent_count(mac(1)), 0);
    }

    #[test]
    fn sent_ids_across_words_and_export_order() {
        // Ids far apart land in different 64-bit words; a repeat counts
        // once; an id past the client's last word is simply not sent.
        let mut interner = SsidInterner::new();
        let pool: Vec<SsidId> = (0..200)
            .map(|i| intern(&mut interner, &format!("S{i}")))
            .collect();
        let mut t = ClientTracker::new();
        t.mark_all_sent(mac(1), [pool[130], pool[3], pool[70], pool[3]]);
        assert_eq!(t.sent_count(mac(1)), 3);
        for (i, &id) in pool.iter().enumerate() {
            assert_eq!(t.was_sent(mac(1), id), [3, 70, 130].contains(&i), "id {i}");
        }
        let export = t.export_sorted();
        assert_eq!(export, vec![(mac(1), vec![pool[3], pool[70], pool[130]])]);
        let mut restored = ClientTracker::new();
        restored.restore(export.clone());
        assert_eq!(restored.export_sorted(), export);
    }

    proptest! {
        /// Marking everything selected, then selecting again, never repeats
        /// an SSID to the same client — the §III-A invariant.
        #[test]
        fn prop_never_resend(
            names in proptest::collection::vec("[a-z]{1,6}", 1..50),
            rounds in 1usize..6,
        ) {
            let mut interner = SsidInterner::new();
            let pool: Vec<SsidId> = names.iter().map(|n| intern(&mut interner, n)).collect();
            let mut t = ClientTracker::new();
            let client = mac(7);
            let mut seen = HashSet::new();
            for _ in 0..rounds {
                let picked = t.select_untried(client, &pool, 10);
                for &s in &picked {
                    prop_assert!(seen.insert(s), "resent {s}");
                    t.mark_sent(client, s);
                }
            }
        }
    }
}
