//! Generation-stamped maps over persistent key sets — the state layer
//! under the incremental [`crate::incremental::FlowDelta`] path.
//!
//! A [`GenMap`] keeps its hash slots alive across windows while making
//! stale values invisible through a `u32` generation stamp, so window
//! turnover costs O(keys touched) instead of O(map capacity) and a flow
//! that reappears window after window never re-inserts. See the type
//! docs for the cull policy and the determinism constraints on folds.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use netsim::fxhash::FxHashMap;

/// Stale-entry cull threshold for [`GenMap::clear`]: compact when the
/// backing map holds this many times more keys than the window touched
/// (plus a flat floor so small windows over a rich key history don't
/// thrash the cull).
pub const GENMAP_COMPACT_FACTOR: usize = 4;
/// Flat floor added to the cull threshold (see
/// [`GENMAP_COMPACT_FACTOR`]).
pub const GENMAP_COMPACT_MIN: usize = 256;

/// A generation-stamped map: per-window values over a *persistent* key
/// set.
///
/// The hash map stores only a `(generation, slot)` stamp per key; the
/// window's values live in a dense `vals` vec aligned with the
/// `touched` key log. A lookup only sees slots stamped with the current
/// generation, and the first touch of a key in a generation appends a
/// fresh slot. Clearing a window is therefore O(touched) — bump the
/// generation, truncate the dense vecs — instead of the O(capacity)
/// sweep of `HashMap::clear`; a flow that reappears window after window
/// reuses its existing hash slot without any insertion or rehash; and
/// close-time folds iterate the *dense* value vec, never re-hashing a
/// key (this matters: under spoofed-source floods nearly every record
/// touches a distinct key, so a per-key re-hash at close would cost as
/// much as the pushes themselves). Iteration is in first-touch order,
/// so callers must only fold it with order-insensitive reductions.
///
/// Keys that stop appearing linger with a stale stamp; `clear` culls
/// them (deterministically, purely from `len`/`touched` counts) once
/// they outnumber live keys by [`GENMAP_COMPACT_FACTOR`], and
/// [`GenMap::force_cull`] drops every stale stamp immediately — the
/// hook behind the `features.state_cull` buggify point, which must be
/// semantically invisible because stale entries already are.
#[derive(Debug, Default)]
pub struct GenMap<K, V> {
    /// Per-key `(generation, index into vals)` stamp — 8 bytes, so a
    /// small-key entry spans one cache line's worth of table slot.
    map: FxHashMap<K, (u32, u32)>,
    /// Keys first-touched in the current generation, in touch order.
    touched: Vec<K>,
    /// Current-generation values, aligned with `touched`.
    vals: Vec<V>,
    gen: u32,
}

impl<K: Eq + Hash + Copy, V: Copy> GenMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        GenMap {
            map: FxHashMap::default(),
            touched: Vec::new(),
            vals: Vec::new(),
            gen: 0,
        }
    }

    /// Mutable value for `key`, initialised to `init` on the first touch
    /// of the current window.
    pub fn entry_or(&mut self, key: K, init: V) -> &mut V {
        let slot = match self.map.entry(key) {
            Entry::Occupied(e) => {
                let stamp = e.into_mut();
                if stamp.0 != self.gen {
                    *stamp = (self.gen, self.touched.len() as u32);
                    self.touched.push(key);
                    self.vals.push(init);
                }
                stamp.1
            }
            Entry::Vacant(e) => {
                e.insert((self.gen, self.touched.len() as u32));
                self.touched.push(key);
                self.vals.push(init);
                self.touched.len() as u32 - 1
            }
        };
        &mut self.vals[slot as usize]
    }

    /// Overwrites `key`'s value for the current window.
    pub fn insert(&mut self, key: K, value: V) {
        *self.entry_or(key, value) = value;
    }

    /// Current-window value of `key`, if it was touched.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.map.get(key) {
            Some((g, slot)) if *g == self.gen => Some(&self.vals[*slot as usize]),
            _ => None,
        }
    }

    /// `true` if `key` was touched in the current window.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Distinct keys touched in the current window.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// `true` if no key was touched in the current window.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Total keys in the backing table, live and stale (cull/compaction
    /// diagnostics).
    pub fn backing_len(&self) -> usize {
        self.map.len()
    }

    /// Current-window values, in first-touch order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.vals.iter()
    }

    /// Current-window entries, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.touched.iter().zip(self.vals.iter())
    }

    /// Ends the window: O(touched), plus an occasional stale-key cull.
    pub fn clear(&mut self) {
        if self.map.len() > GENMAP_COMPACT_FACTOR * self.touched.len() + GENMAP_COMPACT_MIN {
            self.force_cull();
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // A u32 generation wrapped (2^32 windows): drop every stamp
            // rather than let ancient entries alias the fresh generation.
            self.map.clear();
            self.gen = 1;
        }
        self.touched.clear();
        self.vals.clear();
    }

    /// Drops every stale-generation stamp immediately, regardless of
    /// the [`GENMAP_COMPACT_FACTOR`] threshold. Keys touched in the
    /// current window survive with their values intact; everything
    /// older loses its slot and will re-insert on its next appearance.
    /// Semantically a no-op (stale entries are already invisible) — the
    /// `features.state_cull` buggify point calls this mid-run to prove
    /// exactly that.
    pub fn force_cull(&mut self) {
        let live = self.gen;
        self.map.retain(|_, (g, _)| *g == live);
    }

    /// Test hook: jumps the generation counter (wraparound coverage).
    #[doc(hidden)]
    pub fn set_generation_for_test(&mut self, gen: u32) {
        // Re-stamp the live window so its entries stay visible under
        // the new generation, then drop everything else.
        for (slot, key) in self.touched.iter().enumerate() {
            self.map.insert(*key, (gen, slot as u32));
        }
        let live = gen;
        self.map.retain(|_, (g, _)| *g == live);
        self.gen = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Deterministic xorshift stream for the property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Reference model: a plain per-window HashMap, rebuilt every
    /// window. The GenMap must agree with it on every lookup and on the
    /// full entry set at every window close, across random workloads
    /// with culls, forced culls and generation jumps thrown in.
    #[test]
    fn random_ops_match_hashmap_oracle() {
        for seed in 1..=8u64 {
            let mut rng = Rng(seed | 1);
            let mut gm: GenMap<u32, u64> = GenMap::new();
            let mut oracle: HashMap<u32, u64> = HashMap::new();
            for window in 0..200 {
                let ops = rng.next() % 64;
                for _ in 0..ops {
                    let key = (rng.next() % 97) as u32;
                    match rng.next() % 3 {
                        0 => {
                            *gm.entry_or(key, 0) += 1;
                            *oracle.entry(key).or_default() += 1;
                        }
                        1 => {
                            let v = rng.next() % 1000;
                            gm.insert(key, v);
                            oracle.insert(key, v);
                        }
                        _ => {
                            assert_eq!(
                                gm.get(&key),
                                oracle.get(&key),
                                "window {window} lookup diverged for key {key}"
                            );
                        }
                    }
                }
                // Occasionally force an early cull mid-window: it must
                // be invisible to every subsequent op and fold.
                if rng.next().is_multiple_of(7) {
                    gm.force_cull();
                }
                let mut got: Vec<(u32, u64)> = gm.iter().map(|(k, v)| (*k, *v)).collect();
                got.sort_unstable();
                let mut want: Vec<(u32, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
                want.sort_unstable();
                assert_eq!(got, want, "window {window} entry set diverged");
                assert_eq!(gm.len(), oracle.len());
                gm.clear();
                oracle.clear();
            }
        }
    }

    /// A key culled while stale must behave exactly like a fresh key
    /// when it reappears.
    #[test]
    fn cull_then_reinsert_same_key() {
        let mut gm: GenMap<u32, u64> = GenMap::new();
        *gm.entry_or(7, 0) += 3;
        gm.clear(); // 7 is now stale
        assert_eq!(gm.get(&7), None);
        gm.force_cull(); // drops 7's stamp entirely
        assert_eq!(gm.backing_len(), 0);
        *gm.entry_or(7, 10) += 1;
        assert_eq!(gm.get(&7), Some(&11), "re-inserted key starts from init");
        assert_eq!(gm.len(), 1);
    }

    /// A forced cull mid-window keeps every live entry and drops every
    /// stale one.
    #[test]
    fn force_cull_keeps_live_entries() {
        let mut gm: GenMap<u32, u64> = GenMap::new();
        for k in 0..100u32 {
            gm.insert(k, u64::from(k));
        }
        gm.clear();
        for k in 0..10u32 {
            gm.insert(k, 1000 + u64::from(k));
        }
        assert_eq!(gm.backing_len(), 100, "stale keys linger before the cull");
        gm.force_cull();
        assert_eq!(gm.backing_len(), 10, "only live keys survive");
        for k in 0..10u32 {
            assert_eq!(gm.get(&k), Some(&(1000 + u64::from(k))));
        }
        for k in 10..100u32 {
            assert_eq!(gm.get(&k), None);
        }
    }

    /// The u32 generation wrapping to zero must not let ancient stamps
    /// alias the fresh generation.
    #[test]
    fn generation_wraparound_guard() {
        let mut gm: GenMap<u32, u64> = GenMap::new();
        gm.insert(1, 42);
        gm.set_generation_for_test(u32::MAX);
        assert_eq!(gm.get(&1), Some(&42), "live entry survives the jump");
        gm.clear(); // wraps: gen MAX -> 0 -> guarded to 1, map dropped
        assert_eq!(gm.get(&1), None, "pre-wrap entry must not alias");
        assert_eq!(gm.backing_len(), 0, "wrap guard drops every stamp");
        gm.insert(1, 7);
        assert_eq!(gm.get(&1), Some(&7));
        gm.clear();
        assert_eq!(gm.get(&1), None, "post-wrap generations keep separating");
    }

    /// The dense vecs compact at every clear while the backing table
    /// obeys the 4:1 + floor policy.
    #[test]
    fn dense_vec_compaction_policy() {
        let mut gm: GenMap<u32, u64> = GenMap::new();
        for k in 0..2000u32 {
            gm.insert(k, 1);
        }
        assert_eq!(gm.len(), 2000);
        gm.clear();
        assert_eq!(gm.len(), 0, "dense vecs truncate at clear");
        assert_eq!(gm.backing_len(), 2000, "stamps persist for slot reuse");
        // Sparse windows over the rich key history: the cull trips once
        // 2000 > 4 * touched + 256.
        for _ in 0..3 {
            for k in 0..5u32 {
                gm.insert(k, 2);
            }
            gm.clear();
        }
        assert!(
            gm.backing_len() <= GENMAP_COMPACT_FACTOR * 5 + GENMAP_COMPACT_MIN,
            "stale keys culled down to the live working set, got {}",
            gm.backing_len()
        );
        // The culled map still answers correctly.
        for k in 0..5u32 {
            gm.insert(k, 3);
            assert_eq!(gm.get(&k), Some(&3));
        }
        assert_eq!(gm.get(&1999), None);
    }
}
