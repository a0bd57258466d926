//! The process-wide plan store.
//!
//! Hot queries compile once: [`PlanCache::get_or_compile`] keys
//! [`CompiledPlan`]s by query text, sharded 16 ways by an FNV-1a hash of
//! the text (the same striping discipline as the global label interner,
//! for the same reason — service workers hit the cache concurrently and
//! must not serialize on one lock). Reads take a shard read lock;
//! a miss upgrades to the shard write lock and compiles **inside** it,
//! re-checking first, so each text is compiled exactly once per
//! residency no matter how many workers race on it — each entry carries
//! a compile counter precisely so a duplicated compilation would be
//! *observable* (the `plan_cache_threads` suite asserts the counter stays
//! at 1).
//!
//! Parse errors are not cached: a malformed query costs a parse per
//! attempt, exactly as it did before the cache existed.
//!
//! Each shard holds at most `SHARD_CAP` plans and evicts by CLOCK
//! (second chance). A hit sets its entry's `referenced` bit; an insert
//! into a full shard sweeps the shard's hand forward, clearing set bits,
//! and replaces the first entry whose bit was already clear. So a text
//! that is used once is evicted within one sweep, while a text hit at
//! least once per sweep stays resident — together with the cost record
//! its plan carries. A serving mix of a small hot set and a stream of
//! one-shot texts keeps the hot set and costs at most `SHARD_CAP` plans
//! per shard.

use super::compile::{compile_query_text, CompiledPlan};
use crate::parser::QueryParseError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Number of lock stripes. Power of two so the hash folds cheaply.
const SHARDS: usize = 16;

/// Plans per shard. `many-small`'s 256 hot texts put at most 21 in one
/// shard, so a shard keeps its hot texts with room for a sweep of
/// one-shot texts.
const SHARD_CAP: usize = 64;

struct Entry {
    text: Arc<str>,
    plan: Arc<CompiledPlan>,
    /// Times this key was compiled while cached — 1 unless the
    /// exactly-once discipline is broken (asserted in tests).
    compiles: u64,
    /// Set by a hit, cleared by the eviction hand passing over it. It
    /// publishes no other data (the hand reads it under the write lock),
    /// so relaxed accesses suffice.
    referenced: AtomicBool,
}

impl Entry {
    /// The entry's plan, marking it referenced. Only a clear bit is
    /// stored, so a hot entry's cache line stays shared between readers.
    fn hit(&self) -> Arc<CompiledPlan> {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        self.plan.clone()
    }
}

/// One lock stripe: the resident entries, an index from text to slot,
/// and the CLOCK hand.
#[derive(Default)]
struct Shard {
    index: HashMap<Arc<str>, usize>,
    slots: Vec<Entry>,
    hand: usize,
}

impl Shard {
    fn entry(&self, text: &str) -> Option<&Entry> {
        self.index.get(text).map(|&slot| &self.slots[slot])
    }

    /// Inserts a freshly compiled plan, unreferenced. A full shard
    /// replaces the first entry at or after the hand whose bit is clear,
    /// clearing the bits it passes; the write lock excludes hits, so the
    /// sweep ends within one turn.
    fn insert(&mut self, text: &str, plan: Arc<CompiledPlan>) {
        let entry = Entry {
            text: Arc::from(text),
            plan,
            compiles: 1,
            referenced: AtomicBool::new(false),
        };
        let slot = if self.slots.len() < SHARD_CAP {
            self.slots.push(entry);
            self.slots.len() - 1
        } else {
            while std::mem::take(self.slots[self.hand].referenced.get_mut()) {
                self.hand = (self.hand + 1) % SHARD_CAP;
            }
            let slot = self.hand;
            self.hand = (slot + 1) % SHARD_CAP;
            self.index.remove(&self.slots[slot].text);
            self.slots[slot] = entry;
            slot
        };
        self.index.insert(Arc::clone(&self.slots[slot].text), slot);
    }
}

/// A sharded map from query text to compiled plan. One process-wide
/// instance serves every evaluation path ([`PlanCache::global`]); tests
/// build private instances with [`PlanCache::new`].
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

/// FNV-1a, matching the label interner's shard router.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl PlanCache {
    /// The most plans the cache holds at once.
    pub const CAPACITY: usize = SHARDS * SHARD_CAP;

    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    /// The process-wide cache every evaluation path shares.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    fn shard(&self, text: &str) -> &RwLock<Shard> {
        &self.shards[(fnv1a(text) as usize) & (SHARDS - 1)]
    }

    /// The cached plan for `text`, if present (never compiles). A hit
    /// marks the entry referenced, so it survives the next eviction
    /// sweep.
    ///
    /// Lock poisoning is recovered, not propagated, here and in every
    /// accessor below: the only write under a shard lock is
    /// insert-after-compile ([`PlanCache::get_or_compile`]), so a panic
    /// mid-critical-section at worst loses the entry being inserted —
    /// the surviving shard is consistent, and the serving pool's panic
    /// containment depends on the cache staying usable after a contained
    /// crash.
    pub fn get(&self, text: &str) -> Option<Arc<CompiledPlan>> {
        self.shard(text)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(text)
            .map(Entry::hit)
    }

    /// The cached plan for `text`, compiling it on a miss. Hits return
    /// the same `Arc` while the entry is resident (pointer equality —
    /// property-tested); misses compile under the shard write lock after
    /// a re-check, so concurrent misses on one text compile it once.
    /// Parse failures propagate and are not cached.
    pub fn get_or_compile(&self, text: &str) -> Result<Arc<CompiledPlan>, QueryParseError> {
        if let Some(plan) = self.get(text) {
            return Ok(plan);
        }
        let mut shard = self
            .shard(text)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = shard.entry(text) {
            return Ok(e.hit());
        }
        let plan = Arc::new(compile_query_text(text)?);
        shard.insert(text, plan.clone());
        Ok(plan)
    }

    /// How many times `text` was compiled while cached (0 when absent,
    /// 1 under the exactly-once guarantee) — the compile-count hook the
    /// concurrency smoke test observes. Does not count as a hit.
    pub fn compile_count(&self, text: &str) -> u64 {
        self.shard(text)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(text)
            .map_or(0, |e| e.compiles)
    }

    /// Number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).slots.len())
            .sum()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_return_the_same_arc() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile("$root/*").unwrap();
        let b = cache.get_or_compile("$root/*").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.compile_count("$root/*"), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn parse_errors_propagate_and_are_not_cached() {
        let cache = PlanCache::new();
        assert!(cache.get_or_compile("for $x in").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.compile_count("for $x in"), 0);
    }

    #[test]
    fn a_default_cache_is_a_working_empty_cache() {
        let cache = PlanCache::default();
        assert!(cache.get("$root").is_none());
        assert!(cache.get_or_compile("$root").is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_texts_get_distinct_plans() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile("$root/a").unwrap();
        let b = cache.get_or_compile("$root/b").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_overflow_evicts_within_the_shard_not_the_cache() {
        let cache = PlanCache::new();
        // Overfill: SHARD_CAP plans land in ~16 shards, so pushing well
        // past SHARDS * SHARD_CAP forces evictions without the cache
        // growing unboundedly.
        let n = SHARDS * SHARD_CAP + SHARD_CAP;
        for i in 0..n {
            cache.get_or_compile(&format!("$root/t{i}")).unwrap();
        }
        assert!(cache.len() <= SHARDS * SHARD_CAP);
        assert!(!cache.is_empty());
    }

    /// Texts that all land in the shard of `$root/s0`.
    fn one_shard_texts(n: usize) -> Vec<String> {
        let home = fnv1a("$root/s0") as usize & (SHARDS - 1);
        (0..)
            .map(|i| format!("$root/s{i}"))
            .filter(|t| fnv1a(t) as usize & (SHARDS - 1) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn a_plan_never_hit_is_evicted_before_one_that_is() {
        let cache = PlanCache::new();
        let texts = one_shard_texts(SHARD_CAP + 2);
        let (full, extra) = texts.split_at(SHARD_CAP);
        for t in full {
            cache.get_or_compile(t).unwrap();
        }
        // Hit every resident plan but one: the one left cold is the
        // victim of the next insert, wherever the hand stands.
        let cold = &full[SHARD_CAP / 2];
        for t in full.iter().filter(|t| *t != cold) {
            assert!(cache.get(t).is_some());
        }
        cache.get_or_compile(&extra[0]).unwrap();
        assert_eq!(cache.len(), SHARD_CAP);
        assert_eq!(cache.compile_count(cold), 0, "the cold plan is evicted");
        for t in full.iter().filter(|t| *t != cold) {
            assert_eq!(cache.compile_count(t), 1, "{t} stays resident");
        }
        // The sweep spent the second chance of every plan it passed, so
        // with no hit since, the next insert takes the first of them.
        cache.get_or_compile(&extra[1]).unwrap();
        assert_eq!(cache.compile_count(&full[0]), 0, "the hand wrapped to it");
        assert_eq!(cache.compile_count(&extra[0]), 1);
        assert_eq!(cache.len(), SHARD_CAP);
    }

    #[test]
    fn hot_texts_survive_a_flood_of_one_shot_texts() {
        // The `many-small` shape: a hot set, then one fresh text per
        // eight requests. No hot text is evicted, so none recompiles.
        let cache = PlanCache::new();
        let hot: Vec<String> = (0..256).map(|i| format!("$root/h{i}")).collect();
        let plans: Vec<Arc<CompiledPlan>> = hot
            .iter()
            .map(|t| cache.get_or_compile(t).unwrap())
            .collect();
        let mut next = 0;
        for fresh in 0..20_000 {
            cache
                .get_or_compile(&format!("let $f{fresh} := <f/> return $root/h0"))
                .unwrap();
            for _ in 0..7 {
                let plan = cache.get_or_compile(&hot[next]).unwrap();
                assert!(Arc::ptr_eq(&plan, &plans[next]), "{} recompiled", hot[next]);
                next = (next + 1) % hot.len();
            }
        }
        for t in &hot {
            assert_eq!(cache.compile_count(t), 1);
        }
        assert!(cache.len() <= SHARDS * SHARD_CAP);
    }
}
