//! The concurrent topology-keyed plan cache behind
//! [`MaxFlowSolver`](super::MaxFlowSolver): lock-striped shards selected
//! by topology fingerprint, per-shard LRU eviction with byte accounting,
//! and single-flight cold-path deduplication.
//!
//! The design (see `DESIGN.md`, "Serving tier"):
//!
//! * **Fingerprint-first probes.** A hit costs one streaming pass over the
//!   graph to fingerprint it ([`TemplateKey::fingerprint`]), one shard
//!   mutex, one hash-map probe and one allocation-free edge-list
//!   verification ([`TemplateKey::verifies`]) — never an intermediate
//!   edge `Vec`, never a per-edge `Hash` dispatch, never a rebuilt
//!   [`TemplateKey`].
//! * **Sharding.** The shard index comes from the fingerprint's *high*
//!   bits (the probe map consumes the full value), so concurrent requests
//!   for different topologies contend on different mutexes.
//! * **Collision safety.** Entries whose fingerprint matches but whose
//!   full key does not verify against the probing graph coexist in one
//!   bucket (`Vec` per fingerprint); a collision costs a failed
//!   comparison, never a wrong plan.
//! * **Single flight.** The first requester of a new topology installs a
//!   `Building` slot and runs the symbolic cold path outside the lock;
//!   concurrent requesters of the same topology block on the slot's
//!   condvar and share the one built [`Arc<SubstrateTemplate>`]. If the
//!   build fails, waiters fall back to building independently (failure
//!   paths are not deduplicated — they must each observe their own error).
//! * **LRU + byte accounting.** Each resident plan is costed from its
//!   factorization fill (`factor_nnz`) and edge count; when a shard
//!   exceeds its share of the configured capacity, least-recently-used
//!   `Ready` plans are evicted (in-flight `Building` slots never are).
//!   Evicted plans keep serving callers that still hold their `Arc`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ohmflow_graph::FlowNetwork;

use crate::template::{SubstrateTemplate, TemplateKey};
use crate::AnalogError;

/// Default total capacity: generous enough that eviction only engages on
/// serving-tier workloads cycling through many large topologies.
pub(crate) const DEFAULT_CAPACITY_BYTES: usize = 512 << 20;

/// Shard count (power of two; the shard index is the fingerprint's top
/// bits). 16 mutexes keep 8–16 concurrent threads on distinct locks with
/// high probability while the per-shard LRU scans stay tiny.
const SHARD_COUNT: usize = 16;

/// Aggregate observability counters of the plan cache, surfaced through
/// [`PlanReport`](super::PlanReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Fingerprint-probed lookups served from a resident plan.
    pub hits: u64,
    /// Lookups that paid (or waited on) the symbolic cold path.
    pub misses: u64,
    /// Plans evicted under byte-capacity pressure.
    pub evictions: u64,
    /// Bytes currently accounted to resident plans.
    pub resident_bytes: usize,
    /// Resident (ready) plans across all shards.
    pub resident_plans: usize,
}

/// Single-flight gate: the cold-path builder publishes its result here and
/// wakes every waiter. `None` signals a failed build (waiters retry
/// independently — `AnalogError` is not shared across requesters).
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug)]
enum GateState {
    Building,
    Done(Option<Arc<SubstrateTemplate>>),
}

impl Gate {
    fn new() -> Self {
        Gate {
            state: Mutex::new(GateState::Building),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> Option<Arc<SubstrateTemplate>> {
        let mut st = self
            .state
            .lock()
            .expect("invariant: gate lock is never poisoned");
        while matches!(*st, GateState::Building) {
            st = self
                .cv
                .wait(st)
                .expect("invariant: gate lock is never poisoned");
        }
        match &*st {
            GateState::Done(r) => r.clone(),
            GateState::Building => unreachable!("wait loop exits on Done"),
        }
    }

    fn complete(&self, r: Option<Arc<SubstrateTemplate>>) {
        *self
            .state
            .lock()
            .expect("invariant: gate lock is never poisoned") = GateState::Done(r);
        self.cv.notify_all();
    }
}

#[derive(Debug)]
enum Slot {
    Ready {
        tpl: Arc<SubstrateTemplate>,
        cost: usize,
        last_used: u64,
    },
    Building(Arc<Gate>),
}

#[derive(Debug)]
struct Entry {
    key: TemplateKey,
    slot: Slot,
}

#[derive(Debug, Default)]
struct Shard {
    /// Fingerprint → colliding entries (almost always length 1).
    buckets: HashMap<u64, Vec<Entry>>,
    /// Bytes accounted to `Ready` entries.
    bytes: usize,
    /// Monotone LRU clock (bumped per access, not per nanosecond —
    /// recency order is all eviction needs).
    tick: u64,
}

impl Shard {
    fn ready_count(&self) -> usize {
        self.buckets
            .values()
            .flatten()
            .filter(|e| matches!(e.slot, Slot::Ready { .. }))
            .count()
    }

    /// Evicts least-recently-used ready plans until the shard fits its
    /// budget, always retaining at least one ready plan (a single plan
    /// larger than the budget stays resident rather than thrashing).
    fn evict_to(&mut self, budget: usize, evictions: &AtomicU64) {
        while self.bytes > budget && self.ready_count() > 1 {
            let victim = self
                .buckets
                .iter()
                .flat_map(|(&fp, bucket)| {
                    bucket
                        .iter()
                        .enumerate()
                        .filter_map(move |(i, e)| match e.slot {
                            Slot::Ready {
                                cost, last_used, ..
                            } => Some((last_used, fp, i, cost)),
                            Slot::Building(_) => None,
                        })
                })
                .min_by_key(|&(last_used, ..)| last_used);
            let Some((_, fp, i, cost)) = victim else {
                break;
            };
            let bucket = self
                .buckets
                .get_mut(&fp)
                .expect("invariant: the eviction victim bucket is resident");
            bucket.swap_remove(i);
            if bucket.is_empty() {
                self.buckets.remove(&fp);
            }
            self.bytes -= cost;
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What one probe decided while the shard lock was held.
enum Probe {
    Hit(Arc<SubstrateTemplate>),
    Wait(Arc<Gate>),
    Build(Arc<Gate>),
}

/// The sharded, single-flight, LRU plan cache. Shared across
/// [`MaxFlowSolver`](super::MaxFlowSolver) clones by `Arc`.
#[derive(Debug)]
pub(crate) struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard byte budget (total capacity / shard count).
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Bytes one resident plan pins, estimated from its dominant artifacts:
/// the numeric factor values + indices (`factor_nnz`), the edge-keyed
/// skeleton bookkeeping, and a fixed overhead for the structures around
/// them. An estimate is all eviction needs — relative order across plans
/// is what matters.
fn plan_cost(tpl: &SubstrateTemplate) -> usize {
    let dc = tpl.dc_template();
    dc.factor().factor_nnz() * 16 + tpl.key().edge_count() * 64 + 4096
}

impl PlanCache {
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        let shards: Vec<Mutex<Shard>> = (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        PlanCache {
            shards: shards.into_boxed_slice(),
            shard_budget: (capacity_bytes / SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // Top bits: independent of the bucket map's use of the low bits.
        &self.shards[(fingerprint >> 60) as usize & (SHARD_COUNT - 1)]
    }

    /// The plan for `g`'s topology, plus whether it was served from the
    /// cache. `build` runs the symbolic
    /// cold path at most once per topology across all concurrent callers
    /// (single flight); its failure is returned to the caller that ran it
    /// and waiters retry independently.
    pub(crate) fn get_or_build(
        &self,
        fingerprint: u64,
        g: &FlowNetwork,
        build: impl FnOnce() -> Result<Arc<SubstrateTemplate>, AnalogError>,
    ) -> Result<(Arc<SubstrateTemplate>, bool), AnalogError> {
        let probe = {
            let mut shard = self
                .shard(fingerprint)
                .lock()
                .expect("invariant: shard lock is never poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            let bucket = shard.buckets.entry(fingerprint).or_default();
            let found = bucket
                .iter_mut()
                .find(|e| e.key.verifies(g))
                .map(|e| match &mut e.slot {
                    Slot::Ready { tpl, last_used, .. } => {
                        *last_used = tick;
                        Probe::Hit(Arc::clone(tpl))
                    }
                    Slot::Building(gate) => Probe::Wait(Arc::clone(gate)),
                });
            match found {
                Some(p) => p,
                None => {
                    // Full key construction is cold-path work, but the
                    // `Building` slot must carry it so concurrent probes
                    // can verify against it.
                    let gate = Arc::new(Gate::new());
                    bucket.push(Entry {
                        key: TemplateKey::new(g),
                        slot: Slot::Building(Arc::clone(&gate)),
                    });
                    Probe::Build(gate)
                }
            }
        };

        match probe {
            Probe::Hit(tpl) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok((tpl, true))
            }
            Probe::Wait(gate) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                match gate.wait() {
                    Some(tpl) => Ok((tpl, false)),
                    // The deduplicated build failed; observe our own error
                    // (or success, if the failure was transient) without
                    // re-registering.
                    None => build().map(|tpl| (tpl, false)),
                }
            }
            Probe::Build(gate) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                match build() {
                    Ok(tpl) => {
                        let cost = plan_cost(&tpl);
                        {
                            let mut shard = self
                                .shard(fingerprint)
                                .lock()
                                .expect("invariant: shard lock is never poisoned");
                            shard.tick += 1;
                            let tick = shard.tick;
                            if let Some(entry) = shard
                                .buckets
                                .get_mut(&fingerprint)
                                .and_then(|b| b.iter_mut().find(|e| e.is_building(&gate)))
                            {
                                entry.slot = Slot::Ready {
                                    tpl: Arc::clone(&tpl),
                                    cost,
                                    last_used: tick,
                                };
                                shard.bytes += cost;
                            }
                            let budget = self.shard_budget;
                            shard.evict_to(budget, &self.evictions);
                        }
                        gate.complete(Some(Arc::clone(&tpl)));
                        Ok((tpl, false))
                    }
                    Err(e) => {
                        {
                            let mut shard = self
                                .shard(fingerprint)
                                .lock()
                                .expect("invariant: shard lock is never poisoned");
                            if let Some(bucket) = shard.buckets.get_mut(&fingerprint) {
                                bucket.retain(|e| !e.is_building(&gate));
                                if bucket.is_empty() {
                                    shard.buckets.remove(&fingerprint);
                                }
                            }
                        }
                        gate.complete(None);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Aggregate counters plus a residency snapshot.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let mut resident_bytes = 0;
        let mut resident_plans = 0;
        for shard in self.shards.iter() {
            let shard = shard
                .lock()
                .expect("invariant: shard lock is never poisoned");
            resident_bytes += shard.bytes;
            resident_plans += shard.ready_count();
        }
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            resident_plans,
        }
    }

    /// Audits the shard invariants:
    ///
    /// * `byte-accounting` — each shard's resident byte counter equals
    ///   the sum of its `Ready` entries' costs (a desync either thrashes
    ///   the LRU or lets the cache grow without bound);
    /// * `fingerprint-shard` — every bucket key's fingerprint selects the
    ///   shard holding it (a misplaced bucket is unreachable by probes:
    ///   a permanently resident leak).
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`ohmflow_linalg::AuditError`].
    pub(crate) fn audit(&self) -> Result<(), ohmflow_linalg::AuditError> {
        for (idx, shard) in self.shards.iter().enumerate() {
            let shard = shard
                .lock()
                .expect("invariant: shard lock is never poisoned");
            let mut ready_bytes = 0usize;
            for (&fp, bucket) in &shard.buckets {
                let home = (fp >> 60) as usize & (SHARD_COUNT - 1);
                if home != idx {
                    return Err(ohmflow_linalg::AuditError::new(
                        "PlanCache",
                        "fingerprint-shard",
                        format!("fingerprint {fp:#018x} lives in shard {idx}, selects {home}"),
                    ));
                }
                for e in bucket {
                    if let Slot::Ready { cost, .. } = e.slot {
                        ready_bytes += cost;
                    }
                }
            }
            if ready_bytes != shard.bytes {
                return Err(ohmflow_linalg::AuditError::new(
                    "PlanCache",
                    "byte-accounting",
                    format!(
                        "shard {idx}: accounted {} bytes, resident plans cost {ready_bytes}",
                        shard.bytes
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Resident plan count (test observability).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stats().resident_plans
    }
}

impl Entry {
    fn is_building(&self, gate: &Arc<Gate>) -> bool {
        matches!(&self.slot, Slot::Building(g) if Arc::ptr_eq(g, gate))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    use ohmflow_graph::generators;

    use super::*;
    use crate::builder::BuildOptions;
    use crate::params::SubstrateParams;

    fn params_and_opts() -> (SubstrateParams, BuildOptions) {
        let mut params = SubstrateParams::table1();
        params.v_flow = 50.0 * params.v_dd;
        (params, BuildOptions::ideal())
    }

    /// A path graph with `n` vertices — distinct `n`, distinct topology.
    fn path_graph(n: usize) -> FlowNetwork {
        let caps: Vec<i64> = (1..n as i64).collect();
        generators::path(&caps).expect("path graph")
    }

    fn build_template(g: &FlowNetwork) -> Result<Arc<SubstrateTemplate>, AnalogError> {
        let (params, opts) = params_and_opts();
        SubstrateTemplate::new(g, &params, &opts, Default::default()).map(Arc::new)
    }

    fn lookup(
        cache: &PlanCache,
        g: &FlowNetwork,
    ) -> Result<(Arc<SubstrateTemplate>, bool), AnalogError> {
        let fp = TemplateKey::fingerprint(g);
        cache.get_or_build(fp, g, || build_template(g))
    }

    /// Mutation-kill: desync a shard's resident-byte counter and assert
    /// the audit blames `byte-accounting`.
    #[test]
    fn mutation_byte_accounting_desync_is_caught() {
        let cache = PlanCache::new(DEFAULT_CAPACITY_BYTES);
        let g = path_graph(6);
        lookup(&cache, &g).expect("plan");
        cache.audit().expect("pristine cache audits clean");
        let fp = TemplateKey::fingerprint(&g);
        cache.shard(fp).lock().expect("shard").bytes += 1;
        let err = cache.audit().expect_err("desync must be caught");
        assert_eq!(err.invariant, "byte-accounting");
    }

    /// Mutation-kill: move a bucket (and its accounted bytes) into a
    /// shard its fingerprint does not select and assert the audit blames
    /// `fingerprint-shard`.
    #[test]
    fn mutation_misplaced_bucket_is_caught() {
        let cache = PlanCache::new(DEFAULT_CAPACITY_BYTES);
        let g = path_graph(6);
        lookup(&cache, &g).expect("plan");
        let fp = TemplateKey::fingerprint(&g);
        let home = (fp >> 60) as usize & (SHARD_COUNT - 1);
        let wrong = (home + 1) % SHARD_COUNT;
        let (bucket, bytes) = {
            let mut shard = cache.shards[home].lock().expect("shard");
            let bucket = shard.buckets.remove(&fp).expect("resident bucket");
            let bytes = std::mem::take(&mut shard.bytes);
            (bucket, bytes)
        };
        {
            let mut shard = cache.shards[wrong].lock().expect("shard");
            shard.buckets.insert(fp, bucket);
            shard.bytes += bytes;
        }
        let err = cache.audit().expect_err("misplaced bucket must be caught");
        assert_eq!(err.invariant, "fingerprint-shard");
    }

    /// M concurrent requesters of one brand-new topology run the symbolic
    /// cold path exactly once and share the one built template.
    #[test]
    fn single_flight_deduplicates_concurrent_cold_paths() {
        const THREADS: usize = 8;
        let cache = Arc::new(PlanCache::new(DEFAULT_CAPACITY_BYTES));
        let g = Arc::new(path_graph(7));
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let fp = TemplateKey::fingerprint(&g);

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, g, builds, barrier) = (
                    Arc::clone(&cache),
                    Arc::clone(&g),
                    Arc::clone(&builds),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_build(fp, &g, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so every other thread
                            // reaches the gate while the build is in flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            build_template(&g)
                        })
                        .expect("plan")
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "cold path must run once across {THREADS} concurrent requesters"
        );
        let (first, _) = &results[0];
        for (tpl, from_cache) in &results {
            assert!(Arc::ptr_eq(tpl, first), "all requesters share one plan");
            assert!(!from_cache, "single-flight members all paid the miss");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, THREADS as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.resident_plans, 1);

        let (tpl, hit) = lookup(&cache, &g).expect("warm probe");
        assert!(hit, "the built plan must now be a fingerprint hit");
        assert!(Arc::ptr_eq(&tpl, first));
        assert_eq!(cache.stats().hits, 1);
    }

    /// Many threads hammering a mix of hot and cold topologies: every
    /// returned plan must match a fresh single-threaded build of the same
    /// graph in `factor_nnz` and `block_count`, and its stored key must
    /// verify against the graph it was served for.
    #[test]
    fn concurrent_mixed_workload_never_serves_a_wrong_plan() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 12;
        let sizes: Vec<usize> = vec![4, 5, 6, 7, 8, 9];
        let expected: Vec<(usize, usize)> = sizes
            .iter()
            .map(|&n| {
                let tpl = build_template(&path_graph(n)).expect("fresh template");
                let dc = tpl.dc_template();
                (dc.factor().factor_nnz(), dc.symbolic().block_count())
            })
            .collect();

        let cache = Arc::new(PlanCache::new(DEFAULT_CAPACITY_BYTES));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let sizes = sizes.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        // Stagger the per-thread visit order so hot hits and
                        // cold builds interleave across threads.
                        let i = (t + round) % sizes.len();
                        let g = path_graph(sizes[i]);
                        let (tpl, _) = lookup(&cache, &g).expect("plan");
                        assert!(
                            tpl.key().verifies(&g),
                            "served plan's key must verify against the probing graph"
                        );
                        let dc = tpl.dc_template();
                        assert_eq!(
                            (dc.factor().factor_nnz(), dc.symbolic().block_count()),
                            expected[i],
                            "thread {t} round {round}: plan for n={} diverged",
                            sizes[i]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let stats = cache.stats();
        assert_eq!(stats.resident_plans, sizes.len());
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * ROUNDS) as u64,
            "every lookup is either a hit or a miss"
        );
        assert!(stats.hits > 0, "repeat lookups must hit");
    }

    /// Under a tiny byte budget the cache evicts LRU plans (counting them)
    /// but keeps serving correct plans — an evicted topology is simply
    /// rebuilt on its next request.
    #[test]
    fn eviction_under_byte_pressure_recovers_by_rebuilding() {
        // ~1 byte per shard: any shard holding two ready plans evicts down
        // to one.
        let cache = PlanCache::new(SHARD_COUNT);
        let sizes: Vec<usize> = (4..24).collect();
        for &n in &sizes {
            lookup(&cache, &path_graph(n)).expect("cold build");
        }
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "20 topologies over a {SHARD_COUNT}-byte budget must evict (stats: {stats:?})"
        );
        assert!(
            stats.resident_plans < sizes.len(),
            "residency must shrink under pressure"
        );
        assert!(
            stats.resident_plans >= 1,
            "each populated shard retains at least one plan"
        );

        // Every topology — evicted or resident — still resolves to a
        // correct plan.
        for &n in &sizes {
            let g = path_graph(n);
            let (tpl, _) = lookup(&cache, &g).expect("post-eviction lookup");
            assert!(tpl.key().verifies(&g), "n={n}");
        }
    }

    /// A failed build is not cached: the `Building` slot is removed, the
    /// error reaches the caller, and the next request builds fresh.
    #[test]
    fn failed_build_leaves_no_residue() {
        let cache = PlanCache::new(DEFAULT_CAPACITY_BYTES);
        let g = path_graph(5);
        let fp = TemplateKey::fingerprint(&g);
        let err = cache.get_or_build(fp, &g, || {
            Err(AnalogError::InvalidConfig {
                what: "synthetic build failure".to_owned(),
            })
        });
        assert!(matches!(err, Err(AnalogError::InvalidConfig { .. })));
        assert_eq!(cache.len(), 0, "failed builds must not stay resident");

        let (tpl, hit) = lookup(&cache, &g).expect("retry builds fresh");
        assert!(!hit);
        assert!(tpl.key().verifies(&g));
        assert_eq!(cache.len(), 1);
    }
}
