//! Forwarding wrappers that time one layer each from outside the
//! program. Every trait method is forwarded, so a wrapped run takes the
//! same code paths as an unwrapped one (the structural oracle keeps its
//! angle-independent template keying, the store keeps its versioning).

use popqc::core::engine::{RoundObserver, RoundRecord, SegmentCacheHook};
use popqc::ir::Gate;
use popqc::oracles::SegmentOracle;
use popqc::service::{CachedRun, JobKey, ResultStore, StoreStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::util::{metric, Metric};

/// Times every `optimize` call of the wrapped oracle.
pub struct TimedOracle<'a> {
    pub inner: &'a (dyn SegmentOracle<Gate> + Send + Sync),
    pub calls_ns: Mutex<Vec<u64>>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(inner: &'a (dyn SegmentOracle<Gate> + Send + Sync)) -> TimedOracle<'a> {
        TimedOracle {
            inner,
            calls_ns: Mutex::new(Vec::new()),
        }
    }

    /// Per-call durations in nanoseconds, taken out of the wrapper.
    pub fn take_calls(&self) -> Vec<u64> {
        std::mem::take(&mut *self.calls_ns.lock().expect("calls lock"))
    }
}

impl SegmentOracle<Gate> for TimedOracle<'_> {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let t0 = Instant::now();
        let out = self.inner.optimize(units, num_qubits);
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls_ns.lock().expect("calls lock").push(ns);
        out
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn version(&self) -> String {
        self.inner.version()
    }

    fn angle_independent(&self) -> bool {
        self.inner.angle_independent()
    }
}

/// Times every lookup and record of the wrapped segment-cache hook.
pub struct TimedHook<H> {
    pub inner: H,
    pub busy_ns: AtomicU64,
}

impl<H> TimedHook<H> {
    pub fn new(inner: H) -> TimedHook<H> {
        TimedHook {
            inner,
            busy_ns: AtomicU64::new(0),
        }
    }
}

impl<H: SegmentCacheHook<Gate>> SegmentCacheHook<Gate> for TimedHook<H> {
    fn lookup(&self, segment: &[Gate], num_qubits: u32) -> Option<Vec<Gate>> {
        let t0 = Instant::now();
        let out = self.inner.lookup(segment, num_qubits);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn record(&self, segment: &[Gate], num_qubits: u32, optimized: &[Gate]) {
        let t0 = Instant::now();
        self.inner.record(segment, num_qubits, optimized);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
    }
}

/// Counts rounds and accepted rewrites as the engine reports them.
#[derive(Default)]
pub struct RoundCounter {
    pub rounds: AtomicU64,
    pub accepted: AtomicU64,
}

impl RoundObserver for RoundCounter {
    fn on_round(&self, _round: usize, record: &RoundRecord) {
        self.rounds.fetch_add(1, Relaxed);
        self.accepted.fetch_add(record.accepted as u64, Relaxed);
    }
}

/// Times `get` and `put` of the wrapped result store and counts hits
/// and misses.
pub struct TimedStore {
    pub inner: Arc<dyn ResultStore>,
    pub get_ns: Mutex<Vec<u64>>,
    pub put_ns: Mutex<Vec<u64>>,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn ResultStore>) -> TimedStore {
        TimedStore {
            inner,
            get_ns: Mutex::new(Vec::new()),
            put_ns: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Forgets everything recorded so far (the warm-up's work).
    pub fn reset(&self) {
        self.get_ns.lock().expect("get lock").clear();
        self.put_ns.lock().expect("put lock").clear();
        self.hits.store(0, Relaxed);
        self.misses.store(0, Relaxed);
    }
}

impl ResultStore for TimedStore {
    fn get(&self, key: &JobKey, oracle_version: &str) -> Option<Arc<CachedRun>> {
        let t0 = Instant::now();
        let out = self.inner.get(key, oracle_version);
        let ns = t0.elapsed().as_nanos() as u64;
        self.get_ns.lock().expect("get lock").push(ns);
        if out.is_some() {
            self.hits.fetch_add(1, Relaxed);
        } else {
            self.misses.fetch_add(1, Relaxed);
        }
        out
    }

    fn put(&self, key: &JobKey, oracle_version: &str, value: Arc<CachedRun>) {
        let t0 = Instant::now();
        self.inner.put(key, oracle_version, value);
        let ns = t0.elapsed().as_nanos() as u64;
        self.put_ns.lock().expect("put lock").push(ns);
    }

    fn remove(&self, key: &JobKey) -> bool {
        self.inner.remove(key)
    }

    fn clear(&self) -> u64 {
        self.inner.clear()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn flush(&self) {
        self.inner.flush()
    }
}

/// The per-layer metric names, in the order the result line lists them,
/// with their units. Every workload reports all of them; a layer that a
/// workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("qnet.healthz_rtt_ms", "ms"),
    ("qnet.outside_handler_ms", "ms"),
    ("qhttp.parse_ms", "ms"),
    ("qhttp.handle_ms", "ms"),
    ("qhttp.write_ms", "ms"),
    ("qhttp.handle_untimed_ms", "ms"),
    ("qcir.qasm_parse_ms", "ms"),
    ("qcir.fingerprint_ms", "ms"),
    ("qcir.qasm_emit_ms", "ms"),
    ("qapi.serialize_ms", "ms"),
    ("qsvc.store_get_ms", "ms"),
    ("qsvc.store_put_ms", "ms"),
    ("qsvc.store_hits", "count"),
    ("qsvc.store_misses", "count"),
    ("qsvc.job_ms", "ms"),
    ("qsvc.segcache_hits", "count"),
    ("qsvc.segcache_misses", "count"),
    ("qsvc.segcache_lookup_ms", "ms"),
    ("core.improvable_windows", "count"),
    ("core.engine_s.w1", "s"),
    ("core.self_s.w1", "s"),
    ("core.outside_oracle_share.w1", "ratio"),
    ("core.rounds.w1", "count"),
    ("core.segments.w1", "count"),
    ("core.accept_ratio.w1", "ratio"),
    ("qoracle.calls.w1", "count"),
    ("qoracle.busy_s.w1", "s"),
    ("qoracle.call_p50_us.w1", "us"),
    ("qoracle.call_p99_us.w1", "us"),
    ("qexec.parallel_ops.w1", "count"),
    ("qexec.tasks.w1", "count"),
    ("qexec.splits.w1", "count"),
    ("qexec.steals.w1", "count"),
    ("core.engine_s.wmax", "s"),
    ("core.self_s.wmax", "s"),
    ("core.outside_oracle_share.wmax", "ratio"),
    ("core.rounds.wmax", "count"),
    ("core.segments.wmax", "count"),
    ("core.accept_ratio.wmax", "ratio"),
    ("qoracle.calls.wmax", "count"),
    ("qoracle.busy_s.wmax", "s"),
    ("qoracle.call_p50_us.wmax", "us"),
    ("qoracle.call_p99_us.wmax", "us"),
    ("qexec.parallel_ops.wmax", "count"),
    ("qexec.tasks.wmax", "count"),
    ("qexec.splits.wmax", "count"),
    ("qexec.steals.wmax", "count"),
    ("qexec.speedup", "ratio"),
    ("qexec.oracle_call_inflation", "ratio"),
    ("qexec.wmax_crashes", "count"),
    ("replay.wrapped_s", "s"),
    ("replay.bare_s", "s"),
];

/// Every per-layer metric, 0 where `values` has none.
pub fn layer_metrics(values: &BTreeMap<String, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
