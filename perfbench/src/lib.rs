//! The repository benchmark: three workloads (`stanford`, `oltp`,
//! `reopt`) that drive the crates through their public APIs, check every
//! output against an independent reference, and report end-to-end metrics
//! (untraced) or per-layer metrics (traced). See `NOTES.md` for why each
//! workload exists and which numbers each layer should move.

pub mod image;
pub mod oltp;
pub mod reference;
pub mod reopt;
pub mod stanford;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Stanford programs in suite order, plus the `views` query program.
pub const PROGRAMS: [&str; 11] = [
    "fib", "sieve", "towers", "bubble", "quick", "queens", "intmm", "perm", "tree", "mandel",
    "views",
];

/// End-to-end metrics every workload reports in an untraced run:
/// (name, unit).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "ops/s"), ("p50_ms", "ms")];

/// Per-layer metrics every workload reports in a traced run; a workload
/// that does not cross a call reports 0 for it. `vm.run_ms.<program>` and
/// `vm.instrs.<program>` are expanded from [`PROGRAMS`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    // Workload-level figures kept out of the generic end-to-end set.
    add("instrs", "count");
    add("read_p99_ms", "ms");
    add("transfer_p50_ms", "ms");
    add("transfer_p99_ms", "ms");
    add("drain_s", "s");
    add("cycle_p90_ms", "ms");
    add("image_bytes", "bytes");
    add("failed_frac", "ratio");
    add("trace.overhead_pct", "%");
    add("trace.reconcile_err_pct", "%");
    // lang
    add("lang.load_ms", "ms");
    // opt
    add("opt.nodes_before", "count");
    add("opt.nodes_after", "count");
    add("opt.inlined", "count");
    // reflect
    add("reflect.optimize_all_ms", "ms");
    add("reflect.relink_ms", "ms");
    add("reflect.relinked", "count");
    add("reflect.tier.swaps", "count");
    // vm
    for p in PROGRAMS {
        add(&format!("vm.run_ms.{p}"), "ms");
    }
    for p in PROGRAMS {
        add(&format!("vm.instrs.{p}"), "count");
    }
    add("vm.calls", "count");
    add("vm.closures", "count");
    add("vm.ns_per_instr", "ns");
    add("vm.instrs_per_read", "count");
    add("vm.verify_ms", "ms");
    add("vm.code_bytes", "bytes");
    // store
    add("store.open_ms", "ms");
    add("store.commit_ms", "ms");
    add("store.checkpoint_ms", "ms");
    add("store.checkpoint_bytes", "bytes");
    add("store.checkpoint_plain_ms", "ms");
    add("store.checkpoint_plain_bytes", "bytes");
    add("store.checkpoint_relink_ms", "ms");
    add("store.checkpoint_relink_bytes", "bytes");
    add("store.ptml_bytes", "bytes");
    add("store.buffer.hits", "count");
    add("store.buffer.misses", "count");
    add("store.opt_cache.hits", "count");
    add("store.opt_cache.misses", "count");
    add("store.wal.flushes_per_read", "count");
    add("store.wal.bytes_per_read", "bytes");
    add("store.wal.flushes_per_transfer", "count");
    add("store.wal.bytes_per_transfer", "bytes");
    // txn
    add("txn.ping_p50_ms", "ms");
    add("txn.begin_p50_ms", "ms");
    add("txn.call_p50_ms", "ms");
    add("txn.commit_p50_ms", "ms");
    add("txn.commit_p99_ms", "ms");
    add("txn.retries", "count");
    add("txn.aborts", "count");
    add("lock.waits", "count");
    add("lock.deadlocks", "count");
    add("lock.timeouts", "count");
    m
}

/// One run's settings, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for images (inside the checkout).
    pub work: PathBuf,
    /// Test-sized inputs (the exact-count test), not benchmark sizes.
    pub small: bool,
}

impl Config {
    /// The timed window as a `Duration`.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (program calls, requests, cycles).
    pub attempted: u64,
    /// Operations whose output disagreed with the reference or errored.
    pub failed: u64,
    /// Metric name → value (end-to-end or per-layer, per the run mode).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a check: `ok == false` counts a failure and keeps the reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Record a failure found outside the per-operation checks (lost
    /// update, crashed server): it counts as a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.notes.push(format!("FAILED: {what}"));
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time a closure in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, ms_since(t0))
}

/// Start a traced phase: clear and enable the global recorder.
pub fn trace_on() {
    let rec = tml_trace::global();
    rec.clear();
    rec.set_capacity(1 << 12);
    rec.set_enabled(true);
}

/// End a traced phase.
pub fn trace_off() {
    tml_trace::global().set_enabled(false);
}

/// Current value of a trace counter.
pub fn counter(name: &str) -> u64 {
    tml_trace::global().counter(name).get()
}

/// Total nanoseconds recorded in a trace histogram (0 when absent).
pub fn hist_sum_ns(name: &str) -> u64 {
    tml_trace::global()
        .hist_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.sum)
        .unwrap_or(0)
}
