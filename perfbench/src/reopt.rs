//! `reopt`: administration-time whole-world reoptimization of a durable
//! image, as `tmlc opt --durable` runs it. Each cycle restores a pristine
//! image (untimed), opens it, relinks every closure, runs `optimize_all`
//! with a cold cache, commits and checkpoints, then calls one
//! seed-chosen entry per suite copy and checks its result.

use crate::image::{self, COPIES};
use crate::reference;
use crate::stats::{err_pct, median, percentile, Rng};
use crate::{ms_since, timed, trace_off, trace_on, Config, Outcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use tml_lang::stanford::suite;
use tml_reflect::{optimize_all, ReflectOptions};
use tml_store::{DurableOptions, DurableStore, StoreAccess};
use tml_vm::RVal;

/// Image builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cycles run even when the window is shorter.
const MIN_CYCLES: usize = 3;
/// Root of the data arrays.
const ROOT: &str = "db.data";

fn sizes(small: bool) -> (usize, usize) {
    if small {
        (2, 1_000)
    } else {
        (COPIES, 200_000)
    }
}

/// One cycle's measurements (milliseconds unless named otherwise).
#[derive(Default)]
struct Cycle {
    total: f64,
    parts: BTreeMap<&'static str, f64>,
    relinked: usize,
    nodes_before: usize,
    nodes_after: usize,
    inlined: u64,
    checkpoint_bytes: i64,
    image_bytes: u64,
    buffer_hits: u64,
    buffer_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
    ptml_bytes: usize,
    code_bytes: usize,
    verify_instrs: u64,
}

fn pages_bytes(path: &Path) -> i64 {
    image::files(path)
        .iter()
        .filter(|p| p.extension().is_none_or(|e| e != "wal"))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len() as i64)
        .sum()
}

fn cycle(path: &Path, copies: usize, rng: &mut Rng, out: &mut Outcome) -> Result<Cycle, String> {
    let programs = suite();
    let mut c = Cycle::default();
    let t0 = Instant::now();
    let (mut s, relink, open_ms, relink_ms) = image::open_session(path, DurableOptions::default())?;
    c.parts.insert("open", open_ms);
    c.parts.insert("relink", relink_ms);
    c.relinked = relink.relinked;
    let (report, ms) = timed(|| optimize_all(&mut s, &ReflectOptions::default()));
    let report = report.map_err(|e| format!("optimize_all: {e}"))?;
    c.parts.insert("optimize_all", ms);
    let (committed, ms) = timed(|| s.store.commit());
    committed.map_err(|e| format!("commit: {e}"))?;
    c.parts.insert("commit", ms);
    let before = pages_bytes(path);
    let (checkpointed, ms) = timed(|| s.store.checkpoint());
    checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
    c.parts.insert("checkpoint", ms);
    c.checkpoint_bytes = pages_bytes(path) - before;
    c.image_bytes = image::bytes(path);
    let t_verify = Instant::now();
    let mut instrs = 0;
    for k in 0..copies {
        let p = &programs[rng.below(programs.len() as u64) as usize];
        let entry = format!("{}.main", image::copy_module(p.name, k));
        let want = reference::expected(p.name, p.test_n);
        let res = s.call(&entry, vec![RVal::Int(p.test_n)]);
        if let Ok(r) = &res {
            instrs += r.stats.instrs;
        }
        match res.map(|r| r.result) {
            Ok(RVal::Int(v)) => out.check(
                v == want && (p.test_expected < 0 || v == p.test_expected),
                || format!("{entry}({}): {v}, reference {want}", p.test_n),
            ),
            Ok(other) => out.check(false, || format!("{entry}: non-integer {other:?}")),
            Err(e) => out.check(false, || format!("{entry}: {e}")),
        }
    }
    c.parts.insert("verify", ms_since(t_verify));
    c.verify_instrs = instrs;
    c.total = ms_since(t0);
    c.nodes_before = report.size_before;
    c.nodes_after = report.size_after;
    c.inlined = report.inlined;
    let b = s.store.buffer_stats();
    c.buffer_hits = b.hits;
    c.buffer_misses = b.misses;
    let cache = s.store.base().cache_stats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.ptml_bytes = s.ptml_bytes();
    c.code_bytes = s.code_bytes();
    Ok(c)
}

/// The first checkpoint after reopening the pristine image with one logged
/// mutation, with or without the whole-world relink in between: time in
/// milliseconds and page-file growth in bytes.
fn checkpoint_probe(pristine: &Path, live: &Path, relink: bool) -> Result<(f64, i64), String> {
    image::restore(pristine, live)?;
    let path = live.join("reopt.img");
    let mut ds = if relink {
        image::open_session(&path, DurableOptions::default())?
            .0
            .store
    } else {
        DurableStore::open(&path, DurableOptions::default())
            .map_err(|e| format!("open: {e}"))?
            .0
    };
    let root = ds.store().root(ROOT).ok_or("no data root")?;
    ds.set_attr(root, "probe", 1).map_err(|e| e.to_string())?;
    ds.commit().map_err(|e| e.to_string())?;
    let before = pages_bytes(&path);
    let (done, ms) = timed(|| ds.checkpoint());
    done.map_err(|e| format!("checkpoint: {e}"))?;
    Ok((ms, pages_bytes(&path) - before))
}

/// Cycles until the window closes; a failed cycle counts as a failure.
fn cycles(cfg: &Config, pristine: &Path, live: &Path, out: &mut Outcome) -> Vec<Cycle> {
    let (copies, _) = sizes(cfg.small);
    let mut rng = Rng::new(cfg.seed, 0x7e09);
    let mut done = Vec::new();
    let t_end = Instant::now() + cfg.window();
    while done.len() < MIN_CYCLES || Instant::now() < t_end {
        if let Err(e) = image::restore(pristine, live) {
            out.fail(format!("restore: {e}"));
            break;
        }
        match cycle(&live.join("reopt.img"), copies, &mut rng, out) {
            Ok(c) => done.push(c),
            Err(e) => {
                out.fail(format!("cycle: {e}"));
                break;
            }
        }
    }
    done
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let root = cfg.work.join("reopt");
    let (pristine, live) = (root.join("pristine"), root.join("live"));
    let (copies, cells) = sizes(cfg.small);
    let mut setups = Vec::new();
    let mut load_ms = 0.0;
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&pristine);
        if let Err(e) = std::fs::create_dir_all(&pristine) {
            out.fail(format!("{}: {e}", pristine.display()));
            return out;
        }
        let t0 = Instant::now();
        match image::build(&pristine.join("reopt.img"), copies, cells, ROOT) {
            Ok(ms) => {
                setups.push(t0.elapsed().as_secs_f64());
                load_ms = ms;
            }
            Err(e) => {
                out.fail(format!("image build: {e}"));
                return out;
            }
        }
    }
    let p50 = |cs: &[Cycle]| median(&cs.iter().map(|c| c.total).collect::<Vec<_>>());
    let untraced = cycles(cfg, &pristine, &live, &mut out);
    if !cfg.trace {
        let total: f64 = untraced.iter().map(|c| c.total).sum();
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", untraced.len() as f64 / (total / 1e3));
        out.set("p50_ms", p50(&untraced));
        let _ = std::fs::remove_dir_all(&root);
        return out;
    }
    trace_on();
    let traced = cycles(cfg, &pristine, &live, &mut out);
    trace_off();
    for (relink, name) in [(false, "plain"), (true, "relink")] {
        let mut runs = Vec::new();
        for _ in 0..3 {
            match checkpoint_probe(&pristine, &live, relink) {
                Ok(r) => runs.push(r),
                Err(e) => out.fail(format!("checkpoint probe: {e}")),
            }
        }
        let ms: Vec<f64> = runs.iter().map(|r| r.0).collect();
        out.set(&format!("store.checkpoint_{name}_ms"), median(&ms));
        out.set(
            &format!("store.checkpoint_{name}_bytes"),
            runs.first().map_or(0.0, |r| r.1 as f64),
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    let Some(first) = traced.first() else {
        return out;
    };
    let part = |name: &str| median(&traced.iter().map(|c| c.parts[name]).collect::<Vec<_>>());
    let totals: Vec<f64> = traced.iter().map(|c| c.total).collect();
    out.set("cycle_p90_ms", percentile(&totals, 0.9));
    out.set("image_bytes", first.image_bytes as f64);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("lang.load_ms", load_ms);
    out.set("opt.nodes_before", first.nodes_before as f64);
    out.set("opt.nodes_after", first.nodes_after as f64);
    out.set("opt.inlined", first.inlined as f64);
    out.set("reflect.optimize_all_ms", part("optimize_all"));
    out.set("reflect.relink_ms", part("relink"));
    out.set("reflect.relinked", first.relinked as f64);
    out.set("vm.verify_ms", part("verify"));
    let ns_per_instr: Vec<f64> = traced
        .iter()
        .map(|c| c.parts["verify"] * 1e6 / c.verify_instrs.max(1) as f64)
        .collect();
    out.set("vm.ns_per_instr", median(&ns_per_instr));
    out.set("vm.code_bytes", first.code_bytes as f64);
    out.set("store.open_ms", part("open"));
    out.set("store.commit_ms", part("commit"));
    out.set("store.checkpoint_ms", part("checkpoint"));
    out.set("store.checkpoint_bytes", first.checkpoint_bytes as f64);
    out.set("store.ptml_bytes", first.ptml_bytes as f64);
    out.set("store.buffer.hits", first.buffer_hits as f64);
    out.set("store.buffer.misses", first.buffer_misses as f64);
    out.set("store.opt_cache.hits", first.cache_hits as f64);
    out.set("store.opt_cache.misses", first.cache_misses as f64);
    let traced_p50 = p50(&traced);
    let untraced_p50 = p50(&untraced);
    out.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    let names = [
        "open",
        "relink",
        "optimize_all",
        "commit",
        "checkpoint",
        "verify",
    ];
    let sum: f64 = names.iter().map(|n| part(n)).sum();
    let err = err_pct(sum, traced_p50);
    out.set("trace.reconcile_err_pct", err);
    out.notes.push(format!(
        "reopt cycle {traced_p50:.1} ms (median of {}) = {} = {sum:.1} ms  (off by {err:.2}%)",
        traced.len(),
        names
            .iter()
            .map(|n| format!("{n} {:.1}", part(n)))
            .collect::<Vec<_>>()
            .join(" + "),
    ));
    out
}
