//! `stanford`: the paper's §6 headline. One in-process `Session` (library
//! lowering, in-memory `Store`) loads the ten Stanford programs and the
//! `shop` view module, builds a relation, runs whole-world `optimize_all`
//! with the query rewriter, then times every program's entry in passes
//! until the window closes.

use crate::reference;
use crate::stats::{err_pct, geomean, median, Rng};
use crate::{timed, trace_off, trace_on, Config, Outcome, PROGRAMS};
use std::time::Instant;
use tml_lang::stanford::suite;
use tml_lang::{Session, SessionConfig};
use tml_query::integrated::reflect_options_with_queries;
use tml_query::QuerySession;
use tml_reflect::{optimize_all, OptimizeAllReport, ReflectOptions};
use tml_vm::RVal;

/// The view module of `examples/tl_queries.rs`: a relation builder, a view
/// and a query over the view that reflective optimization merges into one
/// scan.
const SHOP: &str = "
module shop export setup, discounted, cheap_discounted
let setup(n: Int): Rel =
  let r = rel.make(3) in
  (for i = 0 upto n - 1 do
     rel.insert(r, tuple(i, i * 7 % 200, i % 3 == 0))
   end;
   r)
let discounted(r: Rel): Rel = select x from x in r where x.2 == true
let cheap_discounted(r: Rel): Rel =
  select y from y in discounted(r) where y.1 < 50
end";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Problem size per program (`views`: relation rows), about 30× each
/// program's `bench_n` so every call runs for tens of milliseconds.
fn size(name: &str, small: bool) -> i64 {
    if small {
        return match name {
            "views" => 3_000,
            _ => suite()
                .into_iter()
                .find(|p| p.name == name)
                .map(|p| p.test_n)
                .expect("suite program"),
        };
    }
    match name {
        "fib" => 25,
        "sieve" => 60_000,
        "towers" => 17,
        "bubble" => 650,
        "quick" => 18_000,
        "queens" => 9,
        "intmm" => 56,
        "perm" => 8,
        "tree" => 12_000,
        "mandel" => 220,
        "views" => 200_000,
        other => panic!("unknown program {other}"),
    }
}

/// A loaded, optimized session plus the relation `views` scans.
struct Ready {
    s: Session,
    rel: RVal,
    load_ms: f64,
    build_ms: f64,
    optimize_ms: f64,
    report: OptimizeAllReport,
}

fn setup(small: bool) -> Result<Ready, String> {
    let (s, load_ms) = timed(|| -> Result<Session, String> {
        let mut s = Session::new(SessionConfig::default()).map_err(|e| e.to_string())?;
        s.enable_queries().map_err(|e| e.to_string())?;
        for p in suite() {
            s.load_str(p.src).map_err(|e| format!("{}: {e}", p.name))?;
        }
        s.load_str(SHOP).map_err(|e| format!("shop: {e}"))?;
        Ok(s)
    });
    let mut s = s?;
    let (rel, build_ms) = timed(|| {
        s.call("shop.setup", vec![RVal::Int(size("views", small))])
            .map(|r| r.result)
            .map_err(|e| format!("shop.setup: {e}"))
    });
    let rel = rel?;
    let opts = ReflectOptions {
        jobs: 1,
        ..reflect_options_with_queries()
    };
    let (report, optimize_ms) = timed(|| optimize_all(&mut s, &opts));
    let report = report.map_err(|e| format!("optimize_all: {e}"))?;
    Ok(Ready {
        s,
        rel,
        load_ms,
        build_ms,
        optimize_ms,
        report,
    })
}

/// One program call's measurements.
#[derive(Default, Clone)]
struct Calls {
    ms: Vec<f64>,
    instrs: u64,
    calls: u64,
    closures: u64,
}

/// Timed passes over all programs until the window closes (at least one).
fn passes(
    cfg: &Config,
    r: &mut Ready,
    expected: &[i64],
    out: &mut Outcome,
) -> (Vec<Calls>, Vec<f64>) {
    let mut rng = Rng::new(cfg.seed, 0x5747);
    let mut per: Vec<Calls> = vec![Calls::default(); PROGRAMS.len()];
    let mut pass_ms = Vec::new();
    let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
    let t_end = Instant::now() + cfg.window();
    while pass_ms.is_empty() || Instant::now() < t_end {
        rng.shuffle(&mut order);
        let mut pass = 0.0;
        for &i in &order {
            let name = PROGRAMS[i];
            let (res, ms) = if name == "views" {
                let arg = r.rel.clone();
                timed(|| r.s.call("shop.cheap_discounted", vec![arg]))
            } else {
                let n = size(name, cfg.small);
                timed(|| r.s.call(&format!("{name}.main"), vec![RVal::Int(n)]))
            };
            pass += ms;
            let got = match res {
                Ok(res) => {
                    let c = &mut per[i];
                    c.ms.push(ms);
                    c.instrs = res.stats.instrs;
                    c.calls = res.stats.calls;
                    c.closures = res.stats.closures;
                    if name == "views" {
                        r.s.call("rel.count", vec![res.result]).map(|c| c.result)
                    } else {
                        Ok(res.result)
                    }
                }
                Err(e) => Err(e),
            };
            match got {
                Ok(RVal::Int(v)) => out.check(v == expected[i], || {
                    format!("{name}: checksum {v}, reference {}", expected[i])
                }),
                Ok(other) => out.check(false, || format!("{name}: non-integer result {other:?}")),
                Err(e) => out.check(false, || format!("{name}: {e}")),
            }
        }
        pass_ms.push(pass);
    }
    (per, pass_ms)
}

/// Geomean over programs of each program's median call time.
fn suite_ms(per: &[Calls]) -> f64 {
    geomean(&per.iter().map(|c| median(&c.ms)).collect::<Vec<_>>())
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let expected: Vec<i64> = PROGRAMS
        .iter()
        .map(|p| reference::expected(p, size(p, cfg.small)))
        .collect();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        match setup(cfg.small) {
            Ok(r) => {
                setups.push(t0.elapsed().as_secs_f64());
                ready = Some(r);
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let mut r = ready.expect("at least one set-up");
    let (per, _) = passes(cfg, &mut r, &expected, &mut out);
    let total_calls: usize = per.iter().map(|c| c.ms.len()).sum();
    let total_ms: f64 = per.iter().flat_map(|c| c.ms.iter()).sum();
    let untraced_ms = suite_ms(&per);
    if !cfg.trace {
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", total_calls as f64 / (total_ms / 1e3));
        out.set("p50_ms", untraced_ms);
        return out;
    }
    drop(r);

    // Traced run: set up and measure again with the recorder on, timing
    // each crate's public entry points from here.
    trace_on();
    let t0 = Instant::now();
    let setup_r = setup(cfg.small);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut r = match setup_r {
        Ok(r) => r,
        Err(e) => {
            trace_off();
            out.fail(format!("traced set-up: {e}"));
            return out;
        }
    };
    let (per, pass_ms) = passes(cfg, &mut r, &expected, &mut out);
    trace_off();
    let traced_ms = suite_ms(&per);
    out.set("lang.load_ms", r.load_ms);
    out.set("opt.nodes_before", r.report.size_before as f64);
    out.set("opt.nodes_after", r.report.size_after as f64);
    out.set("opt.inlined", r.report.inlined as f64);
    out.set("reflect.optimize_all_ms", r.optimize_ms);
    let mut sum_medians = 0.0;
    let (mut instrs, mut calls, mut closures, mut vm_ms) = (0u64, 0u64, 0u64, 0.0);
    for (p, c) in PROGRAMS.iter().zip(&per) {
        let m = median(&c.ms);
        sum_medians += m;
        out.set(&format!("vm.run_ms.{p}"), m);
        out.set(&format!("vm.instrs.{p}"), c.instrs as f64);
        instrs += c.instrs;
        calls += c.calls;
        closures += c.closures;
        vm_ms += c.ms.iter().sum::<f64>() / c.ms.len() as f64;
    }
    out.set("instrs", instrs as f64);
    out.set("vm.calls", calls as f64);
    out.set("vm.closures", closures as f64);
    out.set("vm.ns_per_instr", vm_ms * 1e6 / instrs as f64);
    out.set("vm.code_bytes", r.s.code_bytes() as f64);
    out.set("store.ptml_bytes", r.s.ptml_bytes() as f64);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    let parts_ms = r.load_ms + r.build_ms + r.optimize_ms;
    let setup_err = err_pct(parts_ms, setup_ms);
    let pass_err = err_pct(sum_medians, median(&pass_ms));
    out.set("trace.reconcile_err_pct", setup_err.max(pass_err));
    out.notes.push(format!(
        "stanford set-up {setup_ms:.1} ms = load {:.1} + relation build {:.1} + optimize_all {:.1} ms  (off by {setup_err:.2}%)",
        r.load_ms, r.build_ms, r.optimize_ms
    ));
    out.notes.push(format!(
        "stanford pass {:.1} ms (median of {}) = sum of per-program medians {sum_medians:.1} ms  (off by {pass_err:.2}%)",
        median(&pass_ms),
        pass_ms.len()
    ));
    out
}
