//! `oltp`: the open-database serving path. An in-process `tml_txn::Server`
//! configured as `tmlc serve` runs it (tier engine on, default lock
//! options, WAL `SyncPolicy::Always`) serves a closed loop of two
//! synchronous clients: 80% autocommit `bank.get` reads and 20%
//! two-call transfer transactions, over 4096 one-cell accounts. After a
//! graceful shutdown the image is reopened and every account is audited
//! against the acknowledged transfers.

use crate::image::{self, COPIES};
use crate::stats::{err_pct, mean, median, percentile, Rng};
use crate::{counter, hist_sum_ns, ms_since, trace_off, trace_on, Config, Outcome};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tml_lang::ast::Type;
use tml_lang::Session;
use tml_store::{DurableOptions, DurableStore, Object, SVal, StoreAccess, SyncPolicy};
use tml_txn::client::ClientError;
use tml_txn::wire::Value;
use tml_txn::{Client, Server, ServerOptions, TierSettings};

/// Closed-loop client connections.
const CLIENTS: u64 = 2;
/// Share of operations that are reads, in percent.
const READ_PCT: u64 = 80;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Retries `Client::transact` may spend on a transfer.
const RETRIES: u32 = 64;
/// Root of the account table.
const ROOT: &str = "db.cells";
/// How the served image logs commits.
const WAL: DurableOptions = DurableOptions {
    sync: SyncPolicy::Never,
    checkpoint_every: 0,
};
/// The timed window is cut into this many slices; throughput and read
/// latency are the medians of the per-slice figures, so a stall from
/// outside the program during one slice does not move them.
const SLICES: usize = 10;
/// Failures after which a client stops issuing requests.
const MAX_FAILURES: usize = 1000;
/// Interval of the traced run's ping probe.
const PING_EVERY: Duration = Duration::from_millis(10);

/// The shipped account closures. `db.cells` is a free identifier the
/// server resolves against its own globals.
const BANK: &str = "
module bank export get, add
let get(i: Int): Int = array.get(array.get(db.cells, i), 0)
let add(i: Int, d: Int): Int =
  let c = array.get(db.cells, i) in
  (array.set(c, 0, array.get(c, 0) + d); array.get(c, 0))
end";

fn accounts(small: bool) -> (usize, usize) {
    if small {
        (2, 256)
    } else {
        (COPIES, 4096)
    }
}

/// Compile `bank` in a client session and return `(name, PTML)` pairs.
fn author_bank() -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut s = Session::default_session().map_err(|e| e.to_string())?;
    let table = s.store.alloc(Object::Array(Vec::new()));
    s.globals.insert(ROOT.to_string(), SVal::Ref(table));
    s.types.insert(ROOT.to_string(), Type::Array);
    s.load_str(BANK).map_err(|e| format!("bank: {e}"))?;
    ["bank.get", "bank.add"]
        .iter()
        .map(|name| {
            let Some(SVal::Ref(oid)) = s.global(name).cloned() else {
                return Err(format!("{name} is not a closure"));
            };
            let Ok(Object::Closure(clo)) = s.store.get(oid) else {
                return Err(format!("{name} is not a closure"));
            };
            let ptml = clo.ptml.ok_or(format!("{name} carries no PTML"))?;
            match s.store.get(ptml) {
                Ok(Object::Ptml(bytes)) => Ok((name.to_string(), bytes.clone())),
                _ => Err(format!("{name}: PTML object missing")),
            }
        })
        .collect()
}

/// What the server thread reports once its session is open.
struct Opened {
    open_ms: f64,
    relink_ms: f64,
    relinked: usize,
}

/// A running server and a connection to it.
struct Running {
    client: Client,
    addr: std::net::SocketAddr,
    handle: JoinHandle<Result<(), String>>,
    opened: Opened,
}

/// Open the image, relink it, serve it, and answer the first ping.
fn start(path: &Path) -> Result<Running, String> {
    let server = Server::bind(ServerOptions {
        tier: Some(TierSettings::default()),
        ..ServerOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let (tx, rx) = mpsc::channel();
    let path = path.to_path_buf();
    let handle = std::thread::spawn(move || -> Result<(), String> {
        let (mut s, relink, open_ms, relink_ms) = match image::open_session(&path, WAL) {
            Ok(x) => x,
            Err(e) => {
                let _ = tx.send(Err(e.clone()));
                return Err(e);
            }
        };
        match s.store.base().root(ROOT) {
            Some(table) => {
                s.globals.insert(ROOT.into(), SVal::Ref(table));
            }
            None => {
                let _ = tx.send(Err(format!("image has no root {ROOT}")));
                return Err(format!("image has no root {ROOT}"));
            }
        }
        let _ = tx.send(Ok(Opened {
            open_ms,
            relink_ms,
            relinked: relink.relinked,
        }));
        server.run(s).map_err(|e| format!("serve: {e}"))
    });
    let opened = match rx.recv() {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            let _ = handle.join();
            return Err(e);
        }
        Err(_) => {
            return Err(match handle.join() {
                Ok(Err(e)) => e,
                _ => "server thread died during open".into(),
            })
        }
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    Ok(Running {
        client,
        addr,
        handle,
        opened,
    })
}

/// Gracefully shut the server down; returns the drain time in seconds.
fn stop(mut client: Client, handle: JoinHandle<Result<(), String>>) -> Result<f64, String> {
    let t0 = Instant::now();
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let joined = handle.join();
    let drain = t0.elapsed().as_secs_f64();
    match joined {
        Ok(Ok(())) => Ok(drain),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// Acknowledged state shared by the clients: per account, the sum of
/// acknowledged deltas and the transfers in flight that touch it.
struct Ledger {
    acked: Vec<AtomicI64>,
    inflight: Vec<AtomicI64>,
}

impl Ledger {
    fn new(n: usize) -> Ledger {
        Ledger {
            acked: (0..n).map(|_| AtomicI64::new(0)).collect(),
            inflight: (0..n).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    fn snapshot(&self, k: usize) -> (i64, i64) {
        (
            self.acked[k].load(Ordering::SeqCst),
            self.inflight[k].load(Ordering::SeqCst),
        )
    }
}

/// Which operations a traffic phase issues.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Mixed,
    ReadsOnly,
    TransfersOnly,
}

/// One client's measurements.
#[derive(Default)]
struct Load {
    reads: Vec<f64>,
    /// Completion time of each read, seconds into the phase.
    read_at: Vec<f64>,
    /// Completion time of every completed operation.
    done_at: Vec<f64>,
    transfers: Vec<f64>,
    begin: Vec<f64>,
    calls: Vec<f64>,
    commit: Vec<f64>,
    retry: Vec<f64>,
    retries: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// One autocommit read, checked against the ledger: the value must lie
/// within the acknowledged sum widened by the transfers in flight.
fn read(c: &mut Client, ledger: &Ledger, k: usize, epoch: Instant, load: &mut Load) {
    let (a0, f0) = ledger.snapshot(k);
    let t0 = Instant::now();
    let r = c.call("bank.get", &[Value::Int(k as i64)]);
    let ms = ms_since(t0);
    let (a1, f1) = ledger.snapshot(k);
    load.attempted += 1;
    match r {
        Ok(Value::Int(v)) => {
            let slack = f0 + f1;
            if v < a0.min(a1) - slack || v > a0.max(a1) + slack {
                load.failures
                    .push(format!("read {k}: {v}, acknowledged {a0}..{a1} ± {slack}"));
            }
            let at = epoch.elapsed().as_secs_f64();
            load.reads.push(ms);
            load.read_at.push(at);
            load.done_at.push(at);
        }
        Ok(other) => load
            .failures
            .push(format!("read {k}: non-integer {other:?}")),
        Err(e) => load.failures.push(format!("read {k}: {e}")),
    }
}

/// One transfer of 1 from account `b` to account `a`, timed per client
/// call from inside `Client::transact`.
fn transfer(
    c: &mut Client,
    ledger: &Ledger,
    (a, b): (usize, usize),
    epoch: Instant,
    load: &mut Load,
) {
    for k in [a, b] {
        ledger.inflight[k].fetch_add(1, Ordering::SeqCst);
    }
    let t0 = Instant::now();
    let mut first: Option<Instant> = None;
    let mut last = t0;
    let mut split = (0.0, 0.0);
    let mut body_end = t0;
    let r = c.transact(RETRIES, |c| {
        let tb = Instant::now();
        first.get_or_insert(tb);
        last = tb;
        c.call("bank.add", &[Value::Int(a as i64), Value::Int(1)])?;
        let t1 = Instant::now();
        c.call("bank.add", &[Value::Int(b as i64), Value::Int(-1)])?;
        body_end = Instant::now();
        split = (
            (t1 - tb).as_secs_f64() * 1e3,
            (body_end - t1).as_secs_f64() * 1e3,
        );
        Ok::<(), ClientError>(())
    });
    let t_end = Instant::now();
    load.attempted += 1;
    match r {
        Ok(()) => {
            ledger.acked[a].fetch_add(1, Ordering::SeqCst);
            ledger.acked[b].fetch_add(-1, Ordering::SeqCst);
            let first = first.unwrap_or(t0);
            load.transfers.push((t_end - t0).as_secs_f64() * 1e3);
            load.done_at.push((t_end - epoch).as_secs_f64());
            load.begin.push((first - t0).as_secs_f64() * 1e3);
            load.retry.push((last - first).as_secs_f64() * 1e3);
            load.calls.extend([split.0, split.1]);
            load.commit.push((t_end - body_end).as_secs_f64() * 1e3);
            if last > first {
                load.retries += 1;
            }
        }
        Err(e) => load.failures.push(format!("transfer {b}->{a}: {e}")),
    }
    for k in [a, b] {
        ledger.inflight[k].fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `CLIENTS` closed-loop clients for `window`. Returns each client's
/// measurements and the elapsed time of the phase in seconds.
fn traffic(
    addr: std::net::SocketAddr,
    seed: u64,
    phase: u64,
    mix: Mix,
    window: Duration,
    ledger: &Arc<Ledger>,
) -> (Vec<Load>, f64) {
    let n = ledger.acked.len() as u64;
    let start = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let workers: Vec<JoinHandle<Load>> = (0..CLIENTS)
        .map(|w| {
            let ledger = Arc::clone(ledger);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut load = Load::default();
                let mut rng = Rng::new(seed, 0x01f0 + phase * 16 + w);
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        start.wait();
                        load.attempted += 1;
                        load.failures.push(format!("connect: {e}"));
                        return load;
                    }
                };
                start.wait();
                let epoch = Instant::now();
                let t_end = epoch + window;
                // A dead server fails every request at once; stop early
                // instead of collecting errors for the whole window.
                while Instant::now() < t_end && load.failures.len() < MAX_FAILURES {
                    let is_read = match mix {
                        Mix::Mixed => rng.below(100) < READ_PCT,
                        Mix::ReadsOnly => true,
                        Mix::TransfersOnly => false,
                    };
                    if is_read {
                        read(&mut c, &ledger, rng.below(n) as usize, epoch, &mut load);
                    } else {
                        let a = rng.below(n) as usize;
                        let b = (a + 1 + rng.below(n - 1) as usize) % n as usize;
                        transfer(&mut c, &ledger, (a, b), epoch, &mut load);
                    }
                }
                let _ = c.bye();
                load
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let loads: Vec<Load> = workers
        .into_iter()
        .map(|w| {
            w.join().unwrap_or_else(|_| Load {
                attempted: 1,
                failures: vec!["client thread panicked".into()],
                ..Load::default()
            })
        })
        .collect();
    (loads, t0.elapsed().as_secs_f64())
}

/// Reopen the drained image and require every account to hold exactly
/// its acknowledged deltas, and the accounts to sum to zero.
fn audit(path: &Path, ledger: &Ledger, out: &mut Outcome) {
    let opened = DurableStore::open(path, DurableOptions::default());
    let ds = match opened {
        Ok((ds, _)) => ds,
        Err(e) => return out.fail(format!("audit reopen: {e}")),
    };
    let oids = match image::cells(&ds, ROOT) {
        Ok(o) => o,
        Err(e) => return out.fail(format!("audit: {e}")),
    };
    let mut total = 0i64;
    let mut lost = 0usize;
    for (k, oid) in oids.iter().enumerate() {
        let v = match ds.store().get(*oid) {
            Ok(Object::Array(xs)) => match xs.first() {
                Some(SVal::Int(v)) => *v,
                _ => i64::MIN,
            },
            _ => i64::MIN,
        };
        let want = ledger.acked[k].load(Ordering::SeqCst);
        if v != want {
            lost += 1;
            if lost <= 5 {
                out.notes
                    .push(format!("audit: account {k} holds {v}, acknowledged {want}"));
            }
        }
        total = total.wrapping_add(v);
    }
    if lost > 0 {
        out.fail(format!("audit: {lost} account(s) lost or gained an update"));
    }
    if total != 0 {
        out.fail(format!("audit: accounts sum to {total}, not 0"));
    }
}

/// Per-phase result of one served session.
#[derive(Default)]
struct Served {
    setups: Vec<f64>,
    opened: Option<Opened>,
    mixed: Vec<Load>,
    mixed_s: f64,
    drain_s: f64,
    pings: Vec<f64>,
    wal_per_read: (f64, f64),
    wal_per_transfer: (f64, f64),
    instrs_per_read: f64,
    counters: Vec<(&'static str, f64)>,
}

fn fold(loads: &[Load], out: &mut Outcome) {
    for l in loads {
        out.attempted += l.attempted;
        out.failed += l.failures.len() as u64;
        for f in l.failures.iter().take(5) {
            out.notes.push(format!("FAILED: {f}"));
        }
    }
}

/// Counter-delta phase of the traced run: `mix` traffic for `window`,
/// returning WAL flushes, WAL bytes and VM instructions per operation.
fn per_op_counters(
    addr: std::net::SocketAddr,
    cfg: &Config,
    phase: u64,
    mix: Mix,
    ledger: &Arc<Ledger>,
    out: &mut Outcome,
) -> (f64, f64, f64) {
    let before = (
        counter("store.wal.flushes"),
        counter("store.wal.append_bytes"),
        counter("vm.instrs"),
    );
    let window = Duration::from_secs_f64((cfg.seconds / 10.0).clamp(0.2, 2.0));
    let (loads, _) = traffic(addr, cfg.seed, phase, mix, window, ledger);
    fold(&loads, out);
    let ops: usize = loads
        .iter()
        .map(|l| l.reads.len() + l.transfers.len())
        .sum();
    let ops = ops.max(1) as f64;
    (
        (counter("store.wal.flushes") - before.0) as f64 / ops,
        (counter("store.wal.append_bytes") - before.1) as f64 / ops,
        (counter("vm.instrs") - before.2) as f64 / ops,
    )
}

/// Restore the pristine image, serve it, run the traffic, drain, audit.
fn serve(cfg: &Config, pristine: &Path, live: &Path, traced: bool, out: &mut Outcome) -> Served {
    let mut sv = Served::default();
    let path = live.join("oltp.img");
    let bank = match author_bank() {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("author bank: {e}"));
            return sv;
        }
    };
    let reps = if traced { 1 } else { SETUPS };
    let mut running = None;
    for rep in 0..reps {
        if let Err(e) = image::restore(pristine, live) {
            out.fail(format!("restore: {e}"));
            return sv;
        }
        if traced {
            trace_on();
        }
        let t0 = Instant::now();
        match start(&path) {
            Ok(r) => {
                sv.setups.push(t0.elapsed().as_secs_f64());
                if rep + 1 < reps {
                    if let Err(e) = stop(r.client, r.handle) {
                        out.fail(format!("set-up shutdown: {e}"));
                        return sv;
                    }
                } else {
                    running = Some(r);
                }
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return sv;
            }
        }
    }
    let mut r = running.expect("at least one set-up");
    for (name, ptml) in &bank {
        if let Err(e) = r.client.ship(name, ptml) {
            out.fail(format!("ship {name}: {e}"));
            let _ = stop(r.client, r.handle);
            return sv;
        }
    }
    let ledger = Arc::new(Ledger::new(accounts(cfg.small).1));
    if traced {
        let (f, b, i) = per_op_counters(r.addr, cfg, 1, Mix::ReadsOnly, &ledger, out);
        sv.wal_per_read = (f, b);
        sv.instrs_per_read = i;
        let (f, b, _) = per_op_counters(r.addr, cfg, 2, Mix::TransfersOnly, &ledger, out);
        sv.wal_per_transfer = (f, b);
        trace_on();
    }
    // The traced run probes the wire floor with pings on a third
    // connection; they are not operations.
    let stop_ping = Arc::new(AtomicBool::new(false));
    let pinger = traced.then(|| {
        let (addr, stop_ping) = (r.addr, Arc::clone(&stop_ping));
        std::thread::spawn(move || {
            let mut pings = Vec::new();
            let Ok(mut c) = Client::connect(addr) else {
                return pings;
            };
            while !stop_ping.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                if c.ping().is_ok() {
                    pings.push(ms_since(t0));
                }
                std::thread::sleep(PING_EVERY);
            }
            let _ = c.bye();
            pings
        })
    });
    let (loads, secs) = traffic(r.addr, cfg.seed, 0, Mix::Mixed, cfg.window(), &ledger);
    stop_ping.store(true, Ordering::SeqCst);
    if let Some(p) = pinger {
        sv.pings = p.join().unwrap_or_default();
    }
    fold(&loads, out);
    sv.mixed = loads;
    sv.mixed_s = secs;
    sv.opened = Some(r.opened);
    match stop(r.client, r.handle) {
        Ok(d) => sv.drain_s = d,
        Err(e) => out.fail(format!("drain: {e}")),
    }
    if traced {
        sv.counters = [
            "txn.aborts",
            "lock.waits",
            "lock.deadlocks",
            "lock.timeouts",
            "reflect.tier.swaps",
        ]
        .iter()
        .map(|n| (*n, counter(n) as f64))
        .collect();
        sv.counters.push((
            "vm.ns_per_instr",
            hist_sum_ns("vm.run") as f64 / counter("vm.instrs").max(1) as f64,
        ));
        sv.counters.push((
            "store.checkpoint_ms",
            hist_sum_ns("store.wal.checkpoint") as f64 / 1e6,
        ));
        trace_off();
    }
    audit(&path, &ledger, out);
    sv
}

/// Median over the window's slices of the completed operations per second
/// and of the read latency median, plus every slice's rate.
fn sliced(loads: &[Load], window_s: f64) -> (f64, f64, Vec<f64>) {
    let width = window_s / SLICES as f64;
    let slice = |at: f64| ((at / width) as usize).min(SLICES - 1);
    let mut ops = [0usize; SLICES];
    let mut reads: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for l in loads {
        for &at in &l.done_at {
            ops[slice(at)] += 1;
        }
        for (&at, &ms) in l.read_at.iter().zip(&l.reads) {
            reads[slice(at)].push(ms);
        }
    }
    let rates: Vec<f64> = ops.iter().map(|&n| n as f64 / width).collect();
    let p50s: Vec<f64> = reads.iter().map(|r| median(r)).collect();
    (median(&rates), median(&p50s), rates)
}

fn all(loads: &[Load], f: impl Fn(&Load) -> &Vec<f64>) -> Vec<f64> {
    loads.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let root: PathBuf = cfg.work.join("oltp");
    let (pristine, live) = (root.join("pristine"), root.join("live"));
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = std::fs::create_dir_all(&pristine) {
        out.fail(format!("{}: {e}", pristine.display()));
        return out;
    }
    let (copies, cells) = accounts(cfg.small);
    let load_ms = match image::build(&pristine.join("oltp.img"), copies, cells, ROOT) {
        Ok(ms) => ms,
        Err(e) => {
            out.fail(format!("image build: {e}"));
            return out;
        }
    };
    let plain = serve(cfg, &pristine, &live, false, &mut out);
    let reads = all(&plain.mixed, |l| &l.reads);
    let ops = reads.len() + plain.mixed.iter().map(|l| l.transfers.len()).sum::<usize>();
    if !cfg.trace {
        let _ = std::fs::remove_dir_all(&root);
        out.set("setup_s", median(&plain.setups));
        let (rate, p50, rates) = sliced(&plain.mixed, cfg.seconds);
        out.set("ops_per_s", rate);
        out.set("p50_ms", p50);
        out.notes.push(format!(
            "oltp: {} reads, {} transfers in {:.2} s; drain {:.3} s; ops/s per slice {:?}",
            reads.len(),
            ops - reads.len(),
            plain.mixed_s,
            plain.drain_s,
            rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>()
        ));
        return out;
    }
    let sv = serve(cfg, &pristine, &live, true, &mut out);
    let _ = std::fs::remove_dir_all(&root);
    let t_reads = all(&sv.mixed, |l| &l.reads);
    let transfers = all(&sv.mixed, |l| &l.transfers);
    let begin = all(&sv.mixed, |l| &l.begin);
    let calls = all(&sv.mixed, |l| &l.calls);
    let commit = all(&sv.mixed, |l| &l.commit);
    let retry = all(&sv.mixed, |l| &l.retry);
    out.set("read_p99_ms", percentile(&t_reads, 0.99));
    out.set("transfer_p50_ms", median(&transfers));
    out.set("transfer_p99_ms", percentile(&transfers, 0.99));
    out.set("drain_s", sv.drain_s);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("lang.load_ms", load_ms);
    if let Some(o) = &sv.opened {
        out.set("store.open_ms", o.open_ms);
        out.set("reflect.relink_ms", o.relink_ms);
        out.set("reflect.relinked", o.relinked as f64);
    }
    out.set("vm.instrs_per_read", sv.instrs_per_read);
    out.set("store.wal.flushes_per_read", sv.wal_per_read.0);
    out.set("store.wal.bytes_per_read", sv.wal_per_read.1);
    out.set("store.wal.flushes_per_transfer", sv.wal_per_transfer.0);
    out.set("store.wal.bytes_per_transfer", sv.wal_per_transfer.1);
    out.set("txn.ping_p50_ms", median(&sv.pings));
    out.set("txn.begin_p50_ms", median(&begin));
    out.set("txn.call_p50_ms", median(&calls));
    out.set("txn.commit_p50_ms", median(&commit));
    out.set("txn.commit_p99_ms", percentile(&commit, 0.99));
    out.set(
        "txn.retries",
        sv.mixed.iter().map(|l| l.retries).sum::<u64>() as f64,
    );
    for (name, v) in &sv.counters {
        out.set(name, *v);
    }
    let untraced_p50 = sliced(&plain.mixed, cfg.seconds).1;
    let traced_p50 = sliced(&sv.mixed, cfg.seconds).1;
    let overhead = (traced_p50 - untraced_p50) / untraced_p50 * 100.0;
    out.set("trace.overhead_pct", overhead);
    // A transfer is begin + two calls + commit + retry pauses. Means add
    // exactly, so they carry the check; medians of skewed parts do not,
    // and are printed for the reader.
    let parts = mean(&begin) + 2.0 * mean(&calls) + mean(&commit) + mean(&retry);
    let err = err_pct(parts, mean(&transfers));
    let p50_parts = median(&begin) + 2.0 * median(&calls) + median(&commit);
    let p50_err = err_pct(p50_parts, median(&transfers));
    out.set("trace.reconcile_err_pct", err);
    out.notes.push(format!(
        "oltp transfer mean {:.4} ms = begin {:.4} + 2 x call {:.4} + commit {:.4} + retry {:.4} ms  (off by {err:.2}%); p50 {:.4} vs {p50_parts:.4} ms  (off by {p50_err:.2}%)",
        mean(&transfers),
        mean(&begin),
        mean(&calls),
        mean(&commit),
        mean(&retry),
        median(&transfers),
    ));
    out.notes.push(format!(
        "oltp traced: {} reads, {} transfers, {} pings in {:.2} s; read p50 {:.4} ms untraced vs {:.4} ms traced",
        t_reads.len(),
        transfers.len(),
        sv.pings.len(),
        sv.mixed_s,
        untraced_p50,
        traced_p50
    ));
    out
}
