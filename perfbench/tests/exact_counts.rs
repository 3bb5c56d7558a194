//! The counts the benchmark reports as exact must repeat exactly: each
//! workload runs twice at test size with one seed, traced, and the
//! instruction, optimizer, relink and image-size counts must agree.

use perfbench::{oltp, reopt, stanford, Config, Outcome, PROGRAMS};

fn run(workload: &str, tag: &str) -> Outcome {
    let cfg = Config {
        seed: 42,
        seconds: 0.2,
        trace: true,
        work: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("exact-{tag}")),
        small: true,
    };
    let out = match workload {
        "stanford" => stanford::run(&cfg),
        "oltp" => oltp::run(&cfg),
        "reopt" => reopt::run(&cfg),
        other => panic!("unknown workload {other}"),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
    out
}

fn exact(workload: &str, names: &[String]) {
    let a = run(workload, "a");
    let b = run(workload, "b");
    for name in names {
        let (x, y) = (a.metrics.get(name), b.metrics.get(name));
        assert!(x.is_some(), "{workload}: {name} not reported");
        assert_eq!(x, y, "{workload}: {name} differs between runs");
    }
}

// One test, so the workloads never share the global trace recorder
// concurrently.
#[test]
fn exact_counts_repeat() {
    let mut names: Vec<String> = PROGRAMS.iter().map(|p| format!("vm.instrs.{p}")).collect();
    names.extend(["instrs", "opt.nodes_after", "opt.inlined"].map(String::from));
    exact("stanford", &names);
    let names = [
        "opt.nodes_after",
        "opt.inlined",
        "reflect.relinked",
        "image_bytes",
    ];
    exact("reopt", &names.map(String::from));
    exact("oltp", &["reflect.relinked".to_string()]);
}
