//! Executes every bench target (not just compiles them) and writes
//! `BENCH_PR10.json`: per-bench wall-clock plus every section of
//! `netcon_bench::sections::SECTIONS` — plus an optional regression gate
//! against a committed baseline. `crates/bench/README.md` documents the
//! JSON schema, the carry-forward rules, and the `--check` semantics.
//!
//! ```sh
//! NETCON_BENCH_SCALE=1 cargo run --release -p netcon-bench --bin perf_smoke
//! NETCON_BENCH_SCALE=1 cargo run --release -p netcon-bench --bin perf_smoke -- \
//!     --out bench-smoke.json --check BENCH_PR10.json   # CI gate
//! cargo run --release -p netcon-bench --bin perf_smoke -- --regen mega_frontier
//! ```
//!
//! `NETCON_BENCH_SCALE` (percent) is inherited by the spawned bench
//! processes and by the in-process sections; CI uses the minimum (1).
//! The output path defaults to `BENCH_PR10.json` in the workspace root.
//! Sections run on every invocation except the on-request ones, which
//! run only when `--regen <section,...>` names them and are otherwise
//! carried forward from the `--out` file, else from the `--check`
//! baseline. `--check <baseline.json>` fails the run when a bench
//! target's wall-clock regressed past 2.5× its baseline (see
//! `record::check_against_baseline`).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use netcon_bench::harness::scale_pct;
use netcon_bench::obj;
use netcon_bench::record::{carry_forward, check_against_baseline, Json};
use netcon_bench::sections::{parse_regen, SECTIONS};

const USAGE: &str = "usage: perf_smoke [--out <path>] [--check <baseline>] [--regen <section,...>]";

struct Args {
    out: PathBuf,
    check: Option<PathBuf>,
    regen: Vec<&'static str>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = None;
    let mut check = None;
    let mut regen = Vec::new();
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (a.clone(), None),
        };
        // Refuse anything unknown rather than silently overwrite the
        // committed baseline on a typo.
        if !matches!(flag.as_str(), "--out" | "--check" | "--regen") {
            return Err(format!("unrecognized argument {a:?}"));
        }
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value)),
            "--check" => check = Some(PathBuf::from(value)),
            _ => regen.extend(parse_regen(&value)?),
        }
    }
    Ok(Args {
        out: out
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR10.json")),
        check,
        regen,
    })
}

fn bench_targets(bench_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(bench_dir)
        .expect("crates/bench/benches exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    names.sort();
    names
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| panic!("{e}; {USAGE}"));
    let scale_pct = scale_pct().to_string();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");

    // Warm build so compilation never lands inside a target's wall-clock
    // (a cold CI cache would otherwise trip the regression gate).
    println!("==> cargo bench --no-run (warm build, untimed)");
    let status = Command::new(&cargo)
        .args(["bench", "-p", "netcon-bench", "--no-run"])
        .status()
        .expect("failed to spawn cargo bench --no-run");
    assert!(status.success(), "bench warm build failed");

    let mut rows = Vec::new();
    for name in bench_targets(&bench_dir) {
        println!("==> cargo bench --bench {name}");
        let t0 = Instant::now();
        let status = Command::new(&cargo)
            .args(["bench", "-p", "netcon-bench", "--bench", &name])
            .status()
            .expect("failed to spawn cargo bench");
        let wall = t0.elapsed().as_secs_f64();
        assert!(status.success(), "bench target {name} failed");
        rows.push((name, wall));
    }

    // Read before writing: `--out` may name the file being carried from.
    let earlier: Vec<String> = [Some(&args.out), args.check.as_ref()]
        .into_iter()
        .flatten()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect();
    let benches = rows.iter().map(|(name, wall)| {
        obj! { "name": name.as_str(), "wall_s": Json::Fixed(*wall, 3) }
    });
    let sections = SECTIONS.iter().filter_map(|s| {
        let section = if !s.on_request || args.regen.contains(&s.name) {
            println!("==> section {}", s.name);
            Some((s.record)())
        } else {
            earlier
                .iter()
                .find_map(|text| carry_forward(text, s.name))
                .map(Json::Raw)
        };
        section.map(|v| (s.name, v))
    });
    let record = obj! {
        "pr": 10u32,
        "bench_scale_pct": scale_pct.as_str(),
        "benches": Json::Arr(benches.collect()),
    };
    let json = record.with(sections).render(0) + "\n";
    std::fs::write(&args.out, json).expect("write the bench record JSON");
    println!(
        "\nwrote {} ({} bench targets)",
        args.out.display(),
        rows.len()
    );

    if let Some(path) = args.check {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        println!("\nbaseline: {}", path.display());
        if let Err(msg) = check_against_baseline(&baseline, &scale_pct, &rows) {
            eprintln!("\nREGRESSION GATE FAILED\n{msg}");
            std::process::exit(1);
        }
        println!("regression gate passed");
    }
}
