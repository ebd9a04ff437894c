//! The repository benchmark: client-measured commit latency, capacity
//! and vote inclusion of a live loopback Iniva cluster, over three
//! workloads, plus a traced run that reports per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! detail record (seed, host fingerprint, generator lateness, tail
//! support). A failed correctness check prints `"correct": false` with no
//! metrics and exits with status 1. See `perfbench/README.md`.

mod gen;
mod layers;
mod reduce;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workload::{Outcome, Spec, Workload};

/// A run whose generator lagged more than this at p99 (ms) did not offer
/// the load it claims, so its numbers are refused.
const GEN_LATE_BOUND_MS: f64 = 100.0;

/// Set-ups measured per untraced run; the median is reported.
const SETUP_PROBES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse::<u64>()
            .map_err(|e| format!("--seconds: {e}"))? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
    })
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ms_list(secs: &[f64]) -> String {
    let items: Vec<String> = secs.iter().map(|s| json_num(s * 1e3)).collect();
    format!("[{}]", items.join(", "))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// CPU model, cores, kernel, compiler and source revision of this host.
fn fingerprint() -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpu", cpu),
        ("nproc", nproc),
        ("kernel", kernel),
        ("rustc", rustc),
        ("git_head", git_head()),
    ]
}

/// Cumulative `(steal, total)` CPU ticks of this machine from
/// `/proc/stat`: on a virtual machine, steal is time the hypervisor gave
/// the vCPUs to someone else, which inflates every timing of a run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            json_num((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".into(),
    }
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_head() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The end-to-end metrics, named as in `BENCHMARK.json`.
fn end_to_end(o: &Outcome, setup_s: f64) -> Vec<Metric> {
    let e = &o.e2e;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("commit_p50_ms", e.p50.value * 1e3, "ms"),
        metric("commit_p99_ms", e.commit_p99_s * 1e3, "ms"),
        metric("committed_rps", e.committed_rps, "1/s"),
        metric("first_try_frac", e.acc.first_try_frac(), "ratio"),
        metric("vote_inclusion", e.vote_inclusion, "ratio"),
        metric("outage_ms", e.outage_s * 1e3, "ms"),
    ]
}

/// Prints the detail line and the result line; returns the exit code.
fn report(args: &Args, o: &Outcome, metrics: &[Metric], extra: &[(&str, String)]) -> i32 {
    let e = &o.e2e;
    let late_ms = e.late_p99_s * 1e3;
    let valid = late_ms <= GEN_LATE_BOUND_MS;
    let mut d = format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"gen.late_p99_ms\": {}, \"gen.late_bound_ms\": {}, \"valid\": {}, \
         \"commit_p50_beyond\": {{\"reqs\": {}, \"blocks\": {}}}, \
         \"window_p99_ms\": {}, \"window_p99_beyond\": {{\"reqs\": {}, \"blocks\": {}}}, \
         \"window_p99_resolved\": {}, \"slice_p99_ms\": {}, \"window_outage_ms\": {}, \
         \"slice_outage_ms\": {}, \"ten_longest_gaps_ms\": {}, \
         \"failed_frac\": {}, \"refused\": {}, \"lost\": {}, \"resubmitted\": {}, \
         \"agreed_height\": {}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_num(late_ms),
        json_num(GEN_LATE_BOUND_MS),
        valid,
        e.p50.beyond_reqs,
        e.p50.beyond_blocks,
        json_num(e.p99.value * 1e3),
        e.p99.beyond_reqs,
        e.p99.beyond_blocks,
        e.p99.resolved(),
        ms_list(&e.slice_p99_s),
        json_num(e.window_outage_s * 1e3),
        ms_list(&e.slice_outage_s),
        ms_list(&e.gaps_s[..e.gaps_s.len().min(10)]),
        json_num(e.acc.failed_frac()),
        e.acc.refused,
        e.acc.lost,
        e.acc.resubmitted,
        o.facts.agreed_height,
    );
    if let Some((id, recovered, transferred, catchup)) = o.facts.restarted {
        let _ = write!(
            d,
            ", \"restarted\": {{\"id\": {id}, \"recovered_blocks\": {recovered}, \
             \"state_transfer_blocks\": {transferred}, \"catchup_ms\": {}}}",
            catchup.map_or("null".into(), json_num)
        );
    }
    for (k, v) in extra {
        let _ = write!(d, ", {}: {}", json_str(k), v);
    }
    d.push_str(", \"host\": {");
    let fp: Vec<String> = fingerprint()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    d.push_str(&fp.join(", "));
    d.push_str("}}}");
    println!("{d}");
    if !valid {
        eprintln!(
            "invalid run: generator lateness p99 {late_ms:.1} ms exceeds {GEN_LATE_BOUND_MS} ms"
        );
        return fail_line(e.acc.attempted, e.acc.failed());
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        e.acc.attempted,
        e.acc.failed(),
        metrics_json(metrics)
    );
    0
}

fn fail_line(attempted: u64, failed: u64) -> i32 {
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        attempted.max(1),
        failed
    );
    1
}

/// Scratch space inside the working directory, removed on exit.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

fn main_inner(args: &Args) -> Result<i32, String> {
    let scratch = Scratch::new()?;
    let spec = Spec::new(args.workload, args.seed, args.seconds);
    if !args.trace {
        // The measured run sets up once; shorter clusters repeat the
        // set-up so the reported figure is a median, not one draw.
        let ticks = cpu_ticks();
        let main = workload::run(&spec, &scratch.0, None)?;
        let steal = steal_share(ticks, cpu_ticks());
        let mut setups = vec![main.e2e.setup_s];
        for _ in 1..SETUP_PROBES {
            setups.push(workload::probe_setup(&spec, &scratch.0)?);
        }
        let setup_s = reduce::median(&setups);
        let extra = [
            ("setup_probes_s", format!("{setups:?}")),
            ("cpu_steal_share", steal),
        ];
        return Ok(report(args, &main, &end_to_end(&main, setup_s), &extra));
    }
    // Traced: an untraced run first, so tracing overhead is measured
    // within one invocation, then the observed run, then the cells.
    let plain = workload::run(&spec, &scratch.0, None)?;
    let obs_dir = scratch.0.join("obs");
    let ticks = cpu_ticks();
    let traced = workload::run(&spec, &scratch.0, Some(&obs_dir))?;
    let steal = steal_share(ticks, cpu_ticks());
    let mut metrics = layers::from_dumps(&spec, &traced, &obs_dir)?;
    metrics.extend(layers::overhead(&plain, &traced));
    metrics.extend(layers::cells(&spec, &scratch.0)?);
    Ok(report(
        args,
        &traced,
        &metrics,
        &[("cpu_steal_share", steal)],
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <steady|bls-closed|crash-wal> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let code = match main_inner(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            fail_line(1, 1)
        }
    };
    std::process::exit(code);
}
