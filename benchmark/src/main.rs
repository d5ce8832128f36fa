//! The repo benchmark. One invocation measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_point --seed 42 --seconds 20 --trace 0
//! ```
//!
//! and prints every metric as a `workload metric value unit` row, then, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. Without `--workload` it runs
//! all four workloads in both modes and relays their rows. See `README.md`.

mod catalog;
mod client;
mod corpus;
mod methods;
mod probes;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use tir_core::{IrHintPerf, Tif};

use catalog::{MetricDef, WORKLOADS};
use corpus::{extent_spec, point_spec, Corpus, Scale};
use serve::ServeWorkload;

/// What one invocation was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Scratch for data directories; removed when the run ends.
    pub run_dir: PathBuf,
    /// Where trace files stay (`benchmark/out`).
    pub out_dir: PathBuf,
    pub poison_oracle: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn serve_workload(name: &str) -> ServeWorkload {
    let (corpus, specs, read_share, groups_per_cycle) = match name {
        // The in-memory write path is measured here, on 30 % of the run;
        // `serve_range` shares server and corpus, so its write bursts are
        // only long enough for the write metrics every workload must
        // report, and its heavier-tailed reads get the time.
        "serve_point" => (Corpus::Dense, vec![point_spec()], 0.7, 16),
        "serve_range" => (Corpus::Dense, vec![extent_spec(0.01)], 0.9, 16),
        "durable_mixed" => (Corpus::Dense, vec![extent_spec(0.001)], 0.5, 64),
        // Served only by the traced run's layer probes.
        "lib_methods" => (
            Corpus::Eclog,
            vec![extent_spec(0.001), extent_spec(0.1)],
            0.7,
            16,
        ),
        other => unreachable!("unknown workload {other} passed validation"),
    };
    ServeWorkload {
        name: name.to_string(),
        corpus,
        specs,
        read_share,
        groups_per_cycle,
    }
}

/// Pins this process — and every thread it will spawn, servers included —
/// to the first CPU it may run on. On the 2-vCPU VM this repo is measured
/// on, waking an idle core from another costs 25–50 µs and swings 3×
/// from second to second (NOISE.md): most of an unpinned round trip, none
/// of it this repo's code. On one CPU a request costs the CPU time of its
/// layers, which is what a code change moves, and it repeats.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> std::io::Result<()> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // which is all sched_getaffinity requires; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let word = mask
        .iter()
        .position(|w| *w != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let bit = mask[word] & mask[word].wrapping_neg();
    mask = [0; 16];
    mask[word] = bit;
    // SAFETY: `mask` is a live buffer of `size` bytes naming one CPU taken
    // from the mask the kernel just reported as allowed.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> std::io::Result<()> {
    Ok(())
}

/// Peak resident set of this process (benchmark and system together).
fn rss_peak_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// Runs one workload in one mode and returns its metrics in catalog
/// order, failing if a name is missing or not finite.
fn run_one(name: &str, traced: bool, cfg: &RunConfig) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.run_dir)?;
    tir_fault::clear();
    let wl = serve_workload(name);
    let result = match (name, traced) {
        ("lib_methods", false) => Ok(methods::run_end_to_end(cfg)),
        ("durable_mixed", false) => serve::run::<Tif>(&wl, cfg),
        (_, false) => serve::run::<IrHintPerf>(&wl, cfg),
        ("durable_mixed", true) => probes::run::<Tif>(&wl, cfg),
        (_, true) => probes::run::<IrHintPerf>(&wl, cfg),
    };
    // analyze:allow(error-swallow): best-effort scratch cleanup
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    let mut out = result?;
    out.failed += tir_fault::injected_count();
    if traced {
        out.metric("proc.rss_peak_mb", rss_peak_mb()?);
    }
    let wanted = catalog::metrics(traced);
    let mut ordered = Vec::with_capacity(wanted.len());
    for def in &wanted {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| std::io::Error::other(format!("{name}: no value for {}", def.name)))?;
        ordered.push((def.name.clone(), value));
    }
    out.metrics = ordered;
    Ok(out)
}

fn json_line(out: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .zip(defs)
        .map(|((name, value), def)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    describe: bool,
    poison_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        selfcheck: false,
        describe: false,
        poison_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                // 60 is the most `run_seconds` may be.
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--describe" => args.describe = true,
            "--poison-oracle" => args.poison_oracle = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> RunConfig {
    // `cargo run` exports the manifest directory at run time; the
    // compile-time value covers a binary started by hand.
    let home = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let out_dir = home.join("out");
    RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.5
        } else {
            f64::from(catalog::RUN_SECONDS)
        }),
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
        poison_oracle: args.poison_oracle,
    }
}

/// Prints one run: a `workload metric value unit` row per metric, then
/// the result line the driver reads.
fn print_run(workload: &str, traced: bool, out: &Outcome) {
    let defs = catalog::metrics(traced);
    for ((name, value), def) in out.metrics.iter().zip(&defs) {
        println!("{workload} {name} {value} {}", def.unit);
    }
    println!("{}", json_line(out, &defs));
}

/// One printed row of the suite: workload, metric, value.
type SuiteRow = (String, String, f64);

/// Every workload in both modes, each in a process of its own as the
/// driver runs them (peak RSS is per process, and one workload's heap
/// must not be the next one's starting point); relays their rows.
/// Returns the rows and how many runs failed.
fn run_suite(args: &Args) -> std::io::Result<(Vec<SuiteRow>, u64)> {
    let exe = std::env::current_exe()?;
    let mut rows = Vec::new();
    let mut failed = 0;
    for wl in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut run = std::process::Command::new(&exe);
            run.args(["--workload", wl.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()]);
            if let Some(seconds) = args.seconds {
                run.args(["--seconds", &seconds.to_string()]);
            }
            if args.smoke {
                run.arg("--smoke");
            }
            let done = run.stderr(std::process::Stdio::inherit()).output()?;
            failed += u64::from(!done.status.success());
            let stdout = String::from_utf8_lossy(&done.stdout);
            // Everything but the child's result line is a row.
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
                let fields: Vec<&str> = line.split(' ').collect();
                if let [workload, metric, value, _unit] = fields[..] {
                    if let Ok(value) = value.parse() {
                        rows.push((workload.to_string(), metric.to_string(), value));
                    }
                }
            }
        }
    }
    Ok((rows, failed))
}

/// Runs the suite twice on this build: every end-to-end metric of the
/// second set must be within its bound of the first, every `invidx.*`
/// count identical.
fn selfcheck(args: &Args) -> std::io::Result<u64> {
    let (first, failed_a) = run_suite(args)?;
    let (second, failed_b) = run_suite(args)?;
    let e2e = catalog::end_to_end();
    let mut bad = failed_a + failed_b;
    for ((wl, name, a), (_, _, b)) in first.iter().zip(&second) {
        if let Some(def) = e2e.iter().find(|d| d.name == *name) {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = if def.better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if worse > bound { "WORSE" } else { "ok" };
            println!(
                "selfcheck {wl} {name}: {a} -> {b} ({:+.1} %, bound {:.0} %) {verdict}",
                worse * 100.0,
                bound * 100.0
            );
            bad += u64::from(worse > bound);
        } else if name.starts_with("invidx.") && !name.ends_with("ns_per_scanned_elem") && a != b {
            println!("selfcheck {wl} {name}: {a} != {b} (counts must repeat exactly)");
            bad += 1;
        }
    }
    Ok(bad)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tir-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", catalog::describe());
        return ExitCode::SUCCESS;
    }
    let cfg = config(&args);
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("tir-benchmark: cannot pin to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    let failed = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, args.traced, &cfg).map(|out| {
            print_run(name, args.traced, &out);
            out.failed
        })
    } else {
        run_suite(&args).map(|(_, failed)| failed)
    };
    match failed {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("tir-benchmark: {n} failed operation(s), check(s) or run(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tir-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_meets_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let (e2e, layers) = (catalog::end_to_end(), catalog::per_layer());
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in e2e.iter().chain(&layers) {
            assert!(ok_name(&m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            names.push(m.name.clone());
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(catalog::describe().len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            metrics: vec![("setup_s".into(), 0.8127)],
            attempted: 10,
            failed: 0,
        };
        assert_eq!(
            json_line(&out, &catalog::end_to_end()[..1]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
