//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_suite|serve_warm> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload from the root of a checkout, checks the program's
//! outputs, and prints as its last stdout line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set (see
//! `perfbench/README.md`). A run whose output checks fail prints the
//! failures, reports `correct: false` with no metrics, and exits 1.
//! Everything the run writes stays under `.perfbench/` in the working
//! directory.

mod calib;
mod probes;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Tracer;

/// The end-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_insts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("max_rate_rps", "1/s"),
];

/// The per-layer metrics every workload prints with `--trace 1`, in
/// print order. A layer the workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        tdo_workloads::names().iter().map(|w| (format!("sim.{w}.insts_per_s"), "1/s")).collect();
    for p in tdo_sim::profile::PHASE_NAMES {
        out.push((format!("sim.phase.{p}_s"), "s"));
    }
    const FIXED: [(&str, &str); 69] = [
        ("sim.phase.untimed_s", "s"),
        ("sim.traced_wall_s", "s"),
        ("sim.run_wall_gap_pct", "%"),
        ("sim.trace_overhead_pct", "%"),
        ("sim.host_ns_per_inst", "ns"),
        ("sim.host_ns_per_cycle", "ns"),
        ("isa.decode_ns", "ns"),
        ("mem.l1_hit_ns", "ns"),
        ("mem.stream_load_ns", "ns"),
        ("core.dlt_observe_ns", "ns"),
        ("trident.form_trace_ns", "ns"),
        ("trident.optimize_trace_ns", "ns"),
        ("cpu.insts", "count"),
        ("cpu.cycles", "count"),
        ("cpu.helper_active_cycles", "count"),
        ("mem.loads", "count"),
        ("mem.misses", "count"),
        ("mem.partial_hits", "count"),
        ("mem.misses_due_to_prefetch", "count"),
        ("mem.sw_prefetch_issued", "count"),
        ("mem.sw_prefetch_redundant", "count"),
        ("mem.sw_prefetch_dropped", "count"),
        ("arms.issued", "count"),
        ("arms.useful", "count"),
        ("arms.useful_ratio", "ratio"),
        ("trident.events_queued", "count"),
        ("trident.events_dropped", "count"),
        ("trident.traces_installed", "count"),
        ("trident.backouts", "count"),
        ("core.prefetches_inserted", "count"),
        ("core.repairs", "count"),
        ("core.matured", "count"),
        ("workloads.build_s", "s"),
        ("client.connect_us_p50", "us"),
        ("client.ttfb_us_p50", "us"),
        ("client.ttfb_us_p99", "us"),
        ("server.run_us_p50", "us"),
        ("server.run_us_p99", "us"),
        ("server.self_report_gap", "ratio"),
        ("server.accept_wait_us_p50", "us"),
        ("server.cache_hit_ratio", "ratio"),
        ("server.queue_depth_max", "count"),
        ("server.shed", "count"),
        ("server.batch_cells_per_request", "count"),
        ("server.health_ticks_per_s", "1/s"),
        ("obs.flight_records_per_request", "count"),
        ("metrics.scrape_us", "us"),
        ("server.parse_run_body_ns", "ns"),
        ("server.lru_get_ns", "ns"),
        ("server.lru_put_ns", "ns"),
        ("server.http_read_request_us", "us"),
        ("sim.persist_encode_us", "us"),
        ("sim.persist_decode_us", "us"),
        ("store.put_us", "us"),
        ("store.get_us", "us"),
        ("sim.short_cell_ms", "ms"),
        ("sim.engine_cold_cell_us", "us"),
        ("sim.engine_recall_us", "us"),
        ("host.speed", "ratio"),
        ("gen.late_us_p99", "us"),
        ("gen.late_requests", "count"),
        ("gen.ladder_late_us_p99", "us"),
        ("gen.slot_wait_us_p99", "us"),
        ("serve.ok_requests", "count"),
        ("serve.single_samples", "count"),
        ("serve.batch_samples", "count"),
        ("serve.slow_samples", "count"),
        ("serve.ladder_rungs_passed", "count"),
        ("serve.last_rung_goodput_rps", "1/s"),
    ];
    out.extend(FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Named metric values measured by one run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name.to_string(), v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One run's options, operation counts, sample counts and check failures.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub samples: Vec<(&'static str, usize)>,
}

impl Run {
    /// Records an output check; a failed one invalidates the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <sim_suite|serve_warm> --seed <n> \
                     --seconds <n> --trace <0|1> | --pin-digests";

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sim_suite", "serve_warm"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        work,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        samples: Vec::new(),
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Lowers the peak [`peak_rss_mb`] reads to the current resident size.
pub fn reset_peak_rss() {
    // Writing 5 to `clear_refs` resets `VmHWM`; without it the peak keeps
    // what came before, which only overstates it.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// FNV-1a 64 over the sorted paths and contents of every file under
/// `roots`: identifies the measured source when no git revision exists.
fn source_digest(roots: &[&str]) -> String {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(p) {
            for e in rd.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, out);
                } else {
                    out.push(path);
                }
            }
        }
    }
    let mut files = Vec::new();
    for r in roots {
        walk(Path::new(r), &mut files);
    }
    files.retain(|f| f.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "txt"));
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", tdo_store::fnv1a64(&bytes))
}

/// Host fingerprint, seed and sample counts, so numbers from different
/// hosts are never compared silently.
fn metadata(run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "none".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let samples: Vec<String> = run.samples.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{nproc},\
         \"cpu\":\"{}\",\"kernel\":\"{}\",\"profile\":\"{profile}\",\"git_rev\":\"{}\",\
         \"source_digest\":\"{}\"}},\"samples\":{{{}}}}}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        json_escape(&cpu),
        json_escape(&kernel),
        json_escape(&git_rev),
        source_digest(&["crates", "perfbench/src"]),
        samples.join(",")
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--pin-digests") {
        suite::pin_digests();
        return ExitCode::SUCCESS;
    }
    let mut run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {e}", run.work.display());
        return ExitCode::from(2);
    }
    let tr = Tracer::new(run.trace);
    let mut m = Metrics::default();
    match run.workload.as_str() {
        "sim_suite" => suite::run_suite(&mut run, &tr, &mut m),
        _ => serve::run_warm(&mut run, &tr, &mut m),
    }
    if run.trace {
        if let Err(e) = probes::run_all(&mut m, &run.work) {
            run.check(false, format!("unit-cost probes: {e}"));
        }
    }
    // A serving workload reads its peak before the host-speed reference
    // allocates; the suite's images dwarf the reference's 8 MB.
    if m.get("peak_rss_mb").is_none() {
        m.set("peak_rss_mb", peak_rss_mb());
    }
    m.set("ok_share", stats::ratio((run.attempted - run.failed) as f64, run.attempted as f64));
    let _ = std::fs::remove_dir_all(&run.work);
    if tr.on() {
        let dir = Path::new(".perfbench").join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", run.workload, run.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tr.write(&path)) {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.len(), path.display()),
            Err(e) => run.check(false, format!("writing spans: {e}")),
        }
    }

    let wanted: Vec<(String, &str)> = if run.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let v = match m.get(name) {
            Some(v) => v,
            None if run.trace => 0.0,
            None => {
                run.check(false, format!("metric {name} was not measured"));
                continue;
            }
        };
        if !v.is_finite() {
            run.check(false, format!("metric {name} is not finite"));
            continue;
        }
        fields.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    println!("# meta {}", metadata(&run));
    let correct = run.failures.is_empty() && run.attempted > 0;
    for f in &run.failures {
        println!("# check failed: {f}");
    }
    let metrics = if correct { fields.join(", ") } else { String::new() };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted.max(1),
        run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = text
                .split(&format!("\"{section}\": ["))
                .nth(1)
                .expect("section")
                .split(']')
                .next()
                .unwrap();
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |k: &str| {
                        obj.split(&format!("\"{k}\": \""))
                            .nth(1)
                            .unwrap()
                            .split('"')
                            .next()
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
