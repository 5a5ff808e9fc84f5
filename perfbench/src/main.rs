//! End-to-end benchmark of the scenario front door.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale_sweep|route_heavy|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates the workload's inputs
//! from `--seed` into `.bench_work/`, then starts one child process per
//! measured repetition, so each repetition has its own resident-set
//! high-water mark. All load comes from one process with one worker thread
//! per available core.
//!
//! * `--trace 0` runs the user path untraced — `run_directory` over a spec
//!   file, or `ReportServer::handle_line` once per request — repeating the
//!   full workload until its runs add up to `--seconds` (at least
//!   [`MIN_FULL_REPS`] times) and its pairs=1 twin [`SETUP_REPS`] times,
//!   and prints the end-to-end metrics.
//! * `--trace 1` runs the workload once untraced and once through the
//!   staged runner ([`staged`]), which calls each layer's public functions
//!   in the program's order with a span around each call, and prints the
//!   per-layer metrics and the stage table.
//!
//! Every run checks the outputs (see [`Gate`]). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The result, the host record and (traced) every span are also written to
//! `.bench_out/`. `METRICS.md` beside this package maps each layer metric
//! to the end-to-end metric it should move.

mod host;
mod staged;
mod stats;
mod trace;
mod workloads;

use dht_experiments::output::ReportMode;
use dht_scenario::{run_directory, BatchOptions, ReportServer, ServerStats};
use serde::{Deserialize, Serialize, Value};
use staged::{Extras, LayerTotals, PointTally, ServerPhase};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::{Budget, Size, Workload, DEFAULT_SEED};

/// Full-budget repetitions per untraced run, at least.
const MIN_FULL_REPS: usize = 2;
/// Full-budget repetitions per untraced run, at most.
const MAX_FULL_REPS: usize = 8;
/// pairs=1 repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("spec.validate_hash_us", "us"),
    ("overlay.build_s", "s"),
    ("overlay.resident_mib", "MiB"),
    ("kernel.compile_s", "s"),
    ("kernel.plan_mib", "MiB"),
    ("mask.sample_s", "s"),
    ("mask.ns_per_node", "ns"),
    ("sampler.index_s", "s"),
    ("sampler.ns_per_node", "ns"),
    ("engine.route_s", "s"),
    ("engine.pairs_per_s", "1/s"),
    ("engine.ns_per_pair", "ns"),
    ("engine.ns_per_hop", "ns"),
    ("engine.delivered_ratio", "ratio"),
    ("engine.route_s_1t", "s"),
    ("engine.scaling_eff", "ratio"),
    ("engine.implicit_over_materialized", "ratio"),
    ("rowcache.hit_ratio", "ratio"),
    ("rowcache.misses", "count"),
    ("chain.solve_s", "s"),
    ("chain.solves", "count"),
    ("chain.hit_ratio", "ratio"),
    ("chain.max_solve_ms", "ms"),
    ("analysis_s", "s"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("server.hit_p50_us", "us"),
    ("server.miss_p50_ms", "ms"),
    ("server.build_p50_ms", "ms"),
    ("server.report_hit_ratio", "ratio"),
    ("server.overlay_hit_ratio", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// FNV-1a 64 digests of the user path's output at [`DEFAULT_SEED`]: the
/// report file of a spec workload, the response lines of serve_mix.
/// Reports do not depend on threads or host, so these belong to the code.
const PINNED: [(&str, Budget, &str); 6] = [
    ("scale_sweep", Budget::Full, "7c83b82fe0027ca0"),
    ("scale_sweep", Budget::One, "6a24759d166c0270"),
    ("route_heavy", Budget::Full, "dddd637552f1aae0"),
    ("route_heavy", Budget::One, "1926c31e8d8dd3fd"),
    ("serve_mix", Budget::Full, "436ddce3afaea076"),
    ("serve_mix", Budget::One, "8b1b0ac7066019e9"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("child") {
        child(&args[1..]).map(|()| ExitCode::SUCCESS)
    } else {
        parent(&args)
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perfbench: {message}");
        ExitCode::from(2)
    })
}

fn fnv1a64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Child processes: one measured repetition each
// ---------------------------------------------------------------------------

/// What a child process reports on its last line of standard output.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ChildReport {
    /// Wall time of the workload (untraced) or of the staged pipeline.
    wall_s: f64,
    /// User plus system CPU seconds over the same interval.
    cpu_s: f64,
    /// The process's resident-set high-water mark, MiB.
    rss_mib: f64,
    /// Per-request latencies (serve_mix), ms.
    latencies_ms: Vec<f64>,
    /// Operations the gate checked.
    attempted: u64,
    /// Checks that failed, with the reason.
    failures: Vec<String>,
    /// FNV-1a digest of the output.
    digest: String,
    /// Per-point tallies (spec workloads).
    tallies: Vec<PointTally>,
    /// Per-layer metrics (traced child).
    metrics: Vec<(String, f64)>,
    /// Stage spans (traced child).
    spans: Vec<Span>,
    /// Server request spans (traced serve_mix child).
    server_spans: Vec<Span>,
}

/// What serve_mix's counters and repeats must look like.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Expect {
    repeat_of: Vec<Option<u64>>,
    report_hits: u64,
    report_misses: u64,
    overlay_builds: u64,
    overlay_hits: u64,
}

/// Child entry point: `child <run|staged|traced> <workload> <input dir>`.
fn child(args: &[String]) -> Result<(), String> {
    let [mode, workload, input] = args else {
        return Err("usage: child <run|staged|traced> <workload> <input dir>".to_owned());
    };
    let workload = Workload::from_name(workload).ok_or("unknown workload")?;
    let input = Path::new(input);
    let threads = staged::default_threads();
    let report = match (mode.as_str(), workload) {
        ("run", Workload::ServeMix) => serve_child(input, threads, false)?,
        ("run", _) => run_spec_child(input, threads)?,
        ("traced", Workload::ServeMix) => serve_child(input, threads, true)?,
        ("staged" | "traced", _) => {
            let extras = if mode == "traced" {
                Extras::Traced
            } else {
                Extras::None
            };
            staged_spec_child(input, workload, threads, extras)?
        }
        _ => return Err(format!("unknown child mode {mode:?}")),
    };
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn as_f64(value: Option<&Value>) -> Option<f64> {
    match value? {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

/// The per-point tallies a report records. An implicit-scale report keeps
/// the delivered share as a percentage; the count is recovered from it and
/// must reproduce the percentage exactly.
fn report_tallies(report: &str) -> Result<Vec<PointTally>, String> {
    let value: Value = serde_json::from_str(report).map_err(|e| format!("report JSON: {e}"))?;
    let payload = value.get("payload").ok_or("report has no payload")?;
    let missing = || "report point lacks a tally field".to_owned();
    let tally = |point: &Value| -> Result<PointTally, String> {
        if let Some(simulated) = point.get("simulated") {
            let attempted = as_f64(simulated.get("pairs_attempted")).ok_or_else(missing)?;
            let delivered = as_f64(simulated.get("pairs_delivered")).ok_or_else(missing)?;
            let hops = as_f64(simulated.get("mean_hops")).ok_or_else(missing)?;
            return Ok((attempted as u64, delivered as u64, hops));
        }
        let attempted = as_f64(point.get("pairs")).ok_or_else(missing)?;
        let percent = as_f64(point.get("routability_percent")).ok_or_else(missing)?;
        let hops = as_f64(point.get("mean_hops")).ok_or_else(missing)?;
        let delivered = (percent * attempted / 100.0).round();
        if 100.0 * (delivered / attempted) != percent {
            return Err("routability_percent does not match a whole pair count".to_owned());
        }
        Ok((attempted as u64, delivered as u64, hops))
    };
    match payload {
        Value::Array(points) => points.iter().map(tally).collect(),
        Value::Object(_) => match payload.get("points") {
            Some(Value::Array(points)) => points.iter().map(tally).collect(),
            _ => Err("report payload has no points".to_owned()),
        },
        _ => Err("report payload is neither a list nor an object".to_owned()),
    }
}

/// One untraced `run_directory` over the spec directory.
fn run_spec_child(input: &Path, threads: usize) -> Result<ChildReport, String> {
    let out = input.join(format!("out-{}", std::process::id()));
    let options = BatchOptions {
        output_dir: out.clone(),
        threads: Some(threads),
        backend: None,
        mode: ReportMode::Compact,
    };
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let manifest = run_directory(&input.join("specs"), &options).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let mut report = ChildReport {
        wall_s,
        cpu_s,
        rss_mib: host::peak_rss_mib(),
        attempted: manifest.len() as u64,
        ..ChildReport::default()
    };
    for entry in &manifest {
        if let Some(error) = &entry.error {
            report.failures.push(format!("{}: {error}", entry.file));
            continue;
        }
        let text = fs::read_to_string(out.join(&entry.report)).map_err(|e| e.to_string())?;
        report.digest = fnv1a64(text.as_bytes());
        match report_tallies(&text) {
            Ok(tallies) => report.tallies = tallies,
            Err(message) => report.failures.push(message),
        }
    }
    let _ = fs::remove_dir_all(&out);
    Ok(report)
}

/// The spec workload through the staged runner.
fn staged_spec_child(
    input: &Path,
    workload: Workload,
    threads: usize,
    extras: Extras,
) -> Result<ChildReport, String> {
    let path = input
        .join("specs")
        .join(format!("{}.json", workload.name()));
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut tracer = Tracer::new();
    let cpu_before = host::cpu_seconds();
    let outcome = staged::run_spec_staged(&mut tracer, &text, threads, extras)?;
    let cpu_s = host::cpu_seconds() - cpu_before;
    let spans = tracer.into_spans();
    let metrics = layer_metrics(&outcome.totals, None, &spans, outcome.pipeline_s, threads);
    Ok(ChildReport {
        wall_s: outcome.pipeline_s,
        cpu_s,
        rss_mib: host::peak_rss_mib(),
        attempted: 1,
        failures: outcome.failures,
        digest: fnv1a64(outcome.output.concat().as_bytes()),
        tallies: outcome.tallies,
        metrics,
        spans: if extras == Extras::Traced {
            spans
        } else {
            Vec::new()
        },
        ..ChildReport::default()
    })
}

/// serve_mix: one closed-loop client, one request at a time. The traced
/// variant also records a span per request, classes each request by the
/// change in the server's counters, and then replays the requests through
/// the staged runner.
fn serve_child(input: &Path, threads: usize, traced: bool) -> Result<ChildReport, String> {
    let text = fs::read_to_string(input.join("requests.jsonl")).map_err(|e| e.to_string())?;
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let expect: Expect = serde_json::from_str(
        &fs::read_to_string(input.join("expect.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;

    let mut server = ReportServer::new(threads);
    let mut server_tracer = Tracer::new();
    let mut phase = ServerPhase::default();
    let mut responses = Vec::with_capacity(lines.len());
    let mut latencies_ms = Vec::with_capacity(lines.len());
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    for (index, line) in lines.iter().enumerate() {
        if traced {
            let before = server.stats();
            server_tracer.set_request(index as u64 + 1);
            let (response, seconds) =
                server_tracer.span("scenario.server.request", |_| server.handle_line(line));
            match staged::classify_request(&before, &server.stats()) {
                "hit" => phase.hit_us.push(seconds * 1e6),
                "build" => phase.build_ms.push(seconds * 1e3),
                _ => phase.miss_ms.push(seconds * 1e3),
            }
            latencies_ms.push(seconds * 1e3);
            responses.push(response);
        } else {
            let request_started = Instant::now();
            responses.push(server.handle_line(line));
            latencies_ms.push(request_started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let stats = server.stats();
    phase.stats = Some(stats);

    let mut report = ChildReport {
        wall_s,
        cpu_s,
        rss_mib: host::peak_rss_mib(),
        latencies_ms,
        attempted: lines.len() as u64,
        failures: check_serve(&responses, &expect, &stats),
        digest: fnv1a64(responses.join("\n").as_bytes()),
        ..ChildReport::default()
    };
    if traced {
        let mut tracer = Tracer::new();
        let outcome =
            staged::replay_serve(&mut tracer, &lines, &responses, threads, Extras::Traced)?;
        report.failures.extend(outcome.failures);
        let spans = tracer.into_spans();
        report.metrics = layer_metrics(
            &outcome.totals,
            Some(&phase),
            &spans,
            outcome.pipeline_s,
            threads,
        );
        report.wall_s = outcome.pipeline_s;
        report.spans = spans;
        report.server_spans = server_tracer.into_spans();
    }
    Ok(report)
}

/// serve_mix's gate: every response is `ok`, a repeat returns its
/// original's payload byte for byte, and the final counters equal the
/// generator's prediction.
fn check_serve(responses: &[String], expect: &Expect, stats: &ServerStats) -> Vec<String> {
    let payload = |index: usize| {
        let response = &responses[index];
        let prefix = format!("{{\"id\":{},\"ok\":", index + 1);
        response.strip_prefix(&prefix).map(str::to_owned)
    };
    let mut failures = Vec::new();
    for (index, repeat_of) in expect.repeat_of.iter().enumerate() {
        let Some(this) = responses.get(index).and_then(|_| payload(index)) else {
            failures.push(format!("request {} was not answered ok", index + 1));
            continue;
        };
        if let Some(original) = repeat_of {
            if payload(*original as usize).as_ref() != Some(&this) {
                failures.push(format!("request {} differs from its original", index + 1));
            }
        }
    }
    let predicted = (
        expect.report_hits,
        expect.report_misses,
        expect.overlay_builds,
        expect.overlay_hits,
    );
    let counted = (
        stats.report_hits,
        stats.report_misses,
        stats.overlay_builds,
        stats.overlay_hits,
    );
    if predicted != counted {
        failures.push(format!(
            "server counters (hits, misses, builds, overlay hits) {counted:?} != predicted {predicted:?}"
        ));
    }
    failures
}

/// The per-layer metrics a staged run measured, in [`PER_LAYER`] order
/// (the parent adds `proc.cpu_util` and `trace.overhead`).
fn layer_metrics(
    totals: &LayerTotals,
    server: Option<&ServerPhase>,
    spans: &[Span],
    pipeline_s: f64,
    threads: usize,
) -> Vec<(String, f64)> {
    const MIB: f64 = 1024.0 * 1024.0;
    let covered: f64 = spans
        .iter()
        .filter(|span| span.parent.is_none() && !span.name.starts_with("extras."))
        .map(Span::seconds)
        .sum();
    let median = |samples: &[f64]| stats::median(samples).unwrap_or(0.0);
    let t = totals;
    let (hit_us, miss_ms, build_ms, report_hit_ratio, overlay_hit_ratio) = server
        .map(|phase| {
            let counters = phase.stats.unwrap_or_default();
            (
                median(&phase.hit_us),
                median(&phase.miss_ms),
                median(&phase.build_ms),
                ratio(counters.report_hits as f64, counters.requests as f64),
                ratio(
                    counters.overlay_hits as f64,
                    (counters.overlay_hits + counters.overlay_builds) as f64,
                ),
            )
        })
        .unwrap_or_default();
    let values = [
        ("spec.validate_hash_us", median(&t.spec_us)),
        ("overlay.build_s", t.overlay_build_s),
        ("overlay.resident_mib", t.overlay_bytes as f64 / MIB),
        ("kernel.compile_s", t.kernel_compile_s),
        ("kernel.plan_mib", t.plan_bytes as f64 / MIB),
        ("mask.sample_s", t.mask_s),
        (
            "mask.ns_per_node",
            ratio(t.mask_s * 1e9, t.mask_nodes as f64),
        ),
        ("sampler.index_s", t.sampler_s),
        (
            "sampler.ns_per_node",
            ratio(t.sampler_s * 1e9, t.sampler_nodes as f64),
        ),
        ("engine.route_s", t.route_s),
        ("engine.pairs_per_s", ratio(t.pairs as f64, t.route_s)),
        ("engine.ns_per_pair", ratio(t.route_s * 1e9, t.pairs as f64)),
        (
            "engine.ns_per_hop",
            ratio(t.route_s * 1e9, t.delivered_hops),
        ),
        (
            "engine.delivered_ratio",
            ratio(t.delivered as f64, t.pairs as f64),
        ),
        ("engine.route_s_1t", t.route_s_1t),
        (
            "engine.scaling_eff",
            ratio(t.route_s_1t, threads as f64 * t.route_s),
        ),
        (
            "engine.implicit_over_materialized",
            ratio(t.ab_implicit_s, t.ab_materialized_s),
        ),
        (
            "rowcache.hit_ratio",
            ratio(
                t.rowcache_hits as f64,
                (t.rowcache_hits + t.rowcache_misses) as f64,
            ),
        ),
        ("rowcache.misses", t.rowcache_misses as f64),
        ("chain.solve_s", t.chain_solve_s),
        ("chain.solves", t.chain_solves as f64),
        (
            "chain.hit_ratio",
            ratio(t.chain_hits as f64, (t.chain_hits + t.chain_solves) as f64),
        ),
        ("chain.max_solve_ms", t.chain_max_s * 1e3),
        ("analysis_s", t.analysis_s),
        ("report.serialize_s", t.serialize_s),
        ("report.bytes", t.report_bytes as f64),
        ("server.hit_p50_us", hit_us),
        ("server.miss_p50_ms", miss_ms),
        ("server.build_p50_ms", build_ms),
        ("server.report_hit_ratio", report_hit_ratio),
        ("server.overlay_hit_ratio", overlay_hit_ratio),
        ("trace.wall_s", pipeline_s),
        ("trace.coverage", ratio(covered, pipeline_s)),
    ];
    values
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

// ---------------------------------------------------------------------------
// The parent: inputs, repetitions, the gate, the result line
// ---------------------------------------------------------------------------

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|arg| arg == flag)
            .and_then(|index| args.get(index + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?;
    Ok(Options {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// Writes one budget's inputs under `dir`: a spec directory, or the
/// request lines and what the server's answers must satisfy.
fn write_inputs(
    dir: &Path,
    workload: Workload,
    size: Size,
    seed: u64,
    budget: Budget,
    threads: usize,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if let Some(spec) = workloads::spec(workload, size, seed, budget, threads) {
        let specs = dir.join("specs");
        fs::create_dir_all(&specs).map_err(io)?;
        fs::write(
            specs.join(format!("{}.json", workload.name())),
            spec.to_json_pretty(),
        )
        .map_err(io)?;
    } else {
        let mix = workloads::serve_mix(size, seed, budget);
        let expect = Expect {
            repeat_of: mix.repeat_of.iter().map(|r| r.map(|i| i as u64)).collect(),
            report_hits: mix.report_hits,
            report_misses: mix.report_misses,
            overlay_builds: mix.overlay_builds,
            overlay_hits: mix.overlay_hits,
        };
        fs::create_dir_all(dir).map_err(io)?;
        fs::write(dir.join("requests.jsonl"), mix.lines().join("\n") + "\n").map_err(io)?;
        fs::write(
            dir.join("expect.json"),
            serde_json::to_string(&expect).map_err(|e| e.to_string())?,
        )
        .map_err(io)?;
    }
    Ok(())
}

/// Runs one child process of this executable and parses its report.
fn spawn(mode: &str, workload: Workload, input: &Path) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["child", mode, workload.name()])
        .arg(input)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {mode} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{mode} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{mode} child report: {e}"))
}

/// The correctness gate's running count.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Books a child's own checks, and for the default seed the pinned
    /// digest of its output.
    fn child(&mut self, report: &ChildReport, pinned: Option<&str>) {
        self.attempted += report.attempted;
        self.failures.extend(report.failures.iter().cloned());
        if let Some(pinned) = pinned {
            self.attempted += 1;
            if report.digest != pinned {
                self.failures.push(format!(
                    "output digest {} != pinned {pinned}",
                    report.digest
                ));
            }
        }
    }

    /// Books a child that could not run at all.
    fn crashed(&mut self, message: String) {
        self.attempted += 1;
        self.failures.push(message);
    }

    /// A staged runner must reproduce the user path's per-point tallies
    /// and report bytes exactly.
    fn staged_matches(&mut self, user: &ChildReport, staged: &ChildReport) {
        self.attempted += 1;
        if user.tallies.is_empty() || staged.tallies != user.tallies {
            self.failures.push(format!(
                "staged tallies {:?} != report tallies {:?}",
                staged.tallies, user.tallies
            ));
        } else if staged.digest != user.digest {
            self.failures
                .push("staged report bytes differ from the user path's".to_owned());
        }
    }
}

fn pinned(workload: Workload, budget: Budget, seed: u64) -> Option<&'static str> {
    (seed == DEFAULT_SEED)
        .then(|| {
            PINNED
                .iter()
                .find(|(name, b, _)| *name == workload.name() && *b == budget)
                .map(|(_, _, digest)| *digest)
        })
        .flatten()
}

/// Runs one child per repetition, booking it in the gate; crashed children
/// count as failures and yield nothing.
fn repetition(
    gate: &mut Gate,
    mode: &str,
    workload: Workload,
    input: &Path,
    pinned: Option<&str>,
) -> Option<ChildReport> {
    match spawn(mode, workload, input) {
        Ok(report) => {
            gate.child(&report, pinned);
            Some(report)
        }
        Err(message) => {
            gate.crashed(message);
            None
        }
    }
}

struct Measured {
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
    spans: Vec<Span>,
    server_spans: Vec<Span>,
}

fn untraced(gate: &mut Gate, options: &Options, work: &Path) -> Measured {
    let workload = options.workload;
    let (full_dir, one_dir) = (work.join("full"), work.join("one"));
    let mut full: Vec<ChildReport> = Vec::new();
    let mut setup: Vec<ChildReport> = Vec::new();
    let (mut full_runs, mut setup_runs) = (0, 0);
    loop {
        // `--seconds` is the time the full-budget repetitions measure.
        let measured: f64 = full.iter().map(|report| report.wall_s).sum();
        let want_full =
            full_runs < MIN_FULL_REPS || (measured < options.seconds && full_runs < MAX_FULL_REPS);
        let want_setup = setup_runs < SETUP_REPS;
        if !want_full && !want_setup {
            break;
        }
        // Interleave the two budgets so host noise spreads over both.
        if want_setup && (!want_full || setup_runs < full_runs) {
            setup_runs += 1;
            let pin = pinned(workload, Budget::One, options.seed);
            setup.extend(repetition(gate, "run", workload, &one_dir, pin));
        } else {
            full_runs += 1;
            let pin = pinned(workload, Budget::Full, options.seed);
            full.extend(repetition(gate, "run", workload, &full_dir, pin));
        }
    }
    for reps in [&full, &setup] {
        gate.attempted += 1;
        if reps.windows(2).any(|pair| pair[0].digest != pair[1].digest) {
            gate.failures
                .push("repetitions of one input disagree on their output".to_owned());
        }
    }
    if workload != Workload::ServeMix {
        if let (Some(user), Some(staged)) = (
            full.first(),
            repetition(gate, "staged", workload, &full_dir, None),
        ) {
            gate.staged_matches(user, &staged);
        }
    }

    let walls: Vec<f64> = full.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = setup.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = full.iter().map(|r| r.rss_mib).collect();
    let latencies: Vec<f64> = if workload == Workload::ServeMix {
        full.iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect()
    } else {
        walls.iter().map(|wall| wall * 1e3).collect()
    };
    let median = |samples: &[f64]| stats::median(samples).unwrap_or(0.0);
    let tail = stats::tail(&latencies);
    let mut notes = vec![
        format!(
            "wall_s: median of {} full-budget runs {walls:?}, quartiles {:?}",
            walls.len(),
            stats::quartiles(&walls)
        ),
        format!(
            "setup_s: median of {} pairs=1 runs {setups:?}",
            setups.len()
        ),
        format!("peak_rss_mib: median of {} runs {rss:?}", rss.len()),
        format!(
            "query_p50_ms: median of {} {}",
            latencies.len(),
            if workload == Workload::ServeMix {
                "requests pooled over the full-budget runs"
            } else {
                "spec runs (one run_directory call is one request)"
            }
        ),
    ];
    if let Some(tail) = tail {
        notes.push(if tail.beyond > 0 {
            format!(
                "query_p99_ms: p{} of {} samples, {} beyond it",
                tail.percentile, tail.count, tail.beyond
            )
        } else {
            format!(
                "query_p99_ms: the maximum of {} samples; too few for a tail percentile with {} beyond it",
                tail.count,
                stats::TAIL_MIN_BEYOND
            )
        });
    }
    let values = [
        median(&walls),
        median(&setups),
        median(&rss),
        median(&latencies),
        tail.map_or(0.0, |tail| tail.value),
    ];
    Measured {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
        notes,
        spans: Vec::new(),
        server_spans: Vec::new(),
    }
}

fn traced(gate: &mut Gate, options: &Options, work: &Path, threads: usize) -> Measured {
    let workload = options.workload;
    let full_dir = work.join("full");
    let pin = pinned(workload, Budget::Full, options.seed);
    let user = repetition(gate, "run", workload, &full_dir, pin);
    let staged = repetition(gate, "traced", workload, &full_dir, None);
    let mut notes = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut spans = Vec::new();
    let mut server_spans = Vec::new();
    if let (Some(user), Some(staged)) = (&user, staged) {
        if workload == Workload::ServeMix {
            gate.attempted += 1;
            if staged.digest != user.digest {
                gate.failures
                    .push("traced and untraced servers answered differently".to_owned());
            }
        } else {
            gate.staged_matches(user, &staged);
        }
        metrics = staged.metrics;
        metrics.push((
            "proc.cpu_util".to_owned(),
            ratio(user.cpu_s, user.wall_s * threads as f64),
        ));
        metrics.push((
            "trace.overhead".to_owned(),
            staged.wall_s / user.wall_s - 1.0,
        ));
        notes.push(format!(
            "untraced wall {:.3} s, traced pipeline {:.3} s",
            user.wall_s, staged.wall_s
        ));
        spans = staged.spans;
        server_spans = staged.server_spans;
    }
    Measured {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = metrics
                    .iter()
                    .find(|(measured, _)| measured == name)
                    .map_or(0.0, |(_, value)| *value);
                (name, unit, value)
            })
            .collect(),
        notes,
        spans,
        server_spans,
    }
}

/// The stage table: each span name's count, total and self time, and its
/// self time as a share of the traced pipeline.
fn render_stage_table(spans: &[Span], pipeline_s: f64) -> String {
    let mut out = format!(
        "{:<40} {:>7} {:>10} {:>10} {:>7}\n",
        "stage", "count", "total s", "self s", "self %"
    );
    for row in trace::stage_table(spans) {
        // Extras run after the pipeline, so they have no share of it.
        let share = if row.name.starts_with("extras.") {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * ratio(row.self_s, pipeline_s))
        };
        let _ = writeln!(
            out,
            "{:<40} {:>7} {:>10.4} {:>10.4} {share:>7}",
            row.name, row.count, row.total_s, row.self_s
        );
    }
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

fn parent(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let threads = staged::default_threads();
    let load_before = host::load_average();
    let calibration_ms_before = host::calibration_ms();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        options.workload.name(),
        options.seed,
        std::process::id()
    ));
    for budget in [Budget::Full, Budget::One] {
        let dir = work.join(if budget == Budget::Full {
            "full"
        } else {
            "one"
        });
        write_inputs(
            &dir,
            options.workload,
            Size::Full,
            options.seed,
            budget,
            threads,
        )?;
    }
    let mut gate = Gate::default();
    let measured = if options.trace {
        traced(&mut gate, &options, &work, threads)
    } else {
        untraced(&mut gate, &options, &work)
    };
    let _ = fs::remove_dir_all(&work);

    let host = host::Host {
        nproc: threads,
        cpu_model: host::cpu_model(),
        load_before,
        load_after: host::load_average(),
        calibration_ms_before,
        calibration_ms_after: host::calibration_ms(),
        threads,
        seed: options.seed,
    };
    let host_json = serde_json::to_string(&host).map_err(|e| e.to_string())?;
    println!("host {host_json}");
    for note in &measured.notes {
        println!("note {note}");
    }
    for failure in &gate.failures {
        println!("FAILED {failure}");
    }
    let pipeline_s = measured
        .metrics
        .iter()
        .find(|(name, _, _)| *name == "trace.wall_s")
        .map_or(0.0, |(_, _, value)| *value);
    if !measured.spans.is_empty() {
        print!("{}", render_stage_table(&measured.spans, pipeline_s));
    }

    let failed = gate.failures.len() as u64;
    let attempted = gate.attempted.max(1);
    let correct = failed == 0;
    let mut metrics = String::new();
    for (index, (name, unit, value)) in measured.metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{separator}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );

    let record = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"host\": {host_json}, \"failures\": {}, \"notes\": {}, \"spans\": {}, \"server_spans\": {}, \"result\": {line}}}\n",
        options.workload.name(),
        u8::from(options.trace),
        serde_json::to_string(&gate.failures).map_err(|e| e.to_string())?,
        serde_json::to_string(&measured.notes).map_err(|e| e.to_string())?,
        serde_json::to_string(&measured.spans).map_err(|e| e.to_string())?,
        serde_json::to_string(&measured.server_spans).map_err(|e| e.to_string())?,
    );
    let out_dir = PathBuf::from(".bench_out");
    fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let record_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        options.workload.name(),
        options.seed,
        u8::from(options.trace)
    ));
    fs::write(&record_path, record).map_err(|e| format!("{}: {e}", record_path.display()))?;

    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("selftest-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(dir) = pending.pop() {
            for entry in fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    files.push((path.clone(), fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        files
            .into_iter()
            .map(|(path, bytes)| (path.strip_prefix(dir).unwrap().to_path_buf(), bytes))
            .collect()
    }

    #[test]
    fn a_non_default_seed_changes_the_inputs_and_passes_the_gate() {
        let threads = staged::default_threads();
        for workload in Workload::ALL {
            let dir = work_dir(workload.name());
            let inputs: Vec<_> = [DEFAULT_SEED, 4242]
                .iter()
                .map(|&seed| {
                    let seed_dir = dir.join(seed.to_string());
                    write_inputs(
                        &seed_dir,
                        workload,
                        Size::Small,
                        seed,
                        Budget::Full,
                        threads,
                    )
                    .unwrap();
                    seed_dir
                })
                .collect();
            let (default_inputs, other_inputs) = (contents(&inputs[0]), contents(&inputs[1]));
            assert_eq!(default_inputs.len(), other_inputs.len());
            assert_ne!(default_inputs, other_inputs, "{}", workload.name());

            let mut gate = Gate::default();
            if workload == Workload::ServeMix {
                let report = serve_child(&inputs[1], threads, true).unwrap();
                gate.child(&report, None);
                assert_eq!(report.metrics.len(), PER_LAYER.len() - 2);
            } else {
                let user = run_spec_child(&inputs[1], threads).unwrap();
                let staged =
                    staged_spec_child(&inputs[1], workload, threads, Extras::Traced).unwrap();
                gate.child(&user, None);
                gate.child(&staged, None);
                gate.staged_matches(&user, &staged);
                assert!(!user.tallies.is_empty());

                // The gate is not vacuous: one delivered pair more fails it.
                let mut wrong = staged.clone();
                wrong.tallies[0].1 += 1;
                let mut strict = Gate::default();
                strict.staged_matches(&user, &wrong);
                assert_eq!(strict.failures.len(), 1);
            }
            assert!(
                gate.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                gate.failures
            );
            assert!(gate.attempted > 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn serve_gate_catches_errors_changed_repeats_and_wrong_counters() {
        let expect = Expect {
            repeat_of: vec![None, Some(0)],
            report_hits: 1,
            report_misses: 1,
            overlay_builds: 1,
            overlay_hits: 0,
        };
        let stats = ServerStats {
            requests: 2,
            report_hits: 1,
            report_misses: 1,
            overlay_builds: 1,
            ..ServerStats::default()
        };
        let good = [
            "{\"id\":1,\"ok\":{\"a\":1}}".to_owned(),
            "{\"id\":2,\"ok\":{\"a\":1}}".to_owned(),
        ];
        assert!(check_serve(&good, &expect, &stats).is_empty());
        let changed = [good[0].clone(), "{\"id\":2,\"ok\":{\"a\":2}}".to_owned()];
        assert_eq!(check_serve(&changed, &expect, &stats).len(), 1);
        let error = [good[0].clone(), "{\"id\":2,\"err\":\"x\"}".to_owned()];
        assert_eq!(check_serve(&error, &expect, &stats).len(), 1);
        let miscounted = ServerStats {
            overlay_builds: 2,
            ..stats
        };
        assert_eq!(check_serve(&good, &expect, &miscounted).len(), 1);
    }

    #[test]
    fn benchmark_json_lists_the_metrics_and_workloads_this_code_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let pairs = |key: &str, field: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = value.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            items
                .iter()
                .map(|item| {
                    let text = |name: &str| match item.get(name) {
                        Some(Value::Str(text)) => text.clone(),
                        other => panic!("{key} entry field {name}: {other:?}"),
                    };
                    (text("name"), text(field))
                })
                .collect()
        };
        let expected = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), expected(&END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), expected(&PER_LAYER));
        let names: Vec<String> = pairs("workloads", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn implicit_scale_tallies_recover_the_delivered_count() {
        let report =
            r#"{"payload":[{"pairs":3,"routability_percent":66.66666666666666,"mean_hops":2.5}]}"#;
        let percent = 100.0 * (2.0_f64 / 3.0);
        let report = report.replace("66.66666666666666", &format!("{percent:?}"));
        assert_eq!(report_tallies(&report).unwrap(), vec![(3, 2, 2.5)]);
        let skewed = report.replace(&format!("{percent:?}"), "66.0");
        assert!(report_tallies(&skewed).is_err());
    }
}
