//! The scenario front door: batch-run a directory of spec files, serve
//! reports over stdin or TCP, or hash specs without running them.
//!
//! ```text
//! scenario run <spec-dir> [--out DIR] [--threads N] [--backend B] [--pretty]
//! scenario serve [--tcp ADDR] [--threads N]
//! scenario hash <spec-file>...
//! scenario init <dir> [--paper]
//! scenario exp <family> [--spec FILE] [--smoke] [--out DIR] [--compact] [--threads N]
//! ```
//!
//! `--backend materialized|implicit` overrides every spec's routing-table
//! backend; reports are byte-identical either way. `exp` runs one
//! experiment family — its paper-scale default spec, the smoke-scale one
//! with `--smoke`, or a spec file of that family — prints its table and
//! writes its report (pretty JSON unless `--compact`) to `--out`, by
//! default `results/`.

use dht_experiments::output::{default_output_dir, ReportMode, ReportWriter};
use dht_experiments::spec::{run_spec, Backend, Family, ScenarioSpec, FAMILIES};
use dht_scenario::{run_directory, BatchOptions, ReportServer};
use std::io::BufReader;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("hash") => hash(&args[1..]),
        Some("init") => init(&args[1..]),
        Some("exp") => exp(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            Err("missing or unknown subcommand".into())
        }
    }
}

const USAGE: &str = "\
usage: scenario run <spec-dir> [--out DIR] [--threads N] [--backend B] [--pretty]
       scenario serve [--tcp ADDR] [--threads N]
       scenario hash <spec-file>...
       scenario init <dir> [--paper]
       scenario exp <family> [--spec FILE] [--smoke] [--out DIR] [--compact] [--threads N]";

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut spec_dir: Option<PathBuf> = None;
    let mut options = BatchOptions::new("results/scenarios");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                options.output_dir = PathBuf::from(iter.next().ok_or("--out needs a directory")?);
            }
            "--threads" => {
                options.threads = Some(iter.next().ok_or("--threads needs a count")?.parse()?);
            }
            "--backend" => {
                options.backend = Some(
                    match iter.next().ok_or("--backend needs a name")?.as_str() {
                        "materialized" => Backend::Materialized,
                        "implicit" => Backend::Implicit,
                        other => {
                            return Err(format!(
                                "unknown backend {other:?} (expected materialized or implicit)"
                            )
                            .into())
                        }
                    },
                );
            }
            "--pretty" => options.mode = ReportMode::Pretty,
            other => spec_dir = Some(PathBuf::from(other)),
        }
    }
    let spec_dir = spec_dir.ok_or("scenario run needs a spec directory")?;
    let manifest = run_directory(&spec_dir, &options)?;
    for entry in &manifest {
        match &entry.error {
            None => println!(
                "{:<28} {:<22} {}  -> {}",
                entry.file, entry.family, entry.spec_hash, entry.report
            ),
            Some(error) => println!("{:<28} FAILED: {error}", entry.file),
        }
    }
    let failed = manifest
        .iter()
        .filter(|entry| entry.error.is_some())
        .count();
    println!(
        "ran {} spec(s) from {} into {}",
        manifest.len() - failed,
        spec_dir.display(),
        options.output_dir.display()
    );
    if failed > 0 {
        return Err(format!("{failed} spec file(s) failed; see the manifest").into());
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut tcp: Option<String> = None;
    let mut threads = 1;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tcp" => tcp = Some(iter.next().ok_or("--tcp needs an address")?.clone()),
            "--threads" => threads = iter.next().ok_or("--threads needs a count")?.parse()?,
            other => return Err(format!("unknown serve argument {other:?}").into()),
        }
    }
    let mut server = ReportServer::new(threads);
    match tcp {
        Some(addr) => server.serve_tcp(&addr)?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server.serve(BufReader::new(stdin.lock()), stdout.lock())?;
        }
    }
    Ok(())
}

fn init(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut dir: Option<PathBuf> = None;
    let mut paper = false;
    for arg in args {
        match arg.as_str() {
            "--paper" => paper = true,
            other => dir = Some(PathBuf::from(other)),
        }
    }
    let dir = dir.ok_or("scenario init needs a target directory")?;
    std::fs::create_dir_all(&dir)?;
    for family in FAMILIES {
        let spec = family.default_spec(!paper);
        let path = dir.join(format!("{}.json", spec.name));
        std::fs::write(&path, spec.to_json_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn hash(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.is_empty() {
        return Err("scenario hash needs at least one spec file".into());
    }
    for path in args {
        let text = std::fs::read_to_string(path)?;
        let spec = ScenarioSpec::from_json(&text)?;
        println!("{}  {path}", spec.content_hash_hex());
    }
    Ok(())
}

/// `scenario exp <family> [--spec FILE] [--smoke] [--out DIR] [--compact]
/// [--threads N]`. Every argument is checked, and the spec file read,
/// before anything runs or is written.
fn exp(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        println!("families: {}", FAMILIES.map(Family::name).join(", "));
        return Ok(());
    }
    let (name, flags) = args
        .split_first()
        .ok_or("scenario exp needs an experiment family")?;
    let family = Family::from_name(name).ok_or_else(|| {
        format!(
            "unknown experiment family {name:?} (expected one of {})",
            FAMILIES.map(Family::name).join(", ")
        )
    })?;
    let mut spec_path: Option<PathBuf> = None;
    let mut smoke = false;
    let mut threads: Option<usize> = None;
    let mut out_dir = default_output_dir();
    let mut mode = ReportMode::Pretty;
    let mut iter = flags.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => {
                spec_path = Some(PathBuf::from(
                    iter.next().ok_or("--spec needs a file path")?,
                ));
            }
            "--out" => out_dir = PathBuf::from(iter.next().ok_or("--out needs a directory")?),
            "--threads" => {
                threads = Some(iter.next().ok_or("--threads needs a count")?.parse()?);
            }
            "--smoke" => smoke = true,
            "--compact" => mode = ReportMode::Compact,
            other => {
                return Err(format!(
                    "unexpected argument {other:?}: scenario exp takes parameters only \
                     from a --spec file"
                )
                .into())
            }
        }
    }
    let spec = match spec_path {
        Some(path) => {
            let spec = ScenarioSpec::from_json(&std::fs::read_to_string(&path)?)?;
            if spec.family() != family {
                return Err(format!(
                    "spec {} is a {} scenario, not {family}",
                    path.display(),
                    spec.family()
                )
                .into());
            }
            spec
        }
        None => family.default_spec(smoke),
    };

    let outcome = run_spec(&spec, threads)?;
    println!("{}", outcome.headline);
    print!("{}", outcome.table);
    let writer = ReportWriter::new(out_dir).with_mode(mode);
    println!("wrote {}", writer.write_report(&outcome.report)?.display());
    if let Some(records) = &outcome.csv_records {
        let csv = writer.write_csv(records, &outcome.report.name)?;
        println!("wrote {}", csv.display());
    }
    Ok(())
}
