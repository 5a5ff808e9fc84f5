//! Golden scenario specs: every file under `tests/specs/` must parse, run
//! deterministically at smoke size, and memoize through the report server.
//! The content hashes of the committed specs, and the bytes the default
//! specs serialize to, are pinned: a refactor of the spec types must leave
//! every cache key and every `scenario init` file unchanged.

use dht_rcm::experiments::spec::FAMILIES;
use dht_rcm::prelude::*;
use dht_rcm::scenario::{Request, RequestEnvelope};
use std::fs;
use std::path::PathBuf;

/// The content hash of every committed spec file, as `scenario hash
/// specs/*.json tests/specs/*.json` prints it.
const PINNED_FILE_HASHES: [(&str, &str); 21] = [
    ("specs/failure_campaigns.json", "9f84caa933ba67e1"),
    ("specs/fig3_hypercube_example.json", "ccdad7ba8aaeb292"),
    ("specs/fig6a_failed_paths.json", "ce83931f6e071eb8"),
    ("specs/fig6b_ring.json", "4b6789ab3004e545"),
    ("specs/fig7a_asymptotic.json", "b60c8d9affdac788"),
    ("specs/fig7b_routability_vs_n.json", "b0aca713d6b383a9"),
    ("specs/implicit_scale.json", "7ada338c59ed9c3f"),
    ("specs/live_churn.json", "a99661bdc098ec45"),
    ("specs/markov_validation.json", "8588ad0f8546d970"),
    ("specs/percolation_contrast.json", "09d35de7df31e86d"),
    ("specs/ring_bound_gap.json", "4ccf485d1af849a1"),
    ("specs/scalability_table.json", "830cc2ce7daad14c"),
    ("specs/sparse_population.json", "02388fefdba4a52b"),
    ("specs/static_resilience.json", "d272339bd4165aae"),
    ("specs/symphony_ablation.json", "ed164a7437f1435b"),
    (
        "tests/specs/failure_campaigns_smoke.json",
        "de6960c04d4be862",
    ),
    ("tests/specs/fig3_smoke.json", "0f16da108d6f5d72"),
    (
        "tests/specs/markov_validation_smoke.json",
        "ca702a7e572ee0e8",
    ),
    (
        "tests/specs/percolation_contrast_smoke.json",
        "95c35f178e5197e1",
    ),
    (
        "tests/specs/scalability_table_smoke.json",
        "63ae16bc31423294",
    ),
    (
        "tests/specs/static_resilience_ring_smoke.json",
        "908fa9dcc3cb54b5",
    ),
];

/// The content hash of every family's paper-scale default spec (what
/// `scenario init DIR --paper` writes).
const PINNED_PAPER_HASHES: [(&str, &str); 15] = [
    ("fig3", "cc76bcedd84967b2"),
    ("fig6a", "efc8da8fcba6fbee"),
    ("fig6b", "f7b40960e6cafa5b"),
    ("fig7a", "2613baedaa0a2209"),
    ("fig7b", "34983c882147501e"),
    ("scalability_table", "830cc2ce7daad14c"),
    ("markov_validation", "c5ef65597724dbdb"),
    ("percolation_contrast", "10d6ef53c594b4b3"),
    ("symphony_ablation", "981b701865662014"),
    ("ring_bound_gap", "80b0e3c2cb44c507"),
    ("sparse_population", "e0bc58edf23e7c72"),
    ("live_churn", "89d8be66586e94c5"),
    ("failure_campaigns", "b162b1520a380f20"),
    ("static_resilience", "000df6a733234fb0"),
    ("implicit_scale", "590f981f561811d9"),
];

fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

#[test]
fn committed_spec_content_hashes_are_pinned() {
    for (file, hash) in PINNED_FILE_HASHES {
        let text = fs::read_to_string(repo_path(file)).unwrap();
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|err| panic!("{file}: {err}"));
        assert_eq!(spec.content_hash_hex(), hash, "{file}");
    }
    // Every committed spec file is pinned, so a new one cannot slip in
    // without a recorded hash.
    for dir in ["specs", "tests/specs"] {
        for entry in fs::read_dir(repo_path(dir)).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            let file = format!("{dir}/{name}");
            assert!(
                PINNED_FILE_HASHES.iter().any(|(pinned, _)| *pinned == file),
                "{file} has no pinned content hash"
            );
        }
    }
}

#[test]
fn default_specs_serialize_to_the_committed_files() {
    for family in FAMILIES {
        let spec = family.default_spec(true);
        let file = format!("specs/{}.json", family.output_stem());
        let committed = fs::read_to_string(repo_path(&file)).unwrap();
        assert_eq!(spec.to_json_pretty(), committed, "{file}");
    }
}

#[test]
fn paper_scale_default_spec_hashes_are_pinned() {
    assert_eq!(PINNED_PAPER_HASHES.len(), FAMILIES.len());
    for (name, hash) in PINNED_PAPER_HASHES {
        let family = Family::from_name(name).unwrap_or_else(|| panic!("unknown family {name}"));
        assert_eq!(
            family.default_spec(false).content_hash_hex(),
            hash,
            "{name}"
        );
    }
}

fn golden_specs() -> Vec<(String, ScenarioSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/specs");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/specs exists")
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "golden spec directory must not be empty");
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).unwrap();
            let spec = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                spec,
            )
        })
        .collect()
}

#[test]
fn golden_specs_parse_and_cover_distinct_families() {
    let specs = golden_specs();
    let mut families: Vec<&str> = specs.iter().map(|(_, spec)| spec.family().name()).collect();
    families.sort_unstable();
    families.dedup();
    assert!(
        families.len() >= 4,
        "goldens should span several experiment families, got {families:?}"
    );
    for (file, spec) in &specs {
        assert_eq!(spec.content_hash_hex().len(), 16, "{file}");
    }
}

#[test]
fn golden_specs_run_deterministically() {
    for (file, spec) in golden_specs() {
        let first = run_spec(&spec, None).unwrap_or_else(|err| panic!("{file}: {err}"));
        let second = run_spec(&spec, Some(3)).unwrap();
        assert_eq!(
            first.report, second.report,
            "{file}: reports must not depend on the thread budget"
        );
        assert_eq!(first.report.spec_hash, spec.content_hash_hex());
        assert_eq!(first.report.family, spec.family().name());
        assert!(!first.headline.is_empty());
        assert!(!first.table.is_empty());
    }
}

#[test]
fn golden_specs_memoize_through_the_report_server() {
    let mut server = ReportServer::new(2);
    let mut lines = Vec::new();
    for (index, (_, spec)) in golden_specs().into_iter().enumerate() {
        let line = serde_json::to_string(&RequestEnvelope {
            id: index as u64 + 1,
            request: Request::Report { spec },
        })
        .unwrap();
        lines.push(server.handle_line(&line));
    }
    let misses = server.stats().report_misses;
    assert_eq!(misses as usize, lines.len());

    // Replaying the whole batch answers every line from cache, verbatim.
    for (index, (_, spec)) in golden_specs().into_iter().enumerate() {
        let line = serde_json::to_string(&RequestEnvelope {
            id: index as u64 + 1,
            request: Request::Report { spec },
        })
        .unwrap();
        assert_eq!(server.handle_line(&line), lines[index]);
    }
    let stats = server.stats();
    assert_eq!(stats.report_misses, misses, "no re-execution on replay");
    assert_eq!(stats.report_hits as usize, lines.len());
}
