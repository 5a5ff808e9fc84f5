//! Experiment harnesses that regenerate every table and figure of the RCM
//! paper.
//!
//! Each module corresponds to one artifact of the paper's evaluation and
//! returns plain data (vectors of [`dht_sim::SimulationRecord`] or small
//! result structs) so the same code drives the `scenario` command line and
//! report server in `dht-scenario`, the Criterion benches in `dht-bench`,
//! and the integration tests.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig3`] | Fig. 1–3, the worked 8-node hypercube example |
//! | [`fig6`] | Fig. 6(a)/(b), analysis vs simulation at `N = 2^16` |
//! | [`fig7`] | Fig. 7(a)/(b), asymptotic behaviour |
//! | [`scalability_table`] | §5 scalable/unscalable classification |
//! | [`markov_validation`] | closed forms vs the Markov chains of Fig. 4, 5, 8 |
//! | [`live_churn`] | beyond the paper: continuous-time churn with incremental repair |
//! | [`failure_campaigns`] | beyond the paper: structured fault injection (correlated, adaptive, cascading) |
//! | [`percolation_contrast`] | §1 reachable vs connected components |
//! | [`symphony_ablation`] | §1/§3.5 remark: buying routability with more neighbours |
//! | [`ring_bound_gap`] | §4.3.3 lower-bound tightness (Fig. 6b discussion) |
//! | [`sparse_population`] | beyond the paper: resilience at `n < 2^d` occupancy |
//! | [`implicit_scale`] | beyond the paper: static resilience at `2^26`–`2^30` via implicit tables |
//!
//! Every harness takes an explicit seed and sizes, so results are
//! reproducible, and every family has a fast "smoke" configuration for CI
//! beside its full paper-scale one.
//!
//! The [`spec`] module is the declarative front door over all of the above:
//! a serializable [`spec::ScenarioSpec`] describes any experiment (family,
//! parameters, root seed, thread budget), [`spec::run_spec`] executes it into
//! a schema-versioned [`spec::ScenarioReport`], and
//! [`spec::Family::default_spec`] gives each family's smoke and paper-scale
//! spec. A family's parameters are its harness's configuration struct
//! ([`fig6::Fig6Config`], [`live_churn::LiveChurnGridConfig`], ...) or, for
//! the families without one, named fields of its variant. Reports hit disk
//! through [`output::ReportWriter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod failure_campaigns;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod implicit_scale;
pub mod live_churn;
pub mod markov_validation;
pub mod output;
pub mod percolation_contrast;
pub mod ring_bound_gap;
pub mod scalability_table;
pub mod sparse_population;
pub mod spec;
pub mod symphony_ablation;

pub use output::{default_output_dir, render_records_table, ReportMode, ReportWriter};
pub use spec::{
    run_spec, Backend, ExecutionSpec, ExperimentSpec, Family, ScenarioReport, ScenarioSpec,
    SpecError, SpecOutcome, REPORT_SCHEMA, SPEC_SCHEMA,
};
