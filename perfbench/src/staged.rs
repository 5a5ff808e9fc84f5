//! The staged runners: the same work as the untraced user path, done by
//! calling each layer's public functions in the order the program calls
//! them, with a span around each call.
//!
//! Each runner rebuilds the report the user path writes, so the gate can
//! compare the two: the per-point `pairs_attempted`, `pairs_delivered` and
//! `mean_hops`, and the report bytes.

use crate::trace::Tracer;
use dht_experiments::implicit_scale::{build_implicit_overlay, ImplicitScalePoint};
use dht_experiments::live_churn::chain_predicted_routability_with;
use dht_experiments::spec::{
    build_full_overlay, direct_chain_solve, ExperimentSpec, ResiliencePoint, ScenarioReport,
    ScenarioSpec, StaticResilienceReport, REPORT_SCHEMA,
};
use dht_markov::{ChainCache, ChainError, ChainFamily};
use dht_mathkit::stats::{wilson_interval, ConfidenceInterval, RunningStats};
use dht_overlay::{default_route_hop_limit, FailureMask, Overlay, RouteBatch};
use dht_rcm_core::{classify, routability, Geometry, RcmError, SystemSize};
use dht_scenario::{Request, RequestEnvelope, ServerStats};
use dht_sim::{PairSampler, SeedSequence, StaticResilienceResult, TrialEngine, TrialTally};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// Per-point counts the gate compares between the user path and a staged
/// runner: pairs attempted, pairs delivered, mean hops.
pub type PointTally = (u64, u64, f64);

/// Work done and time spent per layer, summed over a staged run.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Spec parse, validation and content hash, one sample per spec, µs.
    pub spec_us: Vec<f64>,
    /// Overlay construction.
    pub overlay_build_s: f64,
    /// Routing-state bytes held at once (largest point, or the whole
    /// server cache).
    pub overlay_bytes: usize,
    /// First (lazy) `Overlay::kernel()` calls.
    pub kernel_compile_s: f64,
    /// Compiled plan bytes held at once.
    pub plan_bytes: usize,
    /// Failure-mask sampling.
    pub mask_s: f64,
    /// Nodes covered by the sampled masks.
    pub mask_nodes: u64,
    /// `PairSampler::new` calls.
    pub sampler_s: f64,
    /// Nodes indexed by those calls.
    pub sampler_nodes: u64,
    /// `TrialEngine::run_trial` minus its internal `PairSampler::new`.
    pub route_s: f64,
    /// The same on one thread (measured after the pipeline).
    pub route_s_1t: f64,
    /// Pairs routed.
    pub pairs: u64,
    /// Pairs delivered.
    pub delivered: u64,
    /// Hops over delivered pairs.
    pub delivered_hops: f64,
    /// Row-cache hits of the implicit probe.
    pub rowcache_hits: u64,
    /// Row-cache misses of the implicit probe.
    pub rowcache_misses: u64,
    /// Time inside chain solves that were computed (not cache hits).
    pub chain_solve_s: f64,
    /// Chain solves computed.
    pub chain_solves: u64,
    /// Chain solves answered from a cache.
    pub chain_hits: u64,
    /// Slowest single chain solve.
    pub chain_max_s: f64,
    /// Closed forms and scalability classification.
    pub analysis_s: f64,
    /// Report serialization.
    pub serialize_s: f64,
    /// Serialized report bytes.
    pub report_bytes: u64,
    /// Materialized `run_trial` time in the same-run backend comparison.
    pub ab_materialized_s: f64,
    /// Implicit `run_trial` time in the same-run backend comparison.
    pub ab_implicit_s: f64,
}

/// What a staged run returns besides its spans.
#[derive(Debug)]
pub struct StagedOutcome {
    /// The report (spec workloads) or every response line (serve_mix).
    pub output: Vec<String>,
    /// Per-point tallies in report order (spec workloads).
    pub tallies: Vec<PointTally>,
    /// Layer totals.
    pub totals: LayerTotals,
    /// Seconds from the first stage to the last, excluding the extras.
    pub pipeline_s: f64,
    /// Failed checks inside the runner (empty when all passed).
    pub failures: Vec<String>,
}

fn err(context: &str, error: impl std::fmt::Display) -> String {
    format!("{context}: {error}")
}

/// The analytical model behind a geometry name (Symphony at the paper's
/// `(1, 1)`), matching what the report builders use.
fn analytic_geometry(name: &str) -> Result<Geometry, String> {
    Ok(match name {
        "ring" => Geometry::ring(),
        "xor" => Geometry::xor(),
        "tree" => Geometry::tree(),
        "hypercube" => Geometry::hypercube(),
        "symphony" => Geometry::symphony(1, 1).map_err(|e| err("symphony model", e))?,
        other => return Err(format!("unknown geometry {other:?}")),
    })
}

/// Times the lazy kernel compile of a freshly built overlay.
fn compile_kernel(tracer: &mut Tracer, overlay: &dyn Overlay, totals: &mut LayerTotals) {
    let (plan, seconds) = tracer.span("overlay.kernel.compile", |_| {
        overlay.kernel().map_or(0, |kernel| kernel.plan_bytes())
    });
    totals.kernel_compile_s += seconds;
    totals.plan_bytes += plan;
}

/// Times `PairSampler::new` on `mask`.
fn index_sampler(tracer: &mut Tracer, mask: &FailureMask, totals: &mut LayerTotals) -> f64 {
    let (_, seconds) = tracer.span("sim.pair_sampler.index", |_| {
        std::hint::black_box(PairSampler::new(mask).map(|sampler| sampler.survivor_count()))
    });
    totals.sampler_s += seconds;
    totals.sampler_nodes += mask.population_size();
    seconds
}

/// Routes one trial and books its time net of the engine's own sampler
/// build (`sampler_s`, timed separately on the same mask).
#[allow(clippy::too_many_arguments)]
fn route(
    tracer: &mut Tracer,
    overlay: &dyn Overlay,
    mask: &FailureMask,
    pairs: u64,
    pair_seed: u64,
    threads: usize,
    sampler_s: f64,
    totals: &mut LayerTotals,
) -> Result<TrialTally, String> {
    let (tally, seconds) = tracer.span("sim.engine.run_trial", |_| {
        TrialEngine::new(threads).run_trial(overlay, mask, pairs, pair_seed)
    });
    let tally = tally.ok_or("fewer than two survivors")?;
    totals.route_s += (seconds - sampler_s).max(0.0);
    totals.pairs += tally.attempted;
    totals.delivered += tally.delivered;
    totals.delivered_hops += tally.hop_stats.mean() * tally.hop_stats.count() as f64;
    Ok(tally)
}

/// One-thread twin of [`route`], run after the pipeline for the scaling
/// efficiency. Returns the tally so callers can check it is unchanged.
fn route_one_thread(
    tracer: &mut Tracer,
    overlay: &dyn Overlay,
    mask: &FailureMask,
    pairs: u64,
    pair_seed: u64,
    sampler_s: f64,
    totals: &mut LayerTotals,
) -> Option<TrialTally> {
    let (tally, seconds) = tracer.span("extras.engine.run_trial_1t", |_| {
        TrialEngine::new(1).run_trial(overlay, mask, pairs, pair_seed)
    });
    totals.route_s_1t += (seconds - sampler_s).max(0.0);
    tally
}

fn serialize(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    payload: serde::Value,
    totals: &mut LayerTotals,
) -> String {
    let report = ScenarioReport {
        schema: REPORT_SCHEMA.to_owned(),
        name: spec.name.clone(),
        family: spec.family().name().to_owned(),
        spec_hash: spec.content_hash_hex(),
        seed: spec.seed,
        payload,
    };
    let (json, seconds) = tracer.span("experiments.output.serialize", |_| {
        serde_json::to_string(&report).expect("report serialization is infallible")
    });
    totals.serialize_s += seconds;
    totals.report_bytes += json.len() as u64;
    json
}

/// Parses, validates and hashes a spec's text.
fn parse_spec(
    tracer: &mut Tracer,
    text: &str,
    totals: &mut LayerTotals,
) -> Result<ScenarioSpec, String> {
    let (spec, seconds) = tracer.span("experiments.spec", |_| {
        ScenarioSpec::from_json(text).inspect(|spec| {
            std::hint::black_box(spec.content_hash());
        })
    });
    totals.spec_us.push(seconds * 1e6);
    spec.map_err(|e| err("spec", e))
}

/// Which optional measurements a staged run adds after its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extras {
    /// Only the pipeline (the correctness check of an untraced run).
    None,
    /// The traced run: one-thread reruns, the implicit row-cache probe and
    /// the same-run implicit vs materialized comparison.
    Traced,
}

/// Runs one spec file's workload stage by stage.
///
/// # Errors
///
/// Returns a message when the spec cannot be read or a stage fails.
pub fn run_spec_staged(
    tracer: &mut Tracer,
    spec_text: &str,
    threads: usize,
    extras: Extras,
) -> Result<StagedOutcome, String> {
    let mut totals = LayerTotals::default();
    let start = tracer.elapsed();
    let spec = parse_spec(tracer, spec_text, &mut totals)?;
    match spec.experiment.clone() {
        ExperimentSpec::ImplicitScale {
            geometry,
            bits_list,
            failure_probability,
            pairs,
        } => implicit_scale(
            tracer,
            &spec,
            &geometry,
            &bits_list,
            failure_probability,
            pairs,
            threads,
            extras,
            totals,
            start,
        ),
        ExperimentSpec::StaticResilience {
            geometry,
            bits,
            grid,
            pairs,
            trials,
        } => {
            if trials != 1 {
                return Err(format!(
                    "the staged runner runs one trial per point, not {trials}"
                ));
            }
            let (overlay, seconds) = tracer.span("overlay.build", |_| {
                build_full_overlay(&geometry, bits, spec.seed)
            });
            let overlay = overlay.map_err(|e| err("overlay", e))?;
            totals.overlay_build_s += seconds;
            totals.overlay_bytes = overlay.resident_bytes();
            compile_kernel(tracer, overlay.as_ref(), &mut totals);
            let mut solve = |family: ChainFamily, h: u32, q: f64, totals: &mut LayerTotals| {
                let started = Instant::now();
                let solved = direct_chain_solve(family, h, q);
                let seconds = started.elapsed().as_secs_f64();
                totals.chain_solve_s += seconds;
                totals.chain_solves += 1;
                totals.chain_max_s = totals.chain_max_s.max(seconds);
                solved
            };
            let resilience = resilience(
                tracer,
                &spec,
                overlay.as_ref(),
                &geometry,
                bits,
                &grid,
                pairs,
                threads,
                &mut solve,
                &mut totals,
            )?;
            let json = serialize(tracer, &spec, resilience.report.to_value(), &mut totals);
            let pipeline_s = tracer.elapsed() - start;
            let mut failures = Vec::new();
            if extras == Extras::Traced {
                resilience.extras(
                    tracer,
                    overlay.as_ref(),
                    &geometry,
                    bits,
                    spec.seed,
                    pairs,
                    threads,
                    &mut totals,
                    &mut failures,
                )?;
            }
            Ok(StagedOutcome {
                output: vec![json],
                tallies: resilience.tallies(),
                totals,
                pipeline_s,
                failures,
            })
        }
        other => Err(format!("no staged runner for {:?}", other.family())),
    }
}

#[allow(clippy::too_many_arguments)]
fn implicit_scale(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    geometry: &str,
    bits_list: &[u32],
    q: f64,
    pairs: u64,
    threads: usize,
    extras: Extras,
    mut totals: LayerTotals,
    start: f64,
) -> Result<StagedOutcome, String> {
    let seeds = SeedSequence::new(spec.seed);
    let stream_seed = seeds.child(0);
    let measurement = SeedSequence::new(seeds.child(1));
    let mut points = Vec::with_capacity(bits_list.len());
    let mut tallies = Vec::with_capacity(bits_list.len());
    let mut kept = Vec::new();
    for (index, &bits) in bits_list.iter().enumerate() {
        let (overlay, seconds) = tracer.span("overlay.build", |_| {
            build_implicit_overlay(geometry, bits, stream_seed)
        });
        let overlay = overlay.map_err(|e| err("overlay", e))?;
        totals.overlay_build_s += seconds;
        totals.overlay_bytes = totals.overlay_bytes.max(overlay.resident_bytes());
        compile_kernel(tracer, overlay.as_ref(), &mut totals);
        let (mask, seconds) = tracer.span("overlay.failure.sample", |_| {
            let mut rng = ChaCha8Rng::seed_from_u64(measurement.child(2 * index as u64));
            FailureMask::sample(overlay.key_space(), q, &mut rng)
        });
        totals.mask_s += seconds;
        totals.mask_nodes += mask.population_size();
        let sampler_s = index_sampler(tracer, &mask, &mut totals);
        let pair_seed = measurement.child(2 * index as u64 + 1);
        let tally = route(
            tracer,
            overlay.as_ref(),
            &mask,
            pairs,
            pair_seed,
            threads,
            sampler_s,
            &mut totals,
        )?;
        tallies.push((tally.attempted, tally.delivered, tally.hop_stats.mean()));
        points.push(ImplicitScalePoint {
            geometry: geometry.to_owned(),
            bits,
            node_count: overlay.node_count(),
            failure_probability: q,
            pairs: tally.attempted,
            routability_percent: 100.0 * tally.routability(),
            mean_hops: tally.hop_stats.mean(),
            max_hops: tally.max_hops,
            overlay_resident_bytes: overlay.resident_bytes() as u64,
            mask_resident_bytes: std::mem::size_of_val(mask.words()) as u64,
            implied_edges: overlay.edge_count(),
        });
        if extras == Extras::Traced {
            kept.push((overlay, mask, pair_seed, sampler_s, tally));
        }
    }
    let json = serialize(tracer, spec, points.to_value(), &mut totals);
    let pipeline_s = tracer.elapsed() - start;
    let mut failures = Vec::new();
    for (overlay, mask, pair_seed, sampler_s, tally) in &kept {
        if route_one_thread(
            tracer,
            overlay.as_ref(),
            mask,
            pairs,
            *pair_seed,
            *sampler_s,
            &mut totals,
        ) != Some(*tally)
        {
            failures.push("one-thread tally differs from the threaded one".to_owned());
        }
        rowcache_probe(
            tracer,
            overlay.as_ref(),
            mask,
            pairs,
            *pair_seed,
            &mut totals,
        );
    }
    Ok(StagedOutcome {
        output: vec![json],
        tallies,
        totals,
        pipeline_s,
        failures,
    })
}

/// Drives a caller-owned `ImplicitRowCache` through
/// `ImplicitKernel::route_batch` on the first shard's pairs of a trial.
fn rowcache_probe(
    tracer: &mut Tracer,
    overlay: &dyn Overlay,
    mask: &FailureMask,
    pairs: u64,
    pair_seed: u64,
    totals: &mut LayerTotals,
) {
    let Some(kernel) = overlay.implicit_kernel() else {
        return;
    };
    let Some(sampler) = PairSampler::new(mask) else {
        return;
    };
    tracer.span("extras.overlay.kernel.implicit.probe", |_| {
        let budget = pairs.min(dht_sim::DEFAULT_PAIRS_PER_SHARD);
        let mut rng = SeedSequence::new(pair_seed).child_rng(0);
        let mut shard = Vec::new();
        sampler.sample_values_into(budget, &mut rng, &mut shard);
        let lowered = kernel.compile_mask(mask);
        let mut cache = kernel.row_cache();
        let mut outcomes = Vec::new();
        kernel.route_batch(
            &mut RouteBatch::default(),
            &mut cache,
            lowered.words(),
            &shard,
            default_route_hop_limit(overlay),
            &mut outcomes,
        );
        totals.rowcache_hits += cache.hits();
        totals.rowcache_misses += cache.misses();
    });
}

/// The measured half of a static-resilience report, with what the extras
/// need to re-route the same points.
struct Resilience {
    report: StaticResilienceReport,
    /// Per point: the mask, the pair seed, the timed sampler build and the
    /// threaded tally.
    masks: Vec<(FailureMask, u64, f64, TrialTally)>,
}

impl Resilience {
    fn tallies(&self) -> Vec<PointTally> {
        self.report
            .points
            .iter()
            .map(|point| {
                let simulated = &point.simulated;
                (
                    simulated.pairs_attempted,
                    simulated.pairs_delivered,
                    simulated.mean_hops,
                )
            })
            .collect()
    }

    /// One-thread reruns and, on a materialized overlay, the same-run
    /// implicit vs materialized comparison on the same tables, masks and
    /// pairs (alternating backends per point).
    #[allow(clippy::too_many_arguments)]
    fn extras(
        &self,
        tracer: &mut Tracer,
        overlay: &dyn Overlay,
        geometry: &str,
        bits: u32,
        seed: u64,
        pairs: u64,
        threads: usize,
        totals: &mut LayerTotals,
        failures: &mut Vec<String>,
    ) -> Result<(), String> {
        let implicit = if overlay.kernel().is_some() {
            let stream_seed = SeedSequence::new(seed).child(0);
            let (built, _) = tracer.span("extras.overlay.build_implicit", |_| {
                build_implicit_overlay(geometry, bits, stream_seed)
            });
            Some(built.map_err(|e| err("implicit overlay", e))?)
        } else {
            None
        };
        for (mask, pair_seed, sampler_s, tally) in &self.masks {
            let single =
                route_one_thread(tracer, overlay, mask, pairs, *pair_seed, *sampler_s, totals);
            if single != Some(*tally) {
                failures.push("one-thread tally differs from the threaded one".to_owned());
            }
            if let Some(implicit) = &implicit {
                let (materialized, m_s) = tracer.span("extras.ab.materialized", |_| {
                    TrialEngine::new(threads).run_trial(overlay, mask, pairs, *pair_seed)
                });
                let (generated, i_s) = tracer.span("extras.ab.implicit", |_| {
                    TrialEngine::new(threads).run_trial(implicit.as_ref(), mask, pairs, *pair_seed)
                });
                totals.ab_materialized_s += (m_s - sampler_s).max(0.0);
                totals.ab_implicit_s += (i_s - sampler_s).max(0.0);
                if materialized != Some(*tally) || generated != Some(*tally) {
                    failures.push("the backends disagree on a tally".to_owned());
                }
            }
        }
        Ok(())
    }
}

/// The worker threads the benchmark uses: one per available core.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Measures a static-resilience grid stage by stage, in the order
/// `static_resilience_report_with` does the work: route every grid point,
/// then the closed forms and chain predictions per point, then the
/// scalability classification.
#[allow(clippy::too_many_arguments)]
fn resilience<S>(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    overlay: &dyn Overlay,
    geometry: &str,
    bits: u32,
    grid: &[f64],
    pairs: u64,
    threads: usize,
    solve: &mut S,
    totals: &mut LayerTotals,
) -> Result<Resilience, String>
where
    S: FnMut(ChainFamily, u32, f64, &mut LayerTotals) -> Result<f64, ChainError>,
{
    let model = analytic_geometry(geometry)?;
    let grid_seeds = SeedSequence::new(SeedSequence::new(spec.seed).child(1));
    let mut measured = Vec::with_capacity(grid.len());
    let mut masks = Vec::with_capacity(grid.len());
    for (index, &q) in grid.iter().enumerate() {
        let point_seeds = SeedSequence::new(grid_seeds.child(index as u64));
        let (mask, seconds) = tracer.span("overlay.failure.sample", |_| {
            let mut rng = point_seeds.child_rng(0);
            FailureMask::sample_over(overlay.population(), q, &mut rng)
        });
        totals.mask_s += seconds;
        totals.mask_nodes += mask.population_size();
        let sampler_s = index_sampler(tracer, &mask, totals);
        let pair_seed = point_seeds.child(1);
        let tally = route(
            tracer, overlay, &mask, pairs, pair_seed, threads, sampler_s, totals,
        )?;
        let mut hop_stats = RunningStats::new();
        hop_stats.merge(&tally.hop_stats);
        let mut surviving = RunningStats::new();
        surviving.push(mask.alive_count() as f64 / overlay.population().node_count() as f64);
        let routable = tally.routability();
        let confidence = if tally.attempted == 0 {
            ConfidenceInterval {
                mean: 0.0,
                lower: 0.0,
                upper: 0.0,
                level: 0.95,
            }
        } else {
            wilson_interval(tally.delivered, tally.attempted, 0.95)
        };
        measured.push(StaticResilienceResult {
            geometry: overlay.geometry_name().to_owned(),
            bits: overlay.key_space().bits(),
            failure_probability: q,
            occupied_nodes: overlay.population().node_count(),
            trials: 1,
            pairs_attempted: tally.attempted,
            pairs_delivered: tally.delivered,
            routability: routable,
            failed_path_percent: 100.0 * (1.0 - routable),
            confidence,
            mean_hops: hop_stats.mean(),
            max_hops: tally.max_hops,
            surviving_fraction: surviving.mean(),
        });
        masks.push((mask, pair_seed, sampler_s, tally));
    }
    let size = SystemSize::power_of_two(bits).map_err(|e| err("size", e))?;
    let mut points = Vec::with_capacity(grid.len());
    for simulated in measured {
        let q = simulated.failure_probability;
        let (analytical, seconds) =
            tracer.span("core.closed_form", |_| match routability(&model, size, q) {
                Ok(report) => Ok(Some((report.routability, report.failed_path_percent))),
                Err(RcmError::DegenerateSystem { .. }) => Ok(None),
                Err(other) => Err(err("closed form", other)),
            });
        totals.analysis_s += seconds;
        let analytical = analytical?;
        let (chain, _) = tracer.span("markov.chain", |_| {
            chain_predicted_routability_with(geometry, bits, q, |family, h, q| {
                solve(family, h, q, totals)
            })
        });
        points.push(ResiliencePoint {
            failure_probability: q,
            analytical_routability: analytical.map(|(routable, _)| routable),
            analytical_failed_percent: analytical.map(|(_, failed)| failed),
            chain_predicted_routability: chain.map_err(|e| err("chain", e))?,
            simulated,
        });
    }
    let probe_q = grid.iter().copied().find(|&q| q > 0.0).unwrap_or(0.1);
    let (scalability, seconds) = tracer.span("core.classify", |_| classify(&model, probe_q));
    totals.analysis_s += seconds;
    Ok(Resilience {
        report: StaticResilienceReport {
            geometry: geometry.to_owned(),
            bits,
            points,
            scalability: scalability.map_err(|e| err("classify", e))?,
        },
        masks,
    })
}

/// What the server phase of a traced serve_mix run measured.
#[derive(Debug, Clone, Default)]
pub struct ServerPhase {
    /// Latencies of report-memo hits, µs.
    pub hit_us: Vec<f64>,
    /// Latencies of misses that reused a cached overlay, ms.
    pub miss_ms: Vec<f64>,
    /// Latencies of misses that built an overlay, ms.
    pub build_ms: Vec<f64>,
    /// The final counters.
    pub stats: Option<ServerStats>,
}

/// Classes one request by the change in the server's counters across it.
#[must_use]
pub fn classify_request(before: &ServerStats, after: &ServerStats) -> &'static str {
    if after.report_hits > before.report_hits {
        "hit"
    } else if after.overlay_builds > before.overlay_builds {
        "build"
    } else {
        "miss"
    }
}

/// Replays serve_mix requests stage by stage: spec validation and hash,
/// the report memo, the overlay cache (build, then the lazy kernel
/// compile), the measured grid point, chain solves through a shared
/// `ChainCache`, closed forms and serialization — the work
/// `ReportServer::handle_line` does, in its order. Every response must
/// equal the server's byte for byte (`expected`).
///
/// # Errors
///
/// Returns a message when a request line cannot be parsed or a stage
/// fails.
pub fn replay_serve(
    tracer: &mut Tracer,
    lines: &[String],
    expected: &[String],
    threads: usize,
    extras: Extras,
) -> Result<StagedOutcome, String> {
    let mut totals = LayerTotals::default();
    let start = tracer.elapsed();
    let mut memo: HashMap<u64, String> = HashMap::new();
    let mut overlays: HashMap<(String, u32, u64), Box<dyn Overlay>> = HashMap::new();
    let mut chains = ChainCache::new();
    let mut output = Vec::with_capacity(lines.len());
    let mut failures = Vec::new();
    let mut reruns = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        tracer.set_request(index as u64 + 1);
        let ((), _) = tracer.span("request", |tracer| {
            let response = replay_one(
                tracer,
                line,
                &mut memo,
                &mut overlays,
                &mut chains,
                threads,
                &mut totals,
                &mut reruns,
            );
            match response {
                Ok(response) => {
                    if expected.get(index) != Some(&response) {
                        failures.push(format!(
                            "request {}: staged response differs from the server's",
                            index + 1
                        ));
                    }
                    output.push(response);
                }
                Err(message) => failures.push(format!("request {}: {message}", index + 1)),
            }
        });
    }
    tracer.set_request(0);
    let pipeline_s = tracer.elapsed() - start;
    totals.overlay_bytes = overlays
        .values()
        .map(|overlay| overlay.resident_bytes())
        .sum();
    totals.plan_bytes = overlays
        .values()
        .filter_map(|overlay| overlay.kernel().map(|kernel| kernel.plan_bytes()))
        .sum();
    if extras == Extras::Traced {
        for (key, mask, pairs, pair_seed, sampler_s, tally) in &reruns {
            let overlay = overlays[key].as_ref();
            if route_one_thread(
                tracer,
                overlay,
                mask,
                *pairs,
                *pair_seed,
                *sampler_s,
                &mut totals,
            ) != Some(*tally)
            {
                failures.push("one-thread tally differs from the threaded one".to_owned());
            }
        }
    }
    Ok(StagedOutcome {
        output,
        tallies: Vec::new(),
        totals,
        pipeline_s,
        failures,
    })
}

type Rerun = ((String, u32, u64), FailureMask, u64, u64, f64, TrialTally);

#[allow(clippy::too_many_arguments)]
fn replay_one(
    tracer: &mut Tracer,
    line: &str,
    memo: &mut HashMap<u64, String>,
    overlays: &mut HashMap<(String, u32, u64), Box<dyn Overlay>>,
    chains: &mut ChainCache,
    threads: usize,
    totals: &mut LayerTotals,
    reruns: &mut Vec<Rerun>,
) -> Result<String, String> {
    let (parsed, seconds) = tracer.span("experiments.spec", |_| {
        let envelope: RequestEnvelope =
            serde_json::from_str(line).map_err(|e| err("request", e))?;
        let Request::Query { query } = envelope.request else {
            return Err("serve_mix sends only Query requests".to_owned());
        };
        let spec = query.to_spec();
        spec.validate().map_err(|e| err("spec", e))?;
        let hash = spec.content_hash();
        Ok((envelope.id, spec, hash))
    });
    totals.spec_us.push(seconds * 1e6);
    let (id, spec, hash) = parsed?;
    if let Some(cached) = memo.get(&hash) {
        let (payload, _) = tracer.span("scenario.memo_hit", |_| cached.clone());
        return Ok(format!("{{\"id\":{id},\"ok\":{payload}}}"));
    }
    let ExperimentSpec::StaticResilience {
        geometry,
        bits,
        grid,
        pairs,
        trials,
    } = &spec.experiment
    else {
        return Err("serve_mix queries desugar to static resilience".to_owned());
    };
    if *trials != 1 {
        return Err(format!(
            "the staged runner runs one trial per point, not {trials}"
        ));
    }
    let key = (geometry.clone(), *bits, spec.seed);
    if !overlays.contains_key(&key) {
        let (built, seconds) = tracer.span("overlay.build", |_| {
            build_full_overlay(geometry, *bits, spec.seed)
        });
        let built = built.map_err(|e| err("overlay", e))?;
        totals.overlay_build_s += seconds;
        compile_kernel(tracer, built.as_ref(), totals);
        overlays.insert(key.clone(), built);
    }
    let overlay = overlays[&key].as_ref();
    let mut solve = |family: ChainFamily, h: u32, q: f64, totals: &mut LayerTotals| {
        let solved_before = chains.solves();
        let started = Instant::now();
        let solved = chains.success_probability(family, h, q);
        let seconds = started.elapsed().as_secs_f64();
        if chains.solves() > solved_before {
            totals.chain_solve_s += seconds;
            totals.chain_solves += 1;
            totals.chain_max_s = totals.chain_max_s.max(seconds);
        } else {
            totals.chain_hits += 1;
        }
        solved
    };
    let resilience = resilience(
        tracer, &spec, overlay, geometry, *bits, grid, *pairs, threads, &mut solve, totals,
    )?;
    let json = serialize(tracer, &spec, resilience.report.to_value(), totals);
    memo.insert(hash, json.clone());
    for (mask, pair_seed, sampler_s, tally) in resilience.masks {
        reruns.push((key.clone(), mask, *pairs, pair_seed, sampler_s, tally));
    }
    Ok(format!("{{\"id\":{id},\"ok\":{json}}}"))
}
