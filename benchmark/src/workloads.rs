//! The three workloads: inputs made from the seed, the operation the
//! timed loop repeats, the per-layer values of one traced operation, and
//! the probes a traced run adds after its operations.

use std::collections::BTreeMap;
use std::time::Instant;

use fred_anon::{build_release, is_k_anonymous, Anonymizer, Mdav, QiStyle};
use fred_attack::{
    harvest_auxiliary, harvest_auxiliary_sharded, FuzzyFusion, FuzzyFusionConfig, HarvestConfig,
    WebFusionAttack,
};
use fred_bench::{faculty_world, World, WorldConfig};
use fred_composition::{
    compose_attack, core_targets, generate_scenario, intersect_releases, CompositionConfig,
    ScenarioConfig, TargetIntersection,
};
use fred_core::{dissimilarity, fred_anonymize, FredParams};
use fred_data::{ShardPlan, Table};
use fred_eval::evaluate_intersections;
use fred_web::{extract, ShardedSearchEngine};
use rayon::prelude::*;

use crate::checks::{self, Checked, Digest};
use crate::trace::{self, covered_ms, ms, within, Span, Traced, Window};
use crate::{median, ratio};

/// Level of the attack's published release and of every composition
/// source.
const K: usize = 5;
/// FRED's levels: Algorithm 1 from the minimal level 2, capped at 10.
const FRED_KS: (usize, usize) = (2, 10);
/// Releases the composition attack composes.
const RELEASES: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The adversary's attack on a published 50k-row release.
    Attack50k,
    /// The defender's FRED Algorithm 1 over a 10k-row world.
    Fred10k,
    /// The composition attack plus one eval cell over a 10k-row world.
    Compose10k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Attack50k, Workload::Fred10k, Workload::Compose10k];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Attack50k => "attack_50k",
            Workload::Fred10k => "fred_10k",
            Workload::Compose10k => "compose_10k",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rows of the world the workload builds.
    pub fn rows(self) -> usize {
        match self {
            Workload::Attack50k => 50_000,
            Workload::Fred10k | Workload::Compose10k => 10_000,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Everything built before the timed loop.
pub struct Fixture {
    workload: Workload,
    seed: u64,
    world: World,
    /// `attack_50k`: the release published with MDAV at `K`.
    release: Option<Table>,
    attack: WebFusionAttack<Traced<FuzzyFusion>>,
    composition: CompositionConfig,
}

impl Fixture {
    /// The workload this fixture serves.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Rows of the world.
    pub fn rows(&self) -> usize {
        self.world.table.len()
    }

    /// The table whose identifiers the operation's harvest queries: the
    /// release, the private table (identifiers survive every FRED
    /// level) or the composition's target core.
    fn harvested_table(&self) -> Result<Table, String> {
        match self.workload {
            Workload::Attack50k => Ok(self.release.clone().expect("set up with the attack")),
            Workload::Fred10k => Ok(self.world.table.clone()),
            Workload::Compose10k => {
                let table = &self.world.table;
                let targets = core_targets(table.len(), &self.composition.scenario).map_err(err)?;
                let rows = targets.iter().map(|&r| table.rows()[r].clone()).collect();
                Table::with_rows(table.schema().clone(), rows).map_err(err)
            }
        }
    }
}

/// Builds the workload's inputs from `seed`: the world (span
/// `synth.world`) and, for `attack_50k`, its MDAV release.
pub fn setup(workload: Workload, rows: usize, seed: u64) -> Result<Fixture, String> {
    let world = trace::timed("synth.world", || {
        faculty_world(&WorldConfig {
            size: rows,
            seed,
            ..WorldConfig::default()
        })
    });
    let release = match workload {
        Workload::Attack50k => {
            let partition = Mdav::new().partition(&world.table, K).map_err(err)?;
            let release =
                build_release(&world.table, &partition, K, QiStyle::Range).map_err(err)?;
            Some(release.table)
        }
        Workload::Fred10k | Workload::Compose10k => None,
    };
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).map_err(err)?;
    Ok(Fixture {
        workload,
        seed,
        world,
        release,
        attack: WebFusionAttack::with_fusion(Traced(fusion)),
        composition: CompositionConfig {
            scenario: ScenarioConfig {
                releases: RELEASES,
                overlap: 0.5,
                k: K,
                seed: seed ^ 0xC0DE,
                ..ScenarioConfig::default()
            },
            ..CompositionConfig::default()
        },
    })
}

/// One operation: its wall time (program calls only, checks excluded),
/// its checked outputs, and values the traced run reports as layer
/// metrics.
pub struct OpOutput {
    /// Seconds spent in the program's calls.
    pub seconds: f64,
    /// Checks and digest of the outputs.
    pub checked: Checked,
    /// Layer values read off the outputs.
    pub values: Vec<(&'static str, f64)>,
}

/// Runs the workload's operation once.
pub fn op(fx: &Fixture) -> Result<OpOutput, String> {
    match fx.workload {
        Workload::Attack50k => attack_op(fx),
        Workload::Fred10k => fred_op(fx),
        Workload::Compose10k => compose_op(fx),
    }
}

fn attack_op(fx: &Fixture) -> Result<OpOutput, String> {
    let release = fx.release.as_ref().expect("set up with the attack");
    let started = Instant::now();
    let outcome =
        trace::timed("attack.run", || fx.attack.run(release, &fx.world.web)).map_err(err)?;
    let dissim = dissimilarity(&fx.world.truth, &outcome.estimates).map_err(err)?;
    let seconds = started.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    for &e in &outcome.estimates {
        digest.f64(e);
    }
    digest
        .f64(dissim)
        .usize(outcome.pages_inspected)
        .usize(outcome.pages_linked);
    Ok(OpOutput {
        seconds,
        checked: Checked {
            digest: digest.finish(),
            problems: checks::attack(&outcome.estimates, release.len(), dissim),
        },
        values: Vec::new(),
    })
}

fn fred_op(fx: &Fixture) -> Result<OpOutput, String> {
    let params = FredParams {
        k_min: FRED_KS.0,
        k_max: FRED_KS.1,
        ..FredParams::default()
    };
    let started = Instant::now();
    let result = fred_anonymize(
        &fx.world.table,
        &fx.world.web,
        &Traced(Mdav::new()),
        fx.attack.fusion(),
        &params,
    )
    .map_err(err)?;
    let seconds = started.elapsed().as_secs_f64();

    let k_anonymous = is_k_anonymous(&result.release.table, result.k_opt).map_err(err)?;
    let mut values = vec![result.h_opt];
    for c in &result.candidates {
        values.extend([
            c.protection,
            c.utility,
            c.discernibility,
            c.h.unwrap_or(0.0),
        ]);
    }
    let mut digest = Digest::default();
    digest.usize(result.k_opt);
    for &v in &values {
        digest.f64(v);
    }
    Ok(OpOutput {
        seconds,
        checked: Checked {
            digest: digest.finish(),
            problems: checks::fred(result.k_opt, FRED_KS, k_anonymous, &values),
        },
        values: Vec::new(),
    })
}

fn compose_op(fx: &Fixture) -> Result<OpOutput, String> {
    let table = &fx.world.table;
    let n = table.len();
    let config = &fx.composition;
    let started = Instant::now();
    let outcome = trace::timed("composition.compose", || {
        compose_attack(
            table,
            &fx.world.web,
            &Traced(Mdav::new()),
            fx.attack.fusion(),
            config,
        )
    })
    .map_err(err)?;
    // The eval cell: the targets against every non-core row, of which
    // only rows missing from some release count as decoys (a row in
    // every release is a member of the fused population, not a clean
    // negative).
    let scenario = trace::timed("composition.scenario", || {
        generate_scenario(table, &Traced(Mdav::new()), &config.scenario)
    })
    .map_err(err)?;
    let mut in_core = vec![false; n];
    for &t in &scenario.targets {
        in_core[t] = true;
    }
    let rows: Vec<usize> = scenario
        .targets
        .iter()
        .copied()
        .chain((0..n).filter(|&r| !in_core[r]))
        .collect();
    let inters = trace::timed("composition.intersect", || {
        intersect_releases(&scenario.sources, &rows, n, config.chunk_rows)
    })
    .map_err(err)?;
    let (targets, decoys) = inters.split_at(scenario.targets.len());
    let eligible: Vec<TargetIntersection> = decoys
        .iter()
        .filter(|d| d.sources_seen < scenario.sources.len())
        .cloned()
        .collect();
    let report = trace::timed("eval.evaluate", || {
        evaluate_intersections(targets, &eligible, n)
    })
    .map_err(err)?;
    let seconds = started.elapsed().as_secs_f64();

    let estimates: Vec<f64> = outcome
        .records
        .iter()
        .flat_map(|r| [r.estimate, r.baseline_estimate, r.feasible_income_width])
        .collect();
    let gains = [
        outcome.disclosure_gain,
        outcome.estimate_gain,
        outcome.dissim_single,
        outcome.dissim_composed,
    ];
    let mut problems = checks::composition(&estimates, &gains, outcome.mean_candidates, K);
    problems.extend(checks::eval(&report));
    let mut digest = Digest::default();
    for r in &outcome.records {
        digest.usize(r.master_row).usize(r.candidates);
    }
    for &v in estimates.iter().chain(&gains) {
        digest.f64(v);
    }
    digest
        .f64(outcome.mean_candidates)
        .f64(report.auc)
        .f64(report.tpr_at_low_fpr)
        .f64(report.epsilon)
        .usize(report.targets)
        .usize(report.decoys);
    Ok(OpOutput {
        seconds,
        checked: Checked {
            digest: digest.finish(),
            problems,
        },
        values: vec![
            ("composition.mean_candidates", outcome.mean_candidates),
            ("eval.scored_rows", (report.targets + report.decoys) as f64),
        ],
    })
}

/// The per-layer values of one traced operation that took `op_ms`.
///
/// Times come from the spans; where a layer runs inside a single
/// program call, it is read off the calls around it:
///
/// * `attack_50k`: the harvest is `WebFusionAttack::run` less its
///   fusion call.
/// * `fred_10k`: Algorithm 1 partitions at `k_min`, builds that release
///   and harvests, then per level partitions, builds the release and
///   estimates. A level's release build is the gap from its partition
///   returning to its estimate starting; the harvest is the gap between
///   the first two partitions less the first level's release build.
/// * `compose_10k`: the harvest is the start of `compose_attack` up to
///   its first partition; each composition span's self time is its wall
///   time less the part its anonymizer and fusion calls cover.
///
/// `core.residual_ms` is the operation's time less its layer times:
/// glue, dissimilarity and objective arithmetic.
pub fn layers(workload: Workload, w: &Window, op_ms: f64) -> BTreeMap<&'static str, f64> {
    let lookups = w.counter("harvest.cache_lookups");
    let hits = w.counter("harvest.cache_hits");
    let inspected = w.counter("harvest.pages_inspected");
    let linked = w.counter("harvest.pages_linked");
    let mdav = w.all("anon.mdav");
    let fuse = w.all("attack.fuse");
    let mut m = BTreeMap::from([
        ("web.queries", w.counter("harvest.names")),
        ("linkage.pages_inspected", inspected),
        ("linkage.pages_linked", linked),
        ("linkage.link_ratio", ratio(linked, inspected)),
        ("linkage.cache_hit_ratio", ratio(hits, lookups)),
        (
            "linkage.floor_prune_ratio",
            ratio(w.counter("harvest.floor_prunes"), lookups - hits),
        ),
        ("anon.mdav_ms", w.total_ms("anon.mdav")),
        ("anon.mdav_rounds", w.counter("mdav.rounds")),
        ("anon.release_chunks", w.counter("release.chunks")),
        ("attack.fuse_ms", w.total_ms("attack.fuse")),
        ("composition.scenario_ms", 0.0),
        ("composition.intersect_ms", 0.0),
        ("composition.compose_ms", 0.0),
        ("composition.mean_candidates", 0.0),
        ("eval.evaluate_ms", 0.0),
        ("eval.scored_rows", 0.0),
    ]);
    let (harvest, release, layered) = match workload {
        Workload::Attack50k => {
            let run = w.first("attack.run").map_or(0.0, |s| s.ms());
            (run - w.total_ms("attack.fuse"), 0.0, run)
        }
        Workload::Fred10k => {
            let release_gaps: Vec<f64> = fuse
                .iter()
                .map(|f| {
                    mdav.iter()
                        .rfind(|p| p.end <= f.start)
                        .map_or(0.0, |p| ms(p.end, f.start))
                })
                .collect();
            let release: f64 = release_gaps.iter().sum();
            let harvest = match (mdav.first(), mdav.get(1)) {
                (Some(a), Some(b)) => {
                    (ms(a.end, b.start) - release_gaps.first().copied().unwrap_or(0.0)).max(0.0)
                }
                _ => 0.0,
            };
            let layered = harvest + release + m["anon.mdav_ms"] + m["attack.fuse_ms"];
            (harvest, release, layered)
        }
        Workload::Compose10k => {
            let calls: Vec<Span> = mdav.iter().chain(&fuse).copied().collect();
            let self_ms = |outer: Span| outer.ms() - covered_ms(outer, &within(outer, &calls));
            let compose = w.first("composition.compose");
            let scenario = w.first("composition.scenario");
            let harvest = compose
                .and_then(|c| within(c, &mdav).first().map(|p| ms(c.start, p.start)))
                .unwrap_or(0.0);
            let intersect = w.total_ms("composition.intersect");
            let evaluate = w.total_ms("eval.evaluate");
            m.extend([
                (
                    "composition.compose_ms",
                    compose.map_or(0.0, |c| (self_ms(c) - harvest).max(0.0)),
                ),
                ("composition.scenario_ms", scenario.map_or(0.0, self_ms)),
                ("composition.intersect_ms", intersect),
                ("eval.evaluate_ms", evaluate),
            ]);
            let outer = [compose, scenario]
                .iter()
                .flatten()
                .map(Span::ms)
                .sum::<f64>();
            (harvest, 0.0, outer + intersect + evaluate)
        }
    };
    m.insert("attack.harvest_ms", harvest);
    m.insert("anon.release_ms", release);
    m.insert("core.residual_ms", (op_ms - layered).max(0.0));
    m
}

/// Layer probes a traced run makes once, outside any timed operation,
/// on the table the operation's harvest queries.
pub struct Probes {
    /// `web.search_ms`, `web.extract_ms` and `attack.harvest_sharded_ms`.
    pub values: Vec<(&'static str, f64)>,
    /// Problems found: a sharded harvest that differs from the flat one.
    pub problems: Vec<String>,
}

/// Times the search layer alone (every harvested name's exact top-k,
/// fanned across workers like the harvest) and the extraction of every
/// page the flat harvest linked, each the median of `reps` passes. It
/// also times the sharded harvest at `ShardPlan::for_size` (4 shards at
/// 50k rows, 1 below 12.5k) and checks it equals the flat harvest record for
/// record.
pub fn probes(fx: &Fixture, reps: usize) -> Result<Probes, String> {
    let web = &fx.world.web;
    let config = HarvestConfig::default();
    let table = fx.harvested_table()?;
    let flat = harvest_auxiliary(&table, web, &config).map_err(err)?;
    let names = table.identifier_strings();
    let pages: Vec<usize> = flat.linked.concat();
    let mut problems = Vec::new();
    let mut search = Vec::with_capacity(reps);
    let mut extracted = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let hits: Vec<_> = names
            .par_iter()
            .map_init(
                || (web.scratch(), web.term_cache()),
                |(scratch, terms), name| {
                    if name.trim().is_empty() {
                        return Vec::new();
                    }
                    web.search_topk_with(name, config.hits_per_name, scratch, terms)
                },
            )
            .collect();
        search.push(started.elapsed().as_secs_f64() * 1e3);
        // The probe copies the harvest's search step; the harvest inspects
        // every hit whose page exists, so the counts agree while the copy
        // still times the search the harvest runs.
        let inspected = hits
            .iter()
            .flatten()
            .filter(|hit| web.page(hit.page).is_some())
            .count();
        if inspected != flat.pages_inspected {
            problems.push(format!(
                "the search probe found {inspected} pages, the harvest inspected {}",
                flat.pages_inspected
            ));
        }

        let started = Instant::now();
        let records: Vec<_> = pages
            .par_iter()
            .map(|&p| web.page(p).map(extract))
            .collect();
        extracted.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(records);
    }
    let plan = ShardPlan::for_size(table.len(), fx.seed);
    let sharded = ShardedSearchEngine::build(web, plan);
    let started = Instant::now();
    let sharded_harvest = harvest_auxiliary_sharded(&table, &sharded, &config).map_err(err)?;
    let sharded_ms = started.elapsed().as_secs_f64() * 1e3;
    if sharded_harvest != flat {
        problems.push(format!(
            "the sharded harvest over {} shards differs from the flat harvest",
            sharded.shard_count()
        ));
    }
    let values = vec![
        ("web.search_ms", median(&search)),
        ("web.extract_ms", median(&extracted)),
        ("attack.harvest_sharded_ms", sharded_ms),
    ];
    Ok(Probes { values, problems })
}
