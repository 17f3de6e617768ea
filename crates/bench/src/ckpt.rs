//! Checkpoint artifacts for the quick-bench pipeline.
//!
//! Two artifact families exist. *Anchors* ([`StageAnchor`]) cover the
//! stages whose output is not itself a bench block: the cheap upstream
//! stages (world build, MDAV + anonymization, harvest), which are
//! always recomputed on resume — the anchor's content digest of the
//! recomputed state lets `StageRunner::run_verified` prove the
//! checkpoint directory still belongs to this exact configuration
//! before any downstream checkpoint is trusted — and the estimate
//! comparison, whose digest pins the estimate vector. *Block
//! artifacts* are the bench blocks themselves: each [`super::perf`]
//! block struct's `Artifact` impl is the one declaration of its JSON,
//! used both for its checkpoint and for its block of
//! `BENCH_sweep.json`, and a resumed run loads those instead of
//! recomputing — the actual time saved by resumption.
//!
//! Checkpoints render floats in shortest round-trip form, so a
//! load-then-render at the bench's fixed precision is bit-identical to
//! an uninterrupted run; 64-bit digests are hex strings
//! ([`json::hex`]) because JSON numbers lose integer precision past
//! 2^53.

use fred_recover::{from_array, json, to_array, Artifact};

use crate::perf::StageTiming;
use crate::world::World;
use fred_attack::Harvest;

/// Streaming FNV-1a 64 fold over heterogeneous fields — the content
/// digest primitive for anchors.
pub struct Digest(u64);

impl Digest {
    /// A fresh digest at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (length-prefixed fields stay unambiguous).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one string with a length prefix.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content digest of a built world: identifier strings, ground-truth
/// sensitive bits and the rendered corpus. Any drift here (changed
/// generator, changed seed handling) invalidates every checkpoint.
pub fn digest_world(world: &World) -> u64 {
    let mut d = Digest::new();
    for s in world.table.identifier_strings() {
        d.str(&s);
    }
    for &v in &world.truth {
        d.u64(v.to_bits());
    }
    for page in world.web.pages() {
        d.u64(page.id as u64);
        d.u64(page.person_id.map_or(u64::MAX, |p| p as u64));
        d.str(&page.text);
    }
    d.finish()
}

/// Content digest of a harvest: per-row consolidated records and page
/// links (via their canonical `Debug` forms, which are deterministic).
pub fn digest_harvest(harvest: &Harvest) -> u64 {
    let mut d = Digest::new();
    for record in &harvest.records {
        d.str(&format!("{record:?}"));
    }
    for links in &harvest.linked {
        d.u64(links.len() as u64);
        for &p in links {
            d.u64(p as u64);
        }
    }
    d.u64(harvest.pages_inspected as u64);
    d.u64(harvest.pages_linked as u64);
    d.finish()
}

/// Digest of an estimate bit-vector (the naive/batch equality witness).
pub fn digest_bits(bits: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &b in bits {
        d.u64(b);
    }
    d.finish()
}

/// The anchor artifact: a content digest of what one stage computed plus
/// the [`StageTiming`] rows it contributes. Under a checkpoint store
/// timings are zeroed (deterministic mode), so two runs of the same
/// configuration produce `PartialEq`-identical anchors.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAnchor {
    /// Checkpoint stage name.
    pub label: String,
    /// Rows the stage processed.
    pub rows: usize,
    /// Content digest of what the stage computed.
    pub content_hash: u64,
    /// Timing rows for the bench output.
    pub timings: Vec<StageTiming>,
}

impl Artifact for StageAnchor {
    fn to_value(&self) -> json::Value {
        json::Value::obj([
            ("label", self.label.as_str().into()),
            ("rows", self.rows.into()),
            ("content_hash", json::hex(self.content_hash)),
            ("timings", to_array(&self.timings)),
        ])
    }

    fn from_value(value: &json::Value) -> Option<StageAnchor> {
        Some(StageAnchor {
            label: value.get("label")?.as_str()?.to_string(),
            rows: value.get("rows")?.as_usize()?,
            content_hash: value.get("content_hash")?.as_hex()?,
            timings: from_array(value.get("timings")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_baselines, parse_baseline};
    use crate::perf::{
        bench_decimals, quick_bench, CompositionBench, CompositionBenchRow, DefenseBench,
        DefenseBenchRow, EvalBench, EvalCellRow, Large100kBench, LargeBench, ProfileBench,
        ProfileHistRow, ProfileStageRow, QuickBenchOptions, RecoveryBench, RobustnessBench,
        RobustnessBenchRow, ShardBenchRow,
    };
    use crate::world::WorldConfig;
    use json::Value;

    /// Canonical render, parse, decode — exactly what a checkpoint does.
    fn round_trip<T: Artifact>(artifact: &T) -> T {
        let text = json::render(&artifact.to_value(), &|_| None);
        let value = json::parse(&text).expect("payload parses");
        T::from_value(&value).expect("payload decodes")
    }

    /// `value` with every number under a [`bench_decimals`] key rounded
    /// to that key's precision — what `BENCH_sweep.json` must hold.
    fn rounded(value: &Value, key: &str) -> Value {
        match value {
            Value::Num(n) => match bench_decimals(key) {
                Some(places) => Value::Num(format!("{n:.places$}").parse().unwrap()),
                None => Value::Num(*n),
            },
            Value::Arr(items) => Value::Arr(items.iter().map(|v| rounded(v, key)).collect()),
            Value::Obj(pairs) => Value::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), rounded(v, k)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// The per-block table check: the checkpoint render round-trips the
    /// block exactly, and the bench render holds the fixed-precision
    /// values. Returns the decoded block and the parsed bench render.
    fn check<T: Artifact + PartialEq + std::fmt::Debug>(block: &T) -> (T, Value) {
        let back = round_trip(block);
        assert_eq!(&back, block, "checkpoint round trip is not exact");
        let value = block.to_value();
        let bench = json::parse(&json::render(&value, &bench_decimals)).expect("bench parses");
        assert_eq!(
            bench,
            rounded(&value, ""),
            "bench render lost its precision table"
        );
        (back, bench)
    }

    fn num(row: &Value, key: &str) -> f64 {
        row.get(key).and_then(Value::as_f64).unwrap()
    }

    #[test]
    fn stage_anchor_round_trips() {
        let anchor = StageAnchor {
            label: "mdav".to_string(),
            rows: 120,
            content_hash: 0xdead_beef_0123_4567,
            timings: vec![
                StageTiming {
                    name: "mdav_k5",
                    wall_ms: 1.25,
                    rows: 120,
                },
                StageTiming {
                    name: "anonymize_all_levels",
                    wall_ms: 0.1 + 0.2,
                    rows: 480,
                },
            ],
        };
        let back = round_trip(&anchor);
        assert_eq!(back, anchor);
        assert_eq!(back.timings[1].wall_ms.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn estimates_and_sweep_round_trip() {
        let est = StageAnchor {
            label: "estimates".to_string(),
            rows: 480,
            content_hash: 0xffff_ffff_ffff_fffe,
            timings: vec![
                StageTiming {
                    name: "estimate_naive_per_row",
                    wall_ms: 12.345678901234,
                    rows: 480,
                },
                StageTiming {
                    name: "estimate_batch_parallel",
                    wall_ms: 2.3,
                    rows: 480,
                },
            ],
        };
        assert_eq!(round_trip(&est), est);
        let sweep = StageTiming {
            name: "sweep_end_to_end",
            wall_ms: 0.0,
            rows: 480,
        };
        assert_eq!(round_trip(&sweep), sweep);
    }

    #[test]
    fn bench_blocks_round_trip() {
        let comp = CompositionBench {
            k: 5,
            overlap: 0.5,
            wall_ms: 3.25,
            rows: vec![CompositionBenchRow {
                releases: 2,
                disclosure_gain: 8377.8,
                mean_candidates: 2.13,
                estimate_gain: 1.88,
            }],
        };
        let (back, bench) = check(&comp);
        assert_eq!(back.rows[0].disclosure_gain.to_bits(), 8377.8f64.to_bits());
        let row = &bench.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(num(row, "estimate_gain"), 1.9);
        assert_eq!(num(row, "mean_candidates"), 2.13);

        let defense = DefenseBench {
            k: 5,
            overlap: 0.5,
            wall_ms: 1.0,
            rows: vec![DefenseBenchRow {
                policy: "calibrated_widen_1.5".to_string(),
                releases: 3,
                residual_gain: -12.5,
                undefended_gain: 9000.0,
                mean_candidates: 6.25,
                utility_cost: 120.0,
            }],
        };
        let (back, _) = check(&defense);
        assert_eq!(back.rows[0].policy, "calibrated_widen_1.5");

        let eval = EvalBench {
            wall_ms: 2.5,
            rows: vec![
                EvalCellRow {
                    k: 2,
                    releases: 3,
                    defense: "none".to_string(),
                    targets: 60,
                    decoys: 60,
                    auc: 0.9875,
                    tpr_at_fpr3: 0.8166,
                    epsilon: 4.094_344_562_222_1,
                },
                EvalCellRow {
                    k: 5,
                    releases: 3,
                    defense: "coordinated_seeds".to_string(),
                    targets: 60,
                    decoys: 60,
                    auc: 0.5,
                    tpr_at_fpr3: 0.0,
                    epsilon: 0.008_230_486,
                },
            ],
        };
        let (back, bench) = check(&eval);
        assert_eq!(back.rows[1].defense, "coordinated_seeds");
        assert_eq!(
            back.rows[0].epsilon.to_bits(),
            eval.rows[0].epsilon.to_bits()
        );
        let rows = bench.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(num(&rows[0], "epsilon"), 4.0943);
        assert_eq!(num(&rows[1], "epsilon"), 0.0082);

        let rob = RobustnessBench {
            max_rate: 0.1,
            seed: 2015 ^ 0xFA17,
            wall_ms: 5.0,
            rows: vec![RobustnessBenchRow {
                fault_rate: 0.1,
                mode: "targeted",
                harvest_precision: 0.9321,
                harvest_coverage: 0.85,
                composition_gain: 8123.4,
                pages_rejected: 3,
                rows_skipped: 2,
                fields_imputed: 1,
                workers_restarted: 0,
                shards_lost: 2,
            }],
        };
        let (back, _) = check(&rob);
        assert_eq!(back.rows[0].mode, "targeted");
        assert_eq!(back.rows[0].shards_lost, 2);

        let large = LargeBench {
            size: 10_000,
            cores: 8,
            stages: vec![StageTiming {
                name: "mdav_k5_large",
                wall_ms: 250.5,
                rows: 10_000,
            }],
            speedup_harvest_parallel_vs_single: 3.7,
            composition: Some(comp),
        };
        let (back, bench) = check(&large);
        assert_eq!(back.stages[0].name, "mdav_k5_large");
        assert!(back.composition.is_some());
        let stage = &bench.get("stages").unwrap().as_arr().unwrap()[0];
        assert_eq!(num(stage, "rows_per_sec"), 39920.2);

        let sharded = Large100kBench {
            size: 100_000,
            shards: 8,
            cores: 1,
            sample_rows: 2048,
            peak_rss_mb: 512.25,
            stages: vec![StageTiming {
                name: "harvest_sharded_100k",
                wall_ms: 12_500.75,
                rows: 100_000,
            }],
            shard_rows: vec![ShardBenchRow {
                shard: 0,
                rows: 12_500,
                pages: 11_000,
                capped: true,
            }],
            harvest_digest_sharded: 0x0123_4567_89ab_cdef,
            harvest_digest_unsharded: 0x0123_4567_89ab_cdef,
            mdav_digest_sharded: u64::MAX,
            mdav_digest_unsharded: u64::MAX,
            intersect_digest_sharded: 1,
            intersect_digest_unsharded: 1,
        };
        let (back, bench) = check(&sharded);
        assert_eq!(back.harvest_digest_sharded, 0x0123_4567_89ab_cdef);
        assert_eq!(num(&bench, "peak_rss_mb"), 512.2);
        // Rows written before the cap-saturation field still decode,
        // defaulting to uncapped.
        let legacy = json::render(&sharded.to_value(), &|_| None).replace(", \"capped\": true", "");
        let back = Large100kBench::from_value(&json::parse(&legacy).unwrap())
            .expect("legacy payload decodes");
        assert!(!back.shard_rows[0].capped);

        check(&RecoveryBench {
            seed: 2015 ^ 0x5EC0,
            transient_rate: 0.1,
            max_attempts: 4,
            retries_total: 1,
            quarantined_total: 0,
            escaped_panics: 0,
            rows: vec![fred_recover::StageReport {
                stage: "mdav".to_string(),
                attempts: 2,
                retries: 1,
                backoff_ms: 1.0 / 3.0,
                loaded: false,
                verified: false,
            }],
            resumed: false,
        });
        check(&ProfileBench {
            deterministic: false,
            spans_total: 37,
            events_total: 0,
            span_tree_digest: "7b9bd67f29dda870".to_string(),
            overhead_probe_calls: 1_000_000,
            overhead_wall_ms: 2.6371,
            overhead_pct_of_large: 0.1744,
            stages: vec![ProfileStageRow {
                stage: "mdav".to_string(),
                self_ms: 0.7371,
                spans: 1,
            }],
            counters: vec![("harvest.names".to_string(), 226)],
            hists: vec![ProfileHistRow {
                name: "harvest.name_ms".to_string(),
                count: 226,
                sum_ms: 7.1501,
                buckets: vec![220, 4, 2, 0],
            }],
        });

        // The whole writer, read back by the gate: a run with every
        // block that carries stages or composition rows.
        let json = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                large_size: Some(40),
                compose: true,
                sharded_size: Some(80),
                ..QuickBenchOptions::default()
            },
        )
        .to_json();
        let b = parse_baseline(&json);
        assert!(b.structural_errors.is_empty(), "{:?}", b.structural_errors);
        assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
        let names: Vec<&str> = b.bench.all_stages().map(|s| s.name).collect();
        for stage in [
            "world_build",
            "mdav_k5",
            "mdav_k5_large",
            "harvest_parallel_large",
            "composition_large",
            "equivalence_100k",
        ] {
            assert!(names.contains(&stage), "stage `{stage}` missing");
        }
        assert!(b.bench.cores >= 1);
        let large = b.bench.large.as_ref().expect("large block parsed");
        assert!(large.cores >= 1);
        // Both composition series, attributed to their own blocks, R =
        // 1..=3 each — not six rows pooled into one series.
        let releases = |c: &CompositionBench| c.rows.iter().map(|r| r.releases).collect::<Vec<_>>();
        assert_eq!(
            releases(b.bench.composition.as_ref().unwrap()),
            vec![1, 2, 3]
        );
        assert_eq!(releases(large.composition.as_ref().unwrap()), vec![1, 2, 3]);
        let big = b.bench.large_100k.as_ref().expect("sharded block parsed");
        assert_eq!((big.size, big.shards), (80, 1));
        assert_eq!(big.shard_rows.len(), 1);
        // A self-diff passes the composition and shard gates.
        let report = compare_baselines(&json, &json);
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.contains("composition") && !v.contains("large_100k")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn unknown_stage_or_mode_rejects_the_payload() {
        let large = "{\"size\": 10, \"cores\": 1, \"speedup_harvest_parallel_vs_single\": 1.0, \
                     \"stages\": [{\"name\": \"not_a_stage\", \"wall_ms\": 1.0, \"rows\": 10}]}";
        let value = json::parse(large).unwrap();
        assert!(LargeBench::from_value(&value).is_none());

        let rob =
            "{\"max_rate\": 0.1, \"seed\": 1, \"wall_ms\": 1.0, \"rows\": [{\"fault_rate\": 0.1, \
                   \"mode\": \"sideways\", \"harvest_precision\": 1.0, \"harvest_coverage\": 1.0, \
                   \"composition_gain\": 1.0, \"pages_rejected\": 0, \"rows_skipped\": 0, \
                   \"fields_imputed\": 0, \"workers_restarted\": 0, \"shards_lost\": 0}]}";
        let value = json::parse(rob).unwrap();
        assert!(RobustnessBench::from_value(&value).is_none());
    }

    #[test]
    fn digests_separate_fields() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(
            a.finish(),
            b.finish(),
            "length prefixes must separate fields"
        );
        assert_eq!(digest_bits(&[1, 2, 3]), digest_bits(&[1, 2, 3]));
        assert_ne!(digest_bits(&[1, 2, 3]), digest_bits(&[1, 2, 4]));
    }
}
