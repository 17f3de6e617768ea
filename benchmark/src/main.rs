//! Runs one benchmark workload and prints its result as the last line of
//! standard output.
//!
//! ```text
//! fred-benchmark --workload <attack_50k|fred_10k|compose_10k> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs on one pool thread. It sets the workload up untimed
//! for a few seconds, then runs one untimed warm-up operation and a
//! closed loop (one operation at a time, back to back) for `--seconds`
//! of operations, timing set-ups spread between them, and reports the
//! end-to-end metrics. `--trace 1` runs on the default pool width
//! (`available_parallelism`), warms up the same way,
//! then alternates untraced and traced operations, probes the
//! search, extraction and sharded-harvest layers, reruns the traced
//! operation on one thread in a child process (`RAYON_NUM_THREADS=1`),
//! and reports the per-layer metrics. `--rows <n>` is for the
//! benchmark's own tests only: it shrinks the world so they run in
//! seconds; no workload run sets it.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use fred_benchmark::checks::Tally;
use fred_benchmark::trace;
use fred_benchmark::workloads::{layers, op, probes, setup, Fixture, Workload};
use fred_benchmark::{declared, median, peak_rss_mb, ratio, result_line, END_TO_END, PER_LAYER};

/// Before any timed set-up, a run sets up untimed until `WARM_UP` has
/// passed: a core that was idle runs slower for its first seconds of
/// load (about 30% for two seconds on a 2-core cloud VM), which would
/// otherwise land on the set-ups measured first.
const WARM_UP: Duration = Duration::from_secs(3);
/// An untraced run then times at least `MIN_SETUPS` set-ups, and enough
/// to take about `SETUP_BUDGET`; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Least untraced/traced operation pairs of a traced run.
const MIN_TRACED_PAIRS: usize = 3;
/// Traced operations of the one-thread child.
const CHILD_TRACED_OPS: usize = 3;
/// Passes of each layer probe.
const PROBE_REPS: usize = 3;
/// Pool threads of an untraced run. On a shared 2-vCPU host, a pool as
/// wide as the machine stalls whenever another tenant takes a core:
/// MDAV waits on every worker once per distance scan, so runs of the
/// same code on 2 threads read up to 1.5× apart from one minute to the
/// next, while on 1 thread they agree within a few percent. The
/// traced run keeps the default width and reports what the second
/// thread buys in the `*_par_speedup` metrics.
const END_TO_END_THREADS: usize = 1;
/// Marks the one-thread child process.
const CHILD_FLAG: &str = "--one-thread-layers";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: Option<usize>,
    child: bool,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut rows, mut child) = (None, false);
        while let Some(flag) = argv.next() {
            if flag == CHILD_FLAG {
                child = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => seed = Some(number(&flag, &value)?),
                "--seconds" => seconds = Some(number::<f64>(&flag, &value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    })
                }
                "--rows" => rows = Some(number(&flag, &value)?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds must be a non-negative number, not {seconds}"
            ));
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            rows,
            child,
        })
    }

    fn rows(&self) -> usize {
        self.rows.unwrap_or(self.workload.rows())
    }

    fn seconds(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: fred-benchmark --workload <attack_50k|fred_10k|compose_10k> \
                 --seed <n> --seconds <s> --trace <0|1>\n       \
                 (test-only: --rows <n> shrinks the world)"
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        // Set before the pool starts, which reads it once. See
        // `END_TO_END_THREADS`.
        std::env::set_var("RAYON_NUM_THREADS", END_TO_END_THREADS.to_string());
    }
    eprintln!(
        "{} rows={} seed={} threads={}",
        args.workload.name(),
        args.rows(),
        args.seed,
        rayon::current_num_threads()
    );
    let result = if args.child {
        one_thread_layers(&args)
    } else if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one operation and counts it, returning its seconds if it passed
/// through without an error.
fn run_op(fx: &Fixture, tally: &mut Tally) -> Option<f64> {
    match op(fx) {
        Ok(out) => {
            tally.record(Ok(out.checked));
            Some(out.seconds)
        }
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

/// Sets up untimed until `WARM_UP` has passed, returning the last
/// fixture and the seconds it took to build.
fn warm_up(args: &Args) -> Result<(Fixture, f64), String> {
    let started = Instant::now();
    loop {
        let last = Instant::now();
        let fx = setup(args.workload, args.rows(), args.seed)?;
        if started.elapsed() >= WARM_UP {
            return Ok((fx, last.elapsed().as_secs_f64()));
        }
    }
}

/// Sets up once, timed, recording the seconds in `setup_s`.
fn timed_setup(args: &Args, setup_s: &mut Vec<f64>) -> Result<Fixture, String> {
    let started = Instant::now();
    let fx = setup(args.workload, args.rows(), args.seed)?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(fx)
}

/// The end-to-end run: the warm-up, a warm-up operation on its last
/// fixture, then the closed loop. The loop sets up again, timed, between
/// operations, spreading the set-ups evenly over its `--seconds` of
/// operations: a median of set-ups taken at one moment reads a burst of
/// machine noise at that moment, while set-ups spread like this sample
/// the same stretch of time as the operations. Every set-up builds the
/// same inputs, so the operations' digest check also covers set-up.
fn untraced(args: &Args) -> Result<String, String> {
    let (mut fx, warm_setup_s) = warm_up(args)?;
    let mut tally = Tally::default();
    run_op(&fx, &mut tally);

    let mut setup_s = Vec::new();
    let setups = MIN_SETUPS.max((SETUP_BUDGET.as_secs_f64() / warm_setup_s).ceil() as usize);
    let mut op_s = Vec::new();
    let (mut ops, mut op_wall_s) = (0usize, 0.0);
    while ops == 0 || op_wall_s < args.seconds {
        let started = Instant::now();
        ops += 1;
        op_s.extend(run_op(&fx, &mut tally));
        op_wall_s += started.elapsed().as_secs_f64();
        let share = if args.seconds > 0.0 {
            (op_wall_s / args.seconds).min(1.0)
        } else {
            1.0
        };
        while (setup_s.len() as f64) < setups as f64 * share {
            drop(fx);
            fx = timed_setup(args, &mut setup_s)?;
        }
    }

    let metrics = BTreeMap::from([
        ("op_p50_s", median(&op_s)),
        ("rows_per_s", (fx.rows() * ops) as f64 / op_wall_s),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()?),
    ]);
    eprintln!(
        "{ops} timed ops in {op_wall_s:.3} s; op seconds {op_s:?}; setup seconds {setup_s:?}"
    );
    result_line(
        tally.attempted,
        tally.failed,
        &metrics,
        &declared(END_TO_END)?,
    )
}

/// Runs one traced operation and returns its seconds and layer values.
fn traced_op(fx: &Fixture, tally: &mut Tally) -> Option<(f64, BTreeMap<&'static str, f64>)> {
    trace::begin();
    let out = op(fx);
    let window = trace::end();
    match out {
        Ok(out) => {
            let mut values = layers(fx.workload(), &window, out.seconds * 1e3);
            values.extend(out.values);
            tally.record(Ok(out.checked));
            Some((out.seconds, values))
        }
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

/// The median of each layer value over the traced operations.
fn medians(per_op: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for values in per_op {
        for &name in values.keys() {
            out.entry(name).or_insert_with(|| {
                median(
                    &per_op
                        .iter()
                        .filter_map(|v| v.get(name).copied())
                        .collect::<Vec<_>>(),
                )
            });
        }
    }
    out
}

/// The traced run: alternating untraced and traced operations, layer
/// probes, and the one-thread child for the parallel speed-ups.
fn traced(args: &Args) -> Result<String, String> {
    drop(warm_up(args)?);
    trace::begin();
    let fx = setup(args.workload, args.rows(), args.seed)?;
    let world_ms = trace::end().total_ms("synth.world");
    let mut tally = Tally::default();
    run_op(&fx, &mut tally);

    let (mut plain_s, mut traced_s, mut per_op) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs = 0usize;
    let started = Instant::now();
    while pairs < MIN_TRACED_PAIRS || started.elapsed() < args.seconds() {
        pairs += 1;
        plain_s.extend(run_op(&fx, &mut tally));
        if let Some((seconds, values)) = traced_op(&fx, &mut tally) {
            traced_s.push(seconds);
            per_op.push(values);
        }
    }
    if per_op.is_empty() {
        return Err("no traced operation succeeded".into());
    }
    let mut metrics = medians(&per_op);

    let probed = probes(&fx, PROBE_REPS)?;
    tally.count(probed.problems);
    metrics.extend(probed.values);
    let unexplained =
        metrics["attack.harvest_ms"] - metrics["web.search_ms"] - metrics["web.extract_ms"];
    metrics.insert("linkage.derived_ms", unexplained.max(0.0));

    let child = one_thread_child(args)?;
    let reference = tally.reference().map(|d| format!("{d:016x}"));
    let mut problems = Vec::new();
    if child.digest != reference {
        problems.push(format!(
            "one-thread output digest {:?} differs from the {}-thread digest {reference:?}",
            child.digest,
            rayon::current_num_threads()
        ));
    }
    if child.failed > 0 {
        problems.push(format!("{} one-thread operations failed", child.failed));
    }
    tally.count(problems);
    metrics.insert(
        "attack.harvest_par_speedup",
        ratio(child.harvest_ms, metrics["attack.harvest_ms"]),
    );
    metrics.insert(
        "anon.mdav_par_speedup",
        ratio(child.mdav_ms, metrics["anon.mdav_ms"]),
    );
    metrics.insert(
        "obs.trace_overhead_ratio",
        ratio(median(&traced_s), median(&plain_s)),
    );
    metrics.insert("synth.world_ms", world_ms);
    eprintln!(
        "{pairs} op pairs; untraced {plain_s:?} s; traced {traced_s:?} s; one-thread harvest {:.1} ms, mdav {:.1} ms",
        child.harvest_ms, child.mdav_ms
    );
    result_line(
        tally.attempted,
        tally.failed,
        &metrics,
        &declared(PER_LAYER)?,
    )
}

/// What the one-thread child reports.
struct ChildLayers {
    harvest_ms: f64,
    mdav_ms: f64,
    failed: usize,
    digest: Option<String>,
}

/// Reruns this workload's traced operation on one thread in a child
/// process and waits for it.
fn one_thread_child(args: &Args) -> Result<ChildLayers, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "1", CHILD_FLAG])
        .env("RAYON_NUM_THREADS", "1");
    if let Some(rows) = args.rows {
        command.args(["--rows", &rows.to_string()]);
    }
    let out = command
        .output()
        .map_err(|e| format!("cannot run the one-thread child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("the one-thread child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let value = fred_recover::json::parse(line)
        .ok_or_else(|| format!("the one-thread child printed no result: `{line}`"))?;
    let number = |key: &str| {
        value
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("the one-thread child's result lacks `{key}`"))
    };
    Ok(ChildLayers {
        harvest_ms: number("attack.harvest_ms")?,
        mdav_ms: number("anon.mdav_ms")?,
        failed: number("failed")? as usize,
        digest: value
            .get("digest")
            .and_then(|v| v.as_str())
            .map(str::to_owned),
    })
}

/// The one-thread child: a warm-up and `CHILD_TRACED_OPS` traced
/// operations, reporting the median harvest and MDAV times, the failed
/// count and the output digest.
fn one_thread_layers(args: &Args) -> Result<String, String> {
    if rayon::current_num_threads() != 1 {
        return Err("the one-thread child must run with RAYON_NUM_THREADS=1".into());
    }
    let fx = setup(args.workload, args.rows(), args.seed)?;
    let mut tally = Tally::default();
    run_op(&fx, &mut tally);
    let per_op: Vec<_> = (0..CHILD_TRACED_OPS)
        .filter_map(|_| traced_op(&fx, &mut tally).map(|(_, values)| values))
        .collect();
    let layer = medians(&per_op);
    let digest = tally
        .reference()
        .map_or("null".to_owned(), |d| format!("\"{d:016x}\""));
    Ok(format!(
        "{{\"attack.harvest_ms\": {:?}, \"anon.mdav_ms\": {:?}, \"failed\": {}, \"digest\": {digest}}}",
        layer.get("attack.harvest_ms").copied().unwrap_or(0.0),
        layer.get("anon.mdav_ms").copied().unwrap_or(0.0),
        tally.failed
    ))
}
