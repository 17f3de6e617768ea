//! Output checks. Every operation's outputs are checked; an operation
//! that errors or fails a check counts as failed.

use fred_eval::EvalReport;

/// What one operation produced, reduced to what the checks need: the
/// problems found in its outputs and a digest of those outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// FNV-1a digest over the operation's outputs (bit patterns of every
    /// float), equal across operations on the same inputs.
    pub digest: u64,
    /// One line per failed check; empty when the outputs are correct.
    pub problems: Vec<String>,
}

/// Feeds values into an FNV-1a digest.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Adds a float by its bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }

    /// Adds an integer.
    pub fn usize(&mut self, x: usize) -> &mut Self {
        self.0.extend_from_slice(&(x as u64).to_le_bytes());
        self
    }

    /// The digest of everything added.
    pub fn finish(&self) -> u64 {
        fred_recover::fnv1a64(&self.0)
    }
}

/// Records a problem when `x` is not finite.
fn finite(problems: &mut Vec<String>, what: &str, x: f64) {
    if !x.is_finite() {
        problems.push(format!("{what} is not finite: {x}"));
    }
}

/// Records a problem for the first non-finite value of `xs`.
fn all_finite(problems: &mut Vec<String>, what: &str, xs: &[f64]) {
    if let Some((i, x)) = xs.iter().enumerate().find(|(_, x)| !x.is_finite()) {
        problems.push(format!("{what}[{i}] is not finite: {x}"));
    }
}

/// The attack: one finite estimate per release row and a finite
/// dissimilarity against the truth.
pub fn attack(estimates: &[f64], rows: usize, dissimilarity: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if estimates.len() != rows {
        problems.push(format!("{} estimates for {rows} rows", estimates.len()));
    }
    all_finite(&mut problems, "estimate", estimates);
    finite(&mut problems, "dissimilarity", dissimilarity);
    problems
}

/// FRED: `k_opt` inside the swept range, a k-anonymous release at
/// `k_opt`, and finite objective values.
pub fn fred(
    k_opt: usize,
    k_range: (usize, usize),
    release_is_k_anonymous: bool,
    values: &[f64],
) -> Vec<String> {
    let mut problems = Vec::new();
    if k_opt < k_range.0 || k_opt > k_range.1 {
        problems.push(format!(
            "k_opt {k_opt} outside [{}, {}]",
            k_range.0, k_range.1
        ));
    }
    if !release_is_k_anonymous {
        problems.push(format!("the release at k_opt {k_opt} is not k-anonymous"));
    }
    all_finite(&mut problems, "protection/utility/objective", values);
    problems
}

/// Composition: finite estimates and gains, and at most `k` candidates
/// per target on average (composition can only narrow a class).
pub fn composition(
    estimates: &[f64],
    gains: &[f64],
    mean_candidates: f64,
    k: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    all_finite(&mut problems, "composition estimate", estimates);
    all_finite(&mut problems, "composition gain", gains);
    finite(&mut problems, "mean_candidates", mean_candidates);
    if mean_candidates > k as f64 {
        problems.push(format!("mean_candidates {mean_candidates} exceeds k = {k}"));
    }
    problems
}

/// The eval cell: finite AUC in [0.5, 1], finite TPR and ε, and both
/// populations non-empty.
pub fn eval(report: &EvalReport) -> Vec<String> {
    let mut problems = Vec::new();
    finite(&mut problems, "auc", report.auc);
    finite(&mut problems, "tpr_at_low_fpr", report.tpr_at_low_fpr);
    finite(&mut problems, "epsilon", report.epsilon);
    if !(0.5..=1.0).contains(&report.auc) {
        problems.push(format!("auc {} outside [0.5, 1]", report.auc));
    }
    if report.targets == 0 || report.decoys == 0 {
        problems.push(format!(
            "empty eval population: {} targets, {} decoys",
            report.targets, report.decoys
        ));
    }
    problems
}

/// Counts operations and failures. The first operation's digest is the
/// reference every later operation must reproduce: all operations of a
/// run see the same inputs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that errored or failed a check.
    pub failed: usize,
    reference: Option<u64>,
}

impl Tally {
    /// Counts one operation; returns whether it passed.
    pub fn record(&mut self, op: Result<Checked, String>) -> bool {
        let problems = match op {
            Err(e) => vec![format!("operation failed: {e}")],
            Ok(checked) => {
                let mut problems = checked.problems;
                match self.reference {
                    None => self.reference = Some(checked.digest),
                    Some(r) if r != checked.digest => problems.push(format!(
                        "output digest {:016x} differs from the first op's {r:016x}",
                        checked.digest
                    )),
                    Some(_) => {}
                }
                problems
            }
        };
        self.count(problems)
    }

    /// Counts one checked result that has no digest; returns whether it
    /// passed. Problems are reported on stderr.
    pub fn count(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        for problem in &problems {
            eprintln!("check failed (op {}): {problem}", self.attempted);
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
        problems.is_empty()
    }

    /// The first operation's digest, once one has passed through.
    pub fn reference(&self) -> Option<u64> {
        self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(digest: u64) -> Result<Checked, String> {
        Ok(Checked {
            digest,
            problems: Vec::new(),
        })
    }

    #[test]
    fn a_nan_estimate_is_counted_as_failed() {
        let mut tally = Tally::default();
        let good = [1.0, 2.0, 3.0];
        let bad = [1.0, f64::NAN, 3.0];
        for estimates in [&good, &bad, &good] {
            let problems = attack(estimates, 3, 0.5);
            tally.record(Ok(Checked {
                digest: 7,
                problems,
            }));
        }
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }

    #[test]
    fn a_digest_mismatch_is_counted_as_failed() {
        let mut tally = Tally::default();
        assert!(tally.record(ok(1)));
        assert!(!tally.record(ok(2)));
        assert!(tally.record(ok(1)));
        assert!(!tally.record(Err("boom".into())));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
    }

    #[test]
    fn fred_checks_the_level_range_and_k_anonymity() {
        assert!(fred(4, (2, 10), true, &[0.5, 1.0]).is_empty());
        assert_eq!(fred(11, (2, 10), true, &[0.5]).len(), 1);
        assert_eq!(fred(4, (2, 10), false, &[0.5]).len(), 1);
        assert_eq!(fred(4, (2, 10), true, &[f64::INFINITY]).len(), 1);
    }

    #[test]
    fn composition_checks_candidates_against_k() {
        assert!(composition(&[1.0], &[0.0], 2.5, 5).is_empty());
        assert_eq!(composition(&[1.0], &[0.0], 5.5, 5).len(), 1);
        assert_eq!(composition(&[f64::NAN], &[0.0], 2.5, 5).len(), 1);
    }

    #[test]
    fn eval_checks_the_auc_range() {
        let report = |auc: f64| EvalReport {
            targets: 3,
            decoys: 4,
            roc: Vec::new(),
            auc,
            tpr_at_low_fpr: 0.5,
            epsilon: 1.0,
        };
        assert!(eval(&report(0.75)).is_empty());
        assert_eq!(eval(&report(0.25)).len(), 1);
        assert_eq!(eval(&report(f64::NAN)).len(), 2);
    }

    #[test]
    fn digests_differ_on_any_value() {
        let a = Digest::default().f64(0.1).usize(3).finish();
        assert_eq!(a, Digest::default().f64(0.1).usize(3).finish());
        assert_ne!(a, Digest::default().f64(0.1).usize(4).finish());
        assert_ne!(a, Digest::default().f64(-0.1).usize(3).finish());
    }
}
