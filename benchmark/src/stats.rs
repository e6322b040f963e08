//! Order statistics for timing samples.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it (choosing-metrics §1): a p90 of 40 samples is four points,
//! not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum StatError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples beyond the requested percentile.
    TooFewBeyond { samples: usize, beyond: usize },
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::Empty => write!(f, "no samples"),
            StatError::TooFewBeyond { samples, beyond } => write!(
                f,
                "{beyond} of {samples} samples lie beyond the percentile; need {MIN_BEYOND}"
            ),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Result<f64, StatError> {
    let v = sorted(values);
    match v.len() {
        0 => Err(StatError::Empty),
        n if n % 2 == 1 => Ok(v[n / 2]),
        n => Ok((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`), without the
/// sample-count guard. Smoke runs use it; reported numbers do not.
pub fn percentile_unguarded(values: &[f64], p: f64) -> Result<f64, StatError> {
    let v = sorted(values);
    if v.is_empty() {
        return Err(StatError::Empty);
    }
    Ok(v[rank(v.len(), p)])
}

/// The nearest-rank `p`-th percentile, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, StatError> {
    let n = values.len();
    if n == 0 {
        return Err(StatError::Empty);
    }
    let beyond = n - 1 - rank(n, p);
    if beyond < MIN_BEYOND {
        return Err(StatError::TooFewBeyond { samples: n, beyond });
    }
    percentile_unguarded(values, p)
}

fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p).ceil() as usize).clamp(1, n) - 1
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them: the benchmark's acceptance rule is stated in those terms.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], StatError> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return Err(StatError::Empty);
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Ok(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound is judged against.
pub fn spread(values: &[f64]) -> Result<f64, StatError> {
    let [q1, q2, q3] = quartiles(values)?;
    Ok((q3 - q1) / q2.abs().max(f64::MIN_POSITIVE))
}

/// One timed operation of a closed-loop client: when it was sent and
/// answered (seconds on the run's clock) and how many units of work it
/// carried (1 for a frame, an instance's firings for a batch run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub start_s: f64,
    pub end_s: f64,
    pub units: f64,
}

impl Op {
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// One round of a client's operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Round {
    /// Median operation time within the round.
    pub median_ms: f64,
    /// Units of work over the round's wall time, first send to last reply.
    pub units_per_s: f64,
}

/// Splits one client's operations, in the order it ran them, into rounds
/// of `per_round` and summarizes each. A trailing partial round is
/// dropped, so every round holds the same amount of work.
pub fn rounds(ops: &[Op], per_round: usize) -> Vec<Round> {
    ops.chunks_exact(per_round.max(1))
        .map(|chunk| {
            let times: Vec<f64> = chunk.iter().map(Op::ms).collect();
            let wall = chunk[chunk.len() - 1].end_s - chunk[0].start_s;
            Round {
                median_ms: median(&times).expect("a round is not empty"),
                units_per_s: chunk.iter().map(|op| op.units).sum::<f64>() / wall.max(1e-9),
            }
        })
        .collect()
}

/// The quartile of per-round values on the undisturbed side: the first
/// quartile of times, the third of rates. The reference host is a
/// shared two-core VM whose neighbours slow a run down for seconds at a
/// time; a change to the program moves every round, a neighbour only
/// some, so the quiet quartile keeps the signal and drops that noise.
/// Falls back to the median below four rounds.
pub fn quiet_quartile(values: &[f64], lower_is_quiet: bool) -> Result<f64, StatError> {
    if values.len() < 4 {
        return median(values);
    }
    let [q1, _, q3] = quartiles(values)?;
    Ok(if lower_is_quiet { q1 } else { q3 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatError::Empty));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: rank 90 leaves exactly 10 beyond.
        assert_eq!(percentile(&v, 0.90), Ok(90.0));
        assert_eq!(
            percentile(&v, 0.99),
            Err(StatError::TooFewBeyond {
                samples: 100,
                beyond: 1
            })
        );
        assert_eq!(
            percentile(&v[..99], 0.90),
            Err(StatError::TooFewBeyond {
                samples: 99,
                beyond: 9
            })
        );
        assert_eq!(percentile_unguarded(&v[..20], 0.90), Ok(18.0));
        assert_eq!(percentile(&[], 0.5), Err(StatError::Empty));
    }

    #[test]
    fn rounds_hold_equal_work_and_the_quiet_quartile_ignores_a_disturbed_minority() {
        // Ten rounds of four 1 ms operations back to back; rounds 3..6
        // are disturbed and run four times slower.
        let mut ops = Vec::new();
        let mut t = 0.0;
        for round in 0..10 {
            let ms = if (3..6).contains(&round) { 4.0 } else { 1.0 };
            for _ in 0..4 {
                ops.push(Op {
                    start_s: t,
                    end_s: t + ms / 1e3,
                    units: 2.0,
                });
                t += ms / 1e3;
            }
        }
        ops.push(Op {
            start_s: t,
            end_s: t + 1.0,
            units: 2.0,
        });
        let rs = rounds(&ops, 4);
        assert_eq!(rs.len(), 10, "the trailing partial round is dropped");
        assert!((rs[0].median_ms - 1.0).abs() < 1e-9 && (rs[4].median_ms - 4.0).abs() < 1e-9);
        assert!(
            (rs[0].units_per_s - 2000.0).abs() < 1e-6 && (rs[4].units_per_s - 500.0).abs() < 1e-6
        );
        let times: Vec<f64> = rs.iter().map(|r| r.median_ms).collect();
        let rates: Vec<f64> = rs.iter().map(|r| r.units_per_s).collect();
        assert!((quiet_quartile(&times, true).unwrap() - 1.0).abs() < 1e-9);
        assert!((quiet_quartile(&rates, false).unwrap() - 2000.0).abs() < 1e-6);
        assert_eq!(
            quiet_quartile(&[3.0, 1.0, 2.0], true),
            Ok(2.0),
            "too few rounds: the median"
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Ok([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 50, 20, 40, 30], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 50.0, 20.0, 40.0, 30.0]),
            Ok([15.0, 30.0, 45.0])
        );
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
