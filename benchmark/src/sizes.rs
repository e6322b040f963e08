//! Workload sizes. Tuned once on the 2-core reference host and frozen;
//! `--smoke` swaps in the small set so CI can check correctness, schema
//! and count determinism in well under a minute.

/// Every tunable size of the six workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Times set-up runs before the timed window (the last one's state
    /// is the one measured) and again after it; `setup_s` is the median
    /// of them all.
    pub setup_reps: usize,
    pub setup_reps_late: usize,
    /// Instances per round of a batch workload: the timing metrics are
    /// taken over rounds of equal work.
    pub closure_round: usize,
    pub market_round: usize,
    /// Closure instances generated per run (the window wraps around the
    /// pool if the engine ever outruns it).
    pub closure_pool: usize,
    pub market_pool: usize,
    /// Instances run and discarded before the timed window.
    pub batch_warmup: usize,
    /// Instances of the fixed prefix the exact counts and the traced
    /// run's spans and replays cover.
    pub batch_counted: usize,
    /// Distinct serve-churn session scripts (a multiple of 6: three
    /// program kinds over two clients).
    pub churn_pool: usize,
    /// Sessions each churn client runs and discards (>= 200 frames in
    /// total) before the timed window.
    pub churn_warmup: usize,
    /// Sessions each churn client runs in a traced run.
    pub churn_counted: usize,
    /// Long-lived serve-durable sessions, split over two clients.
    pub durable_sessions: usize,
    /// Inject+step rounds over every session in a traced run.
    pub durable_counted_rounds: usize,
    /// Edges of serve-contend's long-run chain.
    pub contend_chain: usize,
    /// Neighbor frames sent while the victim is idle (the baseline).
    pub contend_idle_frames: usize,
    /// Long runs in a traced run.
    pub contend_counted_runs: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        setup_reps: 3,
        setup_reps_late: 2,
        closure_round: 8,
        market_round: 32,
        closure_pool: 256,
        market_pool: 512,
        batch_warmup: 8,
        batch_counted: 24,
        churn_pool: 60,
        churn_warmup: 9,
        churn_counted: 60,
        durable_sessions: 256,
        durable_counted_rounds: 8,
        contend_chain: 192,
        contend_idle_frames: 200,
        contend_counted_runs: 20,
    };

    pub const SMOKE: Sizes = Sizes {
        setup_reps: 1,
        setup_reps_late: 0,
        closure_round: 2,
        market_round: 4,
        closure_pool: 16,
        market_pool: 32,
        batch_warmup: 2,
        batch_counted: 2,
        churn_pool: 6,
        churn_warmup: 1,
        churn_counted: 3,
        durable_sessions: 16,
        durable_counted_rounds: 2,
        contend_chain: 96,
        contend_idle_frames: 40,
        contend_counted_runs: 2,
    };
}
