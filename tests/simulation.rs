//! Workspace-level tests of the machine-model pipeline: profile a real
//! workload run, replay it on the simulated machine, and check the
//! structural properties the Figure 1b narrative relies on.

use parulel::prelude::*;
use parulel::sim::{profile_run, simulate, speedup_curve, Assignment, CostModel};
use parulel::workloads::{Closure, Scenario};

#[test]
fn profiles_cover_every_cycle_and_all_fired_work() {
    let s = Closure::new(14, 24, 7);
    let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
    let out = e.run().unwrap();
    let profiles =
        profile_run(s.program(), s.initial_wm(), EngineOptions::default()).unwrap();
    assert_eq!(profiles.len() as u64, out.cycles);
    let total_fire: u64 = profiles.iter().map(|p| p.fire_ops()).sum();
    assert_eq!(total_fire, out.firings);
}

#[test]
fn simulated_speedup_is_sane_on_real_profiles() {
    let s = Closure::new(20, 36, 3);
    let profiles =
        profile_run(s.program(), s.initial_wm(), EngineOptions::default()).unwrap();
    let cost = CostModel::default();
    let curve = speedup_curve(&profiles, &cost, &[1, 2, 4, 8], Assignment::Lpt);
    // monotone non-decreasing, starts at 1
    assert!((curve[0].1 - 1.0).abs() < 1e-9);
    for pair in curve.windows(2) {
        assert!(pair[1].1 >= pair[0].1 - 1e-9, "{curve:?}");
    }
    // closure has 2 rules: predicted speedup can never exceed 2 plus the
    // (small) fire overlap — certainly under 3
    assert!(curve.last().unwrap().1 < 3.0, "{curve:?}");
}

#[test]
fn copy_and_constrain_raises_the_simulated_ceiling() {
    let s = Closure::new(30, 55, 7);
    let cost = CostModel::default();
    let base_profiles =
        profile_run(s.program(), s.initial_wm(), EngineOptions::default()).unwrap();
    let base = simulate(&base_profiles, &cost, 8, Assignment::Lpt);

    let split = parulel::engine::copy_and_constrain(s.program(), "close", 8).unwrap();
    let split_profiles =
        profile_run(&split, s.initial_wm(), EngineOptions::default()).unwrap();
    let fast = simulate(&split_profiles, &cost, 8, Assignment::Lpt);

    assert!(
        fast.total_ns < base.total_ns,
        "split {} !< base {}",
        fast.total_ns,
        base.total_ns
    );
    assert!(fast.imbalance < base.imbalance, "{fast:?} vs {base:?}");
}

#[test]
fn lpt_never_loses_to_round_robin_on_real_profiles() {
    for s in parulel::workloads::all_default() {
        let profiles =
            profile_run(s.program(), s.initial_wm(), EngineOptions::default()).unwrap();
        let cost = CostModel::default();
        for w in [2, 4, 8] {
            let rr = simulate(&profiles, &cost, w, Assignment::RoundRobin);
            let lpt = simulate(&profiles, &cost, w, Assignment::Lpt);
            assert!(
                lpt.total_ns <= rr.total_ns,
                "{} at {w} PEs: LPT {} > RR {}",
                s.name(),
                lpt.total_ns,
                rr.total_ns
            );
        }
    }
}
