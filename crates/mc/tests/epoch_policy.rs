//! Property test pinning the raw decision rule the simulator's phase
//! runner relies on: with `ewma_alpha = 1` and `hysteresis = 0`, an
//! [`EpochPolicy`] publishes, every non-idle epoch, exactly
//! `scheme.solve` of the raw Eq. 12–13 estimates — bit for bit.

use bwpart_core::prelude::*;
use bwpart_mc::{DeltaAccumulator, EpochConfig, EpochPolicy, TelemetryDelta, Verdict};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SCHEMES: [PartitionScheme; 8] = [
    PartitionScheme::NoPartitioning,
    PartitionScheme::Equal,
    PartitionScheme::Proportional,
    PartitionScheme::SquareRoot,
    PartitionScheme::TwoThirdsPower,
    PartitionScheme::Power(-1.5),
    PartitionScheme::PriorityApc,
    PartitionScheme::PriorityApi,
];

/// One random report: sometimes idle, sometimes silent (zero accesses),
/// sometimes with interference past the whole window.
fn random_delta(rng: &mut SmallRng) -> TelemetryDelta {
    let shared_cycles = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(1..2_000_000u64)
    };
    let accesses = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(0..=shared_cycles / 20)
    };
    TelemetryDelta {
        accesses,
        shared_cycles,
        interference_cycles: rng.gen_range(0..=shared_cycles + shared_cycles / 5),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn raw_policy_publishes_the_solve_of_raw_estimates(
        n in 1usize..9,
        scheme in 0usize..SCHEMES.len(),
        seed in any::<u64>(),
    ) {
        let scheme = SCHEMES[scheme];
        let mut rng = SmallRng::seed_from_u64(seed);
        let bandwidth = rng.gen_range(0.001..0.05);
        let mut policy = EpochPolicy::new(EpochConfig {
            scheme,
            bandwidth,
            ewma_alpha: 1.0,
            hysteresis: 0.0,
            total_ways: None,
        });
        let apis: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-4..0.05)).collect();
        for (i, &api) in apis.iter().enumerate() {
            prop_assert_eq!(policy.enroll(&format!("app{i}"), api, None), i);
        }
        // The last raw estimate of each app: what α = 1 must hold.
        let mut last: Vec<Option<f64>> = vec![None; n];
        for _ in 0..6 {
            let mut accs = vec![DeltaAccumulator::default(); n];
            for (app, acc) in accs.iter_mut().enumerate() {
                for _ in 0..rng.gen_range(0..3usize) {
                    let d = random_delta(&mut rng);
                    acc.fold(d);
                    policy.fold(app, d);
                }
            }
            let before = policy.published().cloned();
            let verdict = policy.decide();
            let raw: Vec<Option<f64>> = accs.iter().map(DeltaAccumulator::apc_alone).collect();
            if raw.iter().all(Option::is_none) {
                prop_assert_eq!(verdict, Verdict::Idle);
                prop_assert_eq!(policy.published().cloned(), before);
                continue;
            }
            for (slot, r) in last.iter_mut().zip(&raw) {
                if r.is_some() {
                    *slot = *r;
                }
            }
            let estimates: Vec<Option<u64>> =
                policy.apps().iter().map(|a| a.estimate.map(f64::to_bits)).collect();
            let want: Vec<Option<u64>> = last.iter().map(|e| e.map(f64::to_bits)).collect();
            prop_assert_eq!(estimates, want);

            let mut ids = Vec::new();
            let mut profiles = Vec::new();
            for (i, e) in last.iter().enumerate() {
                if let Some(Ok(p)) = e.map(|e| AppProfile::new(format!("app{i}"), apis[i], e)) {
                    ids.push(i);
                    profiles.push(p);
                }
            }
            let solved = if profiles.is_empty() {
                None
            } else {
                scheme.solve(&profiles, bandwidth).ok()
            };
            match solved {
                Some(out) => {
                    prop_assert_eq!(verdict, Verdict::Repartitioned);
                    prop_assert!(policy.failure().is_none());
                    let d = policy.published().cloned().unwrap();
                    prop_assert_eq!(&d.ids, &ids);
                    prop_assert_eq!(&d.outcome.scheme, &out.scheme);
                    prop_assert_eq!(bits(&d.outcome.beta), bits(&out.beta));
                    prop_assert_eq!(bits(&d.outcome.allocation), bits(&out.allocation));
                }
                None => {
                    prop_assert_eq!(verdict, Verdict::Failed);
                    prop_assert!(policy.failure().is_some());
                    prop_assert_eq!(policy.published().cloned(), before);
                }
            }
        }
    }
}
