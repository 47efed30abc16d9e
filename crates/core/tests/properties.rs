//! Property-based tests for the analytical model: the optimality claims of
//! Section III hold against randomized adversarial share vectors, and the
//! solver primitives preserve their invariants on arbitrary inputs.

// Strategy helpers run outside #[test] functions, so the tests exemption
// does not reach them; unwraps on generator-validated data are fine.
#![allow(clippy::unwrap_used)]

use bwpart_core::prelude::*;
use bwpart_core::{closed_form, solver};
use proptest::prelude::*;

/// Strategy: a workload of 2..=8 applications with APIs in [1e-3, 0.1] and
/// APC_alone in [1e-4, 0.01] (the realistic ranges of Table III).
fn arb_apps() -> impl Strategy<Value = Vec<AppProfile>> {
    prop::collection::vec((1e-3f64..0.1, 1e-4f64..0.01), 2..=8).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (api, apc))| AppProfile::new(format!("app{i}"), api, apc).unwrap())
            .collect()
    })
}

/// A bandwidth that keeps the system contended (below total demand) so the
/// paper's derivations apply exactly.
fn contended_b(apps: &[AppProfile]) -> f64 {
    0.7 * apps.iter().map(|a| a.apc_alone).sum::<f64>()
}

proptest! {
    /// Every enforced scheme yields a valid share vector for any workload.
    #[test]
    fn shares_are_always_valid(apps in arb_apps()) {
        let b = contended_b(&apps);
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let beta = scheme.shares(&apps, b).unwrap();
            bwpart_core::schemes::validate_shares(&beta, apps.len()).unwrap();
        }
    }

    /// Allocations never exceed per-app standalone caps and sum to
    /// min(B, Σ caps).
    #[test]
    fn allocations_respect_caps(apps in arb_apps(), scale in 0.1f64..3.0) {
        let total_demand: f64 = apps.iter().map(|a| a.apc_alone).sum();
        let b = scale * total_demand;
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let alloc = scheme.allocation(&apps, b).unwrap();
            for (a, app) in alloc.iter().zip(&apps) {
                prop_assert!(*a <= app.apc_alone + 1e-12);
                prop_assert!(*a >= 0.0);
            }
            let sum: f64 = alloc.iter().sum();
            prop_assert!((sum - b.min(total_demand)).abs() < 1e-9,
                "{scheme}: sum {sum} vs expected {}", b.min(total_demand));
        }
    }

    /// Square_root maximizes Hsp: no random share vector beats it.
    #[test]
    fn square_root_maximizes_hsp(apps in arb_apps(), seed in any::<u64>()) {
        let b = contended_b(&apps);
        let best = predict::evaluate_scheme(&apps, PartitionScheme::SquareRoot, b)
            .unwrap()
            .metric(Metric::HarmonicWeightedSpeedup);
        for beta in solver::sample_simplex(apps.len(), 32, seed) {
            let v = predict::evaluate(&apps, &beta, b)
                .unwrap()
                .metric(Metric::HarmonicWeightedSpeedup);
            prop_assert!(v <= best + 1e-9, "beta {beta:?} scored {v} > {best}");
        }
    }

    /// Proportional equalizes speedups exactly (ideal fairness, Eq. 7), and
    /// no random share vector achieves higher minimum fairness.
    #[test]
    fn proportional_maximizes_min_fairness(apps in arb_apps(), seed in any::<u64>()) {
        let b = contended_b(&apps);
        let pred = predict::evaluate_scheme(&apps, PartitionScheme::Proportional, b).unwrap();
        let speedups = pred.speedups();
        for w in speedups.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-9, "speedups not equal: {speedups:?}");
        }
        let best = pred.metric(Metric::MinFairness);
        for beta in solver::sample_simplex(apps.len(), 32, seed) {
            let v = predict::evaluate(&apps, &beta, b)
                .unwrap()
                .metric(Metric::MinFairness);
            prop_assert!(v <= best + 1e-9);
        }
    }

    /// Priority_APC maximizes weighted speedup against random share vectors.
    #[test]
    fn priority_apc_maximizes_wsp(apps in arb_apps(), seed in any::<u64>()) {
        let b = contended_b(&apps);
        let best = predict::evaluate_scheme(&apps, PartitionScheme::PriorityApc, b)
            .unwrap()
            .metric(Metric::WeightedSpeedup);
        for beta in solver::sample_simplex(apps.len(), 32, seed) {
            let v = predict::evaluate(&apps, &beta, b)
                .unwrap()
                .metric(Metric::WeightedSpeedup);
            prop_assert!(v <= best + 1e-9);
        }
    }

    /// Priority_API maximizes sum of IPCs against random share vectors.
    #[test]
    fn priority_api_maximizes_ipcsum(apps in arb_apps(), seed in any::<u64>()) {
        let b = contended_b(&apps);
        let best = predict::evaluate_scheme(&apps, PartitionScheme::PriorityApi, b)
            .unwrap()
            .metric(Metric::SumOfIpcs);
        for beta in solver::sample_simplex(apps.len(), 32, seed) {
            let v = predict::evaluate(&apps, &beta, b)
                .unwrap()
                .metric(Metric::SumOfIpcs);
            prop_assert!(v <= best + 1e-9);
        }
    }

    /// The closed forms (Eq. 4, 6, 8) match direct evaluation through the
    /// forward model on every workload.
    #[test]
    fn closed_forms_match_forward_model(apps in arb_apps()) {
        let b = contended_b(&apps);
        // Eq. 4/6/8 assume no standalone cap binds (Section III derives them
        // for the contended, uncapped regime); skip workloads so skewed that
        // the square-root share of a tiny app exceeds its standalone rate.
        let sqrt_alloc = closed_form::hsp_optimal_allocation(&apps, b).unwrap();
        prop_assume!(sqrt_alloc
            .iter()
            .zip(&apps)
            .all(|(x, a)| *x <= a.apc_alone));
        let sqrt_pred = predict::evaluate_scheme(&apps, PartitionScheme::SquareRoot, b).unwrap();
        let hsp = sqrt_pred.metric(Metric::HarmonicWeightedSpeedup);
        prop_assert!((hsp - closed_form::max_hsp(&apps, b).unwrap()).abs() < 1e-9);
        let wsp = sqrt_pred.metric(Metric::WeightedSpeedup);
        prop_assert!((wsp - closed_form::wsp_of_sqrt(&apps, b).unwrap()).abs() < 1e-9);

        let prop_pred =
            predict::evaluate_scheme(&apps, PartitionScheme::Proportional, b).unwrap();
        let expect = closed_form::hsp_wsp_of_proportional(&apps, b).unwrap();
        prop_assert!((prop_pred.metric(Metric::HarmonicWeightedSpeedup) - expect).abs() < 1e-9);
        prop_assert!((prop_pred.metric(Metric::WeightedSpeedup) - expect).abs() < 1e-9);
    }

    /// The paper's Cauchy orderings hold for every workload.
    #[test]
    fn cauchy_orderings(apps in arb_apps(), scale in 0.05f64..0.95) {
        let b = scale * apps.iter().map(|a| a.apc_alone).sum::<f64>();
        let (lhs, rhs) = closed_form::cauchy::hsp_sqrt_vs_prop(&apps, b).unwrap();
        prop_assert!(lhs >= rhs - 1e-12);
        let (lhs, rhs) = closed_form::cauchy::wsp_sqrt_vs_prop(&apps, b).unwrap();
        prop_assert!(lhs >= rhs - 1e-12);
    }

    /// 2/3_power always sits between Square_root and Proportional on Hsp
    /// (monotonicity of the power family toward the α=1/2 optimum).
    #[test]
    fn power_family_hsp_is_unimodal_around_half(apps in arb_apps()) {
        let b = contended_b(&apps);
        let hsp = |alpha: f64| {
            predict::evaluate_scheme(&apps, PartitionScheme::Power(alpha), b)
                .unwrap()
                .metric(Metric::HarmonicWeightedSpeedup)
        };
        let h_sqrt = hsp(0.5);
        prop_assert!(h_sqrt >= hsp(2.0 / 3.0) - 1e-9);
        prop_assert!(hsp(2.0 / 3.0) >= hsp(1.0) - 1e-9);
        prop_assert!(h_sqrt >= hsp(0.0) - 1e-9);
    }

    /// water_fill output is deterministic, bounded and conserving for
    /// arbitrary weights/caps.
    #[test]
    fn water_fill_invariants(
        pairs in prop::collection::vec((0.0f64..5.0, 0.0f64..2.0), 1..10),
        b in 0.01f64..20.0,
    ) {
        let (weights, caps): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let alloc = solver::water_fill(&weights, &caps, b);
        let total_cap: f64 = caps.iter().sum();
        let sum: f64 = alloc.iter().sum();
        prop_assert!((sum - b.min(total_cap)).abs() < 1e-9);
        for (a, c) in alloc.iter().zip(&caps) {
            prop_assert!(*a >= -1e-12 && *a <= c + 1e-9);
        }
        // Determinism.
        prop_assert_eq!(alloc, solver::water_fill(&weights, &caps, b));
    }

    /// water_fill allocations are monotone in total bandwidth: raising `b`
    /// never shrinks any application's allocation (the water level only
    /// rises), so online repartitioning after a bandwidth upgrade can never
    /// take bandwidth away from an application.
    #[test]
    fn water_fill_monotone_in_b(
        pairs in prop::collection::vec((0.0f64..5.0, 0.0f64..2.0), 1..10),
        b in 0.01f64..10.0,
        extra in 0.01f64..10.0,
    ) {
        let (weights, caps): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let lo = solver::water_fill(&weights, &caps, b);
        let hi = solver::water_fill(&weights, &caps, b + extra);
        for (l, h) in lo.iter().zip(&hi) {
            prop_assert!(*h >= *l - 1e-9, "allocation shrank: {l} -> {h}");
        }
    }

    /// knapsack_greedy grants full caps to every app with a strictly lower
    /// key than any partially-served app.
    #[test]
    fn knapsack_priority_structure(
        pairs in prop::collection::vec((0.0f64..10.0, 0.001f64..1.0), 2..8),
        b in 0.01f64..4.0,
    ) {
        let (keys, caps): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let alloc = solver::knapsack_greedy(&keys, &caps, b);
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if keys[i] < keys[j] && alloc[j] > 1e-12 {
                    // i has strictly higher priority and j got something,
                    // so i must be fully satisfied.
                    prop_assert!((alloc[i] - caps[i]).abs() < 1e-9,
                        "app {i} (key {}) not saturated while {j} (key {}) got {}",
                        keys[i], keys[j], alloc[j]);
                }
            }
        }
    }

    /// QoS partitioning always meets every feasible target exactly in the
    /// forward model, for any best-effort scheme.
    #[test]
    fn qos_targets_always_met(apps in arb_apps(), frac in 0.1f64..0.9) {
        let b = contended_b(&apps);
        // Pick app 0 as the QoS app with a target at `frac` of its alone IPC,
        // but only if the reservation is feasible.
        let target = frac * apps[0].ipc_alone();
        let reserve = target * apps[0].api;
        prop_assume!(reserve < b * 0.9);
        let req = [QosRequest { app: 0, target_ipc: target }];
        for scheme in [
            PartitionScheme::Equal,
            PartitionScheme::SquareRoot,
            PartitionScheme::PriorityApc,
        ] {
            let part = qos::partition(&apps, &req, scheme, b).unwrap();
            let pred = part.predict(&apps).unwrap();
            prop_assert!((pred.ipc_shared[0] - target).abs() < 1e-9);
        }
    }

    /// Forward-model metrics are monotone in total bandwidth: more bandwidth
    /// never hurts any objective under any power-family scheme.
    #[test]
    fn metrics_monotone_in_bandwidth(apps in arb_apps(), frac in 0.1f64..0.8) {
        let demand: f64 = apps.iter().map(|a| a.apc_alone).sum();
        let b1 = frac * demand;
        let b2 = (frac + 0.15) * demand;
        for scheme in [
            PartitionScheme::Equal,
            PartitionScheme::SquareRoot,
            PartitionScheme::Proportional,
        ] {
            let p1 = predict::evaluate_scheme(&apps, scheme, b1).unwrap();
            let p2 = predict::evaluate_scheme(&apps, scheme, b2).unwrap();
            for m in Metric::ALL {
                prop_assert!(p2.metric(m) >= p1.metric(m) - 1e-9,
                    "{scheme} {m} decreased with more bandwidth");
            }
        }
    }
}

proptest! {
    /// Weighted Square_root maximizes weighted Hsp for arbitrary workloads
    /// and weights, against randomized allocations.
    #[test]
    fn weighted_hsp_optimality(
        apps in arb_apps(),
        raw_w in prop::collection::vec(0.2f64..5.0, 8),
        seed in any::<u64>(),
    ) {
        let weights: Vec<f64> = raw_w.iter().take(apps.len()).cloned().collect();
        prop_assume!(weights.len() == apps.len());
        let b = contended_b(&apps);
        let alloc = weighted::hsp_optimal_allocation(&apps, &weights, b).unwrap();
        let eval = |alloc: &[f64]| {
            let pred = predict::evaluate_allocation(&apps, alloc).unwrap();
            weighted::weighted_hsp(&pred.ipc_shared, &pred.ipc_alone, &weights).unwrap()
        };
        let best = eval(&alloc);
        for beta in solver::sample_simplex(apps.len(), 24, seed) {
            let cand: Vec<f64> = beta.iter().map(|&x| x * b).collect();
            prop_assert!(eval(&cand) <= best + 1e-9);
        }
    }

    /// Uniform weights always recover the unweighted paper schemes.
    #[test]
    fn weighted_uniform_degenerates(apps in arb_apps(), scale in 0.2f64..1.5) {
        let b = scale * apps.iter().map(|a| a.apc_alone).sum::<f64>();
        let w = vec![1.0; apps.len()];
        let pairs = [
            (
                weighted::hsp_optimal_allocation(&apps, &w, b).unwrap(),
                PartitionScheme::SquareRoot.allocation(&apps, b).unwrap(),
            ),
            (
                weighted::fairness_optimal_allocation(&apps, &w, b).unwrap(),
                PartitionScheme::Proportional.allocation(&apps, b).unwrap(),
            ),
            (
                weighted::wsp_optimal_allocation(&apps, &w, b).unwrap(),
                PartitionScheme::PriorityApc.allocation(&apps, b).unwrap(),
            ),
            (
                weighted::ipcsum_optimal_allocation(&apps, &w, b).unwrap(),
                PartitionScheme::PriorityApi.allocation(&apps, b).unwrap(),
            ),
        ];
        for (weighted_alloc, plain) in pairs {
            for (x, y) in weighted_alloc.iter().zip(&plain) {
                prop_assert!((x - y).abs() < 1e-9, "{weighted_alloc:?} vs {plain:?}");
            }
        }
    }
}

/// Strategy: every scheme variant, including the generalized power family
/// and the coordinated multi-resource scheme.
fn arb_scheme() -> impl Strategy<Value = PartitionScheme> {
    (0usize..9, 0.01f64..4.0).prop_map(|(variant, alpha)| match variant {
        0 => PartitionScheme::NoPartitioning,
        1 => PartitionScheme::Equal,
        2 => PartitionScheme::Proportional,
        3 => PartitionScheme::SquareRoot,
        4 => PartitionScheme::TwoThirdsPower,
        5 => PartitionScheme::Power(alpha),
        6 => PartitionScheme::PriorityApc,
        7 => PartitionScheme::PriorityApi,
        _ => PartitionScheme::Coordinated,
    })
}

/// Strategy: cache-aware profiles with monotone three-knot miss-ratio
/// curves (the shape `MrcProbe` produces) over a 16-way LLC.
fn arb_cache_apps() -> impl Strategy<Value = Vec<CacheAwareProfile>> {
    prop::collection::vec(
        (
            1e-3f64..0.05,
            0.5f64..2.0,
            20.0f64..120.0,
            0.05f64..1.0,
            0.0f64..0.9,
        ),
        2..=4,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (api_llc, cpi_base, penalty, m_one, keep))| {
                let m_full = m_one * keep;
                let mrc = MissRatioCurve::fit(&[
                    (1.0, m_one),
                    (8.0, (m_one + m_full) / 2.0),
                    (16.0, m_full),
                ])
                .unwrap();
                CacheAwareProfile::new(format!("app{i}"), api_llc, cpi_base, penalty, mrc).unwrap()
            })
            .collect()
    })
}

/// Flip each alphabetic character's case and swap `-`/`_` according to
/// `bits` — every mangled spelling must still parse (the parser lowercases
/// and normalizes underscores).
fn mangle(name: &str, bits: u64) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            let flip = bits >> (i % 64) & 1 == 1;
            match c {
                '-' | '_' if flip => {
                    if c == '-' {
                        '_'
                    } else {
                        '-'
                    }
                }
                c if c.is_ascii_alphabetic() && flip => {
                    if c.is_ascii_lowercase() {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                }
                c => c,
            }
        })
        .collect()
}

proptest! {
    /// Every scheme round-trips through its canonical name and its
    /// `Display` form, for every variant including `Coordinated` and
    /// arbitrary power exponents.
    #[test]
    fn scheme_round_trips_canonical_and_display(scheme in arb_scheme()) {
        let canon: PartitionScheme = scheme.canonical_name().parse().unwrap();
        prop_assert_eq!(canon, scheme);
        let display: PartitionScheme = scheme.to_string().parse().unwrap();
        prop_assert_eq!(display, scheme);
    }

    /// Parsing is case-insensitive and treats `-`/`_` interchangeably, so
    /// the paper's spellings (`Square_root`, `Priority_APC`, ...) and any
    /// mixed-case variant resolve to the same scheme.
    #[test]
    fn scheme_parse_tolerates_case_and_separator_mangling(
        scheme in arb_scheme(),
        bits in any::<u64>(),
    ) {
        let mangled = mangle(&scheme.canonical_name(), bits);
        let parsed: PartitionScheme = mangled.parse().unwrap();
        prop_assert_eq!(parsed, scheme);
    }

    /// The coordinated solve returns a certified outcome on arbitrary
    /// cache-aware workloads: the ways form an integral partition floored
    /// at `min_ways`, β lies on the simplex, each bandwidth allocation lies
    /// within its materialised profile's standalone rate, and the
    /// objective never trails the best single-resource baseline.
    #[test]
    fn coordinated_outcome_is_certified_and_beats_baselines(
        apps in arb_cache_apps(),
        bfrac in 0.3f64..0.9,
        scale in 0.5f64..1.5,
    ) {
        let n = apps.len();
        let b = bfrac * apps.iter().map(|a| a.apc_alone_at(16.0)).sum::<f64>();
        let cfg = CoordConfig::new(b, 16);
        let scales = vec![scale; n];
        for out in [
            solve_coordinated(&apps, &cfg).unwrap(),
            solve_coordinated_scaled(&apps, &scales, &cfg).unwrap(),
        ] {
            prop_assert_eq!(out.ways.len(), n);
            prop_assert!(out.ways.iter().all(|&w| w >= cfg.min_ways));
            prop_assert_eq!(out.ways.iter().sum::<usize>(), cfg.total_ways);
            let simplex = bwpart_core::schemes::validate_shares(&out.bandwidth.beta, n);
            prop_assert!(simplex.is_ok(), "β {:?}: {simplex:?}", out.bandwidth.beta);
            prop_assert_eq!(out.bandwidth.allocation.len(), n);
            for (a, p) in out.bandwidth.allocation.iter().zip(&out.profiles) {
                prop_assert!(
                    *a >= 0.0 && *a <= p.apc_alone + 1e-12,
                    "allocation {a} outside [0, {}]",
                    p.apc_alone
                );
            }
            prop_assert!(
                out.objective_value
                    >= out.baseline_value - out.baseline_value.abs() * 1e-9,
                "objective {} trails baseline {}",
                out.objective_value,
                out.baseline_value
            );
            prop_assert!(out.rounds <= cfg.max_rounds);
        }
    }
}

/// Strategy: any finite power exponent — moderate ones, `|α| ≤ 200`
/// (where the largest weight turns subnormal or nears `f64::MAX`), ones
/// spread over every decade up to `f64::MAX` in both signs, and raw bit
/// patterns (non-finite draws are rejected by the test).
fn arb_alpha() -> impl Strategy<Value = f64> {
    (0usize..4, -1.0f64..1.0, any::<u64>()).prop_map(|(kind, u, bits)| match kind {
        0 => 8.0 * u,
        1 => 200.0 * u,
        2 => u.signum() * 10f64.powf(u.abs() * 308.0),
        _ => f64::from_bits(bits),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any finite exponent over valid profiles solves to a certified
    /// simplex or a structured `InvalidInput` error — never a panic, never
    /// a NaN share (`APC_alone^α` overflows for large negative α and
    /// underflows for large positive α).
    #[test]
    fn power_solve_is_certified_or_an_error(
        apps in arb_apps(),
        alpha in arb_alpha(),
        scale in 0.1f64..3.0,
    ) {
        prop_assume!(alpha.is_finite());
        let scheme = PartitionScheme::Power(alpha);
        let demand: f64 = apps.iter().map(|a| a.apc_alone).sum();
        let b = scale * demand;
        match scheme.solve(&apps, b) {
            Ok(out) => {
                bwpart_core::schemes::validate_shares(&out.beta, apps.len()).unwrap();
                for (a, app) in out.allocation.iter().zip(&apps) {
                    prop_assert!(*a >= 0.0 && *a <= app.apc_alone + 1e-12, "{a}");
                }
                let sum: f64 = out.allocation.iter().sum();
                prop_assert!((sum - b.min(demand)).abs() < 1e-9, "α {alpha}: sum {sum}");
            }
            Err(e) => prop_assert!(matches!(e, ModelError::InvalidInput { .. }), "{e}"),
        }
    }
}
