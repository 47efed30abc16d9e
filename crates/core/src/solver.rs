//! Optimization machinery behind the optimal partitioning schemes.
//!
//! Section III of the paper formulates each objective as a constrained
//! optimization over the share vector. Two solver shapes cover all four
//! objectives:
//!
//! * a **Lagrange power-family** solution for smooth concave objectives
//!   (harmonic weighted speedup → `β ∝ √APC_alone`), realized here as
//!   [`water_fill`] over power-law weights with per-application caps, and
//! * a **fractional-knapsack greedy** for the linear objectives (weighted
//!   speedup and sum of IPCs → strict priority orders), realized as
//!   [`knapsack_greedy`].
//!
//! A generic numeric optimizer ([`maximize_on_simplex`]) and a deterministic
//! simplex sampler ([`sample_simplex`]) are provided so tests and the
//! `model_vs_sim` experiment can verify the closed forms against brute
//! force.
//!
//! Both solvers certify their outputs with the debug-mode contracts of
//! [`crate::contracts`]: allocations stay within the standalone caps and
//! conserve exactly `min(b, Σ caps)`.

use crate::contracts;

/// Distribute `b` units proportionally to `weights`, capping each recipient
/// at `caps[i]` and redistributing the surplus among the uncapped
/// (water-filling). The result sums to `min(b, Σ caps)`.
///
/// Entries with zero weight receive bandwidth only if every positively
/// weighted application is saturated.
///
/// # Panics
/// Panics if `weights` and `caps` differ in length, if any weight or cap is
/// negative/non-finite, or if `b` is not positive.
pub fn water_fill(weights: &[f64], caps: &[f64], b: f64) -> Vec<f64> {
    assert_eq!(weights.len(), caps.len(), "weights/caps length mismatch");
    assert!(b > 0.0 && b.is_finite(), "bandwidth must be positive");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be non-negative"
    );
    assert!(
        caps.iter().all(|c| c.is_finite() && *c >= 0.0),
        "caps must be non-negative"
    );

    let n = weights.len();
    let mut alloc = vec![0.0; n];
    let total_cap: f64 = caps.iter().sum();
    let mut remaining = b.min(total_cap);
    if remaining <= 0.0 {
        return alloc;
    }

    // Iteratively split the remaining bandwidth among unsaturated apps in
    // proportion to their weights; each round saturates at least one app, so
    // this terminates in ≤ n rounds.
    let mut active: Vec<usize> = (0..n)
        .filter(|&i| weights[i] > 0.0 && caps[i] > 0.0)
        .collect();
    while remaining > 1e-15 && !active.is_empty() {
        let wsum: f64 = active.iter().map(|&i| weights[i]).sum();
        debug_assert!(wsum > 0.0);
        // Every active weight subnormal: `remaining × w` would keep only a
        // few bits. Scaling by 2^1022 is exact there and keeps each ratio.
        let scale = if wsum < f64::MIN_POSITIVE {
            2f64.powi(1022)
        } else {
            1.0
        };
        let mut overflowed = false;
        let mut next_active = Vec::with_capacity(active.len());
        // First pass: find apps whose proportional grant would exceed the cap.
        let grants: Vec<(usize, f64)> = active
            .iter()
            .map(|&i| (i, remaining * (weights[i] * scale) / (wsum * scale)))
            .collect();
        for &(i, g) in &grants {
            let room = caps[i] - alloc[i];
            if g >= room {
                alloc[i] = caps[i];
                remaining -= room;
                overflowed = true;
            } else {
                next_active.push(i);
            }
        }
        if !overflowed {
            // Nobody hit a cap: grant everything and finish.
            for (i, g) in grants {
                if next_active.contains(&i) {
                    alloc[i] += g;
                }
            }
            remaining = 0.0;
        }
        active = next_active;
    }

    // If weighted apps are all saturated but bandwidth remains, spill to
    // zero-weight apps (rare; keeps Σ = min(b, Σcaps) exact).
    if remaining > 1e-15 {
        for i in 0..n {
            let room = caps[i] - alloc[i];
            if room > 0.0 {
                let take = room.min(remaining);
                alloc[i] += take;
                remaining -= take;
                if remaining <= 1e-15 {
                    break;
                }
            }
        }
    }
    crate::ensures_capped!(alloc, caps);
    crate::invariant!(
        contracts::approx_eq(
            alloc.iter().sum::<f64>(),
            b.min(total_cap),
            contracts::TOLERANCE
        ),
        "water_fill must conserve min(b, Σ caps) = {} (Eq. 2), got {}",
        b.min(total_cap),
        alloc.iter().sum::<f64>()
    );
    alloc
}

/// Fractional-knapsack greedy (Section III-D/E): grant bandwidth to
/// applications in ascending order of `keys[i]`, giving each up to its cap,
/// until `b` is exhausted. Ties are broken by index for determinism.
///
/// The result sums to `min(b, Σ caps)`.
pub fn knapsack_greedy(keys: &[f64], caps: &[f64], b: f64) -> Vec<f64> {
    assert_eq!(keys.len(), caps.len(), "keys/caps length mismatch");
    assert!(b > 0.0 && b.is_finite(), "bandwidth must be positive");
    let mut order: Vec<usize> = (0..keys.len()).collect();
    // total_cmp gives a total order even for NaN keys (NaN sorts last), so a
    // pathological profile degrades gracefully instead of panicking.
    order.sort_by(|&i, &j| keys[i].total_cmp(&keys[j]).then(i.cmp(&j)));
    let mut alloc = vec![0.0; keys.len()];
    let mut remaining = b;
    for &i in &order {
        if remaining <= 0.0 {
            break;
        }
        let grant = caps[i].min(remaining);
        alloc[i] = grant;
        remaining -= grant;
    }
    crate::ensures_capped!(alloc, caps);
    if cfg!(debug_assertions) {
        // Greedy-order certificate: once any lower-priority application
        // holds bandwidth, every higher-priority one must be saturated.
        let mut lower_holds = false;
        for &i in order.iter().rev() {
            crate::invariant!(
                !lower_holds || contracts::approx_le(caps[i], alloc[i], contracts::TOLERANCE),
                "knapsack order violated: app {} unsaturated ({} < cap {}) while a \
                 lower-priority app holds bandwidth",
                i,
                alloc[i],
                caps[i]
            );
            lower_holds |= alloc[i] > contracts::TOLERANCE;
        }
        let granted: f64 = alloc.iter().sum();
        let total_cap: f64 = caps.iter().sum();
        crate::invariant!(
            contracts::approx_eq(granted, b.min(total_cap), contracts::TOLERANCE),
            "knapsack_greedy must conserve min(b, Σ caps) = {}, got {}",
            b.min(total_cap),
            granted
        );
    }
    alloc
}

/// Deterministically sample `count` points from the interior of the
/// `n`-simplex using a splitmix-style generator seeded by `seed`. Used by
/// property tests and the brute-force verifier.
pub fn sample_simplex(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(n >= 1);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let samples: Vec<Vec<f64>> = (0..count)
        .map(|_| {
            // Exponential spacings give a uniform Dirichlet(1,...,1) sample.
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    let u: f64 = next().max(1e-12);
                    -u.ln()
                })
                .collect();
            let s: f64 = v.iter().sum();
            for x in &mut v {
                *x /= s;
            }
            v
        })
        .collect();
    if cfg!(debug_assertions) {
        for v in &samples {
            crate::ensures_simplex!(*v);
        }
    }
    samples
}

/// Numerically maximize `objective(β)` over the unit simplex with a simple
/// multiplicative-weights ascent followed by greedy coordinate polishing.
/// The objective is treated as a black box; this is a verification tool, not
/// a production solver. Returns `(best_beta, best_value)`.
pub fn maximize_on_simplex<F>(n: usize, objective: F, iterations: usize) -> (Vec<f64>, f64)
where
    F: Fn(&[f64]) -> f64,
{
    assert!(n >= 1);
    let mut best = vec![1.0 / n as f64; n];
    let mut best_val = objective(&best);

    // Seed from a spread of deterministic simplex samples.
    for candidate in sample_simplex(n, 64, 0xB417) {
        let v = objective(&candidate);
        if v > best_val {
            best_val = v;
            best = candidate;
        }
    }

    // Coordinate-pair polishing: move mass between pairs while it helps.
    let mut step = 0.25;
    for _ in 0..iterations {
        let mut improved = false;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let delta = step * best[i];
                if delta <= 0.0 {
                    continue;
                }
                let mut cand = best.clone();
                cand[i] -= delta;
                cand[j] += delta;
                let v = objective(&cand);
                if v > best_val {
                    best_val = v;
                    best = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-7 {
                break;
            }
        }
    }
    crate::ensures_simplex!(best);
    (best, best_val)
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn water_fill_uncapped_is_proportional() {
        let alloc = water_fill(&[1.0, 2.0, 1.0], &[10.0, 10.0, 10.0], 4.0);
        assert!((alloc[0] - 1.0).abs() < 1e-12);
        assert!((alloc[1] - 2.0).abs() < 1e-12);
        assert!((alloc[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn water_fill_redistributes_over_caps() {
        // App 1 would get 2.0 but is capped at 0.5; the surplus flows to the
        // others in weight proportion.
        let alloc = water_fill(&[1.0, 2.0, 1.0], &[10.0, 0.5, 10.0], 4.0);
        assert!((alloc[1] - 0.5).abs() < 1e-12);
        assert!((alloc[0] - 1.75).abs() < 1e-12);
        assert!((alloc[2] - 1.75).abs() < 1e-12);
        assert!((alloc.iter().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn water_fill_cascading_caps() {
        let alloc = water_fill(&[1.0, 1.0, 1.0], &[0.1, 0.2, 10.0], 3.0);
        assert!((alloc[0] - 0.1).abs() < 1e-12);
        assert!((alloc[1] - 0.2).abs() < 1e-12);
        assert!((alloc[2] - 2.7).abs() < 1e-12);
    }

    #[test]
    fn water_fill_total_capped_by_sum_of_caps() {
        let alloc = water_fill(&[1.0, 1.0], &[0.3, 0.4], 100.0);
        assert!((alloc[0] - 0.3).abs() < 1e-12);
        assert!((alloc[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn water_fill_zero_weight_gets_nothing_until_saturation() {
        let alloc = water_fill(&[0.0, 1.0], &[5.0, 5.0], 3.0);
        assert_eq!(alloc[0], 0.0);
        assert!((alloc[1] - 3.0).abs() < 1e-12);
        // ...but spills once the weighted app saturates.
        let alloc = water_fill(&[0.0, 1.0], &[5.0, 2.0], 3.0);
        assert!((alloc[1] - 2.0).abs() < 1e-12);
        assert!((alloc[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn water_fill_length_mismatch_panics() {
        water_fill(&[1.0], &[1.0, 2.0], 1.0);
    }

    #[test]
    fn knapsack_fills_in_key_order() {
        let alloc = knapsack_greedy(&[3.0, 1.0, 2.0], &[1.0, 1.0, 1.0], 2.5);
        assert!((alloc[1] - 1.0).abs() < 1e-12); // key 1 first
        assert!((alloc[2] - 1.0).abs() < 1e-12); // key 2 second
        assert!((alloc[0] - 0.5).abs() < 1e-12); // partial for key 3
    }

    #[test]
    fn knapsack_ties_break_by_index() {
        let alloc = knapsack_greedy(&[1.0, 1.0], &[1.0, 1.0], 1.0);
        assert_eq!(alloc, vec![1.0, 0.0]);
    }

    #[test]
    fn knapsack_respects_caps_with_surplus() {
        let alloc = knapsack_greedy(&[1.0, 2.0], &[0.5, 0.25], 10.0);
        assert_eq!(alloc, vec![0.5, 0.25]);
    }

    #[test]
    fn knapsack_is_optimal_for_linear_objective() {
        // Objective: Σ alloc_i / key_i (higher value density for low keys) —
        // the structure of both Wsp and IPCsum.
        let keys = [4.0, 1.0, 2.0, 8.0];
        let caps = [0.4, 0.2, 0.3, 0.5];
        let b = 0.6;
        let greedy = knapsack_greedy(&keys, &caps, b);
        let value = |a: &[f64]| a.iter().zip(&keys).map(|(x, k)| x / k).sum::<f64>();
        let gv = value(&greedy);
        // Compare against many random feasible allocations.
        for sample in sample_simplex(4, 200, 42) {
            // Scale the simplex point to a feasible capped allocation.
            let mut cand: Vec<f64> = sample
                .iter()
                .zip(&caps)
                .map(|(s, c)| (s * b).min(*c))
                .collect();
            let total: f64 = cand.iter().sum();
            if total > b {
                for x in &mut cand {
                    *x *= b / total;
                }
            }
            assert!(value(&cand) <= gv + 1e-9);
        }
    }

    #[test]
    fn simplex_samples_are_valid_and_deterministic() {
        let a = sample_simplex(5, 10, 7);
        let b = sample_simplex(5, 10, 7);
        assert_eq!(a, b);
        for v in &a {
            assert_eq!(v.len(), 5);
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(v.iter().all(|&x| x > 0.0));
        }
        // Different seeds give different samples.
        let c = sample_simplex(5, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn numeric_optimizer_finds_known_optimum() {
        // max Σ √β_i over the simplex is at β = 1/n.
        let (beta, val) = maximize_on_simplex(4, |b| b.iter().map(|x| x.sqrt()).sum(), 200);
        assert!((val - 2.0).abs() < 1e-3, "val = {val}");
        for x in beta {
            assert!((x - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn numeric_optimizer_handles_single_app() {
        let (beta, val) = maximize_on_simplex(1, |b| b[0], 10);
        assert_eq!(beta, vec![1.0]);
        assert_eq!(val, 1.0);
    }
}
