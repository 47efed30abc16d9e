//! Heuristic schedulers vs the derived optima (extension experiment).
//!
//! The paper's core motivation (Sections I, VII): heuristic memory
//! schedulers like PARBS and ATLAS "gain system performance by
//! distributing bandwidth among co-scheduled applications in a better way,
//! \[but\] they do not explicitly specify how much bandwidth should be
//! allocated to each application" — so none of them is optimal for any
//! *particular* objective. This experiment makes that argument empirical:
//! run PARBS-style batching, ATLAS-style least-attained-service and
//! TCM-style thread clustering on the heterogeneous mixes and compare each
//! metric against the paper's derived optimum for that metric.
//!
//! Expected shape: the heuristics land between No_partitioning and the
//! per-metric optimum on every objective, and neither wins any metric
//! outright.

use bwpart_cmp::{CmpConfig, CmpSystem, Runner, ShareSource};
use bwpart_core::prelude::*;
use bwpart_mc::Policy;
use bwpart_workloads::mixes::hetero_mixes;
use serde::{Deserialize, Serialize};

use crate::harness::{geomean, ExpConfig, Table};

/// Per-scheduler geomean normalized metrics over the hetero mixes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeuristicsResult {
    /// Scheduler labels (row order).
    pub labels: Vec<String>,
    /// `normalized[row][metric]` vs No_partitioning, `Metric::ALL` order.
    pub normalized: Vec<Vec<f64>>,
}

/// Run a mix under an arbitrary controller policy through the standard
/// phase methodology, reusing the runner's profiling for reference values.
fn run_policy(
    cfg: &ExpConfig,
    mix: &bwpart_workloads::Mix,
    policy_of: impl Fn(usize) -> Policy,
) -> bwpart_cmp::SimOutcome {
    // Profile with the standard No_partitioning phase first (for the
    // metric denominators), then measure under the custom policy.
    let runner = Runner {
        cmp: CmpConfig {
            dram: cfg.dram.clone(),
            ..CmpConfig::default()
        },
        phases: cfg.phases,
    };
    let (w, cc) = mix.build(1, cfg.seed);
    let base = runner.run_scheme(
        PartitionScheme::NoPartitioning,
        w,
        cc,
        ShareSource::OnlineProfile,
    );

    let (w, cc) = mix.build(1, cfg.seed);
    let n = w.len();
    let cmp_cfg = CmpConfig {
        dram: cfg.dram.clone(),
        ..CmpConfig::default()
    };
    let mut sys = CmpSystem::new(&cmp_cfg, w, cc, policy_of(n));
    sys.warm_up(cfg.phases.warmup + cfg.phases.profile);
    sys.reset_phase_counters();
    let start = sys.snapshot();
    sys.run(cfg.phases.measure);
    let end = sys.snapshot();
    let stats = sys.window_stats(&start, &end);
    let total_bandwidth =
        stats.iter().map(|s| s.mem_accesses).sum::<u64>() as f64 / cfg.phases.measure as f64;
    bwpart_cmp::SimOutcome {
        scheme: "custom".into(),
        stats,
        apc_alone_ref: base.apc_alone_ref.clone(),
        api_ref: base.api_ref.clone(),
        total_bandwidth,
    }
}

/// Run the comparison over `mix_limit` heterogeneous mixes.
pub fn run_with_limit(cfg: &ExpConfig, mix_limit: usize) -> HeuristicsResult {
    let mixes: Vec<_> = hetero_mixes().into_iter().take(mix_limit).collect();
    // Rows: the two heuristics plus the per-metric optimum and Equal.
    let labels = vec![
        "PARBS (batching)".to_string(),
        "ATLAS (least-attained)".to_string(),
        "TCM (clustering)".to_string(),
        "Equal".to_string(),
        "per-metric optimum".to_string(),
    ];
    let optimum_for = [
        PartitionScheme::SquareRoot,   // Hsp
        PartitionScheme::Proportional, // MinF
        PartitionScheme::PriorityApc,  // Wsp
        PartitionScheme::PriorityApi,  // IPCsum
    ];

    let mut per_row: Vec<Vec<Vec<f64>>> = vec![Vec::new(); labels.len()];
    for mix in &mixes {
        let base = cfg.run_one(mix, PartitionScheme::NoPartitioning);
        let base_metrics: Vec<f64> = Metric::ALL.iter().map(|&m| base.metric(m)).collect();
        let normalize = |out: &bwpart_cmp::SimOutcome| -> Vec<f64> {
            Metric::ALL
                .iter()
                .zip(&base_metrics)
                .map(|(&m, &b)| out.metric(m) / b.max(1e-12))
                .collect()
        };

        let parbs = run_policy(cfg, mix, |n| Policy::parbs(n, 5));
        per_row[0].push(normalize(&parbs));
        let atlas = run_policy(cfg, mix, |n| Policy::atlas(n, 0.9999));
        per_row[1].push(normalize(&atlas));
        let tcm = run_policy(cfg, mix, |n| Policy::tcm(n, 2000));
        per_row[2].push(normalize(&tcm));
        let equal = cfg.run_one(mix, PartitionScheme::Equal);
        per_row[3].push(normalize(&equal));
        // Per-metric optimum: take each metric from its own optimal scheme.
        let mut opt = Vec::new();
        for (mi, &scheme) in optimum_for.iter().enumerate() {
            let out = cfg.run_one(mix, scheme);
            opt.push(out.metric(Metric::ALL[mi]) / base_metrics[mi].max(1e-12));
        }
        per_row[4].push(opt);
    }

    let normalized = per_row
        .into_iter()
        .map(|mix_rows| {
            (0..4)
                .map(|mi| geomean(&mix_rows.iter().map(|r| r[mi]).collect::<Vec<_>>()))
                .collect()
        })
        .collect();
    HeuristicsResult { labels, normalized }
}

/// Run over all seven heterogeneous mixes.
pub fn run(cfg: &ExpConfig) -> HeuristicsResult {
    run_with_limit(cfg, usize::MAX)
}

/// Render the comparison.
pub fn render(r: &HeuristicsResult) -> String {
    let mut t = Table::new(&["scheduler", "Hsp", "MinF", "Wsp", "IPCsum"]);
    for (label, row) in r.labels.iter().zip(&r.normalized) {
        let mut cells = vec![label.clone()];
        for v in row {
            cells.push(format!("{v:.3}"));
        }
        t.row(cells);
    }
    let mut out = String::from(
        "Heuristic schedulers vs derived optima (hetero mixes, normalized to\nNo_partitioning)\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "\n(the paper's motivating claim: heuristics improve over the baseline\n but none matches the per-objective optimum on its own metric)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mix_comparison_is_finite_and_shaped() {
        let cfg = ExpConfig::fast();
        let r = run_with_limit(&cfg, 1);
        assert_eq!(r.labels.len(), 5);
        for row in &r.normalized {
            assert_eq!(row.len(), 4);
            for &v in row {
                assert!(v.is_finite() && v > 0.0);
            }
        }
        let s = render(&r);
        assert!(s.contains("PARBS"));
        assert!(s.contains("ATLAS"));
        assert!(s.contains("TCM"));
    }
}
