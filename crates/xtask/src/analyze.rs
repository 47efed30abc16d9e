//! The interprocedural rules A2–A4 of `cargo xtask lint`.
//!
//! The per-file rules (`engine.rs`) check what one file can prove. These
//! rules run over the workspace symbol index ([`crate::symbols`]) and the
//! approximate call graph ([`crate::callgraph`]), both built from the same
//! analyzed files, and check three properties that hold — or fail — across
//! function and crate boundaries:
//!
//! * **A2 — contract reachability.** A public share producer — returning
//!   a bare `Vec<f64>` or an owned `SharesOutcome` / `QosPartition` /
//!   `CoordOutcome` / `Decision` (in `crates/core`, the epoch policy's
//!   `crates/mc`, or `crates/bwpartd`) — must certify its output either
//!   directly or via a callee that does. Reference accessors
//!   (`&Decision`) are exempt.
//! * **A3 — interprocedural unit flow.** R11's `_cycles` / `_ns` /
//!   share-fraction naming discipline is checked across call boundaries:
//!   an argument named in one unit must not flow into a parameter named in
//!   another, and a call result must not be bound to a name in a different
//!   unit than the callee's name promises. `*_to_*` conversion fns are
//!   exempt on the argument side (converting is their job).
//! * **A4 — workspace lock-order.** Per-file `// lint: lock-order:`
//!   tables are merged into one workspace graph. Locks nested inside one
//!   fn, and locks *reached through calls* while another lock is held,
//!   become observed nesting edges. Observed edges must follow the
//!   declared order, every lock must be named in some table, and the
//!   combined declared+observed graph must be acyclic. The rule is opt-in
//!   per crate: only `bwpartd` and crates that declare at least one table
//!   participate (the loomlite model-checker's cooperative locks stay out
//!   by design).
//!
//! A `lint: allow(A<N>): reason` comment attached to a finding's anchor
//! suppresses it, exactly as for the per-file rules.
//!
//! ## Soundness boundaries (documented, deliberate)
//!
//! * The call graph is heuristic (see `callgraph.rs`): unresolvable calls
//!   (std methods, unknown receivers) produce no edges, so a certifier or
//!   a lock hidden behind one is invisible to A2/A4.
//! * `vendor/` is outside the index: the vendored pool is certified by the
//!   loomlite model check, not by this pass. A workspace call into
//!   `rayon` (the experiment and bench sweeps) therefore ends at the
//!   crate boundary.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::engine::unit_class;
use crate::lint::{line_col, Finding, Rule};
use crate::symbols::Workspace;
use crate::tokens::SourceFile;

/// Run A2–A4 over the indexed workspace. `files[i]` is the analyzed
/// source behind `ws.files[i]`.
pub fn check(ws: &Workspace, files: &[&SourceFile]) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let mut findings = rule_a2(ws, &graph, files);
    findings.extend(rule_a3(ws, &graph, files));
    findings.extend(rule_a4(ws, &graph, files));
    findings
}

/// Build one finding anchored at `span` in file `fi`.
fn emit(
    ws: &Workspace,
    files: &[&SourceFile],
    fi: usize,
    span: (usize, usize),
    rule: Rule,
    message: String,
) -> Finding {
    Finding::new(&ws.files[fi].path, files[fi], rule, span, message)
}

/// Human-readable `name (file:line)` for a graph node.
fn fn_label(ws: &Workspace, files: &[&SourceFile], fi: usize, fj: usize) -> String {
    let f = &ws.files[fi].fns[fj];
    let (line, _) = line_col(files[fi].src, f.span.0);
    format!("{} ({}:{})", f.name, ws.files[fi].path, line)
}

// ---------------------------------------------------------------------------
// A2 — contract reachability
// ---------------------------------------------------------------------------

/// Call-hop budget for reaching a certifier.
const A2_DEPTH: usize = 3;

/// Return types A2 treats as share/allocation producers: a bare share
/// vector, or one of the owned partition results (`SharesOutcome`,
/// `QosPartition`, `CoordOutcome`, and the epoch policy's `Decision`).
/// A result behind a reference (`Option<&Decision>` accessors) hands out
/// an already-certified value and is exempt; a borrow elsewhere in the
/// type (`Result<SharesOutcome, &'static str>`) is not.
fn is_share_producer_ret(ret: &str) -> bool {
    ret.contains("Vec<f64>")
        || ["SharesOutcome", "QosPartition", "CoordOutcome", "Decision"]
            .iter()
            .any(|t| ret.match_indices(t).any(|(at, _)| !is_borrowed(&ret[..at])))
}

/// Does a type whose text follows `before` sit directly behind a
/// reference: `&`, `&mut `, `&'a ` or `&'a mut `?
fn is_borrowed(before: &str) -> bool {
    let mut rest = before.trim_end();
    if let Some(r) = rest.strip_suffix("mut").filter(|r| r.ends_with(['&', ' '])) {
        rest = r.trim_end();
    }
    if let Some(tick) = rest.rfind('\'') {
        let lifetime = &rest[tick + 1..];
        if !lifetime.is_empty() && lifetime.chars().all(|c| c.is_alphanumeric() || c == '_') {
            rest = &rest[..tick];
        }
    }
    rest.ends_with('&')
}

/// Crates whose public fns hand shares across a boundary: the model, the
/// epoch policy (`bwpart-mc`), and the service.
const A2_CRATES: [&str; 3] = ["core", "mc", "bwpartd"];

fn rule_a2(ws: &Workspace, g: &CallGraph, files: &[&SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !A2_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (fj, f) in file.fns.iter().enumerate() {
            if !f.is_pub || f.in_test || !is_share_producer_ret(&f.ret_text) {
                continue;
            }
            let certified = f.certifies
                || g.node(fi, fj).is_some_and(|node| {
                    let reach = g.reach(node, A2_DEPTH);
                    reach.order.iter().any(|&n| {
                        let (rf, rj) = g.nodes[n];
                        ws.files[rf].fns[rj].certifies
                    })
                });
            if certified {
                continue;
            }
            out.push(emit(
                ws,
                files,
                fi,
                f.span,
                Rule::A2,
                format!(
                    "pub fn `{}` returns shares (Vec<f64> / SharesOutcome / \
                     QosPartition / CoordOutcome / Decision) but neither it nor any callee \
                     within {A2_DEPTH} calls certifies them (validate_shares / \
                     ensures_simplex / ensures_capped / invariant!)",
                    f.name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A3 — interprocedural unit flow
// ---------------------------------------------------------------------------

fn rule_a3(ws: &Workspace, g: &CallGraph, files: &[&SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (node, &(fi, fj)) in g.nodes.iter().enumerate() {
        let caller = &ws.files[fi].fns[fj];
        if caller.in_test {
            continue;
        }
        for (ci, call) in caller.calls.iter().enumerate() {
            // Only calls resolving to exactly one workspace target are
            // checked — ambiguity must not manufacture findings.
            let targets: Vec<usize> = g.edges[node]
                .iter()
                .filter(|e| e.call_idx == ci)
                .map(|e| e.to)
                .collect();
            let [target] = targets.as_slice() else {
                continue;
            };
            let (tf, tj) = g.nodes[*target];
            let callee = &ws.files[tf].fns[tj];

            // Argument → parameter flow. Conversion fns are exempt.
            if !callee.name.contains("_to_") {
                for (arg, param) in call.arg_idents.iter().zip(&callee.params) {
                    let Some(arg_name) = arg else { continue };
                    let (Some(have), Some(want)) = (unit_class(arg_name), unit_class(&param.name))
                    else {
                        continue;
                    };
                    if have != want {
                        out.push(emit(
                            ws,
                            files,
                            fi,
                            call.span,
                            Rule::A3,
                            format!(
                                "argument `{arg_name}` ({have}) flows into parameter \
                                 `{}` ({want}) of `{}`",
                                param.name,
                                fn_label(ws, files, tf, tj),
                            ),
                        ));
                    }
                }
            }

            // Result → binding flow: the callee's name suffix is its
            // promise about the returned unit.
            if let (Some(bound), Some(promised)) =
                (call.bound_to.as_deref(), unit_class(&callee.name))
            {
                if let Some(got) = unit_class(bound) {
                    if got != promised {
                        out.push(emit(
                            ws,
                            files,
                            fi,
                            call.span,
                            Rule::A3,
                            format!(
                                "result of `{}` ({promised}) bound to `{bound}` ({got})",
                                callee.name
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A4 — workspace lock-order graph
// ---------------------------------------------------------------------------

/// Call-hop budget when tracing calls made under a held lock.
const A4_DEPTH: usize = 4;

fn rule_a4(ws: &Workspace, g: &CallGraph, files: &[&SourceFile]) -> Vec<Finding> {
    // Merge declared tables; remember one anchor per table for cycle
    // findings. `bwpartd` is always in scope: the service's locks must be
    // tabled even before the first table exists.
    let mut tables: Vec<(&[String], usize, usize)> = Vec::new(); // (names, file, offset)
    let mut opt_in: BTreeSet<&str> = ["bwpartd"].into();
    for (fi, file) in ws.files.iter().enumerate() {
        for t in &file.lock_tables {
            tables.push((&t.names, fi, t.offset));
            opt_in.insert(file.crate_name.as_str());
        }
    }
    let declared_before = |a: &str, b: &str| -> bool {
        tables.iter().any(|(names, _, _)| {
            let pa = names.iter().position(|n| n == a);
            let pb = names.iter().position(|n| n == b);
            matches!((pa, pb), (Some(x), Some(y)) if x < y)
        })
    };
    let declared_related = |a: &str, b: &str| declared_before(a, b) || declared_before(b, a);
    let tabled = |name: &str| {
        tables
            .iter()
            .any(|(names, _, _)| names.iter().any(|n| n == name))
    };

    // Observed edges: (outer, inner) → first provenance.
    struct Observed {
        inner_file: usize,
        inner_span: (usize, usize),
        path: String,
    }
    let mut observed: BTreeMap<(String, String), Observed> = Default::default();
    let mut out = Vec::new();
    let mut untabled: BTreeSet<(usize, &str)> = Default::default();
    for (node, &(fi, fj)) in g.nodes.iter().enumerate() {
        if !opt_in.contains(ws.files[fi].crate_name.as_str()) {
            continue;
        }
        let caller = &ws.files[fi].fns[fj];
        if caller.in_test {
            continue;
        }
        for (ai, acq) in caller.locks.iter().enumerate() {
            if !tabled(&acq.name) && untabled.insert((fi, acq.name.as_str())) {
                out.push(emit(
                    ws,
                    files,
                    fi,
                    acq.span,
                    Rule::A4,
                    format!(
                        "lock `{}` is named in no lock-order table: declare its place \
                         with a `// lint: lock-order: <outer> < <inner>` comment",
                        acq.name
                    ),
                ));
            }
            // Same-fn nesting: acquired while an earlier guard is live.
            for inner in caller.locks[ai + 1..]
                .iter()
                .filter(|b| b.tok <= acq.held_to)
            {
                observed
                    .entry((acq.name.clone(), inner.name.clone()))
                    .or_insert_with(|| Observed {
                        inner_file: fi,
                        inner_span: inner.span,
                        path: caller.name.clone(),
                    });
            }
        }
        for (ci, call) in caller.calls.iter().enumerate() {
            if call.under_locks.is_empty() {
                continue;
            }
            for e in g.edges[node].iter().filter(|e| e.call_idx == ci) {
                let reach = g.reach(e.to, A4_DEPTH);
                for &n in &reach.order {
                    let (mf, mj) = g.nodes[n];
                    let inner_fn = &ws.files[mf].fns[mj];
                    for acq in &inner_fn.locks {
                        for outer in &call.under_locks {
                            let key = (outer.clone(), acq.name.clone());
                            observed.entry(key).or_insert_with(|| {
                                let mut chain = vec![caller.name.clone()];
                                chain.extend(reach.path_to(n).into_iter().map(|p| {
                                    let (pf, pj) = g.nodes[p];
                                    ws.files[pf].fns[pj].name.clone()
                                }));
                                Observed {
                                    inner_file: mf,
                                    inner_span: acq.span,
                                    path: chain.join(" -> "),
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    for ((outer, inner), prov) in &observed {
        let message = if outer == inner {
            format!(
                "lock `{inner}` re-acquired while already held (via {}): \
                 std::sync::Mutex self-deadlocks on re-entry",
                prov.path
            )
        } else if declared_before(inner, outer) {
            format!(
                "lock `{inner}` acquired while `{outer}` is held (via {}), \
                 inverting the declared order `{inner} < {outer}`",
                prov.path
            )
        } else if !declared_related(outer, inner) {
            format!(
                "lock `{inner}` acquired while `{outer}` is held (via {}), but no \
                 lock-order table relates them; declare `{outer} < {inner}`",
                prov.path
            )
        } else {
            continue;
        };
        out.push(emit(
            ws,
            files,
            prov.inner_file,
            prov.inner_span,
            Rule::A4,
            message,
        ));
    }

    // Cycle detection over declared (consecutive-pair) ∪ observed edges.
    let mut adj: BTreeMap<&str, Vec<&str>> = Default::default();
    for (names, _, _) in &tables {
        for pair in names.windows(2) {
            adj.entry(pair[0].as_str())
                .or_default()
                .push(pair[1].as_str());
        }
    }
    for (outer, inner) in observed.keys() {
        if outer != inner {
            adj.entry(outer.as_str()).or_default().push(inner.as_str());
        }
    }
    if let Some(cycle) = find_cycle(&adj) {
        let (anchor_file, anchor_offset) = tables
            .first()
            .map(|(_, fi, off)| (*fi, *off))
            .unwrap_or((0, 0));
        out.push(emit(
            ws,
            files,
            anchor_file,
            (anchor_offset, anchor_offset + 1),
            Rule::A4,
            format!(
                "lock-order cycle in the combined declared+observed graph: {}",
                cycle.join(" -> ")
            ),
        ));
    }
    out
}

/// First cycle in a name graph (iterative colored DFS), as the node list
/// `a -> b -> ... -> a`. Deterministic: neighbours explored in insertion
/// order, roots in sorted order.
fn find_cycle(adj: &BTreeMap<&str, Vec<&str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = Default::default();
    for &n in adj.keys() {
        color.insert(n, Color::White);
        for &m in &adj[n] {
            color.entry(m).or_insert(Color::White);
        }
    }
    let nodes: Vec<&str> = color.keys().copied().collect();
    for root in nodes {
        if color[root] != Color::White {
            continue;
        }
        // Stack of (node, next-neighbour-index); `path` mirrors the gray
        // chain for cycle reconstruction.
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        let mut path: Vec<&str> = vec![root];
        color.insert(root, Color::Gray);
        while let Some(&mut (n, ref mut idx)) = stack.last_mut() {
            let neighbours: &[&str] = adj.get(n).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < neighbours.len() {
                let m = neighbours[*idx];
                *idx += 1;
                match color[m] {
                    Color::Gray => {
                        let start = path.iter().position(|&p| p == m).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[start..].iter().map(|s| s.to_string()).collect();
                        cycle.push(m.to_string());
                        return Some(cycle);
                    }
                    Color::White => {
                        color.insert(m, Color::Gray);
                        stack.push((m, 0));
                        path.push(m);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(n, Color::Black);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileFacts;

    fn report_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let analyzed: Vec<SourceFile> = files.iter().map(|(_, s)| SourceFile::analyze(s)).collect();
        let ws = Workspace {
            files: files
                .iter()
                .zip(&analyzed)
                .map(|((p, _), f)| FileFacts::extract(p, f))
                .collect(),
        };
        check(&ws, &analyzed.iter().collect::<Vec<_>>())
    }

    fn active(r: &[Finding]) -> Vec<&Finding> {
        r.iter().filter(|f| !f.suppressed).collect()
    }

    fn active_codes(r: &[Finding]) -> Vec<&'static str> {
        active(r).iter().map(|f| f.rule.code()).collect()
    }

    #[test]
    fn a2_accepts_certification_via_callee() {
        let r = report_for(&[(
            "crates/core/src/solver.rs",
            "
pub fn solve(n: usize) -> Vec<f64> {
    let shares = inner(n);
    finish(&shares);
    shares
}
fn inner(n: usize) -> Vec<f64> { vec![0.0; n] }
fn finish(shares: &[f64]) { validate_shares(shares); }
",
        )]);
        assert!(!active_codes(&r).contains(&"A2"), "{r:?}");
    }

    #[test]
    fn a2_flags_uncertified_producer() {
        let bad = "pub fn shares(n: usize) -> Vec<f64> {\n    vec![1.0 / n as f64; n]\n}\n";
        for path in [
            "crates/core/src/solver.rs",
            "crates/mc/src/epoch.rs",
            "crates/bwpartd/src/engine.rs",
        ] {
            let r = report_for(&[(path, bad)]);
            assert_eq!(active_codes(&r), vec!["A2"], "{r:?}");
            assert_eq!(r[0].line, 1);
            assert!(r[0].message.contains("`shares`"), "{}", r[0].message);
        }
        // The same fn is fine outside the model crates...
        assert!(report_for(&[("crates/cmp/src/lib.rs", bad)]).is_empty());
        // ...and once the output is certified by a contract macro.
        for cert in [
            "crate::ensures_simplex!(beta);",
            "bwpart_core::ensures_simplex!(beta);",
        ] {
            let good = format!(
                "pub fn shares(n: usize) -> Vec<f64> {{\n    let beta = vec![1.0 / n as f64; n];\n    \
                 {cert}\n    beta\n}}\n"
            );
            assert!(report_for(&[("crates/bwpartd/src/engine.rs", &good)]).is_empty());
        }
        // Result wrappers are seen through.
        let wrapped =
            "pub fn allocation(b: f64) -> Result<Vec<f64>, ModelError> {\n    Ok(vec![b])\n}\n";
        let r = report_for(&[("crates/core/src/lib.rs", wrapped)]);
        assert_eq!(active_codes(&r), vec!["A2"], "{r:?}");
    }

    #[test]
    fn a2_covers_owned_allocation_wrappers() {
        // An owned CoordOutcome producer passes when certification is
        // reachable through a callee (the thin-delegator shape)...
        let delegator = report_for(&[(
            "crates/core/src/coord.rs",
            "
pub fn solve(n: usize) -> Result<CoordOutcome, ModelError> {
    solve_scaled(n)
}
fn solve_scaled(n: usize) -> Result<CoordOutcome, ModelError> {
    let beta = vec![0.0; n];
    ensures_simplex(&beta);
    build(beta)
}
",
        )]);
        assert!(!active_codes(&delegator).contains(&"A2"), "{delegator:?}");
        // ...uncertified owned results trip A2...
        let bare = report_for(&[(
            "crates/core/src/coord.rs",
            "
pub fn split(n: usize) -> CoordOutcome {
    CoordOutcome { ways: vec![1; n] }
}
pub fn outcome(apps: &[App]) -> Result<CoordOutcome, ModelError> {
    todo_build()
}
",
        )]);
        assert_eq!(active_codes(&bare), vec!["A2", "A2"], "{bare:?}");
        // ...producers certifying through validate_shares or a contract
        // macro pass...
        let good = report_for(&[(
            "crates/core/src/coord.rs",
            "
pub fn split(n: usize, beta: Vec<f64>) -> Result<CoordOutcome, ModelError> {
    validate_shares(&beta, n)?;
    assemble(beta)
}
pub fn outcome(apps: &[App]) -> Result<CoordOutcome, ModelError> {
    let beta = inner(apps)?;
    crate::ensures_simplex!(beta);
    assemble(beta)
}
",
        )]);
        assert!(active_codes(&good).is_empty(), "{good:?}");
        // ...and reference accessors are exempt, whatever the borrow's form.
        for ret in [
            "Option<&Decision>",
            "&'a Decision",
            "&mut Decision",
            "&'a mut Decision",
        ] {
            let accessor = report_for(&[(
                "crates/mc/src/epoch.rs",
                &format!("pub fn published<'a>(p: &'a mut EpochPolicy) -> {ret} {{ p.get() }}\n"),
            )]);
            assert!(active_codes(&accessor).is_empty(), "{ret}: {accessor:?}");
        }
    }

    #[test]
    fn a3_flags_unit_mismatch_and_exempts_conversions() {
        let r = report_for(&[(
            "crates/dram/src/lib.rs",
            "
pub fn probe(now_cycles: u64) -> u64 { now_cycles }
pub fn ns_to_cycles(t_ns: u64) -> u64 { t_ns * 2 }
pub fn caller(now_ns: u64) {
    probe(now_ns);
    ns_to_cycles(now_ns);
    let t_cycles = ns_to_cycles(now_ns);
    let _ = t_cycles;
}
",
        )]);
        let a3: Vec<&Finding> = active(&r)
            .into_iter()
            .filter(|f| f.rule == Rule::A3)
            .collect();
        assert_eq!(a3.len(), 1, "{r:?}");
        assert!(a3[0].message.contains("now_ns"), "{}", a3[0].message);
    }

    #[test]
    fn a3_flags_misbound_result() {
        let r = report_for(&[(
            "crates/dram/src/lib.rs",
            "
pub fn ns_to_cycles(t_ns: u64) -> u64 { t_ns * 2 }
pub fn caller(now_ns: u64) {
    let t_ns = ns_to_cycles(now_ns);
    let _ = t_ns;
}
",
        )]);
        assert_eq!(active_codes(&r), vec!["A3"], "{r:?}");
    }

    #[test]
    fn a4_flags_undeclared_cross_crate_nesting() {
        let r = report_for(&[(
            "crates/bwpartd/src/server.rs",
            "
// lint: lock-order: engine < table
fn lock_engine(m: &Mutex<Engine>) -> MutexGuard<'_, Engine> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
pub fn handle(engine: &Mutex<Engine>) {
    lock_engine(engine).trace_event();
}
pub struct Engine;
impl Engine {
    pub fn trace_event(&self) { obs_push(); }
}
fn obs_push() {
    let g = ring.lock().unwrap();
    drop(g);
}
",
        )]);
        let nested = active(&r)
            .into_iter()
            .find(|f| f.message.contains("while `engine` is held"))
            .unwrap_or_else(|| panic!("{r:?}"));
        assert!(nested.message.contains("`ring`"), "{}", nested.message);
        assert!(
            active(&r)
                .iter()
                .any(|f| f.message.contains("`ring` is named in no lock-order table")),
            "{r:?}"
        );
    }

    #[test]
    fn a4_flags_same_fn_inversion_and_reentry() {
        let src = r#"
// lint: lock-order: engine < tracer
pub fn bad(engine: &Mutex<E>, tracer: &Mutex<T>) {
    let t = tracer.lock().unwrap_or_else(|p| p.into_inner());
    let e = engine.lock().unwrap_or_else(|p| p.into_inner());
    drop((t, e));
}
pub fn good(engine: &Mutex<E>, tracer: &Mutex<T>) {
    let e = engine.lock().unwrap_or_else(|p| p.into_inner());
    let t = tracer.lock().unwrap_or_else(|p| p.into_inner());
    drop((e, t));
}
"#;
        let r = report_for(&[("crates/bwpartd/src/server.rs", src)]);
        let inversion = active(&r)
            .into_iter()
            .find(|f| f.message.contains("inverting"))
            .unwrap_or_else(|| panic!("{r:?}"));
        assert_eq!(inversion.line, 5);
        assert!(
            inversion
                .message
                .contains("`engine` acquired while `tracer` is held"),
            "{}",
            inversion.message
        );
        // The inversion also closes a cycle with the declared order; no
        // other finding (the `good` nesting is declared).
        assert_eq!(active_codes(&r), vec!["A4", "A4"], "{r:?}");

        let reentry = r#"
// lint: lock-order: engine
pub fn bad(engine: &Mutex<E>) {
    let eng = lock_engine(engine);
    let again = lock_engine(engine);
    drop((eng, again));
}
"#;
        let r = report_for(&[("crates/bwpartd/src/server.rs", reentry)]);
        assert_eq!(active_codes(&r), vec!["A4"], "{r:?}");
        assert_eq!(r[0].line, 5);
        assert!(
            r[0].message.contains("`engine` re-acquired"),
            "{}",
            r[0].message
        );
    }

    #[test]
    fn a4_flags_locks_named_in_no_table() {
        // bwpartd is always in scope: a lock there needs a table...
        let undeclared = r#"
pub fn f(engine: &Mutex<E>) {
    let eng = engine.lock().unwrap_or_else(|p| p.into_inner());
    drop(eng);
}
"#;
        let r = report_for(&[("crates/bwpartd/src/server.rs", undeclared)]);
        assert_eq!(active_codes(&r), vec!["A4"], "{r:?}");
        assert_eq!(r[0].line, 3);
        assert!(
            r[0].message.contains("`engine` is named in no"),
            "{}",
            r[0].message
        );

        // ...and a one-name table opts a crate in, so every other lock in
        // that crate must be tabled too.
        let r = report_for(&[
            ("crates/obs/src/a.rs", "// lint: lock-order: engine\n"),
            (
                "crates/obs/src/b.rs",
                "pub fn f(tracer: &Mutex<T>) {\n    let t = tracer.lock().unwrap();\n    drop(t);\n}\n",
            ),
        ]);
        assert_eq!(active_codes(&r), vec!["A4"], "{r:?}");
        assert_eq!((r[0].file.as_str(), r[0].line), ("crates/obs/src/b.rs", 2));
        assert!(
            r[0].message.contains("`tracer` is named in no"),
            "{}",
            r[0].message
        );
    }

    #[test]
    fn a4_accepts_declared_nesting_and_detects_cycles() {
        let clean = report_for(&[(
            "crates/bwpartd/src/server.rs",
            "
// lint: lock-order: engine < table
fn lock_engine(m: &Mutex<Engine>) -> MutexGuard<'_, Engine> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
pub fn handle(engine: &Mutex<Engine>) {
    lock_engine(engine).snapshot();
}
pub struct Engine;
impl Engine {
    pub fn snapshot(&self) { let g = table.lock().unwrap(); drop(g); }
}
",
        )]);
        assert!(active_codes(&clean).is_empty(), "{clean:?}");

        // Sequential temporaries never overlap, so a one-name table is
        // enough for match-arm-style dispatch.
        let sequential = report_for(&[(
            "crates/bwpartd/src/server.rs",
            r#"
// lint: lock-order: engine
pub fn dispatch(engine: &Mutex<E>) {
    lock_engine(engine).run_epoch();
    lock_engine(engine).snapshot();
    let eng = lock_engine(engine);
    drop(eng);
}
fn lock_engine(engine: &Mutex<E>) -> MutexGuard<'_, E> {
    engine.lock().unwrap_or_else(|poison| poison.into_inner())
}
"#,
        )]);
        assert!(active_codes(&sequential).is_empty(), "{sequential:?}");

        let cyclic = report_for(&[
            (
                "crates/bwpartd/src/a.rs",
                "// lint: lock-order: engine < table\n",
            ),
            (
                "crates/bwpartd/src/b.rs",
                "// lint: lock-order: table < engine\n",
            ),
        ]);
        assert!(active_codes(&cyclic).contains(&"A4"), "{cyclic:?}");
        assert!(
            active(&cyclic).iter().any(|f| f.message.contains("cycle")),
            "{cyclic:?}"
        );
    }

    #[test]
    fn a4_non_declaring_crates_are_out_of_scope() {
        let r = report_for(&[(
            "crates/loomlite/src/sched.rs",
            "
pub fn lock_inner(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> { m.lock().unwrap() }
pub fn run(m: &Mutex<Inner>) { lock_inner(m).poke(); }
pub struct Inner;
impl Inner {
    pub fn poke(&self) { let g = other.lock().unwrap(); drop(g); }
}
",
        )]);
        assert!(active_codes(&r).is_empty(), "{r:?}");
    }
}
