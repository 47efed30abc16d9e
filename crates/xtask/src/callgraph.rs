//! Approximate workspace call graph over the [`crate::symbols`] index.
//!
//! Edges are resolved from token-level call sites with tiered heuristics —
//! no type inference, no macro expansion — tuned to be useful for the
//! transitive rules in `analyze.rs` without drowning them in false edges:
//!
//! 1. **Typed method calls** (`recv.m()` with a known receiver type):
//!    candidate owners are every capitalized ident in the type text (so a
//!    `MutexGuard<'_, Engine>` still reaches `Engine`), matched against
//!    `impl` owners *and* trait names (so `&dyn Scheduler` dispatch fans
//!    out to every `impl Scheduler for _`). A known type with no workspace
//!    match is a std/external type: **no edge**, rather than a guess.
//! 2. **Untyped method calls**: fall back to every same-named workspace
//!    method, unless the name is a common std method
//!    (`STD_METHODS`) or the candidate set is implausibly large
//!    (`FALLBACK_CAP`) — both signs the receiver is probably not a
//!    workspace type.
//! 3. **Path calls**: `Self::f` → the enclosing impl's owner;
//!    `crate::…::f` → the caller's crate; a leading segment naming a
//!    workspace crate (`bwpart_core::…`, normalized) → that crate;
//!    `Type::f` → owner match. `use` imports give crate hints for bare
//!    names, and `pub use … as alias` re-exports retry under the
//!    underlying name.
//! 4. **Bare direct calls**: same file, then same crate, then
//!    workspace-unique by name.
//! 5. **Macro-argument calls** (`m!(f(x))`): resolved like bare direct
//!    calls — conservative edges, since the macro may invoke them.
//!
//! `#[cfg(test)]` functions never resolve as callees of non-test callers,
//! and vendored code (`vendor/`) is outside the index entirely — both are
//! documented soundness boundaries, not accidents.

use std::collections::{BTreeMap, VecDeque};

use crate::symbols::{normalize_crate, type_idents, CallKind, CallSite, Workspace};

/// Method names so common on std types that an *untyped* receiver must not
/// fall back to same-named workspace methods (tier 2 veto).
const STD_METHODS: [&str; 84] = [
    "push",
    "push_back",
    "pop",
    "pop_front",
    "insert",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "next",
    "clone",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "contains",
    "contains_key",
    "remove",
    "clear",
    "extend",
    "drain",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "round",
    "to_string",
    "to_vec",
    "collect",
    "into_iter",
    "filter",
    "fold",
    "sum",
    "count",
    "rev",
    "take",
    "skip",
    "zip",
    "chain",
    "last",
    "first",
    "join",
    "trim",
    "parse",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "into",
    "from",
    "fmt",
    "write",
    "flush",
    "lock",
    "send",
    "recv",
    "retain",
    "resize",
    "truncate",
    "reserve",
    "entry",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "notify_all",
    "notify_one",
];

/// Tier-2 fallback gives up past this many same-named candidates: a name
/// this popular is almost certainly a std idiom, not a workspace method.
const FALLBACK_CAP: usize = 12;

/// One resolved edge: the callee node plus where the call site sits (in
/// the *caller's* file) for path reports.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index into [`CallGraph::nodes`].
    pub to: usize,
    /// Byte span of the call site in the caller's file.
    pub call_span: (usize, usize),
    /// Index of the originating call site in the caller's `calls` list,
    /// so rules can recover per-site argument/binding facts.
    pub call_idx: usize,
}

/// The workspace call graph. Nodes are `(file index, fn index)` pairs into
/// the backing [`Workspace`].
pub struct CallGraph {
    /// Node → (file, fn) in the workspace.
    pub nodes: Vec<(usize, usize)>,
    /// Reverse lookup.
    node_of: BTreeMap<(usize, usize), usize>,
    /// Outgoing resolved edges per node.
    pub edges: Vec<Vec<Edge>>,
}

/// BFS result with parent tracking, for "how does the danger get reached"
/// path reports.
pub struct Reach {
    /// Depth per node (`None` = unreached). The origin has depth 0.
    pub depth: Vec<Option<usize>>,
    /// The edge that first reached each node: `(parent node, call span in
    /// the parent's file)`.
    pub parent: Vec<Option<(usize, (usize, usize))>>,
    /// Nodes in visit order (origin first).
    pub order: Vec<usize>,
}

impl CallGraph {
    /// Build the graph for a whole indexed workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut nodes = Vec::new();
        let mut node_of = BTreeMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for fj in 0..file.fns.len() {
                node_of.insert((fi, fj), nodes.len());
                nodes.push((fi, fj));
            }
        }
        // Name index over non-test fns (callers in tests may still resolve
        // test helpers via the same-file tier below).
        let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (fj, f) in file.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, fj));
            }
        }
        // Re-export table: alias → underlying name (workspace-wide).
        let mut reexports: BTreeMap<&str, &str> = BTreeMap::new();
        for file in &ws.files {
            for imp in &file.imports {
                if imp.reexport {
                    if let Some(under) = imp.path.last() {
                        if under != &imp.alias {
                            reexports.insert(imp.alias.as_str(), under.as_str());
                        }
                    }
                }
            }
        }

        let mut edges = vec![Vec::new(); nodes.len()];
        for (fi, file) in ws.files.iter().enumerate() {
            for (fj, f) in file.fns.iter().enumerate() {
                let node = node_of[&(fi, fj)];
                for (ci, call) in f.calls.iter().enumerate() {
                    let mut targets = resolve(ws, &by_name, fi, fj, call);
                    if targets.is_empty() {
                        if let Some(&under) = reexports.get(call.name.as_str()) {
                            let retry = CallSite {
                                name: under.to_string(),
                                ..call.clone()
                            };
                            targets = resolve(ws, &by_name, fi, fj, &retry);
                        }
                    }
                    for (tf, tj) in targets {
                        // A non-test caller never reaches #[cfg(test)] code.
                        if ws.files[tf].fns[tj].in_test && !f.in_test {
                            continue;
                        }
                        // Self-recursion adds nothing to reachability.
                        if (tf, tj) == (fi, fj) {
                            continue;
                        }
                        edges[node].push(Edge {
                            to: node_of[&(tf, tj)],
                            call_span: call.span,
                            call_idx: ci,
                        });
                    }
                }
            }
        }
        CallGraph {
            nodes,
            node_of,
            edges,
        }
    }

    /// The node index for a `(file, fn)` pair.
    pub fn node(&self, file: usize, f: usize) -> Option<usize> {
        self.node_of.get(&(file, f)).copied()
    }

    /// Breadth-first reachability from `origin`, bounded by `max_depth`
    /// call hops, with parent tracking.
    pub fn reach(&self, origin: usize, max_depth: usize) -> Reach {
        let mut depth = vec![None; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        depth[origin] = Some(0);
        queue.push_back(origin);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            let d = depth[n].unwrap_or(0);
            if d >= max_depth {
                continue;
            }
            for e in &self.edges[n] {
                if depth[e.to].is_none() {
                    depth[e.to] = Some(d + 1);
                    parent[e.to] = Some((n, e.call_span));
                    queue.push_back(e.to);
                }
            }
        }
        Reach {
            depth,
            parent,
            order,
        }
    }
}

impl Reach {
    /// The chain of nodes from the origin to `node` (inclusive), following
    /// first-reach parents.
    pub fn path_to(&self, node: usize) -> Vec<usize> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some((p, _)) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// Resolve one call site to candidate `(file, fn)` targets (tiers 1–5).
fn resolve(
    ws: &Workspace,
    by_name: &BTreeMap<&str, Vec<(usize, usize)>>,
    fi: usize,
    fj: usize,
    call: &CallSite,
) -> Vec<(usize, usize)> {
    let caller = &ws.files[fi].fns[fj];
    let same_named: &[(usize, usize)] = by_name
        .get(call.name.as_str())
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    if same_named.is_empty() {
        return Vec::new();
    }
    let owner_or_trait_matches = |cands: &[String], (tf, tj): (usize, usize)| -> bool {
        let f = &ws.files[tf].fns[tj];
        f.owner
            .as_deref()
            .is_some_and(|o| cands.iter().any(|c| c == o))
            || f.trait_name
                .as_deref()
                .is_some_and(|t| cands.iter().any(|c| c == t))
    };

    // Where does a type ident used in the caller's file live? An explicit
    // `use` names its crate; an unimported type is local (or prelude, which
    // never names a workspace type). This keeps a workspace type that
    // deliberately shadows a std name (loomlite's `Mutex`) from matching
    // receivers typed as the *std* `Mutex` in other crates.
    let ident_home = |ident: &str| -> Option<String> {
        let imp = ws.files[fi].imports.iter().find(|im| im.alias == ident)?;
        match imp.path.first().map(String::as_str) {
            Some("crate") | Some("self") | Some("super") => Some(ws.files[fi].crate_name.clone()),
            Some(first) => Some(normalize_crate(first)),
            None => None,
        }
    };

    match call.kind {
        CallKind::Method => {
            if let Some(ty) = &call.recv_ty {
                // Tier 1: typed receiver, filtered by each matched type
                // ident's home crate.
                let cands = type_idents(ty);
                return same_named
                    .iter()
                    .copied()
                    .filter(|&t| owner_or_trait_matches(&cands, t))
                    .filter(|&(tf, tj)| {
                        let tgt = &ws.files[tf].fns[tj];
                        [tgt.owner.as_deref(), tgt.trait_name.as_deref()]
                            .into_iter()
                            .flatten()
                            .filter(|n| cands.iter().any(|c| c == *n))
                            .any(|n| match ident_home(n) {
                                Some(home) => ws.files[tf].crate_name == home,
                                None => ws.files[tf].crate_name == ws.files[fi].crate_name,
                            })
                    })
                    .collect();
            }
            // Tier 2: untyped fallback, heavily vetoed.
            if STD_METHODS.contains(&call.name.as_str()) {
                return Vec::new();
            }
            let methods: Vec<(usize, usize)> = same_named
                .iter()
                .copied()
                .filter(|&(tf, tj)| {
                    let f = &ws.files[tf].fns[tj];
                    f.has_self || f.owner.is_some()
                })
                .collect();
            if methods.is_empty() || methods.len() > FALLBACK_CAP {
                return Vec::new();
            }
            methods
        }
        CallKind::Direct | CallKind::Macro => {
            let path: &[String] = &call.path;
            if let Some(first) = path.first() {
                // Tier 3: qualified paths.
                if first == "Self" {
                    if let Some(owner) = caller.owner.clone() {
                        return same_named
                            .iter()
                            .copied()
                            .filter(|&t| owner_or_trait_matches(std::slice::from_ref(&owner), t))
                            .collect();
                    }
                    return Vec::new();
                }
                if first == "crate" || first == "self" || first == "super" {
                    return same_named
                        .iter()
                        .copied()
                        .filter(|&(tf, _)| ws.files[tf].crate_name == ws.files[fi].crate_name)
                        .collect();
                }
                let as_crate = normalize_crate(first);
                if ws.files.iter().any(|f| f.crate_name == as_crate) {
                    return same_named
                        .iter()
                        .copied()
                        .filter(|&(tf, _)| ws.files[tf].crate_name == as_crate)
                        .collect();
                }
                // `Type::assoc(...)` — the last segment before the name is
                // the owner candidate when capitalized.
                let ty_seg = path
                    .last()
                    .filter(|s| s.chars().next().is_some_and(char::is_uppercase));
                if let Some(ty) = ty_seg {
                    return same_named
                        .iter()
                        .copied()
                        .filter(|&t| owner_or_trait_matches(std::slice::from_ref(ty), t))
                        .collect();
                }
                // Known std path roots never name workspace modules.
                if matches!(
                    first.as_str(),
                    "std"
                        | "core"
                        | "alloc"
                        | "mem"
                        | "ptr"
                        | "cmp"
                        | "fmt"
                        | "io"
                        | "fs"
                        | "env"
                        | "process"
                        | "time"
                        | "thread"
                        | "iter"
                        | "slice"
                        | "str"
                        | "f64"
                        | "f32"
                        | "u64"
                        | "usize"
                ) {
                    return Vec::new();
                }
                // Anything else (`protocol::encode(...)`) is a local
                // module path: restrict to the caller's crate — modules
                // never cross crates without the crate name leading.
                return same_named
                    .iter()
                    .copied()
                    .filter(|&(tf, _)| ws.files[tf].crate_name == ws.files[fi].crate_name)
                    .collect();
            }
            // Bare names. Tier: import hint first.
            for imp in &ws.files[fi].imports {
                if imp.alias == call.name {
                    if let Some(seg0) = imp.path.first() {
                        let hinted = normalize_crate(seg0);
                        let hits: Vec<(usize, usize)> = same_named
                            .iter()
                            .copied()
                            .filter(|&(tf, _)| ws.files[tf].crate_name == hinted)
                            .collect();
                        if !hits.is_empty() {
                            return hits;
                        }
                    }
                }
            }
            // Tier 4: same file → same crate → workspace-unique.
            let free: Vec<(usize, usize)> = same_named
                .iter()
                .copied()
                .filter(|&(tf, tj)| !ws.files[tf].fns[tj].has_self)
                .collect();
            let same_file: Vec<(usize, usize)> =
                free.iter().copied().filter(|&(tf, _)| tf == fi).collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let same_crate: Vec<(usize, usize)> = free
                .iter()
                .copied()
                .filter(|&(tf, _)| ws.files[tf].crate_name == ws.files[fi].crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            if free.len() == 1 {
                return free;
            }
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileFacts;
    use crate::tokens::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(p, s)| FileFacts::extract(p, &SourceFile::analyze(s)))
                .collect(),
        }
    }

    fn node_named(ws: &Workspace, g: &CallGraph, name: &str) -> usize {
        for (n, &(fi, fj)) in g.nodes.iter().enumerate() {
            if ws.files[fi].fns[fj].name == name {
                return n;
            }
        }
        panic!("no fn named {name}");
    }

    fn reaches(ws: &Workspace, g: &CallGraph, from: &str, to: &str) -> bool {
        let r = g.reach(node_named(ws, g, from), 8);
        r.depth[node_named(ws, g, to)].is_some()
    }

    #[test]
    fn typed_method_and_free_calls_resolve() {
        let w = ws(&[(
            "crates/mc/src/controller.rs",
            "
pub struct Controller { dram: DramSim }
pub struct DramSim;
impl DramSim { pub fn probe(&self) { helper(); } }
impl Controller { pub fn tick(&mut self) { self.dram.probe(); } }
fn helper() {}
",
        )]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "tick", "probe"));
        assert!(reaches(&w, &g, "tick", "helper"));
    }

    #[test]
    fn trait_object_dispatch_fans_out() {
        let w = ws(&[(
            "crates/mc/src/sched.rs",
            "
pub trait Scheduler { fn pick(&self); }
pub struct FrFcfs;
pub struct Rr;
impl Scheduler for FrFcfs { fn pick(&self) { fr_leaf(); } }
impl Scheduler for Rr { fn pick(&self) { rr_leaf(); } }
fn fr_leaf() {}
fn rr_leaf() {}
pub fn drive(s: &dyn Scheduler) { s.pick(); }
",
        )]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "drive", "fr_leaf"));
        assert!(reaches(&w, &g, "drive", "rr_leaf"));
    }

    #[test]
    fn cross_crate_path_calls_resolve_by_crate_name() {
        let w = ws(&[
            (
                "crates/core/src/solver.rs",
                "pub fn solve() { leaf(); }\nfn leaf() {}\n",
            ),
            (
                "crates/bwpartd/src/engine.rs",
                "pub fn run_epoch() { bwpart_core::solver::solve(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "run_epoch", "solve"));
        assert!(reaches(&w, &g, "run_epoch", "leaf"));
    }

    #[test]
    fn cfg_test_callees_are_masked_for_live_callers() {
        let w = ws(&[(
            "crates/core/src/lib.rs",
            "
pub fn live() { helper(); }

#[cfg(test)]
mod tests {
    fn helper() {}
}
",
        )]);
        let g = CallGraph::build(&w);
        assert!(!reaches(&w, &g, "live", "helper"));
    }

    #[test]
    fn std_method_names_do_not_fall_back() {
        let w = ws(&[(
            "crates/core/src/lib.rs",
            "
pub struct Queue;
impl Queue { pub fn push(&mut self) { secret(); } }
fn secret() {}
pub fn caller(q: &mut UnknownExternal) { q.push(); }
",
        )]);
        let g = CallGraph::build(&w);
        // `q`'s type is known but not a workspace type: no edge, and the
        // STD_METHODS veto would also refuse the untyped fallback.
        assert!(!reaches(&w, &g, "caller", "push"));
    }

    #[test]
    fn reexport_alias_retries_underlying_name() {
        let w = ws(&[
            (
                "crates/core/src/lib.rs",
                "pub use detail::renamed_impl as public_name;\npub mod detail {}\n",
            ),
            (
                "crates/core/src/detail.rs",
                "pub fn renamed_impl() { leaf(); }\nfn leaf() {}\n",
            ),
            (
                "crates/bwpartd/src/main.rs",
                "pub fn entry() { public_name(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "entry", "renamed_impl"));
    }

    #[test]
    fn nested_closures_keep_calls_in_the_enclosing_fn() {
        let w = ws(&[(
            "crates/mc/src/lib.rs",
            "
pub fn hot() {
    let work = |x: u64| inner_leaf(x);
    work(3);
}
fn inner_leaf(_x: u64) {}
",
        )]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "hot", "inner_leaf"));
    }

    #[test]
    fn self_calls_resolve_to_enclosing_impl() {
        let w = ws(&[(
            "crates/dram/src/lib.rs",
            "
pub struct Timing;
impl Timing {
    pub fn outer(&self) { Self::assoc(); }
    fn assoc() { leaf(); }
}
fn leaf() {}
",
        )]);
        let g = CallGraph::build(&w);
        assert!(reaches(&w, &g, "outer", "leaf"));
    }

    #[test]
    fn path_report_reconstructs_the_chain() {
        let w = ws(&[(
            "crates/mc/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let origin = node_named(&w, &g, "a");
        let r = g.reach(origin, 8);
        let c = node_named(&w, &g, "c");
        let path: Vec<&str> = r
            .path_to(c)
            .into_iter()
            .map(|n| {
                let (fi, fj) = g.nodes[n];
                w.files[fi].fns[fj].name.as_str()
            })
            .collect();
        assert_eq!(path, vec!["a", "b", "c"]);
        assert_eq!(r.depth[c], Some(2));
    }
}
