//! bwpart-audit: the repository's one static-analysis pass
//! (`cargo xtask lint`).
//!
//! A dependency-free **token-level** pass over `crates/*/src` plus the
//! vendored `vendor/{rayon,mio}/src` that enforces the repository's
//! model-safety rules. It deliberately avoids rustc internals:
//! [`crate::lex`] produces spanned tokens (raw strings, nested block
//! comments, char/lifetime ambiguity and doc comments handled in the
//! lexer, so none of them can leak into rule matching) and
//! [`crate::tokens`] adds brace-matched structure with item/fn boundaries.
//! Each file is lexed and structured **once**; that one
//! [`crate::tokens::SourceFile`] feeds the per-file rules
//! ([`crate::engine`]), the `UNSAFE_AUDIT.md` site count, and the
//! workspace symbol index ([`crate::symbols`]) behind the call graph and
//! the interprocedural rules ([`crate::analyze`]). `#[cfg(test)]` items are
//! masked out. The rules are type-blind heuristics tuned to this codebase;
//! anything flagged can be suppressed with an explicit, reasoned
//! annotation attached to the site (same line, the comment block above, or
//! above the attributes/header of the annotated item):
//!
//! ```text
//! // lint: allow(R1): reason the reviewer should read
//! ```
//!
//! # Rules
//!
//! * **R1** — no `unwrap()` / `expect()` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` in non-test library code. Model code must
//!   surface bad inputs as `ModelError`, not aborts.
//! * **R2** — no `==` / `!=` against floating-point literals and no bare
//!   `.partial_cmp(...)` calls. Ordering goes through `f64::total_cmp`;
//!   tolerance comparisons go through `bwpart_core::contracts`.
//! * **R4** — no `#[allow(clippy::...)]` without a justification comment
//!   (a plain `//` comment attached to the attribute).
//! * **R5** — in `bwpart-experiments`, no hand-rolled `.step()` calls:
//!   experiment code must advance the simulator through `CmpSystem::run`
//!   so event-driven fast-forward applies to every figure/table
//!   reproduction uniformly.
//! * **R6** — every `Ordering::Relaxed` / `Ordering::AcqRel` use needs a
//!   justification comment naming the happens-before edge it relies on
//!   (or why none is needed): a comment containing `hb:` or
//!   `happens-before` attached to the site. SeqCst/Acquire/Release need
//!   no annotation.
//! * **R7** — no `static mut` anywhere; and inside the vendored crates
//!   (`vendor/rayon`, `vendor/mio`), no direct `std::sync` /
//!   `std::thread` references outside `shim.rs`: they construct every
//!   synchronization primitive through the loomlite-aliased shim module
//!   so model runs cover the real code.
//! * **R8** — every `unsafe` site (block, impl, fn, trait) needs a
//!   `// SAFETY:` comment attached, and every file containing unsafe code
//!   must be registered with a matching (token-accurate) site count in
//!   `UNSAFE_AUDIT.md`.
//! * **R10** — in `crates/core` and `crates/bwpartd`, `match`es whose
//!   patterns name `PartitionScheme` / `Scheme` / `ErrorCode` must stay
//!   exhaustive: no `_` wildcard or lowercase catch-all binding arms, so a
//!   newly added scheme variant or error code forces a review at every
//!   dispatch site instead of silently falling through.
//! * **R11** — unit safety: additive/comparison arithmetic must not mix
//!   `*_cycles`, `*_ns` and share-fraction (`*_share` / `*_frac`)
//!   identifiers without an explicit conversion call (`ns_to_cycles`
//!   etc.); `*` and `/` are exempt because that is how conversions are
//!   written.
//! * **R12** — feature-gate consistency: `obs_*!` macro call sites must
//!   live in crates whose `Cargo.toml` wires the `trace` feature through
//!   to `bwpart-obs` (either a `trace = ["bwpart-obs/trace", ...]`
//!   feature or the dep feature enabled directly), so tracing builds
//!   actually reach those sites.
//! * **A1–A4** — the interprocedural rules (hot-path purity, contract
//!   reachability, unit flow across calls, workspace lock order); see
//!   [`crate::analyze`].
//!
//! Rules R1–R5 and R10–R12 run over `crates/*/src`; R6 and R8 over both
//! `crates/*/src` and `vendor/{rayon,mio}/src`; R7's `static mut` ban
//! runs everywhere and its shim-only part over `vendor/{rayon,mio}/src`;
//! R10 is scoped to `crates/core` and `crates/bwpartd`. The vendored
//! crates stay outside the call graph, so A1–A4 see `crates/*/src` only.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analyze;
use crate::engine::{self, FileCtx};
use crate::symbols::{FileFacts, Workspace};
use crate::tokens::SourceFile;

/// One enforced rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No panicking constructs in non-test library code.
    R1,
    /// No float-literal equality or bare `partial_cmp`.
    R2,
    /// Clippy suppressions need a justification comment.
    R4,
    /// Experiments must drive the simulator via `CmpSystem::run`, not
    /// per-cycle `.step()` loops.
    R5,
    /// Relaxed/AcqRel atomic orderings need a happens-before
    /// justification comment.
    R6,
    /// No `static mut`; vendored pool code must reach `std::sync` /
    /// `std::thread` only through its shim module.
    R7,
    /// `unsafe` sites need `// SAFETY:` comments and an `UNSAFE_AUDIT.md`
    /// inventory entry.
    R8,
    /// `match`es over `PartitionScheme` / `ErrorCode` in the scheme and
    /// service crates must list every variant (no wildcard arms).
    R10,
    /// No mixing `_cycles` / `_ns` / share-fraction identifiers in
    /// additive or comparison arithmetic without an explicit conversion.
    R11,
    /// `obs_*!` call sites require `trace` feature wiring to `bwpart-obs`
    /// in the owning crate's manifest.
    R12,
    /// Hot-path purity: no allocation/lock/blocking/registry resolution in
    /// or reachable from the hot simulator fns.
    A1,
    /// Share/allocation producers must certify directly or via a callee.
    A2,
    /// Unit-suffix discipline across call boundaries.
    A3,
    /// Workspace lock order: declared tables vs observed nesting, acyclic.
    A4,
}

impl Rule {
    /// All rules, report order.
    pub const ALL: [Rule; 14] = [
        Rule::R1,
        Rule::R2,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R10,
        Rule::R11,
        Rule::R12,
        Rule::A1,
        Rule::A2,
        Rule::A3,
        Rule::A4,
    ];

    /// Short code used in reports and `lint: allow(...)` annotations.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R10 => "R10",
            Rule::R11 => "R11",
            Rule::R12 => "R12",
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::A4 => "A4",
        }
    }

    /// Parse a rule code (`"R7"`, `"A2"`) back to the rule.
    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// One-line description for `cargo xtask lint --rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::R1 => "no unwrap()/expect()/panic!/unreachable! in non-test library code",
            Rule::R2 => "no ==/!= against float literals, no bare partial_cmp (use total_cmp)",
            Rule::R4 => "#[allow(clippy::...)] requires a justification comment",
            Rule::R5 => {
                "bwpart-experiments must drive the simulator via CmpSystem::run, \
                         not per-cycle .step() loops (fast-forward must apply everywhere)"
            }
            Rule::R6 => {
                "Ordering::Relaxed / Ordering::AcqRel requires a justification \
                         comment naming the happens-before edge (`hb:` or `happens-before`)"
            }
            Rule::R7 => {
                "no static mut; vendored crates must construct sync primitives only \
                         through their loomlite-aliased shim module (no std::sync/std::thread)"
            }
            Rule::R8 => {
                "unsafe sites need a // SAFETY: comment and a matching entry in \
                         the UNSAFE_AUDIT.md inventory"
            }
            Rule::R10 => {
                "matches over PartitionScheme/ErrorCode in crates/core and \
                         crates/bwpartd must list every variant — no `_`/binding \
                         catch-all arms"
            }
            Rule::R11 => {
                "no mixing _cycles / _ns / share-fraction identifiers in +,-, \
                         or comparison arithmetic without an explicit conversion call"
            }
            Rule::R12 => {
                "obs_*! call sites must live in crates whose Cargo.toml wires \
                         the `trace` feature through to bwpart-obs"
            }
            Rule::A1 => {
                "no allocation, locking, blocking or registry resolution in or \
                         reachable from hot simulator fns (crates/dram, crates/mc, \
                         the crates/cmp run loop)"
            }
            Rule::A2 => {
                "pub fns returning shares (Vec<f64>, or owned Allocation/MultiAllocation/\
                         CoordOutcome/Decision) in bwpart-core, bwpart-mc or bwpartd must \
                         certify them directly or via a callee"
            }
            Rule::A3 => "unit-suffixed values must not cross call boundaries into another unit",
            Rule::A4 => {
                "lock nesting, in one fn or across calls, must follow the declared \
                         `// lint: lock-order:` tables, which must name every lock"
            }
        }
    }

    /// Long-form rationale for `cargo xtask lint --explain <code>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::R1 => {
                "The model is a library first: experiments, the CLI, bwpartd and the \
                 benches all call into it with inputs the library cannot vet at compile \
                 time. A panic in shared code aborts every one of those harnesses at \
                 once, so fallible paths must return ModelError instead. Tests \
                 (#[cfg(test)] items) may panic freely. Suppress a deliberate abort \
                 with `// lint: allow(R1): <reason>` attached to the call."
            }
            Rule::R2 => {
                "Float equality is not transitive under rounding, and partial_cmp \
                 silently returns None for NaN — both have produced wrong ordering \
                 decisions in bandwidth-share code. Use f64::total_cmp for ordering \
                 and contracts::approx_eq for tolerance checks. The rule matches the \
                 token stream, so float literals inside strings or comments are inert."
            }
            Rule::R4 => {
                "A clippy suppression with no reason rots: nobody can tell whether it \
                 is still needed or what it was hiding. Attach a plain `//` comment \
                 (not a doc comment) with the reason to the attribute."
            }
            Rule::R5 => {
                "bwpart-experiments reproduces the paper's figures; hand-rolled \
                 .step() loops bypass CmpSystem::run's event-driven fast-forward, so \
                 a figure could silently measure a different simulator configuration \
                 than the rest of the suite. Drive the system through run()."
            }
            Rule::R6 => {
                "Relaxed and AcqRel orderings are correct only relative to a specific \
                 happens-before edge; an unexplained one cannot be reviewed or \
                 model-checked. Name the edge in an attached comment containing `hb:` \
                 or `happens-before` (or state why no edge is needed). SeqCst, \
                 Acquire and Release carry their own contract and need no comment."
            }
            Rule::R7 => {
                "static mut is UB-prone (aliased &mut) and invisible to the loomlite \
                 model checker — use atomics, locks, or OnceLock. Inside the vendored \
                 crates every sync/thread primitive must come from crate::shim so the \
                 loomlite build swaps in its controlled versions; naming std::sync or \
                 std::thread directly would leave an unexplored interleaving."
            }
            Rule::R8 => {
                "Every unsafe site needs a reviewable obligation: a // SAFETY: \
                 comment attached to the site, plus a per-file, token-accurate site \
                 count registered in UNSAFE_AUDIT.md. The audit cross-check fails \
                 when counts drift, so new unsafe cannot land unnoticed."
            }
            Rule::R10 => {
                "Adding a PartitionScheme variant or an ErrorCode must force a \
                 review at every dispatch over those enums — the certification and \
                 wire-protocol story depends on it. A `_` or lowercase binding arm \
                 in a match whose patterns name PartitionScheme/Scheme/ErrorCode \
                 would adopt new variants silently, so such matches must list every \
                 variant (or-patterns are fine). String-keyed matches are exempt: \
                 the rule looks at arm patterns, not expressions."
            }
            Rule::R11 => {
                "Cycle counts, wall-clock nanoseconds and share fractions are all \
                 bare numbers in this codebase; adding or comparing across units is \
                 a silent correctness bug (the F2 class of drift). The rule \
                 classifies operand identifiers by suffix (_cycles/_ns/_share/_frac) \
                 and flags +,-,== and ordering comparisons that mix classes. \
                 Multiplication and division are exempt — that is how conversions \
                 like ns_to_cycles are written, and a conversion call renames the \
                 unit (its name ends in the target suffix)."
            }
            Rule::R12 => {
                "The obs_*! macros compile to no-ops unless the `trace` feature \
                 reaches bwpart-obs. A call site in a crate that does not forward \
                 the feature (`trace = [\"bwpart-obs/trace\", ...]` or the dep \
                 feature enabled directly) can never fire, which is a silent \
                 observability hole: builds with --features trace would still skip \
                 it. Wire the feature through the owning crate's Cargo.toml."
            }
            Rule::A1 => {
                "A1 — hot-path purity, transitively.\n\
                 \n\
                 The simulator's per-cycle functions (tick/step/issue/sched_probe/\n\
                 probe/… in crates/dram and crates/mc), the CMP run loop\n\
                 (run_exact/run_ahead/step_from/step_llc and the cache\n\
                 access/access_if_hit in crates/cmp)\n\
                 and the SoA timing core's per-tick surface (bank_earliest/grid_clear/\n\
                 raw_probe/… in crates/dram/src/soa.rs) run millions of times per\n\
                 simulated second. From each hot fn, its own body and every function\n\
                 reachable within 8 call hops is scanned for danger sites — fresh\n\
                 allocation (Vec::new, vec![], collect, with_capacity, Box::new, …),\n\
                 lock acquisition, blocking calls (sleep, recv, wait) and per-event\n\
                 metrics-registry resolution (.counter()/.gauge()/.histogram(), which\n\
                 hash a name and take the registry's lock; pre-resolve handles at\n\
                 attach time and touch them through the zero-cost obs_*! macros).\n\
                 Container *growth* (.push, .extend, .reserve) is only flagged for the\n\
                 SoA core, which is stack-only by contract — amortized growth of\n\
                 caller-owned scratch is the honest idiom elsewhere (that is what\n\
                 enqueue is for).\n\
                 \n\
                 The finding is anchored at the danger site and reports the full call\n\
                 path from the hot fn, so the fix target is visible: hoist the\n\
                 allocation to construction time, pre-resolve the handle, or break\n\
                 the call edge. Suppress with `lint: allow(A1): <reason>` at the\n\
                 danger site only when the path is provably cold (e.g. a once-per-run\n\
                 panic path)."
            }
            Rule::A2 => {
                "A2 — certification must be reachable.\n\
                 \n\
                 Eq. 9-11 of the paper require share vectors to lie on the capped\n\
                 simplex. Every public fn in crates/core, crates/mc (the epoch\n\
                 policy) and crates/bwpartd returning shares — a bare Vec<f64>, or an\n\
                 owned Allocation / MultiAllocation / CoordOutcome / Decision wrapper\n\
                 — must certify its output (validate_shares /\n\
                 ensures_simplex / ensures_capped / Allocation::certified /\n\
                 invariant!) in its own body or in a callee reached within 3 call\n\
                 hops, so the certification is part of the producer, not the caller's\n\
                 homework. Reference-returning accessors (`&Allocation`) are exempt:\n\
                 they hand out an already-certified value.\n\
                 \n\
                 A2 fails only when *no* certification is reachable: the shares\n\
                 leave the crate unchecked, and the paper's simplex invariant\n\
                 (shares sum to 1, each within [floor, cap]) is unenforced at the\n\
                 boundary. Fix by certifying in the producer or a callee; suppress\n\
                 with `lint: allow(A2): <reason>` when the return type is\n\
                 incidentally Vec<f64> but not a share vector."
            }
            Rule::A3 => {
                "A3 — unit discipline across call boundaries.\n\
                 \n\
                 Rule R11 checks unit-suffix mixing (`_cycles` vs `_ns` vs\n\
                 share-fraction names) inside one expression. A3 checks the two\n\
                 places R11 cannot see: (1) an argument whose name carries one unit\n\
                 flowing into a parameter whose name carries another —\n\
                 `probe(now_ns)` against `fn probe(now_cycles: u64)` is a latent\n\
                 time-base bug even though each file is locally consistent; and\n\
                 (2) a call result bound against the callee's promise —\n\
                 `let t_ns = ns_to_cycles(...)` binds a cycles value to an ns name.\n\
                 \n\
                 Conversion functions (`*_to_*`) are exempt on the argument side:\n\
                 feeding `_ns` into `ns_to_cycles` is the point. Only calls that\n\
                 resolve to exactly one workspace target are checked, so heuristic\n\
                 resolution cannot produce cross-target false positives. Suppress\n\
                 with `lint: allow(A3): <reason>` at the call site."
            }
            Rule::A4 => {
                "A4 — the workspace lock graph.\n\
                 \n\
                 bwpartd's shards and tables share mutexes; taking them in different\n\
                 orders on different paths is the classic deadlock, and deadlocks do\n\
                 not respect fn or file boundaries. Lock orders are declared in-source\n\
                 (`// lint: lock-order: outer < inner`; a single name declares one\n\
                 lock) and every table merges into one workspace order. Nesting is\n\
                 observed two ways: a lock taken while a guard is live in the same fn\n\
                 (a let-bound guard lives to the end of its block, a temporary to the\n\
                 end of its statement), and a lock taken in any function reached\n\
                 within 4 call hops from a call made while a guard is held.\n\
                 \n\
                 Findings: an observed nesting that inverts the declared order; an\n\
                 observed nesting between locks no table relates (declare the pair —\n\
                 silent nesting is how the next deadlock ships); a re-entrant\n\
                 acquisition of the same lock (std::sync::Mutex self-deadlocks); a\n\
                 lock named in no table, so adding a lock forces the table (and the\n\
                 reviewer) to place it; and any cycle in the combined\n\
                 declared+observed graph. The rule runs for bwpartd and for every\n\
                 crate that declares a table — opting in is the declaration itself.\n\
                 Suppress with `lint: allow(A4): <reason>` at the inner acquisition."
            }
        }
    }
}

/// One finding: a rule violated at a specific source span.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file (unix separators).
    pub file: String,
    /// 1-based line number of the anchor.
    pub line: usize,
    /// 1-based byte column of the anchor.
    pub col: usize,
    /// 1-based line number of the span end.
    pub end_line: usize,
    /// 1-based byte column just past the span end.
    pub end_col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line the anchor sits on.
    pub snippet: String,
    /// Suppressed by an attached `lint: allow(<code>)` marker?
    pub suppressed: bool,
    /// The marker comment's text, when suppressed.
    pub justification: Option<String>,
}

impl Finding {
    /// A finding anchored at byte `span` of the file `f` at `path`. This is
    /// the one place suppression is resolved: an attached comment (see
    /// [`SourceFile::attached_comment_text`]) carrying
    /// `lint: allow(<code>)` marks the finding suppressed and keeps its
    /// text as the justification.
    pub(crate) fn new(
        path: &str,
        f: &SourceFile,
        rule: Rule,
        span: (usize, usize),
        message: String,
    ) -> Finding {
        let plain = format!("lint: allow({})", rule.code());
        let tight = format!("lint:allow({})", rule.code());
        let marker =
            f.attached_comment_text(span.0, &|c: &str| c.contains(&plain) || c.contains(&tight));
        let (line, col) = line_col(f.src, span.0);
        let (end_line, end_col) = line_col(f.src, span.1);
        Finding {
            file: path.to_string(),
            line,
            col,
            end_line,
            end_col,
            rule,
            message,
            snippet: snippet_at(f.src, span.0),
            suppressed: marker.is_some(),
            justification: marker.map(|m| m.trim().to_string()),
        }
    }

    /// A position-only finding (used by the inventory cross-check, which
    /// reports on markdown rather than lexed Rust).
    fn at(file: &str, line: usize, rule: Rule, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            col: 1,
            end_line: line,
            end_col: 1,
            rule,
            message,
            snippet: String::new(),
            suppressed: false,
            justification: None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.code(),
            self.message
        )
    }
}

/// 1-based (line, byte-col) of byte offset `pos` in `src`.
pub(crate) fn line_col(src: &str, pos: usize) -> (usize, usize) {
    let pos = pos.min(src.len());
    let before = &src.as_bytes()[..pos];
    let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    (line, pos - line_start + 1)
}

/// The trimmed source line containing byte offset `pos` (truncated so
/// reports and JSON stay readable).
fn snippet_at(src: &str, pos: usize) -> String {
    let pos = pos.min(src.len());
    let bytes = src.as_bytes();
    let start = bytes[..pos]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let end = bytes[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| pos + p)
        .unwrap_or(bytes.len());
    let line = src.get(start..end).unwrap_or("").trim();
    let mut out: String = line.chars().take(160).collect();
    if out.len() < line.len() {
        out.push('…');
    }
    out
}

/// One source file to check.
#[derive(Debug, Clone)]
pub(crate) struct Input {
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// The file's source text.
    pub src: String,
    /// Which rules apply, from the path and the owning crate's manifest.
    pub ctx: FileCtx,
}

impl Input {
    /// An input at `path`; `obs_wired` is the owning crate's `trace`
    /// wiring (R12; `None` skips the rule).
    pub(crate) fn new(path: String, src: String, obs_wired: Option<bool>) -> Input {
        let ctx = FileCtx::for_path(&path, obs_wired);
        Input { path, src, ctx }
    }
}

/// The single pass over pre-read sources: each file is lexed and
/// structured once, the per-file rules and the unsafe-site count run on
/// it, and the non-vendored files are indexed for A1–A4. `audit` is the
/// `UNSAFE_AUDIT.md` text to cross-check (`None` skips the cross-check).
/// Returns **all** findings — suppressed ones included, with their
/// justification — in (path, line, col, rule) order.
pub(crate) fn check(inputs: &[Input], audit: Option<&str>) -> Vec<Finding> {
    let files: Vec<SourceFile> = inputs.iter().map(|i| SourceFile::analyze(&i.src)).collect();
    let mut out = Vec::new();
    let mut unsafe_counts: Vec<(String, usize)> = Vec::new();
    let mut ws = Workspace::default();
    let mut indexed = Vec::new();
    for (input, f) in inputs.iter().zip(&files) {
        out.extend(engine::check(&input.path, f, &input.ctx));
        let sites = engine::unsafe_sites(f);
        if sites > 0 {
            unsafe_counts.push((input.path.clone(), sites));
        }
        if !input.ctx.vendor {
            ws.files.push(FileFacts::extract(&input.path, f));
            indexed.push(f);
        }
    }
    if let Some(audit) = audit {
        out.extend(check_unsafe_inventory(audit, &unsafe_counts));
    }
    out.extend(analyze::check(&ws, &indexed));
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// Collect `.rs` files under `dir`, recursively.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every `crates/*/src/**/*.rs` under `root`, plus (when present)
/// the vendored crates under `vendor/{rayon,mio}/src`, in path order. Each
/// crate's `Cargo.toml` is read once, for its `trace` wiring (R12).
fn collect(root: &Path) -> io::Result<Vec<Input>> {
    let mut dirs: Vec<(PathBuf, Option<bool>)> = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.join("src").is_dir() {
            // crates/obs defines the macros; every other crate must wire the
            // feature through its own manifest to call them.
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
            let wired = dir.ends_with("obs") || obs_trace_wired(&manifest);
            dirs.push((dir.join("src"), Some(wired)));
        }
    }
    for vendored in ["rayon", "mio"] {
        let src = root.join("vendor").join(vendored).join("src");
        if src.is_dir() {
            dirs.push((src, None));
        }
    }
    let mut files: Vec<(PathBuf, Option<bool>)> = Vec::new();
    for (dir, wired) in dirs {
        let mut found = Vec::new();
        collect_rs(&dir, &mut found)?;
        files.extend(found.into_iter().map(|p| (p, wired)));
    }
    files.sort();
    files
        .into_iter()
        .map(|(path, wired)| {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            let src = fs::read_to_string(&path)?;
            Ok(Input::new(rel.replace('\\', "/"), src, wired))
        })
        .collect()
}

/// Check the workspace at `root` against every rule, cross-checking the
/// `UNSAFE_AUDIT.md` inventory (a missing file is an empty inventory).
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let inputs = collect(root)?;
    let audit = fs::read_to_string(root.join("UNSAFE_AUDIT.md")).unwrap_or_default();
    Ok(check(&inputs, Some(&audit)))
}

/// Cross-check actual per-file `unsafe` site counts against the
/// `UNSAFE_AUDIT.md` inventory (`audit` is its text; empty when the file
/// does not exist). Inventory lines look like:
///
/// ```text
/// - `crates/loomlite/src/sync.rs` — 4 — UnsafeCell access behind the guard
/// ```
fn check_unsafe_inventory(audit: &str, actual: &[(String, usize)]) -> Vec<Finding> {
    let audit_file = "UNSAFE_AUDIT.md";
    let mut out = Vec::new();
    let mut inventory: Vec<(String, usize, usize)> = Vec::new(); // (path, count, line)
    for (idx, line) in audit.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("- `") else {
            continue;
        };
        let Some((path, tail)) = rest.split_once('`') else {
            continue;
        };
        let count = tail
            .split(['—', '-'])
            .map(str::trim)
            .find(|s| !s.is_empty())
            .and_then(|s| s.parse::<usize>().ok());
        match count {
            Some(n) => inventory.push((path.to_string(), n, idx + 1)),
            None => out.push(Finding::at(
                audit_file,
                idx + 1,
                Rule::R8,
                format!(
                    "malformed inventory line for `{path}`: expected \
                     `- \u{60}path\u{60} — <count> — <description>`"
                ),
            )),
        }
    }
    for (file, count) in actual {
        match inventory.iter().find(|(p, _, _)| p == file) {
            None => out.push(Finding::at(
                file,
                1,
                Rule::R8,
                format!(
                    "{count} unsafe site(s) not registered in {audit_file}: add \
                     `- \u{60}{file}\u{60} — {count} — <description>`"
                ),
            )),
            Some((_, registered, audit_line)) if registered != count => out.push(Finding::at(
                audit_file,
                *audit_line,
                Rule::R8,
                format!(
                    "inventory lists {registered} unsafe site(s) for `{file}` \
                     but the source has {count}: update the entry"
                ),
            )),
            Some(_) => {}
        }
    }
    for (path, _, audit_line) in &inventory {
        if !actual.iter().any(|(f, _)| f == path) {
            out.push(Finding::at(
                audit_file,
                *audit_line,
                Rule::R8,
                format!(
                    "stale inventory entry: `{path}` has no unsafe sites (or no \
                     longer exists); remove the line"
                ),
            ));
        }
    }
    out
}

/// Does this crate manifest wire the `trace` feature through to
/// `bwpart-obs` (R12)? Accepts either shape:
///
/// ```text
/// bwpart-obs = { workspace = true, features = ["trace"] }
/// ```
///
/// or a forwarding feature:
///
/// ```text
/// [features]
/// trace = ["bwpart-obs/trace"]
/// ```
fn obs_trace_wired(manifest: &str) -> bool {
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with("bwpart-obs") && t.contains("features") && t.contains("\"trace\"") {
            return true;
        }
        let assigned = t
            .strip_prefix("trace")
            .map(|rest| rest.trim_start().starts_with('='))
            .unwrap_or(false);
        if assigned && t.contains("bwpart-obs/trace") {
            return true;
        }
    }
    false
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The human-readable report: one `path:line:col: [code] message` line per
/// active finding, then a summary line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings.iter().filter(|f| !f.suppressed) {
        out.push_str(&format!("{f}\n"));
    }
    let suppressed = findings.iter().filter(|f| f.suppressed).count();
    let active = findings.len() - suppressed;
    if active == 0 {
        out.push_str(&format!(
            "bwpart-audit: clean, {suppressed} suppressed (rules R1, R2, R4-R8, R10-R12 and \
             A1-A4 over crates/*/src + vendor/{{rayon,mio}}/src)\n"
        ));
    } else {
        out.push_str(&format!(
            "bwpart-audit: {active} violation(s), {suppressed} suppressed\n"
        ));
    }
    out
}

/// Render the findings as the stable machine-readable report consumed by
/// CI artifacts (`cargo xtask lint --json`). Schema (version 1):
///
/// ```json
/// {
///   "schema_version": 1,
///   "tool": "bwpart-audit",
///   "rules": [{"code": "R1", "summary": "..."}, ...],
///   "findings": [{
///     "rule": "R1", "path": "crates/...", "line": 3, "col": 13,
///     "end_line": 3, "end_col": 19, "snippet": "...", "message": "...",
///     "suppressed": false, "justification": null
///   }, ...],
///   "counts": {"total": 0, "active": 0, "suppressed": 0}
/// }
/// ```
pub fn render_json(findings: &[Finding]) -> String {
    let rules: Vec<String> = Rule::ALL
        .iter()
        .map(|rule| {
            format!(
                "    {{\"code\": \"{}\", \"summary\": \"{}\"}}",
                rule.code(),
                json_escape(rule.describe())
            )
        })
        .collect();
    let items: Vec<String> = findings
        .iter()
        .map(|v| {
            let justification = match &v.justification {
                Some(j) => format!("\"{}\"", json_escape(j)),
                None => "null".to_string(),
            };
            format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
                 \"end_line\": {}, \"end_col\": {}, \"snippet\": \"{}\", \
                 \"message\": \"{}\", \"suppressed\": {}, \"justification\": {}}}",
                v.rule.code(),
                json_escape(&v.file),
                v.line,
                v.col,
                v.end_line,
                v.end_col,
                json_escape(&v.snippet),
                json_escape(&v.message),
                v.suppressed,
                justification,
            )
        })
        .collect();
    let suppressed = findings.iter().filter(|v| v.suppressed).count();
    format!(
        "{{\n  \"schema_version\": 1,\n  \"tool\": \"bwpart-audit\",\n  \"rules\": [\n{}\n  ],\n  \
         \"findings\": [\n{}{}  ],\n  \"counts\": {{\"total\": {}, \"active\": {}, \
         \"suppressed\": {}}}\n}}\n",
        rules.join(",\n"),
        items.join(",\n"),
        if items.is_empty() { "" } else { "\n" },
        findings.len(),
        findings.len() - suppressed,
        suppressed
    )
}

/// SARIF 2.1.0 report for code-scanning upload. Suppressed findings are
/// carried as `suppressions: [{kind: "inSource"}]`, matching how SARIF
/// consumers expect in-source waivers to be represented.
pub fn render_sarif(findings: &[Finding]) -> String {
    let rules: Vec<String> = Rule::ALL
        .iter()
        .map(|rule| {
            format!(
                "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
                 \"fullDescription\": {{\"text\": \"{}\"}}}}",
                rule.code(),
                json_escape(rule.describe()),
                json_escape(rule.explain()),
            )
        })
        .collect();
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            let rule_index = Rule::ALL.iter().position(|r| *r == f.rule).unwrap_or(0);
            let level = if f.suppressed { "note" } else { "error" };
            let suppressions = if f.suppressed {
                ",\n          \"suppressions\": [{\"kind\": \"inSource\"}]"
            } else {
                ""
            };
            format!(
                "        {{\n          \"ruleId\": \"{}\",\n          \"ruleIndex\": {rule_index},\n          \
                 \"level\": \"{level}\",\n          \"message\": {{\"text\": \"{}\"}},\n          \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}, \"endLine\": {}, \
                 \"endColumn\": {}}}}}}}]{suppressions}\n        }}",
                f.rule.code(),
                json_escape(&f.message),
                json_escape(&f.file),
                f.line,
                f.col,
                f.end_line,
                f.end_col,
            )
        })
        .collect();
    format!(
        "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {{\n      \"tool\": {{\n        \
         \"driver\": {{\n          \"name\": \"bwpart-audit\",\n          \
         \"informationUri\": \"https://example.invalid/bwpart\",\n          \
         \"rules\": [\n{}\n          ]\n        }}\n      }},\n      \"results\": [\n{}{}      \
         ]\n    }}\n  ]\n}}\n",
        rules.join(",\n"),
        results.join(",\n"),
        if results.is_empty() { "" } else { "\n" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Every finding for one in-memory file (no inventory cross-check).
    fn check_one(path: &str, src: &str) -> Vec<Finding> {
        check(&[Input::new(path.into(), src.into(), None)], None)
    }

    /// The active findings for one in-memory file.
    fn lint(path: &str, src: &str) -> Vec<Finding> {
        check_one(path, src)
            .into_iter()
            .filter(|v| !v.suppressed)
            .collect()
    }

    fn codes(vs: &[Finding]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule.code()).collect()
    }

    #[test]
    fn r1_catches_seeded_unwrap_and_panic() {
        let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    let y = x.unwrap();
    if y == 0 { panic!("zero"); }
    y
}
"#;
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R1", "R1"]);
        assert_eq!(vs[0].line, 3);
        assert_eq!(vs[1].line, 4);
    }

    #[test]
    fn r1_allows_annotated_sites_and_unwrap_or() {
        let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    // lint: allow(R1): length checked two lines up
    let y = x.unwrap();
    let z = x.unwrap_or(7);
    y + z + x.unwrap_or_else(|| 9)
}
"#;
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn r1_skips_cfg_test_modules_and_strings() {
        let src = r#"
pub fn describe() -> &'static str {
    "call .unwrap() and panic! at will"
}

#[cfg(test)]
mod tests {
    #[test]
    fn boom() {
        super::describe().to_string().parse::<u32>().unwrap();
        panic!("fine in tests");
    }
}
"#;
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn r2_catches_partial_cmp_and_float_eq() {
        let src = r#"
pub fn f(a: f64, b: f64) -> bool {
    let _ = a.partial_cmp(&b);
    a == 0.5 || b != 1e-9
}
"#;
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R2", "R2", "R2"]);
    }

    #[test]
    fn r2_permits_total_cmp_int_eq_and_fn_definitions() {
        let src = r#"
pub fn partial_cmp_like(a: f64, b: f64, n: usize) -> bool {
    let _ = a.total_cmp(&b);
    n == 3 && a <= 0.5 && b >= 1.0
}
"#;
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn r4_requires_justification() {
        let bad = "#[allow(clippy::too_many_arguments)]\npub fn f() {}\n";
        let vs = lint("fixture.rs", bad);
        assert_eq!(codes(&vs), vec!["R4"]);
        let good = "// the signature mirrors the paper's Eq. 7 terms\n\
                    #[allow(clippy::too_many_arguments)]\npub fn f() {}\n";
        assert!(lint("fixture.rs", good).is_empty());
    }

    #[test]
    fn r5_catches_step_loops_in_experiments_only() {
        let src = r#"
pub fn measure(sys: &mut CmpSystem) {
    for _ in 0..1_000 {
        sys.step();
    }
}
"#;
        let vs = lint("crates/experiments/src/lib.rs", src);
        assert_eq!(codes(&vs), vec!["R5"]);
        assert_eq!(vs[0].line, 4);
        // The same code is fine outside bwpart-experiments (e.g. the cmp
        // crate's own per-cycle reference implementation).
        assert!(lint("crates/cmp/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r5_allows_annotated_sites_run_calls_and_tests() {
        let src = r#"
pub fn fine(sys: &mut CmpSystem) {
    sys.run(1_000);
    // lint: allow(R5): cross-checking one cycle against the reference
    sys.step();
    let stepper = 3;
    let _ = stepper;
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_step() {
        let mut sys = super::mk();
        sys.step();
    }
}
"#;
        assert!(lint("crates/experiments/src/lib.rs", src).is_empty());
    }

    #[test]
    fn comments_and_raw_strings_do_not_leak_into_code() {
        let src = r##"
// a.unwrap() in a comment is fine
/* block with panic! and == 0.5 */
pub fn f() -> &'static str {
    r#"raw with .unwrap() and == 1.0"#
}
"##;
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn r6_catches_unjustified_relaxed_and_acqrel() {
        let src = r"
pub fn f(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::AcqRel);
    c.load(Ordering::Relaxed)
}
";
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R6", "R6"]);
        assert_eq!(vs[0].line, 3);
        assert_eq!(vs[1].line, 4);
    }

    #[test]
    fn r6_accepts_hb_justifications_and_seqcst() {
        let src = r"
pub fn f(c: &AtomicUsize) -> usize {
    // hb: pairs with the Release store in publish(); the counter is the
    // only memory read through this edge.
    c.fetch_add(1, Ordering::AcqRel);
    c.load(Ordering::SeqCst);
    // the happens-before edge is the scope join below
    c.load(Ordering::Relaxed)
}
";
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn r6_ignores_bare_identifiers_and_comments() {
        let src = r#"
// Ordering::Relaxed in a comment is fine
pub fn f(relaxed: bool) -> &'static str {
    let Relaxed = 3;
    let _ = (relaxed, Relaxed);
    "Ordering::Relaxed in a string is fine"
}
"#;
        // lint: allow(R7) not needed: fixture has no static mut.
        let vs = lint("fixture.rs", src);
        assert!(vs.is_empty(), "unexpected: {vs:?}");
    }

    #[test]
    fn r7_catches_static_mut() {
        let src = r"
static mut COUNTER: usize = 0;
pub fn f() {}
";
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R7"]);
        assert_eq!(vs[0].line, 2);
        // Immutable statics are fine.
        let ok = "static COUNTER: AtomicUsize = AtomicUsize::new(0);\n";
        assert!(lint("fixture.rs", ok).is_empty());
    }

    #[test]
    fn r7_vendor_bans_std_sync_outside_shim() {
        let src = r"
use std::sync::Mutex;
pub fn f() {
    let _ = std::thread::available_parallelism();
}
";
        let vs = lint("vendor/rayon/src/lib.rs", src);
        assert_eq!(codes(&vs), vec!["R7", "R7"]);
        // The shim module itself is the one sanctioned construction point.
        assert!(lint("vendor/rayon/src/shim.rs", src).is_empty());
        // Non-sync std paths stay allowed in vendor code.
        let ok = "pub fn g() { let _ = std::env::var(\"X\"); }\n";
        assert!(lint("vendor/rayon/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn r8_requires_safety_comment() {
        let bad = r"
pub fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
";
        let vs = lint("fixture.rs", bad);
        assert_eq!(codes(&vs), vec!["R8"]);
        assert_eq!(vs[0].line, 3);
        let good = r"
pub fn f(p: *const u32) -> u32 {
    // SAFETY: caller contract guarantees p is valid and aligned, and no
    // mutable alias exists for the duration of the read.
    unsafe { *p }
}
";
        assert!(lint("fixture.rs", good).is_empty());
    }

    #[test]
    fn r8_safety_comment_chain_stops_at_blank_lines() {
        let src = r"
// SAFETY: this comment is separated from the site by a blank line and
// must NOT count.

pub unsafe fn f() {}
";
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R8"]);
    }

    #[test]
    fn unsafe_sites_are_counted_outside_tests_only() {
        let src = r#"
// SAFETY: fixture.
unsafe impl Send for X {}
pub fn f(p: *const u32) -> u32 {
    "unsafe in a string does not count";
    // SAFETY: fixture.
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    fn g(p: *const u32) -> u32 {
        unsafe { *p }
    }
}
"#;
        assert_eq!(engine::unsafe_sites(&SourceFile::analyze(src)), 2);
    }

    #[test]
    fn unsafe_in_macro_bodies_counts_once_at_definition() {
        // Pinned semantics: one site per occurrence in the macro_rules!
        // definition; expansions add nothing (the token only exists at the
        // definition). Two arms with unsafe + one plain fn = 3 sites, no
        // matter how many call sites exist.
        let src = r#"
macro_rules! read_raw {
    ($p:expr) => {
        // SAFETY: caller contract pins $p valid for reads.
        unsafe { *$p }
    };
    ($p:expr, $n:expr) => {
        // SAFETY: caller contract pins $p..$p+$n valid for reads.
        unsafe { core::slice::from_raw_parts($p, $n) }
    };
}

pub fn f(p: *const u32) -> u32 {
    let a = read_raw!(p);
    let b = read_raw!(p);
    // SAFETY: fixture.
    let c = unsafe { *p };
    a + b + c
}
"#;
        assert_eq!(engine::unsafe_sites(&SourceFile::analyze(src)), 3);
        // And R8 holds each definition-site occurrence to the same
        // SAFETY-comment standard as ordinary code.
        assert!(lint("crates/core/src/m.rs", src).is_empty());
    }

    #[test]
    fn inventory_cross_check_flags_all_mismatch_kinds() {
        let audit = "\
# Unsafe audit

- `crates/a/src/lib.rs` — 2 — cell access
- `crates/b/src/lib.rs` — 1 — stale entry
- `crates/c/src/lib.rs` — not-a-number — malformed
";
        let actual = vec![
            ("crates/a/src/lib.rs".to_string(), 3), // count mismatch
            ("crates/d/src/lib.rs".to_string(), 1), // unregistered
        ];
        let vs = check_unsafe_inventory(audit, &actual);
        let mut kinds: Vec<String> = vs.iter().map(|v| v.message.clone()).collect();
        kinds.sort();
        assert_eq!(vs.len(), 4, "got: {vs:?}");
        assert!(vs.iter().all(|v| v.rule == Rule::R8));
        assert!(kinds.iter().any(|m| m.contains("malformed")));
        assert!(kinds.iter().any(|m| m.contains("stale")));
        assert!(kinds.iter().any(|m| m.contains("not registered")));
        assert!(kinds.iter().any(|m| m.contains("update the entry")));
    }

    #[test]
    fn inventory_matches_cleanly() {
        let audit = "- `crates/a/src/lib.rs` — 2 — guard-protected cell access\n";
        let actual = vec![("crates/a/src/lib.rs".to_string(), 2)];
        assert!(check_unsafe_inventory(audit, &actual).is_empty());
        // No audit file + no unsafe code is also clean.
        assert!(check_unsafe_inventory("", &[]).is_empty());
    }

    #[test]
    fn string_line_continuations_do_not_shift_comment_attribution() {
        // Regression (F2 bug class): a `\`-newline continuation inside a
        // string literal used to desync the scanner's line counter,
        // attributing every later comment to the wrong line — so allow
        // markers and SAFETY/hb justifications below the string silently
        // stopped matching. The lexer keeps the whole literal one spanned
        // token, so line attribution cannot drift.
        let src = "
pub fn f() -> String {
    format!(\"a long message that wraps \\
             onto a second line\")
}

pub fn g(x: Option<u32>) -> u32 {
    // lint: allow(R1): fixture reason
    x.unwrap()
}
";
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_covers_multi_line_comment_blocks() {
        let src = r"
pub fn f(x: Option<u32>) -> u32 {
    // lint: allow(R1): the marker line wraps onto a second comment
    // line, and the site sits right under the block.
    x.unwrap()
}
";
        assert!(lint("fixture.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_scanner() {
        let src = "
pub fn f<'a>(x: &'a Option<u32>) -> u32 {
    x.unwrap()
}
";
        let vs = lint("fixture.rs", src);
        assert_eq!(codes(&vs), vec!["R1"]);
        assert_eq!(vs[0].line, 3);
    }

    // ---- F2 regression pins: the false-positive classes the regex-era
    // scanner mis-handled must stay clean under the token engine. ----

    #[test]
    fn raw_strings_with_rule_triggers_lint_clean() {
        let src = r###"
pub fn help() -> &'static str {
    r#"try .unwrap() or panic!("x"); compare == 0.5; take Ordering::Relaxed"#
}
pub fn fenced() -> &'static str {
    r##"even "# inside"# stays a string: unsafe { static mut X }"##
}
"###;
        let vs = lint("fixture.rs", src);
        assert!(vs.is_empty(), "raw-string leak: {vs:?}");
    }

    #[test]
    fn nested_block_comments_around_unsafe_lint_clean() {
        let src = r"
/* outer /* unsafe { *p } still inside the nested comment */ and
   the outer comment continues: static mut Y, Ordering::AcqRel */
pub fn f() {}
";
        let vs = lint("fixture.rs", src);
        assert!(vs.is_empty(), "nested-comment leak: {vs:?}");
    }

    #[test]
    fn backslash_continuation_strings_stay_one_token() {
        // Rule triggers on the continued line are string content, and the
        // lines after the literal still resolve attachments correctly.
        let src = "
pub fn f(x: Option<u32>) -> (String, u32) {
    let s = \"first line \\
             .unwrap() == 0.5 panic! unsafe\".to_string();
    // lint: allow(R1): pinned — attribution after the continuation
    (s, x.unwrap())
}
";
        let vs = lint("fixture.rs", src);
        assert!(vs.is_empty(), "continuation desync: {vs:?}");
    }

    #[test]
    fn allow_above_multi_line_attribute_attaches_to_the_item() {
        // Span-based attachment: the marker sits above a multi-line
        // attribute; line-adjacency matching could never reach the fn.
        let src = r#"
// lint: allow(A2): fixture — shares are certified by the caller
#[allow(
    clippy::needless_pass_by_value,
)]
// the wrapped signature mirrors the paper's Eq. 7 terms
pub fn shares(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}
"#;
        assert!(lint("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r10_and_r11_run_through_the_pass() {
        let src = r#"
pub fn exponent(s: PartitionScheme) -> Option<f64> {
    match s {
        PartitionScheme::Equal => Some(0.0),
        _ => None,
    }
}
pub fn overdue(now_cycles: u64, deadline_ns: u64) -> bool {
    now_cycles > deadline_ns
}
"#;
        // R10 is tied to the model crates; R11 runs everywhere.
        let vs = lint("crates/core/src/schemes.rs", src);
        assert_eq!(codes(&vs), vec!["R10", "R11"]);
        let vs = lint("crates/cmp/src/system.rs", src);
        assert_eq!(codes(&vs), vec!["R11"]);
    }

    #[test]
    fn obs_trace_wiring_detection() {
        assert!(obs_trace_wired(
            "[dependencies]\nbwpart-obs = { workspace = true, features = [\"trace\"] }\n"
        ));
        assert!(obs_trace_wired(
            "[dependencies]\nbwpart-obs = { workspace = true }\n\n[features]\ntrace = [\"bwpart-obs/trace\"]\n"
        ));
        assert!(!obs_trace_wired(
            "[dependencies]\nbwpart-obs = { workspace = true }\n"
        ));
        // A `trace` feature that does not forward to bwpart-obs is not wiring.
        assert!(!obs_trace_wired("[features]\ntrace = []\n"));
    }

    #[test]
    fn violations_carry_spans_and_snippets() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let vs = lint("fixture.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[0].col, 7);
        assert_eq!(vs[0].end_line, 2);
        assert_eq!(vs[0].end_col, 13);
        assert_eq!(vs[0].snippet, "x.unwrap()");
        let shown = vs[0].to_string();
        assert!(shown.starts_with("fixture.rs:2:7: [R1]"), "{shown}");
    }

    #[test]
    fn json_report_is_schema_stable() {
        let vs = vec![
            Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 3,
                col: 7,
                end_line: 3,
                end_col: 13,
                rule: Rule::R1,
                message: "a \"quoted\" message".into(),
                snippet: "x.unwrap()".into(),
                suppressed: false,
                justification: None,
            },
            Finding {
                file: "crates/b/src/lib.rs".into(),
                line: 9,
                col: 1,
                end_line: 9,
                end_col: 2,
                rule: Rule::A4,
                message: "m".into(),
                snippet: "s".into(),
                suppressed: true,
                justification: Some("// lint: allow(A4): fixture".into()),
            },
        ];
        let json = render_json(&vs);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"tool\": \"bwpart-audit\""));
        assert!(json.contains("\"rule\": \"R1\""));
        assert!(json.contains("\"path\": \"crates/a/src/lib.rs\""));
        assert!(json.contains("\"line\": 3, \"col\": 7"));
        assert!(json.contains("a \\\"quoted\\\" message"));
        assert!(json.contains("\"suppressed\": true"));
        assert!(json.contains("\"justification\": \"// lint: allow(A4): fixture\""));
        assert!(json.contains("\"counts\": {\"total\": 2, \"active\": 1, \"suppressed\": 1}"));
        // Every rule appears in the catalogue section.
        for rule in Rule::ALL {
            assert!(json.contains(&format!("\"code\": \"{}\"", rule.code())));
        }
        // The empty report still carries the full schema.
        let empty = render_json(&[]);
        assert!(empty.contains("\"counts\": {\"total\": 0, \"active\": 0, \"suppressed\": 0}"));
    }

    #[test]
    fn reports_parse_and_carry_the_full_catalogue() {
        let vs = check_one(
            "crates/core/src/solver.rs",
            "pub fn raw_shares(n: usize) -> Vec<f64> { vec![0.0; n] }\n",
        );
        assert_eq!(codes(&vs), vec!["A2"]);
        let j: Value = serde_json::from_str(&render_json(&vs)).expect("json parses");
        assert_eq!(j["tool"].as_str(), Some("bwpart-audit"));
        assert_eq!(j["counts"]["active"].as_f64(), Some(1.0));
        let sarif: Value = serde_json::from_str(&render_sarif(&vs)).expect("sarif parses");
        assert_eq!(sarif["version"].as_str(), Some("2.1.0"));
        let results = sarif["runs"][0]["results"].as_array();
        assert_eq!(results.map(Vec::len), Some(1));
        let rules = sarif["runs"][0]["tool"]["driver"]["rules"].as_array();
        assert_eq!(rules.map(Vec::len), Some(Rule::ALL.len()));
        // The empty report is still well-formed.
        assert!(serde_json::from_str::<Value>(&render_sarif(&[])).is_ok());
        assert!(serde_json::from_str::<Value>(&render_json(&[])).is_ok());
        assert!(render_text(&[]).contains("clean, 0 suppressed"));
        assert!(render_text(&vs).contains("1 violation(s), 0 suppressed"));
    }

    #[test]
    fn every_rule_has_an_explanation_and_parses_back() {
        for rule in Rule::ALL {
            assert!(!rule.explain().is_empty());
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
        }
        assert_eq!(Rule::from_code("R99"), None);
    }
}
