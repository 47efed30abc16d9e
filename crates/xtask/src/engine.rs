//! The per-file rules: R1, R2, R4–R8 and R10–R12, evaluated over the
//! [`crate::tokens`] layer.
//!
//! Every rule works on spanned tokens and brace-matched structure — never
//! on raw text — so string literals, raw strings, nested block comments
//! and char/lifetime ambiguity can not produce false positives by
//! construction. Each check records a hit anchored at a token; [`check`]
//! turns the hits into [`Finding`]s, which resolves `lint: allow(<code>)`
//! markers against the span-based comment-attachment model.

use crate::lex::{Delim, TokenKind};
use crate::lint::{Finding, Rule};
use crate::tokens::SourceFile;

/// Where a file sits in the workspace — controls which rules run.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Vendored file (`vendor/{rayon,mio}/src/**`): only R6/R7/R8 apply.
    pub vendor: bool,
    /// A vendored crate's shim module itself (exempt from the R7
    /// std-reference ban).
    pub shim: bool,
    /// `crates/experiments` (R5).
    pub experiments: bool,
    /// Match-exhaustiveness scope (R10): `crates/core`, `crates/bwpartd`.
    pub match_exhaustive: bool,
    /// Whether the owning crate wires the `trace` feature to `bwpart-obs`
    /// (R12). `None` means unknown: the rule is skipped.
    pub obs_wired: Option<bool>,
}

impl FileCtx {
    /// The context of the workspace-relative `path`; `obs_wired` comes
    /// from the owning crate's manifest.
    pub fn for_path(path: &str, obs_wired: Option<bool>) -> FileCtx {
        FileCtx {
            vendor: path.starts_with("vendor/"),
            shim: path.ends_with("/shim.rs"),
            experiments: path.starts_with("crates/experiments/"),
            match_exhaustive: path.starts_with("crates/core/")
                || path.starts_with("crates/bwpartd/"),
            obs_wired,
        }
    }
}

/// One rule hit, anchored at a token.
struct Hit {
    rule: Rule,
    tok: usize,
    message: String,
}

/// Run every applicable per-file rule over `f` (the file at `path`).
pub fn check(path: &str, f: &SourceFile, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_r6(f, &mut out);
    rule_r7_static_mut(f, &mut out);
    rule_r8(f, &mut out);
    if ctx.vendor {
        if !ctx.shim {
            rule_r7_vendor_std(f, &mut out);
        }
    } else {
        rule_r1(f, &mut out);
        rule_r2(f, &mut out);
        rule_r4(f, &mut out);
        rule_r11(f, &mut out);
        if ctx.experiments {
            rule_r5(f, &mut out);
        }
        if ctx.match_exhaustive {
            rule_r10(f, &mut out);
        }
        if ctx.obs_wired == Some(false) {
            rule_r12(f, &mut out);
        }
    }
    out.into_iter()
        .map(|h| {
            let t = &f.tokens[h.tok];
            Finding::new(path, f, h.rule, (t.start, t.end), h.message)
        })
        .collect()
}

/// Count the `unsafe` sites R8 audits (non-test code), token-accurately,
/// for the `UNSAFE_AUDIT.md` cross-check.
///
/// Macro semantics (pinned): an `unsafe` token inside a `macro_rules!`
/// body counts **once per occurrence in the definition**, never per
/// expansion — the audit inventories reviewable source sites, and the
/// reviewable site is the definition (each occurrence there also needs
/// its own `// SAFETY:` comment under R8). Macro *invocations* contribute
/// zero sites: the token does not exist at the call site.
pub fn unsafe_sites(f: &SourceFile) -> usize {
    (0..f.tokens.len())
        .filter(|&i| f.is_ident(i, "unsafe") && !f.in_test(i))
        .count()
}

fn emit(out: &mut Vec<Hit>, rule: Rule, tok: usize, message: String) {
    out.push(Hit { rule, tok, message });
}

/// Is the ident at `i` a called method (`.name(...)`)?
fn is_method_call(f: &SourceFile, i: usize) -> bool {
    f.prev(i).is_some_and(|p| f.is_op(p, "."))
        && f.next(i).is_some_and(|n| f.is_open(n, Delim::Paren))
}

fn rule_r1(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || f.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = f.text(i);
        if matches!(text, "unwrap" | "expect") && is_method_call(f, i) {
            emit(
                out,
                Rule::R1,
                i,
                format!(
                    ".{text}() in library code: return ModelError (or annotate \
                     `// lint: allow(R1): <reason>`)"
                ),
            );
        }
        if matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
            && f.next(i).is_some_and(|n| f.is_op(n, "!"))
            && !f.prev(i).is_some_and(|p| f.is_op(p, "."))
        {
            emit(
                out,
                Rule::R1,
                i,
                format!(
                    "{text}! in library code: return ModelError (or annotate \
                     `// lint: allow(R1): <reason>`)"
                ),
            );
        }
    }
}

/// Is token `i` a float literal, or a `-` immediately followed by one?
fn is_float_at(f: &SourceFile, i: usize) -> bool {
    match f.tokens[i].kind {
        TokenKind::Float => true,
        TokenKind::Op if f.text(i) == "-" => f
            .next(i)
            .is_some_and(|n| f.tokens[n].kind == TokenKind::Float),
        _ => false,
    }
}

fn rule_r2(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) {
            continue;
        }
        if f.is_ident(i, "partial_cmp") && f.prev(i).is_some_and(|p| f.is_op(p, ".")) {
            emit(
                out,
                Rule::R2,
                i,
                "bare .partial_cmp(): use f64::total_cmp for a total order".into(),
            );
            continue;
        }
        if f.tokens[i].kind != TokenKind::Op {
            continue;
        }
        let op = f.text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        let lhs_float = f.prev(i).is_some_and(|p| is_float_at(f, p));
        let rhs_float = f.next(i).is_some_and(|n| is_float_at(f, n));
        if lhs_float || rhs_float {
            let lhs = f.prev(i).map(|p| f.text(p)).unwrap_or("");
            let rhs = f.next(i).map(|n| f.text(n)).unwrap_or("");
            emit(
                out,
                Rule::R2,
                i,
                format!(
                    "float-literal comparison `{lhs} {op} {rhs}`: use \
                     contracts::approx_eq or restructure"
                ),
            );
        }
    }
}

fn rule_r4(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || !f.is_op(i, "#") {
            continue;
        }
        let Some(mut j) = f.next(i) else { continue };
        if f.is_op(j, "!") {
            match f.next(j) {
                Some(n) => j = n,
                None => continue,
            }
        }
        if !f.is_open(j, Delim::Bracket) {
            continue;
        }
        let Some(close) = f.partner[j] else { continue };
        let inner: String = (j + 1..close)
            .filter(|&k| !f.tokens[k].is_comment())
            .map(|k| f.text(k))
            .collect();
        if !inner.contains("allow(clippy::") {
            continue;
        }
        // A plain (non-doc) `//` comment with real content counts as the
        // justification.
        let justified = f.comment_attached(f.tokens[i].start, &|c: &str| {
            c.starts_with("//")
                && !c.starts_with("///")
                && !c.starts_with("//!")
                && c.trim_start_matches('/').trim().len() > 2
        });
        if !justified {
            emit(
                out,
                Rule::R4,
                i,
                "#[allow(clippy::...)] needs a justification comment on the same \
                 or previous line"
                    .into(),
            );
        }
    }
}

fn rule_r5(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if !f.in_test(i) && f.is_ident(i, "step") && is_method_call(f, i) {
            emit(
                out,
                Rule::R5,
                i,
                ".step() in experiment code: advance the simulator via \
                 CmpSystem::run so event-driven fast-forward applies (or \
                 annotate `// lint: allow(R5): <reason>`)"
                    .into(),
            );
        }
    }
}

fn rule_r6(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) {
            continue;
        }
        let text = f.text(i);
        if f.tokens[i].kind != TokenKind::Ident || !matches!(text, "Relaxed" | "AcqRel") {
            continue;
        }
        // Only the path form (`Ordering::Relaxed`) is an ordering use.
        if !f.prev(i).is_some_and(|p| f.is_op(p, "::")) {
            continue;
        }
        let justified = f.comment_attached(f.tokens[i].start, &|c: &str| {
            c.contains("hb:") || c.contains("happens-before")
        });
        if !justified {
            emit(
                out,
                Rule::R6,
                i,
                format!(
                    "Ordering::{text} without a happens-before justification: \
                     add a comment naming the hb: edge (or why none is needed)"
                ),
            );
        }
    }
}

fn rule_r7_static_mut(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        // `'static` lexes as one Lifetime token, so a bare `static` ident
        // here really is the item keyword.
        if !f.in_test(i)
            && f.is_ident(i, "static")
            && f.next(i).is_some_and(|n| f.is_ident(n, "mut"))
        {
            emit(
                out,
                Rule::R7,
                i,
                "static mut is banned: use an atomic, a lock, or OnceLock".into(),
            );
        }
    }
}

fn rule_r7_vendor_std(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || !f.is_ident(i, "std") {
            continue;
        }
        // `crate::std`-style re-export paths are not the real std.
        if f.prev(i).is_some_and(|p| f.is_op(p, "::")) {
            continue;
        }
        let Some(sep) = f.next(i) else { continue };
        if !f.is_op(sep, "::") {
            continue;
        }
        let Some(m) = f.next(sep) else { continue };
        if f.is_ident(m, "sync") || f.is_ident(m, "thread") {
            let module = f.text(m);
            emit(
                out,
                Rule::R7,
                i,
                format!(
                    "direct std::{module} reference in vendored pool code: go through \
                     crate::shim so the loomlite model checker covers this path"
                ),
            );
        }
    }
}

fn rule_r8(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || !f.is_ident(i, "unsafe") {
            continue;
        }
        let justified = f.comment_attached(f.tokens[i].start, &|c: &str| c.contains("SAFETY:"));
        if !justified {
            emit(
                out,
                Rule::R8,
                i,
                "unsafe without a // SAFETY: comment on the same line or the \
                 comment block above"
                    .into(),
            );
        }
    }
}

/// Enum types whose `match`es must stay exhaustive (R10): a wildcard arm
/// would let a newly added scheme variant / error code silently skip
/// certification or wire handling.
const R10_TARGETS: [&str; 3] = ["PartitionScheme", "Scheme", "ErrorCode"];

fn rule_r10(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || !f.is_ident(i, "match") {
            continue;
        }
        // Head: everything to the first top-level `{` (groups opaque).
        let mut cur = f.next(i);
        let mut arms_open = None;
        while let Some(k) = cur {
            match f.tokens[k].kind {
                TokenKind::Open(Delim::Brace) => {
                    arms_open = Some(k);
                    break;
                }
                TokenKind::Open(_) => {
                    cur = f.partner[k].and_then(|c| f.next(c));
                    continue;
                }
                TokenKind::Close(_) => break,
                _ => {}
            }
            cur = f.next(k);
        }
        let Some(arms_open) = arms_open else { continue };
        let Some(arms_close) = f.partner[arms_open] else {
            continue;
        };
        let arms = parse_arms(f, arms_open, arms_close);
        let target = arms.iter().find_map(|arm| {
            arm.all_pattern_tokens.iter().find_map(|&k| {
                let t = f.text(k);
                R10_TARGETS.iter().copied().find(|&target| t == target)
            })
        });
        let Some(target) = target else { continue };
        for arm in &arms {
            for alt in &arm.alternatives {
                // A catch-all alternative is a lone `_` or a lone
                // lowercase binding ident; lone uppercase idents are unit
                // variants / consts, and anything longer is a real pattern.
                if alt.len() != 1 {
                    continue;
                }
                let k = alt[0];
                if f.tokens[k].kind != TokenKind::Ident {
                    continue;
                }
                let text = f.text(k);
                let lone_wild = text == "_"
                    || (text != "true"
                        && text != "false"
                        && text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_lowercase() || c == '_'));
                if lone_wild {
                    emit(
                        out,
                        Rule::R10,
                        k,
                        format!(
                            "non-exhaustive match on {target}: catch-all arm `{text}` \
                             hides newly added variants — list every variant explicitly \
                             so adding one forces a review here"
                        ),
                    );
                }
            }
        }
    }
}

struct Arm {
    /// Every pattern token, including group contents (for target typing).
    all_pattern_tokens: Vec<usize>,
    /// Top-level `|`-separated alternatives; groups appear as their
    /// opening token only (so a lone ident really is lone).
    alternatives: Vec<Vec<usize>>,
}

fn parse_arms(f: &SourceFile, open: usize, close: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut cur = f.next(open).filter(|&k| k < close);
    while let Some(start) = cur {
        let mut all = Vec::new();
        let mut alternatives = vec![Vec::new()];
        let mut in_guard = false;
        let mut k = Some(start);
        // Pattern (and guard) up to the top-level `=>`.
        while let Some(i) = k.filter(|&i| i < close) {
            match f.tokens[i].kind {
                TokenKind::Op if f.text(i) == "=>" => {
                    k = f.next(i);
                    break;
                }
                TokenKind::Op if f.text(i) == "|" && !in_guard => {
                    alternatives.push(Vec::new());
                    k = f.next(i);
                    continue;
                }
                TokenKind::Ident if f.text(i) == "if" && !in_guard => {
                    in_guard = true;
                    k = f.next(i);
                    continue;
                }
                TokenKind::Open(_) => {
                    let end = f.partner[i].unwrap_or(i);
                    if !in_guard {
                        all.extend(i..=end);
                        if let Some(last) = alternatives.last_mut() {
                            last.push(i);
                        }
                    }
                    k = f.next(end);
                    continue;
                }
                _ => {
                    if !in_guard {
                        all.push(i);
                        if let Some(last) = alternatives.last_mut() {
                            last.push(i);
                        }
                    }
                }
            }
            k = f.next(i);
        }
        arms.push(Arm {
            all_pattern_tokens: all,
            alternatives,
        });
        // Expression: a brace block (optionally followed by `,`), or
        // everything to the next top-level `,`.
        match k.filter(|&i| i < close) {
            Some(i) if f.is_open(i, Delim::Brace) => {
                k = f.partner[i].and_then(|c| f.next(c));
                if let Some(c) = k.filter(|&c| c < close) {
                    if f.is_op(c, ",") {
                        k = f.next(c);
                    }
                }
            }
            Some(mut i) => loop {
                if i >= close {
                    k = None;
                    break;
                }
                match f.tokens[i].kind {
                    TokenKind::Op if f.text(i) == "," => {
                        k = f.next(i);
                        break;
                    }
                    TokenKind::Open(_) => {
                        let end = f.partner[i].unwrap_or(i);
                        match f.next(end) {
                            Some(n) => i = n,
                            None => {
                                k = None;
                                break;
                            }
                        }
                    }
                    _ => match f.next(i) {
                        Some(n) => i = n,
                        None => {
                            k = None;
                            break;
                        }
                    },
                }
            },
            None => k = None,
        }
        cur = k.filter(|&i| i < close);
    }
    arms
}

/// R11 unit classes, keyed by the final ident of an operand.
pub(crate) fn unit_class(name: &str) -> Option<&'static str> {
    if name == "cycles" || name == "cycle" || name.ends_with("_cycles") || name.ends_with("_cycle")
    {
        Some("cycles")
    } else if name == "ns" || name.ends_with("_ns") {
        Some("ns")
    } else if name == "share"
        || name == "frac"
        || name.ends_with("_share")
        || name.ends_with("_frac")
        || name.ends_with("_fraction")
    {
        Some("share-fraction")
    } else {
        None
    }
}

/// Operators R11 inspects: additive and comparison operators demand both
/// sides in the same unit. `*` and `/` are exempt — that is how
/// conversions are written.
const R11_OPS: [&str; 10] = ["+", "-", "+=", "-=", "==", "!=", "<", "<=", ">", ">="];

/// Classify the operand ending just before token `op`.
fn classify_before<'a>(f: &SourceFile<'a>, op: usize) -> Option<(&'a str, &'static str)> {
    let p = f.prev(op)?;
    match f.tokens[p].kind {
        TokenKind::Ident => {
            let name = f.text(p);
            Some((name, unit_class(name)?))
        }
        TokenKind::Close(Delim::Paren) => {
            // A call result: classify by the callee's name.
            let open = f.partner[p]?;
            let callee = f.prev(open)?;
            if f.tokens[callee].kind != TokenKind::Ident {
                return None;
            }
            let name = f.text(callee);
            Some((name, unit_class(name)?))
        }
        _ => None,
    }
}

/// Classify the operand starting just after token `op`: walk the
/// path/field/method chain to its final ident.
fn classify_after<'a>(f: &SourceFile<'a>, op: usize) -> Option<(&'a str, &'static str)> {
    let mut a = f.next(op)?;
    if f.is_op(a, "-") {
        a = f.next(a)?;
    }
    if f.tokens[a].kind != TokenKind::Ident {
        return None;
    }
    let mut last = a;
    let mut cur = a;
    while let Some(n) = f.next(cur) {
        match f.tokens[n].kind {
            TokenKind::Op if f.text(n) == "." || f.text(n) == "::" => {
                let Some(seg) = f.next(n) else { break };
                if f.tokens[seg].kind != TokenKind::Ident {
                    break;
                }
                last = seg;
                cur = seg;
            }
            TokenKind::Open(Delim::Paren) => {
                // A call: the chain continues after the group, but the
                // classifying name stays the callee (`ns_to_cycles(x)`).
                let Some(close) = f.partner[n] else { break };
                cur = close;
            }
            _ => break,
        }
    }
    let name = f.text(last);
    Some((name, unit_class(name)?))
}

fn rule_r11(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || f.tokens[i].kind != TokenKind::Op {
            continue;
        }
        let op = f.text(i);
        if !R11_OPS.contains(&op) {
            continue;
        }
        let Some((lhs, lclass)) = classify_before(f, i) else {
            continue;
        };
        let Some((rhs, rclass)) = classify_after(f, i) else {
            continue;
        };
        if lclass != rclass {
            emit(
                out,
                Rule::R11,
                i,
                format!(
                    "unit mismatch: `{lhs}` ({lclass}) {op} `{rhs}` ({rclass}) \
                     without an explicit conversion — convert one side \
                     (e.g. ns_to_cycles / cycles_to_ns) or rename the ident"
                ),
            );
        }
    }
}

/// The zero-cost observability macros R12 tracks.
const R12_OBS_MACROS: [&str; 4] = ["obs_count", "obs_gauge", "obs_hist", "obs_span"];

fn rule_r12(f: &SourceFile, out: &mut Vec<Hit>) {
    for i in 0..f.tokens.len() {
        if f.in_test(i) || f.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let name = f.text(i);
        if R12_OBS_MACROS.contains(&name) && f.next(i).is_some_and(|n| f.is_op(n, "!")) {
            emit(
                out,
                Rule::R12,
                i,
                format!(
                    "{name}! call site in a crate without `trace` feature wiring: \
                     declare `trace = [\"bwpart-obs/trace\"]` under [features] (or \
                     enable the dep feature directly) so tracing builds reach this site"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(src: &str, tweak: impl FnOnce(&mut FileCtx)) -> Vec<Finding> {
        let mut ctx = FileCtx::default();
        tweak(&mut ctx);
        check("fixture.rs", &SourceFile::analyze(src), &ctx)
            .into_iter()
            .filter(|v| !v.suppressed)
            .collect()
    }

    fn codes(vs: &[Finding]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule.code()).collect()
    }

    #[test]
    fn r10_flags_wildcard_on_scheme_match() {
        let src = r#"
pub fn exponent(s: PartitionScheme) -> Option<f64> {
    match s {
        PartitionScheme::Equal => Some(0.0),
        PartitionScheme::Power(a) => Some(a),
        _ => None,
    }
}
"#;
        let vs = run_with(src, |c| c.match_exhaustive = true);
        assert_eq!(codes(&vs), vec!["R10"]);
        assert!(vs[0].message.contains("PartitionScheme"));
    }

    #[test]
    fn r10_flags_lowercase_binding_arm_on_error_code() {
        let src = r#"
pub fn retriable(code: ErrorCode) -> bool {
    match code {
        ErrorCode::NotReady => true,
        other => false,
    }
}
"#;
        let vs = run_with(src, |c| c.match_exhaustive = true);
        assert_eq!(codes(&vs), vec!["R10"]);
        assert!(vs[0].message.contains("`other`"));
    }

    #[test]
    fn r10_accepts_explicit_variants_and_untargeted_matches() {
        let src = r#"
pub fn exponent(s: PartitionScheme) -> Option<f64> {
    match s {
        PartitionScheme::Equal | PartitionScheme::Proportional => Some(1.0),
        PartitionScheme::Power(a) => Some(a),
        PartitionScheme::NoPartitioning => None,
    }
}
pub fn parse(s: &str) -> u8 {
    match s {
        "equal" => 1,
        _ => 0,
    }
}
"#;
        assert!(run_with(src, |c| c.match_exhaustive = true).is_empty());
    }

    #[test]
    fn r10_guard_expressions_do_not_mark_the_match_targeted() {
        // The head/expressions mention ErrorCode, but no *pattern* does:
        // string-keyed dispatch stays out of scope.
        let src = r#"
pub fn to_code(name: &str) -> ErrorCode {
    match name {
        "bad-frame" => ErrorCode::BadFrame,
        _ => ErrorCode::InvalidArgument,
    }
}
"#;
        assert!(run_with(src, |c| c.match_exhaustive = true).is_empty());
    }

    #[test]
    fn r11_flags_cycles_ns_mixing() {
        let src = r#"
pub fn deadline(now_cycles: u64, window_ns: u64) -> bool {
    now_cycles > window_ns
}
"#;
        let vs = run_with(src, |_| {});
        assert_eq!(codes(&vs), vec!["R11"]);
        assert!(vs[0].message.contains("now_cycles"));
        assert!(vs[0].message.contains("window_ns"));
    }

    #[test]
    fn r11_accepts_conversions_and_same_unit_arithmetic() {
        let src = r#"
pub fn ok(a_cycles: u64, b_cycles: u64, w_ns: u64, freq: f64) -> u64 {
    let total_cycles = a_cycles + b_cycles;
    let budget_cycles = ns_to_cycles(w_ns, freq);
    total_cycles + budget_cycles
}
"#;
        assert!(run_with(src, |_| {}).is_empty());
    }

    #[test]
    fn r11_share_vs_time_mixing_is_flagged() {
        let src = r#"
pub fn bad(beta_share: f64, window_ns: f64) -> f64 {
    beta_share + window_ns
}
pub fn fine(beta_share: f64, window_ns: f64) -> f64 {
    beta_share * window_ns
}
"#;
        let vs = run_with(src, |_| {});
        assert_eq!(codes(&vs), vec!["R11"]);
    }

    #[test]
    fn r12_flags_obs_macros_only_when_unwired() {
        let src = r#"
pub fn tick(&mut self) {
    obs_count!(self.obs, ticks);
}
"#;
        let vs = run_with(src, |c| c.obs_wired = Some(false));
        assert_eq!(codes(&vs), vec!["R12"]);
        assert!(run_with(src, |c| c.obs_wired = Some(true)).is_empty());
        assert!(run_with(src, |c| c.obs_wired = None).is_empty());
    }

    #[test]
    fn raw_strings_and_nested_comments_cannot_trip_rules() {
        // The F2 bug class: rule-trigger spellings inside raw strings,
        // nested block comments, and backslash-continuation strings.
        let src = "\
pub fn f() -> &'static str {\n\
    r#\"call .unwrap() and panic! at == 0.5 will\"#\n\
}\n\
/* outer /* unsafe { } inner */ still comment */\n\
pub fn g() -> String {\n\
    \"a long line that wraps \\\n\
     with static mut inside\".to_string()\n\
}\n";
        assert!(run_with(src, |_| {}).is_empty());
    }

    #[test]
    fn suppressed_findings_carry_their_justification() {
        let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    // lint: allow(R1): checked by the caller
    x.unwrap()
}
"#;
        let all = check("fixture.rs", &SourceFile::analyze(src), &FileCtx::default());
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed);
        assert!(all[0]
            .justification
            .as_deref()
            .is_some_and(|j| j.contains("checked by the caller")));
    }
}
