//! Workspace symbol index: per-file item facts for the interprocedural
//! rules A1–A4.
//!
//! [`FileFacts::extract`] walks one file's [`crate::tokens::SourceFile`]
//! and records everything the call-graph and rule layers consume:
//!
//! * every `fn` with its owner `impl` type, trait (for `impl Trait for
//!   Type`), visibility, `#[cfg(test)]` masking, parameter names/types and
//!   return-type text;
//! * every call site inside a fn body — direct calls with their leading
//!   path segments, method calls with a receiver-type hint (typed locals,
//!   params, `self`, `self.field` through the struct table, call results
//!   through the callee's return type), and idents invoked inside macro
//!   arguments (conservative edges);
//! * danger sites (allocations, lock acquisitions, blocking calls, direct
//!   registry resolution) with byte spans, for the transitive A1 rule;
//! * lock acquisitions with their guards' held ranges, and which
//!   locks are held over each call site, for the cross-crate A4 rule;
//! * struct field types, `use` imports/re-exports and in-source
//!   `// lint: lock-order:` tables.
//!
//! Everything is a token-level heuristic: no type inference, no macro
//! expansion. The call-graph layer treats unresolved information
//! conservatively (see `callgraph.rs` for the resolution tiers).

use crate::lex::Delim;
use crate::lex::TokenKind;
use crate::tokens::SourceFile;

/// The calls that certify a share vector (A2): `certified` covers
/// `Allocation::certified`, the typed-allocation constructor that runs the
/// simplex/cap contracts internally; `invariant!` counts as well.
const CERTIFIERS: [&str; 4] = [
    "validate_shares",
    "ensures_simplex",
    "ensures_capped",
    "certified",
];

/// One function parameter (excluding `self`).
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding ident (`mut` and `&` stripped); empty for non-ident
    /// patterns (tuples, `_`).
    pub name: String,
    /// Concatenated type tokens.
    pub ty: String,
}

/// How a call site invokes its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` or `path::to::foo(...)`.
    Direct,
    /// `.foo(...)` on some receiver.
    Method,
    /// `ident(...)` appearing inside a macro invocation's arguments —
    /// kept as a conservative edge (the macro may or may not expand it).
    Macro,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method ident).
    pub name: String,
    /// Invocation form (direct, method, macro-argument).
    pub kind: CallKind,
    /// Leading path segments for direct calls (`["bwpart_core", "solver"]`
    /// for `bwpart_core::solver::solve(...)`, `["Self"]` for `Self::f()`).
    pub path: Vec<String>,
    /// Inferred receiver type text for method calls (`None` = unknown).
    pub recv_ty: Option<String>,
    /// Byte span of the callee ident.
    pub span: (usize, usize),
    /// File-local token index of the callee ident (for held-range checks).
    pub tok: usize,
    /// Per-argument single-ident names (for the A3 unit-flow rule);
    /// `None` for compound argument expressions.
    pub arg_idents: Vec<Option<String>>,
    /// Lock names held at this call site (A4).
    pub under_locks: Vec<String>,
    /// `let <ident> = <this call>...;` binding ident, when the call starts
    /// the right-hand side (A3 return flow).
    pub bound_to: Option<String>,
}

/// Classification of a danger site for the A1 hot-path purity rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DangerKind {
    /// Fresh-container construction: `Vec::new`, `vec![...]`,
    /// `with_capacity`, `.collect()`, `.to_vec()`, `.to_string()`,
    /// `format!`, `String::from`, `Box::new`.
    AllocFresh,
    /// Growth of an existing container: `.push`, `.push_back`,
    /// `.reserve`, `.extend`.
    AllocGrow,
    /// Mutex acquisition.
    Lock,
    /// Blocking call: `sleep`, `.recv()`, `.wait()`.
    Blocking,
    /// Per-event registry resolution: `.counter()`, `.gauge()`,
    /// `.histogram()`.
    Registry,
}

/// One danger site with its span and a human-readable description.
#[derive(Debug, Clone)]
pub struct DangerSite {
    /// Danger classification.
    pub kind: DangerKind,
    /// What the site looks like (`"vec![...]"`, `".collect(...)"`).
    pub what: String,
    /// Byte span of the dangerous token.
    pub span: (usize, usize),
}

/// One mutex acquisition: `recv.lock()` names the lock after the
/// receiver, `lock_x(...)` helpers after their suffix.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// The lock's canonical name.
    pub name: String,
    /// Byte span of the acquiring ident.
    pub span: (usize, usize),
    /// File-local token index of the acquiring ident.
    pub tok: usize,
    /// Last file-local token index while the guard is held.
    pub held_to: usize,
}

/// One `fn` item with everything the interprocedural rules need.
#[derive(Debug, Clone)]
pub struct FnFacts {
    /// The fn's ident.
    pub name: String,
    /// Head ident of the enclosing `impl` type, for methods.
    pub owner: Option<String>,
    /// Trait head ident for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` item (resolution must not target these).
    pub in_test: bool,
    /// Anchor byte span (the `pub`/`fn` token) for findings.
    pub span: (usize, usize),
    /// Takes `self` (i.e. is a method)?
    pub has_self: bool,
    /// Declared parameters, in order (`self` excluded).
    pub params: Vec<Param>,
    /// Concatenated return-type tokens (empty when none).
    pub ret_text: String,
    /// Body certifies a share vector (a `CERTIFIERS` call / `invariant!`).
    pub certifies: bool,
    /// Every call site in the body (nested fns excluded).
    pub calls: Vec<CallSite>,
    /// Every danger site in the body.
    pub dangers: Vec<DangerSite>,
    /// Every lock acquisition in the body.
    pub locks: Vec<LockAcq>,
}

/// One struct definition's field table (named fields only).
#[derive(Debug, Clone)]
pub struct StructFacts {
    /// The struct's ident.
    pub name: String,
    /// `(field, type-text)` pairs.
    pub fields: Vec<(String, String)>,
}

/// One `use` item binding (`use a::b::c;` → `c` ↦ `[a, b, c]`;
/// `use a::b as d;` → `d` ↦ `[a, b]`). `pub use` re-exports are marked.
#[derive(Debug, Clone)]
pub struct Import {
    /// The name the import binds in this file.
    pub alias: String,
    /// Full path segments of the target (alias excluded for `as` forms).
    pub path: Vec<String>,
    /// Declared `pub use` (including `pub(crate) use`).
    pub reexport: bool,
}

/// One in-source `// lint: lock-order: a < b < c` declaration (a single
/// name declares the lock and opts its crate in).
#[derive(Debug, Clone)]
pub struct LockTable {
    /// Lock names, outermost first.
    pub names: Vec<String>,
    /// Byte offset of the declaring comment (for finding anchors).
    pub offset: usize,
}

/// Everything the analysis layers need from one source file.
#[derive(Debug, Clone)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate directory name under `crates/` (`"core"`, `"bwpartd"`, ...).
    pub crate_name: String,
    /// Every fn item, in source order.
    pub fns: Vec<FnFacts>,
    /// Every struct with named fields.
    pub structs: Vec<StructFacts>,
    /// Every `use` binding.
    pub imports: Vec<Import>,
    /// Every declared `lock-order:` table.
    pub lock_tables: Vec<LockTable>,
}

/// The whole indexed workspace.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Indexed files, in collection (path-sorted) order.
    pub files: Vec<FileFacts>,
}

/// Normalize a path segment to a crate directory name: `bwpart_core`,
/// `bwpart-core` and `core` all name the `crates/core` crate.
pub fn normalize_crate(seg: &str) -> String {
    let seg = seg.replace('-', "_");
    seg.strip_prefix("bwpart_").unwrap_or(&seg).to_string()
}

/// Rust keywords and call-syntax words that are never callee names.
const NON_CALLEES: [&str; 26] = [
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "let", "else", "break",
    "continue", "unsafe", "where", "impl", "use", "pub", "mod", "struct", "enum", "trait", "type",
    "const", "move", "dyn",
];

struct ImplBlock {
    owner: String,
    trait_name: Option<String>,
    body: (usize, usize),
}

/// Append one token's text to a type string, separating adjacent
/// word-like tokens so `&mut Vec<Slot>` does not collapse to `&mutVec…`.
fn append_ty(out: &mut String, piece: &str) {
    let joins_words = out
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
        && piece
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    if joins_words {
        out.push(' ');
    }
    out.push_str(piece);
}

impl FileFacts {
    /// Index one analyzed file. `path` is the workspace-relative path;
    /// the crate name is derived from its `crates/<name>/` component.
    pub fn extract(path: &str, f: &SourceFile) -> FileFacts {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let impls = find_impls(f);
        let structs = find_structs(f);
        let imports = find_imports(f);
        let lock_tables = find_lock_tables(f);

        // Nested fn bodies are scanned as their own items; the enclosing
        // fn must skip those token ranges so a call is attributed once.
        let bodies: Vec<Option<(usize, usize)>> = f.fns.iter().map(|i| i.body).collect();
        let ret_text_of = |info: &crate::tokens::FnInfo| -> String {
            info.ret
                .map(|(rs, re)| {
                    let mut out = String::new();
                    for k in rs..re {
                        if f.tokens[k].is_comment() {
                            continue;
                        }
                        if f.is_ident(k, "where") {
                            break;
                        }
                        append_ty(&mut out, f.text(k));
                    }
                    out
                })
                .unwrap_or_default()
        };
        // Same-file `name → return type` table, so a call-result receiver
        // (`lock_engine(&e).snapshot()`) can be typed by its producer.
        let fn_rets: Vec<(String, String)> = f
            .fns
            .iter()
            .map(|i| (f.text(i.name).to_string(), ret_text_of(i)))
            .collect();
        let mut fns = Vec::new();
        for (fi, info) in f.fns.iter().enumerate() {
            let name = f.text(info.name).to_string();
            let enclosing = impls
                .iter()
                .find(|b| b.body.0 < info.name && info.name < b.body.1);
            let (has_self, params) = parse_params(f, info.name);
            let ret_text = ret_text_of(info);
            let mut facts = FnFacts {
                name,
                owner: enclosing.map(|b| b.owner.clone()),
                trait_name: enclosing.and_then(|b| b.trait_name.clone()),
                is_pub: info.is_pub,
                in_test: f.in_test(info.name),
                span: (f.tokens[info.anchor].start, f.tokens[info.anchor].end),
                has_self,
                params,
                ret_text,
                certifies: false,
                calls: Vec::new(),
                dangers: Vec::new(),
                locks: Vec::new(),
            };
            if let Some((open, close)) = info.body {
                let nested: Vec<(usize, usize)> = bodies
                    .iter()
                    .enumerate()
                    .filter(|&(oi, _)| oi != fi)
                    .filter_map(|(_, b)| *b)
                    .filter(|&(o, c)| open < o && c < close)
                    .collect();
                let owner = facts.owner.clone();
                scan_body(
                    f,
                    &structs,
                    &fn_rets,
                    owner.as_deref(),
                    open,
                    close,
                    &nested,
                    &mut facts,
                );
            }
            fns.push(facts);
        }

        FileFacts {
            path: path.to_string(),
            crate_name,
            fns,
            structs,
            imports,
            lock_tables,
        }
    }
}

/// `impl` blocks with owner/trait head idents and brace-matched bodies.
fn find_impls(f: &SourceFile) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if !f.is_ident(i, "impl") {
            continue;
        }
        // Skip generics: `impl<T: Bound> ...`.
        let mut cur = f.next(i);
        if cur.is_some_and(|k| f.is_op(k, "<")) {
            let mut depth = 0i32;
            while let Some(k) = cur {
                match f.text(k) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    "->" => {}
                    _ => {}
                }
                cur = f.next(k);
                if depth <= 0 {
                    break;
                }
            }
        }
        // Collect the first path (trait, or the type when no `for`), then
        // an optional `for <type path>`, stopping at `{` / `where`.
        let mut first_head = String::new();
        let mut second_head: Option<String> = None;
        let mut collecting_second = false;
        let mut angle = 0i32;
        while let Some(k) = cur {
            let t = &f.tokens[k];
            match t.kind {
                TokenKind::Open(Delim::Brace) if angle <= 0 => break,
                TokenKind::Open(_) => {
                    cur = f.partner[k].and_then(|c| f.next(c));
                    continue;
                }
                TokenKind::Ident => {
                    let txt = f.text(k);
                    if txt == "where" && angle <= 0 {
                        // run forward to the `{`
                        cur = f.next(k);
                        while let Some(w) = cur {
                            if f.is_open(w, Delim::Brace) {
                                break;
                            }
                            cur = match f.tokens[w].kind {
                                TokenKind::Open(_) => f.partner[w].and_then(|c| f.next(c)),
                                _ => f.next(w),
                            };
                        }
                        break;
                    }
                    if txt == "for" && angle <= 0 {
                        collecting_second = true;
                        second_head = Some(String::new());
                    } else if angle <= 0 && txt != "dyn" {
                        // Path segments overwrite: the head is the last
                        // segment's base ident (`fmt::Display` → Display).
                        if collecting_second {
                            second_head = Some(txt.to_string());
                        } else {
                            first_head = txt.to_string();
                        }
                    }
                }
                TokenKind::Op => match f.text(k) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    _ => {}
                },
                _ => {}
            }
            cur = f.next(k);
        }
        let Some(open) = cur.filter(|&k| f.is_open(k, Delim::Brace)) else {
            continue;
        };
        let Some(close) = f.partner[open] else {
            continue;
        };
        let (owner, trait_name) = match second_head {
            Some(t) if !t.is_empty() => (t, Some(first_head)),
            _ => (first_head, None),
        };
        if !owner.is_empty() {
            out.push(ImplBlock {
                owner,
                trait_name: trait_name.filter(|t| !t.is_empty()),
                body: (open, close),
            });
        }
    }
    out
}

/// Named-field struct definitions (field → type text).
fn find_structs(f: &SourceFile) -> Vec<StructFacts> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if !f.is_ident(i, "struct") {
            continue;
        }
        let Some(name_tok) = f.next(i) else { continue };
        if f.tokens[name_tok].kind != TokenKind::Ident {
            continue;
        }
        // Skip generics / where clause to the defining `{` (or bail on
        // tuple/unit structs at `(` / `;`).
        let mut cur = f.next(name_tok);
        let mut angle = 0i32;
        let mut open = None;
        while let Some(k) = cur {
            match f.tokens[k].kind {
                TokenKind::Open(Delim::Brace) if angle <= 0 => {
                    open = Some(k);
                    break;
                }
                TokenKind::Open(Delim::Paren) if angle <= 0 => break,
                TokenKind::Open(_) => {
                    cur = f.partner[k].and_then(|c| f.next(c));
                    continue;
                }
                TokenKind::Op => match f.text(k) {
                    ";" if angle <= 0 => break,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    _ => {}
                },
                _ => {}
            }
            cur = f.next(k);
        }
        let Some(open) = open else { continue };
        let Some(close) = f.partner[open] else {
            continue;
        };
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            if f.tokens[k].is_comment() {
                k += 1;
                continue;
            }
            // One field: [pub[(..)]] name : <type tokens> [,]
            let mut j = k;
            if f.is_ident(j, "pub") {
                j = match f.next(j) {
                    Some(n) => n,
                    None => break,
                };
                if f.is_open(j, Delim::Paren) {
                    j = match f.partner[j].and_then(|c| f.next(c)) {
                        Some(n) => n,
                        None => break,
                    };
                }
            }
            // Skip attributes on the field.
            while f.is_op(j, "#") {
                let Some(b) = f.next(j).filter(|&b| f.is_open(b, Delim::Bracket)) else {
                    break;
                };
                j = match f.partner[b].and_then(|c| f.next(c)) {
                    Some(n) => n,
                    None => break,
                };
            }
            if f.tokens[j].kind != TokenKind::Ident {
                break;
            }
            let fname = f.text(j).to_string();
            let Some(colon) = f.next(j).filter(|&c| f.is_op(c, ":")) else {
                break;
            };
            // Type runs to the next top-level comma or the close brace.
            let mut ty = String::new();
            let mut angle = 0i32;
            let mut cur = f.next(colon);
            let mut after = close;
            while let Some(t) = cur {
                if t >= close {
                    after = close;
                    break;
                }
                match f.tokens[t].kind {
                    TokenKind::Op if f.text(t) == "," && angle <= 0 => {
                        after = t + 1;
                        break;
                    }
                    TokenKind::Open(_) => {
                        let Some(c) = f.partner[t] else { break };
                        for g in t..=c {
                            if !f.tokens[g].is_comment() {
                                append_ty(&mut ty, f.text(g));
                            }
                        }
                        cur = f.next(c);
                        after = c + 1;
                        continue;
                    }
                    TokenKind::Op => {
                        match f.text(t) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "<<" => angle += 2,
                            ">>" => angle -= 2,
                            _ => {}
                        }
                        ty.push_str(f.text(t));
                    }
                    _ => append_ty(&mut ty, f.text(t)),
                }
                after = t + 1;
                cur = f.next(t);
            }
            fields.push((fname, ty));
            k = after.max(k + 1);
        }
        out.push(StructFacts {
            name: f.text(name_tok).to_string(),
            fields,
        });
    }
    out
}

/// `use` items, including one level of `{...}` groups and `as` renames.
fn find_imports(f: &SourceFile) -> Vec<Import> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if !f.is_ident(i, "use") || f.in_test(i) {
            continue;
        }
        let reexport = f.prev(i).is_some_and(|p| {
            f.is_ident(p, "pub")
                || (matches!(f.tokens[p].kind, TokenKind::Close(Delim::Paren))
                    && f.partner[p]
                        .and_then(|o| f.prev(o))
                        .is_some_and(|pp| f.is_ident(pp, "pub")))
        });
        let mut prefix: Vec<String> = Vec::new();
        let mut cur = f.next(i);
        while let Some(k) = cur {
            match f.tokens[k].kind {
                TokenKind::Ident => {
                    let seg = f.text(k).to_string();
                    // `use path as alias;`
                    if seg == "as" {
                        if let Some(a) = f.next(k).filter(|&a| f.tokens[a].kind == TokenKind::Ident)
                        {
                            out.push(Import {
                                alias: f.text(a).to_string(),
                                path: prefix.clone(),
                                reexport,
                            });
                        }
                        break;
                    }
                    prefix.push(seg);
                }
                TokenKind::Open(Delim::Brace) => {
                    // One group level: `use a::{b, c as d, e::f};`
                    let Some(close) = f.partner[k] else { break };
                    let mut seg_path = prefix.clone();
                    let mut last: Option<String> = None;
                    let mut g = f.next(k);
                    while let Some(t) = g.filter(|&t| t < close) {
                        match f.tokens[t].kind {
                            TokenKind::Ident if f.text(t) == "as" => {
                                if let Some(a) =
                                    f.next(t).filter(|&a| f.tokens[a].kind == TokenKind::Ident)
                                {
                                    out.push(Import {
                                        alias: f.text(a).to_string(),
                                        path: seg_path.clone(),
                                        reexport,
                                    });
                                    last = None;
                                    g = f.next(a);
                                    continue;
                                }
                            }
                            TokenKind::Ident => {
                                seg_path.push(f.text(t).to_string());
                                last = Some(f.text(t).to_string());
                            }
                            TokenKind::Op if f.text(t) == "," => {
                                if let Some(name) = last.take() {
                                    out.push(Import {
                                        alias: name,
                                        path: seg_path.clone(),
                                        reexport,
                                    });
                                }
                                seg_path = prefix.clone();
                            }
                            _ => {}
                        }
                        g = f.next(t);
                    }
                    if let Some(name) = last {
                        out.push(Import {
                            alias: name,
                            path: seg_path,
                            reexport,
                        });
                    }
                    break;
                }
                TokenKind::Op if f.text(k) == ";" => {
                    if let Some(name) = prefix.last().cloned() {
                        out.push(Import {
                            alias: name,
                            path: prefix.clone(),
                            reexport,
                        });
                    }
                    break;
                }
                TokenKind::Op if f.text(k) == "*" => break,
                _ => {}
            }
            cur = f.next(k);
        }
    }
    out
}

fn find_lock_tables(f: &SourceFile) -> Vec<LockTable> {
    let mut out = Vec::new();
    for c in &f.comments {
        let text = f.text(c.tok);
        if let Some(pos) = text.find("lock-order:") {
            let names: Vec<String> = text[pos + "lock-order:".len()..]
                .split('<')
                .filter_map(|piece| piece.split_whitespace().next())
                .map(str::to_string)
                .collect();
            if !names.is_empty() {
                out.push(LockTable {
                    names,
                    offset: f.tokens[c.tok].start,
                });
            }
        }
    }
    out
}

/// Parse `(params)` after the fn name token: `self` detection plus
/// `(name, type-text)` pairs split on top-level commas.
fn parse_params(f: &SourceFile, name_tok: usize) -> (bool, Vec<Param>) {
    // Skip generics between the name and the parameter list.
    let mut cur = f.next(name_tok);
    if cur.is_some_and(|k| f.is_op(k, "<")) {
        let mut depth = 0i32;
        while let Some(k) = cur {
            match f.text(k) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                _ => {}
            }
            match f.tokens[k].kind {
                TokenKind::Open(_) => cur = f.partner[k].and_then(|c| f.next(c)),
                _ => cur = f.next(k),
            }
            if depth <= 0 {
                break;
            }
        }
    }
    let Some(open) = cur.filter(|&k| f.is_open(k, Delim::Paren)) else {
        return (false, Vec::new());
    };
    let Some(close) = f.partner[open] else {
        return (false, Vec::new());
    };
    // Split the group on top-level commas.
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    let mut start = open + 1;
    let mut k = open + 1;
    let mut angle = 0i32;
    while k < close {
        match f.tokens[k].kind {
            TokenKind::Open(_) => {
                k = f.partner[k].map(|c| c + 1).unwrap_or(close);
                continue;
            }
            TokenKind::Op => match f.text(k) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "," if angle <= 0 => {
                    pieces.push((start, k));
                    start = k + 1;
                }
                _ => {}
            },
            _ => {}
        }
        k += 1;
    }
    if start < close {
        pieces.push((start, close));
    }
    let mut has_self = false;
    let mut params = Vec::new();
    for (s, e) in pieces {
        let idents: Vec<usize> = (s..e)
            .filter(|&k| f.tokens[k].kind == TokenKind::Ident && !f.tokens[k].is_comment())
            .collect();
        let colon =
            (s..e).find(|&k| f.is_op(k, ":") && !f.prev(k).is_some_and(|p| f.is_op(p, ":")));
        // Bare/ref `self` receiver: no top-level colon.
        let Some(colon) = colon else {
            if idents.iter().any(|&k| f.is_ident(k, "self")) {
                has_self = true;
            }
            continue;
        };
        if idents.iter().any(|&k| k < colon && f.is_ident(k, "self")) {
            // `self: Pin<&mut Self>` style receiver.
            has_self = true;
            continue;
        }
        let name = idents
            .iter()
            .rev()
            .find(|&&k| k < colon && !f.is_ident(k, "mut") && !f.is_ident(k, "ref"))
            .map(|&k| f.text(k).to_string())
            .unwrap_or_default();
        let mut ty = String::new();
        for t in colon + 1..e {
            if !f.tokens[t].is_comment() {
                append_ty(&mut ty, f.text(t));
            }
        }
        params.push(Param { name, ty });
    }
    (has_self, params)
}

/// Typed-local table for one fn body: `let [mut] name: Ty = ...`, plus
/// `let name = Ty::new(...)` / `let name = Ty { ... }` constructions.
fn local_types(f: &SourceFile, open: usize, close: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for k in open + 1..close {
        if !f.is_ident(k, "let") {
            continue;
        }
        let mut j = match f.next(k) {
            Some(j) => j,
            None => continue,
        };
        if f.is_ident(j, "mut") {
            j = match f.next(j) {
                Some(j) => j,
                None => continue,
            };
        }
        if f.tokens[j].kind != TokenKind::Ident {
            continue;
        }
        let name = f.text(j).to_string();
        let Some(after) = f.next(j) else { continue };
        if f.is_op(after, ":") {
            // Explicit type to `=` or `;`.
            let mut ty = String::new();
            let mut angle = 0i32;
            let mut cur = f.next(after);
            while let Some(t) = cur {
                match f.tokens[t].kind {
                    TokenKind::Op => match f.text(t) {
                        "=" | ";" if angle <= 0 => break,
                        "<" => {
                            angle += 1;
                            ty.push('<');
                        }
                        ">" => {
                            angle -= 1;
                            ty.push('>');
                        }
                        other => ty.push_str(other),
                    },
                    TokenKind::Open(_) => {
                        let Some(c) = f.partner[t] else { break };
                        for g in t..=c {
                            if !f.tokens[g].is_comment() {
                                append_ty(&mut ty, f.text(g));
                            }
                        }
                        cur = f.next(c);
                        continue;
                    }
                    _ => append_ty(&mut ty, f.text(t)),
                }
                cur = f.next(t);
            }
            if !ty.is_empty() {
                out.push((name, ty));
            }
        } else if f.is_op(after, "=") {
            // `let x = Ty::...(...)` / `let x = Ty { .. }`: the first
            // ident names the type when capitalized.
            if let Some(first) = f.next(after) {
                if f.tokens[first].kind == TokenKind::Ident {
                    let txt = f.text(first);
                    if txt.chars().next().is_some_and(char::is_uppercase)
                        && f.next(first)
                            .is_some_and(|n| f.is_op(n, "::") || f.is_open(n, Delim::Brace))
                    {
                        out.push((name, txt.to_string()));
                    }
                }
            }
        }
    }
    out
}

/// Walk one fn body collecting calls, dangers and lock acquisitions.
// the scan shares the pre-computed per-file tables with its caller; a one-shot struct would just rename the list
#[allow(clippy::too_many_arguments)]
fn scan_body(
    f: &SourceFile,
    structs: &[StructFacts],
    fn_rets: &[(String, String)],
    owner: Option<&str>,
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
    facts: &mut FnFacts,
) {
    let locals = local_types(f, open, close);
    // Snapshot the params so the lookup closure doesn't hold a borrow of
    // `facts` across the mutating scan below.
    let params: Vec<Param> = facts.params.clone();
    let local_ty = move |name: &str| -> Option<String> {
        locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .or_else(|| params.iter().find(|p| p.name == name).map(|p| p.ty.clone()))
    };
    let field_ty = |ty_head: &str, field: &str| -> Option<String> {
        structs
            .iter()
            .find(|s| s.name == ty_head)
            .and_then(|s| s.fields.iter().find(|(n, _)| n == field))
            .map(|(_, t)| t.clone())
    };
    let ret_ty = |name: &str| -> Option<String> {
        fn_rets
            .iter()
            .find(|(n, r)| n == name && !r.is_empty())
            .map(|(_, r)| r.clone())
    };
    let in_nested = |k: usize| nested.iter().any(|&(o, c)| o <= k && k <= c);
    let helper_name = facts.name.clone();
    let helper_lock = helper_name
        .strip_prefix("lock_")
        .filter(|suffix| !suffix.is_empty());

    let mut k = open + 1;
    while k < close {
        if in_nested(k) || f.tokens[k].kind != TokenKind::Ident || f.tokens[k].is_comment() {
            k += 1;
            continue;
        }
        let text = f.text(k);

        facts.certifies |= is_certifier(f, k);

        // Macro invocation: `name!(...)` / `name![...]` / `name!{...}` —
        // record alloc macros and dangers inside the arguments, and idents
        // called inside the arguments as conservative Macro edges.
        if f.next(k).is_some_and(|n| f.is_op(n, "!")) {
            push_danger(f, k, facts);
            let group = f.next(k).and_then(|n| f.next(n));
            if let Some(g) = group.filter(|&g| matches!(f.tokens[g].kind, TokenKind::Open(_))) {
                if let Some(gc) = f.partner[g] {
                    for a in g + 1..gc {
                        facts.certifies |= is_certifier(f, a);
                        push_danger(f, a, facts);
                        if f.tokens[a].kind == TokenKind::Ident
                            && !NON_CALLEES.contains(&f.text(a))
                            && f.next(a).is_some_and(|n| f.is_open(n, Delim::Paren))
                            && !f.prev(a).is_some_and(|p| f.is_op(p, "."))
                        {
                            facts.calls.push(CallSite {
                                name: f.text(a).to_string(),
                                kind: CallKind::Macro,
                                path: Vec::new(),
                                recv_ty: None,
                                span: (f.tokens[a].start, f.tokens[a].end),
                                tok: a,
                                arg_idents: Vec::new(),
                                under_locks: Vec::new(),
                                bound_to: None,
                            });
                        }
                    }
                    k = gc + 1;
                    continue;
                }
            }
            k += 1;
            continue;
        }

        let called = f.next(k).is_some_and(|n| f.is_open(n, Delim::Paren));
        if !called || NON_CALLEES.contains(&text) {
            k += 1;
            continue;
        }
        // Definitions are not calls.
        if f.prev(k).is_some_and(|p| f.is_ident(p, "fn")) {
            k += 1;
            continue;
        }

        let is_method = f.prev(k).is_some_and(|p| f.is_op(p, "."));
        let Some(open_paren) = f.next(k) else {
            k += 1;
            continue;
        };
        let arg_idents = call_arg_idents(f, open_paren);

        push_danger(f, k, facts);

        // Lock acquisition.
        // Inside a `lock_x` helper, `m.lock()` acquires `x` itself.
        let lock_name = if is_method && text == "lock" {
            f.prev(k)
                .and_then(|dot| f.prev(dot))
                .filter(|&r| f.tokens[r].kind == TokenKind::Ident)
                .map(|r| helper_lock.unwrap_or(f.text(r)).to_string())
        } else if let Some(suffix) = text.strip_prefix("lock_") {
            (!suffix.is_empty()).then(|| suffix.to_string())
        } else {
            None
        };
        if let Some(name) = lock_name {
            if let Some(held_to) = held_range(f, k) {
                facts.locks.push(LockAcq {
                    name: name.clone(),
                    span: (f.tokens[k].start, f.tokens[k].end),
                    tok: k,
                    held_to,
                });
            }
            facts.dangers.push(DangerSite {
                kind: DangerKind::Lock,
                what: format!("lock `{name}`"),
                span: (f.tokens[k].start, f.tokens[k].end),
            });
        }

        // The call edge itself.
        if is_method {
            let recv_ty = receiver_type(f, k, owner, &local_ty, &field_ty, &ret_ty);
            facts.calls.push(CallSite {
                name: text.to_string(),
                kind: CallKind::Method,
                path: Vec::new(),
                recv_ty,
                span: (f.tokens[k].start, f.tokens[k].end),
                tok: k,
                arg_idents,
                under_locks: Vec::new(),
                bound_to: bound_ident(f, k),
            });
        } else {
            // Leading path segments: `a::b::foo(`.
            let mut path = Vec::new();
            let mut seg = f.prev(k);
            while let Some(sep) = seg.filter(|&s| f.is_op(s, "::")) {
                match f.prev(sep) {
                    Some(p) if f.tokens[p].kind == TokenKind::Ident => {
                        path.push(f.text(p).to_string());
                        seg = f.prev(p);
                    }
                    _ => {
                        path.push("?".to_string());
                        break;
                    }
                }
            }
            path.reverse();
            facts.calls.push(CallSite {
                name: text.to_string(),
                kind: CallKind::Direct,
                path,
                recv_ty: None,
                span: (f.tokens[k].start, f.tokens[k].end),
                tok: k,
                arg_idents,
                under_locks: Vec::new(),
                bound_to: bound_ident(f, k),
            });
        }
        k += 1;
    }

    // Resolve which locks are held over each call site.
    for call in &mut facts.calls {
        call.under_locks = facts
            .locks
            .iter()
            .filter(|l| l.tok < call.tok && call.tok <= l.held_to)
            .map(|l| l.name.clone())
            .collect();
    }
}

/// Record the danger at token `k`, if any: an allocating macro (`vec!`,
/// `format!`) or a call that allocates, blocks, or resolves a registry
/// handle.
fn push_danger(f: &SourceFile, k: usize, facts: &mut FnFacts) {
    let Some(next) = f.next(k) else { return };
    if f.tokens[k].kind != TokenKind::Ident || f.prev(k).is_some_and(|p| f.is_ident(p, "fn")) {
        return;
    }
    let text = f.text(k);
    let danger = if f.is_op(next, "!") {
        matches!(text, "vec" | "format").then(|| (DangerKind::AllocFresh, format!("{text}![...]")))
    } else if !f.is_open(next, Delim::Paren) {
        None
    } else if f.prev(k).is_some_and(|p| f.is_op(p, ".")) {
        match text {
            "counter" | "gauge" | "histogram" => {
                Some((DangerKind::Registry, format!(".{text}(...)")))
            }
            "push" | "push_back" | "reserve" | "extend" => {
                Some((DangerKind::AllocGrow, format!(".{text}(...)")))
            }
            "collect" | "to_vec" | "to_string" | "with_capacity" => {
                Some((DangerKind::AllocFresh, format!(".{text}(...)")))
            }
            "recv" | "recv_timeout" | "wait" => {
                Some((DangerKind::Blocking, format!(".{text}(...)")))
            }
            _ => None,
        }
    } else {
        let assoc_of = f
            .prev(k)
            .filter(|&p| f.is_op(p, "::"))
            .and_then(|p| f.prev(p))
            .filter(|&o| f.tokens[o].kind == TokenKind::Ident)
            .map(|o| f.text(o));
        match (assoc_of, text) {
            (Some("Vec" | "VecDeque" | "String" | "HashMap" | "BTreeMap" | "HashSet"), "new")
            | (Some(_), "with_capacity")
            | (Some("Box"), "new")
            | (Some("String"), "from") => Some((
                DangerKind::AllocFresh,
                format!("{}::{text}(...)", assoc_of.unwrap_or("")),
            )),
            (_, "sleep") => Some((DangerKind::Blocking, "sleep(...)".to_string())),
            _ => None,
        }
    };
    if let Some((kind, what)) = danger {
        facts.dangers.push(DangerSite {
            kind,
            what,
            span: (f.tokens[k].start, f.tokens[k].end),
        });
    }
}

/// Is token `k` a certifier call name or the `invariant` of `invariant!`?
fn is_certifier(f: &SourceFile, k: usize) -> bool {
    let text = f.text(k);
    f.tokens[k].kind == TokenKind::Ident
        && (CERTIFIERS.contains(&text)
            || (text == "invariant" && f.next(k).is_some_and(|n| f.is_op(n, "!"))))
}

/// How long the guard produced by the lock call at `i` is held: to the end
/// of the statement for a temporary, to the enclosing block's close for a
/// `let`-bound guard whose RHS is exactly the lock call (plus poison
/// recovery postfix).
fn held_range(f: &SourceFile, i: usize) -> Option<usize> {
    let open = f.next(i)?;
    if !f.is_open(open, Delim::Paren) {
        return None;
    }
    let mut end = f.partner[open]?;
    // Postfix poison-recovery chain: .unwrap() / .expect(..) /
    // .unwrap_or_else(..) keep the guard.
    while let Some(dot) = f.next(end).filter(|&d| f.is_op(d, ".")) {
        let Some(m) = f.next(dot) else { break };
        if !matches!(f.text(m), "unwrap" | "expect" | "unwrap_or_else") {
            break;
        }
        let Some(o2) = f.next(m).filter(|&o| f.is_open(o, Delim::Paren)) else {
            break;
        };
        end = f.partner[o2]?;
    }
    // Binding? Walk back over the receiver/path to the expression start,
    // then look for `let <pat> =`.
    let mut expr_start = i;
    while let Some(sep) = f.prev(expr_start) {
        if !(f.is_op(sep, ".") || f.is_op(sep, "::")) {
            break;
        }
        match f.prev(sep) {
            Some(seg) if f.tokens[seg].kind == TokenKind::Ident => expr_start = seg,
            _ => break,
        }
    }
    let whole_rhs = f.next(end).is_some_and(|n| f.is_op(n, ";"));
    let mut bound = false;
    if whole_rhs {
        if let Some(eq) = f.prev(expr_start).filter(|&e| f.is_op(e, "=")) {
            let mut j = f.prev(eq);
            for _ in 0..4 {
                match j {
                    Some(t) if f.is_ident(t, "let") => {
                        bound = true;
                        break;
                    }
                    Some(t)
                        if f.tokens[t].kind == TokenKind::Ident
                            || f.is_ident(t, "mut")
                            || f.is_op(t, ":") =>
                    {
                        j = f.prev(t);
                    }
                    _ => break,
                }
            }
        }
    }
    if bound {
        // Held to the enclosing block's close: first unmatched closer.
        let mut cur = f.next(end);
        let mut last = end;
        while let Some(k) = cur {
            match f.tokens[k].kind {
                TokenKind::Open(_) => {
                    let close = f.partner[k]?;
                    last = close;
                    cur = f.next(close);
                }
                TokenKind::Close(_) => return Some(k),
                _ => {
                    last = k;
                    cur = f.next(k);
                }
            }
        }
        Some(last)
    } else {
        // Temporary: held to the end of the statement.
        let mut cur = f.next(end);
        let mut last = end;
        while let Some(k) = cur {
            match f.tokens[k].kind {
                TokenKind::Op if f.text(k) == ";" || f.text(k) == "," => return Some(k),
                TokenKind::Open(_) => {
                    let close = f.partner[k]?;
                    last = close;
                    cur = f.next(close);
                }
                TokenKind::Close(_) => return Some(last),
                _ => {
                    last = k;
                    cur = f.next(k);
                }
            }
        }
        Some(last)
    }
}

/// Single-ident argument names for a call's paren group (top-level commas;
/// `&`/`&mut` prefixes stripped).
fn call_arg_idents(f: &SourceFile, open: usize) -> Vec<Option<String>> {
    let Some(close) = f.partner[open] else {
        return Vec::new();
    };
    if f.next(open) == Some(close) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut piece: Vec<usize> = Vec::new();
    let mut k = open + 1;
    let mut compound_piece = false;
    while k < close {
        match f.tokens[k].kind {
            _ if f.tokens[k].is_comment() => {}
            TokenKind::Open(_) => {
                compound_piece = true;
                k = f.partner[k].map(|c| c + 1).unwrap_or(close);
                continue;
            }
            TokenKind::Op if f.text(k) == "," => {
                out.push(piece_ident(f, &piece, compound_piece));
                piece.clear();
                compound_piece = false;
            }
            _ => piece.push(k),
        }
        k += 1;
    }
    out.push(piece_ident(f, &piece, compound_piece));
    out
}

fn piece_ident(f: &SourceFile, piece: &[usize], compound: bool) -> Option<String> {
    if compound {
        return None;
    }
    // Accept `ident`, `&ident`, `&mut ident`, `*ident`.
    let idents: Vec<usize> = piece
        .iter()
        .copied()
        .filter(|&k| f.tokens[k].kind == TokenKind::Ident && !f.is_ident(k, "mut"))
        .collect();
    let ops_ok = piece
        .iter()
        .all(|&k| f.tokens[k].kind == TokenKind::Ident || matches!(f.text(k), "&" | "*" | "&&"));
    if idents.len() == 1 && ops_ok {
        Some(f.text(idents[0]).to_string())
    } else {
        None
    }
}

/// `let <ident> = <expr starting the call chain at tok>` binding ident.
fn bound_ident(f: &SourceFile, call_tok: usize) -> Option<String> {
    // Walk back over the receiver/path chain to the expression start.
    let mut start = call_tok;
    while let Some(prev) = f.prev(start) {
        if f.is_op(prev, ".") || f.is_op(prev, "::") {
            match f.prev(prev) {
                Some(p) if f.tokens[p].kind == TokenKind::Ident => start = p,
                Some(p) if matches!(f.tokens[p].kind, TokenKind::Close(_)) => match f.partner[p] {
                    Some(o) => match f.prev(o) {
                        Some(q) if f.tokens[q].kind == TokenKind::Ident => start = q,
                        _ => break,
                    },
                    None => break,
                },
                _ => break,
            }
        } else if f.is_op(prev, "&") || f.is_ident(prev, "mut") {
            start = prev;
        } else {
            break;
        }
    }
    let eq = f.prev(start).filter(|&e| f.is_op(e, "="))?;
    let name = f.prev(eq)?;
    if f.tokens[name].kind != TokenKind::Ident {
        return None;
    }
    let mut before = f.prev(name)?;
    if f.is_ident(before, "mut") {
        before = f.prev(before)?;
    }
    if f.is_ident(before, "let") {
        Some(f.text(name).to_string())
    } else {
        None
    }
}

/// Infer the receiver type text for the method call at `tok`:
/// `self.m()` → owner, `self.field.m()` → field type, `var.m()` /
/// `var.field.m()` → local/param (then field) type, `callee(...).m()` →
/// unresolvable here (the call graph retries via return types).
fn receiver_type(
    f: &SourceFile,
    tok: usize,
    owner: Option<&str>,
    local_ty: &dyn Fn(&str) -> Option<String>,
    field_ty: &dyn Fn(&str, &str) -> Option<String>,
    ret_ty: &dyn Fn(&str) -> Option<String>,
) -> Option<String> {
    // Collect the ident chain walking back: m . b . a → [a, b].
    let mut chain: Vec<String> = Vec::new();
    let mut cur = f.prev(tok)?; // the `.` before the method
    loop {
        if !f.is_op(cur, ".") {
            break;
        }
        match f.prev(cur) {
            Some(p) if f.tokens[p].kind == TokenKind::Ident => {
                chain.push(f.text(p).to_string());
                match f.prev(p) {
                    Some(q) => cur = q,
                    None => break,
                }
            }
            // `name(...).m()` — a call-result receiver is typed by its
            // producer's declared return (same-file bare fns only).
            Some(p) if f.tokens[p].kind == TokenKind::Close(Delim::Paren) => {
                let open = f.partner[p]?;
                let callee = f
                    .prev(open)
                    .filter(|&c| f.tokens[c].kind == TokenKind::Ident)?;
                if f.prev(callee)
                    .is_some_and(|q| f.is_op(q, ".") || f.is_op(q, "::"))
                {
                    return None; // longer chain: stay conservative
                }
                let head_ty = ret_ty(f.text(callee))?;
                chain.reverse();
                return match chain.len() {
                    0 => Some(head_ty),
                    1 => field_ty(type_head(&head_ty), &chain[0]),
                    _ => None,
                };
            }
            _ => return None, // receiver is a compound expression
        }
    }
    chain.reverse();
    if chain.is_empty() {
        return None;
    }
    let head_ty = if chain[0] == "self" {
        owner.map(str::to_string)
    } else {
        local_ty(&chain[0])
    }?;
    // Resolve at most one field hop: `x.field.m()`.
    match chain.len() {
        1 => Some(head_ty),
        2 => field_ty(type_head(&head_ty), &chain[1]),
        _ => None,
    }
}

/// The base ident of a type text: `&mut Vec<ProbeCache>` → `Vec`,
/// `Option<usize>` → `Option`.
pub fn type_head(ty: &str) -> &str {
    let ty = ty.trim_start_matches(['&', '*']);
    let ty = ty.strip_prefix("mut").unwrap_or(ty);
    let end = ty
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(ty.len());
    let head = &ty[..end];
    if head.is_empty() && ty.len() > end {
        // leading punctuation (e.g. `dyn `): retry past it
        type_head(&ty[1..])
    } else {
        head
    }
}

/// Every capitalized ident appearing in a type text — the owner-candidate
/// set for method resolution (`MutexGuard<'_, Engine>` → both idents, so
/// `.run_epoch()` on a guard still reaches `Engine`).
pub fn type_idents(ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ty.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if cur.chars().next().is_some_and(char::is_uppercase) && !out.contains(&cur) {
                out.push(cur.clone());
            }
            cur.clear();
        }
    }
    if cur.chars().next().is_some_and(char::is_uppercase) && !out.contains(&cur) {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(path: &str, src: &str) -> FileFacts {
        FileFacts::extract(path, &SourceFile::analyze(src))
    }

    #[test]
    fn extracts_fns_with_owner_trait_and_params() {
        let src = r#"
pub struct Controller { dram: DramSim, queues: QueueSet }

impl Controller {
    pub fn tick(&mut self, now_cycles: u64) -> bool {
        self.dram.probe(now_cycles);
        helper(now_cycles);
        true
    }
}

impl fmt::Display for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}

fn helper(t_cycles: u64) -> u64 { t_cycles }
"#;
        let ff = extract("crates/mc/src/controller.rs", src);
        assert_eq!(ff.crate_name, "mc");
        let tick = ff.fns.iter().find(|f| f.name == "tick").expect("tick");
        assert_eq!(tick.owner.as_deref(), Some("Controller"));
        assert!(tick.trait_name.is_none());
        assert!(tick.has_self && tick.is_pub);
        assert_eq!(tick.params.len(), 1);
        assert_eq!(tick.params[0].name, "now_cycles");
        assert_eq!(tick.params[0].ty, "u64");
        assert_eq!(tick.ret_text, "bool");
        let probe = tick
            .calls
            .iter()
            .find(|c| c.name == "probe")
            .expect("probe");
        assert_eq!(probe.kind, CallKind::Method);
        assert_eq!(probe.recv_ty.as_deref(), Some("DramSim"));
        assert_eq!(probe.arg_idents, vec![Some("now_cycles".to_string())]);
        let helper = tick
            .calls
            .iter()
            .find(|c| c.name == "helper")
            .expect("helper");
        assert_eq!(helper.kind, CallKind::Direct);
        let disp = ff.fns.iter().find(|f| f.name == "fmt").expect("fmt");
        assert_eq!(disp.owner.as_deref(), Some("Controller"));
        assert_eq!(disp.trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn records_danger_sites_and_locks() {
        let src = r#"
impl Engine {
    fn run(&mut self, registry: &Registry) {
        let c = registry.counter("x");
        let mut v = Vec::new();
        v.push(1);
        let s: Vec<u8> = self.buf.iter().collect();
        let g = state.lock().unwrap_or_else(|p| p.into_inner());
        lock_engine(&self.inner).step();
    }
}
"#;
        let ff = extract("crates/bwpartd/src/engine.rs", src);
        let run = &ff.fns[0];
        let kinds: Vec<DangerKind> = run.dangers.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DangerKind::Registry));
        assert!(kinds.contains(&DangerKind::AllocFresh));
        assert!(kinds.contains(&DangerKind::AllocGrow));
        assert_eq!(kinds.iter().filter(|k| **k == DangerKind::Lock).count(), 2);
        let names: Vec<&str> = run.locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["state", "engine"]);
        // `.step()` happens under neither guard (temporary statements).
        let step = run.calls.iter().find(|c| c.name == "step").expect("step");
        assert!(step.under_locks.contains(&"engine".to_string()));
    }

    #[test]
    fn imports_reexports_and_tables_parse() {
        let src = "
pub use inner::helper as aliased;
use bwpart_core::solver::{solve, certify as check};
// lint: lock-order: engine < table
pub fn f() {}
";
        let ff = extract("crates/cmp/src/lib.rs", src);
        let aliased = ff
            .imports
            .iter()
            .find(|i| i.alias == "aliased")
            .expect("aliased");
        assert!(aliased.reexport);
        assert_eq!(aliased.path, vec!["inner", "helper"]);
        let solve = ff
            .imports
            .iter()
            .find(|i| i.alias == "solve")
            .expect("solve");
        assert_eq!(solve.path, vec!["bwpart_core", "solver", "solve"]);
        let check = ff
            .imports
            .iter()
            .find(|i| i.alias == "check")
            .expect("check");
        assert_eq!(check.path, vec!["bwpart_core", "solver", "certify"]);
        assert_eq!(ff.lock_tables.len(), 1);
        assert_eq!(ff.lock_tables[0].names, vec!["engine", "table"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "
pub fn hot() {}

#[cfg(test)]
mod tests {
    fn only_in_tests() {}
}
";
        let ff = extract("crates/dram/src/lib.rs", src);
        let hot = ff.fns.iter().find(|f| f.name == "hot").expect("hot");
        assert!(!hot.in_test);
        let t = ff
            .fns
            .iter()
            .find(|f| f.name == "only_in_tests")
            .expect("t");
        assert!(t.in_test);
    }

    #[test]
    fn type_head_and_idents_strip_decorations() {
        assert_eq!(type_head("&mut Vec<ProbeCache>"), "Vec");
        assert_eq!(type_head("Option<usize>"), "Option");
        assert_eq!(
            type_idents("MutexGuard<'_, Engine>"),
            vec!["MutexGuard", "Engine"]
        );
        assert_eq!(type_idents("&dyn Scheduler"), vec!["Scheduler"]);
    }

    #[test]
    fn struct_fields_capture_types() {
        let src = "
pub struct QueueSet {
    pub slots: Vec<Slot>,
    depth: usize,
}
";
        let ff = extract("crates/mc/src/queue.rs", src);
        assert_eq!(ff.structs.len(), 1);
        let s = &ff.structs[0];
        assert_eq!(s.name, "QueueSet");
        assert_eq!(s.fields[0], ("slots".to_string(), "Vec<Slot>".to_string()));
        assert_eq!(s.fields[1], ("depth".to_string(), "usize".to_string()));
    }
}
