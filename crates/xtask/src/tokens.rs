//! Token-tree structure over the [`crate::lex`] stream.
//!
//! [`SourceFile::analyze`] turns a lexed token list into the navigable
//! shape the rule engine works on:
//!
//! * **Delimiter matching** — `partner[i]` holds the index of the matching
//!   `(`/`)`, `[`/`]`, `{`/`}` token, so rules can jump over groups and
//!   brace-match item bodies without re-scanning text.
//! * **Code navigation** — `next_code`/`prev_code` skip comment tokens, so
//!   "is this `unwrap` ident called?" is a neighbour lookup, immune to
//!   interleaved comments.
//! * **`#[cfg(test)]` masking** — a per-token flag covering the attribute
//!   through the annotated item's closing brace or semicolon.
//! * **Function boundaries** — name, visibility, return-type token range
//!   and brace-matched body for every `fn` in the file.
//! * **Span-based comment attachment** — each comment covers (a) the lines
//!   it physically occupies and (b) the *following syntactic node* when it
//!   is adjacent (no blank line in between): attributes plus the item
//!   header through its opening brace, or a statement through its
//!   terminating `;`/`,`. `lint: allow(<code>)` markers and justification
//!   comments (`SAFETY:`, `hb:`) resolve against these spans, so a marker
//!   above a multi-line attribute or signature still reaches the finding
//!   it annotates — the line-adjacency matching this replaces could not.

use crate::lex::{lex, Delim, Token, TokenKind};

/// One comment (or shebang) with its attachment spans.
#[derive(Debug, Clone)]
pub struct CommentInfo {
    /// Index into [`SourceFile::tokens`].
    pub tok: usize,
    /// Byte range of the full source lines the comment occupies (a
    /// trailing comment therefore covers the code before it on its line).
    pub own: (usize, usize),
    /// Byte range of the adjacent following node, when one exists.
    pub node: Option<(usize, usize)>,
}

/// One `fn` item (or method) boundary.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Anchor token for findings: the `pub` token when public, else `fn`.
    pub anchor: usize,
    /// The function-name ident token.
    pub name: usize,
    /// Declared `pub` (including `pub(crate)` forms)?
    pub is_pub: bool,
    /// Token-index range (inclusive start, exclusive end) of the return
    /// type between `->` and the body/semicolon, when present.
    pub ret: Option<(usize, usize)>,
    /// Indices of the body's `{` and matching `}`, when the fn has one.
    pub body: Option<(usize, usize)>,
}

/// A lexed file plus the structural indexes the rules need.
pub struct SourceFile<'a> {
    /// The original source.
    pub src: &'a str,
    /// Every token, including comments.
    pub tokens: Vec<Token>,
    /// Matching-delimiter index per token (`None` for non-delimiters and
    /// unbalanced delimiters).
    pub partner: Vec<Option<usize>>,
    /// Next non-comment token index.
    pub next_code: Vec<Option<usize>>,
    /// Previous non-comment token index.
    pub prev_code: Vec<Option<usize>>,
    /// True when the token sits inside a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
    /// All comments with attachment spans.
    pub comments: Vec<CommentInfo>,
    /// All function boundaries.
    pub fns: Vec<FnInfo>,
}

impl<'a> SourceFile<'a> {
    /// Lex and index `src`.
    pub fn analyze(src: &'a str) -> Self {
        let tokens = lex(src);
        let partner = match_delims(&tokens);
        let (next_code, prev_code) = code_links(&tokens);
        let mut file = SourceFile {
            src,
            tokens,
            partner,
            next_code,
            prev_code,
            test_mask: Vec::new(),
            comments: Vec::new(),
            fns: Vec::new(),
        };
        file.test_mask = file.compute_test_mask();
        file.comments = file.compute_comments();
        file.fns = file.compute_fns();
        file
    }

    /// The token's text.
    pub fn text(&self, i: usize) -> &'a str {
        self.tokens.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    /// Is token `i` an identifier with exactly this text?
    pub fn is_ident(&self, i: usize, ident: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
            && self.text(i) == ident
    }

    /// Is token `i` an operator with exactly this text?
    pub fn is_op(&self, i: usize, op: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind == TokenKind::Op) && self.text(i) == op
    }

    /// How far token `i` moves generic-angle depth: one for `<` and `>`,
    /// two for `<<` and `>>` (the lexer keeps a shift as one token, so
    /// `Vec<Vec<u8>>` closes with `>>`), zero for anything else.
    pub fn angle_step(&self, i: usize) -> i32 {
        match self.text(i) {
            "<" => 1,
            ">" => -1,
            "<<" => 2,
            ">>" => -2,
            _ => 0,
        }
    }

    /// Is token `i` the given opening delimiter?
    pub fn is_open(&self, i: usize, d: Delim) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Open(d))
    }

    /// Next code (non-comment) token after `i`.
    pub fn next(&self, i: usize) -> Option<usize> {
        self.next_code.get(i).copied().flatten()
    }

    /// Previous code (non-comment) token before `i`.
    pub fn prev(&self, i: usize) -> Option<usize> {
        self.prev_code.get(i).copied().flatten()
    }

    /// Is token `i` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Does any comment attached to byte offset `anchor` satisfy `pred`
    /// (on the comment's text)? Attachment = the comment's own lines, or
    /// the adjacent following node (see module docs).
    pub fn comment_attached(&self, anchor: usize, pred: &dyn Fn(&str) -> bool) -> bool {
        self.attached_comment_text(anchor, pred).is_some()
    }

    /// Like [`Self::comment_attached`], returning the first matching
    /// comment's text (for justification reporting).
    pub fn attached_comment_text(
        &self,
        anchor: usize,
        pred: &dyn Fn(&str) -> bool,
    ) -> Option<&'a str> {
        self.comments
            .iter()
            .find(|c| {
                let covers = (c.own.0 <= anchor && anchor < c.own.1)
                    || c.node.is_some_and(|(s, e)| s <= anchor && anchor <= e);
                covers && pred(self.text(c.tok))
            })
            .map(|c| self.text(c.tok))
    }

    /// Byte range `[start_of_line(first), end_of_line(last)]` for the
    /// lines a token occupies.
    fn line_span(&self, tok: &Token) -> (usize, usize) {
        let bytes = self.src.as_bytes();
        let mut s = tok.start.min(bytes.len());
        while s > 0 && bytes[s - 1] != b'\n' {
            s -= 1;
        }
        let mut e = tok.end.min(bytes.len());
        while e < bytes.len() && bytes[e] != b'\n' {
            e += 1;
        }
        (s, e)
    }

    /// 1-based line of a token's end: its start line plus the newlines
    /// inside it (a block comment can span several lines).
    fn end_line(&self, tok: &Token) -> u32 {
        let newlines = tok.text(self.src).bytes().filter(|&b| b == b'\n').count();
        tok.line.saturating_add(newlines as u32)
    }

    fn compute_comments(&self) -> Vec<CommentInfo> {
        let mut out = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if !t.is_comment() {
                continue;
            }
            let own = self.line_span(t);
            // Walk forward to the adjacent node: chain through comments
            // whose gaps stay within one line; a blank line breaks the
            // attachment entirely.
            let mut last_line = self.end_line(t);
            let mut j = i + 1;
            let mut node = None;
            while let Some(n) = self.tokens.get(j) {
                if n.line > last_line + 1 {
                    break;
                }
                if n.is_comment() {
                    last_line = self.end_line(n);
                    j += 1;
                    continue;
                }
                node = Some(self.node_range(j));
                break;
            }
            out.push(CommentInfo { tok: i, own, node });
        }
        out
    }

    /// The byte range of the syntactic node starting at code token `first`:
    /// attributes, then the header/statement through the first top-level
    /// `;`, `,`, or opening `{` (inclusive). Groups are opaque.
    fn node_range(&self, first: usize) -> (usize, usize) {
        let start = self.tokens[first].start;
        let mut k = first;
        // Skip leading attributes `#[...]` / `#![...]`.
        loop {
            if !self.is_op(k, "#") {
                break;
            }
            let mut j = match self.next(k) {
                Some(j) => j,
                None => break,
            };
            if self.is_op(j, "!") {
                j = match self.next(j) {
                    Some(j) => j,
                    None => break,
                };
            }
            if !self.is_open(j, Delim::Bracket) {
                break;
            }
            let close = match self.partner.get(j).copied().flatten() {
                Some(c) => c,
                None => break,
            };
            k = match self.next(close) {
                Some(n) => n,
                None => return (start, self.tokens[close].end),
            };
        }
        let mut last = k;
        let mut cur = Some(k);
        while let Some(i) = cur {
            let Some(t) = self.tokens.get(i) else { break };
            match t.kind {
                TokenKind::Open(Delim::Brace) => return (start, t.end),
                TokenKind::Open(_) => {
                    // Jump the group; unbalanced groups end the node.
                    match self.partner.get(i).copied().flatten() {
                        Some(close) => {
                            last = close;
                            cur = self.next(close);
                            continue;
                        }
                        None => break,
                    }
                }
                TokenKind::Close(_) => return (start, self.tokens[last].end),
                TokenKind::Op if self.text(i) == ";" || self.text(i) == "," => {
                    return (start, t.end)
                }
                _ => {}
            }
            last = i;
            cur = self.next(i);
        }
        (start, self.tokens[last].end)
    }

    fn compute_test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.tokens.len()];
        let mut i = 0usize;
        while i < self.tokens.len() {
            if !self.is_op(i, "#") {
                i += 1;
                continue;
            }
            let Some(open) = self.next(i) else { break };
            if !self.is_open(open, Delim::Bracket) {
                i += 1;
                continue;
            }
            let Some(close) = self.partner.get(open).copied().flatten() else {
                i += 1;
                continue;
            };
            // The attribute must read exactly `cfg ( test )`.
            let inner: Vec<&str> = (open + 1..close)
                .filter(|&k| !self.tokens[k].is_comment())
                .map(|k| self.text(k))
                .collect();
            if inner != ["cfg", "(", "test", ")"] {
                i = close + 1;
                continue;
            }
            // Item end: first top-level `;`, or the matching `}` of the
            // first top-level brace group.
            let mut end = self.tokens.len().saturating_sub(1);
            let mut cur = self.next(close);
            while let Some(k) = cur {
                let Some(t) = self.tokens.get(k) else { break };
                match t.kind {
                    TokenKind::Open(Delim::Brace) => {
                        end = self.partner.get(k).copied().flatten().unwrap_or(end);
                        break;
                    }
                    TokenKind::Open(_) => {
                        cur = self
                            .partner
                            .get(k)
                            .copied()
                            .flatten()
                            .and_then(|c| self.next(c));
                        continue;
                    }
                    TokenKind::Op if self.text(k) == ";" => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                end = k;
                cur = self.next(k);
            }
            for flag in mask.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
        }
        mask
    }

    fn compute_fns(&self) -> Vec<FnInfo> {
        let mut out = Vec::new();
        for i in 0..self.tokens.len() {
            if !self.is_ident(i, "fn") {
                continue;
            }
            // The name must follow (skips `fn`-pointer types like `fn(u8)`).
            let Some(name) = self.next(i) else { continue };
            if self.tokens[name].kind != TokenKind::Ident {
                continue;
            }
            // Walk back over qualifiers to find `pub` and the anchor.
            let mut anchor = i;
            let mut is_pub = false;
            let mut back = self.prev(i);
            while let Some(b) = back {
                let t = &self.tokens[b];
                let txt = self.text(b);
                let qualifier = matches!(txt, "const" | "async" | "unsafe" | "extern")
                    || matches!(t.kind, TokenKind::Str { .. });
                if qualifier {
                    anchor = b;
                    back = self.prev(b);
                    continue;
                }
                if self.is_ident(b, "pub") {
                    anchor = b;
                    is_pub = true;
                } else if matches!(t.kind, TokenKind::Close(Delim::Paren)) {
                    // `pub(crate)` / `pub(in …)`: the paren group's opener
                    // is preceded by `pub`.
                    if let Some(open) = self.partner[b] {
                        if let Some(p) = self.prev(open) {
                            if self.is_ident(p, "pub") {
                                anchor = p;
                                is_pub = true;
                            }
                        }
                    }
                }
                break;
            }
            // Scan forward: generics (angle-tracked), params and groups
            // are opaque; find `->` and the body `{` or `;`.
            let mut angle = 0i32;
            let mut arrow: Option<usize> = None;
            let mut ret_start: Option<usize> = None;
            let mut body = None;
            let mut cur = self.next(name);
            while let Some(k) = cur {
                let Some(t) = self.tokens.get(k) else { break };
                match t.kind {
                    TokenKind::Op => match self.text(k) {
                        "->" if angle <= 0 && arrow.is_none() => {
                            arrow = Some(k);
                            ret_start = self.next(k);
                        }
                        ";" if angle <= 0 => break,
                        _ => angle += self.angle_step(k),
                    },
                    TokenKind::Open(Delim::Brace) if angle <= 0 => {
                        body = self
                            .partner
                            .get(k)
                            .copied()
                            .flatten()
                            .map(|close| (k, close));
                        break;
                    }
                    TokenKind::Open(_) => {
                        cur = self
                            .partner
                            .get(k)
                            .copied()
                            .flatten()
                            .and_then(|c| self.next(c));
                        continue;
                    }
                    TokenKind::Close(_) => break,
                    _ => {}
                }
                cur = self.next(k);
            }
            let ret = match (ret_start, body) {
                (Some(s), Some((open, _))) if s < open => Some((s, open)),
                (Some(s), None) => {
                    // Bodiless decl: return type runs to the `;`.
                    let mut e = s;
                    let mut c = Some(s);
                    while let Some(k) = c {
                        if self.is_op(k, ";") {
                            break;
                        }
                        e = k + 1;
                        c = self.next(k);
                    }
                    Some((s, e))
                }
                _ => None,
            };
            let _ = arrow;
            out.push(FnInfo {
                anchor,
                name,
                is_pub,
                ret,
                body,
            });
        }
        out
    }
}

/// Match delimiters across the token list. Unbalanced delimiters get
/// `None`; mismatched shapes still pair positionally within their shape's
/// own stack, which is the forgiving behaviour a lint wants on mid-edit
/// files.
fn match_delims(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut partner = vec![None; tokens.len()];
    let mut stacks: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let slot = |d: Delim| match d {
        Delim::Paren => 0usize,
        Delim::Bracket => 1,
        Delim::Brace => 2,
    };
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Open(d) => stacks[slot(d)].push(i),
            TokenKind::Close(d) => {
                if let Some(open) = stacks[slot(d)].pop() {
                    partner[open] = Some(i);
                    partner[i] = Some(open);
                }
            }
            _ => {}
        }
    }
    partner
}

/// Per-token links to the neighbouring non-comment tokens.
fn code_links(tokens: &[Token]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let n = tokens.len();
    let mut next = vec![None; n];
    let mut prev = vec![None; n];
    let mut last: Option<usize> = None;
    for i in 0..n {
        prev[i] = last;
        if !tokens[i].is_comment() {
            last = Some(i);
        }
    }
    let mut following: Option<usize> = None;
    for i in (0..n).rev() {
        next[i] = following;
        if !tokens[i].is_comment() {
            following = Some(i);
        }
    }
    (next, prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_matches_nested_groups() {
        let src = "fn f(a: (u8, [u8; 2])) { g(1); }";
        let f = SourceFile::analyze(src);
        for (i, t) in f.tokens.iter().enumerate() {
            if let TokenKind::Open(_) = t.kind {
                let close = f.partner[i].expect("balanced");
                assert_eq!(f.partner[close], Some(i));
                assert!(close > i);
            }
        }
    }

    #[test]
    fn test_mask_covers_attribute_through_item() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\npub fn after() {}\n";
        let f = SourceFile::analyze(src);
        let idx_of = |text: &str| {
            f.tokens
                .iter()
                .position(|t| t.text(src) == text)
                .expect("token present")
        };
        assert!(!f.in_test(idx_of("live")));
        assert!(f.in_test(idx_of("tests")));
        assert!(f.in_test(idx_of("inner")));
        assert!(!f.in_test(idx_of("after")));
    }

    #[test]
    fn fn_info_finds_pub_ret_and_body() {
        let src = "pub fn shares(n: usize) -> Vec<f64> { vec![0.0; n] }\nfn helper() {}\n";
        let f = SourceFile::analyze(src);
        assert_eq!(f.fns.len(), 2);
        let s = &f.fns[0];
        assert!(s.is_pub);
        assert_eq!(f.text(s.name), "shares");
        assert_eq!(f.text(s.anchor), "pub");
        let (rs, re) = s.ret.expect("ret range");
        let ret: String = (rs..re).map(|k| f.text(k)).collect();
        assert_eq!(ret, "Vec<f64>");
        assert!(s.body.is_some());
        assert!(!f.fns[1].is_pub);
    }

    #[test]
    fn fn_generics_with_fn_bounds_do_not_confuse_params() {
        let src = "pub fn apply<F: Fn(u8) -> u8>(f: F) -> Vec<f64> { Vec::new() }";
        let f = SourceFile::analyze(src);
        assert_eq!(f.fns.len(), 1);
        let (rs, re) = f.fns[0].ret.expect("ret");
        let ret: String = (rs..re).map(|k| f.text(k)).collect();
        assert_eq!(ret, "Vec<f64>");
    }

    #[test]
    fn comment_attaches_to_adjacent_node_only() {
        let src = "\
// attached to f
pub fn f() {}

// detached by the blank line below

pub fn g() {}
";
        let f = SourceFile::analyze(src);
        let f_pub = f
            .tokens
            .iter()
            .position(|t| t.text(src) == "pub")
            .expect("first pub");
        let g_pub = f
            .tokens
            .iter()
            .rposition(|t| t.text(src) == "pub")
            .expect("second pub");
        let anchor_f = f.tokens[f_pub].start;
        let anchor_g = f.tokens[g_pub].start;
        assert!(f.comment_attached(anchor_f, &|c: &str| c.contains("attached to f")));
        assert!(!f.comment_attached(anchor_g, &|c: &str| c.contains("detached")));
    }

    #[test]
    fn comment_attaches_across_multi_line_attributes() {
        let src = "\
// lint: allow(A2): span-based attachment must reach the fn
#[allow(
    clippy::needless_pass_by_value,
)]
pub fn shares() -> Vec<f64> { Vec::new() }
";
        let f = SourceFile::analyze(src);
        let pub_tok = f
            .tokens
            .iter()
            .position(|t| t.text(src) == "pub")
            .expect("pub");
        let anchor = f.tokens[pub_tok].start;
        assert!(f.comment_attached(anchor, &|c: &str| c.contains("allow(A2)")));
    }

    #[test]
    fn trailing_comment_covers_its_own_line_and_next_node() {
        let src = "let a = 1; // SAFETY: covers this line\nunsafe { use_it(a) };\n";
        let f = SourceFile::analyze(src);
        let uns = f
            .tokens
            .iter()
            .position(|t| t.text(src) == "unsafe")
            .expect("unsafe");
        let a_tok = f.tokens.iter().position(|t| t.text(src) == "a").expect("a");
        let pred = |c: &str| c.contains("SAFETY:");
        assert!(f.comment_attached(f.tokens[a_tok].start, &pred));
        assert!(f.comment_attached(f.tokens[uns].start, &pred));
    }

    #[test]
    fn comment_end_lines_match_a_newline_count_from_byte_zero() {
        // The oracle counts newlines from the start of the file for every
        // comment — quadratic over a file, so it lives only here.
        fn line_of(src: &str, pos: usize) -> u32 {
            src[..pos].bytes().filter(|&b| b == b'\n').count() as u32 + 1
        }
        let src = "//! inner doc\r\n\
                   /* block\r\n   spanning\n   three lines */\n\
                   /** outer doc\n * block */\n\
                   fn f() {} // trailing\r\n\
                   /* nested /* inner\n */ still\n */\n\
                   /// line doc\nfn g() {}\n";
        let f = SourceFile::analyze(src);
        assert_eq!(f.comments.len(), 6);
        for c in &f.comments {
            let t = &f.tokens[c.tok];
            assert_eq!(f.end_line(t), line_of(src, t.end), "{:?}", f.text(c.tok));
        }
    }

    #[test]
    fn statement_node_extends_through_multi_line_chain() {
        let src = "\
// lint: allow(R1): multi-line chain
let v = stream
    .collect::<Vec<_>>()
    .pop()
    .unwrap();
";
        let f = SourceFile::analyze(src);
        let unw = f
            .tokens
            .iter()
            .position(|t| t.text(src) == "unwrap")
            .expect("unwrap");
        assert!(f.comment_attached(f.tokens[unw].start, &|c: &str| c.contains("allow(R1)")));
    }
}
