//! A dependency-free Rust lexer for the bwpart-audit lint engine.
//!
//! Produces a flat stream of spanned [`Token`]s covering **every byte** of
//! the input: code tokens, comments (line/block/doc), string and char
//! literals (including raw strings with arbitrary `#` counts, byte and C
//! strings), lifetimes, numbers, multi-character operators, delimiters, a
//! shebang line, and `Unknown` for anything unclassifiable. Whitespace is
//! the only thing not tokenized; the invariant the property tests pin is
//! that the gaps between consecutive token spans are whitespace-only.
//!
//! Design constraints:
//!
//! * **Total**: lexing never panics and never loops, for arbitrary input
//!   (the fuzz/property suite feeds it arbitrary strings, and the CI miri
//!   job runs it — the lexer is clock- and IO-free by construction).
//! * **Spanned**: every token carries byte offsets plus 1-based line and
//!   column (byte column) so findings can point at `path:line:col`.
//! * **Honest about strings/comments**: rule scanning happens over the
//!   token kinds, so `unwrap()` inside a raw string or a nested block
//!   comment can never be mistaken for code again (the regex-era F2 bug
//!   class is eliminated by construction, not by patching).

/// The three bracket shapes the token-tree layer matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
    /// `{` / `}`
    Brace,
}

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// `#!...` on the very first line (not an inner attribute).
    Shebang,
    /// `// ...` — `doc` is true for `///` (outer) and `//!` (inner), but
    /// not for `////...` rulers.
    LineComment {
        /// Whether this is a doc comment (`///` / `//!`).
        doc: bool,
    },
    /// `/* ... */`, nesting-aware. `doc` is true for `/**` / `/*!`.
    BlockComment {
        /// Whether this is a doc comment (`/**` / `/*!`).
        doc: bool,
        /// False when the comment ran to EOF without closing.
        terminated: bool,
    },
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
    /// `c"…"`, `cr"…"`.
    Str {
        /// Raw literal (no escape processing, `#`-fenced).
        raw: bool,
        /// False when the literal ran to EOF without closing.
        terminated: bool,
    },
    /// `'a'`, `'\n'`, `'\u{1F600}'`, or `b'x'`.
    CharLit {
        /// False when the literal hit a newline/EOF before closing.
        terminated: bool,
    },
    /// An integer literal (any base, with or without suffix).
    Int,
    /// A float literal: has a fractional part, an exponent, or an
    /// `f32`/`f64` suffix.
    Float,
    /// An identifier or keyword (including raw identifiers `r#ident`).
    Ident,
    /// A lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// An operator, possibly multi-character (`::`, `->`, `==`, `..=`, …).
    Op,
    /// An opening delimiter.
    Open(Delim),
    /// A closing delimiter.
    Close(Delim),
    /// A byte (or UTF-8 char) the lexer cannot classify. Never merged;
    /// guarantees totality.
    Unknown,
}

/// One spanned token. `start..end` are byte offsets into the source;
/// `line`/`col` are 1-based and refer to `start` (column counts bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based byte column of `start` within its line.
    pub col: u32,
}

impl Token {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for comment-like tokens (comments and the shebang), which the
    /// rule engine skips when walking code.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. } | TokenKind::Shebang
        )
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Internal cursor over the source bytes.
struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(offset).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(s))
    }

    /// Advance past one UTF-8 character (at least one byte).
    fn bump_char(&mut self) {
        let mut step = 1;
        // Skip continuation bytes so spans stay on char boundaries.
        while self
            .bytes
            .get(self.pos + step)
            .is_some_and(|&b| (0x80..0xC0).contains(&b))
        {
            step += 1;
        }
        self.pos += step;
    }

    /// Consume a line comment or shebang: everything up to (not including)
    /// the next newline.
    fn eat_to_eol(&mut self) {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.pos += 1;
        }
    }

    /// Consume a nesting-aware block comment body starting *after* the
    /// opening `/*`. Returns `true` if the comment closed before EOF.
    fn eat_block_comment(&mut self) -> bool {
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => return false,
            }
        }
        true
    }

    /// Consume an escaped (non-raw) string/char body starting after the
    /// opening quote. Returns `true` when the closing quote was found.
    /// Char literals additionally stop at an unescaped newline (a stray
    /// `'` should not swallow the rest of the file).
    fn eat_quoted(&mut self, quote: u8, stop_at_newline: bool) -> bool {
        loop {
            match self.peek(0) {
                None => return false,
                Some(b'\\') => {
                    // Skip the escape lead and whatever follows it (which
                    // may be a newline continuation — the span just grows).
                    self.pos += 1;
                    if self.peek(0).is_some() {
                        self.pos += 1;
                    }
                }
                Some(b) if b == quote => {
                    self.pos += 1;
                    return true;
                }
                Some(b'\n') if stop_at_newline => return false,
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Consume a raw-string body starting after the opening quote, with
    /// `hashes` trailing `#` required to close. Returns `terminated`.
    fn eat_raw_string(&mut self, hashes: usize) -> bool {
        loop {
            match self.peek(0) {
                None => return false,
                Some(b'"') => {
                    let mut h = 0usize;
                    while h < hashes && self.peek(1 + h) == Some(b'#') {
                        h += 1;
                    }
                    if h == hashes {
                        self.pos += 1 + hashes;
                        return true;
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

/// Multi-character operators, longest first (maximal munch).
const OPERATORS: [&str; 25] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..", "\u{0}", // sentinel, never matches
];

/// Try to lex a string-literal prefix (`r`, `b`, `br`, `c`, `cr`, with
/// optional `#` fencing) at the cursor. Returns `Some((kind, raw))` and
/// advances past the whole literal on success; leaves the cursor untouched
/// otherwise.
fn try_string(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let start = cur.pos;
    let mut i = start;
    // Optional one- or two-letter prefix.
    let mut raw = false;
    match (cur.at(i), cur.at(i + 1)) {
        (Some(b'r'), _) => {
            raw = true;
            i += 1;
        }
        (Some(b'b' | b'c'), Some(b'r')) => {
            raw = true;
            i += 2;
        }
        (Some(b'b' | b'c'), _) => i += 1,
        _ => {}
    }
    let mut hashes = 0usize;
    if raw {
        while cur.at(i + hashes) == Some(b'#') {
            hashes += 1;
        }
        i += hashes;
    }
    if cur.at(i) != Some(b'"') {
        return None;
    }
    if !raw && hashes > 0 {
        return None;
    }
    cur.pos = i + 1;
    let terminated = if raw {
        cur.eat_raw_string(hashes)
    } else {
        cur.eat_quoted(b'"', false)
    };
    Some(TokenKind::Str { raw, terminated })
}

/// Lex a numeric literal starting at a digit. Advances the cursor and
/// returns `Int` or `Float`.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let radix_prefixed = cur.peek(0) == Some(b'0')
        && matches!(cur.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
    if radix_prefixed {
        cur.pos += 2;
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.pos += 1;
        }
        return TokenKind::Int;
    }
    let mut float = false;
    while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        cur.pos += 1;
    }
    // Fractional part: `1.5`, or trailing `1.` when not followed by an
    // identifier (`1.foo` is a field access) or `..` (a range).
    if cur.peek(0) == Some(b'.') {
        match cur.peek(1) {
            Some(b) if b.is_ascii_digit() => {
                float = true;
                cur.pos += 1;
                while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    cur.pos += 1;
                }
            }
            Some(b'.') => {}
            Some(b) if is_ident_start(b) => {}
            _ => {
                float = true;
                cur.pos += 1;
            }
        }
    }
    // Exponent: `1e9`, `1.5e-12`, `2E+3`.
    if matches!(cur.peek(0), Some(b'e' | b'E')) {
        let (sign, digit) = (cur.peek(1), cur.peek(2));
        let direct = sign.is_some_and(|b| b.is_ascii_digit());
        let signed = matches!(sign, Some(b'+' | b'-')) && digit.is_some_and(|b| b.is_ascii_digit());
        if direct || signed {
            float = true;
            cur.pos += if signed { 2 } else { 1 };
            while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                cur.pos += 1;
            }
        }
    }
    // Suffix (`u64`, `f32`, `usize`, …).
    let suffix_start = cur.pos;
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.pos += 1;
    }
    let suffix = cur.src.get(suffix_start..cur.pos).unwrap_or("");
    if suffix.starts_with("f32") || suffix.starts_with("f64") {
        float = true;
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

/// Lex `src` into a complete token stream. Total: never panics, always
/// terminates, and covers every non-whitespace byte with exactly one token.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    let mut raw: Vec<(TokenKind, usize, usize)> = Vec::new();

    // Shebang: `#!` at offset 0 not starting an inner attribute `#![`.
    if cur.starts_with("#!") && !cur.starts_with("#![") {
        cur.eat_to_eol();
        raw.push((TokenKind::Shebang, 0, cur.pos));
    }

    while let Some(b) = cur.peek(0) {
        let start = cur.pos;
        if b.is_ascii_whitespace() {
            cur.pos += 1;
            continue;
        }
        let kind = match b {
            b'/' if cur.peek(1) == Some(b'/') => {
                cur.eat_to_eol();
                let text = cur.src.get(start..cur.pos).unwrap_or("");
                let doc = (text.starts_with("///") && !text.starts_with("////"))
                    || text.starts_with("//!");
                TokenKind::LineComment { doc }
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.pos += 2;
                let doc = matches!(cur.peek(0), Some(b'*' | b'!')) && cur.peek(1) != Some(b'/');
                let terminated = cur.eat_block_comment();
                TokenKind::BlockComment { doc, terminated }
            }
            b'"' | b'r' | b'b' | b'c' => {
                if b == b'b' && cur.peek(1) == Some(b'\'') {
                    // Byte char literal: b'x'.
                    cur.pos += 2;
                    let terminated = cur.eat_quoted(b'\'', true);
                    TokenKind::CharLit { terminated }
                } else if let Some(kind) = try_string(&mut cur) {
                    kind
                } else if b == b'r'
                    && cur.peek(1) == Some(b'#')
                    && is_ident_start(cur.peek(2).unwrap_or(b' '))
                {
                    // Raw identifier: r#match.
                    cur.pos += 2;
                    while cur.peek(0).is_some_and(is_ident_continue) {
                        cur.pos += 1;
                    }
                    TokenKind::Ident
                } else if b == b'"' {
                    // try_string always accepts a bare quote, so this arm
                    // is unreachable in practice; keep it total anyway.
                    cur.pos += 1;
                    let terminated = cur.eat_quoted(b'"', false);
                    TokenKind::Str {
                        raw: false,
                        terminated,
                    }
                } else {
                    // Plain identifier starting with r/b/c.
                    while cur.peek(0).is_some_and(is_ident_continue) {
                        cur.pos += 1;
                    }
                    TokenKind::Ident
                }
            }
            b'\'' => {
                // Lifetime vs char literal. `'a'` (ident-start then a
                // closing quote) is a char; `'a` without the quote is a
                // lifetime; `'\...'` is always a char.
                let one = cur.peek(1);
                if one == Some(b'\\') {
                    cur.pos += 1;
                    let terminated = cur.eat_quoted(b'\'', true);
                    TokenKind::CharLit { terminated }
                } else if one.is_some_and(is_ident_start) {
                    // Find the end of the ident run; a `'` right after a
                    // one-char run means a char literal like 'x'.
                    let mut j = cur.pos + 2;
                    while cur.at(j).is_some_and(is_ident_continue) {
                        j += 1;
                    }
                    if cur.at(j) == Some(b'\'') && j == cur.pos + 2 {
                        cur.pos = j + 1;
                        TokenKind::CharLit { terminated: true }
                    } else {
                        cur.pos = j;
                        TokenKind::Lifetime
                    }
                } else {
                    cur.pos += 1;
                    let terminated = cur.eat_quoted(b'\'', true);
                    TokenKind::CharLit { terminated }
                }
            }
            b'(' => {
                cur.pos += 1;
                TokenKind::Open(Delim::Paren)
            }
            b')' => {
                cur.pos += 1;
                TokenKind::Close(Delim::Paren)
            }
            b'[' => {
                cur.pos += 1;
                TokenKind::Open(Delim::Bracket)
            }
            b']' => {
                cur.pos += 1;
                TokenKind::Close(Delim::Bracket)
            }
            b'{' => {
                cur.pos += 1;
                TokenKind::Open(Delim::Brace)
            }
            b'}' => {
                cur.pos += 1;
                TokenKind::Close(Delim::Brace)
            }
            b if b.is_ascii_digit() => lex_number(&mut cur),
            b if is_ident_start(b) => {
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.pos += 1;
                }
                TokenKind::Ident
            }
            _ => {
                let mut matched = false;
                for op in OPERATORS {
                    if cur.starts_with(op) {
                        cur.pos += op.len();
                        matched = true;
                        break;
                    }
                }
                if matched {
                    TokenKind::Op
                } else if b.is_ascii_punctuation() {
                    cur.pos += 1;
                    TokenKind::Op
                } else {
                    cur.bump_char();
                    TokenKind::Unknown
                }
            }
        };
        // Totality backstop: a lexer bug that fails to advance must not
        // hang the tool — emit the byte as Unknown and move on.
        if cur.pos <= start {
            cur.pos = start;
            cur.bump_char();
            raw.push((TokenKind::Unknown, start, cur.pos));
        } else {
            raw.push((kind, start, cur.pos));
        }
    }

    // Second pass: line/col from a newline index.
    let mut line_starts = vec![0usize];
    for (i, byte) in src.bytes().enumerate() {
        if byte == b'\n' {
            line_starts.push(i + 1);
        }
    }
    raw.into_iter()
        .map(|(kind, start, end)| {
            let line_idx = match line_starts.binary_search(&start) {
                Ok(i) => i,
                Err(i) => i.saturating_sub(1),
            };
            let line_start = line_starts.get(line_idx).copied().unwrap_or(0);
            Token {
                kind,
                start,
                end,
                line: (line_idx as u32).saturating_add(1),
                col: ((start - line_start) as u32).saturating_add(1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).iter().map(|t| t.text(src).to_string()).collect()
    }

    #[test]
    fn idents_numbers_ops() {
        assert_eq!(
            kinds("let x = 1 + 2.5;"),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Op,
                TokenKind::Int,
                TokenKind::Op,
                TokenKind::Float,
                TokenKind::Op,
            ]
        );
    }

    #[test]
    fn float_forms() {
        for f in [
            "1.0", "1.", "1e9", "1E-9", "2.5e+3", "3f64", "4f32", "1_000.5",
        ] {
            assert_eq!(kinds(f), vec![TokenKind::Float], "{f}");
        }
        for i in ["1", "0x1F", "0b1010", "0o777", "42u64", "1_000", "0xE1"] {
            assert_eq!(kinds(i), vec![TokenKind::Int], "{i}");
        }
    }

    #[test]
    fn range_is_not_a_float() {
        assert_eq!(
            kinds("0..10"),
            vec![TokenKind::Int, TokenKind::Op, TokenKind::Int]
        );
        assert_eq!(texts("1.foo"), vec!["1", ".", "foo"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"r#"contains .unwrap() and "quotes""# x"####;
        let toks = lex(src);
        assert_eq!(
            toks[0].kind,
            TokenKind::Str {
                raw: true,
                terminated: true
            }
        );
        assert_eq!(toks[1].text(src), "x");
    }

    #[test]
    fn byte_and_c_strings() {
        for s in [
            r#"b"bytes""#,
            r##"br#"raw"#"##,
            r#"c"cstr""#,
            r##"cr#"raw"#"##,
        ] {
            let toks = lex(s);
            assert_eq!(toks.len(), 1, "{s}: {toks:?}");
            assert!(matches!(toks[0].kind, TokenKind::Str { .. }), "{s}");
        }
    }

    #[test]
    fn raw_ident_is_not_a_raw_string() {
        assert_eq!(kinds("r#match"), vec![TokenKind::Ident]);
        assert_eq!(texts("r#match"), vec!["r#match"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still outer */ code";
        let toks = lex(src);
        assert_eq!(
            toks[0].kind,
            TokenKind::BlockComment {
                doc: false,
                terminated: true
            }
        );
        assert_eq!(toks[1].text(src), "code");
    }

    #[test]
    fn doc_comment_classification() {
        assert!(matches!(
            kinds("/// outer doc")[0],
            TokenKind::LineComment { doc: true }
        ));
        assert!(matches!(
            kinds("//! inner doc")[0],
            TokenKind::LineComment { doc: true }
        ));
        assert!(matches!(
            kinds("//// ruler")[0],
            TokenKind::LineComment { doc: false }
        ));
        assert!(matches!(
            kinds("// plain")[0],
            TokenKind::LineComment { doc: false }
        ));
        assert!(matches!(
            kinds("/** block doc */")[0],
            TokenKind::BlockComment { doc: true, .. }
        ));
        assert!(matches!(
            kinds("/**/")[0],
            TokenKind::BlockComment { doc: false, .. }
        ));
    }

    #[test]
    fn char_vs_lifetime() {
        assert_eq!(kinds("'a'"), vec![TokenKind::CharLit { terminated: true }]);
        assert_eq!(kinds("'a"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'_"), vec![TokenKind::Lifetime]);
        assert_eq!(
            kinds(r"'\n'"),
            vec![TokenKind::CharLit { terminated: true }]
        );
        assert_eq!(
            kinds(r"'\u{1F600}'"),
            vec![TokenKind::CharLit { terminated: true }]
        );
        assert_eq!(kinds("b'x'"), vec![TokenKind::CharLit { terminated: true }]);
        // Generic lifetime position: `&'a str`.
        assert_eq!(
            kinds("&'a str"),
            vec![TokenKind::Op, TokenKind::Lifetime, TokenKind::Ident]
        );
    }

    #[test]
    fn backslash_continuation_stays_one_token() {
        let src = "\"wraps \\\n  over\" next";
        let toks = lex(src);
        assert!(matches!(
            toks[0].kind,
            TokenKind::Str {
                raw: false,
                terminated: true
            }
        ));
        assert_eq!(toks[1].text(src), "next");
        assert_eq!(
            toks[1].line, 2,
            "line counting must survive the continuation"
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(texts("a::b"), vec!["a", "::", "b"]);
        assert_eq!(texts("a->b"), vec!["a", "->", "b"]);
        assert_eq!(texts("a=>b"), vec!["a", "=>", "b"]);
        assert_eq!(
            texts("a==b!=c<=d>=e"),
            vec!["a", "==", "b", "!=", "c", "<=", "d", ">=", "e"]
        );
        assert_eq!(texts("0..=9"), vec!["0", "..=", "9"]);
    }

    #[test]
    fn shebang_only_at_start() {
        let toks = lex("#!/usr/bin/env run\nfn main() {}");
        assert_eq!(toks[0].kind, TokenKind::Shebang);
        assert_eq!(toks[1].line, 2);
        // Inner attribute is not a shebang.
        let toks = lex("#![allow(dead_code)]");
        assert_eq!(toks[0].kind, TokenKind::Op);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"open", "/* open", "r#\"open", "'", "b'", "r#\"x\"", "'\\"] {
            let toks = lex(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn spans_cover_all_non_whitespace() {
        let src = "fn f() -> Vec<f64> { vec![1.0 / n as f64; n] } // tail";
        let toks = lex(src);
        let mut cursor = 0usize;
        for t in &toks {
            assert!(t.start >= cursor, "overlap at {t:?}");
            assert!(
                src[cursor..t.start].chars().all(char::is_whitespace),
                "gap {:?} not whitespace",
                &src[cursor..t.start]
            );
            cursor = t.end;
        }
        assert!(src[cursor..].chars().all(char::is_whitespace));
    }

    #[test]
    fn line_and_col_are_one_based() {
        let src = "a\n  bb\n";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
