//! A minimal, dependency-free Rust lexer for the lint driver.
//!
//! The v1 scanner worked line-by-line over a regex-free but still textual
//! "strip comments and strings" pass, and that design shipped a real
//! desync bug (backslash-newline continuations) and stayed structurally
//! blind to byte/raw-string prefixes (`br#"…"#`), which let string
//! contents leak into the code view and desynchronize `{`/`}` tracking.
//! This module replaces that pass with a real token stream: every token
//! carries its byte span and start line, raw strings (any `r`/`br`/`cr`
//! prefix and `#` depth), nested block comments, char-vs-lifetime ticks,
//! and doc comments are all lexed exactly, and `#[cfg(test)]` regions are
//! resolved on tokens (so braces inside literals can never desync them).
//!
//! The lexer is *lossless by construction*: concatenating the gaps and
//! token spans reproduces the input, which is what makes the per-line
//! [`LineView`] projection (used by the line-oriented lints) exact.

/// The kind of one lexed token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'outer`), quote included.
    Lifetime,
    /// Integer or float literal, suffix included (`1_000u64`, `2.5e-3`).
    Number,
    /// String literal `"…"` (or C string `c"…"`), escapes intact.
    Str,
    /// Raw string literal of any prefix and depth: `r"…"`, `r#"…"#`,
    /// `br#"…"#`, `cr"…"`.
    RawStr,
    /// Byte string literal `b"…"`.
    ByteStr,
    /// Char literal `'x'`, `'\n'`, `'\u{1F600}'`.
    CharLit,
    /// Byte literal `b'x'`.
    ByteLit,
    /// Plain `//` line comment (including `////…` rulers, which rustc
    /// does *not* treat as doc comments).
    LineComment,
    /// Outer doc line `/// …` (exactly three slashes).
    DocLine,
    /// Inner doc line `//! …`.
    InnerDocLine,
    /// Plain block comment `/* … */`, nesting handled.
    BlockComment,
    /// Outer block doc `/** … */`.
    DocBlock,
    /// Inner block doc `/*! … */`.
    InnerDocBlock,
    /// Punctuation, joined into the usual multi-byte operators (`->`,
    /// `::`, `+=`, `..=`, …).
    Punct,
}

impl TokenKind {
    /// Is this token any form of comment?
    pub fn is_comment(self) -> bool {
        matches!(
            self,
            TokenKind::LineComment
                | TokenKind::DocLine
                | TokenKind::InnerDocLine
                | TokenKind::BlockComment
                | TokenKind::DocBlock
                | TokenKind::InnerDocBlock
        )
    }

    /// Is this token a doc comment (outer or inner, line or block)?
    pub fn is_doc(self) -> bool {
        matches!(
            self,
            TokenKind::DocLine
                | TokenKind::InnerDocLine
                | TokenKind::DocBlock
                | TokenKind::InnerDocBlock
        )
    }
}

/// One token: kind, byte span `[start, end)`, and 1-based start line.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Multi-byte punctuation, longest first so joining is greedy.
const JOINED_PUNCT: [&str; 23] = [
    "<<=", ">>=", "..=", "...", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "&&", "||", "<<", ">>", "::", "..", "&=", "|=",
];

/// Lex `src` into a token stream. Whitespace is skipped (tokens carry
/// their own spans, so nothing is lost); unterminated literals and
/// comments extend to end of input rather than erroring, because the
/// lints must degrade gracefully on work-in-progress files.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;

        // Comments.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let mut j = i;
            while j < bytes.len() && bytes[j] != b'\n' {
                j += 1;
            }
            let text = &src[i..j];
            let kind = if text.starts_with("//!") {
                TokenKind::InnerDocLine
            } else if text.starts_with("///") && !text.starts_with("////") {
                TokenKind::DocLine
            } else {
                TokenKind::LineComment
            };
            out.push(Token {
                kind,
                start,
                end: j,
                line: start_line,
            });
            i = j;
            continue;
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'\n' {
                    line += 1;
                    j += 1;
                } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let text = &src[i..j];
            let kind = if text.starts_with("/*!") {
                TokenKind::InnerDocBlock
            } else if text.starts_with("/**") && !text.starts_with("/***") && text.len() > 4 {
                TokenKind::DocBlock
            } else {
                TokenKind::BlockComment
            };
            out.push(Token {
                kind,
                start,
                end: j,
                line: start_line,
            });
            i = j;
            continue;
        }

        // String-like literals with prefixes: r"", r#""#, b"", br#""#,
        // b'', c"", cr"" — and raw identifiers r#ident.
        if let Some((kind, end, newlines)) = lex_prefixed_literal(bytes, i) {
            out.push(Token {
                kind,
                start,
                end,
                line: start_line,
            });
            line += newlines;
            i = end;
            continue;
        }

        // Plain string literal.
        if b == b'"' {
            let (end, newlines) = scan_string_body(bytes, i + 1);
            out.push(Token {
                kind: TokenKind::Str,
                start,
                end,
                line: start_line,
            });
            line += newlines;
            i = end;
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            let (kind, end) = lex_tick(bytes, i);
            out.push(Token {
                kind,
                start,
                end,
                line: start_line,
            });
            i = end;
            continue;
        }

        // Numbers.
        if b.is_ascii_digit() {
            let end = scan_number(bytes, i);
            out.push(Token {
                kind: TokenKind::Number,
                start,
                end,
                line: start_line,
            });
            i = end;
            continue;
        }

        // Identifiers and keywords (bytes >= 0x80 are treated as ident
        // continuation so multi-byte UTF-8 identifiers stay one token).
        if is_ident_start(b) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident,
                start,
                end: j,
                line: start_line,
            });
            i = j;
            continue;
        }

        // Punctuation: join the standard multi-byte operators.
        let mut matched = 1;
        for op in JOINED_PUNCT {
            if src[i..].starts_with(op) {
                matched = op.len();
                break;
            }
        }
        out.push(Token {
            kind: TokenKind::Punct,
            start,
            end: i + matched,
            line: start_line,
        });
        i += matched;
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Scan a `"`-delimited string body starting just past the opening quote.
/// Returns (one past the closing quote, newlines consumed).
fn scan_string_body(bytes: &[u8], mut j: usize) -> (usize, usize) {
    let mut newlines = 0usize;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => {
                if bytes.get(j + 1) == Some(&b'\n') {
                    newlines += 1;
                }
                j += 2;
            }
            b'"' => return (j + 1, newlines),
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (bytes.len(), newlines)
}

/// Scan a raw string body starting just past the opening quote, with
/// `hashes` trailing `#` required to close. Returns (end, newlines).
fn scan_raw_body(bytes: &[u8], mut j: usize, hashes: usize) -> (usize, usize) {
    let mut newlines = 0usize;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
        } else if bytes[j] == b'"' {
            let mut ok = true;
            for k in 0..hashes {
                if bytes.get(j + 1 + k) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (j + 1 + hashes, newlines);
            }
        }
        j += 1;
    }
    (bytes.len(), newlines)
}

/// Try to lex a prefixed literal (`r`, `b`, `br`, `c`, `cr` forms) or a
/// raw identifier at `i`. Returns `(kind, end, newlines)` on success.
fn lex_prefixed_literal(bytes: &[u8], i: usize) -> Option<(TokenKind, usize, usize)> {
    let b = bytes[i];
    if !(b == b'r' || b == b'b' || b == b'c') {
        return None;
    }
    // A prefix is only a prefix at the start of a token: if the previous
    // byte is an identifier byte we are mid-identifier. Callers only
    // invoke us at token starts, so no check is needed here.
    let next = bytes.get(i + 1).copied();
    match (b, next) {
        // r"…" / r#"…"# / r#ident
        (b'r', Some(b'"')) => {
            let (end, nl) = scan_raw_body(bytes, i + 2, 0);
            Some((TokenKind::RawStr, end, nl))
        }
        (b'r', Some(b'#')) => {
            let mut hashes = 0;
            let mut j = i + 1;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                let (end, nl) = scan_raw_body(bytes, j + 1, hashes);
                Some((TokenKind::RawStr, end, nl))
            } else if hashes == 1 && bytes.get(j).copied().is_some_and(is_ident_start) {
                // Raw identifier r#type.
                let mut k = j + 1;
                while k < bytes.len() && is_ident_continue(bytes[k]) {
                    k += 1;
                }
                Some((TokenKind::Ident, k, 0))
            } else {
                None
            }
        }
        // b'…' / b"…" / br"…" / br#"…"#
        (b'b', Some(b'\'')) => {
            let (_, end) = lex_tick(bytes, i + 1);
            Some((TokenKind::ByteLit, end, 0))
        }
        (b'b', Some(b'"')) => {
            let (end, nl) = scan_string_body(bytes, i + 2);
            Some((TokenKind::ByteStr, end, nl))
        }
        (b'b', Some(b'r')) | (b'c', Some(b'r')) => {
            let mut hashes = 0;
            let mut j = i + 2;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                let (end, nl) = scan_raw_body(bytes, j + 1, hashes);
                Some((TokenKind::RawStr, end, nl))
            } else {
                None
            }
        }
        // c"…" (C string, Rust ≥ 1.77)
        (b'c', Some(b'"')) => {
            let (end, nl) = scan_string_body(bytes, i + 2);
            Some((TokenKind::Str, end, nl))
        }
        _ => None,
    }
}

/// Lex at a `'`: char literal or lifetime. Returns (kind, end).
fn lex_tick(bytes: &[u8], i: usize) -> (TokenKind, usize) {
    match bytes.get(i + 1) {
        // Escaped char: '\n', '\'', '\u{…}'.
        Some(b'\\') => {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                if bytes[j] == b'\\' {
                    j += 1; // skip the escaped byte (covers \\ and \')
                }
                j += 1;
            }
            let end = if bytes.get(j) == Some(&b'\'') {
                j + 1
            } else {
                j
            };
            (TokenKind::CharLit, end)
        }
        Some(&c) if is_ident_start(c) || c.is_ascii_digit() => {
            // Identifier-ish run: 'a' is a char, 'abc is a lifetime.
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            if bytes.get(j) == Some(&b'\'') {
                (TokenKind::CharLit, j + 1)
            } else {
                (TokenKind::Lifetime, j)
            }
        }
        // Punctuation or unicode char like '.' or 'é': closing quote on
        // the same line makes it a char literal; otherwise a stray tick.
        Some(_) => {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                j += 1;
            }
            if bytes.get(j) == Some(&b'\'') {
                (TokenKind::CharLit, j + 1)
            } else {
                (TokenKind::Punct, i + 1)
            }
        }
        None => (TokenKind::Punct, i + 1),
    }
}

/// Scan a numeric literal: digits, `_`, type suffixes, hex/oct/bin, a
/// fractional part when followed by a digit (so `1..5` and `1.max(2)`
/// stay ranges and method calls), and signed exponents (`1e-6`).
fn scan_number(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < bytes.len() {
        let b = bytes[j];
        if b.is_ascii_alphanumeric() || b == b'_' {
            // Signed exponent: e+3 / E-6 (decimal literals only).
            if (b == b'e' || b == b'E')
                && !starts_with_radix_prefix(bytes, i)
                && matches!(bytes.get(j + 1), Some(b'+') | Some(b'-'))
                && bytes.get(j + 2).is_some_and(u8::is_ascii_digit)
            {
                j += 2;
            }
            j += 1;
        } else if b == b'.'
            && !starts_with_radix_prefix(bytes, i)
            && bytes.get(j + 1).is_some_and(u8::is_ascii_digit)
        {
            j += 1;
        } else {
            break;
        }
    }
    j
}

fn starts_with_radix_prefix(bytes: &[u8], i: usize) -> bool {
    bytes[i] == b'0'
        && matches!(
            bytes.get(i + 1),
            Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B')
        )
}

/// Is a `Number` token's text a floating-point literal (used by the
/// tick-arithmetic lint's float exemption)?
pub fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0o")
        || text.starts_with("0b")
    {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains(['e', 'E'])
}

/// The per-line projection of a token stream, mirroring what the v1
/// scanner derived textually — but computed from exact tokens.
#[derive(Clone, Debug, Default)]
pub struct LineView {
    /// Code with comments removed and string/char contents blanked
    /// (string delimiters kept, raw-string bodies fully blanked).
    pub code: String,
    /// Comment text of the line (all comment kinds), code blanked.
    pub comment: String,
    /// The line's first token is a doc comment (`///`, `//!`, or a line
    /// of a block doc).
    pub doc_comment: bool,
    /// The raw line starts with a single `/` that really is a division
    /// operator in code (never prose inside a string or comment).
    pub doc_slash: bool,
    /// The line falls inside (or opens) a `#[cfg(test)]` region.
    pub in_test_cfg: bool,
}

/// Project `tokens` over `src` into per-line views.
pub fn line_views(src: &str, tokens: &[Token]) -> Vec<LineView> {
    let n = src.len();
    let mut code_buf = vec![b' '; n];
    let mut cmt_buf = vec![b' '; n];
    for (i, &b) in src.as_bytes().iter().enumerate() {
        if b == b'\n' {
            code_buf[i] = b'\n';
            cmt_buf[i] = b'\n';
        }
    }

    for t in tokens {
        let span = &src.as_bytes()[t.start..t.end];
        match t.kind {
            TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number | TokenKind::Punct => {
                code_buf[t.start..t.end].copy_from_slice(span);
            }
            TokenKind::Str | TokenKind::ByteStr | TokenKind::CharLit | TokenKind::ByteLit => {
                // Keep the delimiters (and prefix) so patterns like `'x'`
                // or `"…"` keep their shape; blank the contents.
                let quote = if matches!(t.kind, TokenKind::CharLit | TokenKind::ByteLit) {
                    b'\''
                } else {
                    b'"'
                };
                let mut k = t.start;
                // Prefix bytes (b, c) and the opening quote.
                while k < t.end {
                    code_buf[k] = span[k - t.start];
                    if span[k - t.start] == quote {
                        break;
                    }
                    k += 1;
                }
                if t.end > t.start && span[t.end - 1 - t.start] == quote && t.end - 1 > k {
                    code_buf[t.end - 1] = quote;
                }
            }
            TokenKind::RawStr => {
                // Fully blanked, matching the v1 scanner: raw-string
                // bodies (and their delimiters) contribute nothing.
            }
            k if k.is_comment() => {
                cmt_buf[t.start..t.end].copy_from_slice(span);
            }
            _ => {}
        }
    }

    let code_text = String::from_utf8_lossy(&code_buf).into_owned();
    let cmt_text = String::from_utf8_lossy(&cmt_buf).into_owned();
    let raw_lines: Vec<&str> = src.lines().collect();
    let code_lines: Vec<&str> = code_text.lines().collect();
    let cmt_lines: Vec<&str> = cmt_text.lines().collect();

    let mut out: Vec<LineView> = (0..raw_lines.len())
        .map(|i| LineView {
            code: code_lines.get(i).copied().unwrap_or("").to_string(),
            comment: cmt_lines.get(i).copied().unwrap_or("").to_string(),
            ..LineView::default()
        })
        .collect();

    // Line starts, for locating the first non-whitespace byte per line.
    let mut line_start = Vec::with_capacity(raw_lines.len() + 1);
    line_start.push(0usize);
    for (i, &b) in src.as_bytes().iter().enumerate() {
        if b == b'\n' {
            line_start.push(i + 1);
        }
    }

    // Doc-comment lines: every line covered by a doc token.
    for t in tokens {
        if t.kind.is_doc() {
            let text = t.text(src);
            let extra = text.matches('\n').count();
            for l in t.line..=t.line + extra {
                if let Some(v) = out.get_mut(l - 1) {
                    v.doc_comment = true;
                }
            }
        }
    }

    // doc-slash candidates: the raw line starts with exactly "/ " (or a
    // lone "/") *and* that byte belongs to a Punct token — prose inside
    // strings or comments can never qualify.
    for (i, raw) in raw_lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if !(trimmed.starts_with("/ ") || trimmed == "/") {
            continue;
        }
        if out[i].code.trim().is_empty() {
            continue;
        }
        let off = line_start[i] + (raw.len() - trimmed.len());
        let is_code_slash = tokens
            .iter()
            .any(|t| t.kind == TokenKind::Punct && t.start == off);
        if is_code_slash {
            out[i].doc_slash = true;
        }
    }

    mark_test_cfg_regions(src, tokens, &mut out);
    out
}

/// Mark lines inside `#[cfg(test)]` (and `#![cfg(test)]`) regions.
///
/// The region of an outer attribute is the annotated item: subsequent
/// attributes are skipped, then tokens are walked to the item's end —
/// the matching `}` of its first top-level brace, or a top-level `;`
/// for brace-less items (so `#[cfg(test)] use …;` no longer swallows the
/// rest of the file, a v1 bug). Delimiters are counted on tokens, so
/// braces inside strings or comments can never desync the region.
fn mark_test_cfg_regions(src: &str, tokens: &[Token], lines: &mut [LineView]) {
    let toks: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let mark = |lines: &mut [LineView], from: usize, to: usize| {
        for l in from..=to {
            if let Some(v) = lines.get_mut(l - 1) {
                v.in_test_cfg = true;
            }
        }
    };
    let last_line = lines.len().max(1);

    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Punct && toks[i].text(src) == "#") {
            i += 1;
            continue;
        }
        let inner = toks.get(i + 1).is_some_and(|t| t.text(src) == "!");
        let open = i + 1 + usize::from(inner);
        if toks.get(open).is_none_or(|t| t.text(src) != "[") {
            i += 1;
            continue;
        }
        // Find the matching `]` and test for `cfg(… test …)`.
        let mut depth = 0i32;
        let mut close = open;
        while close < toks.len() {
            match toks[close].text(src) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        if close >= toks.len() {
            break;
        }
        let body = &toks[open + 1..close];
        let is_cfg_test = body.first().is_some_and(|t| t.text(src) == "cfg")
            && body
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text(src) == "test");
        if !is_cfg_test {
            i = close + 1;
            continue;
        }
        let attr_line = toks[i].line;
        if inner {
            // `#![cfg(test)]`: the whole file is a test region.
            mark(lines, 1, last_line);
            return;
        }
        // Skip any further outer attributes on the same item.
        let mut j = close + 1;
        while toks.get(j).is_some_and(|t| t.text(src) == "#")
            && toks.get(j + 1).is_some_and(|t| t.text(src) == "[")
        {
            let mut d = 0i32;
            let mut k = j + 1;
            while k < toks.len() {
                match toks[k].text(src) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        // Walk the annotated item to its end.
        let mut delim = 0i32;
        let mut saw_brace = false;
        let mut end_line = last_line;
        let mut k = j;
        while k < toks.len() {
            match toks[k].text(src) {
                "{" | "(" | "[" => {
                    if toks[k].text(src) == "{" {
                        saw_brace = true;
                    }
                    delim += 1;
                }
                "}" | ")" | "]" => {
                    delim -= 1;
                    if delim == 0 && saw_brace && toks[k].text(src) == "}" {
                        end_line = toks[k].line;
                        break;
                    }
                }
                ";" if delim == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        mark(lines, attr_line, end_line);
        i = close + 1;
    }
}

/// Render a token stream as one line per token (`LINE KIND "text"`), for
/// golden-file fixture tests. Long tokens are elided in the middle so
/// goldens stay readable.
pub fn render_tokens(src: &str) -> String {
    let mut out = String::new();
    for t in lex(src) {
        let text = t.text(src);
        let shown: String = if text.len() > 40 {
            let head: String = text.chars().take(18).collect();
            let tail: String = text
                .chars()
                .rev()
                .take(18)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            format!("{head}…{tail}")
        } else {
            text.to_string()
        };
        let escaped = shown.replace('\n', "\\n");
        out.push_str(&format!("{:>4} {:?} {escaped}\n", t.line, t.kind));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lossless_spans() {
        let src = "fn f() -> u64 { \"x\" .len() as u64 + 1 } // done\n";
        let toks = lex(src);
        for w in toks.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping tokens");
        }
    }

    #[test]
    fn raw_strings_all_prefixes() {
        for src in [
            "let a = r\"hi\";",
            "let a = r#\"hi \"quoted\" }\"#;",
            "let a = br#\"bytes } { \"#;",
            "let a = cr\"c-raw\";",
        ] {
            let toks = lex(src);
            assert!(
                toks.iter().any(|t| t.kind == TokenKind::RawStr),
                "no raw string in {src}"
            );
            // The brace inside the raw string must not become a Punct.
            assert!(
                !toks
                    .iter()
                    .any(|t| t.kind == TokenKind::Punct && t.text(src) == "}"),
                "raw string leaked a brace in {src}"
            );
        }
    }

    #[test]
    fn raw_identifier_is_ident() {
        let src = "let r#type = 1;";
        let toks = lex(src);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[1].text(src), "r#type");
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let toks = lex(src);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars = toks.iter().filter(|t| t.kind == TokenKind::CharLit).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn loop_label_is_lifetime() {
        let src = "'outer: loop { break 'outer; }";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::Lifetime);
        assert_eq!(toks[0].text(src), "'outer");
    }

    #[test]
    fn doc_comment_kinds() {
        assert!(kinds("/// doc").contains(&TokenKind::DocLine));
        assert!(kinds("//! inner").contains(&TokenKind::InnerDocLine));
        assert!(kinds("//// ruler").contains(&TokenKind::LineComment));
        assert!(kinds("// plain").contains(&TokenKind::LineComment));
        assert!(kinds("/** block */").contains(&TokenKind::DocBlock));
        assert!(kinds("/*! inner */").contains(&TokenKind::InnerDocBlock));
        assert!(kinds("/* plain */").contains(&TokenKind::BlockComment));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still */ fn f() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text(src), "/* outer /* inner */ still */");
        assert_eq!(toks[1].text(src), "fn");
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "let x = 1.5e-3; for i in 0..10 { let y = 1.max(2); }";
        let toks = lex(src);
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, ["1.5e-3", "0", "10", "1", "2"]);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Punct && t.text(src) == ".."));
    }

    #[test]
    fn float_literal_detection() {
        assert!(is_float_literal("1.5"));
        assert!(is_float_literal("1e6"));
        assert!(is_float_literal("2f64"));
        assert!(!is_float_literal("1_000"));
        assert!(!is_float_literal("0x1F"));
    }

    #[test]
    fn string_continuation_counts_lines() {
        let src = "let s = \"one \\\n two\";\nlet t = 3;";
        let toks = lex(src);
        let t3 = toks.iter().find(|t| t.text(src) == "t");
        assert_eq!(t3.map(|t| t.line), Some(3));
    }

    #[test]
    fn line_views_blank_string_contents() {
        let src = "fn f() { let s = \"panic!( .unwrap()\"; }\n";
        let views = line_views(src, &lex(src));
        assert!(!views[0].code.contains("panic"));
        assert!(views[0].code.contains('"'));
    }

    #[test]
    fn line_views_doc_slash_only_in_code() {
        // Division continuation: real code, flagged as candidate.
        let src = "fn f(a: f64, b: f64) -> f64 {\n    a\n/ b\n}\n";
        let views = line_views(src, &lex(src));
        assert!(views[2].doc_slash);
        // Same shape inside a raw string: prose, not flagged.
        let src = "const S: &str = r#\"\n/ prose line\n\"#;\nfn g() {}\n";
        let views = line_views(src, &lex(src));
        assert!(!views.iter().any(|v| v.doc_slash));
    }

    #[test]
    fn cfg_test_region_on_tokens() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\npub fn after() {}\n";
        let views = line_views(src, &lex(src));
        assert!(views[0].in_test_cfg && views[1].in_test_cfg && views[2].in_test_cfg);
        assert!(views[3].in_test_cfg);
        assert!(!views[4].in_test_cfg, "region leaked past its close");
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::fmt::Debug;\n\npub fn live() {}\n";
        let views = line_views(src, &lex(src));
        assert!(views[0].in_test_cfg && views[1].in_test_cfg);
        assert!(!views[3].in_test_cfg, "cfg(test) use swallowed the file");
    }

    #[test]
    fn cfg_test_region_survives_braces_in_strings() {
        let src = "#[cfg(test)]\nmod tests {\n    const T: &[u8] = br#\"}}}\"#;\n    pub fn helper() {}\n}\npub fn after() {}\n";
        let views = line_views(src, &lex(src));
        assert!(views[3].in_test_cfg, "byte raw string desynced the region");
        assert!(!views[5].in_test_cfg);
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\npub fn helper() {}\n";
        let views = line_views(src, &lex(src));
        assert!(views.iter().all(|v| v.in_test_cfg));
    }

    #[test]
    fn multiline_cfg_attr_is_tracked() {
        let src = "#[cfg(\n    test\n)]\nmod tests {\n    pub fn h() {}\n}\n";
        let views = line_views(src, &lex(src));
        assert!(views[4].in_test_cfg, "multi-line cfg attr missed");
    }
}
