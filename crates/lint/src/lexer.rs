//! A hand-rolled Rust token scanner.
//!
//! The rule engine only needs to know *which identifiers appear as
//! code* — so this lexer's single job is to classify every byte of a
//! source file as comment, string/char literal, lifetime, number,
//! identifier or punctuation without ever confusing prose for code.
//! The hard cases it must get right (each covered by a round-trip
//! test):
//!
//! * nested block comments (`/* outer /* inner */ still out */`),
//! * cooked strings with escapes (`"qu\"ote"`), byte and C strings,
//! * raw strings with any hash depth (`r#"…"#`, `br##"…"##`),
//! * char literals versus lifetimes (`'"'` and `'\n'` are chars,
//!   `'a` in `<'a>` and loop labels are lifetimes),
//! * raw identifiers (`r#type` is an identifier, not a raw string).
//!
//! Tokens carry byte spans and 1-based line/column (byte columns), so
//! findings point at the exact source position. The scan is total: any
//! input produces a token list whose concatenated spans cover every
//! non-whitespace byte exactly once (unterminated literals run to end
//! of file rather than failing).

/// What a token is. Comments keep a `doc` flag because doc comments
/// are prose: the engine never reads rule triggers *or* allow markers
/// out of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// Any string literal: cooked, byte, C, or raw at any hash depth.
    Str,
    /// A character or byte-character literal.
    Char,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A `//` comment. `doc` is true for `///` and `//!` forms.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
    },
    /// A `/* */` comment (nesting handled). `doc` for `/**` and `/*!`.
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`).
        doc: bool,
    },
    /// A single punctuation character (multi-char operators arrive as
    /// consecutive tokens; the engine matches sequences itself).
    Punct,
}

/// One lexed token: classification plus exact source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token classification.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// Byte offset of the token start.
    pub start: usize,
    /// 1-based source line of the token start.
    pub line: u32,
    /// 1-based byte column of the token start.
    pub col: u32,
}

/// Lexes `src` into a complete token stream.
///
/// Total function: never fails, never skips a non-whitespace byte.
#[must_use]
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() {
                self.advance(1);
                continue;
            }
            let (start, line, col) = (self.pos, self.line, self.col);
            let kind = self.next_token(b);
            out.push(Token {
                kind,
                text: &self.src[start..self.pos],
                start,
                line,
                col,
            });
        }
        out
    }

    fn next_token(&mut self, b: u8) -> TokenKind {
        match b {
            b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'"' => {
                self.cooked_string();
                TokenKind::Str
            }
            b'\'' => self.char_or_lifetime(),
            b'0'..=b'9' => {
                self.number();
                TokenKind::Num
            }
            _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
            _ => {
                // One punctuation character; multi-byte UTF-8 scalars
                // (only reachable in pathological input) are consumed
                // whole so token boundaries stay char boundaries.
                self.advance(self.char_width());
                TokenKind::Punct
            }
        }
    }

    /// Byte width of the UTF-8 scalar at the cursor (1 at end of
    /// input).
    fn char_width(&self) -> usize {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .map_or(1, char::len_utf8)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Consumes `n` bytes, keeping line/column in step.
    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos >= self.bytes.len() {
                return;
            }
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.advance(1);
        }
        let text = &self.src[start..self.pos];
        // `////…` dividers are plain comments; `///` and `//!` are doc.
        let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        TokenKind::LineComment { doc }
    }

    fn block_comment(&mut self) -> TokenKind {
        let start = self.pos;
        self.advance(2); // `/*`
        let mut depth = 1usize;
        while depth > 0 && self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.advance(2);
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.advance(2);
            } else {
                self.advance(1);
            }
        }
        let text = &self.src[start..self.pos];
        let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
            || text.starts_with("/*!");
        TokenKind::BlockComment { doc }
    }

    /// Consumes a `"…"` string with escape handling. Multi-byte UTF-8
    /// content is safe to scan bytewise: continuation bytes are ≥ 0x80
    /// and can never equal `"` or `\`.
    fn cooked_string(&mut self) {
        self.advance(1); // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.advance(2),
                b'"' => {
                    self.advance(1);
                    return;
                }
                _ => self.advance(1),
            }
        }
    }

    /// Consumes `r"…"`, `r#"…"#`, … after the prefix: `hashes` is the
    /// number of `#` between the prefix and the opening quote.
    fn raw_string(&mut self, hashes: usize) {
        self.advance(hashes + 1); // `#…#"`
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"' {
                let closed = (1..=hashes).all(|i| self.peek(i) == Some(b'#'));
                self.advance(1);
                if closed {
                    self.advance(hashes);
                    return;
                }
            } else {
                self.advance(1);
            }
        }
    }

    /// At a `'`: decides between a char literal and a lifetime.
    fn char_or_lifetime(&mut self) -> TokenKind {
        match self.peek(1) {
            // `'\n'`, `'\u{7f}'`, `'\''` — escaped char literal.
            Some(b'\\') => {
                self.advance(1);
                self.char_literal_body();
                TokenKind::Char
            }
            // `'a'` is a char; `'a` (no closing quote after the
            // identifier run) is a lifetime or loop label.
            Some(c) if is_ident_start(c) => {
                let mut end = self.pos + 2;
                while self.bytes.get(end).copied().is_some_and(is_ident_continue) {
                    end += 1;
                }
                if self.bytes.get(end) == Some(&b'\'') {
                    self.advance(end + 1 - self.pos);
                    TokenKind::Char
                } else {
                    self.advance(end - self.pos);
                    TokenKind::Lifetime
                }
            }
            // `'0'`, `'"'`, `' '` — any other single char.
            Some(_) => {
                self.advance(1);
                self.char_literal_body();
                TokenKind::Char
            }
            None => {
                self.advance(1);
                TokenKind::Punct
            }
        }
    }

    /// Consumes the rest of a char literal after the opening `'`.
    fn char_literal_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    // The backslash, then the whole escaped character:
                    // `'\é'` must not stop inside the `é`.
                    self.advance(1);
                    self.advance(self.char_width());
                }
                b'\'' => {
                    self.advance(1);
                    return;
                }
                _ => self.advance(self.char_width()),
            }
        }
    }

    fn number(&mut self) {
        // `0x`/`0o`/`0b` literals never carry an exponent, so a `+`/`-`
        // after an `e` inside them is arithmetic, not a sign.
        let radix_prefixed = self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'));
        let mut prev = 0u8;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            let take = match b {
                _ if is_ident_continue(b) => true,
                // `1.5` continues the number; `1..n` and `1.max()` stop.
                b'.' => self.peek(1).is_some_and(|n| n.is_ascii_digit()),
                // `1e-5`, `2.5E+3` exponent signs.
                b'+' | b'-' => !radix_prefixed && matches!(prev, b'e' | b'E'),
                _ => false,
            };
            if !take {
                return;
            }
            prev = b;
            self.advance(1);
        }
    }

    /// An identifier, or a literal it prefixes: `r"…"`/`br#"…"#`/
    /// `c"…"` raw/byte/C strings, `b'x'` byte chars, `r#ident` raw
    /// identifiers.
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.advance(1);
        }
        let ident = &self.src[start..self.pos];
        match (ident, self.bytes.get(self.pos)) {
            ("r" | "br" | "cr", Some(b'"')) => {
                self.raw_string(0);
                TokenKind::Str
            }
            ("r" | "br" | "cr", Some(b'#')) => {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some(b'"') {
                    self.raw_string(hashes);
                    TokenKind::Str
                } else if ident == "r" && self.peek(1).is_some_and(is_ident_start) {
                    // Raw identifier `r#type`: consume `#` + ident.
                    self.advance(2);
                    while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
                        self.advance(1);
                    }
                    TokenKind::Ident
                } else {
                    TokenKind::Ident
                }
            }
            ("b" | "c", Some(b'"')) => {
                self.cooked_string();
                TokenKind::Str
            }
            ("b", Some(b'\'')) => {
                self.char_or_lifetime();
                TokenKind::Char
            }
            _ => TokenKind::Ident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn spans_cover_every_non_whitespace_byte() {
        let src = r##"fn f<'a>(x: &'a str) -> u64 { r#"raw "q" "#.len() as u64 + 0x1f }"##;
        let tokens = lex(src);
        let mut pos = 0usize;
        for t in &tokens {
            assert!(t.start >= pos, "overlap at {}", t.start);
            assert!(
                src[pos..t.start].bytes().all(|b| b.is_ascii_whitespace()),
                "gap {pos}..{} is not whitespace",
                t.start
            );
            assert_eq!(&src[t.start..t.start + t.text.len()], t.text);
            pos = t.start + t.text.len();
        }
        assert!(src[pos..].bytes().all(|b| b.is_ascii_whitespace()));
    }

    #[test]
    fn char_versus_lifetime() {
        let toks = kinds("let q = '\"'; let l: &'a str; 'outer: loop {}");
        assert!(toks.contains(&(TokenKind::Char, "'\"'")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'outer")));
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let toks = kinds("a /* x /* y */ z */ b");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a"),
                (TokenKind::BlockComment { doc: false }, "/* x /* y */ z */"),
                (TokenKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        let toks = kinds(r###"let s = r##"has "# inside"##; done"###);
        assert!(toks.contains(&(TokenKind::Str, r###"r##"has "# inside"##"###)));
        assert!(toks.contains(&(TokenKind::Ident, "done")));
    }

    #[test]
    fn raw_identifier_is_ident_not_string() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "r#type")));
    }

    #[test]
    fn doc_comments_flagged() {
        let toks = kinds("/// doc\n//! inner\n// plain\n//// divider\nx");
        assert_eq!(toks[0].0, TokenKind::LineComment { doc: true });
        assert_eq!(toks[1].0, TokenKind::LineComment { doc: true });
        assert_eq!(toks[2].0, TokenKind::LineComment { doc: false });
        assert_eq!(toks[3].0, TokenKind::LineComment { doc: false });
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let toks = kinds("0..64");
        assert_eq!(toks[0], (TokenKind::Num, "0"));
        assert!(toks.contains(&(TokenKind::Num, "64")));
        let toks = kinds("1.0e-5 2.5E+3 1.max(2) 0x1f");
        assert_eq!(toks[0], (TokenKind::Num, "1.0e-5"));
        assert_eq!(toks[1], (TokenKind::Num, "2.5E+3"));
        assert_eq!(toks[2], (TokenKind::Num, "1"));
        assert!(toks.contains(&(TokenKind::Ident, "max")));
        assert!(toks.contains(&(TokenKind::Num, "0x1f")));
    }

    #[test]
    fn line_and_column_are_one_based() {
        let tokens = lex("ab\n  cd");
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_literals_run_to_eof() {
        assert_eq!(kinds("\"open"), vec![(TokenKind::Str, "\"open")]);
        assert_eq!(
            kinds("/* open"),
            vec![(TokenKind::BlockComment { doc: false }, "/* open")]
        );
    }
}
