//! The lexer and the rule engine are total: any text, including
//! multi-byte characters after escapes, lexes and lints without a panic.

use proptest::prelude::*;

use qlint::lexer::lex;
use qlint::{lint_source, FileContext, FileKind};

/// Lexer-significant ASCII (quotes, escapes, comment and brace
/// punctuation, number and identifier starts) mixed with 2-, 3- and
/// 4-byte UTF-8 characters.
const ALPHABET: [char; 22] = [
    '\'', '"', 'b', 'r', '#', '/', '\\', '*', '{', '}', '(', ')', 'u', '0', 'x', 'e', '.', ':',
    '\n', 'é', '日', '🦀',
];

/// Lexes and lints `src`, checking the token spans tile the input's
/// non-whitespace bytes in order.
fn check(src: &str) {
    let tokens = lex(src);
    let mut pos = 0;
    for t in &tokens {
        assert!(t.start >= pos, "{src:?}: overlapping tokens");
        assert!(src[pos..t.start].trim().is_empty(), "{src:?}: skipped text");
        assert_eq!(&src[t.start..t.start + t.text.len()], t.text);
        pos = t.start + t.text.len();
    }
    assert!(src[pos..].trim().is_empty(), "{src:?}: skipped tail");
    let ctx = FileContext {
        kind: FileKind::Lib,
        artifact: true,
    };
    let _ = lint_source("fuzz.rs", &ctx, src);
}

#[test]
fn escaped_multibyte_char_literal_lexes() {
    // The escaped character after a backslash is stepped over whole,
    // whatever its UTF-8 width, so the cursor never lands inside it.
    for src in ["'\\é'", "'\\é", "b'\\日'", "'\\🦀' x", "'\\"] {
        check(src);
    }
    let tokens = lex("'\\é' x");
    assert_eq!(tokens[0].text, "'\\é'");
    assert_eq!(tokens[1].text, "x");
}

proptest! {
    /// Every short window of a random text (up to six characters from
    /// every start) and the whole text lex and lint without a panic:
    /// about 3 000 inputs per case.
    #[test]
    fn lex_and_lint_never_panic_on_random_text(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 1..500),
    ) {
        let chars: Vec<char> = picks.iter().map(|&i| ALPHABET[i]).collect();
        for start in 0..chars.len() {
            for len in 1..=6.min(chars.len() - start) {
                let src: String = chars[start..start + len].iter().collect();
                check(&src);
            }
        }
        check(&chars.iter().collect::<String>());
    }
}
