//! Tokenizer for the RPC language.

use crate::Error;

/// A lexical token with its source line (for diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds of the RPC language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are resolved by the parser).
    Ident(String),
    /// Integer literal (decimal, 0x hex, or 0 octal), possibly negative.
    Number(i64),
    /// String literal: the text between two `"` on one line, no escapes.
    Str(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `*`
    Star,
    /// `:`
    Colon,
    /// End of input sentinel.
    Eof,
}

impl std::fmt::Display for TokenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::Str(s) => write!(f, "string `\"{s}\"`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Tokenize RPCL `source`.
///
/// Handles `/* ... */` and `// ...` comments and `%`-passthrough lines
/// (which rpcgen copies into the output verbatim; we discard them).
pub fn tokenize(source: &str) -> Result<Vec<Token>, Error> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let n = bytes.len();

    while i < n {
        let c = bytes[i];
        if let Some(kind) = punctuation(c) {
            tokens.push(Token { kind, line });
            i += 1;
            continue;
        }
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'%' => {
                // Passthrough line: skip to end of line.
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= n {
                        return Err(Error {
                            line: start_line,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                if c == b'-' {
                    i += 1;
                    if i >= n || !bytes[i].is_ascii_digit() {
                        return Err(Error {
                            line,
                            message: "`-` not followed by a digit".into(),
                        });
                    }
                }
                let (radix, text_start) =
                    if bytes[i] == b'0' && i + 1 < n && (bytes[i + 1] | 0x20) == b'x' {
                        i += 2;
                        (16, i)
                    } else if bytes[i] == b'0' && i + 1 < n && bytes[i + 1].is_ascii_digit() {
                        i += 1;
                        (8, i)
                    } else {
                        (10, i)
                    };
                while i < n && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                let text = &source[text_start..i];
                let value = i64::from_str_radix(text, radix).map_err(|_| Error {
                    line,
                    message: format!("invalid number literal `{}`", &source[start..i]),
                })?;
                let value = if c == b'-' { -value } else { value };
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    line,
                });
            }
            b'"' => {
                let len = source[i + 1..].find(['"', '\n']);
                let Some(len) = len.filter(|&len| bytes[i + 1 + len] == b'"') else {
                    return Err(Error {
                        line,
                        message: "unterminated string literal".into(),
                    });
                };
                let text = source[i + 1..i + 1 + len].to_string();
                tokens.push(Token {
                    kind: TokenKind::Str(text),
                    line,
                });
                i += len + 2;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(source[start..i].to_string()),
                    line,
                });
            }
            other => {
                return Err(Error {
                    line,
                    message: format!("unexpected character `{}`", other as char),
                })
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

/// The one-character token `c` stands for, if it is one.
fn punctuation(c: u8) -> Option<TokenKind> {
    Some(match c {
        b'{' => TokenKind::LBrace,
        b'}' => TokenKind::RBrace,
        b'(' => TokenKind::LParen,
        b')' => TokenKind::RParen,
        b'[' => TokenKind::LBracket,
        b']' => TokenKind::RBracket,
        b'<' => TokenKind::Lt,
        b'>' => TokenKind::Gt,
        b';' => TokenKind::Semi,
        b',' => TokenKind::Comma,
        b'=' => TokenKind::Eq,
        b'*' => TokenKind::Star,
        b':' => TokenKind::Colon,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("struct s { int x; };"),
            vec![
                TokenKind::Ident("struct".into()),
                TokenKind::Ident("s".into()),
                TokenKind::LBrace,
                TokenKind::Ident("int".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 -2 0x10 010 0"),
            vec![
                TokenKind::Number(1),
                TokenKind::Number(-2),
                TokenKind::Number(16),
                TokenKind::Number(8),
                TokenKind::Number(0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_and_passthrough() {
        let src = "/* block\ncomment */ int // line comment\n%#include <stdio.h>\nx";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Ident("int".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn bad_number_is_error() {
        assert!(tokenize("0xZZ").is_err());
        assert!(tokenize("- x").is_err());
    }

    #[test]
    fn string_literals_end_on_their_line() {
        assert_eq!(
            kinds(r#"api(m, "cudaMemcpy(D2D)") """#),
            vec![
                TokenKind::Ident("api".into()),
                TokenKind::LParen,
                TokenKind::Ident("m".into()),
                TokenKind::Comma,
                TokenKind::Str("cudaMemcpy(D2D)".into()),
                TokenKind::RParen,
                TokenKind::Str(String::new()),
                TokenKind::Eof,
            ]
        );
        assert!(tokenize("\"never ends").is_err());
        assert!(tokenize("\"two\nlines\"").is_err());
    }

    #[test]
    fn unexpected_char_is_error() {
        let err = tokenize("int a; @").unwrap_err();
        assert!(err.message.contains('@'));
    }
}
