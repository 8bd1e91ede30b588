//! Regular expressions over a label alphabet.
//!
//! Textual syntax (labels are identifiers; `.` concatenates because
//! labels are multi-character words):
//!
//! ```text
//! path   := alt
//! alt    := cat ('|' cat)*
//! cat    := rep ('.' rep)*
//! rep    := atom ('*' | '+' | '?')*
//! atom   := LABEL | '_' | '(' path ')'
//! ```
//!
//! Examples: `a.(b|c)*.d`, `_*.rating`, `cd.title?`.

use std::fmt;

/// A regular expression over labels of type `L`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex<L> {
    /// The empty word.
    Epsilon,
    /// A single label.
    Label(L),
    /// Any single label (wildcard `_`).
    Any,
    /// Concatenation.
    Concat(Box<Regex<L>>, Box<Regex<L>>),
    /// Alternation.
    Alt(Box<Regex<L>>, Box<Regex<L>>),
    /// Kleene star.
    Star(Box<Regex<L>>),
}

impl<L> Regex<L> {
    /// `r+` desugars to `r.r*`.
    pub fn plus(r: Regex<L>) -> Regex<L>
    where
        L: Clone,
    {
        Regex::Concat(Box::new(r.clone()), Box::new(Regex::Star(Box::new(r))))
    }

    /// `r?` desugars to `ε | r`.
    pub fn opt(r: Regex<L>) -> Regex<L> {
        Regex::Alt(Box::new(Regex::Epsilon), Box::new(r))
    }

    /// Map the label type (e.g. `String` → an interned symbol).
    pub fn map<M>(&self, f: &mut impl FnMut(&L) -> M) -> Regex<M> {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Any => Regex::Any,
            Regex::Label(l) => Regex::Label(f(l)),
            Regex::Concat(a, b) => Regex::Concat(Box::new(a.map(f)), Box::new(b.map(f))),
            Regex::Alt(a, b) => Regex::Alt(Box::new(a.map(f)), Box::new(b.map(f))),
            Regex::Star(a) => Regex::Star(Box::new(a.map(f))),
        }
    }

    /// All labels mentioned.
    pub fn labels(&self) -> Vec<&L> {
        let mut out = Vec::new();
        fn go<'a, L>(r: &'a Regex<L>, out: &mut Vec<&'a L>) {
            match r {
                Regex::Label(l) => out.push(l),
                Regex::Concat(a, b) | Regex::Alt(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                Regex::Star(a) => go(a, out),
                Regex::Epsilon | Regex::Any => {}
            }
        }
        go(self, &mut out);
        out
    }

    /// Does the expression use the `_` wildcard?
    pub fn uses_wildcard(&self) -> bool {
        match self {
            Regex::Any => true,
            Regex::Concat(a, b) | Regex::Alt(a, b) => a.uses_wildcard() || b.uses_wildcard(),
            Regex::Star(a) => a.uses_wildcard(),
            Regex::Epsilon | Regex::Label(_) => false,
        }
    }
}

impl<L: fmt::Display> fmt::Display for Regex<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Epsilon => write!(f, "()"),
            Regex::Label(l) => write!(f, "{l}"),
            Regex::Any => write!(f, "_"),
            Regex::Concat(a, b) => write!(f, "{a}.{b}"),
            Regex::Alt(a, b) => write!(f, "({a}|{b})"),
            Regex::Star(a) => match **a {
                Regex::Label(_) | Regex::Any | Regex::Epsilon => write!(f, "{a}*"),
                _ => write!(f, "({a})*"),
            },
        }
    }
}

/// Parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    /// Byte position of the failure.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for RegexError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, RegexError> {
        Err(RegexError {
            pos: self.pos,
            msg: msg.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alt(&mut self) -> Result<Regex<String>, RegexError> {
        let mut r = self.cat()?;
        while self.eat(b'|') {
            let rhs = self.cat()?;
            r = Regex::Alt(Box::new(r), Box::new(rhs));
        }
        Ok(r)
    }

    fn cat(&mut self) -> Result<Regex<String>, RegexError> {
        let mut r = self.rep()?;
        while self.eat(b'.') {
            let rhs = self.rep()?;
            r = Regex::Concat(Box::new(r), Box::new(rhs));
        }
        Ok(r)
    }

    fn rep(&mut self) -> Result<Regex<String>, RegexError> {
        let mut r = self.atom()?;
        loop {
            if self.eat(b'*') {
                r = Regex::Star(Box::new(r));
            } else if self.eat(b'+') {
                r = Regex::plus(r);
            } else if self.eat(b'?') {
                r = Regex::opt(r);
            } else {
                return Ok(r);
            }
        }
    }

    fn atom(&mut self) -> Result<Regex<String>, RegexError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                if self.eat(b')') {
                    return Ok(Regex::Epsilon); // `()` is ε (printed by Display)
                }
                let r = self.alt()?;
                if !self.eat(b')') {
                    return self.err("expected ')'");
                }
                Ok(r)
            }
            Some(b'_') => {
                self.pos += 1;
                Ok(Regex::Any)
            }
            Some(c) if c.is_ascii_alphanumeric() || c == b'-' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'-')
                {
                    self.pos += 1;
                }
                let label = std::str::from_utf8(&self.src[start..self.pos])
                    .expect("ASCII label")
                    .to_string();
                Ok(Regex::Label(label))
            }
            _ => self.err("expected label, '_' or '('"),
        }
    }
}

/// Parse a path expression over string labels.
pub fn parse_regex(src: &str) -> Result<Regex<String>, RegexError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
    };
    let r = p.alt()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing input");
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_forms() {
        assert_eq!(parse_regex("a").unwrap(), Regex::Label("a".into()));
        assert_eq!(
            parse_regex("a.b").unwrap(),
            Regex::Concat(
                Box::new(Regex::Label("a".into())),
                Box::new(Regex::Label("b".into()))
            )
        );
        assert!(matches!(parse_regex("a|b").unwrap(), Regex::Alt(..)));
        assert!(matches!(parse_regex("a*").unwrap(), Regex::Star(..)));
        assert_eq!(parse_regex("_").unwrap(), Regex::Any);
    }

    #[test]
    fn parse_precedence() {
        // a.b|c = (a.b)|c ; a.b* = a.(b*)
        let r = parse_regex("a.b|c").unwrap();
        assert!(matches!(r, Regex::Alt(..)));
        let r = parse_regex("a.b*").unwrap();
        match r {
            Regex::Concat(_, b) => assert!(matches!(*b, Regex::Star(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_regex("").is_err());
        assert!(parse_regex("(a").is_err());
        assert!(parse_regex("a..b").is_err());
        assert!(parse_regex("a)").is_err());
        assert!(parse_regex("|a").is_err());
    }

    #[test]
    fn desugaring() {
        // a+ = a.a*, a? = ()|a
        let plus = parse_regex("a+").unwrap();
        assert!(matches!(plus, Regex::Concat(..)));
        let opt = parse_regex("a?").unwrap();
        match opt {
            Regex::Alt(l, _) => assert_eq!(*l, Regex::Epsilon),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_roundtrip() {
        for src in ["a.(b|c)*.d", "a+", "_*.rating", "x?"] {
            let r = parse_regex(src).unwrap();
            let r2 = parse_regex(&r.to_string()).unwrap();
            assert_eq!(r.to_string(), r2.to_string());
        }
    }

    #[test]
    fn label_collection_and_map() {
        let r = parse_regex("a.(b|c)*").unwrap();
        let mut labels: Vec<&String> = r.labels();
        labels.sort();
        assert_eq!(labels, vec!["a", "b", "c"]);
        let mapped = r.map(&mut |l: &String| l.len());
        assert_eq!(mapped.labels(), vec![&1usize, &1, &1]);
    }
}
