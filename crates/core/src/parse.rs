//! Parser for the paper's compact tree syntax, extended with variable
//! sigils for patterns and a rule syntax for queries.
//!
//! Tree grammar (whitespace-insensitive):
//!
//! ```text
//! tree     := node
//! node     := label | func | value | var
//! label    := IDENT group?
//! func     := '@' IDENT group?
//! value    := STRING                     // "quoted", leaf only
//! group    := '{' node (',' node)* '}'
//! ```
//!
//! The paper typesets function names in bold; we prefix them with `@`:
//! `directory{cd{title{"L'amour"}}, @FreeMusicDB{type{"Jazz"}}}`.
//!
//! Pattern variables (only meaningful when parsing *patterns*):
//!
//! * `?x`  — label variable (may have children),
//! * `@?f` — function variable (may have children),
//! * `$x`  — value variable (leaf),
//! * `#X`  — tree variable (leaf).
//!
//! Queries are parsed by [`crate::query::parse_query`] using the
//! crate-internal `parse_pattern_at` for their head and body patterns.

use crate::error::{AxmlError, Result};
use crate::pattern::{PItem, Pattern};
use crate::sym::Sym;
use crate::tree::{Marking, Tree};

/// Deepest `{…}` nesting the tree and pattern parsers accept. They
/// recurse once per level, and a stack overflow aborts the process
/// rather than unwinding, so hostile text must be cut off well before
/// a thread's stack runs out.
pub const MAX_NESTING: usize = 1_000;

pub(crate) struct Lexer<'a> {
    src: &'a [u8],
    pub pos: usize,
    /// `{…}` groups currently open around `pos`.
    depth: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    pub fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(AxmlError::Parse {
            pos: self.pos,
            msg: msg.into(),
        })
    }

    pub fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    pub fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    pub fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub fn expect(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected {:?}", c as char))
        }
    }

    pub fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    fn is_ident_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.'
    }

    pub fn ident(&mut self) -> Result<Sym> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && Self::is_ident_byte(self.src[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected identifier");
        }
        let s =
            std::str::from_utf8(&self.src[start..self.pos]).expect("identifier bytes are ASCII");
        Ok(Sym::intern(s))
    }

    pub fn string(&mut self) -> Result<Sym> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b == b'"' {
                self.pos += 1;
                return Ok(Sym::intern(&out));
            }
            if b == b'\\' && self.pos + 1 < self.src.len() {
                self.pos += 1;
                out.push(self.src[self.pos] as char);
            } else {
                out.push(b as char);
            }
            self.pos += 1;
        }
        self.pos = start;
        self.err("unterminated string literal")
    }
}

/// Parse a tree in compact syntax. The root may be any marking (including
/// a function node, for intermediate trees); use [`parse_document`] when
/// Definition 2.1 (ii) must hold.
pub fn parse_tree(src: &str) -> Result<Tree> {
    let mut lx = Lexer::new(src);
    let t = parse_tree_at(&mut lx)?;
    if !lx.at_end() {
        return lx.err("trailing input after tree");
    }
    Ok(t)
}

/// Parse a *document*: a tree whose root is a label or a value.
pub fn parse_document(src: &str) -> Result<Tree> {
    let t = parse_tree(src)?;
    t.validate_document_root()?;
    Ok(t)
}

pub(crate) fn parse_tree_at(lx: &mut Lexer<'_>) -> Result<Tree> {
    let marking = parse_marking(lx)?;
    let mut t = Tree::new(marking);
    let root = t.root();
    if lx.eat(b'{') {
        if marking.is_value() {
            return lx.err("atomic values are leaves and take no children");
        }
        group(lx, |lx| parse_node_into(lx, &mut t, root))?;
    }
    Ok(t)
}

/// The rest of a `{` group, its brace already consumed:
/// `child (',' child)* '}'`, refusing nesting past [`MAX_NESTING`].
fn group(lx: &mut Lexer<'_>, mut child: impl FnMut(&mut Lexer<'_>) -> Result<()>) -> Result<()> {
    if lx.depth == MAX_NESTING {
        return lx.err(format!("nesting deeper than {MAX_NESTING}"));
    }
    lx.depth += 1;
    loop {
        child(lx)?;
        if !lx.eat(b',') {
            break;
        }
    }
    lx.expect(b'}')?;
    lx.depth -= 1;
    Ok(())
}

fn parse_marking(lx: &mut Lexer<'_>) -> Result<Marking> {
    match lx.peek() {
        Some(b'@') => {
            lx.bump();
            Ok(Marking::Func(lx.ident()?))
        }
        Some(b'"') => Ok(Marking::Value(lx.string()?)),
        Some(_) => Ok(Marking::Label(lx.ident()?)),
        None => lx.err("expected a node"),
    }
}

fn parse_node_into(lx: &mut Lexer<'_>, t: &mut Tree, parent: crate::tree::NodeId) -> Result<()> {
    let marking = parse_marking(lx)?;
    let id = t.add_child(parent, marking).map_err(|_| AxmlError::Parse {
        pos: lx.pos,
        msg: "values cannot have children".into(),
    })?;
    if lx.eat(b'{') {
        if marking.is_value() {
            return lx.err("atomic values are leaves and take no children");
        }
        group(lx, |lx| parse_node_into(lx, t, id))?;
    }
    Ok(())
}

/// Parse a pattern (tree syntax plus variable sigils).
pub fn parse_pattern(src: &str) -> Result<Pattern> {
    let mut lx = Lexer::new(src);
    let p = parse_pattern_at(&mut lx)?;
    if !lx.at_end() {
        return lx.err("trailing input after pattern");
    }
    Ok(p)
}

pub(crate) fn parse_pattern_at(lx: &mut Lexer<'_>) -> Result<Pattern> {
    let item = parse_pitem(lx)?;
    let mut p = Pattern::new(item.clone());
    let root = p.root();
    if lx.eat(b'{') {
        if leafy(&item) {
            return lx.err("value/tree variables and values are pattern leaves");
        }
        group(lx, |lx| parse_pnode_into(lx, &mut p, root))?;
    }
    Ok(p)
}

fn leafy(item: &PItem) -> bool {
    matches!(
        item,
        PItem::ValueVar(_) | PItem::TreeVar(_) | PItem::Const(Marking::Value(_))
    )
}

pub(crate) fn parse_pitem(lx: &mut Lexer<'_>) -> Result<PItem> {
    match lx.peek() {
        Some(b'@') => {
            lx.bump();
            if lx.eat(b'?') {
                Ok(PItem::FuncVar(lx.ident()?))
            } else {
                Ok(PItem::Const(Marking::Func(lx.ident()?)))
            }
        }
        Some(b'?') => {
            lx.bump();
            Ok(PItem::LabelVar(lx.ident()?))
        }
        Some(b'$') => {
            lx.bump();
            Ok(PItem::ValueVar(lx.ident()?))
        }
        Some(b'#') => {
            lx.bump();
            Ok(PItem::TreeVar(lx.ident()?))
        }
        Some(b'"') => Ok(PItem::Const(Marking::Value(lx.string()?))),
        Some(_) => Ok(PItem::Const(Marking::Label(lx.ident()?))),
        None => lx.err("expected a pattern node"),
    }
}

fn parse_pnode_into(
    lx: &mut Lexer<'_>,
    p: &mut Pattern,
    parent: crate::pattern::PNodeId,
) -> Result<()> {
    let item = parse_pitem(lx)?;
    let id = p.add_child(parent, item.clone())?;
    if lx.eat(b'{') {
        if leafy(&item) {
            return lx.err("value/tree variables and values are pattern leaves");
        }
        group(lx, |lx| parse_pnode_into(lx, p, id))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Marking;

    #[test]
    fn parse_jazz_portal_document() {
        let doc = parse_document(
            r#"directory{
                cd{title{"L'amour"}, singer{"Carla Bruni"}, rating{"***"}},
                cd{title{"Body and Soul"}, singer{"Billie Holiday"}, @GetRating{"Body and Soul"}},
                cd{title{"Where or When"}, singer{"Peggy Lee"}, rating{"*****"}},
                @FreeMusicDB{type{"Jazz"}},
                @GetMusicMoz{@FindSingerOf{"Hotel California"}}
            }"#,
        )
        .unwrap();
        assert_eq!(doc.marking(doc.root()), Marking::label("directory"));
        assert_eq!(doc.function_nodes().len(), 4); // GetRating, FreeMusicDB, GetMusicMoz, FindSingerOf
        assert_eq!(doc.children(doc.root()).len(), 5);
    }

    #[test]
    fn function_root_rejected_for_documents() {
        assert!(parse_document("@f{a}").is_err());
        assert!(parse_tree("@f{a}").is_ok());
    }

    #[test]
    fn values_cannot_nest() {
        assert!(parse_tree(r#"a{"v"{b}}"#).is_err());
        assert!(parse_tree(r#""v"{b}"#).is_err());
    }

    #[test]
    fn string_escapes() {
        let t = parse_tree(r#"a{"say \"hi\""}"#).unwrap();
        let child = t.children(t.root())[0];
        assert_eq!(t.marking(child), Marking::value("say \"hi\""));
    }

    #[test]
    fn unbalanced_braces_error() {
        assert!(parse_tree("a{b").is_err());
        assert!(parse_tree("a{b}}").is_err());
        assert!(parse_tree("a{}").is_err());
    }

    #[test]
    fn pattern_variables() {
        let p =
            parse_pattern(r#"directory{cd{title{$x}, singer{"Carla Bruni"}, ?l, #Z}}"#).unwrap();
        assert_eq!(p.node_count(), 8);
        assert!(parse_pattern("a{$x{b}}").is_err()); // value var leaf only
        assert!(parse_pattern("a{#X{b}}").is_err()); // tree var leaf only
        assert!(parse_pattern("a{?l{b}, @?f{c}}").is_ok()); // label/func vars may nest
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_tree("a{b , c{ d } }").unwrap();
        let b = parse_tree("a{b,c{d}}").unwrap();
        assert!(crate::subsume::equivalent(&a, &b));
    }
}
