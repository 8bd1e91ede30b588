//! Positive queries (Definition 3.1).
//!
//! A positive query is a rule `r :- d1/p1, …, dn/pn, e1, …, em` where the
//! `pi` are tree patterns over named documents, the `ej` are inequalities
//! over non-tree variables and constants, every head variable occurs in
//! the body, and no tree variable occurs twice in the body. A query is
//! **simple** when it uses no tree variables at all — the subclass with
//! decidable termination and finite graph representations (§3.2).
//!
//! Textual syntax (see [`parse_query`]):
//!
//! ```text
//! songs{$x} :- doc1/directory{cd{title{$x}, rating{"***"}}}, $x != "Bad"
//! ```

use crate::error::{AxmlError, Result};
use crate::parse::{parse_pattern_at, Lexer};
use crate::pattern::{PItem, Pattern};
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::tree::Marking;
use std::fmt;

/// One body atom `d/p`: match pattern `p` against document `d`.
#[derive(Clone, Debug)]
pub struct Atom {
    /// The document name (possibly the reserved `input` / `context`).
    pub doc: Sym,
    /// The pattern to embed into that document.
    pub pattern: Pattern,
}

/// One side of an inequality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A (label/function/value) variable.
    Var(Sym),
    /// A constant marking.
    Const(Marking),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "${v}"),
            Operand::Const(m) => write!(f, "{m}"),
        }
    }
}

/// The kind of a variable, derived from its sigil.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// `?x`
    Label,
    /// `@?f`
    Func,
    /// `$x`
    Value,
    /// `#X`
    Tree,
}

/// A positive query.
#[derive(Clone, Debug)]
pub struct Query {
    /// The head pattern (the `return` part).
    pub head: Pattern,
    /// The body atoms.
    pub body: Vec<Atom>,
    /// Inequalities `x != y`.
    pub ineqs: Vec<(Operand, Operand)>,
}

fn collect_kinds(p: &Pattern, kinds: &mut FxHashMap<Sym, VarKind>) -> Result<()> {
    for n in p.node_ids() {
        let (v, k) = match p.item(n) {
            PItem::LabelVar(v) => (*v, VarKind::Label),
            PItem::FuncVar(v) => (*v, VarKind::Func),
            PItem::ValueVar(v) => (*v, VarKind::Value),
            PItem::TreeVar(v) => (*v, VarKind::Tree),
            PItem::Const(_) => continue,
        };
        match kinds.insert(v, k) {
            Some(prev) if prev != k => return Err(AxmlError::MixedVariableKinds(v)),
            _ => {}
        }
    }
    Ok(())
}

impl Query {
    /// Build and validate a query.
    pub fn new(head: Pattern, body: Vec<Atom>, ineqs: Vec<(Operand, Operand)>) -> Result<Query> {
        let q = Query { head, body, ineqs };
        q.validate()?;
        Ok(q)
    }

    /// Validate Definition 3.1's side conditions.
    pub fn validate(&self) -> Result<()> {
        // Variable kinds must be used consistently everywhere.
        let mut kinds: FxHashMap<Sym, VarKind> = FxHashMap::default();
        collect_kinds(&self.head, &mut kinds)?;
        for a in &self.body {
            collect_kinds(&a.pattern, &mut kinds)?;
        }

        // (2) Every head variable occurs in some body pattern.
        let mut body_vars: FxHashSet<Sym> = FxHashSet::default();
        for a in &self.body {
            body_vars.extend(a.pattern.variables());
        }
        for v in self.head.variables() {
            if !body_vars.contains(&v) {
                return Err(AxmlError::UnsafeHeadVariable(v));
            }
        }

        // (3) No tree variable occurs twice in the body…
        let mut seen: FxHashSet<Sym> = FxHashSet::default();
        for a in &self.body {
            for v in a.pattern.tree_var_occurrences() {
                if !seen.insert(v) {
                    return Err(AxmlError::RepeatedTreeVariable(v));
                }
            }
        }
        // …and inequalities involve only non-tree variables/constants.
        for (l, r) in &self.ineqs {
            for op in [l, r] {
                if let Operand::Var(v) = op {
                    match kinds.get(v) {
                        Some(VarKind::Tree) => return Err(AxmlError::TreeVariableInInequality(*v)),
                        Some(_) => {}
                        // An inequality variable not occurring in the body
                        // would be unsafe (never bound).
                        None => return Err(AxmlError::UnsafeHeadVariable(*v)),
                    }
                }
            }
        }

        // Results are documents: the head root may not be a function.
        match self.head.item(self.head.root()) {
            PItem::Const(m) if m.is_func() => return Err(AxmlError::FunctionRoot),
            PItem::FuncVar(_) => return Err(AxmlError::FunctionRoot),
            _ => {}
        }
        Ok(())
    }

    /// A *simple* query uses no tree variables (head or body).
    pub fn is_simple(&self) -> bool {
        !self.head.uses_tree_vars() && self.body.iter().all(|a| !a.pattern.uses_tree_vars())
    }

    /// Document names referenced by the body (with duplicates removed),
    /// including the reserved `input`/`context` if used.
    pub fn doc_names(&self) -> Vec<Sym> {
        let mut seen = FxHashSet::default();
        self.body
            .iter()
            .filter_map(|a| seen.insert(a.doc).then_some(a.doc))
            .collect()
    }

    /// Function names mentioned as constants anywhere in the query
    /// (head or body patterns).
    pub fn function_names(&self) -> FxHashSet<Sym> {
        let mut out = FxHashSet::default();
        let mut scan = |p: &Pattern| {
            for n in p.node_ids() {
                if let PItem::Const(Marking::Func(f)) = p.item(n) {
                    out.insert(*f);
                }
            }
        };
        scan(&self.head);
        for a in &self.body {
            scan(&a.pattern);
        }
        out
    }

    /// The variable kinds used by this query.
    pub fn var_kinds(&self) -> FxHashMap<Sym, VarKind> {
        let mut kinds = FxHashMap::default();
        let _ = collect_kinds(&self.head, &mut kinds);
        for a in &self.body {
            let _ = collect_kinds(&a.pattern, &mut kinds);
        }
        kinds
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        let mut first = true;
        for a in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}/{}", a.doc, a.pattern)?;
        }
        for (l, r) in &self.ineqs {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l} != {r}")?;
        }
        Ok(())
    }
}

/// Parse a query rule: `head :- doc/pattern, …, x != y, …`.
///
/// Inequality operands may be variables (`$x`, `?l`, `@?f`), quoted value
/// constants, bare label constants, or `@func` constants.
///
/// ```
/// use axml_core::eval::{snapshot, Env};
/// use axml_core::parse::parse_tree;
/// use axml_core::query::parse_query;
/// use axml_core::Sym;
///
/// // Example 3.1's first query, evaluated as a snapshot (Prop 3.1).
/// let q = parse_query("?z :- d/r{t{a{$x},b{?z}}}")?;
/// assert!(q.is_simple());
/// let doc = parse_tree(r#"r{t{a{"1"},b{c{"2"},d{"3"}}}}"#)?;
/// let mut env = Env::new();
/// env.insert(Sym::intern("d"), &doc);
/// let result = snapshot(&q, &env)?;
/// assert_eq!(result.len(), 2); // heads c and d
/// # Ok::<(), axml_core::AxmlError>(())
/// ```
pub fn parse_query(src: &str) -> Result<Query> {
    let mut lx = Lexer::new(src);
    let head = parse_pattern_at(&mut lx)?;
    lx.expect(b':')?;
    lx.expect(b'-')?;
    let mut body = Vec::new();
    let mut ineqs = Vec::new();
    if !lx.at_end() {
        loop {
            parse_body_item(&mut lx, &mut body, &mut ineqs)?;
            if !lx.eat(b',') {
                break;
            }
        }
    }
    if !lx.at_end() {
        return lx.err("trailing input after query body");
    }
    Query::new(head, body, ineqs)
}

pub(crate) fn parse_operand(lx: &mut Lexer<'_>) -> Result<Operand> {
    match lx.peek() {
        Some(b'$') | Some(b'?') => {
            lx.bump();
            Ok(Operand::Var(lx.ident()?))
        }
        Some(b'@') => {
            lx.bump();
            if lx.eat(b'?') {
                Ok(Operand::Var(lx.ident()?))
            } else {
                Ok(Operand::Const(Marking::Func(lx.ident()?)))
            }
        }
        Some(b'"') => Ok(Operand::Const(Marking::Value(lx.string()?))),
        Some(_) => Ok(Operand::Const(Marking::Label(lx.ident()?))),
        None => lx.err("expected inequality operand"),
    }
}

fn parse_body_item(
    lx: &mut Lexer<'_>,
    body: &mut Vec<Atom>,
    ineqs: &mut Vec<(Operand, Operand)>,
) -> Result<()> {
    // A doc atom starts with a bare identifier followed by '/'. Anything
    // else (or an identifier followed by "!=") is an inequality.
    if matches!(lx.peek(), Some(c) if c != b'$' && c != b'?' && c != b'@' && c != b'"') {
        let save = lx.pos;
        let doc = lx.ident()?;
        if lx.eat(b'/') {
            let pattern = parse_pattern_at(lx)?;
            body.push(Atom { doc, pattern });
            return Ok(());
        }
        lx.pos = save;
    }
    let left = parse_operand(lx)?;
    lx.expect(b'!')?;
    lx.expect(b'=')?;
    let right = parse_operand(lx)?;
    ineqs.push((left, right));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_query() {
        let q = parse_query(
            r#"songs{$x} :- doc1/directory{cd{title{$x}, singer{"Carla Bruni"}, rating{"***"}}}"#,
        )
        .unwrap();
        assert!(q.is_simple());
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.doc_names(), vec![Sym::intern("doc1")]);
    }

    #[test]
    fn parse_example_3_1_queries() {
        let simple = parse_query("?z :- dp/a{$x}, d/r{t{a{$x},b{?z}}}").unwrap();
        assert!(simple.is_simple());
        let treeq = parse_query("#Z :- dp/a{$x}, d/r{t{a{$x},b{#Z}}}").unwrap();
        assert!(!treeq.is_simple());
    }

    #[test]
    fn parse_empty_body() {
        // Example 2.1's service: a{f} :-
        let q = parse_query("a{@f} :-").unwrap();
        assert!(q.body.is_empty());
        assert!(q.is_simple());
    }

    #[test]
    fn parse_inequalities() {
        let q = parse_query(r#"r{$x} :- d/a{$x,$y}, $x != $y, $x != "0""#).unwrap();
        assert_eq!(q.ineqs.len(), 2);
        let q2 = parse_query("r{?z} :- d/a{?z}, ?z != b").unwrap();
        assert_eq!(q2.ineqs.len(), 1);
        assert_eq!(q2.ineqs[0].1, Operand::Const(Marking::label("b")));
    }

    #[test]
    fn unsafe_head_rejected() {
        assert!(matches!(
            parse_query("r{$x} :- d/a{$y}"),
            Err(AxmlError::UnsafeHeadVariable(_))
        ));
    }

    #[test]
    fn repeated_tree_variable_rejected() {
        assert!(matches!(
            parse_query("r :- d/a{#X}, d/b{#X}"),
            Err(AxmlError::RepeatedTreeVariable(_))
        ));
        assert!(matches!(
            parse_query("r :- d/a{#X,#X}"),
            Err(AxmlError::RepeatedTreeVariable(_))
        ));
        // A tree variable may appear several times in the HEAD.
        assert!(parse_query("r{#X,u{#X}} :- d/a{#X}").is_ok());
    }

    #[test]
    fn tree_variable_in_inequality_rejected() {
        assert!(matches!(
            parse_query("r :- d/a{#X}, #X != b"),
            // '#' is not a valid operand start; the parser rejects it
            // before validation can classify it.
            Err(AxmlError::Parse { .. })
        ));
        // Same name used as value var in the ineq but tree var in body:
        // kind clash is rejected.
        assert!(parse_query("r :- d/a{#X}, $X != b").is_err());
    }

    #[test]
    fn function_rooted_head_rejected() {
        assert!(matches!(
            parse_query("@f{$x} :- d/a{$x}"),
            Err(AxmlError::FunctionRoot)
        ));
    }

    #[test]
    fn mixed_kind_variable_rejected() {
        assert!(parse_query("r{$x} :- d/a{$x}, d/b{?x}").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let src = r#"songs{$x} :- d/cd{title{$x},rating{"***"}}, $x != "Bad""#;
        let q = parse_query(src).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q.to_string(), q2.to_string());
    }

    #[test]
    fn function_names_collected() {
        let q = parse_query("a{@f{$x}} :- d/b{$x, @g}").unwrap();
        let fns = q.function_names();
        assert!(fns.contains(&Sym::intern("f")));
        assert!(fns.contains(&Sym::intern("g")));
    }
}
