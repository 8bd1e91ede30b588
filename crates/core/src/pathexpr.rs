//! Positive+reg queries: regular path expressions in tree patterns (§5).
//!
//! The query language extension allows a pattern edge to carry a regular
//! expression over labels instead of a single label: the pattern matches
//! when there is a downward path in the document whose label word belongs
//! to the expression's language; matching continues (and variables bind)
//! at the path's endpoint.
//!
//! Pattern syntax: a path item is written in angle brackets, e.g.
//!
//! ```text
//! songs{$x} :- d/directory{<cd.(info|meta)*>{title{$x}}}
//! ```
//!
//! This module evaluates positive+reg queries **directly** (an NFA walk
//! over the document); [`crate::translate`] implements Proposition 5.1's
//! ψ translation back to plain positive systems, and the two are checked
//! against each other by tests and experiment X10.

use crate::error::{AxmlError, Result};
use crate::eval::{instantiate_head, Env};
use crate::forest::Forest;
use crate::matcher::Binding;
use crate::pattern::{PItem, Pattern};
use crate::query::{parse_query, Operand, Query};
use crate::relation::{row_binding, BodyJoin, Matches, RowIndex};
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::tree::{Marking, NodeId, Tree};
use axml_automata::{parse_regex, Nfa, Regex, StateId};
use std::collections::HashSet;
use std::sync::Arc;

/// One node item of a positive+reg pattern.
#[derive(Clone, Debug)]
pub enum RItem {
    /// An ordinary pattern item.
    Plain(PItem),
    /// A regular path expression: descend along a label path in its
    /// language, continue at the endpoint.
    Path(Regex<Sym>),
}

/// Index of a node in a [`RegPattern`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RNodeId(pub u32);

#[derive(Clone, Debug)]
struct RNode {
    item: RItem,
    children: Vec<RNodeId>,
}

/// A tree pattern whose edges may carry regular path expressions.
#[derive(Clone, Debug)]
pub struct RegPattern {
    nodes: Vec<RNode>,
    root: RNodeId,
}

impl RegPattern {
    /// Single-node pattern (the root must be a plain item).
    pub fn new(item: RItem) -> Result<RegPattern> {
        if matches!(item, RItem::Path(_)) {
            return Err(AxmlError::Parse {
                pos: 0,
                msg: "a path expression cannot be the pattern root".into(),
            });
        }
        Ok(RegPattern {
            nodes: vec![RNode {
                item,
                children: Vec::new(),
            }],
            root: RNodeId(0),
        })
    }

    /// The root.
    pub fn root(&self) -> RNodeId {
        self.root
    }

    /// Item at `n`.
    pub fn item(&self, n: RNodeId) -> &RItem {
        &self.nodes[n.0 as usize].item
    }

    /// Children of `n`.
    pub fn children(&self, n: RNodeId) -> &[RNodeId] {
        &self.nodes[n.0 as usize].children
    }

    /// Add a child.
    pub fn add_child(&mut self, parent: RNodeId, item: RItem) -> Result<RNodeId> {
        if let RItem::Plain(p) = &self.nodes[parent.0 as usize].item {
            if p.leaf_only() {
                return Err(AxmlError::NonLeafPatternVariable(
                    p.var().unwrap_or_else(|| Sym::intern("<value>")),
                ));
            }
        }
        let id = RNodeId(self.nodes.len() as u32);
        self.nodes.push(RNode {
            item,
            children: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// All node ids (preorder).
    pub fn node_ids(&self) -> Vec<RNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// Variables used (plain items only; path expressions bind nothing).
    pub fn variables(&self) -> FxHashSet<Sym> {
        self.node_ids()
            .into_iter()
            .filter_map(|n| match self.item(n) {
                RItem::Plain(p) => p.var(),
                RItem::Path(_) => None,
            })
            .collect()
    }

    /// Does this pattern use any path expression?
    pub fn uses_paths(&self) -> bool {
        self.node_ids()
            .into_iter()
            .any(|n| matches!(self.item(n), RItem::Path(_)))
    }

    /// Does this pattern use tree variables?
    pub fn uses_tree_vars(&self) -> bool {
        self.node_ids()
            .into_iter()
            .any(|n| matches!(self.item(n), RItem::Plain(PItem::TreeVar(_))))
    }

    /// A plain pattern, if no path expressions are used.
    pub fn to_plain(&self) -> Option<Pattern> {
        fn item_of(r: &RItem) -> Option<PItem> {
            match r {
                RItem::Plain(p) => Some(p.clone()),
                RItem::Path(_) => None,
            }
        }
        let mut p = Pattern::new(item_of(self.item(self.root))?);
        let proot = p.root();
        fn go(
            rp: &RegPattern,
            rn: RNodeId,
            p: &mut Pattern,
            pn: crate::pattern::PNodeId,
        ) -> Option<()> {
            for &rc in rp.children(rn) {
                let item = item_of(rp.item(rc))?;
                let pc = p.add_child(pn, item).ok()?;
                go(rp, rc, p, pc)?;
            }
            Some(())
        }
        go(self, self.root, &mut p, proot)?;
        Some(p)
    }
}

/// A positive+reg query: plain head, body patterns that may use path
/// expressions.
#[derive(Clone, Debug)]
pub struct RegQuery {
    /// The head (plain — results are constructed, not searched).
    pub head: Pattern,
    /// Body atoms (document name, positive+reg pattern).
    pub body: Vec<(Sym, RegPattern)>,
    /// Inequalities, as in plain queries.
    pub ineqs: Vec<(Operand, Operand)>,
}

impl RegQuery {
    /// Is the query simple (no tree variables)? Path expressions do not
    /// affect simplicity (Prop 5.1 (2)).
    pub fn is_simple(&self) -> bool {
        !self.head.uses_tree_vars() && self.body.iter().all(|(_, p)| !p.uses_tree_vars())
    }

    /// Convert to a plain query when no path expression is used.
    pub fn to_plain(&self) -> Option<Query> {
        let body = self
            .body
            .iter()
            .map(|(d, p)| {
                p.to_plain()
                    .map(|pattern| crate::query::Atom { doc: *d, pattern })
            })
            .collect::<Option<Vec<_>>>()?;
        Query::new(self.head.clone(), body, self.ineqs.clone()).ok()
    }
}

/// Parse a positive+reg query. Same rule syntax as [`parse_query`], with
/// `<regex>` path items inside body patterns.
pub fn parse_reg_query(src: &str) -> Result<RegQuery> {
    // Split at ':-' once, parse the head as a plain pattern; the body
    // needs the extended pattern parser.
    let Some(sep) = src.find(":-") else {
        return parse_query(src).map(|q| RegQuery {
            head: q.head,
            body: q
                .body
                .into_iter()
                .map(|a| (a.doc, reg_from_plain(&a.pattern)))
                .collect(),
            ineqs: q.ineqs,
        });
    };
    let head = crate::parse::parse_pattern(src[..sep].trim())?;
    let mut body = Vec::new();
    let mut ineqs = Vec::new();
    let rest = src[sep + 2..].trim();
    if !rest.is_empty() {
        for part in split_top_level(rest) {
            let part = part.trim();
            if let Some(slash) = find_atom_slash(part) {
                let doc = Sym::intern(part[..slash].trim());
                let pattern = parse_reg_pattern(part[slash + 1..].trim())?;
                body.push((doc, pattern));
            } else {
                // An inequality `op != op`.
                let mut lx = crate::parse::Lexer::new(part);
                let left = crate::query::parse_operand(&mut lx)?;
                lx.expect(b'!')?;
                lx.expect(b'=')?;
                let right = crate::query::parse_operand(&mut lx)?;
                if !lx.at_end() {
                    return lx.err("trailing input after inequality");
                }
                ineqs.push((left, right));
            }
        }
    }
    let rq = RegQuery { head, body, ineqs };
    validate_reg(&rq)?;
    Ok(rq)
}

fn reg_from_plain(p: &Pattern) -> RegPattern {
    let mut rp =
        RegPattern::new(RItem::Plain(p.item(p.root()).clone())).expect("plain roots are valid");
    fn go(p: &Pattern, pn: crate::pattern::PNodeId, rp: &mut RegPattern, rn: RNodeId) {
        for &pc in p.children(pn) {
            let rc = rp
                .add_child(rn, RItem::Plain(p.item(pc).clone()))
                .expect("plain children are valid");
            go(p, pc, rp, rc);
        }
    }
    let rroot = rp.root();
    go(p, p.root(), &mut rp, rroot);
    rp
}

/// Split a body at top-level commas (not inside braces/brackets/quotes).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0usize;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if c == b'\\' {
                i += 1;
            } else if c == b'"' {
                in_str = false;
            }
        } else {
            match c {
                b'"' => in_str = true,
                b'{' | b'<' | b'(' => depth += 1,
                b'}' | b'>' | b')' => depth -= 1,
                b',' if depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        i += 1;
    }
    out.push(&s[start..]);
    out
}

/// Find the '/' separating a doc name from its pattern (atoms start with
/// a bare identifier).
fn find_atom_slash(part: &str) -> Option<usize> {
    let bytes = part.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric()
            || bytes[i] == b'_'
            || bytes[i] == b'-'
            || bytes[i] == b'.')
    {
        i += 1;
    }
    if i == start {
        return None;
    }
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    (i < bytes.len() && bytes[i] == b'/').then_some(i)
}

/// Parse a positive+reg pattern: plain pattern syntax plus `<regex>`
/// items.
pub fn parse_reg_pattern(src: &str) -> Result<RegPattern> {
    let mut pos = 0usize;
    let item = parse_ritem(src, &mut pos)?;
    let mut p = RegPattern::new(item)?; // rejects a path-expression root
    let root = p.root();
    parse_rchildren(src, &mut pos, &mut p, root)?;
    skip_ws(src, &mut pos);
    if pos != src.len() {
        return Err(AxmlError::Parse {
            pos,
            msg: "trailing input after pattern".into(),
        });
    }
    Ok(p)
}

fn skip_ws(s: &str, pos: &mut usize) {
    let b = s.as_bytes();
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_rchildren(src: &str, pos: &mut usize, p: &mut RegPattern, parent: RNodeId) -> Result<()> {
    let b = src.as_bytes();
    skip_ws(src, pos);
    if *pos < b.len() && b[*pos] == b'{' {
        *pos += 1;
        loop {
            let item = parse_ritem(src, pos)?;
            let id = p.add_child(parent, item)?;
            parse_rchildren(src, pos, p, id)?;
            skip_ws(src, pos);
            if *pos < b.len() && b[*pos] == b',' {
                *pos += 1;
                continue;
            }
            break;
        }
        skip_ws(src, pos);
        if *pos >= b.len() || b[*pos] != b'}' {
            return Err(AxmlError::Parse {
                pos: *pos,
                msg: "expected '}'".into(),
            });
        }
        *pos += 1;
    }
    Ok(())
}

fn parse_ritem(src: &str, pos: &mut usize) -> Result<RItem> {
    skip_ws(src, pos);
    let b = src.as_bytes();
    if *pos < b.len() && b[*pos] == b'<' {
        // Path expression: find the matching '>'.
        let start = *pos + 1;
        let mut depth = 1;
        let mut i = start;
        while i < b.len() && depth > 0 {
            match b[i] {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        if depth != 0 {
            return Err(AxmlError::Parse {
                pos: *pos,
                msg: "unterminated path expression".into(),
            });
        }
        let expr = &src[start..i - 1];
        let regex = parse_regex(expr).map_err(|e| AxmlError::Parse {
            pos: start + e.pos,
            msg: e.msg,
        })?;
        *pos = i;
        return Ok(RItem::Path(regex.map(&mut |l: &String| Sym::intern(l))));
    }
    // Fall back to the plain-item grammar via the shared lexer.
    let rest = &src[*pos..];
    let mut lx = crate::parse::Lexer::new(rest);
    let item = crate::parse::parse_pitem(&mut lx)?;
    *pos += lx.pos;
    Ok(RItem::Plain(item))
}

fn validate_reg(q: &RegQuery) -> Result<()> {
    // Head variables must occur in the body.
    let mut body_vars: FxHashSet<Sym> = FxHashSet::default();
    for (_, p) in &q.body {
        body_vars.extend(p.variables());
    }
    for v in q.head.variables() {
        if !body_vars.contains(&v) {
            return Err(AxmlError::UnsafeHeadVariable(v));
        }
    }
    // Tree variables: at most once across the body.
    let mut seen: FxHashSet<Sym> = FxHashSet::default();
    for (_, p) in &q.body {
        for n in p.node_ids() {
            if let RItem::Plain(PItem::TreeVar(v)) = p.item(n) {
                if !seen.insert(*v) {
                    return Err(AxmlError::RepeatedTreeVariable(*v));
                }
            }
        }
    }
    Ok(())
}

/// All endpoints below `anchor` reachable by a label path in the
/// regex's language (including `anchor` itself when ε is accepted).
pub fn path_endpoints(t: &Tree, anchor: NodeId, nfa: &Nfa<Sym>) -> Vec<NodeId> {
    let mut out = Vec::new();
    let start = nfa.eps_closure(&HashSet::from([nfa.start]));
    walk(t, anchor, nfa, &start, &mut out);
    out
}

fn walk(t: &Tree, node: NodeId, nfa: &Nfa<Sym>, states: &HashSet<StateId>, out: &mut Vec<NodeId>) {
    if states.iter().any(|s| nfa.accept.contains(s)) {
        out.push(node);
    }
    for &c in t.children(node) {
        if let Marking::Label(l) = t.marking(c) {
            let next = nfa.eps_closure(&nfa.step(states, &l));
            if !next.is_empty() {
                walk(t, c, nfa, &next, out);
            }
        }
    }
}

/// The NFAs of one [`RegPattern`]'s path items, keyed by pattern node.
///
/// Built once per pattern (by [`nfa_table`]) instead of once per document
/// node visited: `Nfa::from_regex` is pure in the regex, so hoisting it
/// out of the match recursion changes no result, only how often the
/// Thompson construction runs.
pub type NfaTable = FxHashMap<RNodeId, Nfa<Sym>>;

/// Build the [`NfaTable`] of a pattern: one NFA per path item.
pub fn nfa_table(p: &RegPattern) -> NfaTable {
    p.node_ids()
        .into_iter()
        .filter_map(|n| match p.item(n) {
            RItem::Path(r) => Some((n, Nfa::from_regex(r))),
            RItem::Plain(_) => None,
        })
        .collect()
}

fn match_rnode(
    p: &RegPattern,
    nfas: &NfaTable,
    rn: RNodeId,
    t: &Tree,
    tn: NodeId,
    b: &Binding,
) -> Vec<Binding> {
    let RItem::Plain(item) = p.item(rn) else {
        unreachable!("path nodes are handled by match_rchildren");
    };
    let Some(b0) = crate::matcher::bind_item(item, t, tn, b) else {
        return Vec::new();
    };
    match_rchildren(p, nfas, rn, t, tn, b0)
}

fn match_rchildren(
    p: &RegPattern,
    nfas: &NfaTable,
    rn: RNodeId,
    t: &Tree,
    tn: NodeId,
    b0: Binding,
) -> Vec<Binding> {
    let mut current = vec![b0];
    for &rc in p.children(rn) {
        // (`Binding` hashes tree bounds by canonical key, never through
        // the tree's lazily built index, so the set is sound.)
        #[allow(clippy::mutable_key_type)]
        let mut next: FxHashSet<Binding> = FxHashSet::default();
        match p.item(rc) {
            RItem::Plain(_) => {
                for base in &current {
                    for &tc in t.children(tn) {
                        for nb in match_rnode(p, nfas, rc, t, tc, base) {
                            next.insert(nb);
                        }
                    }
                }
            }
            RItem::Path(_) => {
                let nfa = &nfas[&rc];
                let endpoints = path_endpoints(t, tn, nfa);
                for base in &current {
                    for &ep in &endpoints {
                        for nb in match_rchildren(p, nfas, rc, t, ep, base.clone()) {
                            next.insert(nb);
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            return Vec::new();
        }
        current = next.into_iter().collect();
    }
    current
}

/// A positive+reg query with its path-item NFAs prebuilt, one table per
/// body atom. Constructing the NFAs is the only non-trivial setup cost of
/// [`snapshot_reg`]; a `CompiledRegQuery` pays it once and every
/// [`CompiledRegQuery::snapshot`] thereafter walks the documents with the
/// cached automata. [`crate::compile::ProgramCache::reg`] memoizes these
/// per service, so an engine run no longer rebuilds NFAs per invocation.
#[derive(Clone, Debug)]
pub struct CompiledRegQuery {
    query: RegQuery,
    tables: Vec<NfaTable>,
}

impl CompiledRegQuery {
    /// Compile: build every body pattern's [`NfaTable`].
    pub fn new(query: RegQuery) -> CompiledRegQuery {
        let tables = query.body.iter().map(|(_, p)| nfa_table(p)).collect();
        CompiledRegQuery { query, tables }
    }

    /// The underlying query.
    pub fn query(&self) -> &RegQuery {
        &self.query
    }

    /// Total number of prebuilt NFAs across the body.
    pub fn nfa_count(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Snapshot evaluation with the prebuilt NFAs. Identical results to
    /// [`snapshot_reg`] on the same query.
    pub fn snapshot(&self, env: &Env<'_>) -> Result<Forest> {
        snapshot_reg_with(&self.query, &self.tables, env)
    }
}

/// Snapshot evaluation of a positive+reg query (direct NFA walk).
pub fn snapshot_reg(q: &RegQuery, env: &Env<'_>) -> Result<Forest> {
    let tables: Vec<NfaTable> = q.body.iter().map(|(_, p)| nfa_table(p)).collect();
    snapshot_reg_with(q, &tables, env)
}

fn snapshot_reg_with(q: &RegQuery, tables: &[NfaTable], env: &Env<'_>) -> Result<Forest> {
    // Each atom's bindings are duplicate-free (a set per level), so
    // their join is too.
    let mut index = RowIndex::default();
    let mut body = BodyJoin::Unit;
    for ((doc, pattern), nfas) in q.body.iter().zip(tables) {
        let t = env.get(*doc).ok_or(AxmlError::UnknownDocument(*doc))?;
        let matches = match_rnode(pattern, nfas, pattern.root(), t, t.root(), &Binding::new());
        if matches.is_empty() {
            return Ok(Forest::new());
        }
        body = body.join(Arc::new(Matches::Bindings(matches)), None, &mut index);
        if body.is_empty() {
            return Ok(Forest::new());
        }
    }
    let mut forest = Forest::new();
    body.with_rows(|rows, _| {
        let cols: Vec<usize> = (0..rows.vars().len()).collect();
        let mut b = Binding::new();
        for row in 0..rows.len() {
            row_binding(rows, row, &cols, &mut b);
            let holds = q.ineqs.iter().all(|(l, r)| {
                let resolve = |op: &Operand| match op {
                    Operand::Const(m) => Some(*m),
                    Operand::Var(v) => b.get(*v).and_then(crate::matcher::Bound::as_marking),
                };
                matches!((resolve(l), resolve(r)), (Some(a), Some(c)) if a != c)
            });
            if holds {
                forest.push(instantiate_head(&q.head, &b)?);
            }
        }
        Ok(())
    })?;
    Ok(forest.reduce())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    fn eval(q: &str, docs: &[(&str, &str)]) -> Forest {
        let trees: Vec<(Sym, Tree)> = docs
            .iter()
            .map(|(n, s)| (Sym::intern(n), parse_tree(s).unwrap()))
            .collect();
        let mut env = Env::new();
        for (n, t) in &trees {
            env.insert(*n, t);
        }
        snapshot_reg(&parse_reg_query(q).unwrap(), &env).unwrap()
    }

    const HIER: &str = r#"lib{
        shelf{box{cd{title{"A"}}}, cd{title{"B"}}},
        cd{title{"C"}},
        misc{dvd{title{"D"}}}
    }"#;

    #[test]
    fn wildcard_star_descendant() {
        // All titles under any chain of labels ending at cd.
        let f = eval("t{$x} :- d/lib{<_*.cd>{title{$x}}}", &[("d", HIER)]);
        let mut got: Vec<String> = f.trees().iter().map(|t| t.to_string()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![r#"t{"A"}"#, r#"t{"B"}"#, r#"t{"C"}"#]);
    }

    #[test]
    fn specific_path_language() {
        // Only cds inside shelf.box chains.
        let f = eval("t{$x} :- d/lib{<shelf.box.cd>{title{$x}}}", &[("d", HIER)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), r#"t{"A"}"#);
    }

    #[test]
    fn epsilon_in_language_matches_anchor() {
        // <cd?> matches the anchor itself (ε) and direct cd children.
        let f = eval("t{$x} :- d/lib{<cd?>{title{$x}}}", &[("d", HIER)]);
        // Anchor lib has no title child; direct cd child has "C".
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), r#"t{"C"}"#);
    }

    #[test]
    fn alternation_path() {
        let f = eval(
            "t{$x} :- d/lib{<(shelf|misc).(box|dvd)*.(cd|dvd)>{title{$x}}}",
            &[("d", HIER)],
        );
        let mut got: Vec<String> = f.trees().iter().map(|t| t.to_string()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![r#"t{"A"}"#, r#"t{"B"}"#, r#"t{"D"}"#]);
    }

    #[test]
    fn plain_reg_query_equals_plain_query() {
        // Without path items, snapshot_reg must agree with snapshot.
        let plain = crate::query::parse_query("t{$x} :- d/lib{cd{title{$x}}}").unwrap();
        let tree = parse_tree(HIER).unwrap();
        let mut env = Env::new();
        env.insert(Sym::intern("d"), &tree);
        let a = crate::eval::snapshot(&plain, &env).unwrap();
        let b = eval("t{$x} :- d/lib{cd{title{$x}}}", &[("d", HIER)]);
        assert!(a.equivalent(&b));
    }

    #[test]
    fn paths_do_not_cross_function_or_value_nodes() {
        let doc = r#"a{b{c{"x"}}, @f{b{c{"y"}}}}"#;
        let f = eval("hit{$v} :- d/a{<b.c>{$v}}", &[("d", doc)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), r#"hit{"x"}"#);
    }

    #[test]
    fn path_root_rejected() {
        assert!(parse_reg_pattern("<a.b>").is_err());
    }

    #[test]
    fn inequalities_supported() {
        let f = eval(
            r#"pair{$x,$y} :- d/lib{<_*>{title{$x}}, <_*>{title{$y}}}, $x != $y"#,
            &[("d", r#"lib{cd{title{"A"}}, cd{title{"B"}}}"#)],
        );
        assert_eq!(f.len(), 1); // {A,B} once after reduction
    }

    #[test]
    fn simplicity_classification() {
        assert!(parse_reg_query("t{$x} :- d/a{<b*>{$x}}")
            .unwrap()
            .is_simple());
        assert!(!parse_reg_query("t{#X} :- d/a{<b*>{#X}}")
            .unwrap()
            .is_simple());
    }
}
