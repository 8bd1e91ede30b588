//! Serializers: the compact paper syntax and an indented pretty form.

use crate::tree::{Marking, NodeId, Tree};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;

/// Render the subtree at `n` in compact syntax (parseable by
/// [`crate::parse::parse_tree`]). Children are emitted in a
/// deterministic (sorted) order so output is stable across runs.
///
/// The text goes into one buffer, sized up front: a node renders its
/// children one after another, then orders them by their text through
/// ranges into the buffer, rewriting the block only when render order
/// and sorted order differ. No string is built per node; the buffer is
/// the only allocation.
pub fn compact_at(t: &Tree, n: NodeId) -> String {
    let mut out = Vec::with_capacity(rendered_len(t, n));
    SPANS.with(|spans| render(t, n, &mut out, &mut spans.borrow_mut()));
    String::from_utf8(out).expect("markings render as UTF-8")
}

thread_local! {
    /// [`render`]'s span stack, reused by every rendering on the thread.
    static SPANS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// The rendered length of the subtree at `n`, short only by the escapes
/// of values that need them.
fn rendered_len(t: &Tree, n: NodeId) -> usize {
    let own = match t.marking(n) {
        Marking::Label(s) => s.as_str().len(),
        Marking::Func(s) => 1 + s.as_str().len(),
        Marking::Value(s) => 2 + s.as_str().len(),
    };
    let kids = t.children(n);
    let punctuation = if kids.is_empty() { 0 } else { kids.len() + 1 };
    own + punctuation + kids.iter().map(|&c| rendered_len(t, c)).sum::<usize>()
}

/// Append the subtree at `n` to `out`. `spans` is scratch: each node
/// pushes the `(start, end)` ranges of its children's text above the
/// frames of its ancestors and pops them when done.
fn render(t: &Tree, n: NodeId, out: &mut Vec<u8>, spans: &mut Vec<(usize, usize)>) {
    let _ = write!(out, "{}", t.marking(n));
    let kids = t.children(n);
    if kids.is_empty() {
        return;
    }
    out.push(b'{');
    let start = out.len();
    let base = spans.len();
    for (i, &c) in kids.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let from = out.len();
        render(t, c, out, spans);
        spans.push((from, out.len()));
    }
    let text = |&(s, e): &(usize, usize)| s..e;
    let frame = &mut spans[base..];
    if !frame
        .windows(2)
        .all(|w| out[text(&w[0])] <= out[text(&w[1])])
    {
        frame.sort_unstable_by(|a, b| out[text(a)].cmp(&out[text(b)]));
        let end = out.len();
        for (i, span) in frame.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_within(text(span));
        }
        out.drain(start..end);
    }
    spans.truncate(base);
    out.push(b'}');
}

/// Render the whole tree in compact syntax.
pub fn compact(t: &Tree) -> String {
    compact_at(t, t.root())
}

/// Render the whole tree with indentation, one node per line.
pub fn pretty(t: &Tree) -> String {
    fn go(t: &Tree, n: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{}", t.marking(n));
        let mut kids: Vec<NodeId> = t.children(n).to_vec();
        kids.sort_unstable_by_key(|&c| compact_at(t, c));
        for c in kids {
            go(t, c, depth + 1, out);
        }
    }
    let mut out = String::new();
    go(t, t.root(), 0, &mut out);
    out
}

impl std::fmt::Display for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&compact(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::subsume::equivalent;

    #[test]
    fn compact_roundtrip() {
        for src in [
            "a",
            r#"a{b{"1"},@f{c},"x"}"#,
            r#"directory{cd{title{"Body and Soul"},@GetRating{"Body and Soul"}}}"#,
        ] {
            let t = parse_tree(src).unwrap();
            let back = parse_tree(&compact(&t)).unwrap();
            assert!(equivalent(&t, &back), "roundtrip failed for {src}");
        }
    }

    #[test]
    fn compact_is_order_stable() {
        let a = parse_tree("a{c,b}").unwrap();
        let b = parse_tree("a{b,c}").unwrap();
        assert_eq!(compact(&a), compact(&b));
    }

    #[test]
    fn compact_sorts_children_by_their_text() {
        for (src, text) in [
            ("a", "a"),
            (
                r#"r{b{"2","1"},a,@f{c},b{"1"}}"#,
                r#"r{@f{c},a,b{"1","2"},b{"1"}}"#,
            ),
            (r#"r{"z",b,"a",@g}"#, r#"r{"a","z",@g,b}"#),
            (
                r#"r{t{to{"b"},from{"a"}},t{from{"a"},to{"a"}}}"#,
                r#"r{t{from{"a"},to{"a"}},t{from{"a"},to{"b"}}}"#,
            ),
        ] {
            let t = parse_tree(src).unwrap();
            assert_eq!(compact(&t), text, "{src}");
        }
    }

    #[test]
    fn pretty_has_one_line_per_node() {
        let t = parse_tree("a{b{c},d}").unwrap();
        assert_eq!(pretty(&t).lines().count(), t.node_count());
    }
}
