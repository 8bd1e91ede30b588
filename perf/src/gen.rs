//! Seeded input generators. Each returns the text the server receives
//! *and* the ground truth the oracle checks against, worked out from
//! the generator's own construction, never from `axml-core`.
//!
//! The seed decides labels, values and orderings; the *shape* of every
//! input (node counts, answer-set sizes, rounds to fixpoint, byte
//! lengths) is fixed, so two seeds cost the program the same work and
//! a run-to-run spread across seeds measures the machine, not the
//! generator.

use std::collections::BTreeSet;

/// xorshift64* over a splitmix-scrambled seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// One query and the exact answer set it must return, each answer in
/// [`canon`] form.
#[derive(Clone, Debug)]
pub struct Probe {
    pub query: String,
    pub expected: BTreeSet<String>,
}

/// Canonical text of one compact-syntax tree: children sorted, no
/// whitespace. Two texts denote the same unordered tree exactly when
/// their canonical texts are equal.
pub fn canon(text: &str) -> Result<String, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let out = canon_node(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing input at byte {pos} of {text:?}"));
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn canon_node(b: &[u8], pos: &mut usize) -> Result<String, String> {
    skip_ws(b, pos);
    let start = *pos;
    if b.get(*pos) == Some(&b'"') {
        *pos += 1;
        while *pos < b.len() && b[*pos] != b'"' {
            // An escaped character never ends the string.
            *pos += if b[*pos] == b'\\' { 2 } else { 1 };
        }
        if *pos >= b.len() {
            return Err("unterminated string".to_string());
        }
        *pos += 1;
        return Ok(String::from_utf8_lossy(&b[start..*pos]).into_owned());
    }
    while *pos < b.len() && !matches!(b[*pos], b'{' | b'}' | b',') && !b[*pos].is_ascii_whitespace()
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected a node at byte {start}"));
    }
    let mut out = String::from_utf8_lossy(&b[start..*pos]).into_owned();
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'{') {
        return Ok(out);
    }
    *pos += 1;
    let mut kids = Vec::new();
    loop {
        kids.push(canon_node(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                break;
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
    kids.sort_unstable();
    out.push('{');
    out.push_str(&kids.join(","));
    out.push('}');
    Ok(out)
}

/// The `wire_small` inputs: a point lookup per key of the key/value
/// document of `axml_server::load`, `passes` seeded orderings of the
/// keys one after another.
pub fn kv_probes(seed: u64, entries: usize, passes: usize) -> Vec<Probe> {
    let mut rng = Rng::new(seed);
    (0..passes)
        .flat_map(|_| rng.permutation(entries))
        .map(|k| Probe {
            query: axml_server::load::kv_query(k),
            expected: BTreeSet::from([format!("hit{{\"v{k}\"}}")]),
        })
        .collect()
}

/// Most same-label siblings one parent may have: `open` is quadratic in
/// that count (see README, "the quadratic `open`").
pub const MAX_FANOUT: usize = 100;

/// The `scan_large` inputs.
pub struct Site {
    /// `site{zone{zid{..},region{rid{..},item{id{..},cat{..},price{..},name{..}},…},…},…}`
    pub text: String,
    /// One selection per category, in seeded visiting order.
    pub probes: Vec<Probe>,
}

/// An XMark-style nested document of `zones × regions × per_region`
/// items spread evenly over `cats` categories (every category selects
/// exactly `items / cats` items, so every query costs the same). All
/// values are fixed-width, so the text length does not depend on the
/// seed.
pub fn site(seed: u64, zones: usize, regions: usize, per_region: usize, cats: usize) -> Site {
    assert!(zones <= MAX_FANOUT && regions <= MAX_FANOUT && per_region <= MAX_FANOUT);
    let items = zones * regions * per_region;
    assert!(items.is_multiple_of(cats) && cats <= 1000 && items <= 100_000);
    let mut rng = Rng::new(seed);
    let mut cat_of: Vec<usize> = (0..items).map(|i| i % cats).collect();
    rng.shuffle(&mut cat_of);
    // Names are a seeded relabelling of the item numbers: unique, so no
    // two answers coincide and none is subsumed.
    let name_of = rng.permutation(items);
    let mut by_cat: Vec<BTreeSet<String>> = vec![BTreeSet::new(); cats];
    let mut text = String::with_capacity(items * 64);
    text.push_str("site{");
    let mut i = 0;
    for z in 0..zones {
        if z > 0 {
            text.push(',');
        }
        text.push_str(&format!("zone{{zid{{\"z{z:02}\"}}"));
        for r in 0..regions {
            text.push_str(&format!(",region{{rid{{\"r{r:02}\"}}"));
            for _ in 0..per_region {
                let (cat, name, price) = (cat_of[i], name_of[i], rng.below(10_000));
                text.push_str(&format!(
                    ",item{{id{{\"i{i:05}\"}},cat{{\"c{cat:03}\"}},price{{\"{price:04}\"}},name{{\"n{name:05}\"}}}}"
                ));
                // Canonical child order: "0423" sorts before "n00001".
                by_cat[cat].insert(format!("hit{{\"{price:04}\",\"n{name:05}\"}}"));
                i += 1;
            }
            text.push('}');
        }
        text.push('}');
    }
    text.push('}');
    let probes = rng
        .permutation(cats)
        .into_iter()
        .map(|c| Probe {
            query: format!(
                "hit{{$n,$p}} :- db/site{{zone{{region{{item{{cat{{\"c{c:03}\"}},name{{$n}},price{{$p}}}}}}}}}}"
            ),
            expected: by_cat[c].clone(),
        })
        .collect();
    Site { text, probes }
}

/// A digraph with seeded node labels and its reachability relation.
#[derive(Clone)]
pub struct Digraph {
    /// Node labels, fixed-width (`x00`…): a seeded relabelling.
    pub labels: Vec<String>,
    /// Edges as index pairs, in seeded order.
    pub edges: Vec<(usize, usize)>,
}

impl Digraph {
    /// Relabel the nodes of `shape` and shuffle its edge order by `seed`.
    fn relabelled(seed: u64, nodes: usize, mut shape: Vec<(usize, usize)>) -> Digraph {
        assert!(nodes <= 100);
        let mut rng = Rng::new(seed);
        let labels = rng
            .permutation(nodes)
            .into_iter()
            .map(|l| format!("x{l:02}"))
            .collect();
        rng.shuffle(&mut shape);
        Digraph {
            labels,
            edges: shape,
        }
    }

    /// `reach[v]` = every node reachable from `v` by one or more edges
    /// (breadth-first search from each node).
    pub fn reach(&self) -> Vec<BTreeSet<usize>> {
        let n = self.labels.len();
        let mut succ = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            succ[a].push(b);
        }
        (0..n)
            .map(|v| {
                let mut seen = BTreeSet::new();
                let mut queue = std::collections::VecDeque::from(succ[v].clone());
                while let Some(w) = queue.pop_front() {
                    if seen.insert(w) {
                        queue.extend(succ[w].iter().copied());
                    }
                }
                seen
            })
            .collect()
    }

    /// The answers [`CLOSURE_QUERY`] must return at the fixpoint, in
    /// canonical form: one `hit{f{a},t{b}}` per reachable pair.
    fn closure_text(&self, reach: &[BTreeSet<usize>]) -> BTreeSet<String> {
        reach
            .iter()
            .enumerate()
            .flat_map(|(a, set)| set.iter().map(move |&b| (a, b)))
            .map(|(a, b)| {
                format!(
                    "hit{{f{{\"{}\"}},t{{\"{}\"}}}}",
                    self.labels[a], self.labels[b]
                )
            })
            .collect()
    }

    fn edge_text(&self, tag: &str, (a, b): (usize, usize)) -> String {
        format!(
            "{tag}{{from{{\"{}\"}},to{{\"{}\"}}}}",
            self.labels[a], self.labels[b]
        )
    }
}

/// Asks for every derived `t` edge, direction kept.
const CLOSURE_QUERY: &str = "hit{f{$x},t{$y}} :- edges/r{t{from{$x},to{$y}}}";

/// The `fixpoint_write` inputs: an edge document with the doubling
/// transitive-closure service of Example 3.2, and the closure probe.
#[derive(Clone)]
pub struct Closure {
    /// `r{t{from{..},to{..}},…,@tc}`
    pub doc: String,
    /// Rule text of the `tc` service.
    pub rule: String,
    /// Asks for every `t` edge; expects exactly the closure.
    pub probe: Probe,
}

const DOUBLING_RULE: &str = "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}";

/// A `chain`-edge path (the shape; ⌈log₂ chain⌉ + 1 rounds of the
/// doubling rule), node labels and edge order seeded.
pub fn doubling_closure(seed: u64, chain: usize) -> Closure {
    let shape = (0..chain).map(|i| (i, i + 1)).collect();
    let graph = Digraph::relabelled(seed, chain + 1, shape);
    let mut doc = String::from("r{");
    for &e in &graph.edges {
        doc.push_str(&graph.edge_text("t", e));
        doc.push(',');
    }
    doc.push_str("@tc}");
    let expected = graph.closure_text(&graph.reach());
    Closure {
        doc,
        rule: DOUBLING_RULE.to_string(),
        probe: Probe {
            query: CLOSURE_QUERY.to_string(),
            expected,
        },
    }
}

/// The `mixed_subscribe` inputs: base edges `e`, the same edges seeded
/// as `t`, and the *linear* closure rule (one base edge joined with one
/// derived edge), so round k derives the pairs at distance k + 1.
#[derive(Clone)]
pub struct Linear {
    /// `r{e{..},…,t{..},…,@lc}`
    pub doc: String,
    pub rule: String,
    /// The subscription: every `t` edge; the union of its deltas must
    /// be exactly the closure.
    pub subscription: Probe,
    /// Reader batches: `batch` reachability queries each, every query
    /// paired with the source node it asks about.
    pub batches: Vec<Vec<(usize, String)>>,
    /// `reach_text[v]` = canonical `hit{"label"}` answers for source `v`
    /// at the fixpoint.
    pub reach_text: Vec<BTreeSet<String>>,
}

const LINEAR_RULE: &str = "t{from{$x},to{$y}} :- edges/r{e{from{$x},to{$z}}, t{from{$z},to{$y}}}";

/// A `spine`-edge path plus `extra` chords that each skip one node.
/// Which nodes they skip comes from a fixed shape seed, not from `seed`,
/// so the rounds to fixpoint, the closure and every answer size are the
/// same for every seed; `seed` relabels the nodes and orders the edges.
pub fn linear_closure(seed: u64, spine: usize, extra: usize, batch: usize) -> Linear {
    let mut shape: Vec<(usize, usize)> = (0..spine).map(|i| (i, i + 1)).collect();
    let mut shape_rng = Rng::new(0x5EED_5EED);
    let mut chords = BTreeSet::new();
    while chords.len() < extra {
        let a = shape_rng.below(spine - 1);
        chords.insert((a, a + 2));
    }
    shape.extend(chords);
    let graph = Digraph::relabelled(seed, spine + 1, shape);
    let mut doc = String::from("r{");
    for tag in ["e", "t"] {
        for &e in &graph.edges {
            doc.push_str(&graph.edge_text(tag, e));
            doc.push(',');
        }
    }
    doc.push_str("@lc}");
    let reach = graph.reach();
    let reach_text: Vec<BTreeSet<String>> = reach
        .iter()
        .map(|set| {
            set.iter()
                .map(|&b| format!("hit{{\"{}\"}}", graph.labels[b]))
                .collect()
        })
        .collect();
    let expected = graph.closure_text(&reach);
    // Batch i asks about every (n / batch)-th node of the shape starting
    // at node i, so every batch returns the same number of trees for
    // every seed; the seed orders the queries and the batches.
    let mut rng = Rng::new(seed ^ 0xBA7C);
    let n = graph.labels.len();
    assert!(n.is_multiple_of(batch));
    let mut batches: Vec<Vec<(usize, String)>> = (0..n)
        .map(|i| {
            let mut sources: Vec<usize> = (0..batch).map(|j| (i + j * (n / batch)) % n).collect();
            rng.shuffle(&mut sources);
            sources
                .into_iter()
                .map(|v| {
                    let q = format!(
                        "hit{{$y}} :- edges/r{{t{{from{{\"{}\"}},to{{$y}}}}}}",
                        graph.labels[v]
                    );
                    (v, q)
                })
                .collect()
        })
        .collect();
    rng.shuffle(&mut batches);
    Linear {
        doc,
        rule: LINEAR_RULE.to_string(),
        subscription: Probe {
            query: CLOSURE_QUERY.to_string(),
            expected,
        },
        batches,
        reach_text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_sorts_children_and_ignores_whitespace() {
        assert_eq!(
            canon(r#"hit{ t{"b"}, f{"a"} }"#).unwrap(),
            canon(r#"hit{f{"a"},t{"b"}}"#).unwrap()
        );
        assert_eq!(canon(r#"hit{"n1","04"}"#).unwrap(), r#"hit{"04","n1"}"#);
        assert_ne!(canon(r#"hit{"a"}"#).unwrap(), canon(r#"hit{"b"}"#).unwrap());
        assert_eq!(canon(r#"a{"x, y}"}"#).unwrap(), r#"a{"x, y}"}"#);
        assert!(canon("a{b").is_err());
        assert!(canon("a}").is_err());
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (
            site(7, 2, 5, 20, 20),
            site(7, 2, 5, 20, 20),
            site(8, 2, 5, 20, 20),
        );
        assert_eq!(a.text, b.text);
        assert_eq!(a.probes[0].query, b.probes[0].query);
        assert_eq!(a.probes[0].expected, b.probes[0].expected);
        assert_ne!(a.text, c.text);
        assert_eq!(
            a.text.len(),
            c.text.len(),
            "text length must not depend on the seed"
        );

        let (a, b, c) = (
            doubling_closure(7, 16),
            doubling_closure(7, 16),
            doubling_closure(8, 16),
        );
        assert_eq!(a.doc, b.doc);
        assert_ne!(a.doc, c.doc);
        assert_eq!(a.probe.expected.len(), c.probe.expected.len());

        let (a, b, c) = (
            linear_closure(7, 11, 6, 4),
            linear_closure(7, 11, 6, 4),
            linear_closure(8, 11, 6, 4),
        );
        assert_eq!(a.doc, b.doc);
        assert_ne!(a.doc, c.doc);
        assert_eq!(a.batches[0], b.batches[0]);
        assert_eq!(a.subscription.expected.len(), c.subscription.expected.len());

        let keys = |s| -> Vec<String> { kv_probes(s, 8, 8).into_iter().map(|p| p.query).collect() };
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
    }

    #[test]
    fn site_respects_the_fan_out_bound_and_balances_categories() {
        let s = site(3, 2, 10, 50, 100);
        assert_eq!(s.text.matches("item{").count(), 1000);
        assert_eq!(s.probes.len(), 100);
        for p in &s.probes {
            assert_eq!(p.expected.len(), 10);
        }
        // Count same-label siblings per parent straight from the text.
        assert!(s.text.matches("zone{").count() <= MAX_FANOUT);
        for zone in s.text.split("zone{").skip(1) {
            assert!(zone.matches("region{").count() <= MAX_FANOUT);
        }
        for region in s.text.split("region{").skip(1) {
            assert!(region.matches("item{").count() <= MAX_FANOUT);
        }
    }

    #[test]
    #[should_panic]
    fn site_refuses_a_fan_out_over_the_bound() {
        site(1, 1, 10, MAX_FANOUT + 1, 10);
    }

    #[test]
    fn chain_closure_is_every_forward_pair() {
        let c = doubling_closure(11, 16);
        assert_eq!(c.doc.matches("t{").count(), 16);
        assert_eq!(c.probe.expected.len(), 17 * 16 / 2);
        let path = Digraph::relabelled(11, 17, (0..16).map(|i| (i, i + 1)).collect());
        let reach = path.reach();
        // Node 0 of the shape reaches all others; the last reaches none.
        assert_eq!(reach[0].len(), 16);
        assert!(reach[16].is_empty());
    }

    #[test]
    fn linear_closure_keeps_its_shape_across_seeds() {
        for seed in [1, 2, 3] {
            let l = linear_closure(seed, 11, 6, 4);
            assert_eq!(l.doc.matches("e{from").count(), 17);
            assert_eq!(l.subscription.expected.len(), 12 * 11 / 2);
            assert_eq!(l.batches.len(), 12);
            assert!(l.batches.iter().all(|b| b.len() == 4));
            assert_eq!(l.reach_text.iter().map(BTreeSet::len).sum::<usize>(), 66);
            // Every seed asks for the same number of trees in total.
            let asked: usize = l
                .batches
                .iter()
                .flatten()
                .map(|(v, _)| l.reach_text[*v].len())
                .sum();
            assert_eq!(asked, 4 * 66);
        }
    }

    /// Not a check, a reproduction (README, "the quadratic `open`"):
    /// `open` of one parent with n same-label children costs O(n²).
    /// `cargo test --release --offline --manifest-path perf/Cargo.toml \
    ///  quadratic_open -- --ignored --nocapture`
    #[test]
    #[ignore = "takes seconds and a gigabyte; run by hand"]
    fn quadratic_open() {
        for n in [250, 500, 1000, 2000] {
            let mut text = String::from("site{");
            for i in 0..n {
                text.push_str(&format!(
                    "item{{id{{\"i{i:05}\"}},cat{{\"c{:03}\"}},price{{\"{:04}\"}},name{{\"n{i:05}\"}}}},",
                    i % 200,
                    i * 7 % 10_000
                ));
            }
            text.push_str("end}");
            let t0 = std::time::Instant::now();
            let mut sys = axml_core::System::new();
            sys.add_document_text("db", &text).unwrap();
            println!(
                "{n:>5} same-label siblings, {:>6} nodes: open {:>8.1} ms",
                sys.node_count(),
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
    }
}
