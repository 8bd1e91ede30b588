//! Shared workload generators for the criterion benches and the
//! `experiments` harness (one experiment per formal claim of the paper —
//! see DESIGN.md's per-experiment index X1–X16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use axml_core::query::parse_query;
use axml_core::system::System;
use axml_core::tree::{Marking, NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random tree with `n` nodes over `labels` distinct
/// labels and `values` distinct values; `redundancy` ∈ \[0,1\] is the
/// probability that a new node duplicates an existing sibling subtree
/// shape (what reduction prunes).
pub fn random_tree(n: usize, labels: usize, values: usize, redundancy: f64, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tree::with_label("root");
    let mut interior: Vec<NodeId> = vec![t.root()];
    // Nothing is ever removed, so a local tally tracks `node_count()`
    // without its O(n) live-node walk (which made construction O(n²)
    // and dominated the X20 harness at 64k nodes).
    let mut count = 1usize;
    while count < n {
        let parent = interior[rng.gen_range(0..interior.len())];
        let duplicate = rng.gen_bool(redundancy);
        let marking = if duplicate || rng.gen_bool(0.75) {
            Marking::label(&format!("l{}", rng.gen_range(0..labels)))
        } else {
            Marking::value(&format!("{}", rng.gen_range(0..values)))
        };
        if let Ok(id) = t.add_child(parent, marking) {
            count += 1;
            if !t.marking(id).is_value() {
                interior.push(id);
            }
        }
    }
    t
}

/// The lazy-evaluation portal of experiment X9: one relevant rating call
/// plus `junk_branches` branches each hosting a diverging service.
pub fn poisoned_portal(junk_branches: usize) -> System {
    let mut sys = System::new();
    let mut dir =
        String::from(r#"directory{cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}}"#);
    for i in 0..junk_branches {
        dir.push_str(&format!(r#", junk{i}{{@Spam{i}}}"#));
    }
    dir.push('}');
    sys.add_document_text("dir", &dir).unwrap();
    sys.add_document_text(
        "ratings",
        r#"db{entry{name{"Body and Soul"}, stars{"****"}}}"#,
    )
    .unwrap();
    sys.add_service_text(
        "GetRating",
        r#"rating{$s} :- input/input{$n}, ratings/db{entry{name{$n}, stars{$s}}}"#,
    )
    .unwrap();
    for i in 0..junk_branches {
        sys.add_service_text(&format!("Spam{i}"), &format!("junk{i}{{@Spam{i}}} :-"))
            .unwrap();
    }
    sys
}

/// The rating query over [`poisoned_portal`].
pub fn rating_query() -> axml_core::query::Query {
    parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#).unwrap()
}

/// A terminating simple positive system whose graph representation grows
/// with `k`: a k-stage copy pipeline over `w` base values (X7's
/// termination-decision scaling family).
pub fn pipeline_system(k: usize, w: usize) -> System {
    let mut sys = System::new();
    let mut base = String::from("r{");
    for v in 0..w {
        base.push_str(&format!(r#"v0{{"{v}"}},"#));
    }
    base.pop();
    base.push('}');
    sys.add_document_text("base", &base).unwrap();
    let mut doc = String::from("out{");
    for s in 0..k {
        doc.push_str(&format!("@copy{s},"));
    }
    doc.pop();
    doc.push('}');
    sys.add_document_text("out", &doc).unwrap();
    for s in 0..k {
        let (src_doc, src_pat) = if s == 0 {
            ("base", "r{v0{$x}}".to_string())
        } else {
            ("out", format!("out{{v{s}{{$x}}}}"))
        };
        sys.add_service_text(
            &format!("copy{s}"),
            &format!("v{}{{$x}} :- {src_doc}/{src_pat}", s + 1),
        )
        .unwrap();
    }
    sys
}

/// Example 3.2's transitive-closure system over a chain of length `n`.
pub fn tc_system(n: usize) -> System {
    let mut sys = System::new();
    let mut d0 = String::from("r{");
    for i in 0..n {
        d0.push_str(&format!(r#"t{{from{{"{i}"}},to{{"{}"}}}},"#, i + 1));
    }
    d0.pop();
    d0.push('}');
    sys.add_document_text("d0", &d0).unwrap();
    sys.add_document_text("d1", "r{@g,@f}").unwrap();
    sys.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
        .unwrap();
    sys.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
    )
    .unwrap();
    sys
}

/// X12's workload: transitive closure of a random `n`-node digraph whose
/// edge set is sharded across `shards` static edge documents.
///
/// The digraph is a spine `0 → 1 → … → n/4` (the diameter driver — it
/// forces the linear closure rule through ≥ n/4 rewriting rounds) plus
/// `n/4` random extra edges over all `n` nodes. Each shard document
/// `e{i}` holds its slice of the edges; `d1` hosts, per shard, one
/// loader call emitting `t` tuples and one emitting `e` tuples (both
/// read *only* their static shard), plus the closure call
/// `f : t(x,y) :- d1/r{t(x,z), e(z,y)}`.
///
/// Every loader is visited every round, but each is evaluated exactly
/// once, because its read set (its shard) never changes: every later
/// visit is skipped as a no-op. That asymmetry between visits and
/// evaluations is what experiment X14 measures.
pub fn tc_random_digraph(n: usize, shards: usize, seed: u64) -> System {
    assert!(n >= 4 && shards >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let spine = n / 4;
    let mut edges: Vec<(usize, usize)> = (0..spine).map(|i| (i, i + 1)).collect();
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }

    let mut sys = System::new();
    for s in 0..shards {
        let mut doc = String::from("r{");
        let mut any = false;
        for (j, (a, b)) in edges.iter().enumerate() {
            if j % shards == s {
                doc.push_str(&format!(r#"edge{{from{{"{a}"}},to{{"{b}"}}}},"#));
                any = true;
            }
        }
        if any {
            doc.pop();
        }
        doc.push('}');
        sys.add_document_text(&format!("e{s}"), &doc).unwrap();
    }
    let mut d1 = String::from("r{");
    for s in 0..shards {
        d1.push_str(&format!("@loadt{s},@loade{s},"));
    }
    d1.push_str("@f}");
    sys.add_document_text("d1", &d1).unwrap();
    for s in 0..shards {
        sys.add_service_text(
            &format!("loadt{s}"),
            &format!("t{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"),
        )
        .unwrap();
        sys.add_service_text(
            &format!("loade{s}"),
            &format!("e{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"),
        )
        .unwrap();
    }
    sys.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, e{from{$z},to{$y}}}",
    )
    .unwrap();
    sys
}

/// X16's wide-fanout document: a root with `fanout` children spread
/// round-robin over `labels` distinct labels, each child holding one
/// value leaf. A selection of one label filters all `fanout` children
/// to find its `fanout / labels` matches.
pub fn wide_fanout_doc(fanout: usize, labels: usize) -> Tree {
    assert!(labels >= 1);
    let mut t = Tree::with_label("root");
    for i in 0..fanout {
        let c = t
            .add_child(t.root(), Marking::label(&format!("l{}", i % labels)))
            .unwrap();
        t.add_child(c, Marking::value(&format!("{i}"))).unwrap();
    }
    t
}

/// The single-label selection of one label bucket of [`wide_fanout_doc`].
pub fn wide_fanout_pattern(labels: usize) -> axml_core::pattern::Pattern {
    axml_core::parse::parse_pattern(&format!("root{{l{}{{$x}}}}", labels - 1)).unwrap()
}

/// X16's deep-chain document: a `depth`-long spine of `s`-labeled nodes,
/// each spine node also carrying `junk` distinct-labeled junk children.
/// Matching the spine pattern filters O(junk) children per level.
pub fn deep_chain_doc(depth: usize, junk: usize) -> Tree {
    let mut t = Tree::with_label("root");
    let mut cur = t.root();
    for d in 0..depth {
        for j in 0..junk {
            t.add_child(cur, Marking::label(&format!("j{d}x{j}")))
                .unwrap();
        }
        cur = t.add_child(cur, Marking::label("s")).unwrap();
    }
    t.add_child(cur, Marking::value("end")).unwrap();
    t
}

/// The spine pattern for [`deep_chain_doc`], binding the value
/// leaf at the chain's tip.
pub fn deep_chain_pattern(depth: usize) -> axml_core::pattern::Pattern {
    let mut s = String::from("root{");
    for _ in 0..depth {
        s.push_str("s{");
    }
    s.push_str("$x");
    for _ in 0..depth {
        s.push('}');
    }
    s.push('}');
    axml_core::parse::parse_pattern(&s).unwrap()
}

/// An XMark-style site: `zones × regions × per_region` items, each
/// `item{id{..},cat{"cK"},price{..},name{..}}` under
/// `site{zone{zid{..},region{rid{..},item…}}}`. Item `i` falls in
/// category `i % cats`, so every category selects `items / cats` items
/// spread over the regions, and the document is the same on every call.
pub fn site_doc(zones: usize, regions: usize, per_region: usize, cats: usize) -> Tree {
    assert!(cats >= 1);
    let mut t = Tree::with_label("site");
    let leaf = |t: &mut Tree, parent: NodeId, label: &str, value: String| {
        let n = t.add_child(parent, Marking::label(label)).unwrap();
        t.add_child(n, Marking::value(&value)).unwrap();
    };
    let mut i = 0usize;
    for z in 0..zones {
        let zone = t.add_child(t.root(), Marking::label("zone")).unwrap();
        leaf(&mut t, zone, "zid", format!("z{z:02}"));
        for r in 0..regions {
            let region = t.add_child(zone, Marking::label("region")).unwrap();
            leaf(&mut t, region, "rid", format!("r{r:02}"));
            for _ in 0..per_region {
                let item = t.add_child(region, Marking::label("item")).unwrap();
                leaf(&mut t, item, "id", format!("i{i:05}"));
                leaf(&mut t, item, "cat", format!("c{:03}", i % cats));
                leaf(&mut t, item, "price", format!("{:04}", (i * 37) % 10_000));
                leaf(&mut t, item, "name", format!("n{i:05}"));
                i += 1;
            }
        }
    }
    t
}

/// The category selection over [`site_doc`]: the name and price of
/// every item in category `cat`. Its rarest constant, `"cK"`, sits at
/// depth 5.
pub fn site_pattern(cat: usize) -> axml_core::pattern::Pattern {
    axml_core::parse::parse_pattern(&format!(
        "site{{zone{{region{{item{{cat{{\"c{cat:03}\"}},name{{$n}},price{{$p}}}}}}}}}}"
    ))
    .unwrap()
}

/// A `depth`-deep catalog for the path-expression experiments (X10).
pub fn catalog(width: usize, depth: usize) -> String {
    fn level(width: usize, depth: usize, idx: usize) -> String {
        if depth == 0 {
            return format!(r#"cd{{title{{"t{idx}"}}}}"#);
        }
        let mut s = "shelf{".to_string();
        for i in 0..width {
            s.push_str(&level(width, depth - 1, idx * width + i));
            s.push(',');
        }
        s.pop();
        s.push('}');
        s
    }
    let mut s = String::from("lib{");
    for i in 0..width {
        s.push_str(&level(width, depth, i));
        s.push(',');
    }
    s.pop();
    s.push('}');
    s
}

/// The X11 peer network: `k` store peers feeding one portal.
pub fn star_network(
    k: usize,
    mode: axml_p2p::network::Mode,
    seed: Option<u64>,
) -> axml_p2p::network::Network {
    let mut net = axml_p2p::network::Network::new(mode, seed);
    let mut dir = String::from("page{");
    for i in 0..k {
        let store = net.add_peer(&format!("store{i}"));
        store
            .add_document_text(
                "cds",
                &format!(r#"catalog{{cd{{title{{"a{i}"}}}}, cd{{title{{"b{i}"}}}}}}"#),
            )
            .unwrap();
        store
            .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
            .unwrap();
        dir.push_str(&format!("@store{i}.titles,"));
    }
    dir.pop();
    dir.push('}');
    let portal = net.add_peer("portal");
    portal.add_document_text("page", &dir).unwrap();
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::engine::{run, EngineConfig, RunStatus};
    use axml_core::graphrepr::{decide_termination, Termination};

    #[test]
    fn random_tree_is_deterministic_and_sized() {
        let a = random_tree(200, 5, 5, 0.3, 9);
        let b = random_tree(200, 5, 5, 0.3, 9);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.node_count() >= 200);
    }

    #[test]
    fn pipeline_terminates_and_scales() {
        for k in [1usize, 3] {
            let sys = pipeline_system(k, 2);
            assert!(sys.is_simple());
            assert_eq!(decide_termination(&sys).unwrap(), Termination::Terminates);
            let mut runner = sys;
            let (status, _) = run(&mut runner, &EngineConfig::default()).unwrap();
            assert_eq!(status, RunStatus::Terminated);
        }
    }

    #[test]
    fn tc_system_computes_full_closure() {
        let mut sys = tc_system(5);
        run(&mut sys, &EngineConfig::default()).unwrap();
        let d1 = sys.doc("d1".into()).unwrap();
        let tuples = d1
            .children(d1.root())
            .iter()
            .filter(|&&n| d1.marking(n) == Marking::label("t"))
            .count();
        assert_eq!(tuples, 6 * 5 / 2);
    }

    #[test]
    fn tc_random_digraph_delta_is_5x_cheaper_and_equivalent() {
        // X12's acceptance criterion: on the n=64 random-digraph TC
        // workload the engine evaluates ≥5× fewer calls than it visits
        // (every visit is an invocation of the fair rewriting) while
        // reaching the fixpoint of the other visit order.
        let mut sys = tc_random_digraph(64, 6, 12);
        let mut reverse = tc_random_digraph(64, 6, 12);
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        let (rstatus, _) = run(
            &mut reverse,
            &EngineConfig::with_strategy(axml_core::engine::Strategy::Reverse),
        )
        .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert_eq!(rstatus, RunStatus::Terminated);
        assert_eq!(sys.canonical_key(), reverse.canonical_key());
        let visits = stats.invocations + stats.skipped;
        assert!(
            visits >= 5 * stats.invocations,
            "visits={visits} evaluations={}: below the 5x bar",
            stats.invocations
        );
    }

    #[test]
    fn catalog_depth_and_width() {
        let c = catalog(2, 2);
        let t = axml_core::parse::parse_tree(&c).unwrap();
        assert_eq!(t.depth(t.root()), 5); // lib/shelf/shelf/cd/title/"…"
    }

    #[test]
    fn star_network_quiesces() {
        let mut net = star_network(3, axml_p2p::network::Mode::Pull, None);
        assert!(net.run(50).unwrap());
        assert!(net.stats.calls_sent >= 3);
    }
}
