//! Differential coverage for indexed pattern matching: the `Indexed`
//! and `Scan` strategies must enumerate the same binding lists in the
//! same order, with the index itself validating against a
//! rebuild-from-scratch. Anchored descents (a rooted match entering at
//! its rarest constant) are held to the same standard on decoy-laden
//! documents. Engine runs, which always match under `Indexed`, are
//! checked round by round against a reference that scans
//! (`reference/mod.rs`, driven by `delta_engine.rs`), with every index
//! validated after every round.

use positive_axml::core::compile::compile_query;
use positive_axml::core::matcher::{
    match_pattern_anywhere_with, match_pattern_with, MatchStrategy,
};
use positive_axml::core::{parse_pattern, parse_query, Marking, NodeId, Tree};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Matcher-level differential: on random documents, every pattern
    /// shape yields byte-identical binding lists (same order) whether
    /// candidates come from arena scans or index probes.
    #[test]
    fn scan_and_indexed_enumerate_identical_bindings(
        seed in 0u64..1_000_000,
        n in 30usize..220,
    ) {
        let doc = axml_bench::random_tree(n, 4, 4, 0.3, seed);
        doc.build_index();
        for pat in [
            "root{l0{$x}}",
            "root{l1}",
            "root{?l}",
            "root{l0{$x}, l1, #T}",
            "root{l0{l1{$x}}}",
            "root{l2{?a}, l2{?b}}",
            r#"root{l0{"1"}, l1{$x}}"#,
            r#"root{?a{l1{"2"}}, l3{#T}}"#,
        ] {
            let p = parse_pattern(pat).unwrap();
            let (scan, sstats) = match_pattern_with(&p, &doc, MatchStrategy::Scan);
            let (indexed, istats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
            prop_assert!(scan == indexed, "pattern {} diverged", pat);
            prop_assert_eq!(sstats.probes, 0);
            let _ = istats;
        }
        // Unanchored matching must agree on (node, binding) pairs too.
        let p = parse_pattern("l0{$x}").unwrap();
        let (scan, _) = match_pattern_anywhere_with(&p, &doc, MatchStrategy::Scan);
        let (indexed, _) = match_pattern_anywhere_with(&p, &doc, MatchStrategy::Indexed);
        prop_assert_eq!(scan, indexed);
        prop_assert!(doc.validate_index().is_ok());
    }
}

/// An XMark-style site with decoys around the constant `"c003"`: under
/// the wrong parent label (`tag`), at the wrong depth (directly under
/// the root, under a zone, and nested one item deeper), and as a `name`
/// value. 4 zones × 6 regions × 10 items stay under the debug
/// self-check bound, so debug builds also re-run every anchored match
/// unanchored.
fn decoy_site() -> Tree {
    fn leaf(t: &mut Tree, parent: NodeId, label: &str, value: &str) -> NodeId {
        let n = t.add_child(parent, Marking::label(label)).unwrap();
        t.add_child(n, Marking::value(value)).unwrap();
        n
    }
    let mut t = axml_bench::site_doc(4, 6, 10, 16);
    let root = t.root();
    let items: Vec<NodeId> = t
        .iter_live(root)
        .filter(|&n| t.marking(n) == Marking::label("item"))
        .collect();
    let zones: Vec<NodeId> = t.children(root).to_vec();
    for (i, &item) in items.iter().enumerate() {
        if i % 13 == 0 {
            leaf(&mut t, item, "tag", "c003");
        }
        if i % 31 == 0 {
            let inner = t.add_child(item, Marking::label("item")).unwrap();
            leaf(&mut t, inner, "cat", "c003");
            leaf(&mut t, inner, "name", "nested");
        }
        if i % 53 == 0 {
            leaf(&mut t, item, "name", "c003");
        }
    }
    for k in 0..80 {
        leaf(
            &mut t,
            root,
            "cat",
            &format!("c{:03}", if k % 20 == 0 { 3 } else { k % 8 + 16 }),
        );
    }
    for &zone in &zones[..2] {
        let item = t.add_child(zone, Marking::label("item")).unwrap();
        leaf(&mut t, item, "cat", "c003");
        leaf(&mut t, item, "name", "n00003");
    }
    t
}

/// Matcher- and program-level differential for anchored descents: the
/// anchor fires at depths 2–5 from the first indexed call on (its choice
/// builds the index), the bindings equal `Scan`'s bit for bit under both
/// executors, and the anchored descent examines far fewer candidate
/// nodes than the unanchored one `Scan` takes.
#[test]
fn anchored_descent_equals_scan_and_fires_past_decoys() {
    let patterns = [
        // depth 2: "c003" under a root-level cat
        r#"site{cat{"c003"}, zone{zid{$z}}}"#,
        // depth 3: one zone id out of four
        r#"site{zone{zid{"z01"}, region{rid{$r}}}}"#,
        // depth 4: one region id per zone, with an item sibling
        r#"site{zone{region{rid{"r03"}, item{name{$n}}}}}"#,
        // depth 5: the category selection
        r#"site{zone{region{item{cat{"c003"},name{$n},price{$p}}}}}"#,
        // the same constant twice in one pattern
        r#"site{zone{region{item{cat{"c003"},name{$n}}, item{cat{"c003"},price{$p}}}}}"#,
        r#"site{zone{region{item{cat{"c003"},id{$i}}}}, cat{"c003"}}"#,
        // ?l and #T siblings on the path
        r#"site{?z{region{item{cat{"c003"},price{$p}}}}}"#,
        r#"site{zone{?r{item{cat{"c003"},name{$n}}, rid{#T}}}}"#,
        r#"site{zone{region{item{cat{"c003"},#T}}}}"#,
        // repeated subpatterns: one occurrence lies on the anchor path,
        // and the item subpattern also occurs one level up
        r#"site{zone{region{item{cat{"c003"},name{$n}}}}, zone{region{item{cat{"c003"},name{$n}}}}}"#,
        r#"site{zone{region{item{cat{"c003"},name{$n}}}, item{cat{"c003"},name{$n}}}}"#,
    ];
    // Per pattern the anchor can only remove work. How much depends on
    // the branches off the anchor path, which stay unrestricted (the
    // interpreter re-embeds them once per binding), so "far fewer" is
    // asserted for the interpreter on the four single-path selections
    // and for the program over the whole set.
    let mut compiled = (0u64, 0u64);
    for (i, pat) in patterns.into_iter().enumerate() {
        let p = parse_pattern(pat).unwrap();
        let q = parse_query(&format!("h :- d/{pat}")).unwrap();
        let (scan, plain) = match_pattern_with(&p, &decoy_site(), MatchStrategy::Scan);
        assert!(!scan.is_empty(), "{pat} must match something");
        assert_eq!(plain.parent_steps, 0, "{pat}: Scan never anchors");

        let doc = decoy_site();
        assert!(!doc.index_is_built());
        let (anchored, stats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
        assert!(
            doc.index_is_built(),
            "{pat}: the anchor choice builds the index"
        );
        assert_eq!(anchored, scan, "{pat}: anchored indexed diverged");
        assert!(stats.parent_steps > 0, "{pat}: the anchor did not fire");
        assert!(
            stats.scanned <= plain.scanned,
            "{pat}: the anchor added work"
        );
        if i < 4 {
            assert!(
                stats.scanned * 2 < plain.scanned,
                "{pat}: anchored examined {} candidates vs unanchored {}",
                stats.scanned,
                plain.scanned
            );
        }

        let doc = decoy_site();
        let (unanchored, plain) = compile_query(&q, MatchStrategy::Scan).run_atom(0, &doc);
        let (anchored, stats) = compile_query(&q, MatchStrategy::Indexed).run_atom(0, &doc);
        assert_eq!(unanchored, scan, "{pat}: scan program diverged");
        assert_eq!(anchored, scan, "{pat}: anchored program diverged");
        assert!(
            stats.parent_steps > 0,
            "{pat}: the program's anchor did not fire"
        );
        assert!(
            stats.scanned <= plain.scanned,
            "{pat}: the program's anchor added work"
        );
        compiled = (compiled.0 + stats.scanned, compiled.1 + plain.scanned);
    }
    assert!(
        compiled.0 * 3 < compiled.1,
        "program candidates examined {compiled:?}"
    );
}
