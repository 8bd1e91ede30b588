//! P2P AXML (§1/§6): peers exchanging extensional *and intensional*
//! data, pull vs push propagation, and distributed termination
//! detection.
//!
//! ```sh
//! cargo run --example p2p_streaming
//! ```

use positive_axml::p2p::network::{Mode, Network};
use positive_axml::p2p::termination::{detect_termination, Verdict};

fn build(mode: Mode, seed: Option<u64>) -> Network {
    let mut net = Network::new(mode, seed);

    // A music store holding the data.
    let store = net.add_peer("store");
    store
        .add_document_text(
            "cds",
            r#"catalog{cd{title{"Body and Soul"}, rating{"****"}},
                       cd{title{"So What"}, rating{"*****"}}}"#,
        )
        .unwrap();
    store
        .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
        .unwrap();
    store
        .add_service_text(
            "rating-of",
            "r{$s} :- input/input{$t}, cds/catalog{cd{title{$t}, rating{$s}}}",
        )
        .unwrap();

    // A reviews hub whose ANSWERS are intensional: they contain calls
    // back to the store rather than materialized ratings.
    let hub = net.add_peer("hub");
    hub.add_document_text("feed", "feed{@store.titles}")
        .unwrap();
    hub.add_service_text(
        "reviews",
        r#"review{title{$x}, @store.rating-of{$x}} :- feed/feed{t{$x}}"#,
    )
    .unwrap();

    // The end-user portal subscribes to the hub.
    let portal = net.add_peer("portal");
    portal
        .add_document_text("page", "page{@hub.reviews}")
        .unwrap();
    net
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pull mode: rounds of polling until global quiescence.
    let mut pull = build(Mode::Pull, None);
    assert!(pull.run(100)?);
    println!(
        "pull page : {}",
        pull.peer("portal").unwrap().doc("page").unwrap()
    );
    println!(
        "pull stats: {} rounds, {} calls, {} responses ({} productive)",
        pull.stats.rounds,
        pull.stats.calls_sent,
        pull.stats.responses,
        pull.stats.productive_responses
    );

    // Push mode reaches the same state with fewer messages once stable.
    let mut push = build(Mode::Push, None);
    assert!(push.run(100)?);
    assert_eq!(pull.canonical_key(), push.canonical_key());
    println!(
        "push stats: {} rounds, {} calls, {} responses ({} productive)",
        push.stats.rounds,
        push.stats.calls_sent,
        push.stats.responses,
        push.stats.productive_responses
    );

    // Confluence across randomized delivery orders (Theorem 2.1 in the
    // distributed setting).
    for seed in [3u64, 1337] {
        let mut net = build(Mode::Pull, Some(seed));
        net.run(100)?;
        assert_eq!(net.canonical_key(), pull.canonical_key());
    }
    println!("confluence: randomized delivery orders agree");

    // Distributed termination detection (§6): the two-wave detector.
    let mut net = build(Mode::Pull, None);
    match detect_termination(&mut net, 200)? {
        Verdict::Terminated { rounds, waves } => {
            println!("distributed termination detected after {rounds} rounds / {waves} waves")
        }
        Verdict::Undecided => unreachable!("this network terminates"),
    }
    Ok(())
}
