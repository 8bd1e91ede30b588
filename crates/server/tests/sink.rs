//! `SharedSink` under concurrent writers: the server's request threads
//! and subscription pushers all funnel into one sink, so event seq
//! assignment must stay strictly monotone and no metrics increment may
//! be lost, whatever the interleaving.

use axml_core::sym::Sym;
use axml_core::trace::{EventCategory, EventKind, JournalConfig, ReqKind, TraceSink};
use axml_server::SharedSink;
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 8;
const EVENTS_PER_WRITER: usize = 500;

fn hammer(sink: &Arc<SharedSink>) {
    thread::scope(|scope| {
        for w in 0..WRITERS {
            let sink = Arc::clone(sink);
            scope.spawn(move || {
                let session = Sym::intern(&format!("s{w}"));
                for i in 0..EVENTS_PER_WRITER {
                    // Alternate server request events (metrics-counted)
                    // with subscription pushes, like live traffic does.
                    if i % 2 == 0 {
                        sink.record_traced(
                            EventKind::RequestRecv {
                                session,
                                kind: ReqKind::Query,
                                id: i as u64,
                            },
                            (w * EVENTS_PER_WRITER + i) as u64,
                        );
                    } else {
                        sink.record(EventKind::SubscriptionPush {
                            session,
                            sub: i as u64,
                            trees: 1,
                            round: 1,
                            version: i as u64,
                        });
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_writers_keep_seq_monotone_and_lose_no_increments() {
    let sink = Arc::new(SharedSink::with_config(JournalConfig::unbounded()));
    hammer(&sink);

    let total = WRITERS * EVENTS_PER_WRITER;
    let events = sink.events();
    assert_eq!(events.len(), total, "unbounded journal keeps every event");
    // Seq is assigned under the sink lock: strictly monotone, gap-free.
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "seq must be dense and ordered");
    }
    assert_eq!(sink.journal_dropped(), 0);

    // Metrics increments are never lost: every RequestRecv and every
    // SubscriptionPush is counted exactly once.
    let g = sink.globals();
    assert_eq!(g.requests_recv, (total / 2) as u64);
    assert_eq!(g.subscription_pushes, (total / 2) as u64);
    assert_eq!(g.pushed_trees, (total / 2) as u64);
}

#[test]
fn bounded_ring_under_concurrency_counts_every_drop() {
    let capacity = 64;
    let sink = Arc::new(SharedSink::with_config(JournalConfig {
        capacity: Some(capacity),
    }));
    hammer(&sink);

    let total = (WRITERS * EVENTS_PER_WRITER) as u64;
    assert_eq!(sink.journal_len(), capacity, "ring is full, not overfull");
    assert_eq!(
        sink.journal_dropped(),
        total - capacity as u64,
        "every evicted event is accounted for"
    );
    // Metrics see all traffic regardless of ring eviction.
    assert_eq!(sink.globals().requests_recv, total / 2);
    // Retained events are the newest, still strictly ordered.
    let events = sink.events();
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(events.last().map(|e| e.seq), Some(total - 1));
}

#[test]
fn live_tails_see_filtered_events_under_concurrency() {
    let sink = Arc::new(SharedSink::with_config(JournalConfig::unbounded()));
    let session = Sym::intern("s3");
    let (id, rx, dropped) = sink.subscribe_tail(Some(EventCategory::Server), Some(session));
    hammer(&sink);
    sink.unsubscribe_tail(id);

    let mut seen = 0u64;
    let mut last_seq = None;
    while let Ok(ev) = rx.try_recv() {
        assert_eq!(ev.kind.category(), EventCategory::Server);
        assert_eq!(ev.kind.session(), Some(session));
        assert!(last_seq.is_none_or(|s| s < ev.seq), "tail preserves order");
        last_seq = Some(ev.seq);
        seen += 1;
    }
    // Writer 3 emitted EVENTS_PER_WRITER server-category events for s3
    // (requests + pushes); the tail got each exactly once, minus
    // counted overflow drops — nothing from the other seven writers.
    assert_eq!(
        seen + dropped.load(std::sync::atomic::Ordering::Relaxed),
        EVENTS_PER_WRITER as u64
    );
}
