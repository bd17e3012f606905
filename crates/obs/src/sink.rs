//! Post-run sinks over a merged [`TraceLog`].
//!
//! All three sinks are pure functions of the log, and the log is a pure
//! function of the master seed, so their output is byte-identical
//! across runs, whatever the host scheduling. Floating-point
//! values are printed with Rust's shortest-round-trip `Display`, which
//! is deterministic.
//!
//! Cost contract: a sink makes one pass over the events and writes
//! straight into one output `String`, so its host cost is O(events)
//! with no allocation per row — numbers go through `fmt::Write` and
//! names are escaped in place. A traced 128-rank Round-Time run logs
//! ≈ 665k events and a 110 MB Chrome trace, so the output buffer must
//! be the only copy of the trace the sink holds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::{Event, TraceLog};

/// Output bytes reserved per event for [`chrome_trace`]: rows average
/// ≈ 100 bytes and a matched send/recv adds a flow row, ≈ 166 bytes per
/// event in all on a Round-Time run.
const TRACE_BYTES_PER_EVENT: usize = 176;

/// Renders the log as Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in chrome://tracing and Perfetto.
///
/// Mapping: one thread (`tid` = rank) per rank under `pid` 0, named
/// `rank N`, or `rank N (K events dropped)` when its buffer overflowed;
/// spans become `B`/`E` pairs, compute slices become complete (`X`)
/// events, notes become instants, counters become `C` events, and
/// matched send/recv pairs become zero-duration `X` markers joined by a
/// flow arrow (`s`/`f` with a shared id). Timestamps are virtual-time
/// microseconds.
pub fn chrome_trace(log: &TraceLog) -> String {
    let ids = flow_ids(log);
    let mut out = String::with_capacity(
        64 + TRACE_BYTES_PER_EVENT * (log.total_events() + log.ranks().len()),
    );
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut row = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for rec in log.ranks() {
        let tid = rec.rank();
        row(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {tid}"
        );
        if rec.dropped() > 0 {
            let _ = write!(out, " ({} events dropped)", rec.dropped());
        }
        out.push_str("\"}}");
    }
    for (rec, ids) in log.ranks().iter().zip(&ids) {
        let tid = rec.rank();
        for (ev, &id) in rec.events().iter().zip(ids) {
            row(&mut out);
            match *ev {
                Event::Enter {
                    secs,
                    name,
                    seq,
                    reads,
                } => {
                    named_row(&mut out, 'B', tid, secs, rec.name(name));
                    let _ = write!(out, ",\"args\":{{\"seq\":{seq}");
                    if let Some(v) = reads.local {
                        let _ = write!(out, ",\"local\":{v}");
                    }
                    if let Some(v) = reads.global {
                        let _ = write!(out, ",\"global\":{v}");
                    }
                    out.push_str("}}");
                }
                Event::Exit { secs, name, reads } => {
                    named_row(&mut out, 'E', tid, secs, rec.name(name));
                    out.push_str(",\"args\":{");
                    let mut sep = "";
                    if let Some(v) = reads.local {
                        let _ = write!(out, "\"local\":{v}");
                        sep = ",";
                    }
                    if let Some(v) = reads.global {
                        let _ = write!(out, "{sep}\"global\":{v}");
                    }
                    out.push_str("}}");
                }
                Event::Note { secs, name } => {
                    named_row(&mut out, 'i', tid, secs, rec.name(name));
                    out.push_str(",\"s\":\"t\"}");
                }
                Event::Counter { secs, name, value } => {
                    named_row(&mut out, 'C', tid, secs, rec.name(name));
                    let _ = write!(out, ",\"args\":{{\"value\":{value}}}}}");
                }
                Event::Compute { secs, dur } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"compute\"}}",
                        secs * 1e6,
                        dur * 1e6
                    );
                }
                Event::Send {
                    secs,
                    peer,
                    tag,
                    bytes,
                }
                | Event::Recv {
                    secs,
                    peer,
                    tag,
                    bytes,
                } => {
                    // A flow starts (`s`) at the send and finishes (`f`,
                    // bound to the enclosing slice) at the matching recv.
                    let (verb, arrow, flow) = match ev {
                        Event::Send { .. } => ("send", "->", "\"ph\":\"s\""),
                        _ => ("recv", "<-", "\"ph\":\"f\",\"bp\":\"e\""),
                    };
                    let ts = secs * 1e6;
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":0,\"name\":\"{verb} {tag:#x} {arrow} {peer}\",\"args\":{{\"bytes\":{bytes}}}}}"
                    );
                    if id != 0 {
                        row(&mut out);
                        let _ = write!(
                            out,
                            "{{{flow},\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{id},\"name\":\"msg\",\"cat\":\"msg\"}}"
                        );
                    }
                }
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Writes the opening of a named trace row,
/// `{"ph":…,"pid":0,"tid":…,"ts":…,"name":"…"`, leaving the object open.
fn named_row(out: &mut String, ph: char, tid: u32, secs: f64, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":\"",
        secs * 1e6
    );
    push_escaped(out, name);
    out.push('"');
}

/// Machine-readable per-rank summary: event/drop counts, message
/// traffic, total compute, and per-span-name call counts and inclusive
/// totals (virtual-time seconds).
pub fn summary_json(log: &TraceLog) -> String {
    struct Agg {
        count: u64,
        total: f64,
    }
    let mut out = String::from("{\"ranks\":[\n");
    let mut open: Vec<f64> = Vec::new();
    let mut spans: BTreeMap<u32, Agg> = BTreeMap::new();
    for (ri, rec) in log.ranks().iter().enumerate() {
        let mut sent_msgs: u64 = 0;
        let mut sent_bytes: u64 = 0;
        let mut recv_msgs: u64 = 0;
        let mut recv_bytes: u64 = 0;
        let mut compute_total = 0.0f64;
        open.clear();
        spans.clear();
        for ev in rec.events() {
            match *ev {
                Event::Enter { secs, .. } => open.push(secs),
                Event::Exit { secs, name, .. } => {
                    if let Some(begin) = open.pop() {
                        let agg = spans.entry(name).or_insert(Agg {
                            count: 0,
                            total: 0.0,
                        });
                        agg.count += 1;
                        agg.total += secs - begin;
                    }
                }
                Event::Send { bytes, .. } => {
                    sent_msgs += 1;
                    sent_bytes += bytes as u64;
                }
                Event::Recv { bytes, .. } => {
                    recv_msgs += 1;
                    recv_bytes += bytes as u64;
                }
                Event::Compute { dur, .. } => compute_total += dur,
                Event::Note { .. } | Event::Counter { .. } => {}
            }
        }
        if ri > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"rank\":{},\"events\":{},\"dropped\":{},\"sent_msgs\":{sent_msgs},\"sent_bytes\":{sent_bytes},\"recv_msgs\":{recv_msgs},\"recv_bytes\":{recv_bytes},\"compute_secs\":{compute_total},\"spans\":[",
            rec.rank(),
            rec.events().len(),
            rec.dropped(),
        );
        for (si, (&name, agg)) in spans.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, rec.name(name));
            let _ = write!(
                out,
                "\",\"count\":{},\"total_secs\":{}}}",
                agg.count, agg.total
            );
        }
        out.push_str("]}");
    }
    let _ = writeln!(
        out,
        "\n],\"total_events\":{},\"total_dropped\":{}}}",
        log.total_events(),
        log.total_dropped()
    );
    out
}

/// Plain-text flamegraph-style report: one line per distinct span
/// *stack* (`outer;inner` folded notation) with call count and
/// inclusive virtual-time seconds, grouped per rank.
pub fn flame_report(log: &TraceLog) -> String {
    struct Agg {
        count: u64,
        total: f64,
    }
    let mut out = String::new();
    let mut path: Vec<u32> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    let mut key = String::new();
    let mut folded: BTreeMap<String, Agg> = BTreeMap::new();
    for rec in log.ranks() {
        let _ = writeln!(out, "rank {}", rec.rank());
        path.clear();
        open.clear();
        folded.clear();
        for ev in rec.events() {
            match *ev {
                Event::Enter { secs, name, .. } => {
                    path.push(name);
                    open.push(secs);
                }
                Event::Exit { secs, .. } => {
                    if let Some(begin) = open.pop() {
                        key.clear();
                        for (depth, &id) in path.iter().enumerate() {
                            if depth > 0 {
                                key.push(';');
                            }
                            key.push_str(rec.name(id));
                        }
                        // The key is only copied the first time a stack
                        // is seen.
                        if !folded.contains_key(key.as_str()) {
                            folded.insert(
                                key.clone(),
                                Agg {
                                    count: 0,
                                    total: 0.0,
                                },
                            );
                        }
                        if let Some(agg) = folded.get_mut(key.as_str()) {
                            agg.count += 1;
                            agg.total += secs - begin;
                        }
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        for (key, agg) in &folded {
            let _ = writeln!(out, "  {key} calls={} total={:.9}s", agg.count, agg.total);
        }
        if rec.dropped() > 0 {
            let _ = writeln!(out, "  ({} events dropped)", rec.dropped());
        }
    }
    out
}

/// A message endpoint for flow matching: its `(src, dst, tag)` channel
/// and where its event sits in the log.
struct Site {
    channel: (u32, u32, u32),
    rank: usize,
    event: usize,
}

/// Per-rank flow ids of matched send/recv pairs, indexed like the
/// rank's events; 0 means the event carries no arrow.
///
/// Reconstructs message flows without envelope ids: for each
/// `(src, dst, tag)` channel, the sender's `Send` events and the
/// receiver's `Recv` events are matched FIFO (the engine guarantees
/// non-overtaking per channel), and each matched pair gets a fresh id,
/// channels in ascending order. Unmatched tails (messages still in
/// flight at run end, or edges lost to buffer capacity) simply carry no
/// arrow.
fn flow_ids(log: &TraceLog) -> Vec<Vec<u64>> {
    let mut sends: Vec<Site> = Vec::new();
    let mut recvs: Vec<Site> = Vec::new();
    for (rank, rec) in log.ranks().iter().enumerate() {
        for (event, ev) in rec.events().iter().enumerate() {
            let (sites, channel) = match *ev {
                Event::Send { peer, tag, .. } => (&mut sends, (rec.rank(), peer, tag)),
                Event::Recv { peer, tag, .. } => (&mut recvs, (peer, rec.rank(), tag)),
                _ => continue,
            };
            sites.push(Site {
                channel,
                rank,
                event,
            });
        }
    }
    // Stable: within a channel, sites stay in log order, which is each
    // endpoint's program order.
    sends.sort_by_key(|s| s.channel);
    recvs.sort_by_key(|r| r.channel);
    let mut ids: Vec<Vec<u64>> = log
        .ranks()
        .iter()
        .map(|rec| vec![0; rec.events().len()])
        .collect();
    let same_channel = |a: &Site, b: &Site| a.channel == b.channel;
    let mut recv_channels = recvs.chunk_by(same_channel).peekable();
    let mut next_id: u64 = 1;
    for send_channel in sends.chunk_by(same_channel) {
        let channel = send_channel[0].channel;
        while recv_channels.next_if(|r| r[0].channel < channel).is_some() {}
        let Some(recv_channel) = recv_channels.next_if(|r| r[0].channel == channel) else {
            continue;
        };
        for (s, r) in send_channel.iter().zip(recv_channel) {
            ids[s.rank][s.event] = next_id;
            ids[r.rank][r.event] = next_id;
            next_id += 1;
        }
    }
    ids
}

/// Appends `s` JSON-escaped (quote, backslash, control characters).
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
        out.push_str(&rest[..i]);
        // Every character that needs escaping is one ASCII byte.
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ClockReadings, RankRecorder};

    fn two_rank_log() -> TraceLog {
        let mut a = RankRecorder::new(0, 64);
        a.enter(1.0, "sync/test", 0, ClockReadings::global(1.001));
        a.send(1.5, 1, 0x42, 8);
        a.compute(2.0, 0.25);
        a.exit(3.0, ClockReadings::NONE);
        a.counter(3.5, "drift", 1e-6);
        let mut b = RankRecorder::new(1, 64);
        b.recv(2.5, 0, 0x42, 8);
        b.note(2.6, "rep/invalid");
        TraceLog::new(vec![a, b])
    }

    #[test]
    fn chrome_trace_has_all_phases_and_balanced_braces() {
        let json = chrome_trace(&two_rank_log());
        for phase in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"s\"",
            "\"ph\":\"f\"",
        ] {
            assert!(json.contains(phase), "missing {phase} in:\n{json}");
        }
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn send_recv_pairs_share_a_flow_id() {
        let json = chrome_trace(&two_rank_log());
        let start = json
            .lines()
            .find(|l| l.contains("\"ph\":\"s\""))
            .expect("flow start present");
        let finish = json
            .lines()
            .find(|l| l.contains("\"ph\":\"f\""))
            .expect("flow finish present");
        assert!(start.contains("\"id\":1"), "{start}");
        assert!(finish.contains("\"id\":1"), "{finish}");
    }

    #[test]
    fn unmatched_send_gets_no_flow() {
        let mut a = RankRecorder::new(0, 8);
        a.send(1.0, 1, 7, 4);
        let log = TraceLog::new(vec![a, RankRecorder::new(1, 8)]);
        let json = chrome_trace(&log);
        assert!(!json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("send 0x7 -> 1"));
    }

    #[test]
    fn summary_aggregates_spans_and_traffic() {
        let log = two_rank_log();
        let json = summary_json(&log);
        assert!(
            json.contains("\"name\":\"sync/test\",\"count\":1,\"total_secs\":2}"),
            "{json}"
        );
        assert!(json.contains("\"sent_msgs\":1"));
        assert!(json.contains("\"recv_msgs\":1"));
        assert!(json.contains("\"compute_secs\":0.25"));
        assert!(json.contains("\"total_events\":7"));
    }

    #[test]
    fn flame_report_folds_nested_stacks() {
        let mut a = RankRecorder::new(0, 64);
        a.enter(0.0, "outer", 0, ClockReadings::NONE);
        a.enter(1.0, "inner", 0, ClockReadings::NONE);
        a.exit(2.0, ClockReadings::NONE);
        a.exit(4.0, ClockReadings::NONE);
        let report = flame_report(&TraceLog::new(vec![a]));
        assert!(report.contains("outer;inner calls=1"), "{report}");
        assert!(report.contains("outer calls=1 total=4.0"), "{report}");
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escaped("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escaped("tab\tx"), "tab\\u0009x");
        assert_eq!(escaped("\u{1}end\"\n"), "\\u0001end\\\"\\u000a");
        assert_eq!(escaped("plain/ünï"), "plain/ünï");
    }

    #[test]
    fn dropped_events_are_named_in_the_thread_row() {
        let mut a = RankRecorder::new(0, 2);
        for i in 0..5 {
            a.note(f64::from(i), "tick");
        }
        let log = TraceLog::new(vec![a, RankRecorder::new(1, 8)]);
        assert_eq!(log.ranks()[0].dropped(), 3);
        let json = chrome_trace(&log);
        assert!(
            json.contains("\"args\":{\"name\":\"rank 0 (3 events dropped)\"}}"),
            "{json}"
        );
        assert!(json.contains("\"args\":{\"name\":\"rank 1\"}}"), "{json}");
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }

    /// Naive reference for [`flow_ids`]: one FIFO queue per channel in a
    /// `BTreeMap`, ids handed out channel by channel in key order.
    fn reference_flow_ids(log: &TraceLog) -> Vec<BTreeMap<usize, u64>> {
        type Channel = (u32, u32, u32);
        let mut sends: BTreeMap<Channel, Vec<(usize, usize)>> = BTreeMap::new();
        let mut recvs: BTreeMap<Channel, Vec<(usize, usize)>> = BTreeMap::new();
        for (ri, rec) in log.ranks().iter().enumerate() {
            for (ei, ev) in rec.events().iter().enumerate() {
                match *ev {
                    Event::Send { peer, tag, .. } => {
                        sends
                            .entry((rec.rank(), peer, tag))
                            .or_default()
                            .push((ri, ei));
                    }
                    Event::Recv { peer, tag, .. } => {
                        recvs
                            .entry((peer, rec.rank(), tag))
                            .or_default()
                            .push((ri, ei));
                    }
                    _ => {}
                }
            }
        }
        let mut ids = vec![BTreeMap::new(); log.ranks().len()];
        let mut next_id = 1;
        for (key, send_sites) in &sends {
            let Some(recv_sites) = recvs.get(key) else {
                continue;
            };
            for (&(sri, sei), &(rri, rei)) in send_sites.iter().zip(recv_sites) {
                ids[sri].insert(sei, next_id);
                ids[rri].insert(rei, next_id);
                next_id += 1;
            }
        }
        ids
    }

    /// Random logs (1–8 ranks, three tags, sends and receives
    /// interleaved with other events, plus a channel that only
    /// receives) must get exactly the reference's flow ids.
    #[test]
    fn flat_flow_ids_match_the_naive_reference_on_random_logs() {
        use hcs_sim::rngx::Pcg64;
        let (mut send_tails, mut recv_tails, mut recv_only, mut multi_flow) = (0, 0, 0, 0);
        for case in 0..300 {
            let mut rng = Pcg64::stream(0x0b5_f10e, case);
            let n = 1 + rng.next_u64() % 8;
            let mut recs: Vec<RankRecorder> =
                (0..n as u32).map(|r| RankRecorder::new(r, 1024)).collect();
            for step in 0..rng.next_u64() % 96 {
                let rank = (rng.next_u64() % n) as usize;
                let peer = (rng.next_u64() % n) as u32;
                let tag = (rng.next_u64() % 3) as u32;
                let t = step as f64;
                match rng.next_u64() % 4 {
                    0 => recs[rank].send(t, peer, tag, 8),
                    1 => recs[rank].recv(t, peer, tag, 8),
                    2 => recs[rank].compute(t, 0.5),
                    _ => recs[rank].note(t, "noise"),
                }
            }
            let rank = (rng.next_u64() % n) as usize;
            recs[rank].recv(100.0, 0, 0xdead, 4);
            let log = TraceLog::new(recs);

            let mut per_channel: BTreeMap<(u32, u32, u32), (u32, u32)> = BTreeMap::new();
            for rec in log.ranks() {
                for ev in rec.events() {
                    match *ev {
                        Event::Send { peer, tag, .. } => {
                            per_channel.entry((rec.rank(), peer, tag)).or_default().0 += 1;
                        }
                        Event::Recv { peer, tag, .. } => {
                            per_channel.entry((peer, rec.rank(), tag)).or_default().1 += 1;
                        }
                        _ => {}
                    }
                }
            }
            for &(s, r) in per_channel.values() {
                send_tails += u32::from(s > r && r > 0);
                recv_tails += u32::from(r > s && s > 0);
                recv_only += u32::from(s == 0);
                multi_flow += u32::from(s.min(r) > 1);
            }

            let flat = flow_ids(&log);
            let naive = reference_flow_ids(&log);
            for (ri, rec) in log.ranks().iter().enumerate() {
                let want: Vec<u64> = (0..rec.events().len())
                    .map(|ei| naive[ri].get(&ei).copied().unwrap_or(0))
                    .collect();
                assert_eq!(flat[ri], want, "case {case}, rank {ri}");
            }
        }
        assert!(
            send_tails > 0 && recv_tails > 0 && recv_only > 300 && multi_flow > 0,
            "coverage: {send_tails} send tails, {recv_tails} recv tails, \
             {recv_only} recv-only channels, {multi_flow} multi-flow channels"
        );
    }
}
