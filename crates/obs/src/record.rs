//! Per-rank event recording: the [`Event`] model, the bounded
//! [`RankRecorder`] buffer, the engine-facing [`Recorder`] enum and the
//! merged [`TraceLog`].

/// Index into a recorder's interned name table.
pub type NameId = u32;

/// Optional clock readings attached to a span edge, as raw seconds in
/// the frame named by the slot. They are only populated from readings
/// the instrumented algorithm already took (clock reads charge virtual
/// time, so the recorder never takes its own).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockReadings {
    /// Reading of the rank's local clock (its `LocalTime` frame).
    pub local: Option<f64>,
    /// Reading of the rank's global (synchronized) clock.
    pub global: Option<f64>,
}

impl ClockReadings {
    /// No readings attached.
    pub const NONE: ClockReadings = ClockReadings {
        local: None,
        global: None,
    };

    /// Only a global-clock reading (raw seconds via
    /// `GlobalTime::raw_seconds`).
    pub const fn global(raw: f64) -> Self {
        Self {
            local: None,
            global: Some(raw),
        }
    }

    /// Only a local-clock reading (raw seconds via
    /// `LocalTime::raw_seconds`).
    pub const fn local(raw: f64) -> Self {
        Self {
            local: Some(raw),
            global: None,
        }
    }
}

/// One recorded event. `secs` is always the rank's virtual *true* time
/// (the simulation oracle, `RankCtx::now()`), which is free to read and
/// never perturbs the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A named span opened (pushed on the rank's span stack).
    Enter {
        /// Virtual-time seconds at entry.
        secs: f64,
        /// Interned span name.
        name: NameId,
        /// Caller-chosen sequence number (e.g. iteration index).
        seq: u32,
        /// Clock readings the caller already had at entry.
        reads: ClockReadings,
    },
    /// The innermost open span closed.
    Exit {
        /// Virtual-time seconds at exit.
        secs: f64,
        /// Interned name of the span being closed.
        name: NameId,
        /// Clock readings the caller already had at exit.
        reads: ClockReadings,
    },
    /// A point annotation (e.g. `roundtime/invalid`).
    Note {
        /// Virtual-time seconds.
        secs: f64,
        /// Interned note name.
        name: NameId,
    },
    /// A payload message posted to `peer`.
    Send {
        /// Virtual-time seconds after the send overhead was charged.
        secs: f64,
        /// Destination rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u32,
    },
    /// A payload message matched by a receive from `peer`.
    Recv {
        /// Virtual-time seconds after the arrival was absorbed.
        secs: f64,
        /// Source rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u32,
    },
    /// A named counter sample.
    Counter {
        /// Virtual-time seconds.
        secs: f64,
        /// Interned counter name.
        name: NameId,
        /// Sampled value.
        value: f64,
    },
    /// A compute slice of `dur` seconds starting at `secs`.
    Compute {
        /// Virtual-time seconds at the start of the slice.
        secs: f64,
        /// Slice length in seconds (including injected OS noise).
        dur: f64,
    },
}

impl Event {
    /// The event's virtual-time timestamp in seconds.
    pub fn secs(&self) -> f64 {
        match *self {
            Event::Enter { secs, .. }
            | Event::Exit { secs, .. }
            | Event::Note { secs, .. }
            | Event::Send { secs, .. }
            | Event::Recv { secs, .. }
            | Event::Counter { secs, .. }
            | Event::Compute { secs, .. } => secs,
        }
    }
}

/// One rank's bounded event buffer plus its interned name table and
/// span stack. Rank-confined: only the owning rank's body appends, so
/// it needs no synchronization.
#[derive(Debug, Clone)]
pub struct RankRecorder {
    rank: u32,
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
    unbalanced_exits: u64,
    names: Vec<String>,
    stack: Vec<NameId>,
}

impl RankRecorder {
    /// A recorder for `rank` holding at most `cap` events.
    pub fn new(rank: u32, cap: usize) -> Self {
        Self {
            rank,
            events: Vec::new(),
            cap,
            dropped: 0,
            unbalanced_exits: 0,
            names: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Recorded events in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `exit` calls that found no open span.
    pub fn unbalanced_exits(&self) -> u64 {
        self.unbalanced_exits
    }

    /// Resolves an interned name id.
    pub fn name(&self, id: NameId) -> &str {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Interned names, id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Interns `name`, returning a stable id. Linear scan: the name
    /// population is small (span/counter labels) and first-seen order
    /// is deterministic program order.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return pos as NameId;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as NameId
    }

    fn push(&mut self, event: Event) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Opens a span named `name` at virtual time `secs`.
    pub fn enter(&mut self, secs: f64, name: &str, seq: u32, reads: ClockReadings) {
        let name = self.intern(name);
        self.stack.push(name);
        self.push(Event::Enter {
            secs,
            name,
            seq,
            reads,
        });
    }

    /// Closes the innermost open span at virtual time `secs`. Without a
    /// matching `enter` this is counted, not recorded.
    pub fn exit(&mut self, secs: f64, reads: ClockReadings) {
        match self.stack.pop() {
            Some(name) => self.push(Event::Exit { secs, name, reads }),
            None => self.unbalanced_exits += 1,
        }
    }

    /// Records a point annotation.
    pub fn note(&mut self, secs: f64, name: &str) {
        let name = self.intern(name);
        self.push(Event::Note { secs, name });
    }

    /// Records a counter sample.
    pub fn counter(&mut self, secs: f64, name: &str, value: f64) {
        let name = self.intern(name);
        self.push(Event::Counter { secs, name, value });
    }

    /// Records a posted message.
    pub fn send(&mut self, secs: f64, peer: u32, tag: u32, bytes: u32) {
        self.push(Event::Send {
            secs,
            peer,
            tag,
            bytes,
        });
    }

    /// Records a matched receive.
    pub fn recv(&mut self, secs: f64, peer: u32, tag: u32, bytes: u32) {
        self.push(Event::Recv {
            secs,
            peer,
            tag,
            bytes,
        });
    }

    /// Records a compute slice.
    pub fn compute(&mut self, secs: f64, dur: f64) {
        self.push(Event::Compute { secs, dur });
    }

    /// Depth of the currently open span stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// The engine-facing recorder handle: a no-op when observability is
/// disabled. The `Off` arm records nothing and allocates nothing, so a
/// disabled run stays on the zero-allocation fast path.
#[derive(Debug)]
pub enum Recorder {
    /// Observability disabled: every operation is a no-op.
    Off,
    /// Observability enabled: events go to this rank's buffer.
    On(Box<RankRecorder>),
}

impl Recorder {
    /// An enabled recorder for `rank` with the given buffer capacity.
    pub fn on(rank: u32, cap: usize) -> Self {
        Recorder::On(Box::new(RankRecorder::new(rank, cap)))
    }

    /// Is this the recording arm?
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Recorder::On(_))
    }

    /// Mutable access to the underlying recorder, if recording.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut RankRecorder> {
        match self {
            Recorder::Off => None,
            Recorder::On(rec) => Some(rec),
        }
    }

    /// Takes the recorder out, leaving `Off` behind (end-of-run
    /// harvest).
    pub fn take(&mut self) -> Option<RankRecorder> {
        match std::mem::replace(self, Recorder::Off) {
            Recorder::Off => None,
            Recorder::On(rec) => Some(*rec),
        }
    }
}

/// All ranks' recorders, merged in rank order at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    ranks: Vec<RankRecorder>,
}

impl TraceLog {
    /// Merges per-rank recorders; callers must pass them in rank order.
    pub fn new(ranks: Vec<RankRecorder>) -> Self {
        Self { ranks }
    }

    /// Per-rank recorders in rank order.
    pub fn ranks(&self) -> &[RankRecorder] {
        &self.ranks
    }

    /// `true` when no rank recorded anything (e.g. observability off).
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.events().is_empty())
    }

    /// Total recorded events across ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events().len()).sum()
    }

    /// Total events dropped to capacity across ranks.
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_seen_order() {
        let mut rec = RankRecorder::new(0, 16);
        assert_eq!(rec.intern("a"), 0);
        assert_eq!(rec.intern("b"), 1);
        assert_eq!(rec.intern("a"), 0);
        assert_eq!(rec.name(1), "b");
        assert_eq!(rec.name(99), "<unknown>");
    }

    #[test]
    fn span_stack_pairs_enter_exit() {
        let mut rec = RankRecorder::new(0, 16);
        rec.enter(1.0, "outer", 0, ClockReadings::NONE);
        rec.enter(2.0, "inner", 0, ClockReadings::NONE);
        assert_eq!(rec.depth(), 2);
        rec.exit(3.0, ClockReadings::NONE);
        rec.exit(4.0, ClockReadings::NONE);
        assert_eq!(rec.depth(), 0);
        let inner = rec.intern("inner");
        assert!(matches!(
            rec.events()[2],
            Event::Exit { name, .. } if name == inner
        ));
    }

    #[test]
    fn unbalanced_exit_is_counted_not_recorded() {
        let mut rec = RankRecorder::new(0, 16);
        rec.exit(1.0, ClockReadings::NONE);
        assert_eq!(rec.events().len(), 0);
        assert_eq!(rec.unbalanced_exits(), 1);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut rec = RankRecorder::new(0, 2);
        rec.note(1.0, "a");
        rec.note(2.0, "b");
        rec.note(3.0, "c");
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn recorder_off_is_inert_and_take_drains() {
        let mut off = Recorder::Off;
        assert!(!off.is_on());
        assert!(off.get_mut().is_none());
        assert!(off.take().is_none());

        let mut on = Recorder::on(3, 8);
        assert!(on.is_on());
        on.get_mut().expect("recording arm").note(1.0, "x");
        let rec = on.take().expect("recorder taken");
        assert_eq!(rec.rank(), 3);
        assert_eq!(rec.events().len(), 1);
        assert!(!on.is_on(), "take leaves Off behind");
    }

    #[test]
    fn trace_log_totals() {
        let mut a = RankRecorder::new(0, 1);
        a.note(1.0, "x");
        a.note(2.0, "y"); // dropped
        let b = RankRecorder::new(1, 4);
        let log = TraceLog::new(vec![a, b]);
        assert_eq!(log.total_events(), 1);
        assert_eq!(log.total_dropped(), 1);
        assert!(!log.is_empty());
        assert!(TraceLog::default().is_empty());
    }
}
