//! In-memory spans recorded by the benchmark's delegating adapters,
//! and the self-time arithmetic over them.
//!
//! A span is one call across a layer boundary: which layer, when it
//! started and ended, which span was open when it started (its
//! parent), and which operation it belongs to. A layer's *self time*
//! is its spans' durations minus the part their child spans cover, so
//! the self times of one operation's spans add up to the operation's
//! root span exactly.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks "no parent" / "no operation" in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// The layers time is attributed to. Names are the crate the time was
/// spent in, plus what the benchmark itself adds (`harness`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The benchmark's own loop around one operation.
    Harness,
    /// HTTP encode/parse/decompress done by the harness acting as
    /// the client and server applications.
    HttpCodec,
    /// `Chain::pump_with` and the links it copies through.
    Driver,
    /// The client endpoint's calls.
    Client,
    /// The server endpoint's calls.
    Server,
    /// A middlebox's relay calls (processor time is a child span).
    Mbox,
    /// A middlebox's `DataProcessor::process`.
    Processor,
    /// `LoadGenerator::drive` (root of the fleet workload).
    Loadgen,
    /// `Reactor::open`.
    HostOpen,
    /// `Reactor::step`, `advance_clock` and `next_event`: the
    /// reactor's own turns.
    HostStep,
    /// `Substrate::pump` (the parties' work happens under it).
    SubstratePump,
}

impl Layer {
    /// Number of layers (array length for per-layer tables).
    pub const COUNT: usize = 11;

    /// Every layer, in discriminant order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Harness,
        Layer::HttpCodec,
        Layer::Driver,
        Layer::Client,
        Layer::Server,
        Layer::Mbox,
        Layer::Processor,
        Layer::Loadgen,
        Layer::HostOpen,
        Layer::HostStep,
        Layer::SubstratePump,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::HttpCodec => "http.codec",
            Layer::Driver => "core.driver",
            Layer::Client => "core.client",
            Layer::Server => "core.server",
            Layer::Mbox => "core.mbox",
            Layer::Processor => "mboxes.process",
            Layer::Loadgen => "host.loadgen",
            Layer::HostOpen => "host.open",
            Layer::HostStep => "host.step",
            Layer::SubstratePump => "host.substrate_pump",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer was entered.
    pub layer: Layer,
    /// Index of the span that was open at entry, or [`NONE`].
    pub parent: u32,
    /// The operation this span belongs to, or [`NONE`] outside one
    /// (fixture set-up and warm-up).
    pub op: u32,
    /// Entry, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Exit, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// How long the call took.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for one traced round.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: NONE,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        // Guards drop in reverse order of creation, so `id` is on top.
        self.open.pop();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }
}

thread_local! {
    // One tracer per thread instead of a handle in every adapter:
    // `DataProcessor` must be `Send`, which a shared `Rc` is not, and
    // the benchmark runs on one thread.
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Closes its span when dropped.
pub struct SpanGuard(u32);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        TRACER.with(|t| t.borrow_mut().exit(self.0));
    }
}

/// Open a span on `layer`, child of whatever span is open now.
pub fn span(layer: Layer) -> SpanGuard {
    SpanGuard(TRACER.with(|t| t.borrow_mut().enter(layer)))
}

/// Open operation `op`'s root span: spans entered until the guard
/// drops carry `op` as their identifier.
pub fn op_span(layer: Layer, op: u32) -> OpGuard {
    TRACER.with(|t| t.borrow_mut().op = op);
    OpGuard(span(layer))
}

/// Closes an operation's root span and ends the operation.
pub struct OpGuard(#[allow(dead_code)] SpanGuard);

impl Drop for OpGuard {
    fn drop(&mut self) {
        TRACER.with(|t| t.borrow_mut().op = NONE);
    }
}

/// Drop every recorded span and restart the clock (start of a round).
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Take the spans recorded since the last [`reset`].
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-operation attribution of one traced round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBudget {
    /// Self time per layer, indexed by `Layer as usize`.
    pub self_ns: [u64; Layer::COUNT],
    /// Spans per layer, indexed by `Layer as usize`.
    pub calls: [u32; Layer::COUNT],
    /// Duration of the operation's root span.
    pub root_ns: u64,
}

/// Attribute every span's self time (its duration minus its direct
/// children's durations) to its layer, per operation. Operation ids
/// must be `0..ops`; spans outside any operation are ignored.
pub fn budget_per_op(spans: &[Span], ops: usize) -> Vec<OpBudget> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NONE {
            // Each child is subtracted from its direct parent once;
            // grandchildren are already inside the child's duration.
            let p = span.parent as usize;
            self_ns[p] = self_ns[p].saturating_sub(span.duration_ns());
        }
    }
    let empty = OpBudget {
        self_ns: [0; Layer::COUNT],
        calls: [0; Layer::COUNT],
        root_ns: 0,
    };
    let mut out = vec![empty; ops];
    for (span, &own) in spans.iter().zip(&self_ns) {
        let Some(budget) = out.get_mut(span.op as usize) else {
            continue;
        };
        budget.self_ns[span.layer as usize] += own;
        budget.calls[span.layer as usize] += 1;
        if span.parent == NONE {
            budget.root_ns += span.duration_ns();
        }
    }
    out
}

/// Render spans as a JSON document (`{"workload":…,"spans":[…]}`).
/// `recorded` is how many spans the round recorded, of which `spans`
/// may be a prefix.
pub fn to_json(workload: &str, spans: &[Span], recorded: usize) -> String {
    let mut out = String::with_capacity(96 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans_recorded\":{recorded},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
        match s.parent {
            NONE => out.push_str("null"),
            p => {
                let _ = write!(out, "{p}");
            }
        }
        out.push_str(",\"op\":");
        match s.op {
            NONE => out.push_str("null"),
            op => {
                let _ = write!(out, "{op}");
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, parent: u32, op: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_are_subtracted_once_and_self_times_sum_to_the_root() {
        // op 0: harness [0,100] ⊃ driver [10,90] ⊃ {client [20,40],
        //       mbox [40,80] ⊃ processor [50,70]}
        let spans = [
            s(Layer::Harness, NONE, 0, 0, 100),
            s(Layer::Driver, 0, 0, 10, 90),
            s(Layer::Client, 1, 0, 20, 40),
            s(Layer::Mbox, 1, 0, 40, 80),
            s(Layer::Processor, 3, 0, 50, 70),
        ];
        let budget = &budget_per_op(&spans, 1)[0];
        assert_eq!(budget.root_ns, 100);
        assert_eq!(budget.self_ns[Layer::Harness as usize], 20);
        // Driver loses client (20) and mbox (40) but not the
        // processor, which is the mbox's child, not its own.
        assert_eq!(budget.self_ns[Layer::Driver as usize], 20);
        assert_eq!(budget.self_ns[Layer::Client as usize], 20);
        assert_eq!(budget.self_ns[Layer::Mbox as usize], 20);
        assert_eq!(budget.self_ns[Layer::Processor as usize], 20);
        assert_eq!(budget.self_ns.iter().sum::<u64>(), budget.root_ns);
        assert_eq!(budget.calls[Layer::Client as usize], 1);
    }

    #[test]
    fn operations_are_kept_apart_and_setup_spans_ignored() {
        let spans = [
            s(Layer::Client, NONE, NONE, 0, 1_000), // fixture set-up
            s(Layer::Harness, NONE, 0, 1_000, 1_010),
            s(Layer::Client, 1, 0, 1_002, 1_006),
            s(Layer::Harness, NONE, 1, 1_010, 1_040),
            s(Layer::Client, 3, 1, 1_010, 1_020),
            s(Layer::Client, 3, 1, 1_020, 1_035),
        ];
        let budgets = budget_per_op(&spans, 2);
        assert_eq!(budgets[0].root_ns, 10);
        assert_eq!(budgets[0].self_ns[Layer::Client as usize], 4);
        assert_eq!(budgets[1].root_ns, 30);
        assert_eq!(budgets[1].self_ns[Layer::Client as usize], 25);
        assert_eq!(budgets[1].self_ns[Layer::Harness as usize], 5);
        assert_eq!(budgets[1].calls[Layer::Client as usize], 2);
        for b in &budgets {
            assert_eq!(b.self_ns.iter().sum::<u64>(), b.root_ns);
        }
    }

    #[test]
    fn recorded_spans_nest_by_guard_scope() {
        reset();
        {
            let _op = op_span(Layer::Harness, 0);
            let _outer = span(Layer::Driver);
            drop(span(Layer::Client));
            drop(span(Layer::Server));
        }
        drop(span(Layer::Client)); // outside any operation
        let spans = take();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        assert_eq!((spans[3].op, spans[4].op, spans[4].parent), (0, NONE, NONE));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let budget = &budget_per_op(&spans, 1)[0];
        assert_eq!(budget.self_ns.iter().sum::<u64>(), budget.root_ns);
        let json = to_json("t", &spans, spans.len());
        assert!(json.contains("\"name\":\"core.driver\"") && json.contains("\"parent\":null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
