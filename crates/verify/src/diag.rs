//! Structured diagnostics: stable lint codes, their severities, anchors,
//! and human-readable rendering.

use fuseflow_sam::{Edge, NodeId, SamGraph};

/// Stable lint codes emitted by the analyzer. The numeric part never
/// changes meaning across releases; retired codes are not reused. SA012
/// (a guaranteed deadlock, proven from a promised fiber lower bound) is
/// retired: no compile could make that promise. SA013 (a possible
/// deadlock, with the minimum safe channel capacity) is retired: no run read
/// it, and the simulator reports a deadlock as a typed error. The code for
/// an output with no value writer is retired: `SamGraph::validate` holds
/// every output to exactly one writer per stream, so such a graph is an
/// SA017.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// Stream-kind mismatch across an edge (e.g. a `crd` output feeding a
    /// `val` input).
    SA010,
    /// Stream nesting-depth mismatch at a strict join (the runtime
    /// manifestation is a `Semantics` stream-misalignment error).
    SA011,
    /// Dead node: no `CrdWriter`/`ValWriter` is reachable from it, so it
    /// can never influence an output.
    SA014,
    /// Unused tensor slot: no `LevelScanner`/`Array` references it.
    SA015,
    /// The graph fails `SamGraph::validate` (cycle, edge naming a missing
    /// node or port, double-driven or unconnected input, bad slot, an output
    /// stream without exactly one writer). The message carries the
    /// `GraphError`; no other pass runs.
    SA017,
}

impl Code {
    /// The severity every diagnostic of this code carries.
    pub fn severity(&self) -> Severity {
        match self {
            Code::SA010 | Code::SA011 | Code::SA017 => Severity::Error,
            Code::SA014 | Code::SA015 => Severity::Warning,
        }
    }
}

/// The stable string form, e.g. `SA010`: the variant's name.
impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; the graph may still execute correctly.
    Warning,
    /// The graph is wrong or will fail at runtime.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// A node.
    Node(NodeId),
    /// An edge (stream).
    Edge(Edge),
    /// An input tensor slot, by index.
    TensorSlot(usize),
    /// An output slot, by index.
    OutputSlot(usize),
}

impl Anchor {
    /// Renders the anchor with display labels resolved against `g`.
    pub fn render(&self, g: &SamGraph) -> String {
        match self {
            Anchor::Node(n) => g.node_anchor(*n),
            Anchor::Edge(e) => g.edge_anchor(e),
            Anchor::TensorSlot(i) => match g.tensors().get(*i) {
                Some(t) => format!("tensor '{}'", t.name),
                None => format!("tensor slot {i}"),
            },
            Anchor::OutputSlot(i) => match g.outputs().get(*i) {
                Some(o) => format!("output '{}'", o.name),
                None => format!("output slot {i}"),
            },
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Stable lint code.
    pub code: Code,
    /// What the diagnostic points at; the first anchor is primary.
    pub anchors: Vec<Anchor>,
    /// Human-readable description.
    pub message: String,
}

impl Diag {
    /// Builds a diagnostic.
    pub fn new(code: Code, anchors: Vec<Anchor>, message: impl Into<String>) -> Self {
        Diag { code, anchors, message: message.into() }
    }

    /// The severity of the diagnostic's code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders `error[SA010]: message (at anchor, anchor)`; the `(at ...)`
    /// part is dropped for a diagnostic without anchors.
    pub fn render(&self, g: &SamGraph) -> String {
        let head = format!("{}[{}]: {}", self.severity(), self.code, self.message);
        if self.anchors.is_empty() {
            return head;
        }
        let at = self.anchors.iter().map(|a| a.render(g)).collect::<Vec<_>>().join(", ");
        format!("{head} (at {at})")
    }
}

/// The analyzer's full result for one graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics, in pass order.
    pub diags: Vec<Diag>,
}

impl Report {
    /// Diagnostics with `Error` severity.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity() == Severity::Error)
    }

    /// Diagnostics with `Warning` severity.
    pub fn warnings(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity() == Severity::Warning)
    }

    /// True when no diagnostics at all were emitted.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Diagnostics carrying a given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(move |d| d.code == code)
    }

    /// Renders a human-readable report, one diagnostic per line, followed
    /// by the counts.
    pub fn render_human(&self, g: &SamGraph) -> String {
        let mut s = String::new();
        for d in &self.diags {
            s.push_str(&d.render(g));
            s.push('\n');
        }
        s.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.errors().count(),
            self.warnings().count()
        ));
        s
    }
}
