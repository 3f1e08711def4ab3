//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! The product code is not instrumented (that is a later change); a
//! span here is the benchmark's own stopwatch around one public call —
//! `core.tick` around `VpIndex::apply_updates`, `server.rtt.range`
//! around `VpClient::range` — tagged with the span that caused it and
//! the request (round / tick / request number) it belongs to.
//!
//! What happens *inside* such a call is attributed by **probe
//! replays**: after the call returns, the benchmark feeds the same
//! inputs straight to the layer below (one partition's batch to a
//! standalone sub-index, the record to a bare WAL, …) and records that
//! as a *replay* child. A replay child did not run inside its parent's
//! interval, so its whole duration is charged against the parent;
//! ordinary (nested) children are charged by the part of the parent's
//! interval they cover. Self time is what is left.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::time::Instant;

use crate::json::{obj, Json};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    /// Measured outside the parent's interval (a probe replay).
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span. All tracers
    /// of one run share `origin` so their spans merge onto one clock.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
        replay: bool,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            req,
            replay,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.push(name, parent, req, start, end, false)
    }

    /// Records a probe replay: the layer below `parent`, fed the same
    /// inputs after `parent` returned.
    pub fn record_replay(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.push(name, parent, req, start, end, true)
    }

    /// Appends another tracer's spans (a generator thread's), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Span duration minus what its children account for: the part of
    /// its interval nested children cover (their union, clipped to the
    /// parent) plus the full duration of each replay child.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        Self::self_of(&self.spans[id], &children)
    }

    fn self_of(parent: &Span, children: &[&Span]) -> u64 {
        let mut nested: Vec<(u64, u64)> = Vec::new();
        let mut replayed = 0u64;
        for child in children {
            if child.replay {
                replayed += child.dur_ns();
            } else {
                let lo = child.start_ns.max(parent.start_ns);
                let hi = child.end_ns.min(parent.end_ns);
                if hi > lo {
                    nested.push((lo, hi));
                }
            }
        }
        nested.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (lo, hi) in nested {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        parent.dur_ns().saturating_sub(covered + replayed)
    }

    /// `self_ns` of every span, in one pass: a replay of hundreds of
    /// thousands of single operations records as many spans, and asking
    /// each for its children separately is quadratic.
    fn all_self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| Self::self_of(s, kids))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.all_self_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("id", Json::from(id)),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("self_ns", Json::from(self_ns[id])),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("req", Json::from(s.req)),
                        ("replay", Json::from(s.replay)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_nested_union_and_replays() {
        let o = Instant::now();
        let mut t = Tracer::new(true, o);
        let p = t.record("parent", None, 1, at(o, 0), at(o, 100));
        // Two overlapping nested children cover [10, 50] = 40 µs, a
        // third sticks out past the parent and is clipped to [90, 100].
        t.record("kid", p, 1, at(o, 10), at(o, 40));
        t.record("kid", p, 1, at(o, 30), at(o, 50));
        t.record("kid", p, 1, at(o, 90), at(o, 130));
        // A replay ran later, outside the parent: all 20 µs count.
        t.record_replay("probe", p, 1, at(o, 500), at(o, 520));
        // A grandchild and an unrelated span change nothing.
        t.record("grandkid", Some(1), 1, at(o, 12), at(o, 14));
        t.record("other", None, 2, at(o, 0), at(o, 100));
        assert_eq!(t.self_ns(p.unwrap()), (100 - 40 - 10 - 20) * 1_000);
        assert_eq!(t.self_ns(1), (30 - 2) * 1_000);
        let each: Vec<u64> = (0..t.spans.len()).map(|id| t.self_ns(id)).collect();
        assert_eq!(t.all_self_ns(), each);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let o = Instant::now();
        let mut t = Tracer::new(true, o);
        let p = t.record("parent", None, 1, at(o, 0), at(o, 10));
        t.record_replay("probe", p, 1, at(o, 20), at(o, 50));
        assert_eq!(t.self_ns(p.unwrap()), 0);
    }

    #[test]
    fn off_records_nothing_and_merge_keeps_links() {
        let mut off = Tracer::off();
        let now = Instant::now();
        assert_eq!(off.record("x", None, 0, now, now), None);
        assert!(off.spans.is_empty());

        let o = Instant::now();
        let mut a = Tracer::new(true, o);
        a.record("a", None, 0, at(o, 0), at(o, 1));
        let mut b = Tracer::new(true, o);
        let bp = b.record("b", None, 0, at(o, 0), at(o, 9));
        b.record("b.kid", bp, 0, at(o, 1), at(o, 4));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_ns(1), 6_000);
    }
}
