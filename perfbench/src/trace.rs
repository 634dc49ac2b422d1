//! In-memory spans: name, start, end, parent, and a request id shared by
//! every span of one request. Written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. A root span starts a new request id; a child
    /// inherits its parent's.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now_ns();
        self.record(name, parent, start, start)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a finished span. A layer that runs *inside* another layer's
    /// call cannot be timed there from outside the program, so it is timed
    /// on its own over the same input and recorded as that layer's child:
    /// the parent's self time then excludes it.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = match parent {
            Some(p) => self.spans[p].id,
            None => {
                self.next_id += 1;
                self.next_id - 1
            }
        };
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent);
        let out = f();
        self.close(span);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: total self time (duration minus the children's
    /// durations) in ns, and the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            e.1 += 1;
        }
        out
    }

    /// Moves another tracer's spans into this one (ids and parents are
    /// renumbered; times stay relative to each tracer's own origin, which
    /// only matters for reading the file, not for durations).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let id_base = self.next_id;
        let mut max_id = 0;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            max_id = max_id.max(s.id);
            s.id += id_base;
            self.spans.push(s);
        }
        self.next_id += max_id + 1;
    }

    /// Writes one line per span: `id parent name start_ns end_ns`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# span request_id parent name start_ns end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i} {} {parent} {} {} {}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_follow_the_root() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 0, 100);
        let child = t.record("child", Some(root), 10, 40);
        t.record("grandchild", Some(child), 20, 30);
        let other = t.record("root", None, 200, 210);
        let times = t.self_times();
        assert_eq!(times["root"], (70 + 10, 2));
        assert_eq!(times["child"], (20, 1));
        assert_eq!(times["grandchild"], (10, 1));
        assert_eq!(t.spans()[child].id, t.spans()[root].id);
        assert_ne!(t.spans()[other].id, t.spans()[root].id);
    }
}
